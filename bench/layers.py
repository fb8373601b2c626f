"""Per-layer tracing of mixvar from outside the package.

The tracer wraps the layers' public functions at the places where callers
look them up.  ``envelope``, ``solver`` and ``coercivity`` import
``run_lbfgs`` (and the other descent helpers) by name, so each of those
module attributes is replaced; methods are replaced on their class, which
every module shares.  Wrappers are installed only around traced rounds and
are removed afterwards, so untraced rounds run the package unchanged.

Every wrapped call opens a frame: a layer's self time is its duration
minus the time its wrapped children took.  Calls of the coarse layers
(CLI, tabulation, nodes, descents, solves, I/O) are kept as spans with
their parent span; the innermost per-evaluation layers (energy, integrand,
stencils) are only aggregated, which keeps the trace small.  Spans stay in
memory until ``dump`` writes them out.
"""

from __future__ import annotations

import json
import os
import statistics
from collections import defaultdict
from time import perf_counter

# layers kept as individual spans; all others are aggregated only
SPAN_LAYERS = {
    "cli.main", "containers.write", "containers.read", "envelope.tabulate",
    "envelope.refine", "envelope.min", "descent.lbfgs", "descent.portfolio",
    "descent.prolong", "grid.project", "integrand.register", "solver.solve",
    "solver.relax", "coercivity.theta",
}

# every per-layer metric a traced run reports, with unit and direction
PER_LAYER = [
    ("cli.self_s", "s", "lower"),
    ("containers.write_s", "s", "lower"),
    ("containers.write_bytes", "bytes", "lower"),
    ("containers.read_s", "s", "lower"),
    ("envelope.nodes", "count", "higher"),
    ("envelope.node_s.p50", "s", "lower"),
    ("envelope.node_s.max", "s", "lower"),
    ("envelope.descents_per_node", "count", "lower"),
    ("envelope.won_ratio", "1", "higher"),
    ("envelope.budget_exhausted", "count", "lower"),
    ("envelope.failed_nodes", "count", "lower"),
    ("descent.lbfgs.calls", "count", "lower"),
    ("descent.lbfgs.iters", "count", "lower"),
    ("descent.lbfgs.fevals", "count", "lower"),
    ("descent.lbfgs.self_s", "s", "lower"),
    ("descent.vg.calls", "count", "lower"),
    ("descent.vg.us_per_call", "us", "lower"),
    ("descent.vg.self_s", "s", "lower"),
    ("descent.portfolio_s", "s", "lower"),
    ("descent.prolong.calls", "count", "lower"),
    ("descent.prolong_s", "s", "lower"),
    ("grid.mixed_derivative_s", "s", "lower"),
    ("grid.gradient_adjoint_s", "s", "lower"),
    ("grid.project.calls", "count", "lower"),
    ("grid.project_s", "s", "lower"),
    ("integrand.eval.calls", "count", "lower"),
    ("integrand.eval_s", "s", "lower"),
    ("integrand.grad_s", "s", "lower"),
    ("integrand.fd_grad.calls", "count", "lower"),
    ("integrand.register_s", "s", "lower"),
    ("solver.solve.calls", "count", "lower"),
    ("solver.solve_s", "s", "lower"),
    ("solver.solve.iters", "count", "lower"),
    ("solver.qf_solve_s", "s", "lower"),
    ("solver.relax.extra_descent_s", "s", "lower"),
    ("coercivity.theta_s", "s", "lower"),
    ("coercivity.descents", "count", "lower"),
    ("coercivity.iters", "count", "lower"),
    ("proc.cpu_per_wall", "1", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


class Tracer:
    def __init__(self):
        self.stack: list[list[float]] = []      # open frames: [t0, child_s]
        self.depth: dict[str, int] = defaultdict(int)
        self.stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.extra: dict[str, float] = defaultdict(float)
        self.node_s: list[float] = []
        self.spans: list = []
        self.current_span: int | None = None
        self.round = 0
        self._patches: list = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn, on_exit=None):
        tracer = self
        stats = self.stats[name]
        depth = self.depth
        stack = self.stack
        keep = name in SPAN_LAYERS

        def traced(*args, **kwargs):
            if keep:
                parent = tracer.current_span
                sid = len(tracer.spans)
                tracer.spans.append(None)
                tracer.current_span = sid
            depth[name] += 1
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                depth[name] -= 1
                dur = t1 - frame[0]
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if keep:
                    tracer.spans[sid] = (tracer.round, name, parent, frame[0], t1)
                    tracer.current_span = parent
            if on_exit is not None:
                on_exit(args, kwargs, result, dur)
            return result

        return traced

    def patch(self, name: str, sites, on_exit=None):
        """Replace ``owner.attr`` at every site by one traced wrapper."""
        owner, attr = sites[0]
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        for o, a in sites:
            got = o.__dict__[a] if isinstance(o, type) else getattr(o, a)
            if got is not fn:
                raise RuntimeError(f"{o.__name__}.{a} is not the same object as {owner.__name__}.{attr}")
        wrapper = self.wrap(name, fn, on_exit)
        for o, a in sites:
            self._patches.append((o, a, fn))
            setattr(o, a, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def install(self):
        """Wrap every traced layer of mixvar (imported lazily: the caller set sys.path)."""
        from mixvar import _descent, cli, coercivity, containers, envelope, grid, integrand, solver

        d = self.depth
        x = self.extra

        def on_lbfgs(args, kwargs, res, dur):
            x["lbfgs.iters"] += res.iterations
            if d["envelope.tabulate"]:
                x["lbfgs.in_tabulate"] += 1
            if d["solver.solve"]:
                x["solve.iters"] += res.iterations
            elif d["solver.relax"] and kwargs.get("label") == "prolonged":
                x["relax.extra_descent_s"] += dur
            if d["coercivity.theta"]:
                x["theta.descents"] += 1
                x["theta.iters"] += res.iterations

        def on_vg(args, kwargs, res, dur):
            if d["descent.lbfgs"]:
                x["lbfgs.fevals"] += 1

        def on_integrand(args, kwargs, res, dur):
            if d["descent.vg"] and not d["integrand.eval"] and not d["integrand.grad"]:
                x["vg.integrand_s"] += dur

        def on_grad(args, kwargs, res, dur):
            on_integrand(args, kwargs, res, dur)
            if args[0].grad is None:
                x["fd_grad.calls"] += 1

        def on_node(args, kwargs, res, dur):
            if d["envelope.tabulate"] and not d["envelope.refine"] and not d["envelope.min"]:
                est = res[1] if isinstance(res, tuple) else res
                self.node_s.append(dur)
                x["nodes.won"] += est.best_start != "zero-exact"
                x["nodes.exhausted"] += bool(est.budget_exhausted)

        def on_tabulate(args, kwargs, res, dur):
            x["nodes.failed"] += int(res.failures.sum())

        def on_solve(args, kwargs, res, dur):
            if args[0].integrand.name == "envelope_table":
                x["qf_solve_s"] += dur

        def on_write(args, kwargs, res, dur):
            x["write_bytes"] += os.path.getsize(args[0])

        self.patch("descent.lbfgs", [(envelope, "run_lbfgs"), (solver, "run_lbfgs"),
                                     (coercivity, "run_lbfgs"), (_descent, "run_lbfgs")], on_lbfgs)
        self.patch("descent.vg", [(_descent.StencilEnergy, "value_and_grad")], on_vg)
        self.patch("descent.vg", [(coercivity._PenalizedMoment, "value_and_grad")], on_vg)
        self.patch("descent.portfolio", [(envelope, "start_portfolio"), (coercivity, "start_portfolio"),
                                         (_descent, "start_portfolio")])
        self.patch("descent.prolong", [(envelope, "prolong_zero_boundary"),
                                       (solver, "prolong_zero_boundary"),
                                       (_descent, "prolong_zero_boundary")])
        self.patch("grid.mixed_derivative", [(grid, "mixed_derivative"), (_descent, "mixed_derivative")])
        self.patch("grid.gradient_adjoint", [(grid, "gradient_adjoint"), (_descent, "gradient_adjoint"),
                                             (coercivity, "gradient_adjoint")])
        self.patch("grid.project", [(grid, "project_to_gradients")])
        self.patch("integrand.eval", [(integrand.Integrand, "__call__")], on_integrand)
        self.patch("integrand.grad", [(integrand.Integrand, "gradient")], on_grad)
        self.patch("integrand.register", [(integrand.Integrand, "__post_init__")])
        self.patch("envelope.tabulate", [(envelope, "tabulate_envelope"), (cli, "tabulate_envelope")],
                   on_tabulate)
        self.patch("envelope.refine", [(envelope, "dacorogna_refine")], on_node)
        self.patch("envelope.min", [(envelope, "dacorogna_min")], on_node)
        self.patch("containers.write", [(containers, "write_container"), (envelope, "write_container")],
                   on_write)
        self.patch("containers.read", [(containers, "read_container"), (envelope, "read_container")])
        self.patch("solver.solve", [(solver, "solve_dirichlet"), (cli, "solve_dirichlet")], on_solve)
        self.patch("solver.relax", [(solver, "relax_compare"), (cli, "relax_compare")])
        self.patch("coercivity.theta", [(coercivity, "theta_estimate"), (cli, "theta_estimate")])
        self.patch("cli.main", [(cli, "main")])

    # -- per-round metrics -------------------------------------------------

    def reset(self):
        for s in self.stats.values():
            s[:] = [0, 0.0, 0.0]
        self.extra.clear()
        self.node_s.clear()

    def round_metrics(self, wall: float, cpu: float) -> dict:
        """Per-layer metrics of the round just traced (trace.overhead_pct is added by the caller)."""
        s = self.stats
        x = self.extra

        def calls(n):
            return s[n][0]

        def total(n):
            return s[n][1]

        nodes = len(self.node_s)
        vg_calls = calls("descent.vg")
        return {
            "cli.self_s": s["cli.main"][2],
            "containers.write_s": total("containers.write"),
            "containers.write_bytes": x["write_bytes"],
            "containers.read_s": total("containers.read"),
            "envelope.nodes": nodes,
            "envelope.node_s.p50": statistics.median(self.node_s) if nodes else 0.0,
            "envelope.node_s.max": max(self.node_s) if nodes else 0.0,
            "envelope.descents_per_node": x["lbfgs.in_tabulate"] / nodes if nodes else 0.0,
            "envelope.won_ratio": x["nodes.won"] / nodes if nodes else 0.0,
            "envelope.budget_exhausted": x["nodes.exhausted"],
            "envelope.failed_nodes": x["nodes.failed"],
            "descent.lbfgs.calls": calls("descent.lbfgs"),
            "descent.lbfgs.iters": x["lbfgs.iters"],
            "descent.lbfgs.fevals": x["lbfgs.fevals"],
            "descent.lbfgs.self_s": s["descent.lbfgs"][2],
            "descent.vg.calls": vg_calls,
            "descent.vg.us_per_call": 1e6 * total("descent.vg") / vg_calls if vg_calls else 0.0,
            "descent.vg.self_s": total("descent.vg") - x["vg.integrand_s"],
            "descent.portfolio_s": total("descent.portfolio"),
            "descent.prolong.calls": calls("descent.prolong"),
            "descent.prolong_s": total("descent.prolong"),
            "grid.mixed_derivative_s": total("grid.mixed_derivative"),
            "grid.gradient_adjoint_s": total("grid.gradient_adjoint"),
            "grid.project.calls": calls("grid.project"),
            "grid.project_s": total("grid.project"),
            "integrand.eval.calls": calls("integrand.eval"),
            "integrand.eval_s": total("integrand.eval"),
            "integrand.grad_s": total("integrand.grad"),
            "integrand.fd_grad.calls": x["fd_grad.calls"],
            "integrand.register_s": total("integrand.register"),
            "solver.solve.calls": calls("solver.solve"),
            "solver.solve_s": total("solver.solve"),
            "solver.solve.iters": x["solve.iters"],
            "solver.qf_solve_s": x["qf_solve_s"],
            "solver.relax.extra_descent_s": x["relax.extra_descent_s"],
            "coercivity.theta_s": total("coercivity.theta"),
            "coercivity.descents": x["theta.descents"],
            "coercivity.iters": x["theta.iters"],
            "proc.cpu_per_wall": cpu / wall,
        }

    def dump(self, path):
        """Write the spans kept in memory: [round, name, parent span, start, end]."""
        spans = [list(sp) for sp in self.spans if sp is not None]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["round", "name", "parent", "start_s", "end_s"], "spans": spans}, fh)
