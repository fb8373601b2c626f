"""The three benchmark workloads, driven through ``mixvar.cli.main`` in process.

Each workload writes its JSON configs in set-up, then runs rounds: one
round is the same sequence of CLI calls every time, so the share of failed
operations is the same in every run.  Only the CLI calls are timed; the
artifacts are read back and checked after each call, outside the timing.
"""

from __future__ import annotations

import json
import math
import resource
import time
from pathlib import Path

import numpy as np

import checks

# acceptance seeds, used when no --seed is given
DEFAULT_SEEDS = {
    "envelope-1d": 20260810,   # criterion 2
    "envelope-2d": 31,         # criterion 3
    "direct": 72,              # criterion 7 (solve); coerce takes criterion 5's 51
}
# seeds that must not follow --seed: the relax stage keeps its known failure
# (level 1) on every run, and the table it reads is the same on every run
RELAX_TABLE_SEED = 81
RELAX_SEED = 82


def _cpu() -> float:
    """User plus system CPU seconds of the process and its children, to the microsecond."""
    own, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Workload:
    name = ""
    why = ""

    def __init__(self, work: Path, seed: int | None):
        self.work = work
        self.seed = seed
        self.calls: dict[str, list[float]] = {}   # subcommand -> [wall, cpu] this round
        self.reference_bytes = None   # first copy of an artifact that must repeat bit for bit

    def same_bytes(self, path: Path, what: str) -> None:
        blob = path.read_bytes()
        if self.reference_bytes is None:
            self.reference_bytes = blob
        elif blob != self.reference_bytes:
            raise checks.CheckError(f"{what} bytes differ between repetitions of the same config")

    def setup(self) -> None:
        """Write the configs and run the integrand registration checks on them."""
        from mixvar.integrand import builtin_from_config

        for name, cfg in self.configs().items():
            builtin_from_config(cfg)
            (self.work / f"{name}.json").write_text(json.dumps(cfg, indent=1), encoding="utf-8")

    def cli(self, *argv) -> None:
        """One timed call of the public entry point; a nonzero exit is a fault."""
        from mixvar import cli

        argv = [str(a) for a in argv]
        w0, c0 = time.perf_counter(), _cpu()
        code = cli.main(argv)
        self.calls[argv[0]] = [time.perf_counter() - w0, _cpu() - c0]
        if code != 0:
            raise checks.CheckError(f"mixvar {' '.join(argv)} exited with {code}")

    def run_round(self) -> dict:
        """Run one round; returns attempted, failed, quality figures and call times."""
        self.calls = {}
        out = self.round()
        out["calls"] = self.calls
        out["wall"] = sum(w for w, _ in self.calls.values())
        out["cpu"] = sum(c for _, c in self.calls.values())
        return out


class EnvelopeWorkload(Workload):
    """`mixvar envelope` over a lattice; one operation per lattice node."""

    col = 0

    def round(self) -> dict:
        out = self.work / "table.qft"
        self.cli("envelope", "--config", self.work / "envelope.json", "--out", out)
        self.same_bytes(out, "envelope table")
        axes, values, failures = checks.read_table(out)
        pts = checks.lattice_points(axes)
        excess = checks.check_table_bounds(pts, values, self.col)
        self.check_values(axes, values)
        return {"attempted": values.size, "failed": int(failures.sum()), "hull_excess": excess}

    def check_values(self, axes, values):
        pass


class Envelope1D(EnvelopeWorkload):
    name = "envelope-1d"
    why = ("criterion-2 table on a cut lattice: many cheap 1-D nodes, "
           "per-call overhead of the energy and L-BFGS-B dominates")

    def configs(self):
        # the criterion-2 seed on every run: a 1-D well node's value depends on
        # the multistart seed by up to a factor 6, which no bound on
        # hull_excess over five nodes could absorb
        return {"envelope": {
            "a": [2],
            "integrand": {"name": "double_well", "params": {"w": 1.0, "n": 1, "m": 1}},
            "lattice": [[-1.2, 1.2, 5]],
            "resolution": 129,
            "multistart": 16,
            "maxiter": 800,
            "seed": DEFAULT_SEEDS[self.name],
        }}

    def check_values(self, axes, values):
        checks.check_hull_oracle(axes[0], values)


class Envelope2D(EnvelopeWorkload):
    name = "envelope-2d"
    why = ("a=(1,2) double well on a 3x3 lattice with a 9-17-33 ladder: "
           "few costly 2-D nodes, prolongation and projection")
    col = 1

    def configs(self):
        seed = DEFAULT_SEEDS[self.name] if self.seed is None else self.seed
        return {"envelope": {
            "a": [1, 2],
            "integrand": {"name": "double_well", "params": {"w": 1.0, "n": 1, "m": 2, "col": 1}},
            # (V10, V02): the middle row lies inside the well |V02| < 1
            "lattice": [[-0.5, 0.5, 3], [-1.5, 1.5, 3]],
            "levels": [9, 17, 33],
            "resolution": 33,
            "multistart": 4,
            "maxiter": 200,
            "seed": seed,
        }}


class Direct(Workload):
    name = "direct"
    why = ("direct method: a 2-D Dirichlet solve, the theta curve of |V|^2 "
           "and the criterion-8 relax ladder on a table built in set-up")

    SOLVE_V = (0.5, 0.3)       # constant datum gradient (V10, V02)
    SOLVE_VOLUME = 4.0         # the square [-1, 1]^2
    T_GRID = (0.0, 4.0, 5)     # criterion 5's t values
    RELAX_V = (0.0,)           # the relax datum's gradient
    RELAX_VOLUME = 2.0         # the interval [-1, 1]

    def configs(self):
        seed = DEFAULT_SEEDS[self.name] if self.seed is None else self.seed
        coerce_seed = 51 if self.seed is None else self.seed + 1
        well = {"name": "double_well", "params": {"w": 1.0, "n": 1, "m": 1}}
        return {
            "solve": {
                "a": [1, 2],
                "domain": [[-1.0, 1.0], [-1.0, 1.0]],
                "integrand": {"name": "double_well",
                              "params": {"w": 1.0, "n": 1, "m": 2, "col": 1}},
                "datum": {"coeffs": {"1,0": [self.SOLVE_V[0]], "0,2": [self.SOLVE_V[1]]}},
                "p": 4.0,
                "resolution": 33,
                "maxiter": 800,
                "multistart": 1,
                "seed": seed,
            },
            "coerce": {
                "a": [1, 2],
                "integrand": {"name": "pnorm", "params": {"p": 2.0, "n": 1, "m": 2}},
                "multistart": 2,
                "seed": coerce_seed,
            },
            "relax_table": {
                "a": [2],
                "integrand": well,
                # QF = 0 on [-1, 1] and both nodes are exact (F = 0 there), so
                # E_QF = 0 and the gap check tests E_F against the true bound
                "lattice": [[-1.0, 1.0, 2]],
                "levels": [17, 33, 65, 129],
                "resolution": 129,
                "multistart": 4,
                "maxiter": 400,
                "seed": RELAX_TABLE_SEED,
            },
            "relax": {
                "a": [2],
                "domain": [[-1.0, 1.0]],
                "integrand": well,
                "datum": {"coeffs": {"0": [0.0]}},
                "p": 4.0,
                "resolution": 9,
                "multistart": 2,
                "perturbation": 0.05,
                "seed": RELAX_SEED,
            },
        }

    def setup(self) -> None:
        """Configs plus the envelope table that relax reads, built through the CLI."""
        from mixvar import cli

        super().setup()
        table = self.work / "relax_table.qft"
        code = cli.main(["envelope", "--config", str(self.work / "relax_table.json"),
                         "--out", str(table)])
        if code != 0:
            raise checks.CheckError(f"relax table build exited with {code}")
        self.same_bytes(table, "relax table")
        axes, values, _ = checks.read_table(table)
        checks.check_table_bounds(checks.lattice_points(axes), values, 0)

    def round(self) -> dict:
        w = self.work
        attempted = failed = 0

        # Dirichlet solve with a constant-gradient datum
        self.cli("solve", "--config", w / "solve.json", "--out", w / "solve")
        report = json.loads((w / "solve" / "report.json").read_text(encoding="utf-8"))
        energies = [float(r["energy"]) for r in checks.read_csv(w / "solve" / "trace.csv")]
        attempted += 1
        failed += not math.isfinite(report["energy"])
        checks.check_jensen(report["energy"], self.SOLVE_VOLUME, np.array(self.SOLVE_V), col=1)
        checks.check_nonincreasing(energies, "solve trace energy")
        checks.check_collar(w / "solve" / "u.field",
                            {"1,0": [self.SOLVE_V[0]], "0,2": [self.SOLVE_V[1]]})

        # theta curve of |V|^2, q = 2: theta(t) = t and c1 = 1
        theta = w / "theta.csv"
        lo, hi, count = self.T_GRID
        self.cli("coerce", "--config", w / "coerce.json", "--q", 2, "--t", f"{lo}:{hi}:{count}",
                 "--out", theta)
        rows = checks.read_csv(theta)
        ts = [float(r["t"]) for r in rows]
        ths = [float(r["theta_hat"]) for r in rows]
        attempted += len(rows)
        failed += sum(not math.isfinite(v) for v in ths)
        if ts != np.linspace(lo, hi, count).tolist():
            raise checks.CheckError(f"theta curve evaluated at {ts}")
        checks.check_theta_identity(ts, ths)
        fit = json.loads(theta.with_suffix(".csv.fit.json").read_text(encoding="utf-8"))
        checks.check_c1(fit["c1"])

        # relaxation ladder: a level whose row holds a non-finite number failed
        self.cli("relax", "--config", w / "relax.json", "--table", w / "relax_table.qft",
                 "--levels", 3, "--out", w / "relax")
        rows = checks.read_csv(w / "relax" / "report.csv")
        if len(rows) != 3:
            raise checks.CheckError(f"relax report has {len(rows)} levels, expected 3")
        attempted += len(rows)
        numbers = ("E_F", "E_QF", "gap", "grad_norm", "wallclock")
        failed += sum(not all(math.isfinite(float(r[k])) for k in numbers) for r in rows)
        E_F = [float(r["E_F"]) for r in rows]
        E_QF = float(rows[0]["E_QF"])
        checks.check_relax(E_F, [e - E_QF for e in E_F])
        # the finest level's energy density above CF at the datum gradient: the
        # relax stage does not follow --seed, so this repeats on every run
        excess = E_F[-1] / self.RELAX_VOLUME - float(checks.double_well_cf(np.array(self.RELAX_V), 0))
        return {"attempted": attempted, "failed": failed, "hull_excess": excess}


WORKLOADS = {cls.name: cls for cls in (Envelope1D, Envelope2D, Direct)}
