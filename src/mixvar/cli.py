"""Batch front end: JSON configs in, reproducible numeric artifacts out.

One config file fully determines a run; every stochastic option requires an
explicit seed (no wall-clock seeding), and every numeric output carries the
hash of the resolved config.  Exit codes: 0 success; 2 config validation
error, raised before any descent runs; 3 numerical failure, a RuntimeError
such as a diverged descent (with a failure manifest and whatever partial
artifacts exist).  Any other exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from .containers import canonical_json, config_hash, save_field
from .coercivity import (
    ThetaOptions,
    _check_moment_order,
    _sorted_t_values,
    mean_coercivity_fit,
    theta_estimate,
)
from .envelope import (
    EnvelopeOptions,
    EnvelopeTable,
    _check_lattice,
    _check_levels,
    _lattice_nodes,
    _references,
    tabulate_envelope,
)
from .grid import Grid, GridField, a_gradient
from .integrand import _is_int, _is_number, builtin_from_config
from .smoothness import SmoothnessVector
from .solver import (
    DEFAULT_RELAX_LEVELS,
    DirichletProblem,
    SolveOptions,
    _check_refinement_levels,
    _check_table,
    relax_compare,
    solve_dirichlet,
)
from .youngmeasure import empirical_measure, moments, scale_and_tile

__all__ = ["main"]


class ConfigError(Exception):
    pass


# the config fields each subcommand reads, its options class's fields among
# them; any other key is a config error, so a misspelt or stale option
# cannot silently fall back to its default
_SOLVE_KEYS = {"a", "integrand", "domain", "datum", "p", "resolution",
               *(f.name for f in fields(SolveOptions))}
_CONFIG_KEYS = {
    "envelope": {"a", "integrand", "lattice", "levels", *(f.name for f in fields(EnvelopeOptions))},
    "coerce": {"a", "integrand", "q", "t_grid", *(f.name for f in fields(ThetaOptions))},
    "solve": _SOLVE_KEYS,
    "relax": _SOLVE_KEYS | {"levels"},
    "ym": {"a", "seed", "source", "domain", "p"},
}
# the fields of ym's source object
_SOURCE_KEYS = {"type", "resolution", "components", "amplitude", "target_resolution", "j"}


def _load_config(path: str, command: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(cfg) - _CONFIG_KEYS[command])
    if unknown:
        raise ConfigError(f"unknown field(s) for {command}: {', '.join(map(repr, unknown))}")
    return cfg


@contextmanager
def _config_fields(*keys: str):
    """Report a ValueError raised while checking the named fields as a config error."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"field {' / '.join(repr(k) for k in keys)}: {exc}") from exc


def _require(cfg: dict, key: str, kind=None):
    if key not in cfg:
        raise ConfigError(f"missing required config field: {key!r}")
    val = cfg[key]
    if kind is not None and not isinstance(val, kind):
        raise ConfigError(f"config field {key!r} has wrong type: expected {kind}")
    return val


def _count(cfg: dict, key: str, default: int, minimum: int, within: str = "") -> int:
    """An optional integer field of at least ``minimum``; ``within`` prefixes its name."""
    val = cfg.get(key, default)
    if not _is_int(val) or val < minimum:
        raise ConfigError(f"field {within + key!r} must be an integer >= {minimum}, got {val!r}")
    return val


def _number(cfg: dict, key: str, default: float, within: str = "") -> float:
    """An optional finite real field; ``within`` prefixes its name."""
    val = cfg.get(key, default)
    if not _is_number(val):
        raise ConfigError(f"field {within + key!r} must be a finite number, got {val!r}")
    return float(val)


def _options(cls, cfg: dict, seed: int, **minimum: int):
    """``cls`` with ``seed`` and the option keys ``cfg`` sets; the others keep their defaults.

    An integer field is checked as an integer of at least its ``minimum``
    (0 when none is given), any other as a finite number.
    """
    values = {"seed": seed}
    for f in fields(cls):
        if f.name != "seed":
            values[f.name] = (_count(cfg, f.name, f.default, minimum.get(f.name, 0))
                              if f.type == "int" else _number(cfg, f.name, f.default))
    return cls(**values)


def _domain(dom) -> tuple[tuple[float, float], ...]:
    """A domain field: one [lo, hi] pair of finite numbers per axis."""
    if not isinstance(dom, list) or not all(
            isinstance(iv, list) and len(iv) == 2 and all(map(_is_number, iv)) for iv in dom):
        raise ConfigError(f"field 'domain' must be a list of [lo, hi] number pairs, got {dom!r}")
    return tuple((float(lo), float(hi)) for lo, hi in dom)


def _smoothness(cfg: dict) -> SmoothnessVector:
    a = _require(cfg, "a", list)
    if not a or any(not _is_int(x) or x < 1 for x in a):
        raise ConfigError(f"field 'a' must be a list of positive integers, got {a}")
    return SmoothnessVector(tuple(a))


def _seed(cfg: dict) -> int:
    if "seed" not in cfg:
        raise ConfigError("field 'seed' is mandatory: runs must be reproducible")
    if not _is_int(cfg["seed"]):
        raise ConfigError("field 'seed' must be an integer")
    return cfg["seed"]


def _integrand(cfg: dict):
    _require(cfg, "integrand", dict)
    try:
        return builtin_from_config(cfg)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad integrand spec: {exc}") from exc


def _parse_datum(raw) -> dict:
    if not isinstance(raw, dict) or "coeffs" not in raw:
        raise ConfigError("field 'datum' must be {'coeffs': {'i,j': [values...]}}")
    out = {}
    for key, val in raw["coeffs"].items():
        try:
            gamma = tuple(int(t) for t in str(key).split(","))
        except ValueError as exc:
            raise ConfigError(f"bad datum exponent {key!r}: use 'i,j' integers") from exc
        if not (_is_number(val) or isinstance(val, list) and val and all(map(_is_number, val))):
            raise ConfigError(f"field 'datum': coefficient {key!r} must be a finite number or "
                              f"a list of them, got {val!r}")
        out[gamma] = val
    return out


def _write_csv(path: Path, header_comment: str, columns: list[str], rows) -> None:
    lines = [header_comment, ",".join(columns)]
    for row in rows:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cmd_envelope(cfg: dict, out: Path) -> None:
    a = _smoothness(cfg)
    F = _integrand(cfg)
    seed = _seed(cfg)
    with _config_fields("lattice"):
        lattice = _check_lattice(_require(cfg, "lattice", list), F.n, F.m)
        _references(F, _lattice_nodes(lattice, F.n, F.m))
    levels = cfg.get("levels")
    if levels is not None:
        with _config_fields("levels"):
            _check_levels(_require(cfg, "levels", list))
    opts = _options(EnvelopeOptions, cfg, seed, resolution=1, multistart=1)
    coarsest = levels[0] if levels else opts.resolution  # a node's first grid
    with _config_fields("levels" if levels else "resolution"):
        Grid.cube(a, coarsest)
    chash = config_hash(cfg)
    table = tabulate_envelope(
        F, a, lattice, opts,
        levels=levels, meta={"config_hash": chash, "config": cfg},
    )
    table.save(out)
    summary = {
        "config_hash": chash,
        "values_min": float(table.values.min()),
        "values_max": float(table.values.max()),
        "failures": int(table.failures.sum()),
        "nodes": int(table.values.size),
    }
    out.with_suffix(out.suffix + ".summary.json").write_text(
        canonical_json(summary) + "\n", encoding="utf-8"
    )


def _cmd_coerce(cfg: dict, out: Path, args) -> None:
    a = _smoothness(cfg)
    F = _integrand(cfg)
    seed = _seed(cfg)
    q = args.q if args.q is not None else cfg.get("q")
    if q is None:
        raise ConfigError("missing 'q' (config field or --q)")
    if not _is_number(q):
        raise ConfigError(f"field 'q' must be a finite number, got {q!r}")
    q = float(q)
    with _config_fields("q"):
        _check_moment_order(F, q)
    with _config_fields("t_grid" if args.t is None else "--t"):
        if args.t is not None:
            lo, hi, count = args.t.split(":")
            lo, hi = float(lo), float(hi)
            if not np.isfinite(hi - lo):  # an inf or nan end, or a span that overflows
                raise ValueError(f"t range {args.t!r} must have finite ends and span")
            t_grid = np.linspace(lo, hi, int(count)).tolist()
        else:
            t_grid = _require(cfg, "t_grid", list)
            if not all(map(_is_number, t_grid)):
                raise ValueError(f"t values must be finite numbers, got {t_grid!r}")
        if len(_sorted_t_values(t_grid)) < 3:
            raise ValueError("the coercivity fit needs at least 3 t values")
    opts = _options(ThetaOptions, cfg, seed, resolution=1)
    with _config_fields("resolution"):
        Grid.cube(a, opts.resolution)
    curve = theta_estimate(F, q, t_grid, a, opts)
    fit = mean_coercivity_fit(curve)
    chash = config_hash(cfg)
    rows = [
        (float(t), float(th), d["feasibility_gap"], d["iterations"])
        for t, th, d in zip(curve.t_values, curve.theta_hat, curve.diagnostics)
    ]
    _write_csv(out, f"# config_hash={chash}",
               ["t", "theta_hat", "feasibility_gap", "iterations"], rows)
    report = {
        "config_hash": chash, "q": q,
        "c1": fit.c1, "c2": fit.c2, "coercive": fit.coercive, "degenerate": fit.degenerate,
    }
    out.with_suffix(out.suffix + ".fit.json").write_text(
        canonical_json(report) + "\n", encoding="utf-8"
    )


def _solve_problem(cfg: dict) -> tuple[DirichletProblem, SolveOptions]:
    a = _smoothness(cfg)
    F = _integrand(cfg)
    seed = _seed(cfg)
    domain = _domain(_require(cfg, "domain"))
    datum = _parse_datum(_require(cfg, "datum", dict))
    resolution = _require(cfg, "resolution")
    if not (_is_int(resolution) or isinstance(resolution, list)
            and all(_is_int(r) for r in resolution)):
        raise ConfigError(f"field 'resolution' must be an integer or a list of integers, "
                          f"got {resolution!r}")
    _number(cfg, "p", F.p)  # a checked key of the config and its hash; no solve reads it
    prob = DirichletProblem(a, domain, F, datum, resolution)
    with _config_fields("domain", "resolution"):
        grid = prob.grid()
    with _config_fields("datum"):
        prob.datum_field(grid)
    return prob, _options(SolveOptions, cfg, seed)


def _cmd_solve(cfg: dict, out: Path) -> None:
    prob, opts = _solve_problem(cfg)
    result = solve_dirichlet(prob, opts)
    out.mkdir(parents=True, exist_ok=True)
    chash = config_hash(cfg)
    save_field(out / "u.field", result.u, {"config_hash": chash, "config": cfg})
    _write_csv(out / "trace.csv", f"# config_hash={chash}", ["iteration", "energy"],
               list(enumerate(result.energies)))
    report = {
        "config_hash": chash,
        "energy": result.energy,
        "converged": result.converged,
        "start": result.start_label,
        "grad_norm": result.grad_norm,
        "iterations": result.iterations,
        "budget_exhausted": result.budget_exhausted,
    }
    (out / "report.json").write_text(canonical_json(report) + "\n", encoding="utf-8")


def _cmd_relax(cfg: dict, out: Path, args) -> None:
    if args.table is None:
        raise ConfigError("relax requires --table pointing at a .qft file")
    try:
        table = EnvelopeTable.load(args.table)
    except (OSError, ValueError, TypeError) as exc:  # TypeError: a header value of a wrong type
        raise ConfigError(f"field '--table': {exc}") from exc
    prob, opts = _solve_problem(cfg)
    with _config_fields("--table"):
        _check_table(prob, table)
    if args.levels is None:
        levels = _count(cfg, "levels", DEFAULT_RELAX_LEVELS, 1)
    else:
        levels = args.levels
        with _config_fields("--levels"):
            _check_refinement_levels(levels)
    report = relax_compare(prob, table, levels, opts)
    out.mkdir(parents=True, exist_ok=True)
    chash = config_hash(cfg)
    rows = [
        (lev, "x".join(str(r) for r in res), ef, report.E_QF, gap, gn, wc, conv)
        for lev, res, ef, gap, gn, wc, conv in zip(
            report.levels, report.resolutions, report.E_F, report.gaps,
            report.grad_norms, report.wallclock, report.converged,
        )
    ]
    _write_csv(out / "report.csv", f"# config_hash={chash}",
               ["level", "resolution", "E_F", "E_QF", "gap", "grad_norm", "wallclock",
                "converged"], rows)
    payload = {
        "config_hash": chash,
        "E_F": report.E_F,
        "E_QF": report.E_QF,
        "gaps": report.gaps,
        "lower_bound_ok": report.lower_bound_ok,
        "no_relaxation_gap_detected": report.no_gap_detected,
    }
    (out / "report.json").write_text(canonical_json(payload) + "\n", encoding="utf-8")


def _cmd_ym(cfg: dict, out: Path) -> None:
    a = _smoothness(cfg)
    seed = _seed(cfg)
    src_cfg = _require(cfg, "source", dict)
    if src_cfg.get("type") != "scale_and_tile":
        raise ConfigError("source.type must be 'scale_and_tile'")
    unknown = sorted(set(src_cfg) - _SOURCE_KEYS)
    if unknown:
        raise ConfigError(f"unknown field(s) for source: {', '.join(map(repr, unknown))}")
    res = _count(src_cfg, "resolution", 65, 1, "source.")
    components = _count(src_cfg, "components", 1, 1, "source.")
    amplitude = _number(src_cfg, "amplitude", 1.0, "source.")
    target_res = _count(src_cfg, "target_resolution", 2 * res - 1, 1, "source.")
    j = _count(src_cfg, "j", 1, 0, "source.")
    p = _number(cfg, "p", 2.0)
    with _config_fields("source"):
        grid = Grid.cube(a, res)
    with _config_fields("domain", "source"):
        domain = _domain(cfg["domain"]) if "domain" in cfg else Grid.cube(a, target_res).domain
        target = Grid(domain, (target_res,) * a.ndim, a)
    from ._descent import smooth_noise

    rng = np.random.default_rng(seed)
    phi = GridField(grid, smooth_noise(grid, components, rng) * amplitude).with_zero_collar()
    tiled = scale_and_tile(phi, j, target)
    nu = empirical_measure(a_gradient(tiled))
    bary, pmom = moments(nu, p)
    out.mkdir(parents=True, exist_ok=True)
    chash = config_hash(cfg)
    rows = [tuple(row) for row in nu.to_rows()]
    coords = [f"w{i}" for i in range(nu.n * nu.m)]
    _write_csv(out / "measure.csv", f"# config_hash={chash}", coords + ["weight"], rows)
    diag = {
        "config_hash": chash,
        "barycentre": bary.reshape(-1).tolist(),
        "p_moment": pmom,
        "atoms": len(nu.weights),
    }
    (out / "diagnostics.json").write_text(canonical_json(diag) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mixvar",
        description="mixed-order variational toolkit: envelopes, coercivity, "
                    "Dirichlet solves, relaxation gaps, Young-measure diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("envelope", "coerce", "solve", "relax", "ym"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON run configuration")
        sp.add_argument("--out", required=True, help="output file or directory")
        if name == "coerce":
            sp.add_argument("--q", type=float, default=None)
            sp.add_argument("--t", type=str, default=None, help="lo:hi:count grid")
        if name == "relax":
            sp.add_argument("--table", type=str, default=None, help=".qft envelope table")
            sp.add_argument("--levels", type=int, default=None)
    args = parser.parse_args(argv)

    out = Path(args.out)
    try:
        cfg = _load_config(args.config, args.command)
        if args.command == "envelope":
            _cmd_envelope(cfg, out)
        elif args.command == "coerce":
            _cmd_coerce(cfg, out, args)
        elif args.command == "solve":
            _cmd_solve(cfg, out)
        elif args.command == "relax":
            _cmd_relax(cfg, out, args)
        elif args.command == "ym":
            _cmd_ym(cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        manifest = {"error": type(exc).__name__, "message": str(exc)}
        try:
            target = out if out.suffix == "" else out.parent
            target.mkdir(parents=True, exist_ok=True)
            (target / "failure.json").write_text(canonical_json(manifest) + "\n", encoding="utf-8")
        except OSError:
            pass
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
