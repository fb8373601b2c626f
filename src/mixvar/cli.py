"""Batch front end: JSON configs in, reproducible numeric artifacts out.

One config file fully determines a run; every stochastic option requires an
explicit seed (no wall-clock seeding), and every numeric output carries the
hash of the resolved config.  Exit codes: 0 success, 2 config validation
error, 3 numerical failure (with a failure manifest and whatever partial
artifacts exist).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .containers import canonical_json, config_hash, save_field
from .coercivity import ThetaOptions, mean_coercivity_fit, theta_estimate
from .envelope import EnvelopeOptions, _check_levels, tabulate_envelope
from .grid import Grid, GridField
from .integrand import builtin_from_config
from .smoothness import SmoothnessVector
from .solver import DirichletProblem, SolveOptions, relax_compare, solve_dirichlet
from .youngmeasure import empirical_measure, moments, scale_and_tile
from .grid import a_gradient

__all__ = ["main"]


class ConfigError(Exception):
    pass


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def _require(cfg: dict, key: str, kind=None):
    if key not in cfg:
        raise ConfigError(f"missing required config field: {key!r}")
    val = cfg[key]
    if kind is not None and not isinstance(val, kind):
        raise ConfigError(f"config field {key!r} has wrong type: expected {kind}")
    return val


def _smoothness(cfg: dict) -> SmoothnessVector:
    a = _require(cfg, "a", list)
    if not a or any((not isinstance(x, int)) or x < 1 for x in a):
        raise ConfigError(f"field 'a' must be a list of positive integers, got {a}")
    return SmoothnessVector(tuple(a))


def _seed(cfg: dict) -> int:
    if "seed" not in cfg:
        raise ConfigError("field 'seed' is mandatory: runs must be reproducible")
    if not isinstance(cfg["seed"], int):
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
    lattice = _require(cfg, "lattice", list)
    levels = cfg.get("levels")
    if levels is not None:
        try:
            _check_levels(_require(cfg, "levels", list))
        except ValueError as exc:
            raise ConfigError(f"field 'levels': {exc}") from exc
    opts = EnvelopeOptions(
        resolution=cfg.get("resolution", 65),
        multistart=cfg.get("multistart", 8),
        tol=cfg.get("tol", 1e-6),
        maxiter=cfg.get("maxiter", 2000),
        seed=seed,
    )
    chash = config_hash(cfg)
    table = tabulate_envelope(
        F, a, [tuple(t) for t in lattice], opts,
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
    if args.t is not None:
        lo, hi, count = args.t.split(":")
        t_grid = np.linspace(float(lo), float(hi), int(count)).tolist()
    else:
        t_grid = _require(cfg, "t_grid", list)
    opts = ThetaOptions(
        resolution=cfg.get("resolution", 17),
        multistart=cfg.get("multistart", 4),
        maxiter=cfg.get("maxiter", 400),
        seed=seed,
    )
    curve = theta_estimate(F, float(q), t_grid, a, opts)
    fit = mean_coercivity_fit(curve, c_min=cfg.get("c_min", 1e-3))
    chash = config_hash(cfg)
    rows = [
        (float(t), float(th), d["feasibility_gap"], d["iterations"])
        for t, th, d in zip(curve.t_values, curve.theta_hat, curve.diagnostics)
    ]
    _write_csv(out, f"# config_hash={chash}",
               ["t", "theta_hat", "feasibility_gap", "iterations"], rows)
    report = {
        "config_hash": chash, "q": float(q),
        "c1": fit.c1, "c2": fit.c2, "coercive": fit.coercive, "degenerate": fit.degenerate,
    }
    out.with_suffix(out.suffix + ".fit.json").write_text(
        canonical_json(report) + "\n", encoding="utf-8"
    )


def _solve_problem(cfg: dict) -> tuple[DirichletProblem, SolveOptions]:
    a = _smoothness(cfg)
    F = _integrand(cfg)
    seed = _seed(cfg)
    domain = tuple((float(lo), float(hi)) for lo, hi in _require(cfg, "domain", list))
    datum = _parse_datum(_require(cfg, "datum", dict))
    resolution = _require(cfg, "resolution", (int, list))
    prob = DirichletProblem(a, domain, F, datum, float(cfg.get("p", F.p)), resolution)
    opts = SolveOptions(
        maxiter=cfg.get("maxiter", 800),
        gtol=cfg.get("gtol", 1e-10),
        multistart=cfg.get("multistart", 1),
        perturbation=cfg.get("perturbation", 1e-2),
        seed=seed,
    )
    return prob, opts


def _cmd_solve(cfg: dict, out: Path) -> None:
    prob, opts = _solve_problem(cfg)
    result = solve_dirichlet(prob, opts)
    out.mkdir(parents=True, exist_ok=True)
    chash = config_hash(cfg)
    save_field(out / "u.field", result.u, {"config_hash": chash, "config": cfg})
    _write_csv(out / "trace.csv", f"# config_hash={chash}", ["iteration", "energy"],
               list(enumerate(result.trace.energies)))
    report = {
        "config_hash": chash,
        "energy": result.energy,
        "converged": result.converged,
        "start": result.start_label,
        "grad_norm": result.trace.grad_norms[0] if result.trace.grad_norms else None,
    }
    (out / "report.json").write_text(canonical_json(report) + "\n", encoding="utf-8")


def _cmd_relax(cfg: dict, out: Path, args) -> None:
    from .envelope import EnvelopeTable

    if args.table is None:
        raise ConfigError("relax requires --table pointing at a .qft file")
    table = EnvelopeTable.load(args.table)
    prob, opts = _solve_problem(cfg)
    levels = args.levels if args.levels is not None else cfg.get("levels", 3)
    report = relax_compare(prob, table, int(levels), opts)
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
    res = src_cfg.get("resolution", 65)
    grid = Grid((( -1.0, 1.0),) * a.ndim, (res,) * a.ndim, a)
    from ._descent import smooth_noise

    rng = np.random.default_rng(seed)
    phi = GridField(grid, smooth_noise(grid, src_cfg.get("components", 1), rng)
                    * src_cfg.get("amplitude", 1.0)).with_zero_collar()
    target_res = src_cfg.get("target_resolution", 2 * res - 1)
    target = Grid(tuple((float(lo), float(hi)) for lo, hi in
                        cfg.get("domain", [[-1.0, 1.0]] * a.ndim)),
                  (target_res,) * a.ndim, a)
    tiled = scale_and_tile(phi, int(src_cfg.get("j", 1)), target)
    nu = empirical_measure(a_gradient(tiled))
    bary, pmom = moments(nu, float(cfg.get("p", 2.0)))
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
        cfg = _load_config(args.config)
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
    except (RuntimeError, ValueError) as exc:
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
