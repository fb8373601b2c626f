"""Numerical quasiconvex envelopes for the mixed-order gradient.

The envelope value at V is the infimum of the mean of F(V + grad_a(phi))
over zero-boundary test fields phi on Q = [-1, 1]^N; the test domain can be
fixed to Q without loss.  The estimator descends from a multistart portfolio
(zero, laminate profiles, scaled smooth noise) and always evaluates phi = 0
exactly, so the returned value never exceeds F(V).

Because the forward-difference stencils have exactly zero mean on
zero-boundary fields, convex integrands satisfy the discrete Jensen
inequality exactly and the estimator returns F(V) to round-off for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from ._descent import DescentResult, StencilEnergy, prolong_zero_boundary, run_lbfgs, start_portfolio
from .containers import TABLE_MAGIC, read_container, write_container
from .grid import Grid, GridField
from .integrand import Integrand
from .smoothness import SmoothnessVector, homogeneity_set

__all__ = [
    "EnvelopeOptions",
    "EnvelopeEstimate",
    "AQCVerdict",
    "EnvelopeTable",
    "dacorogna_min",
    "dacorogna_refine",
    "is_aqc_at",
    "tabulate_envelope",
    "envelope_interpolate",
]

DEFAULT_LEVELS = (17, 33, 65)


@dataclass(frozen=True)
class EnvelopeOptions:
    resolution: int = 65
    multistart: int = 8
    tol: float = 1e-6
    maxiter: int = 2000
    screen_maxiter: int = 300   # phase-1 budget per start; best few get the rest
    polish_top: int = 3
    seed: int = 0

    def grid(self, a: SmoothnessVector) -> Grid:
        dom = tuple(((-1.0, 1.0),) * a.ndim)
        return Grid(dom, (self.resolution,) * a.ndim, a)


@dataclass
class EnvelopeEstimate:
    value: float
    reference: float            # F(V), the exact phi = 0 energy
    witness: GridField | None   # argmin test field (None when phi = 0 wins)
    best_start: str
    n_starts: int
    budget_exhausted: bool
    per_start: list


def _require_growth(F: Integrand):
    if F.C_upper is None:
        raise ValueError("envelope estimation requires finite p-growth (C_upper)")


def _mean_energy(grid: Grid) -> float:
    return 1.0 / grid.n_interior


def dacorogna_min(
    F: Integrand,
    V,
    a,
    opts: EnvelopeOptions = EnvelopeOptions(),
    warm_start: GridField | None = None,
) -> EnvelopeEstimate:
    """Upper estimate of the envelope at V on the fixed test box Q = [-1,1]^N.

    Returns min over the multistart run of the mean of F(V + grad_a(phi));
    phi = 0 is always evaluated exactly, hence value <= F(V) exactly.
    """
    _require_growth(F)
    a = a if isinstance(a, SmoothnessVector) else SmoothnessVector(tuple(a))
    V = np.asarray(V, dtype=float).reshape(F.n, F.m)
    grid = opts.grid(a)
    energy = StencilEnergy(grid, F, V)
    scale_mean = _mean_energy(grid)

    reference = float(F(V))
    rng = np.random.default_rng(opts.seed)
    starts = start_portfolio(grid, F.n, opts.multistart, 1.0 + float(np.linalg.norm(V)), rng)
    if warm_start is not None:
        starts = [("warm", warm_start.values)] + starts

    # screen every start briefly, then spend the remaining budget on the
    # leaders; the warm start and the best of each start family always get
    # polished so a screening mis-ranking cannot starve them
    screened: list[DescentResult] = []
    for label, vals in starts:
        phi = vals.copy()
        phi[grid.collar_mask()] = 0.0
        x0 = energy.pack(phi)
        try:
            res = run_lbfgs(energy, x0, maxiter=min(opts.screen_maxiter, opts.maxiter), label=label)
        except RuntimeError:
            continue
        screened.append(res)
    screened.sort(key=lambda r: r.value)

    def family(label: str) -> str:
        return label.split("(")[0].rstrip("0123456789")

    # polishing pays off only where some start actually beats the exact
    # phi = 0 energy; at such nodes the leaders and each family's best get
    # the remaining budget (a screening mis-ranking cannot starve them)
    sum_threshold = (reference - opts.tol) / scale_mean
    promising = [r for r in screened if r.value < sum_threshold]
    polish = {r.start_label for r in screened[:1]}
    if promising:
        polish.update(r.start_label for r in screened[: opts.polish_top])
        for fam in ("warm", "laminate", "random", "zero"):
            best = next((r for r in promising if family(r.start_label) == fam), None)
            if best is not None:
                polish.add(best.start_label)
    results: list[DescentResult] = []
    remaining = opts.maxiter - min(opts.screen_maxiter, opts.maxiter)
    for res in screened:
        if remaining > 0 and res.start_label in polish and res.budget_exhausted:
            try:
                res = run_lbfgs(energy, res.x, maxiter=remaining, label=res.start_label)
            except RuntimeError:
                pass
        results.append(res)

    best_value = reference
    best_start = "zero-exact"
    witness = None
    exhausted = False
    for res in results:
        val = res.value * scale_mean
        if val < best_value:
            best_value = val
            best_start = res.start_label
            witness = GridField(grid, energy.unpack(res.x))
            exhausted = res.budget_exhausted
    per_start = [(r.start_label, r.value * scale_mean, r.iterations) for r in results]
    return EnvelopeEstimate(best_value, reference, witness, best_start, len(starts), exhausted, per_start)


def _check_levels(levels) -> None:
    """Refinement ladders are dyadic: each level is 2 * previous - 1 nodes per axis."""
    levels = list(levels)
    if any(fine != 2 * coarse - 1 for coarse, fine in zip(levels, levels[1:])):
        raise ValueError(f"levels must be dyadic (each level 2 * previous - 1), got {levels}")


def dacorogna_refine(
    F: Integrand,
    V,
    a,
    levels=DEFAULT_LEVELS,
    opts: EnvelopeOptions = EnvelopeOptions(),
) -> tuple[list[float], EnvelopeEstimate]:
    """Refinement ladder with B-spline subdivision warm starts.

    Returns the per-level values and the final-level estimate.  Every level
    after the first also descends from the previous witness prolonged by
    ``prolong_zero_boundary``, so its value is at most that start's energy.
    Where F sees only the pure a-th derivative (N = 1), the prolonged start
    repeats the coarser gradient except on a - 1 nodes, where it is V, so a
    value exceeds the one before by at most the fraction (a - 1) / n_interior
    (finer grid) of the gap between F(V) and that value; the ladder is not
    guaranteed nonincreasing.
    """
    _check_levels(levels)
    a_sv = a if isinstance(a, SmoothnessVector) else SmoothnessVector(tuple(a))
    values = []
    est = None
    warm = None
    for res in levels:
        level_opts = replace(opts, resolution=res)
        if warm is not None:
            warm = prolong_zero_boundary(warm, level_opts.grid(a_sv))
        est = dacorogna_min(F, V, a_sv, level_opts, warm_start=warm)
        values.append(est.value)
        warm = est.witness
    return values, est


@dataclass
class AQCVerdict:
    holds: bool
    value: float
    reference: float
    tol: float
    witness: GridField | None

    @property
    def violation(self) -> float:
        return max(0.0, self.reference - self.value)


def is_aqc_at(F: Integrand, V, a, opts: EnvelopeOptions = EnvelopeOptions()) -> AQCVerdict:
    """Point test: violated iff the estimator beat F(V) by more than tol."""
    est = dacorogna_min(F, V, a, opts)
    holds = est.value >= est.reference - opts.tol
    return AQCVerdict(holds, est.value, est.reference, opts.tol, None if holds else est.witness)


@dataclass
class EnvelopeTable:
    """Envelope values on a rectangular lattice in R^{n x m}.

    ``lattice`` is one (lo, hi, count) triple per coordinate, coordinates in
    row-major (n, m) order; ``values`` has the lattice counts as its shape.
    """

    a: tuple[int, ...]
    n: int
    m: int
    p: float
    lattice: tuple[tuple[float, float, int], ...]
    values: np.ndarray
    failures: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        counts = tuple(int(c) for (_, _, c) in self.lattice)
        self.values = np.asarray(self.values, dtype=float).reshape(counts)
        if self.failures is None:
            self.failures = np.zeros(counts, dtype=bool)
        self.failures = np.asarray(self.failures, dtype=bool).reshape(counts)

    @property
    def points(self) -> list[np.ndarray]:
        return [np.linspace(lo, hi, c) for lo, hi, c in self.lattice]

    def node_value(self, idx) -> float:
        return float(self.values[tuple(idx)])

    def node_point(self, idx) -> np.ndarray:
        pts = self.points
        coords = np.array([pts[d][i] for d, i in enumerate(idx)])
        return coords.reshape(self.n, self.m)

    def interpolate(self, V) -> float:
        return envelope_interpolate(self, V)

    def as_integrand(self, fallback: Integrand | None = None) -> Integrand:
        """Integrand backed by multilinear interpolation of the table.

        Outside the lattice hull: evaluate ``fallback`` when given (it always
        dominates the envelope), raise otherwise.
        """
        interp = RegularGridInterpolator(
            self.points, self.values, method="linear", bounds_error=False, fill_value=None,
        )
        lows = np.array([lo for lo, _, _ in self.lattice])
        highs = np.array([hi for _, hi, _ in self.lattice])

        def ev(V):
            V = np.asarray(V, dtype=float)
            flat = V.reshape(-1, self.n * self.m)
            inside = np.all((flat >= lows) & (flat <= highs), axis=-1)
            if fallback is None:
                # +inf barrier outside the hull: a descent backtracks into the
                # hull instead of extrapolating; callers must verify the final
                # iterate stayed interior (see relax_compare)
                out = np.full(flat.shape[0], np.inf)
                if np.any(inside):
                    out[inside] = interp(flat[inside])
            else:
                out = np.empty(flat.shape[0])
                if np.any(inside):
                    out[inside] = interp(np.clip(flat[inside], lows, highs))
                if np.any(~inside):
                    out[~inside] = fallback(flat[~inside].reshape(-1, self.n, self.m))
            return out.reshape(V.shape[:-2])

        C_up = None
        if fallback is not None and self.meta.get("C_upper") is not None:
            # chordal interpolation of values below C(|V|^p+1) stays below the
            # same bound inflated by the lattice spacing
            delta = max((hi - lo) / max(c - 1, 1) for lo, hi, c in self.lattice)
            C_up = self.meta["C_upper"] * 2.0 ** max(self.p - 1.0, 0.0) * (1.0 + delta**self.p)
        return Integrand(
            ev, self.n, self.m, self.p, grad=None, C_upper=C_up,
            name="envelope_table", params={"source": self.meta.get("integrand")},
        )

    def save(self, path) -> None:
        header = {
            "kind": "envelope-table",
            "a": list(self.a),
            "n": self.n,
            "m": self.m,
            "p": self.p,
            "lattice": [[lo, hi, c] for lo, hi, c in self.lattice],
            "meta": self.meta,
            "failures": self.failures.astype(int).reshape(-1).tolist(),
        }
        write_container(path, TABLE_MAGIC, header, self.values)

    @classmethod
    def load(cls, path) -> "EnvelopeTable":
        header, payload = read_container(path, TABLE_MAGIC)
        counts = tuple(int(c) for (_, _, c) in header["lattice"])
        failures = np.array(header["failures"], dtype=bool).reshape(counts)
        return cls(
            tuple(header["a"]), header["n"], header["m"], header["p"],
            tuple((lo, hi, int(c)) for lo, hi, c in header["lattice"]),
            payload.reshape(counts), failures, header.get("meta", {}),
        )


def tabulate_envelope(
    F: Integrand,
    a,
    lattice,
    opts: EnvelopeOptions = EnvelopeOptions(),
    levels=None,
    meta: dict | None = None,
) -> EnvelopeTable:
    """Per-node envelope estimates over a lattice; failures masked, not fatal.

    Only a numerical failure (RuntimeError) is masked; any other exception
    propagates.  Node seeds derive from the node index, so results do not
    depend on the execution order.
    """
    _require_growth(F)
    a_sv = a if isinstance(a, SmoothnessVector) else SmoothnessVector(tuple(a))
    lattice = tuple((float(lo), float(hi), int(c)) for lo, hi, c in lattice)
    if len(lattice) != F.n * F.m:
        raise ValueError(f"lattice needs {F.n * F.m} coordinate ranges")
    counts = tuple(c for _, _, c in lattice)
    pts = [np.linspace(lo, hi, c) for lo, hi, c in lattice]
    values = np.empty(counts)
    failures = np.zeros(counts, dtype=bool)

    for rank, idx in enumerate(np.ndindex(*counts)):
        V = np.array([pts[d][i] for d, i in enumerate(idx)]).reshape(F.n, F.m)
        node_opts = replace(opts, seed=opts.seed + rank)
        try:
            if levels:
                values[idx] = dacorogna_refine(F, V, a_sv, levels, node_opts)[1].value
            else:
                values[idx] = dacorogna_min(F, V, a_sv, node_opts).value
        except RuntimeError:
            values[idx] = float(F(V))
            failures[idx] = True

    table_meta = {
        "integrand": {"name": F.name, "params": F.params},
        "C_upper": F.C_upper,
        "resolution": opts.resolution,
        "multistart": opts.multistart,
        "levels": list(levels) if levels else None,
        "seed": opts.seed,
    }
    if meta:
        table_meta.update(meta)
    return EnvelopeTable(tuple(a_sv.a), F.n, F.m, F.p, lattice, values, failures, table_meta)


def envelope_interpolate(table: EnvelopeTable, V) -> float:
    """Multilinear interpolation, exact at nodes; no extrapolation."""
    V = np.asarray(V, dtype=float).reshape(-1)
    if V.shape[0] != table.n * table.m:
        raise ValueError(f"query has {V.shape[0]} coordinates, table expects {table.n * table.m}")
    interp = RegularGridInterpolator(table.points, table.values, method="linear", bounds_error=True)
    try:
        return float(interp(V[None, :])[0])
    except ValueError as exc:
        raise ValueError(f"query {V} outside the envelope table hull") from exc
