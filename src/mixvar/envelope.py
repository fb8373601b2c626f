"""Numerical quasiconvex envelopes for the mixed-order gradient.

The envelope value at V is the infimum of the mean of F(V + grad_a(phi))
over zero-boundary test fields phi on Q = [-1, 1]^N; the test domain can be
fixed to Q without loss.  The estimator evaluates phi = 0 exactly, once per
node, and descends from a multistart portfolio (laminate profiles, scaled
smooth noise, and phi = 0 counted), so the returned value never exceeds F(V).

A descent has two phases (``_descent.screen_then_polish``).  Every start
first screens for ``_descent._SCREEN_MAXITER`` (200) iterations in the flat
metric of the free values, which carries it into a basin and ranks it.  The
leaders that screening left unconverged then polish for the rest of
``maxiter`` in the discrete a-Sobolev metric (``SobolevEnergy``), where
they converge in tens of iterations; there the descent's gradient
tolerance (``gtol``, 1e-9) bounds the gradient in the metric's coordinates,
Lambda^(-1/2) Q^T g, not the flat one.  Screening, not the metric, picks
the basins: descending in the metric from the starts themselves sends each
start into its nearest basin, and the estimates come out higher.

Because the forward-difference stencils have exactly zero mean on
zero-boundary fields, the discrete Jensen inequality holds exactly: for
every a and n, mean F(V + grad_a phi) >= mean CF(V + grad_a phi) >= CF(V),
CF the convex envelope.  So wherever F(V) = CF(V) the envelope is F(V) and
phi = 0 is a minimiser.  A node that the integrand's ``hull_exact``
certificate marks so takes F(V) without a descent (``_ladder``, the one
place every estimator goes through); any other node descends, and for a
convex integrand without a certificate the descent returns F(V) to
round-off.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from ._descent import (
    DescentResult,
    StencilEnergy,
    prolong_zero_boundary,
    screen_then_polish,
    start_portfolio,
)
from ._descent import run_lbfgs  # noqa: F401  (bench/layers.py traces it at this site)
from .containers import TABLE_MAGIC, read_container, write_container
from .grid import Grid, GridField
from .integrand import Integrand, _is_number
from .smoothness import SmoothnessVector, _as_sv

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

# screening rows x free values per chunk of nodes: one chunk's rounds pay the
# optimizer's per-round cost once, so wider chunks use less CPU (about 10%
# less on a 3x3 lattice at 899 free values than 2^14), while every live row
# holds about 46 n_free + 821 doubles of descent state
_CHUNK_CELLS = 2**15
# screening leaders polished at a node where some start beats F(V)
_POLISH_TOP = 3
# screening leaders a node keeps, beside each family's best, when its screen
# is cut after _descent._SCREEN_CUT_ROUND evaluations
_SCREEN_KEEP = 8


@dataclass(frozen=True)
class EnvelopeOptions:
    resolution: int = 65
    multistart: int = 8
    tol: float = 1e-6
    maxiter: int = 2000
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
    budget_exhausted: bool
    per_start: list             # (label, value, iterations, cut value, retired) per finite start


def _require_growth(F: Integrand):
    if F.C_upper is None:
        raise ValueError("envelope estimation requires finite p-growth (C_upper)")


def _family(label: str) -> str:
    return label.split("(")[0].rstrip("0123456789")


def _family_bests(labels) -> set[str]:
    """The first of each start family's labels in ``labels``, ranked best first.

    The warm start is a family of its own.
    """
    best = {}
    for label in labels:
        best.setdefault(_family(label), label)
    return set(best.values())


def _references(F: Integrand, Vs: np.ndarray) -> list[float]:
    """F(V), the exact energy of phi = 0, at each V of Vs (K, n, m); ValueError if not finite."""
    with np.errstate(all="ignore"):  # an overflow is reported by the ValueError alone
        references = [float(F(V)) for V in Vs]
    bad = [V.tolist() for V, ref in zip(Vs, references) if not math.isfinite(ref)]
    if bad:
        raise ValueError(f"F(V) is not finite at {len(bad)} node(s), the first V = {bad[0]}")
    return references


def _min_nodes(F: Integrand, Vs: np.ndarray, references, grid: Grid, opts: EnvelopeOptions,
               seeds, warms) -> list[EnvelopeEstimate]:
    """``dacorogna_min`` at every V of Vs (K, n, m) on one grid, in two batches.

    Node i keeps its F(V), ``references[i]``, unless a start beats it; it draws
    its portfolio starts from ``seeds[i]`` and, when ``warms[i]`` is a field,
    also descends from it.  The starts of all nodes screen in one batched
    descent in the flat metric and every node's chosen starts polish
    in a second, in the a-Sobolev metric (``screen_then_polish``; this picks
    the starts).  After ``_descent._SCREEN_CUT_ROUND`` evaluations a node
    with more than ``_SCREEN_KEEP`` starts still screening keeps only its
    ``_SCREEN_KEEP`` lowest, the lowest of each start family (the warm start
    is a family of its own); the others retire there and never polish.
    Each cut reads only its node's rows and each row is bit-equal to a lone
    descent, so each estimate is the one the node gets on its own.  Per
    start, ``per_start`` holds the label, mean value, iterations (of both
    phases for a polished start), mean value at the cut (nan for a start
    that ended sooner) and whether the cut retired it.
    """
    scale_mean = 1.0 / grid.n_interior
    portfolios = []
    for V, seed, warm in zip(Vs, seeds, warms):
        rng = np.random.default_rng(seed)
        starts = start_portfolio(grid, F.n, opts.multistart, 1.0 + float(np.linalg.norm(V)), rng)
        if warm is not None:
            starts = [("warm", warm.values)] + starts
        portfolios.append(starts)
    owner = np.array([i for i, starts in enumerate(portfolios) for _ in starts], dtype=int)
    labels = [label for starts in portfolios for label, _ in starts]
    ranked = []  # per node, its finite screened rows in order of screening value

    def cut(ids: list[int], values: list[float]) -> list[int]:
        # per node, its rows still screening past its _SCREEN_KEEP leaders
        # that are no family's best (a tie ranks the earlier start first)
        nodes: dict[int, list] = {}
        for k, value in zip(ids, values):
            nodes.setdefault(owner[k], []).append((value, k))
        retire = []
        for rows in nodes.values():
            rows.sort()
            bests = _family_bests(labels[k] for _, k in rows)
            retire += [k for _, k in rows[_SCREEN_KEEP:] if labels[k] not in bests]
        return retire

    def choose(screen: list[DescentResult]) -> list[int]:
        # polishing pays off only where some start actually beats the exact
        # phi = 0 energy; at such nodes the leaders, the warm start and each
        # family's best get the remaining budget (a screening mis-ranking
        # cannot starve them)
        chosen = []
        for i, reference in enumerate(references):
            rows = [k for k in np.flatnonzero(owner == i).tolist() if np.isfinite(screen[k].value)]
            rows.sort(key=lambda k: screen[k].value)
            ranked.append(rows)
            screened = [screen[k] for k in rows]
            sum_threshold = (reference - opts.tol) / scale_mean
            promising = [r for r in screened if r.value < sum_threshold]
            polish = {r.start_label for r in screened[:1] if r.value < reference / scale_mean}
            if promising:
                polish.update(r.start_label for r in screened[:_POLISH_TOP])
                polish.update(_family_bests(r.start_label for r in promising))
            chosen += [k for k, r in zip(rows, screened) if r.start_label in polish]
        return chosen

    energy = StencilEnergy(grid, F, Vs[owner], per_row=True)
    X0 = energy.pack(np.stack([vals for starts in portfolios for _, vals in starts]))  # no collar
    results = screen_then_polish(energy, X0, labels, opts.maxiter, choose=choose, cut=cut)

    estimates = []
    for reference, rows in zip(references, ranked):
        node_results = [results[k] for k in rows]
        best_value = reference
        best_start = "zero-exact"
        witness = None
        exhausted = False
        for res in node_results:
            val = res.value * scale_mean
            if val < best_value:
                best_value = val
                best_start = res.start_label
                witness = GridField(grid, energy.unpack(res.x))
                exhausted = res.budget_exhausted
        per_start = [(r.start_label, r.value * scale_mean, r.iterations, r.cut_value * scale_mean,
                      r.retired) for r in node_results]
        estimates.append(EnvelopeEstimate(best_value, reference, witness, best_start, exhausted,
                                          per_start))
    return estimates


def _runs(items: list, count: int) -> list[list]:
    """``items`` cut into ``count`` runs of consecutive items, longer runs first.

    Run lengths differ by at most 1; no count gives no runs.  ``_ladder``
    cuts each level's nodes into its chunks with it.
    """
    bounds = [0]
    for k in range(count):
        bounds.append(bounds[-1] + len(items) // count + (k < len(items) % count))
    return [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _ladder(F: Integrand, Vs: np.ndarray, a: SmoothnessVector, levels, opts: EnvelopeOptions,
            seeds, mask_failures: bool = False):
    """``dacorogna_refine`` at every V of Vs, level by level in chunks of nodes.

    Returns each node's per-level values, final estimate and F(V), evaluated
    once before any level.  A node that ``F.hull_exact`` certifies takes F(V)
    at every level, with no witness and no starts, and never descends, as
    every node does at multistart 1: only the other nodes are chunked.
    A level's chunks run one after another in this process; each is one
    screening and one polishing batch.  Each node's level descends from its
    own previous witness only, so no value depends on the chunking.
    With ``mask_failures`` a chunk that raises RuntimeError runs again one
    node at a time, and a node that still raises gets no estimate (None) and
    takes no further level.
    """
    references = _references(F, Vs)
    values: list[list[float]] = [[] for _ in Vs]
    estimates: list[EnvelopeEstimate | None] = [None] * len(Vs)
    # where F = CF at V, phi = 0 is a minimiser at every level (see the module
    # docstring); at multistart 1 it is the only start
    settled = np.full(len(Vs), opts.multistart <= 1)
    if F.hull_exact is not None:
        settled |= np.asarray(F.hull_exact(Vs), dtype=bool)
    for i in np.flatnonzero(settled):
        ref = references[i]
        estimates[i] = EnvelopeEstimate(ref, ref, None, "zero-exact", False, [])
        values[i] = [ref] * len(levels)
    live = [i for i in range(len(Vs)) if not settled[i]]
    for level, res in enumerate(levels):
        if not live:
            break
        level_opts = replace(opts, resolution=res)
        grid = level_opts.grid(a)
        warms = {}
        for i in live:
            prev = estimates[i].witness if level else None
            warms[i] = None if prev is None else prolong_zero_boundary(prev, grid)
        # ceil(cells / _CHUNK_CELLS) runs of nodes, cells the screening rows x free values
        rows = sum(opts.multistart - 1 + (warms[i] is not None) for i in live)
        cells = rows * math.prod(grid.free_shape) * F.n
        for nodes in _runs(live, min(len(live), -(-cells // _CHUNK_CELLS))):
            try:
                ests = _min_nodes(F, Vs[nodes], [references[i] for i in nodes], grid,
                                  level_opts, [seeds[i] for i in nodes], [warms[i] for i in nodes])
            except RuntimeError:
                if not mask_failures:
                    raise
                ests = []
                for i in nodes:
                    try:
                        ests += _min_nodes(F, Vs[[i]], [references[i]], grid, level_opts,
                                           [seeds[i]], [warms[i]])
                    except RuntimeError:
                        ests.append(None)
            for i, est in zip(nodes, ests):
                estimates[i] = est
                if est is not None:
                    values[i].append(est.value)
        live = [i for i in live if estimates[i] is not None]
    return values, estimates, references


def dacorogna_min(
    F: Integrand,
    V,
    a,
    opts: EnvelopeOptions = EnvelopeOptions(),
) -> EnvelopeEstimate:
    """Upper estimate of the envelope at V on the fixed test box Q = [-1,1]^N.

    Returns min over the multistart run of the mean of F(V + grad_a(phi));
    phi = 0 is always evaluated exactly, hence value <= F(V) exactly.  A V
    that ``F.hull_exact`` certifies takes F(V) without a descent.
    """
    _require_growth(F)
    V = np.asarray(V, dtype=float).reshape(1, F.n, F.m)
    return _ladder(F, V, _as_sv(a), [opts.resolution], opts, [opts.seed])[1][0]


def _check_levels(levels) -> None:
    """Refinement ladders are dyadic integers: each level is 2 * previous - 1 nodes per axis."""
    levels = list(levels)
    if not all(isinstance(n, numbers.Integral) and not isinstance(n, bool) for n in levels):
        raise ValueError(f"levels must be integers, got {levels}")
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
    _require_growth(F)
    V = np.asarray(V, dtype=float).reshape(1, F.n, F.m)
    values, estimates, _ = _ladder(F, V, _as_sv(a), list(levels), opts, [opts.seed])
    return values[0], estimates[0]


@dataclass
class AQCVerdict:
    holds: bool
    value: float
    reference: float
    tol: float
    witness: GridField | None


def is_aqc_at(F: Integrand, V, a, opts: EnvelopeOptions = EnvelopeOptions()) -> AQCVerdict:
    """Point test: violated iff the estimator beat F(V) by more than tol."""
    est = dacorogna_min(F, V, a, opts)
    holds = est.value >= est.reference - opts.tol
    return AQCVerdict(holds, est.value, est.reference, opts.tol, None if holds else est.witness)


def _check_lattice(lattice, n: int, m: int) -> tuple[tuple[float, float, int], ...]:
    """The lattice as one (lo, hi, count) triple per coordinate of R^{n x m}.

    lo, hi and hi - lo are finite.  A count is an integer of at least 1; a
    count of 1 is the single point lo == hi, and a larger one needs lo < hi.
    """
    if len(lattice) != n * m:
        raise ValueError(f"lattice needs {n * m} coordinate ranges, got {len(lattice)}")
    out = []
    for k, entry in enumerate(lattice):
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ValueError(f"lattice entry {k} must be [lo, hi, count], got {entry!r}")
        lo, hi, count = entry
        if not (_is_number(lo) and _is_number(hi)):
            raise ValueError(f"lattice entry {k}: lo and hi must be numbers and finite, "
                             f"got {entry!r}")
        if not isinstance(count, numbers.Integral) or isinstance(count, bool) or count < 1:
            raise ValueError(f"lattice entry {k}: count must be an integer >= 1, got {count!r}")
        lo, hi, count = float(lo), float(hi), int(count)
        if count == 1 and lo != hi:
            raise ValueError(f"lattice entry {k}: a count of 1 is the single point lo == hi, "
                             f"got lo={lo}, hi={hi}")
        if count > 1 and not lo < hi:
            raise ValueError(f"lattice entry {k}: {count} points need lo < hi, "
                             f"got lo={lo}, hi={hi}")
        if not math.isfinite(hi - lo):
            raise ValueError(f"lattice entry {k}: hi - lo overflows, got lo={lo}, hi={hi}")
        out.append((lo, hi, count))
    return tuple(out)


def _lattice_nodes(lattice, n: int, m: int) -> np.ndarray:
    """The nodes of a checked lattice as one V per row (K, n, m), in row-major rank order."""
    axes = np.meshgrid(*(np.linspace(lo, hi, c) for lo, hi, c in lattice), indexing="ij")
    return np.stack([x.ravel() for x in axes], axis=-1).reshape(-1, n, m)


def _check_interior(lattice) -> None:
    """The hull of a checked lattice must have an interior: every count at least 2."""
    flat = [k for k, (_, _, c) in enumerate(lattice) if c < 2]
    if flat:
        raise ValueError(f"the table's hull is flat along lattice coordinate(s) {flat}: "
                         f"its integrand needs a count of at least 2 in every coordinate")


class _Multilinear:
    """The multilinear interpolant of node values on a lattice, and its gradient.

    Points are rows of an (N, D) array inside the lattice hull.  A point lies
    in the cell whose lower corner is the last node at or below it along
    every coordinate (the last cell at the upper hull face), so the value is
    exact at nodes and the gradient on a cell face is the one-sided gradient
    of that cell.  A coordinate with count 1 is constant: it takes no part
    in the interpolation and its gradient component is 0.
    """

    def __init__(self, lattice, values: np.ndarray):
        counts = [c for _, _, c in lattice]
        self.lows = np.array([lo for lo, _, _ in lattice])
        self.highs = np.array([hi for _, hi, _ in lattice])
        self.axes = [d for d, c in enumerate(counts) if c > 1]
        self.points = [np.linspace(*lattice[d]) for d in self.axes]
        self.strides = np.array([math.prod(counts[d + 1:]) for d in self.axes], dtype=np.intp)
        self.flat = values.reshape(-1)
        # the corners of a cell: which active coordinates take the upper node
        self.upper = np.array(list(itertools.product((False, True), repeat=len(self.axes))),
                              dtype=bool)
        self.offsets = self.upper @ self.strides

    def inside(self, X: np.ndarray) -> np.ndarray:
        return np.all((X >= self.lows) & (X <= self.highs), axis=-1)

    def _cells(self, X: np.ndarray):
        """Corner values (N, 2^k), corner weights per coordinate (N, 2^k, k), cell widths."""
        base = np.zeros(len(X), dtype=np.intp)
        t = np.empty((len(X), len(self.axes)))
        widths = []
        for j, (d, pts) in enumerate(zip(self.axes, self.points)):
            i = np.clip(np.searchsorted(pts, X[:, d], side="right") - 1, 0, len(pts) - 2)
            width = pts[i + 1] - pts[i]
            t[:, j] = (X[:, d] - pts[i]) / width
            base += i * self.strides[j]
            widths.append(width)
        corners = self.flat[base[:, None] + self.offsets]
        weights = np.where(self.upper, t[:, None, :], 1.0 - t[:, None, :])
        return corners, weights, widths

    def value(self, X: np.ndarray) -> np.ndarray:
        corners, weights, _ = self._cells(X)
        return np.sum(corners * np.prod(weights, axis=2), axis=1)

    def gradient(self, X: np.ndarray) -> np.ndarray:
        corners, weights, widths = self._cells(X)
        out = np.zeros(X.shape)
        for j, d in enumerate(self.axes):
            others = np.prod(np.delete(weights, j, axis=2), axis=2)
            slopes = np.where(self.upper[:, j], corners, -corners)
            out[:, d] = np.sum(slopes * others, axis=1) / widths[j]
        return out


@dataclass
class EnvelopeTable:
    """Envelope values on a rectangular lattice in R^{n x m}.

    ``lattice`` is one (lo, hi, count) triple per coordinate, coordinates in
    row-major (n, m) order; ``values`` has the lattice counts as its shape.
    A lattice that ``_check_lattice`` rejects, or an n or m that is not a
    positive integer, is a ValueError.
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
        if not all(isinstance(k, numbers.Integral) and not isinstance(k, bool) and k >= 1
                   for k in (self.n, self.m)):
            raise ValueError(f"n and m must be integers >= 1, got n={self.n!r}, m={self.m!r}")
        self.lattice = _check_lattice(self.lattice, self.n, self.m)
        counts = tuple(c for (_, _, c) in self.lattice)
        self.values = np.asarray(self.values, dtype=float).reshape(counts)
        if self.failures is None:
            self.failures = np.zeros(counts, dtype=bool)
        self.failures = np.asarray(self.failures, dtype=bool).reshape(counts)

    @property
    def points(self) -> list[np.ndarray]:
        return [np.linspace(lo, hi, c) for lo, hi, c in self.lattice]

    def node_point(self, idx) -> np.ndarray:
        pts = self.points
        coords = np.array([pts[d][i] for d, i in enumerate(idx)])
        return coords.reshape(self.n, self.m)

    @functools.cached_property
    def _interpolant(self) -> _Multilinear:
        return _Multilinear(self.lattice, self.values)

    def as_integrand(self, fallback: Integrand | None = None) -> Integrand:
        """Integrand backed by multilinear interpolation of the table.

        Its gradient is the exact gradient of the interpolant.  That jumps
        across cell faces, where it is one-sided: on a face inside the hull
        it is the gradient of the cell above, on the upper hull face that of
        the last cell.  Outside the lattice hull the value and gradient are
        those of ``fallback`` when given (it always dominates the envelope);
        without one the value is +inf and the gradient NaN.  The hull needs
        an interior (every count at least 2), else ValueError: off a flat
        hull the integrand is the fallback or +inf, and has no gradient.
        The registration check samples the gradient inside cells, a quarter
        cell or more from their faces.
        """
        _check_interior(self.lattice)
        interp = self._interpolant
        k = self.n * self.m

        def ev(V):
            flat = V.reshape(-1, k)
            inside = interp.inside(flat)
            # +inf barrier outside the hull without a fallback: a descent
            # backtracks into the hull instead of extrapolating; callers must
            # verify the final iterate stayed interior (see relax_compare)
            out = np.full(len(flat), np.inf)
            out[inside] = interp.value(flat[inside])
            if fallback is not None:
                out[~inside] = fallback(flat[~inside].reshape(-1, self.n, self.m))
            return out.reshape(V.shape[:-2])

        def gr(V):
            flat = V.reshape(-1, k)
            inside = interp.inside(flat)
            out = np.full(flat.shape, np.nan)
            out[inside] = interp.gradient(flat[inside])
            if fallback is not None:
                outside = flat[~inside].reshape(-1, self.n, self.m)
                out[~inside] = fallback.gradient(outside).reshape(-1, k)
            return out.reshape(V.shape)

        def check_points(rng):
            # a random cell, and a point of it at least a quarter cell from
            # every face; the step stays within an eighth of the narrowest
            # cell, so the central differences never cross a face
            X, narrowest = interp.lows.copy(), np.inf
            for d, pts in zip(interp.axes, interp.points):
                i = rng.integers(len(pts) - 1)
                width = pts[i + 1] - pts[i]
                X[d] = pts[i] + rng.uniform(0.25, 0.75) * width
                narrowest = min(narrowest, width)
            V = X.reshape(self.n, self.m)
            return V, min(1e-5 * (1.0 + np.linalg.norm(V)), narrowest / 8.0)

        C_up = None
        if fallback is not None and self.meta.get("C_upper") is not None:
            # chordal interpolation of values below C(|V|^p+1) stays below the
            # same bound inflated by the lattice spacing
            delta = max((hi - lo) / max(c - 1, 1) for lo, hi, c in self.lattice)
            C_up = self.meta["C_upper"] * 2.0 ** max(self.p - 1.0, 0.0) * (1.0 + delta**self.p)
        return Integrand(
            ev, self.n, self.m, self.p, grad=gr, C_upper=C_up,
            name="envelope_table", params={"source": self.meta.get("integrand")},
            check_points=check_points,
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
        missing = [key for key in ("a", "n", "m", "p", "lattice", "failures") if key not in header]
        if missing:
            raise ValueError(f"table header of {path} lacks {', '.join(missing)}")
        return cls(
            tuple(header["a"]), header["n"], header["m"], header["p"], header["lattice"],
            payload, np.array(header["failures"], dtype=bool), header.get("meta", {}),
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

    Nodes that ``F.hull_exact`` certifies take F(V) and never descend.  The
    other nodes of each refinement level run in chunks of consecutive node
    ranks, one screening and one polishing batch per chunk, one chunk after
    another in this process.  Node seeds derive from the node rank and every
    batched row is bit-equal to a lone descent, so the values depend neither
    on the execution order nor on the chunking.  Only a numerical failure
    (RuntimeError) is masked: its chunk runs again node by node, and a node
    that still fails gets F(V) and a failure flag; any other exception
    propagates.
    """
    _require_growth(F)
    if levels:
        _check_levels(levels)
    a_sv = _as_sv(a)
    lattice = _check_lattice(lattice, F.n, F.m)
    Vs = _lattice_nodes(lattice, F.n, F.m)
    seeds = [opts.seed + rank for rank in range(len(Vs))]
    _, estimates, references = _ladder(F, Vs, a_sv, list(levels) if levels else [opts.resolution],
                                       opts, seeds, mask_failures=True)
    values = np.array([r if est is None else est.value for r, est in zip(references, estimates)])
    failures = np.array([est is None for est in estimates])

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
    V = np.asarray(V, dtype=float).reshape(1, -1)
    if V.shape[1] != table.n * table.m:
        raise ValueError(f"query has {V.shape[1]} coordinates, table expects {table.n * table.m}")
    interp = table._interpolant
    if not interp.inside(V)[0]:
        raise ValueError(f"query {V[0]} outside the envelope table hull")
    return float(interp.value(V)[0])
