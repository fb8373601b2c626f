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

import functools
import itertools
import math
import numbers
import os
import pickle
import signal
import threading
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

from ._descent import (
    DescentResult,
    StencilEnergy,
    prolong_zero_boundary,
    run_lbfgs_batch,
    start_portfolio,
)
from ._descent import run_lbfgs  # noqa: F401  (bench/layers.py traces it at this site)
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

# screening rows x free values per chunk of nodes: one chunk's rounds pay the
# optimizer's per-round cost once, so wider chunks use less CPU (about 10%
# less on a 3x3 lattice at 899 free values than 2^14), while every live row
# holds about 46 n_free + 821 doubles of descent state
_CHUNK_CELLS = 2**15


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


def _family(label: str) -> str:
    return label.split("(")[0].rstrip("0123456789")


def _min_nodes(F: Integrand, Vs: np.ndarray, grid: Grid, opts: EnvelopeOptions,
               seeds, warms) -> list[EnvelopeEstimate]:
    """``dacorogna_min`` at every V of Vs (K, n, m) on one grid, in two batches.

    Node i draws its random starts from ``seeds[i]`` and, when ``warms[i]``
    is a field, also descends from it.  The starts of all nodes screen in one
    batched descent and every node's chosen starts polish in a second; each
    row is bit-equal to a lone descent, so each estimate is the one the node
    gets on its own.
    """
    scale_mean = _mean_energy(grid)
    portfolios = []
    for V, seed, warm in zip(Vs, seeds, warms):
        rng = np.random.default_rng(seed)
        starts = start_portfolio(grid, F.n, opts.multistart, 1.0 + float(np.linalg.norm(V)), rng)
        if warm is not None:
            starts = [("warm", warm.values)] + starts
        portfolios.append(starts)
    owner = np.array([i for i, starts in enumerate(portfolios) for _ in starts], dtype=int)

    # screen every start briefly, then spend the remaining budget on the
    # leaders; the warm start and the best of each start family always get
    # polished so a screening mis-ranking cannot starve them
    energy = StencilEnergy(grid, F, Vs[owner], per_row=True)
    X0 = np.stack([energy.pack(vals) for starts in portfolios for _, vals in starts])  # no collar
    screen = run_lbfgs_batch(energy, X0, [label for starts in portfolios for label, _ in starts],
                             maxiter=min(opts.screen_maxiter, opts.maxiter))
    references = [float(F(V)) for V in Vs]
    results: list[list[DescentResult]] = []
    chosen = []  # (node, index into its results) of every start to polish
    for i, reference in enumerate(references):
        screened = [r for r, o in zip(screen, owner) if o == i and np.isfinite(r.value)]
        screened.sort(key=lambda r: r.value)
        # polishing pays off only where some start actually beats the exact
        # phi = 0 energy; at such nodes the leaders and each family's best get
        # the remaining budget (a screening mis-ranking cannot starve them)
        sum_threshold = (reference - opts.tol) / scale_mean
        promising = [r for r in screened if r.value < sum_threshold]
        polish = {r.start_label for r in screened[:1]}
        if promising:
            polish.update(r.start_label for r in screened[: opts.polish_top])
            for fam in ("warm", "laminate", "random", "zero"):
                best = next((r for r in promising if _family(r.start_label) == fam), None)
                if best is not None:
                    polish.add(best.start_label)
        chosen += [(i, j) for j, r in enumerate(screened)
                   if r.start_label in polish and r.budget_exhausted]
        results.append(screened)
    remaining = opts.maxiter - min(opts.screen_maxiter, opts.maxiter)
    if remaining > 0 and chosen:
        energy = StencilEnergy(grid, F, Vs[[i for i, _ in chosen]], per_row=True)
        polished = run_lbfgs_batch(energy, np.stack([results[i][j].x for i, j in chosen]),
                                   [results[i][j].start_label for i, j in chosen],
                                   maxiter=remaining)
        for (i, j), res in zip(chosen, polished):
            if np.isfinite(res.value):  # a diverged polish keeps its screening result
                results[i][j] = res

    estimates = []
    for reference, starts, node_results in zip(references, portfolios, results):
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
        per_start = [(r.start_label, r.value * scale_mean, r.iterations) for r in node_results]
        estimates.append(EnvelopeEstimate(best_value, reference, witness, best_start, len(starts),
                                          exhausted, per_start))
    return estimates


def _chunks(node_rows, n_free: int) -> list[list[int]]:
    """The nodes of (node, screening rows) pairs, cut into runs of consecutive nodes.

    There are ceil(cells / ``_CHUNK_CELLS``) runs, cells the sum of rows x
    n_free, but no more than nodes.  Run c ends at the first node where the
    running cell count reaches c / runs of the total (one node later or
    earlier where a run would otherwise be empty), so the runs hold
    near-equal cells.
    """
    if not node_rows:
        return []
    nodes = [node for node, _ in node_rows]
    ends = np.cumsum([k * n_free for _, k in node_rows])
    count = min(len(nodes), -(-int(ends[-1]) // _CHUNK_CELLS))
    bounds = [0]
    for c, cut in enumerate(np.searchsorted(ends, ends[-1] * np.arange(1, count) / count) + 1, 1):
        bounds.append(min(max(int(cut), bounds[-1] + 1), len(nodes) - count + c))
    bounds.append(len(nodes))
    return [nodes[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _usable_workers() -> int:
    """The CPUs this process may run on, or 1 where it must not fork.

    A process without ``os.fork`` or with a thread besides this one gets 1:
    a child forked while another thread holds a lock could wait on it for
    ever.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _WorkerTraceback(Exception):
    """The traceback of an exception raised in a worker process, as text."""

    def __str__(self):
        return "\n" + self.args[0]


def _fork(fn, tasks: list) -> tuple[int, int]:
    """Fork a child that runs fn on every task; returns its pid and the read end of its pipe.

    The child inherits fn and everything it reads, so nothing but the reply
    is pickled: (True, results) or (False, (exception, traceback text)),
    the exception a ChildProcessError naming it where it does not pickle.
    The child leaves through ``os._exit`` and never returns into the caller.
    """
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    status = 1
    try:
        os.close(read)
        try:
            reply = pickle.dumps((True, [fn(task) for task in tasks]))
        except BaseException as exc:  # sent to the parent, which raises it
            text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
            try:
                reply = pickle.dumps((False, (exc, text)))
                pickle.loads(reply)  # some exceptions pickle but cannot be rebuilt
            except Exception:
                exc = ChildProcessError(f"{type(exc).__name__}: {exc}")
                reply = pickle.dumps((False, (exc, text)))
        with os.fdopen(write, "wb") as pipe:
            pipe.write(reply)
        status = 0
    finally:
        os._exit(status)


def _reap(pid: int, read: int) -> tuple[bytes, int]:
    """A child's whole reply and its wait status, once it has ended."""
    with os.fdopen(read, "rb") as pipe:
        reply = pipe.read()
    return reply, os.waitpid(pid, 0)[1]


def _map_forked(fn, tasks: list, workers: int) -> list:
    """[fn(task) for task in tasks], shared out over up to ``workers`` processes.

    The tasks are cut into contiguous runs of near-equal length.  This
    process runs the first run and each other run goes to a forked child
    (see ``_fork``); the results come back in task order.  An exception
    of a child is raised here as itself, that of the earliest run first,
    with the child's traceback as its cause.  Every child has been reaped
    when this returns or raises; if this process's own run raises, the
    children are killed first.
    """
    count = max(1, min(workers, len(tasks)))
    runs = [tasks[k * len(tasks) // count:(k + 1) * len(tasks) // count] for k in range(count)]
    children = []
    try:
        for run in runs[1:]:
            children.append(_fork(fn, run))
        out = [fn(task) for task in runs[0]]
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        replies = [_reap(pid, read) for pid, read in children]
    for reply, status in replies:
        if not reply:
            raise ChildProcessError(f"a worker process ended without a reply "
                                    f"(wait status {status})")
        ok, payload = pickle.loads(reply)
        if not ok:
            exc, text = payload
            raise exc from _WorkerTraceback(text)
        out += payload
    return out


def _ladder(F: Integrand, Vs: np.ndarray, a: SmoothnessVector, levels, opts: EnvelopeOptions,
            seeds, mask_failures: bool = False, workers: int = 1):
    """``dacorogna_refine`` at every V of Vs, level by level in chunks of nodes.

    Returns each node's per-level values and final estimate.
    Each node's level descends from its own previous witness only, so no
    value depends on the chunking.  A level's chunks run on up to
    ``workers`` processes (``_map_forked``), which changes no value either.
    With ``mask_failures`` a chunk that raises RuntimeError runs again one
    node at a time, and a node that still raises gets no estimate (None) and
    takes no further level.
    """
    values: list[list[float]] = [[] for _ in Vs]
    estimates: list[EnvelopeEstimate | None] = [None] * len(Vs)
    live = list(range(len(Vs)))
    for level, res in enumerate(levels):
        level_opts = replace(opts, resolution=res)
        grid = level_opts.grid(a)
        warms = {}
        for i in live:
            prev = estimates[i].witness if level else None
            warms[i] = None if prev is None else prolong_zero_boundary(prev, grid)
        n_free = int(np.count_nonzero(~grid.collar_mask())) * F.n
        node_rows = [(i, opts.multistart + (warms[i] is not None)) for i in live]

        def chunk(nodes):
            try:
                return _min_nodes(F, Vs[nodes], grid, level_opts,
                                  [seeds[i] for i in nodes], [warms[i] for i in nodes])
            except RuntimeError:
                if not mask_failures:
                    raise
                ests = []
                for i in nodes:
                    try:
                        ests += _min_nodes(F, Vs[[i]], grid, level_opts, [seeds[i]], [warms[i]])
                    except RuntimeError:
                        ests.append(None)
                return ests

        chunks = _chunks(node_rows, n_free)
        for nodes, ests in zip(chunks, _map_forked(chunk, chunks, workers)):
            for i, est in zip(nodes, ests):
                estimates[i] = est
                if est is not None:
                    values[i].append(est.value)
        live = [i for i in live if estimates[i] is not None]
    return values, estimates


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
    V = np.asarray(V, dtype=float).reshape(1, F.n, F.m)
    return _min_nodes(F, V, opts.grid(a), opts, [opts.seed], [warm_start])[0]


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
    _require_growth(F)
    a_sv = a if isinstance(a, SmoothnessVector) else SmoothnessVector(tuple(a))
    V = np.asarray(V, dtype=float).reshape(1, F.n, F.m)
    values, estimates = _ladder(F, V, a_sv, list(levels), opts, [opts.seed])
    return values[0], estimates[0]


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


def _check_lattice(lattice, n: int, m: int) -> tuple[tuple[float, float, int], ...]:
    """The lattice as one (lo, hi, count) triple per coordinate of R^{n x m}.

    A count is an integer of at least 1; a count of 1 is the single point
    lo == hi, and a larger one needs lo < hi.
    """
    if len(lattice) != n * m:
        raise ValueError(f"lattice needs {n * m} coordinate ranges, got {len(lattice)}")
    out = []
    for k, entry in enumerate(lattice):
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ValueError(f"lattice entry {k} must be [lo, hi, count], got {entry!r}")
        lo, hi, count = entry
        if not all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in (lo, hi)):
            raise ValueError(f"lattice entry {k}: lo and hi must be numbers, got {entry!r}")
        if not isinstance(count, numbers.Integral) or isinstance(count, bool) or count < 1:
            raise ValueError(f"lattice entry {k}: count must be an integer >= 1, got {count!r}")
        lo, hi, count = float(lo), float(hi), int(count)
        if count == 1 and lo != hi:
            raise ValueError(f"lattice entry {k}: a count of 1 is the single point lo == hi, "
                             f"got lo={lo}, hi={hi}")
        if count > 1 and not lo < hi:
            raise ValueError(f"lattice entry {k}: {count} points need lo < hi, "
                             f"got lo={lo}, hi={hi}")
        out.append((lo, hi, count))
    return tuple(out)


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

    def node_value(self, idx) -> float:
        return float(self.values[tuple(idx)])

    def node_point(self, idx) -> np.ndarray:
        pts = self.points
        coords = np.array([pts[d][i] for d, i in enumerate(idx)])
        return coords.reshape(self.n, self.m)

    def interpolate(self, V) -> float:
        return envelope_interpolate(self, V)

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

    The nodes of each refinement level run in chunks of consecutive node
    ranks, one screening and one polishing batch per chunk.  A level with
    several chunks runs them on one process per usable CPU (``_usable_workers``:
    the CPU affinity, and 1 in a process with other threads): this one and
    forked children, all reaped before this returns.  Node seeds derive from
    the node rank and every batched row is bit-equal to a lone descent, so
    the values depend neither on the execution order, nor on the chunking,
    nor on the worker count.  Only a numerical failure
    (RuntimeError) is masked: its chunk runs again node by node, and a node
    that still fails gets F(V) and a failure flag; any other exception
    propagates, from a child too.
    """
    _require_growth(F)
    if levels:
        _check_levels(levels)
    a_sv = a if isinstance(a, SmoothnessVector) else SmoothnessVector(tuple(a))
    lattice = _check_lattice(lattice, F.n, F.m)
    counts = tuple(c for _, _, c in lattice)
    pts = [np.linspace(lo, hi, c) for lo, hi, c in lattice]
    Vs = np.array([[pts[d][i] for d, i in enumerate(idx)] for idx in np.ndindex(*counts)])
    Vs = Vs.reshape(-1, F.n, F.m)
    seeds = [opts.seed + rank for rank in range(len(Vs))]
    _, estimates = _ladder(F, Vs, a_sv, list(levels) if levels else [opts.resolution], opts, seeds,
                           mask_failures=True, workers=_usable_workers())
    values = np.array([float(F(V)) if est is None else est.value for V, est in zip(Vs, estimates)])
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
