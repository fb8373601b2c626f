"""Shared descent machinery for the inner minimizations.

Free degrees of freedom are the node values outside the zero-boundary
collar.  Energies are assembled through the linear forward-difference
stencils restricted to those values; their gradients come from the adjoint
of the same stencils (chain rule), so L-BFGS sees exact derivatives.  Every
energy takes one field (n_free,) or a batch (..., n_free) through the same
code, and each row of a batch comes out bit-equal to the lone call.

Descents drive scipy's L-BFGS-B through its reverse-communication routine
``setulb`` (Byrd, Lu, Nocedal & Zhu 1995; Zhu et al., ACM TOMS 778, 1997),
all starts of a portfolio in lockstep: each round advances every live start
until it asks for f and g, then evaluates all requested points in one
batched energy call.  The arithmetic per start is that of
``scipy.optimize.minimize(method="L-BFGS-B")`` with the options below.

Every descent runs with the OpenBLAS that scipy's L-BFGS-B links pinned to
one thread: its dense updates are far too small to share, and a second
thread only spins.  The caller's thread count is restored afterwards.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage
from scipy.optimize import _lbfgsb

from .grid import Grid, GridField, _free_operator, a_gradient
# bench/layers.py traces these two at this site
from .grid import gradient_adjoint, mixed_derivative  # noqa: F401
from .integrand import Integrand
from .smoothness import homogeneity_set

# L-BFGS-B settings: stored correction pairs, relative f reduction (ftol, in
# units of machine epsilon), line-search steps per iteration, f-g evaluations
_MAXCOR = 20
_FACTR = 1e-14 / np.finfo(float).eps
_MAXLS = 20
_MAXFUN = 15000


def _rows(a: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The rows of ``a`` where ``keep``; ``a`` itself when all are kept.

    Boolean indexing keeps each row's memory layout, so F's reductions over
    (n, m) add up in the same order for the selected rows.
    """
    return a if np.count_nonzero(keep) == len(keep) else a[keep]


def _scatter(a: np.ndarray, keep: np.ndarray, fill: float) -> np.ndarray:
    """The rows of ``a`` put back where ``keep``, ``fill`` on the other rows."""
    if np.count_nonzero(keep) == len(keep):
        return a
    out = np.full((len(keep),) + a.shape[1:], fill)
    out[keep] = a
    return out


def _finite_rows(a: np.ndarray) -> np.ndarray:
    return np.isfinite(a.reshape(len(a), -1)).all(axis=1)


def _unbatch(values: np.ndarray, grads: np.ndarray, lead: tuple):
    """Batch results back to the caller's leading shape; a float for one field."""
    if not lead:
        return float(values[0]), grads[0]
    return values.reshape(lead), grads.reshape(lead + grads.shape[1:])


class StencilEnergy:
    """Sum over interior nodes of F(base + grad_a(phi)) and its free-DOF gradient.

    ``base`` is one (n, m) gradient or one field on the interior, shared by
    every row of a batch; with ``per_row`` it is one (n, m) gradient per row
    of the descent's X0, (K, n, m), each broadcast over the interior, so the
    starts of different envelope nodes share one batch.
    """

    def __init__(self, grid: Grid, F: Integrand, base: np.ndarray, per_row: bool = False):
        self.grid = grid
        self.F = F
        self.alphas = homogeneity_set(grid.a)
        if F.m != len(self.alphas):
            raise ValueError(
                f"integrand expects m={F.m} columns, smoothness vector gives {len(self.alphas)}"
            )
        base = np.asarray(base, dtype=float)
        if per_row:
            if base.ndim != 3 or base.shape[1:] != (F.n, F.m):
                raise ValueError(f"per-row base gradients have shape {base.shape}")
            base = base.reshape((len(base),) + (1,) * grid.ndim + (F.n, F.m))
        elif base.shape == (F.n, F.m):
            base = np.broadcast_to(base, grid.interior_shape + (F.n, F.m))
        elif base.shape != grid.interior_shape + (F.n, F.m):
            raise ValueError(f"base gradient has shape {base.shape}")
        self.base = base
        self.per_row = per_row
        self.free = ~grid.collar_mask()
        self.n_free = int(np.count_nonzero(self.free)) * F.n
        self._D, self._Dt = _free_operator(grid, tuple(self.alphas))
        self._nodes = self.n_free // F.n
        self._cols_shape = (len(self.alphas),) + grid.interior_shape + (F.n,)
        d = grid.ndim
        self._stack_axes = (0,) + tuple(range(2, d + 3)) + (1,)
        self._adjoint_axes = (d + 2,) + tuple(range(1, d + 1)) + (0, d + 1)

    def unpack(self, x: np.ndarray) -> np.ndarray:
        phi = np.zeros(self.grid.shape + (self.F.n,))
        phi[self.free] = x.reshape(-1, self.F.n)
        return phi

    def pack(self, phi: np.ndarray) -> np.ndarray:
        return phi[self.free].reshape(-1)

    def stack(self, X: np.ndarray) -> np.ndarray:
        """grad_a of the zero-boundary fields with free values X (K, n_free).

        Returns (K, *interior_shape, n, m).  Each field's block keeps the
        memory layout of a lone D_f product (alpha-major), so a batch row is
        laid out like the single-field call; one field is not copied.
        """
        if not np.all(np.isfinite(X)):
            raise ValueError("field values must be finite")
        k, n = len(X), self.F.n
        # one column of the product per field component
        columns = X.reshape(k, self._nodes, n).transpose(1, 0, 2).reshape(self._nodes, k * n)
        cols = (self._D @ columns).reshape(len(self.alphas), self.grid.n_interior, k, n)
        cols = np.ascontiguousarray(cols.transpose(2, 0, 1, 3)).reshape((k,) + self._cols_shape)
        return cols.transpose(self._stack_axes)  # (K, m, *interior, n) -> (K, *interior, n, m)

    def adjoint(self, weights: np.ndarray) -> np.ndarray:
        """Gradient over the free values of sum(stack(X) * weights), per row: (K, n_free)."""
        k, n = len(weights), self.F.n
        # (K, *interior, n, m) -> (m, *interior, K, n): rows of D, one column per field
        w = weights.transpose(self._adjoint_axes).reshape(self._Dt.shape[1], k * n)
        return (self._Dt @ w).reshape(self._nodes, k, n).transpose(1, 0, 2).reshape(k, self.n_free)

    def value_and_grad(self, x: np.ndarray, rows=None):
        """Energy and gradient of one field (float, (n_free,)) or a batch ((K,), (K, n_free)).

        ``rows`` names the row of X0 each field descends from, which picks its
        per-row base (all rows in order when None); a shared base ignores it.
        """
        base = self.base[rows] if self.per_row and rows is not None else self.base
        # the field axis of the stack is outermost, so numpy lays out every
        # row of W as it lays out a lone field's W: F's reductions add up alike
        W = base + self.stack(x.reshape(-1, self.n_free))
        vals = self.F(W).reshape(len(W), -1)
        ok = _finite_rows(vals)
        dF = _scatter(self.F.gradient(_rows(W, ok)), ok, 0.0)
        # finite value but broken derivative (e.g. FD probe hit a barrier)
        ok &= _finite_rows(dF)
        values = _scatter(_rows(vals, ok).sum(axis=1), ok, np.inf)
        grads = _scatter(self.adjoint(_rows(dF, ok)), ok, 0.0)
        return _unbatch(values, grads, x.shape[:-1])


@dataclass
class DescentResult:
    value: float
    x: np.ndarray
    start_label: str
    iterations: int
    nfev: int             # energy evaluations, x0 included
    converged: bool
    budget_exhausted: bool = False
    history: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)  # (iteration, x_k copies)


class _Lbfgsb:
    """One start's L-BFGS-B state between ``setulb`` calls.

    ``advance`` and ``evaluated`` replay the loop of scipy's
    ``_minimize_lbfgsb``: the gradient handed to ``setulb`` is always a fresh
    copy, a request at the x evaluated last reuses that f and g, the maxiter
    stop is set after the iteration counter, and ``nfev`` counts x0.
    """

    def __init__(self, x0: np.ndarray, maxiter: int, gtol: float, stride: int | None):
        n, m = x0.size, _MAXCOR
        self.maxiter, self.gtol, self.stride = maxiter, gtol, stride
        self.x = np.array(x0, dtype=np.float64)
        self.f = 0.0
        self.g = np.zeros(n)
        self.bounds = (np.zeros(n), np.zeros(n), np.zeros(n, np.int32))  # lower, upper, none
        self.wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
        self.iwa = np.zeros(3 * n, np.int32)
        self.task = np.zeros(2, np.int32)
        self.ln_task = np.zeros(2, np.int32)
        self.lsave = np.zeros(4, np.int32)
        self.isave = np.zeros(44, np.int32)
        self.dsave = np.zeros(29)
        self.x_eval = None
        self.f_eval = self.g_eval = None
        self.nfev = 0
        self.nit = 0
        self.history: list = []
        self.snapshots: list = []

    def advance(self) -> bool:
        """Call setulb until it asks for f and g at a new x (True) or stops (False)."""
        while True:
            self.g = self.g.astype(np.float64)
            _lbfgsb.setulb(_MAXCOR, self.x, *self.bounds, self.f, self.g, _FACTR, self.gtol,
                           self.wa, self.iwa, self.task, self.lsave, self.isave, self.dsave,
                           _MAXLS, self.ln_task)
            task = self.task[0]
            if task == 3:  # FG: f and g wanted at x
                # np.array_equal, as scipy's ScalarFunction compares
                if self.x_eval is None or not (self.x == self.x_eval).all():
                    return True
                self.f, self.g = self.f_eval, self.g_eval
            elif task == 1:  # NEW_X: an iteration ended at x
                self.nit += 1
                if self.stride:
                    self.history.append(float(self.f))
                    if self.nit % self.stride == 0:
                        self.snapshots.append((self.nit, self.x.copy()))
                if self.nit >= self.maxiter:
                    self.task[:] = (5, 504)  # STOP: iteration limit
                elif self.nfev > _MAXFUN:
                    self.task[:] = (5, 502)  # STOP: evaluation limit
            else:
                return False

    def evaluated(self, x: np.ndarray, f: float, g: np.ndarray) -> None:
        self.nfev += 1
        if self.stride and self.nfev == 1:
            self.history.append(f)  # the energy at x0
        self.x_eval = x
        self.f = self.f_eval = f
        self.g = self.g_eval = g

    def result(self, label: str) -> DescentResult:
        converged = self.task[0] == 4  # CONVERGENCE
        exhausted = not converged and (self.nfev > _MAXFUN or self.nit >= self.maxiter)
        return DescentResult(float(self.f), self.x, label, self.nit, self.nfev, bool(converged),
                             exhausted, self.history, self.snapshots)


def run_lbfgs_batch(
    energy,
    X0: np.ndarray,
    labels,
    maxiter: int = 400,
    gtol: float = 1e-9,
    snapshot_stride: int | None = None,
) -> list[DescentResult]:
    """L-BFGS-B descents of ``energy.value_and_grad`` from every row of X0, in lockstep.

    Each round advances every live start until L-BFGS-B asks for the energy
    at a new point, then evaluates all those points with one batched
    ``value_and_grad(X, rows)`` call, ``rows`` the indices into X0 of the
    live starts; it must not write to its arguments.  The
    starts share nothing else, so each result is the one a lone descent from
    that row gives.  Returns one result per row, in order; a start whose
    final value is not finite diverged, and callers drop it.

    With ``snapshot_stride`` set, ``history`` holds the energy at x0 and at
    every accepted iterate, and ``snapshots`` a copy of every stride-th one.
    """
    starts = [_Lbfgsb(x0, maxiter, gtol, snapshot_stride) for x0 in np.asarray(X0, dtype=float)]
    with _one_blas_thread():
        live = list(range(len(starts)))
        while live:
            live = [i for i in live if starts[i].advance()]
            if live:
                X = np.array([starts[i].x for i in live])
                values, grads = energy.value_and_grad(X, np.array(live))
                for i, x, f, g in zip(live, X, values, grads):
                    starts[i].evaluated(x, float(f), g)
    return [s.result(label) for s, label in zip(starts, labels)]


def run_lbfgs(
    energy,
    x0: np.ndarray,
    maxiter: int = 400,
    gtol: float = 1e-9,
    label: str = "",
    snapshot_stride: int | None = None,
) -> DescentResult:
    """One L-BFGS-B descent from x0; raises RuntimeError when it diverges."""
    res = run_lbfgs_batch(energy, np.asarray(x0)[None], [label], maxiter, gtol, snapshot_stride)[0]
    if not np.isfinite(res.value):
        raise RuntimeError(f"descent diverged (energy {res.value}) from start {label!r}")
    return res


@functools.cache
def _blas_threads():
    """(get, set) of the thread count of the OpenBLAS that L-BFGS-B links, or None.

    Looked up through scipy's L-BFGS-B extension, whose dependencies include
    the bundled ``libscipy_openblas``; a scipy built against another BLAS
    exports neither symbol and the pin is skipped.
    """
    try:
        lib = ctypes.CDLL(_lbfgsb.__file__)
        get, set_ = lib.scipy_openblas_get_num_threads, lib.scipy_openblas_set_num_threads
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextmanager
def _one_blas_thread():
    """Run the body with L-BFGS-B's OpenBLAS on one thread, then restore the count."""
    blas = _blas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def boundary_window(grid: Grid, frac: float = 0.25) -> np.ndarray:
    """Tensor-product smooth window: 0 on the faces, 1 on the inner (1-frac) part."""
    from .grid import _smooth_ramp

    vals = np.ones(grid.shape)
    for i, ax in enumerate(grid.axes()):
        lo, hi = grid.domain[i]
        width = (hi - lo) * frac / 2.0
        t = np.minimum(ax - lo, hi - ax) / width
        ramp = _smooth_ramp(t)
        shape = [1] * grid.ndim
        shape[i] = len(ax)
        vals = vals * ramp.reshape(shape)
    return vals


def _square_wave(ax: np.ndarray, k: int, duty: float) -> np.ndarray:
    lo, hi = ax[0], ax[-1]
    phase = (ax - lo) / (hi - lo) * k % 1.0
    return np.where(phase < duty, 1.0 - duty, -duty) * 2.0


def laminate_profile(grid: Grid, axis: int, k: int, duty: float) -> np.ndarray:
    """Zero-boundary field whose pure a_i-th derivative along ``axis`` oscillates.

    Built by integrating a two-level wave a_i times along the axis, removing
    the endpoint drift, and windowing; good as a descent start, not exact.
    """
    ai = grid.a.a[axis]
    ax = grid.axes()[axis]
    h = grid.h[axis]
    prof = _square_wave(ax, k, duty)
    for _ in range(ai):
        prof = np.concatenate([[0.0], np.cumsum(prof[:-1])]) * h
        prof = prof - np.linspace(prof[0], prof[-1], len(prof))
    shape = [1] * grid.ndim
    shape[axis] = len(ax)
    vals = np.broadcast_to(prof.reshape(shape), grid.shape).copy()
    vals = vals * boundary_window(grid)
    return vals


def smooth_noise(grid: Grid, n: int, rng: np.random.Generator) -> np.ndarray:
    noise = rng.standard_normal(grid.shape + (n,))
    for ax in range(grid.ndim):
        noise = ndimage.uniform_filter1d(noise, size=5, axis=ax, mode="nearest")
    return noise * boundary_window(grid)[..., None]


def start_portfolio(
    grid: Grid, n: int, count: int, scale: float, rng: np.random.Generator
) -> list[tuple[str, np.ndarray]]:
    """Deterministic-order descent starts: zero, laminates, scaled smooth noise."""
    starts: list[tuple[str, np.ndarray]] = [("zero", np.zeros(grid.shape + (n,)))]
    lam_specs = [
        (axis, k, duty)
        for k in (1, 2, 3)
        for duty in (0.5, 0.25, 0.75, 0.1, 0.9)
        for axis in range(grid.ndim)
    ]
    n_lam = min(len(lam_specs), max(0, (count - 1) * 2 // 3))
    for axis, k, duty in lam_specs[:n_lam]:
        base = laminate_profile(grid, axis, k, duty)
        amp = _gradient_amplitude(grid, base)
        s = scale / amp if amp > 0 else 1.0
        vals = np.repeat((base * s)[..., None], n, axis=-1)
        starts.append((f"laminate(ax={axis},k={k},duty={duty})", vals))
    while len(starts) < count:
        vals = smooth_noise(grid, n, rng)
        amp = _gradient_amplitude(grid, vals[..., 0])
        s = scale / amp if amp > 0 else 1.0
        starts.append((f"random{len(starts)}", vals * s))
    return starts[:count]


def _gradient_amplitude(grid: Grid, scalar_vals: np.ndarray) -> float:
    W = a_gradient(GridField(grid, scalar_vals)).values
    return float(np.sqrt(np.mean(np.sum(W**2, axis=(-2, -1)))))


def prolong_zero_boundary(field: GridField, fine: Grid) -> GridField:
    """Prolong a zero-boundary field to the dyadic refinement of its grid.

    The node values are read as the coefficients of a tensor B-spline of
    degree a_i along axis i and refined exactly by subdivision (Lane &
    Riesenfeld, 1980): per axis they are duplicated, adjacent pairs are
    averaged a_i times, and a_i - 1 zeros are appended at the high end.  The
    fine pure a_i-th forward differences then repeat the coarse ones node for
    node, so the grid-scale laminates a descent produced survive instead of
    being averaged away, and the collar stays zero.
    """
    coarse = field.grid
    if fine != coarse.refine():
        raise ValueError(f"fine grid {fine.shape} is not the dyadic refinement of {coarse.shape}")
    vals = field.values
    for ax, ai in enumerate(coarse.a.a):
        v = np.repeat(np.moveaxis(vals, ax, 0), 2, axis=0)
        for _ in range(ai):
            v = 0.5 * (v[:-1] + v[1:])
        v = np.concatenate([v, np.zeros((ai - 1,) + v.shape[1:])])
        vals = np.moveaxis(v, 0, ax)
    return GridField(fine, vals)
