"""Shared descent machinery for the inner minimizations.

Free degrees of freedom are the node values outside the zero-boundary
collar.  Energies are assembled through the linear forward-difference
stencils restricted to those values; their gradients come from the adjoint
of the same stencils (chain rule), so L-BFGS sees exact derivatives.  Every
energy takes one field (n_free,) or a batch (..., n_free) through the same
code, and each row of a batch comes out bit-equal to the lone call.

Descents are one unconstrained L-BFGS over a whole (K, n_free) batch of
starts, in lockstep: each round evaluates the trial points of all live rows
in one batched energy call.  The inverse Hessian is applied in the compact
form of Byrd, Nocedal & Schnabel (Math. Prog. 63, 1994) from a ring of the
last 20 correction pairs, and steps come from the Moré–Thuente line search
(ACM TOMS 20, 1994; MINPACK-2's ``dcsrch``).  The rules are those of
L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995) without bounds, with the settings
``scipy.optimize.minimize(method="L-BFGS-B")`` gets from ``maxcor=20,
ftol=1e-14, maxls=20``, so iterates track scipy's up to round-off.

A round costs a fixed number of array operations whatever K is: the
vectors, the ring and its small matrices of all rows move together.  Only
each row's scalars (its line search and stopping tests) are worked out one
row at a time, in Python floats: with one to three rows per round, as in a
Dirichlet solve or a theta curve, a vectorised line search cost more than
the energy.  No row's arithmetic reads another row, so a row of a batch is
bit-equal to the same row run alone.

``SobolevEnergy`` runs the same energy in the coordinates of the discrete
a-Sobolev metric, the Kronecker sum of the pure columns' D_i^T D_i, which
the fast diagonalisation method (Lynch, Rice & Thomas, Numer. Math. 6, 1964)
turns into one dense eigenbasis per axis.  A descent in those coordinates is
a Sobolev-gradient descent in Neuberger's sense: its quadratic part is about
the identity, so it converges in tens of iterations where the flat metric,
whose condition number grows like h^(-2 max a_i), spends its whole budget.
``screen_then_polish`` is the two-phase descent of envelope nodes,
Dirichlet solves and theta points: every start screens flat, which picks its
basin, and the chosen starts that ran out of that budget polish in the
metric.  Every descent records each row's value after _SCREEN_CUT_ROUND
energy evaluations, and a screen may be given a ``cut`` that retires rows
there; envelope nodes cut theirs to their leaders (successive halving's
first rung, Jamieson & Talwalkar 2016), so losing starts stop early.  A cut
changes no kept row's arithmetic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .grid import Grid, GridField, _stencil_adjoint, _stencil_forward, _stencil_table, a_gradient
# bench/layers.py traces these two at this site
from .grid import gradient_adjoint, mixed_derivative  # noqa: F401
from .integrand import Integrand
from .smoothness import homogeneity_set

# L-BFGS settings: stored correction pairs, relative f reduction that ends a
# descent (L-BFGS-B's factr * epsmch), trials per line search, evaluations
_MAXCOR = 20
_FREL = 1e-14 / np.finfo(float).eps * np.finfo(float).eps
_MAXLS = 20
_MAXFUN = 15000
_EPS = np.finfo(float).eps
# Moré–Thuente as L-BFGS-B calls it: sufficient decrease, curvature and
# interval tolerances, and the largest step (the smallest is 0)
_FTOL, _CURV, _XTOL, _STPMAX = 1e-3, 0.9, 0.1, 1e10
# share of each axis over which boundary_window ramps up from 0 (half per face)
_WINDOW_FRAC = 0.25
# flat screening budget per start; the rows chosen for polishing spend the
# rest of maxiter in the a-Sobolev metric (screen_then_polish)
_SCREEN_MAXITER = 200
# the energy evaluation after which a screen's ``cut`` may retire rows; every
# descent records its rows' values there (DescentResult.cut_value)
_SCREEN_CUT_ROUND = 25
# multiply-adds per matrix product of the Sobolev transforms: OpenBLAS runs a
# product up to this size on one thread, while one it shares out over threads
# can change its bits with the thread count (measured at 125 x 125 x 127)
_SERIAL_MADDS = 2**18


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
    """Per row of ``a``, whether every entry is finite (no copy of ``a``)."""
    return np.isfinite(a).all(axis=tuple(range(1, a.ndim)))


def _finite_terms(F: Integrand, W: np.ndarray):
    """Row sums of F (K,), dF and ``ok`` of F at a batch W (K, ..., n, m): the finite-row rule.

    Only the rows where F and dF are finite at every node are kept (``ok``);
    ``_unbatch`` gives the others the energy +inf and a zero gradient.  An
    overflow is silent here: a node term that overflows drops its row, and
    a kept row whose sum overflows has the energy +inf.
    """
    with np.errstate(over="ignore"):
        vals = F(W).reshape(len(W), -1)
        ok = _finite_rows(vals)
        dF = _scatter(F.gradient(_rows(W, ok)), ok, 0.0)
        # finite value but broken derivative (e.g. FD probe hit a barrier)
        ok &= _finite_rows(dF)
        return _rows(vals, ok).sum(axis=1), _rows(dF, ok), ok


def _unbatch(values: np.ndarray, grads: np.ndarray, ok: np.ndarray, lead: tuple):
    """The kept rows' results, +inf and a zero gradient elsewhere; a float for one field."""
    values, grads = _scatter(values, ok, np.inf), _scatter(grads, ok, 0.0)
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
        # the free nodes of every leading axis and component (Python 3.10 has no x[..., *box])
        self._free = (Ellipsis, *grid.free_box, slice(None))
        self._free_shape = grid.free_shape + (F.n,)
        self.n_free = math.prod(self._free_shape)
        # the stencils run on the nodes of the interior region, whose first
        # a_i per axis are collar zeros and whose other nodes are the free ones
        self._table, self._reach = _stencil_table(grid, tuple(self.alphas), grid.interior_shape,
                                                  F.n)
        self._size = grid.n_interior * F.n
        self._interior = grid.interior_shape + (F.n,)
        d = grid.ndim
        # (K, m, *interior, n) -> (K, *interior, n, m), and back with alpha first
        self._stack_axes = (0,) + tuple(range(2, d + 3)) + (1,)
        self._adjoint_axes = (d + 2, 0) + tuple(range(1, d + 2))

    def unpack(self, x: np.ndarray) -> np.ndarray:
        """The zero-boundary field of free values x (n_free,), or one per row of x (K, n_free)."""
        lead = x.shape[:-1]
        phi = np.zeros(lead + self.grid.shape + (self.F.n,))
        phi[self._free] = x.reshape(lead + self._free_shape)
        return phi

    def pack(self, phi: np.ndarray) -> np.ndarray:
        """The free values of a field (*grid.shape, n), or of each of a batch (K, ...)."""
        return phi[self._free].reshape(phi.shape[:phi.ndim - self.grid.ndim - 1] + (-1,))

    def stack(self, X: np.ndarray) -> np.ndarray:
        """grad_a of the zero-boundary fields with free values X (K, n_free).

        Returns (K, *interior_shape, n, m), a view of a (K, m, *interior, n)
        array: each field's block keeps the memory layout of a lone field's
        (alpha-major), so a batch row is laid out like the single-field call.
        """
        if not np.all(np.isfinite(X)):
            raise ValueError("field values must be finite")
        k, size = len(X), self._size
        nodes = np.zeros(k * size + self._reach)
        nodes[:k * size].reshape((k,) + self._interior)[self._free] = X.reshape(
            (k,) + self._free_shape)
        # each alpha's column as one contiguous block: numpy is several times
        # slower on strided rows than the one transposed copy below
        cols = np.empty((len(self.alphas), k * size))
        _stencil_forward(self._table, nodes, cols)
        cols = np.ascontiguousarray(cols.reshape(len(self.alphas), k, size).swapaxes(0, 1))
        return cols.reshape((k, len(self.alphas)) + self._interior).transpose(self._stack_axes)

    def adjoint(self, weights: np.ndarray) -> np.ndarray:
        """Gradient over the free values of sum(stack(X) * weights), per row: (K, n_free)."""
        k, size = len(weights), self._size
        out = np.zeros(k * size + self._reach)
        cols = np.ascontiguousarray(weights.transpose(self._adjoint_axes))  # no copy when m == 1
        _stencil_adjoint(self._table, cols.reshape(len(self.alphas), k * size), out)
        free = out[:k * size].reshape((k,) + self._interior)[self._free]
        return np.ascontiguousarray(free).reshape(k, self.n_free)

    def value_and_grad(self, x: np.ndarray, rows=None):
        """Energy and gradient of one field (float, (n_free,)) or a batch ((K,), (K, n_free)).

        ``rows`` names the row of X0 each field descends from, which picks its
        per-row base (all rows in order when None); a shared base ignores it.
        """
        base = self.base[rows] if self.per_row and rows is not None else self.base
        # the field axis of the stack is outermost, so numpy lays out every
        # row of W as it lays out a lone field's W: F's reductions add up alike
        W = base + self.stack(x.reshape(-1, self.n_free))
        sums, dF, ok = _finite_terms(self.F, W)
        return _unbatch(sums, self.adjoint(dF), ok, x.shape[:-1])


class _MomentRetraction(StencilEnergy):
    """G_t(x) = mean F(grad_a(c x)), c = max(1, (t / m(x))^(1/q)), m(x) = mean |grad_a x|^q.

    The fields c x are the radial retraction of x onto the set {m >= t}, so
    every iterate of a descent is feasible.  Where m >= t, G_t is the plain
    mean energy; where m < t it is 0-homogeneous, and with W = grad_a x and
    N interior nodes its gradient is
    (c/N) A^T [F'(cW) - (sum <F'(cW), W> / (m N)) |W|^(q-2) W],
    orthogonal to x.  A field of zero moment has no retraction when t > 0
    (c is inf): it gets the energy +inf and a zero gradient, after numpy's
    warning of the 0 * inf.  The base is zero.
    """

    def __init__(self, grid: Grid, F: Integrand, q: float, t: float):
        super().__init__(grid, F, np.zeros((F.n, F.m)))
        self.q, self.t = q, t
        self._nodes = grid.n_interior

    def _scales(self, W: np.ndarray):
        """|W| per node, m and c per row of a stacked batch W; c is inf where m = 0 < t."""
        # a moment that overflows is inf >= t, so c = 1 and the row's energy
        # overflows into the finite-row rule
        with np.errstate(divide="ignore", over="ignore"):
            fro = np.sqrt(np.sum(W**2, axis=(-2, -1)))
            m = (fro**self.q).reshape(len(W), -1).sum(axis=1) / self._nodes
            c = np.ones(len(W))
            short = m < self.t
            c[short] = (self.t / m[short]) ** (1.0 / self.q)
        return fro, m, c

    def scales(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """m and c of each row of X (K, n_free); c is inf for a field no scale lifts to t."""
        return self._scales(self.stack(X))[1:]

    def value_and_grad(self, x: np.ndarray, rows=None):
        """G_t and its gradient at one field (float, (n_free,)) or a batch ((K,), (K, n_free)).

        The base is zero, so ``rows`` is unused.
        """
        W = self.stack(x.reshape(-1, self.n_free))
        n = self._nodes
        fro, m, c = self._scales(W)
        short = m < self.t
        # 1.0 * W is W: the rows that are not short keep their bits; a row of
        # zero moment becomes 0 * inf = nan, which the finite-row rule drops
        lift = (-1,) + (1,) * (W.ndim - 1)
        sums, dF, ok = _finite_terms(self.F, W * c.reshape(lift) if short.any() else W)
        totals = sums / n
        weights = dF / n
        lifted = short[ok]
        if lifted.any():
            keep = ok & short
            Ws, dFs = _rows(W, keep), dF[lifted]
            slope = (dFs * Ws).reshape(len(Ws), -1).sum(axis=1) / (m[keep] * n)
            radial = np.maximum(_rows(fro, keep), 1e-300)[..., None, None] ** (self.q - 2.0) * Ws
            weights[lifted] = (c[keep] / n).reshape(lift) * (dFs - slope.reshape(lift) * radial)
        return _unbatch(totals, self.adjoint(weights), ok, x.shape[:-1])


@functools.lru_cache(maxsize=16)
def _sobolev_basis(grid: Grid) -> tuple:
    """Per axis the eigenbasis Q_i of M_i = D_i^T D_i on its free nodes, and sqrt(Lambda).

    D_i is the pure a_i-th forward difference along axis i over h_i^a_i.
    Each free node lies a_i or more nodes from both ends, so all a_i + 1 of
    its stencils lie in the interior, and M_i is Toeplitz: the 2a_i-th
    central difference, (-1)^d C(2a_i, a_i + d) / h_i^(2a_i) on diagonal d.
    Returns the Q_i, their transposes (both C-contiguous) and the square
    root of the Kronecker sum Lambda = sum_i mu_i of the eigenvalues, shaped
    (f_1, ..., f_N, 1) to broadcast over the components.  On long axes the
    bits of ``numpy.linalg.eigh`` can change with the BLAS thread count
    (seen at 253 free nodes under 1 and 2 OpenBLAS threads, not at 125).
    """
    bases, roots = [], 0.0
    for i, (f, ai, h) in enumerate(zip(grid.free_shape, grid.a.a, grid.h.tolist())):
        M = np.zeros((f, f))
        for d in range(-ai, ai + 1):
            k = np.arange(max(0, -d), min(f, f - d))
            M[k, k + d] = (-1) ** abs(d) * math.comb(2 * ai, ai + d) / h ** (2 * ai)
        mu, Q = np.linalg.eigh(M)
        bases.append((Q, np.ascontiguousarray(Q.T)))
        roots = roots + mu.reshape((-1,) + (1,) * (grid.ndim - i - 1))
    roots = np.sqrt(roots)[..., None]
    for arr in (roots, *(Q for pair in bases for Q in pair)):
        arr.flags.writeable = False  # every caller shares the cached arrays
    return tuple(bases), roots


def _along_axes(mats, perms, X: np.ndarray) -> np.ndarray:
    """(M_1 kron ... kron M_N) x for every field x of a batch X (K, f_1, ..., f_N, n).

    Axis i is brought next to the field axis by the transpose ``perms[i]``
    (its inverse undoes it) and copied contiguous once; then each column
    block of at most _SERIAL_MADDS multiply-adds (single columns on an axis
    of more than 512 free nodes) is one ``np.matmul`` that numpy broadcasts
    over the K fields, issuing per field the product a lone field gets, so
    each field's bits are its own and do not depend on the BLAS thread count.
    Returns a (K, f_1, ..., f_N, n) view.
    """
    for M, (perm, back) in zip(mats, perms):
        y = X.transpose(perm)
        cols = np.ascontiguousarray(y).reshape(len(X), len(M), -1)
        out = np.empty_like(cols)
        step = max(1, _SERIAL_MADDS // M.size)
        for j in range(0, cols.shape[2], step):
            np.matmul(M, cols[:, :, j:j + step], out=out[:, :, j:j + step])
        X = out.reshape(y.shape).transpose(back)
    return X


class SobolevEnergy:
    """A StencilEnergy over z = Lambda^(1/2) Q^T x, the coordinates of the a-Sobolev metric.

    The metric is A = Q Lambda Q^T = sum_i I kron M_i kron I, the Kronecker
    sum of the pure columns a_i e_i of D_f^T D_f (see ``_sobolev_basis``).
    Every homogeneity set holds those columns, so A is SPD; it equals
    D_f^T D_f where every column is pure (N = 1, a = (1, 2)) and leaves out
    the mixed ones otherwise (a = (2, 2)).  So |z|^2 is the discrete
    a-seminorm of x, a quadratic F makes the energy about |z|^2, and a
    descent's ``gtol`` bounds the z-gradient Lambda^(-1/2) Q^T g.

    ``value_and_grad`` maps z to x, calls the wrapped energy's and maps its
    gradient back; ``to_z`` and ``to_x`` map free values to z and back.
    Every transform maps a whole batch with one ``_along_axes`` call, whose
    products numpy broadcasts over the rows, so each row of a batch is
    bit-equal to the same row alone.
    """

    def __init__(self, energy: StencilEnergy):
        self.energy = energy
        self.n_free = energy.n_free
        self._shape = energy._free_shape
        bases, self._root = _sobolev_basis(energy.grid)
        self._Q = [Q for Q, _ in bases]
        self._Qt = [Qt for _, Qt in bases]
        # per axis i of a batch (K, f_1, ..., f_N, n): the order (K, f_i, the
        # other axes) and its inverse
        d = len(self._shape)
        perms = [(0, i) + tuple(k for k in range(1, d + 1) if k != i) for i in range(1, d)]
        self._perms = [(p, tuple(np.argsort(p).tolist())) for p in perms]

    def _fields(self, X: np.ndarray) -> np.ndarray:
        """The rows of X (..., n_free) as a batch of fields (K, f_1, ..., f_N, n)."""
        return X.reshape((-1,) + self._shape)

    def to_x(self, Z: np.ndarray) -> np.ndarray:
        """The free values x of z (n_free,), or of each row of Z (..., n_free)."""
        return _along_axes(self._Q, self._perms, self._fields(Z) / self._root).reshape(Z.shape)

    def to_z(self, X: np.ndarray) -> np.ndarray:
        """z of the free values x (n_free,), or of each row of X (..., n_free)."""
        return (_along_axes(self._Qt, self._perms, self._fields(X)) * self._root).reshape(X.shape)

    def value_and_grad(self, z: np.ndarray, rows=None):
        """The wrapped energy at x(z), and its z-gradient Lambda^(-1/2) Q^T g(x)."""
        values, grads = self.energy.value_and_grad(self.to_x(z), rows)
        G = _along_axes(self._Qt, self._perms, self._fields(grads)) / self._root
        return values, G.reshape(grads.shape)


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
    cut_value: float = math.nan   # value after _SCREEN_CUT_ROUND evaluations; nan if it ended sooner
    retired: bool = False         # stopped there by the descent's ``cut``


def _div(a: float, b: float) -> float:
    """a / b with IEEE results at b == 0 (inf, or nan for 0/0), as compiled code gets them."""
    try:
        return a / b
    except ZeroDivisionError:
        if a == 0.0 or a != a:
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _sqrt(a: float) -> float:
    return math.sqrt(a) if a >= 0.0 else math.nan


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """MINPACK-2's ``dcstep``: a safeguarded step and the new bracket.

    From the ends stx, sty of the interval and the trial stp, each with its
    value and slope, returns the new ends, the next step within
    [stpmin, stpmax] and whether a minimizer is bracketed.  Every operation
    is the compiled code's, so a nan or inf trial value gives its result.
    """
    opposite = dp < 0.0 < dx or dx < 0.0 < dp
    if fp > fx:  # higher value: the minimum lies between stx and stp
        theta = _div(3.0 * (fx - fp), stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * _sqrt(_div(theta, s) * _div(theta, s) - _div(dx, s) * _div(dp, s))
        if stp < stx:
            gamma = -gamma
        r = _div((gamma - dx) + theta, ((gamma - dx) + gamma) + dp)
        stpc = stx + r * (stp - stx)
        stpq = stx + (_div(dx, _div(fx - fp, stp - stx) + dx) / 2.0) * (stp - stx)
        stpf = stpc if abs(stpc - stx) <= abs(stpq - stx) else stpc + (stpq - stpc) / 2.0
        brackt = True
    elif opposite:  # slopes of opposite sign: bracketed
        theta = _div(3.0 * (fx - fp), stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * _sqrt(_div(theta, s) * _div(theta, s) - _div(dx, s) * _div(dp, s))
        if stp > stx:
            gamma = -gamma
        r = _div((gamma - dp) + theta, ((gamma - dp) + gamma) + dx)
        stpc = stp + r * (stx - stp)
        stpq = stp + _div(dp, dp - dx) * (stx - stp)
        stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        brackt = True
    elif abs(dp) < abs(dx):  # the slope shrinks: extrapolate, at most to the interval's far end
        theta = _div(3.0 * (fx - fp), stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * _sqrt(max(0, _div(theta, s) * _div(theta, s) - _div(dx, s) * _div(dp, s)))
        if stp > stx:
            gamma = -gamma
        r = _div((gamma - dp) + theta, (gamma + (dx - dp)) + gamma)
        if r < 0.0 and gamma != 0.0:
            stpc = stp + r * (stx - stp)
        elif stp > stx:
            stpc = stpmax
        else:
            stpc = stpmin
        stpq = stp + _div(dp, dp - dx) * (stx - stp)
        if brackt:
            stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            reach = stp + 0.66 * (sty - stp)
            stpf = min(reach, stpf) if stp > stx else max(reach, stpf)
        else:
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            stpf = min(max(stpf, stpmin), stpmax)
    elif brackt:  # the slope does not shrink: a cubic through stp and sty
        theta = _div(3.0 * (fp - fy), sty - stp) + dy + dp
        s = max(abs(theta), abs(dy), abs(dp))
        gamma = s * _sqrt(_div(theta, s) * _div(theta, s) - _div(dy, s) * _div(dp, s))
        if stp > sty:
            gamma = -gamma
        r = _div((gamma - dp) + theta, ((gamma - dp) + gamma) + dy)
        stpf = stp + r * (sty - stp)
    else:
        stpf = stpmax if stp > stx else stpmin
    # the trial becomes the best end unless its value is higher; the old best
    # end becomes the other end where the slopes changed sign
    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if opposite:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, brackt


class _Row:
    """One descent's scalars: its counters and its Moré–Thuente line search.

    ``search`` is MINPACK-2's ``dcsrch`` as L-BFGS-B calls it (stpmin 0,
    stpmax _STPMAX), names and all; ``start`` is its START call.
    """

    __slots__ = ("id", "f", "nit", "pairs", "begun", "converged", "stopped", "retired",
                 "cut_value", "stp", "finit", "ginit", "gtest", "stx", "fx", "gx", "sty", "fy", "gy",
                 "stmin", "stmax", "width", "width1", "brackt", "stage1")

    def __init__(self, id: int, f: float):
        self.id, self.f = id, f
        self.nit = 0
        self.pairs = 0  # stored since the memory was last emptied; the next goes to pairs % _MAXCOR
        self.converged = self.stopped = self.retired = False
        self.cut_value = math.nan

    def start(self, stp: float, g0: float, round: int) -> None:
        """Begin a search from the iterate (value self.f, slope g0 < 0) at step stp."""
        self.begun = round
        self.stp, self.finit, self.ginit, self.gtest = stp, self.f, g0, _FTOL * g0
        self.brackt, self.stage1 = False, True
        self.stx, self.fx, self.gx = 0.0, self.f, g0
        self.sty, self.fy, self.gy = 0.0, self.f, g0
        self.stmin, self.stmax = 0.0, stp + 4.0 * stp
        self.width = _STPMAX
        self.width1 = _STPMAX / 0.5

    def search(self, f: float, g: float) -> bool:
        """Value f and slope g at the trial step: True when the search ends there.

        It ends converged or with one of dcsrch's warnings; otherwise
        ``self.stp`` becomes the next trial step.
        """
        stp, gtest = self.stp, self.gtest
        ftest = self.finit + stp * gtest
        if f <= ftest and abs(g) <= _CURV * -self.ginit:
            return True
        if self.stage1 and f <= ftest and g >= 0.0:
            self.stage1 = False
        stmin, stmax = self.stmin, self.stmax
        if self.brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= _XTOL * stmax):
            return True
        if stp == _STPMAX and f <= ftest and g <= gtest:
            return True
        if stp == 0.0 and (f > ftest or g >= gtest):
            return True
        if self.stage1 and f <= self.fx and f > ftest:
            # in stage 1, while f is above the sufficient-decrease line but
            # below fx, step on the modified function f - stp*gtest
            stx, fx, gx, sty, fy, gy, stp, brackt = _dcstep(
                self.stx, self.fx - self.stx * gtest, self.gx - gtest, self.sty,
                self.fy - self.sty * gtest, self.gy - gtest, stp, f - stp * gtest, g - gtest,
                self.brackt, stmin, stmax)
            fx, fy, gx, gy = fx + stx * gtest, fy + sty * gtest, gx + gtest, gy + gtest
        else:
            stx, fx, gx, sty, fy, gy, stp, brackt = _dcstep(
                self.stx, self.fx, self.gx, self.sty, self.fy, self.gy, stp, f, g, self.brackt,
                stmin, stmax)
        if brackt:
            # bisect when the bracket has not shrunk enough over two steps
            if abs(sty - stx) >= 0.66 * self.width1:
                stp = stx + 0.5 * (sty - stx)
            self.width1, self.width = self.width, abs(sty - stx)
            stmin, stmax = min(stx, sty), max(stx, sty)
        else:
            stmin, stmax = stp + 1.1 * (stp - stx), stp + 4.0 * (stp - stx)
        # a nan step (a trial of infinite value) falls back to 0, as in L-BFGS-B
        stp = min(stp, _STPMAX) if stp >= 0.0 else 0.0
        if brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= _XTOL * stmax):
            stp = stx
        self.stp, self.brackt, self.stmin, self.stmax = stp, brackt, stmin, stmax
        self.stx, self.fx, self.gx, self.sty, self.fy, self.gy = stx, fx, gx, sty, fy, gy
        return False


class _Lbfgs:
    """State of a lockstep L-BFGS over a batch; the live rows lead every array.

    Per row the arrays hold the iterate x and gradient g, the direction d
    and its full step z = x + d (the first trial), the trial point xt, and a
    ring of the last _MAXCOR correction pairs W = [S; Y] with R^-1, Y'Y and
    diag(S'Y) of the compact inverse form, all in ring-slot order.  A slot
    that holds no pair has zero rows and columns in R^-1, so whatever it
    holds meets zero coefficients.  The scalar decisions of each row (line
    search, stopping tests) are made on its ``_Row``; everything else is a
    fixed number of batched array operations per round, whatever the batch
    size.  A row that stops leaves its result behind and the last live rows
    move into its place, so every batched operation runs on a leading block
    and none copies the memory.  After _SCREEN_CUT_ROUND evaluations every
    live row records its value, and the rows ``cut`` names retire there.
    """

    # Four all-rows fast paths (``step`` swaps x and xt when every search
    # ends, ``_store`` slices when every row stores into one slot, ``_begin``
    # works in place, ``_trials`` copies z when every step is full) give the
    # bytes of their general branches, which alone made envelope-2d's median
    # wall time 8% longer (0.308 to 0.332 s, 6 of 6 pairs, 2 shared cores).

    def __init__(self, x0, f0, g0, maxiter: int, gtol: float, history: bool, cut=None):
        k, n = x0.shape
        m = _MAXCOR
        self.maxiter, self.gtol, self.record, self.cut = maxiter, gtol, history, cut
        self.live = k
        self.round = 1  # energy evaluations of every live row so far
        self.rows = [_Row(i, f) for i, f in enumerate(np.asarray(f0, dtype=float).tolist())]
        self.ids = np.arange(k)  # the row of X0 each live row descends from
        # [y; g] per row, so that one pass over W gives y'W and g'W
        self.V = np.zeros((k, 2, n))
        self.x, self.g = x0, self.V[:, 1]
        self.g[:] = g0
        self.xt, self.z, self.d = np.zeros((k, n)), np.zeros((k, n)), np.zeros((k, n))
        self.W = np.zeros((k, 2 * m, n))
        self.Rinv, self.YY, self.D = np.zeros((k, m, m)), np.zeros((k, m, m)), np.zeros((k, m))
        self.theta = np.ones(k)
        self.pair = np.zeros((k, 4))  # a round's (slot, step, s'y, s'g) of the rows that store
        self.results: list[DescentResult] = [None] * k
        self.history = [[row.f] if history else [] for row in self.rows]
        new = []
        for i, gmax in enumerate(np.maximum.reduce(np.abs(self.g), axis=1).tolist()):
            if gmax <= gtol:
                self.rows[i].converged = self.rows[i].stopped = True
            else:
                new.append(i)
        self._begin(new, self.g)
        self._trials()
        self._retire()

    def step(self, ft: np.ndarray, gt: np.ndarray) -> None:
        """Take the energies and gradients at the live rows' trial points."""
        live, rows = self.live, self.rows
        self.round += 1
        # an energy may hand back a strided batch; row dots must see each
        # gradient laid out as a lone one is
        gt = np.ascontiguousarray(gt)
        with np.errstate(over="ignore"):  # a slope that overflows is infinite, silently
            fs, slopes = ft.tolist(), np.vecdot(gt, self.d[:live]).tolist()
        ended = [row.search(f, slope) for row, f, slope in zip(rows, fs, slopes)]
        acc = [i for i, end in enumerate(ended) if end]
        failed = []
        if len(acc) < live:
            # a search past _MAXLS trials fails: the row restarts along -g
            # with an empty memory, or stops if it is empty already
            for row, end, i in zip(rows, ended, range(live)):
                if not end and self.round - row.begun >= _MAXLS:
                    if row.pairs:
                        failed.append(i)
                        row.pairs = 0
                    else:
                        row.stopped = True
        new, store, pairs = [], [], []
        if acc:
            gmax = np.maximum.reduce(np.abs(gt), axis=1).tolist()
            for i in acc:
                # a search that ends makes its trial the iterate
                row, f = rows[i], fs[i]
                f0, stp, slope0 = row.f, row.stp, row.ginit
                row.f = f
                row.nit += 1
                if self.record:
                    self.history[row.id].append(f)
                # the budget is checked before convergence, as scipy's _minimize_lbfgsb does
                if row.nit >= self.maxiter or self.round > _MAXFUN:
                    row.stopped = True
                elif stp == 0.0:
                    # the search fell back to step 0 (an infinite trial gives
                    # a nan step): the iterate did not move, which the
                    # relative-f test would take for convergence
                    row.stopped = True
                elif gmax[i] <= self.gtol or f0 - f <= _FREL * max(abs(f0), abs(f), 1.0):
                    row.stopped = row.converged = True
                else:
                    sy = (slopes[i] - slope0) * stp
                    if sy > _EPS * (-slope0 * stp):  # else the pair is skipped
                        pairs.append((row.pairs % _MAXCOR, stp, sy, stp * slopes[i]))
                        store.append(i)
                        row.pairs += 1
                    new.append(i)
            np.subtract(gt, self.g[:live], out=self.V[:live, 0])
            if len(acc) == live:
                self.x, self.xt = self.xt, self.x
                self.g[:live] = gt
            else:
                a = np.array(acc)
                self.x[a] = self.xt[a]
                self.g[a] = gt[a]
        if failed:
            self._reset(np.array(failed))
            new += failed
        if new:
            # y'W and g'W at the new iterates in one pass over W
            P = np.matmul(self.V[:live], self.W[:live].transpose(0, 2, 1))
            if store:
                self.pair[store] = pairs
                self._store(store, P)
            self._begin(new, self._inverse_times_g(P[:, 1]))
        if self.round == _SCREEN_CUT_ROUND:
            self._checkpoint()
        self._trials()
        self._retire()

    def _checkpoint(self) -> None:
        """Record every live row's value; retire the still-descending rows ``cut`` names.

        ``cut(ids, values)`` gets the X0 rows (in no set order) and current
        values of the rows that have not stopped and returns the X0 rows to
        retire.
        """
        for row in self.rows:
            row.cut_value = row.f
        going = [row for row in self.rows if not row.stopped]
        if self.cut is None or not going:
            return
        retire = set(self.cut([row.id for row in going], [row.f for row in going]))
        for row in going:
            if row.id in retire:
                row.stopped = row.retired = True

    def _store(self, store: list, P: np.ndarray) -> None:
        """Put the pair (s, y) of each ``store`` row in its ring slot; P = [y'W; g'W].

        ``self.pair`` holds each row's (slot, step, s'y, s'g).
        """
        m, live = _MAXCOR, self.live
        # the rows' own blocks are views when every live row stores
        sel = slice(0, live) if len(store) == live else np.array(store)
        j, stp, sy, sg = self.pair[sel].T
        V, Py = self.V[sel], P[sel, 0]
        if isinstance(sel, slice) and len({self.rows[i].pairs for i in store}) == 1:
            rows, j = sel, int(j[0])  # one slot for all: plain slices index it
        else:
            rows, j = np.arange(live) if isinstance(sel, slice) else sel, j.astype(np.intp)
        yy, yg = np.vecdot(V, V[:, :1]).T  # y'y and g'y
        # R = upper triangle of S'Y in age order.  Slot j holds the oldest
        # pair or none: either way its column of R^-1 has only the diagonal
        # entry, so clearing row j drops the pair.  The new pair adds column
        # -R^-1 S'y / sy with diagonal 1 / sy.
        col = np.matmul(self.Rinv[sel], Py[:, :m, None])[..., 0]
        col /= -sy[:, None]
        self.Rinv[rows, j] = 0.0
        self.Rinv[rows, :, j] = col
        self.Rinv[rows, j, j] = 1.0 / sy
        self.YY[rows, :, j] = Py[:, m:]
        self.YY[rows, j] = Py[:, m:]
        self.YY[rows, j, j] = yy
        self.D[rows, j] = sy
        self.theta[rows] = yy / sy
        self.W[rows, j] = stp[:, None] * self.d[sel]
        self.W[rows, j + m] = V[:, 0]
        # S'g and Y'g of the new pairs: g'W was taken before they went in
        P[rows, 1, j] = sg
        P[rows, 1, j + m] = yg

    def _inverse_times_g(self, Pg) -> np.ndarray:
        """H g for every live row, H the compact inverse; Pg = [S'g; Y'g].

        H = I/theta + [S Y/theta] [[R^-T (D + Y'Y/theta) R^-1, -R^-T], [-R^-1, 0]] [S'; Y'/theta].
        """
        live, m = self.live, _MAXCOR
        theta, Rinv = self.theta[:live, None, None], self.Rinv[:live]
        c = np.empty((live, 2 * m, 1))
        q = np.matmul(Rinv, Pg[:, :m, None])
        w = np.matmul(self.YY[:live], q)
        w -= Pg[:, m:, None]
        w /= theta
        w += self.D[:live, :, None] * q
        np.matmul(Rinv.transpose(0, 2, 1), w, out=c[:, :m])
        np.divide(q, -theta, out=c[:, m:])
        hg = np.matmul(c.transpose(0, 2, 1), self.W[:live])[:, 0]
        hg += self.g[:live] / theta[:, 0]
        return hg

    def _reset(self, rows) -> None:
        """Empty the memories of ``rows``: their next step goes along -g."""
        self.Rinv[rows] = 0.0
        self.YY[rows] = 0.0
        self.D[rows] = 0.0
        self.theta[rows] = 1.0

    def _begin(self, new: list, hg: np.ndarray) -> None:
        """Start a line search along -H g (hg, one row per live row) at each ``new`` row."""
        if not new:
            return
        live, rows = self.live, self.rows
        x, g = self.x[:live], self.g[:live]
        if len(new) == live:
            z, d = self.z[:live], self.d[:live]
            np.subtract(x, hg, out=z)
            np.subtract(z, x, out=d)
        else:
            z = x - hg
            d = z - x
            n = np.array(new)
            self.z[n], self.d[n] = z[n], d[n]
        # slopes and lengths that overflow are infinite, silently: a first
        # step of length 1 / inf = 0 ends the row's search where it is
        with np.errstate(over="ignore"):
            slopes = np.vecdot(g, d).tolist()
        retry = [i for i in new if slopes[i] >= 0.0 and rows[i].pairs]
        if retry:
            # not a descent direction: drop the memory and go along -g
            r = np.array(retry)
            self._reset(r)
            self.z[r] = z = x[r] - g[r]
            self.d[r] = d = z - x[r]
            for i, slope in zip(retry, np.vecdot(g[r], d).tolist()):
                rows[i].pairs = 0
                slopes[i] = slope
        # the first step of a descent has length 1, later ones are full steps
        first = []
        for i in new:
            if slopes[i] >= 0.0:
                rows[i].stopped = True  # no descent along -g either
            elif rows[i].nit == 0:
                first.append(i)
            else:
                rows[i].start(1.0, slopes[i], self.round)
        if first:
            f = np.array(first)
            with np.errstate(over="ignore"):
                lengths = np.sqrt(np.vecdot(self.d[f], self.d[f])).tolist()
            for i, length in zip(first, lengths):
                rows[i].start(min(_div(1.0, length), _STPMAX), slopes[i], self.round)

    def _trials(self) -> None:
        """The trial point x + stp d of every live row (z itself at a full step)."""
        live = self.live
        steps = [0.0 if row.stopped else row.stp for row in self.rows]
        xt = self.xt[:live]
        if all(stp == 1.0 for stp in steps):
            xt[...] = self.z[:live]
            return
        stp = np.array(steps)
        np.multiply(stp[:, None], self.d[:live], out=xt)
        xt += self.x[:live]
        np.copyto(xt, self.z[:live], where=(stp == 1.0)[:, None])

    def _retire(self) -> None:
        """Record the rows that stopped and move the last live rows into their places."""
        rows = self.rows
        gone = [i for i, row in enumerate(rows) if row.stopped]
        if not gone:
            return
        for i in gone:
            row = rows[i]
            budget = row.nit >= self.maxiter or self.round > _MAXFUN
            self.results[row.id] = DescentResult(
                row.f, self.x[i].copy(), "", row.nit, self.round, row.converged,
                budget and not row.converged, self.history[row.id], row.cut_value, row.retired)
        kept = [i for i, row in enumerate(rows) if not row.stopped]
        self.live = live = len(kept)
        holes, movers = [i for i in gone if i < live], [i for i in kept if i >= live]
        # row by row: a fancy-indexed move would copy all the movers' rings
        # (a cut moves dozens at once) into a temporary first
        for i, j in zip(holes, movers):
            for a in (self.ids, self.x, self.V, self.d, self.z, self.xt, self.W, self.Rinv,
                      self.YY, self.D, self.theta):
                a[i] = a[j]
            rows[i] = rows[j]
        del rows[live:]


def run_lbfgs_batch(
    energy,
    X0: np.ndarray,
    labels,
    maxiter: int = 400,
    gtol: float = 1e-9,
    history: bool = False,
    cut=None,
) -> list[DescentResult]:
    """L-BFGS descents of ``energy.value_and_grad`` from every row of X0, in lockstep.

    Each round evaluates the trial points of all live starts with one
    batched ``value_and_grad(X, rows)`` call, ``rows`` the indices into X0
    of those starts; it must not write to its arguments.  The starts share
    nothing else, so each result is the one a lone descent from that row
    gives.  Returns one result per row, in order; a start whose final value
    is not finite diverged, and callers drop it.

    A line search that ends at step 0 (where an infinite trial value makes
    it fall back) stops its row where it is, with ``converged`` False;
    scipy's L-BFGS-B reports success there, since f did not rise.

    With ``history``, each result's ``history`` holds the energy at x0 and
    at every accepted iterate.

    Each result's ``cut_value`` is its value after ``_SCREEN_CUT_ROUND``
    energy evaluations (nan when it ended sooner).  ``cut(ids, values)``,
    when given, is called there once, with the X0 rows of the starts still
    descending and their current values; the rows it returns stop where
    they are, ``retired`` and neither converged nor out of budget.  A cut
    that reads only rows of one group (an envelope node) leaves the other
    groups' results as they are without it.
    """
    X0 = np.array(X0, dtype=float, order="C")
    f0, g0 = energy.value_and_grad(X0, np.arange(len(X0)))
    run = _Lbfgs(X0, f0, g0, maxiter, gtol, history, cut)
    while run.live:
        run.step(*energy.value_and_grad(run.xt[:run.live], run.ids[:run.live]))
    for res, label in zip(run.results, labels):
        res.start_label = label
    return run.results


def run_lbfgs(
    energy,
    x0: np.ndarray,
    maxiter: int = 400,
    gtol: float = 1e-9,
    label: str = "",
) -> DescentResult:
    """One L-BFGS descent from x0; raises RuntimeError when it diverges."""
    res = run_lbfgs_batch(energy, np.asarray(x0)[None], [label], maxiter, gtol)[0]
    if not np.isfinite(res.value):
        raise RuntimeError(f"descent diverged (energy {res.value}) from start {label!r}")
    return res


class _RowsOf:
    """``energy`` on the rows ``ids`` of its X0: row r of a descent's batch is its row ids[r]."""

    def __init__(self, energy, ids):
        self.energy, self.ids = energy, np.asarray(ids)

    def value_and_grad(self, x, rows):
        return self.energy.value_and_grad(x, self.ids[rows])


def screen_then_polish(
    energy: StencilEnergy,
    X0: np.ndarray,
    labels,
    maxiter: int,
    gtol: float = 1e-9,
    choose=None,
    history: bool = False,
    cut=None,
) -> list[DescentResult]:
    """Descents from every row of X0 that screen flat, then polish in the a-Sobolev metric.

    Every start first runs ``_SCREEN_MAXITER`` iterations (all of
    ``maxiter`` when that is smaller) in the flat metric of the free values,
    which carries it into a basin.  ``cut``, when given, goes to the screen
    (``run_lbfgs_batch``): the rows it retires after ``_SCREEN_CUT_ROUND``
    evaluations end there, neither converged nor out of budget, so they
    never polish.  Of the rows ``choose(screen)`` names (every row when
    None), those that ran out of the screening budget with a finite value
    continue for the rest of ``maxiter`` in ``SobolevEnergy`` coordinates,
    where ``gtol`` bounds the z-gradient.  A polished row's result is the
    polish's, mapped back to free values, with the iterations and
    evaluations of both phases, the screen's ``cut_value`` and, with
    ``history``, the screen's energies followed by the polish's accepted
    iterates (the polish's x0, the screen's last iterate again, is not
    repeated).  A polish that diverges keeps its screening result.  Every
    row is bit-equal to the same start run alone, under the same cut.
    """
    screen_maxiter = min(_SCREEN_MAXITER, maxiter)
    screen = run_lbfgs_batch(energy, X0, labels, maxiter=screen_maxiter, gtol=gtol,
                             history=history, cut=cut)
    chosen = range(len(screen)) if choose is None else choose(screen)
    ids = [k for k in chosen if screen[k].budget_exhausted and np.isfinite(screen[k].value)]
    if maxiter <= screen_maxiter or not ids:
        return screen
    metric = SobolevEnergy(energy)
    starts = [screen[k] for k in ids]
    Z0 = metric.to_z(np.stack([r.x for r in starts]))
    polished = run_lbfgs_batch(_RowsOf(metric, ids), Z0, [r.start_label for r in starts],
                               maxiter=maxiter - screen_maxiter, gtol=gtol, history=history)
    X = metric.to_x(np.stack([res.x for res in polished]))
    results = list(screen)
    for k, start, res, x in zip(ids, starts, polished, X):
        if np.isfinite(res.value):
            results[k] = replace(res, x=x, iterations=start.iterations + res.iterations,
                                 nfev=start.nfev + res.nfev,
                                 history=start.history + res.history[1:],
                                 cut_value=start.cut_value)
    return results


def _smooth_ramp(t: np.ndarray) -> np.ndarray:
    """C-infinity monotone ramp: 0 for t<=0, 1 for t>=1."""
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lo = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        hi = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return lo / (lo + hi)


def boundary_window(grid: Grid) -> np.ndarray:
    """Tensor-product smooth window: 0 on the faces, 1 on the inner (1 - _WINDOW_FRAC) part."""
    vals = np.ones(grid.shape)
    for i, ax in enumerate(grid.axes()):
        lo, hi = grid.domain[i]
        width = (hi - lo) * _WINDOW_FRAC / 2.0
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


def _laminate_wave(grid: Grid, axis: int, k: int, duty: float) -> np.ndarray:
    """``laminate_profile`` before its window, shaped to broadcast over the grid."""
    ai = grid.a.a[axis]
    ax = grid.axes()[axis]
    h = grid.h[axis]
    prof = _square_wave(ax, k, duty)
    for _ in range(ai):
        prof = np.concatenate([[0.0], np.cumsum(prof[:-1])]) * h
        prof = prof - np.linspace(prof[0], prof[-1], len(prof))
    shape = [1] * grid.ndim
    shape[axis] = len(ax)
    return prof.reshape(shape)


def laminate_profile(grid: Grid, axis: int, k: int, duty: float) -> np.ndarray:
    """Zero-boundary field whose pure a_i-th derivative along ``axis`` oscillates.

    Built by integrating a two-level wave a_i times along the axis, removing
    the endpoint drift, and windowing; good as a descent start, not exact.
    """
    return _laminate_wave(grid, axis, k, duty) * boundary_window(grid)


def _box5(x: np.ndarray, axis: int) -> np.ndarray:
    """Mean over 5 consecutive values along ``axis``, edge values repeated.

    The arithmetic of ``scipy.ndimage.uniform_filter1d(x, 5, axis,
    mode="nearest")``, so the result is bit-equal to it: the first window is
    summed left to right, each later sum adds x[i+2] - x[i-3] to the one
    before, and every running sum is divided by 5.  One sequential cumsum
    does both.
    """
    x = np.moveaxis(x, axis, 0)
    pad = np.concatenate([x[:1], x[:1], x, x[-1:], x[-1:]])
    sums = np.concatenate([pad[:5], pad[5:] - pad[:-5]]).cumsum(axis=0)[4:]
    return np.moveaxis(sums / 5.0, 0, axis)


def _box_noise(grid: Grid, n: int, rng: np.random.Generator) -> np.ndarray:
    """``smooth_noise`` before its window."""
    noise = rng.standard_normal(grid.shape + (n,))
    for ax in range(grid.ndim):
        noise = _box5(noise, ax)
    return noise


def smooth_noise(grid: Grid, n: int, rng: np.random.Generator) -> np.ndarray:
    return _box_noise(grid, n, rng) * boundary_window(grid)[..., None]


def start_portfolio(
    grid: Grid, n: int, count: int, scales, rngs
) -> list[list[tuple[str, np.ndarray]]]:
    """Per node, ``count - 1`` starts, laminates then smooth noise; ``count`` counts phi = 0.

    One node per entry of ``scales`` and ``rngs``, one portfolio per node
    out, in that order.  The laminate profiles, their gradient amplitudes
    and the boundary window are computed once for all the nodes; each node
    scales them by its own scale and draws its noise starts from its own
    RNG, so its portfolio is the one it gets in a call of its own.
    """
    window = boundary_window(grid)
    lam_specs = [
        (axis, k, duty)
        for k in (1, 2, 3)
        for duty in (0.5, 0.25, 0.75, 0.1, 0.9)
        for axis in range(grid.ndim)
    ]
    n_lam = min(len(lam_specs), max(0, (count - 1) * 2 // 3))
    laminates = []
    for axis, k, duty in lam_specs[:n_lam]:
        base = _laminate_wave(grid, axis, k, duty) * window
        laminates.append((f"laminate(ax={axis},k={k},duty={duty})", base,
                          _gradient_amplitude(grid, base)))
    portfolios = []
    for scale, rng in zip(scales, rngs):
        starts = []
        for label, base, amp in laminates:
            s = scale / amp if amp > 0 else 1.0
            starts.append((label, np.repeat((base * s)[..., None], n, axis=-1)))
        while len(starts) < count - 1:
            vals = _box_noise(grid, n, rng) * window[..., None]
            amp = _gradient_amplitude(grid, vals[..., 0])
            s = scale / amp if amp > 0 else 1.0
            starts.append((f"random{len(starts) + 1}", vals * s))
        portfolios.append(starts)
    return portfolios


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
