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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, GridField, _free_operator, a_gradient
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

    __slots__ = ("id", "f", "nit", "pairs", "begun", "converged", "stopped", "stp", "finit",
                 "ginit", "gtest", "stx", "fx", "gx", "sty", "fy", "gy", "stmin", "stmax", "width",
                 "width1", "brackt", "stage1")

    def __init__(self, id: int, f: float):
        self.id, self.f = id, f
        self.nit = 0
        self.pairs = 0  # stored since the memory was last emptied; the next goes to pairs % _MAXCOR
        self.converged = self.stopped = False

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
    and none copies the memory.
    """

    def __init__(self, x0, f0, g0, maxiter: int, gtol: float, stride: int | None):
        k, n = x0.shape
        m = _MAXCOR
        self.maxiter, self.gtol, self.stride = maxiter, gtol, stride
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
        self.history = [[row.f] if stride else [] for row in self.rows]
        self.snapshots: list = [[] for _ in range(k)]
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
        new, store = [], []
        if acc:
            gmax = np.maximum.reduce(np.abs(gt), axis=1).tolist()
            for i in acc:
                # a search that ends makes its trial the iterate
                row, f = rows[i], fs[i]
                f0, stp, slope0 = row.f, row.stp, row.ginit
                row.f = f
                row.nit += 1
                if self.stride:
                    self.history[row.id].append(f)
                    if row.nit % self.stride == 0:
                        self.snapshots[row.id].append((row.nit, self.xt[i].copy()))
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
                        self.pair[i] = (row.pairs % _MAXCOR, stp, sy, stp * slopes[i])
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
                self._store(store, P)
            self._begin(new, self._inverse_times_g(P[:, 1]))
        self._trials()
        self._retire()

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
            for i, length in zip(first, np.sqrt(np.vecdot(self.d[f], self.d[f])).tolist()):
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
                budget and not row.converged, self.history[row.id], self.snapshots[row.id])
        kept = [i for i, row in enumerate(rows) if not row.stopped]
        self.live = live = len(kept)
        holes, movers = [i for i in gone if i < live], [i for i in kept if i >= live]
        if holes:
            h, mv = np.array(holes), np.array(movers)
            for a in (self.ids, self.x, self.V, self.d, self.z, self.xt, self.W, self.Rinv,
                      self.YY, self.D, self.theta):
                a[h] = a[mv]
            for i, j in zip(holes, movers):
                rows[i] = rows[j]
        del rows[live:]


def run_lbfgs_batch(
    energy,
    X0: np.ndarray,
    labels,
    maxiter: int = 400,
    gtol: float = 1e-9,
    snapshot_stride: int | None = None,
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

    With ``snapshot_stride`` set, ``history`` holds the energy at x0 and at
    every accepted iterate, and ``snapshots`` a copy of every stride-th one.
    """
    X0 = np.array(X0, dtype=float, order="C")
    f0, g0 = energy.value_and_grad(X0, np.arange(len(X0)))
    run = _Lbfgs(X0, f0, g0, maxiter, gtol, snapshot_stride)
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
    snapshot_stride: int | None = None,
) -> DescentResult:
    """One L-BFGS descent from x0; raises RuntimeError when it diverges."""
    res = run_lbfgs_batch(energy, np.asarray(x0)[None], [label], maxiter, gtol, snapshot_stride)[0]
    if not np.isfinite(res.value):
        raise RuntimeError(f"descent diverged (energy {res.value}) from start {label!r}")
    return res


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


def smooth_noise(grid: Grid, n: int, rng: np.random.Generator) -> np.ndarray:
    noise = rng.standard_normal(grid.shape + (n,))
    for ax in range(grid.ndim):
        noise = _box5(noise, ax)
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
