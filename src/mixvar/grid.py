"""Discrete fields and the mixed-order derivative calculus on rectangular grids.

Stencils are compositions of pure forward differences per axis.  With a
boundary collar of width ``a_i`` nodes per axis, summing any forward
difference of order ``alpha_i <= a_i`` over the stencil-interior region
telescopes to exactly zero for a field vanishing on the collar.  That exact
zero-mean property is what makes the discrete Jensen arguments in the
envelope and solver modules identities rather than approximations.

Derivative fields live on the stencil-interior region: node indices
``0 .. count_i - a_i - 1`` along each axis, so that every stencil of the
lower set fits.  Quadrature is left-Riemann: node values times ``prod(h)``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .smoothness import (
    MultiIndex,
    SmoothnessVector,
    _as_sv,
    homogeneity_set,
    lower_set,
    pairing,
)

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "Grid",
    "GridField",
    "AGradientField",
    "APolynomial",
    "mixed_derivative",
    "a_gradient",
    "full_gradient",
    "gradient_adjoint",
    "stencil_matrix",
    "sobolev_norm",
    "truncate",
    "project_to_gradients",
]


@dataclass(frozen=True)
class Grid:
    """Axis-aligned rectangular grid with per-axis spacing.

    ``domain`` is a tuple of (lo, hi) intervals, ``shape`` the node counts.
    The node count must leave room for the maximal stencil plus the
    zero-boundary collar: count_i >= 2*a_i + 1.
    """

    domain: tuple[tuple[float, float], ...]
    shape: tuple[int, ...]
    a: SmoothnessVector

    def __post_init__(self):
        a = _as_sv(self.a)
        object.__setattr__(self, "a", a)
        dom = tuple((float(lo), float(hi)) for lo, hi in self.domain)
        object.__setattr__(self, "domain", dom)
        shape = tuple(int(c) for c in self.shape)
        object.__setattr__(self, "shape", shape)
        if not (len(dom) == len(shape) == a.ndim):
            raise ValueError("domain, shape, and smoothness vector dimensions disagree")
        for (lo, hi), c, ai in zip(dom, shape, a.a):
            if hi <= lo:
                raise ValueError(f"empty interval ({lo}, {hi})")
            if c < 2 * ai + 1:
                raise ValueError(
                    f"need at least {2 * ai + 1} nodes per axis for a_i={ai}, got {c}"
                )

    @classmethod
    def cube(cls, a, resolution: int) -> "Grid":
        """The box Q = [-1, 1]^N of envelopes, theta curves and ym, ``resolution`` per axis."""
        a = _as_sv(a)
        return cls(((-1.0, 1.0),) * a.ndim, (resolution,) * a.ndim, a)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def h(self) -> np.ndarray:
        return np.array(
            [(hi - lo) / (c - 1) for (lo, hi), c in zip(self.domain, self.shape)]
        )

    @property
    def volume(self) -> float:
        return float(np.prod([hi - lo for lo, hi in self.domain]))

    @property
    def quad_weight(self) -> float:
        """Per-node quadrature weight over the interior region.

        Normalized so that constants integrate to the exact domain volume at
        every resolution, which keeps energies comparable across refinement
        levels; the left-Riemann sampling bias for non-constant integrands is
        O(h) either way.
        """
        return self.volume / self.n_interior

    @property
    def interior_shape(self) -> tuple[int, ...]:
        """Extent of the stencil-interior region."""
        return tuple(c - ai for c, ai in zip(self.shape, self.a.a))

    @property
    def free_shape(self) -> tuple[int, ...]:
        """Extent of the free nodes, a_i .. c_i - a_i - 1 per axis: the nodes off the collar."""
        return tuple(c - 2 * ai for c, ai in zip(self.shape, self.a.a))

    @property
    def free_box(self) -> tuple[slice, ...]:
        """Index of the free nodes along every axis."""
        return tuple(slice(ai, ai + f) for ai, f in zip(self.a.a, self.free_shape))

    @property
    def n_interior(self) -> int:
        return int(np.prod(self.interior_shape))

    def axes(self) -> list[np.ndarray]:
        return [
            np.linspace(lo, hi, c) for (lo, hi), c in zip(self.domain, self.shape)
        ]

    def meshgrid(self) -> list[np.ndarray]:
        return np.meshgrid(*self.axes(), indexing="ij")

    def collar_mask(self) -> np.ndarray:
        """Boolean mask of the zero-boundary collar (width a_i per axis)."""
        mask = np.ones(self.shape, dtype=bool)
        mask[self.free_box] = False
        return mask

    def refine(self) -> "Grid":
        """Dyadic refinement: count -> 2*count - 1 per axis."""
        return Grid(self.domain, tuple(2 * c - 1 for c in self.shape), self.a)


class GridField:
    """n-component function sampled on a grid; last value axis is the component."""

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape[: grid.ndim] != grid.shape:
            raise ValueError(
                f"values shape {values.shape} does not start with grid shape {grid.shape}"
            )
        if values.ndim == grid.ndim:
            values = values[..., None]
        if values.ndim != grid.ndim + 1:
            raise ValueError("values must have shape grid.shape + (n,)")
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        self.grid = grid
        self.values = values

    @property
    def n_components(self) -> int:
        return self.values.shape[-1]

    @classmethod
    def zeros(cls, grid: Grid, n: int = 1) -> "GridField":
        return cls(grid, np.zeros(grid.shape + (n,)))

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "GridField":
        """Sample fn(*coords) on the nodes; fn may return a scalar or n-vector field."""
        mesh = grid.meshgrid()
        vals = np.asarray(fn(*mesh), dtype=float)
        if vals.shape == grid.shape:
            vals = vals[..., None]
        return cls(grid, vals)

    def copy(self) -> "GridField":
        return GridField(self.grid, self.values.copy())

    def with_zero_collar(self) -> "GridField":
        vals = self.values.copy()
        vals[self.grid.collar_mask()] = 0.0
        return GridField(self.grid, vals)

    def is_zero_on_collar(self) -> bool:
        return not np.any(self.values[self.grid.collar_mask()])


class AGradientField:
    """Stack of derivative columns on the stencil-interior region.

    ``values`` has shape interior_shape + (n, m) with columns ordered by
    ``alphas`` (the global homogeneity/lower-set order).
    """

    def __init__(self, grid: Grid, alphas: list[MultiIndex], values: np.ndarray):
        values = np.asarray(values, dtype=float)
        expected = grid.interior_shape + (values.shape[-2], len(alphas))
        if values.shape != expected:
            raise ValueError(f"values shape {values.shape}, expected {expected}")
        self.grid = grid
        self.alphas = list(alphas)
        self.values = values

    @property
    def n_components(self) -> int:
        return self.values.shape[-2]

    @property
    def n_columns(self) -> int:
        return self.values.shape[-1]

    def mean(self) -> np.ndarray:
        """Discrete mean over interior nodes; exactly zero for zero-boundary fields."""
        flat = self.values.reshape(-1, self.n_components, self.n_columns)
        return flat.mean(axis=0)


def _forward_diff(values: np.ndarray, axis: int, order: int, h: float) -> np.ndarray:
    out = np.diff(values, n=order, axis=axis)
    return out / h**order


def mixed_derivative(f: GridField, alpha: MultiIndex) -> np.ndarray:
    """Forward-difference d^alpha f on the stencil-interior region.

    Exact on polynomials of per-axis degree <= alpha_j.  Returns an array of
    shape interior_shape + (n,).
    """
    grid = f.grid
    alpha = tuple(int(x) for x in alpha)
    if pairing(alpha, grid.a) > Fraction(1):
        raise ValueError(f"multi-index {alpha} is outside the lower set")
    out = f.values
    h = grid.h
    for ax, o in enumerate(alpha):
        if o > 0:
            if grid.shape[ax] - o < 1:
                raise ValueError(f"stencil of order {o} exceeds grid extent on axis {ax}")
            out = _forward_diff(out, ax, o, h[ax])
    # restrict every axis to the common interior extent
    sl = tuple(slice(0, ni) for ni in grid.interior_shape)
    return out[sl]


def _stack(f: GridField, alphas: list[MultiIndex]) -> AGradientField:
    grid, n = f.grid, f.n_components
    table, reach = _stencil_table(grid, tuple(alphas), grid.shape, n)
    # every interior node lies below size, so its terms read inside the array
    size = f.values.size - reach
    cols = np.zeros((len(alphas), f.values.size))
    _stencil_forward(table, np.ascontiguousarray(f.values).reshape(-1), cols[:, :size])
    interior = _box((0,) * grid.ndim, grid.interior_shape)
    cols = cols.reshape((len(alphas),) + grid.shape + (n,))[interior]
    return AGradientField(grid, alphas, np.moveaxis(np.ascontiguousarray(cols), 0, -1))


def a_gradient(f: GridField) -> AGradientField:
    """Columns d^alpha f over the hyperplane of homogeneity, in global order."""
    return _stack(f, homogeneity_set(f.grid.a))


def full_gradient(f: GridField) -> AGradientField:
    """All columns with <alpha, 1/a> <= 1 (cardinality d)."""
    return _stack(f, lower_set(f.grid.a, strict=False))


def gradient_adjoint(grid: Grid, alphas: list[MultiIndex], weights: np.ndarray) -> np.ndarray:
    """Adjoint of the derivative stack: interior weights -> full node array.

    ``weights`` has shape interior_shape + (n, k) matching ``alphas``; the
    result has shape grid.shape + (n,) and equals sum_alpha D_alpha^T w_alpha.
    This is the chain-rule backbone for energy gradients.
    """
    n = weights.shape[-2]
    table, reach = _stencil_table(grid, tuple(alphas), grid.shape, n)
    cols = np.zeros((len(alphas),) + grid.shape + (n,))
    cols[_box((0,) * grid.ndim, grid.interior_shape)] = np.moveaxis(weights, -1, 0)
    out = np.zeros(cols[0].size)
    _stencil_adjoint(table, cols.reshape(len(alphas), -1)[:, :out.size - reach], out)
    return out.reshape(grid.shape + (n,))


def _coefficients(order: int, h: float) -> list[float]:
    """The forward difference of ``order`` at node i: weights of nodes i .. i + order."""
    return [(-1) ** (order - k) * math.comb(order, k) / h**order for k in range(order + 1)]


def stencil_matrix(grid: Grid, alpha: MultiIndex) -> sp.csr_matrix:
    """Sparse matrix of d^alpha from node values to interior values (per component).

    The descents apply the same entries without it (``_stencil_table``);
    this builder is their reference.
    """
    import scipy.sparse as sp  # only this builder and project_to_gradients load scipy

    M = None
    for ax, o in enumerate(alpha):
        rows = grid.interior_shape[ax]
        diags = [np.full(rows, c) for c in _coefficients(o, grid.h[ax])]
        mat = sp.diags(diags, offsets=list(range(o + 1)), shape=(rows, grid.shape[ax])).tocsr()
        M = mat if M is None else sp.kron(M, mat, format="csr")
    return M


def _box(lo: tuple[int, ...], hi: tuple[int, ...]) -> tuple:
    """Index of the nodes lo_i .. hi_i - 1 per axis, of every leading axis and component."""
    return (slice(None), *(slice(l, h) for l, h in zip(lo, hi)), slice(None))


@functools.lru_cache(maxsize=64)
def _stencil_table(grid: Grid, alphas: tuple[MultiIndex, ...], extent: tuple[int, ...],
                   n: int) -> tuple[tuple, int]:
    """The derivative stack D as flat shifts on node arrays of shape extent + (n,).

    The term of offset o adds weight * x[q + shift] to the value at node q,
    shift being o's flat index.  An alpha's terms follow its offsets in
    lexicographic order, the column order of a stencil_matrix row, and each
    weight is the product of the 1-D coefficients in axis order, as
    ``sp.kron`` forms it; summed term by term from zero they give D's CSR
    product bit for bit, and summed in reverse D^T's.  A read past the end
    of the rows lands on the next row's first a_i nodes along some axis, so
    it adds a zero term wherever those nodes (the low collar) hold zeros;
    adding zero to a sum begun at +0.0 changes no bit of it.

    Per alpha, returns its distinct weight magnitudes and its terms (shift,
    index of the magnitude, np.add or np.subtract by the weight's sign):
    terms of equal magnitude share one product, and subtracting it is adding
    its negation, bit for bit.  Also returns the largest shift, the reach.
    """
    h = grid.h
    strides = np.cumprod((extent + (n,))[::-1])[::-1][1:].tolist()
    table = []
    for alpha in alphas:
        terms = [(0, 1.0)]
        for ax, o in enumerate(alpha):
            terms = [(shift + k * strides[ax], w * c) for shift, w in terms
                     for k, c in enumerate(_coefficients(o, h[ax]))]
        magnitudes = list(dict.fromkeys(abs(float(w)) for _, w in terms))
        table.append((tuple(magnitudes), tuple(
            (shift, magnitudes.index(abs(float(w))), np.subtract if w < 0 else np.add)
            for shift, w in terms)))
    return tuple(table), max(shift for _, terms in table for shift, _, _ in terms)


def _stencil_forward(table: tuple, x: np.ndarray, cols: np.ndarray) -> None:
    """cols[j] = D_alpha_j x term by term, for flat x: each alpha's CSR product, bit for bit.

    ``cols`` is (m, size): the first ``size`` values of the flat layout.
    """
    size = cols.shape[1]
    for col, (magnitudes, terms) in zip(cols, table):
        products = [w * x for w in magnitudes]
        for i, (shift, j, op) in enumerate(terms):
            # the first term is added to 0.0, where the CSR sum begins
            op(col if i else 0.0, products[j][shift:shift + size], out=col)


def _stencil_adjoint(table: tuple, cols: np.ndarray, out: np.ndarray) -> None:
    """out += sum_j D_alpha_j^T cols[j], term by term in the row order of D^T's CSR.

    The layout is _stencil_forward's, with the flat ``out`` in x's place.
    """
    size = cols.shape[1]
    for col, (magnitudes, terms) in zip(cols, table):
        products = [w * col for w in magnitudes]
        for shift, j, op in reversed(terms):
            window = out[shift:shift + size]
            op(window, products[j], out=window)


def sobolev_norm(f: GridField, p: float, variant: str = "full") -> float:
    """Discrete mixed-smoothness norm by left-Riemann quadrature.

    variant 'pure':       ||u||_p + sum_i ||d_i^{a_i} u||_p
    variant 'hyperplane': ||u||_p + sum_{homogeneity} ||d^alpha u||_p
    variant 'full':       sum_{lower set} ||d^beta u||_p
    """
    if not (1.0 < p < math.inf):
        raise ValueError(f"exponent p must lie in (1, inf), got {p}")
    grid = f.grid
    w = grid.quad_weight

    def lp(arr: np.ndarray) -> float:
        return float((np.sum(np.abs(arr) ** p) * w) ** (1.0 / p))

    u_interior = mixed_derivative(f, (0,) * grid.ndim)
    if variant == "pure":
        total = lp(u_interior)
        for i, ai in enumerate(grid.a.a):
            alpha = tuple(ai if j == i else 0 for j in range(grid.ndim))
            total += lp(mixed_derivative(f, alpha))
        return total
    if variant == "hyperplane":
        total = lp(u_interior)
        for alpha in homogeneity_set(grid.a):
            total += lp(mixed_derivative(f, alpha))
        return total
    if variant == "full":
        total = 0.0
        for beta in lower_set(grid.a, strict=False):
            total += lp(mixed_derivative(f, beta))
        return total
    raise ValueError(f"unknown variant {variant!r}")


def truncate(V, k: float):
    """Pointwise radial truncation at Frobenius radius k; idempotent, 1-Lipschitz.

    Accepts an AGradientField (returns a new one) or a plain array whose two
    trailing axes form the matrix.
    """
    if k <= 0:
        raise ValueError(f"truncation level must be positive, got {k}")
    if isinstance(V, AGradientField):
        return AGradientField(V.grid, V.alphas, truncate(V.values, k))
    V = np.asarray(V, dtype=float)
    norms = np.sqrt(np.sum(V**2, axis=(-2, -1), keepdims=True))
    scale = np.where(norms > k, k / np.maximum(norms, 1e-300), 1.0)
    return V * scale


def project_to_gradients(
    grid: Grid, V: np.ndarray, alphas: list[MultiIndex] | None = None
) -> tuple[GridField, np.ndarray]:
    """L2-closest zero-boundary field whose derivative stack matches V.

    ``V`` has shape interior_shape + (n, d) with columns over the non-strict
    lower set (the default ``alphas``).  Solves the sparse normal equations
    per component; the residual V - stack(u) is l2-orthogonal to the range of
    the derivative stack, and the operation is idempotent.
    """
    if alphas is None:
        alphas = lower_set(grid.a, strict=False)
    V = np.asarray(V, dtype=float)
    expected = grid.interior_shape + (V.shape[-2], len(alphas))
    if V.shape != expected:
        raise ValueError(f"V shape {V.shape}, expected {expected}")
    n = V.shape[-2]

    import scipy.sparse as sp  # only this solve and stencil_matrix load scipy; descents do not
    from scipy.sparse.linalg import splu

    free = ~grid.collar_mask().reshape(-1)
    A = sp.vstack([stencil_matrix(grid, al) for al in alphas], format="csr")[:, free]
    rhs = A.T @ np.moveaxis(V, -1, 0).reshape(-1, n)
    u_vals = np.zeros((free.size, n))
    u_vals[free] = splu((A.T @ A).tocsc()).solve(rhs)

    u = GridField(grid, u_vals.reshape(grid.shape + (n,)))
    recon = _stack(u, alphas)
    residual = V - recon.values
    return u, residual


@dataclass(frozen=True)
class APolynomial:
    """Polynomial sum_gamma c_gamma (x - center)^gamma / gamma!.

    Coefficients prescribe derivative values at the center: d^gamma P(center)
    = c_gamma, so the hyperplane coefficients are exactly the constant value
    of the mixed-order gradient.  Each coefficient is an n-vector.
    """

    coeffs: tuple[tuple[MultiIndex, tuple[float, ...]], ...]
    center: tuple[float, ...]

    @classmethod
    def build(cls, coeffs: dict, center=None) -> "APolynomial":
        items = []
        ndim = None
        for gamma, c in coeffs.items():
            gamma = tuple(int(g) for g in gamma)
            ndim = len(gamma)
            c = np.atleast_1d(np.asarray(c, dtype=float))
            items.append((gamma, tuple(c)))
        if center is None:
            center = (0.0,) * ndim
        items.sort(key=lambda kv: kv[0], reverse=True)
        return cls(tuple(items), tuple(float(x) for x in center))

    @property
    def n_components(self) -> int:
        return len(self.coeffs[0][1]) if self.coeffs else 1

    def __call__(self, *coords) -> np.ndarray:
        pts = np.broadcast_arrays(*coords)
        out = np.zeros(pts[0].shape + (self.n_components,))
        for gamma, c in self.coeffs:
            mono = np.ones_like(pts[0])
            fact = 1.0
            for xi, g, x0 in zip(pts, gamma, self.center):
                mono = mono * (xi - x0) ** g
                fact *= math.factorial(g)
            out += mono[..., None] * (np.asarray(c) / fact)
        return out

    def sample(self, grid: Grid) -> GridField:
        return GridField(grid, self(*grid.meshgrid()))
