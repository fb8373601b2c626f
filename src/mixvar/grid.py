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

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .smoothness import (
    AnisoBox,
    MultiIndex,
    SmoothnessVector,
    homogeneity_set,
    kernel_monomials,
    lower_set,
    pairing,
)

__all__ = [
    "Grid",
    "GridField",
    "AGradientField",
    "APolynomial",
    "mixed_derivative",
    "a_gradient",
    "full_gradient",
    "lower_gradient",
    "gradient_adjoint",
    "stencil_matrix",
    "sobolev_norm",
    "truncate",
    "project_to_gradients",
    "cutoff",
    "polynomial_approx",
    "piecewise_gradient_approx",
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
        a = self.a if isinstance(self.a, SmoothnessVector) else SmoothnessVector(tuple(self.a))
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

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def h(self) -> np.ndarray:
        return np.array(
            [(hi - lo) / (c - 1) for (lo, hi), c in zip(self.domain, self.shape)]
        )

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))

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
    def n_interior(self) -> int:
        return int(np.prod(self.interior_shape))

    def axes(self) -> list[np.ndarray]:
        return [
            np.linspace(lo, hi, c) for (lo, hi), c in zip(self.domain, self.shape)
        ]

    def meshgrid(self) -> list[np.ndarray]:
        return np.meshgrid(*self.axes(), indexing="ij")

    def interior_meshgrid(self) -> list[np.ndarray]:
        axes = [ax[:ni] for ax, ni in zip(self.axes(), self.interior_shape)]
        return np.meshgrid(*axes, indexing="ij")

    def collar_mask(self) -> np.ndarray:
        """Boolean mask of the zero-boundary collar (width a_i per axis)."""
        mask = np.zeros(self.shape, dtype=bool)
        for i, ai in enumerate(self.a.a):
            sl_lo = [slice(None)] * self.ndim
            sl_hi = [slice(None)] * self.ndim
            sl_lo[i] = slice(0, ai)
            sl_hi[i] = slice(self.shape[i] - ai, self.shape[i])
            mask[tuple(sl_lo)] = True
            mask[tuple(sl_hi)] = True
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

    def is_zero_on_collar(self, tol: float = 0.0) -> bool:
        collar = self.values[self.grid.collar_mask()]
        return bool(np.all(np.abs(collar) <= tol))

    def __add__(self, other: "GridField") -> "GridField":
        return GridField(self.grid, self.values + other.values)

    def __sub__(self, other: "GridField") -> "GridField":
        return GridField(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "GridField":
        return GridField(self.grid, self.values * scalar)

    __rmul__ = __mul__


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

    def column(self, alpha: MultiIndex) -> np.ndarray:
        return self.values[..., self.alphas.index(tuple(alpha))]

    def mean(self) -> np.ndarray:
        """Discrete mean over interior nodes; exactly zero for zero-boundary fields."""
        flat = self.values.reshape(-1, self.n_components, self.n_columns)
        return flat.mean(axis=0)

    def frobenius(self) -> np.ndarray:
        """Pointwise Frobenius norm of the n x m matrix, shape interior_shape."""
        return np.sqrt(np.sum(self.values**2, axis=(-2, -1)))


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
    grid = f.grid
    D, _ = _operator(grid, tuple(alphas))
    cols = (D @ f.values.reshape(-1, f.n_components)).reshape(
        (len(alphas),) + grid.interior_shape + (f.n_components,)
    )
    return AGradientField(grid, alphas, np.moveaxis(cols, 0, -1))


def a_gradient(f: GridField) -> AGradientField:
    """Columns d^alpha f over the hyperplane of homogeneity, in global order."""
    return _stack(f, homogeneity_set(f.grid.a))


def full_gradient(f: GridField) -> AGradientField:
    """All columns with <alpha, 1/a> <= 1 (cardinality d)."""
    return _stack(f, lower_set(f.grid.a, strict=False))


def lower_gradient(f: GridField) -> AGradientField:
    """Strictly sub-critical columns (cardinality d - m)."""
    return _stack(f, lower_set(f.grid.a, strict=True))


def gradient_adjoint(grid: Grid, alphas: list[MultiIndex], weights: np.ndarray) -> np.ndarray:
    """Adjoint of the derivative stack: interior weights -> full node array.

    ``weights`` has shape interior_shape + (n, k) matching ``alphas``; the
    result has shape grid.shape + (n,) and equals sum_alpha D_alpha^T w_alpha.
    This is the chain-rule backbone for energy gradients.
    """
    n = weights.shape[-2]
    w = np.moveaxis(weights, -1, 0).reshape(-1, n)
    _, Dt = _operator(grid, tuple(alphas))
    return (Dt @ w).reshape(grid.shape + (n,))


def _diff_matrix_1d(count: int, order: int, h: float, n_rows: int) -> sp.csr_matrix:
    """Rows i = forward difference of ``order`` at node i, for i < n_rows."""
    coeffs = [(-1) ** (order - k) * math.comb(order, k) / h**order for k in range(order + 1)]
    diags = [np.full(n_rows, c) for c in coeffs]
    return sp.diags(diags, offsets=list(range(order + 1)), shape=(n_rows, count)).tocsr()


def stencil_matrix(grid: Grid, alpha: MultiIndex) -> sp.csr_matrix:
    """Sparse matrix of d^alpha from node values to interior values (per component)."""
    mats = []
    for ax, o in enumerate(alpha):
        mats.append(
            _diff_matrix_1d(grid.shape[ax], o, grid.h[ax], grid.interior_shape[ax])
        )
    M = mats[0]
    for mat in mats[1:]:
        M = sp.kron(M, mat, format="csr")
    return M


@functools.lru_cache(maxsize=32)
def _operator(grid: Grid, alphas: tuple[MultiIndex, ...]) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """The derivative stack D as one sparse matrix, and its transpose.

    D stacks one stencil_matrix block per alpha: rows are alpha-major, then
    interior nodes in C order; columns are the grid nodes in C order.  Every
    forward stack and every adjoint goes through this one operator.
    """
    D = sp.vstack([stencil_matrix(grid, al) for al in alphas], format="csr")
    return D, D.T.tocsr()


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

    free = ~grid.collar_mask().reshape(-1)
    A = _operator(grid, tuple(alphas))[0][:, free]
    rhs = A.T @ np.moveaxis(V, -1, 0).reshape(-1, n)
    u_vals = np.zeros((free.size, n))
    u_vals[free] = spla.splu((A.T @ A).tocsc()).solve(rhs)

    u = GridField(grid, u_vals.reshape(grid.shape + (n,)))
    recon = _stack(u, alphas)
    residual = V - recon.values
    return u, residual


def _smooth_ramp(t: np.ndarray) -> np.ndarray:
    """C-infinity monotone ramp: 0 for t<=0, 1 for t>=1."""
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lo = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        hi = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return lo / (lo + hi)


def cutoff(box: AnisoBox, sigma: float, grid: Grid) -> GridField:
    """Tensor-product smooth cutoff: 1 on the (1-sigma)-shrunk box, 0 outside the box."""
    if not (0.0 < sigma < 0.5):
        raise ValueError(f"sigma must lie in (0, 1/2), got {sigma}")
    for (blo, bhi), (dlo, dhi) in zip(box.bounds(), grid.domain):
        if blo < dlo - 1e-12 or bhi > dhi + 1e-12:
            raise ValueError("box is not contained in the grid domain")
    outer = box.half_widths
    inner = np.array([((1.0 - sigma) * box.radius) ** (1.0 / ai) for ai in grid.a.a])
    vals = np.ones(grid.shape)
    for i, ax in enumerate(grid.axes()):
        t = (outer[i] - np.abs(ax - box.center[i])) / (outer[i] - inner[i])
        ramp = _smooth_ramp(t)
        shape = [1] * grid.ndim
        shape[i] = len(ax)
        vals = vals * ramp.reshape(shape)
    return GridField(grid, vals)


def cutoff_constants(box: AnisoBox, sigma: float, grid: Grid) -> dict:
    """Measured normalization constants of the cutoff's derivative bounds.

    For each beta in the lower set returns the discrete sup-norm of d^beta eta
    multiplied by r^{<beta,1/a>} sigma^{|beta|}; the family is bounded
    uniformly in sigma for a well-resolved ramp.
    """
    eta = cutoff(box, sigma, grid)
    out = {}
    r = box.radius
    for beta in lower_set(grid.a, strict=False):
        sup = float(np.max(np.abs(mixed_derivative(eta, beta))))
        out[beta] = sup * r ** float(pairing(beta, grid.a)) * sigma ** sum(beta)
    return out


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

    def gradient_matrix(self, a: SmoothnessVector) -> np.ndarray:
        """The constant n x m value of the mixed-order gradient."""
        hyper = homogeneity_set(a)
        cmap = dict(self.coeffs)
        cols = [np.asarray(cmap.get(al, (0.0,) * self.n_components)) for al in hyper]
        return np.stack(cols, axis=-1)


def polynomial_approx(f: GridField, box: AnisoBox, p: float = 2.0):
    """Local polynomial with gradient equal to the box average of a_gradient(f).

    Hyperplane coefficients are the box averages of the derivative columns;
    kernel coefficients come from a least-squares fit of the remainder on the
    box nodes.  Returns (APolynomial, ratios) where ratios[beta] is the
    measured Poincare quotient r^{<beta,1/a>-1} ||d^beta(f-P)||_p /
    ||grad_a(f-P)||_p (NaN when the denominator vanishes).
    """
    grid = f.grid
    sv = grid.a
    hyper = homogeneity_set(sv)
    kern = kernel_monomials(sv)
    n = f.n_components

    grads = a_gradient(f)
    pts = np.stack(grid.interior_meshgrid(), axis=-1)
    inside = box.contains(pts)
    if not np.any(inside):
        raise ValueError("box contains no interior grid nodes")
    averages = {al: grads.values[inside][:, :, j].mean(axis=0) for j, al in enumerate(hyper)}

    coeffs = {al: averages[al] for al in hyper}
    P_hyper = APolynomial.build(coeffs, center=box.center)

    # kernel part: least squares of the remainder over box nodes (full grid)
    mesh = grid.meshgrid()
    node_pts = np.stack(mesh, axis=-1)
    in_box = box.contains(node_pts)
    remainder = f.values - P_hyper(*mesh)
    cols = []
    for gamma in kern:
        mono = np.ones(grid.shape)
        fact = 1.0
        for xi, g, x0 in zip(mesh, gamma, box.center):
            mono = mono * (xi - x0) ** g
            fact *= math.factorial(g)
        cols.append((mono / fact)[in_box])
    B = np.stack(cols, axis=-1)
    rk = np.linalg.matrix_rank(B)
    if rk < len(kern):
        raise ValueError("rank-deficient kernel fit: box too small for the grid")
    kern_coeffs, *_ = np.linalg.lstsq(B, remainder[in_box].reshape(-1, n), rcond=None)

    all_coeffs = dict(coeffs)
    for gamma, c in zip(kern, kern_coeffs):
        all_coeffs[gamma] = all_coeffs.get(gamma, np.zeros(n)) + c
    P = APolynomial.build(all_coeffs, center=box.center)

    diff = GridField(grid, f.values - P(*mesh))
    w = grid.quad_weight

    def lp_on_box(arr: np.ndarray, region: np.ndarray) -> float:
        return float((np.sum(np.abs(arr[region]) ** p) * w) ** (1.0 / p))

    grad_diff = a_gradient(diff)
    denom = lp_on_box(
        np.sqrt(np.sum(grad_diff.values**2, axis=(-2, -1))), inside
    )
    ratios = {}
    r = box.radius
    for beta in lower_set(sv, strict=False):
        num = lp_on_box(
            np.sqrt(np.sum(mixed_derivative(diff, beta) ** 2, axis=-1)), inside
        )
        expo = float(pairing(beta, sv)) - 1.0
        ratios[beta] = (num * r**expo / denom) if denom > 1e-14 else float("nan")
    return P, ratios


def piecewise_gradient_approx(
    f: GridField,
    eps: float,
    p: float = 2.0,
    max_refinements: int = 6,
    sigma: float | None = None,
) -> tuple[GridField, list[AnisoBox]]:
    """Blend local polynomials so the mixed-order gradient is constant on box cores.

    Returns (u, cores) with u agreeing with f on the boundary collar, the
    gradient constant on each returned (sigma-shrunk) core box, the cores
    covering all but <= eps of the domain volume, and the relative error
    ||f - u||_{W^{a,p}} <= eps * (1 + ||f||_{W^{a,p}}).  Radii are halved
    until the error bound holds; raises if the grid cannot resolve the
    required radius.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    grid = f.grid
    sv = grid.a
    inv_sum = float(sv.inv_sum)
    domain_vol = float(np.prod([hi - lo for lo, hi in grid.domain]))

    # carve off the collar so blending never touches pinned nodes
    h = grid.h
    inner_domain = [
        (lo + ai * hi_, hi - ai * hi_)
        for (lo, hi), ai, hi_ in zip(grid.domain, sv.a, h)
    ]
    collar_missing = 1.0 - _safe_vol(inner_domain) / domain_vol

    # split the volume budget between cover slack, core shrinkage, and collar
    vol_budget = max(eps - collar_missing, eps * 0.25)
    if sigma is None:
        sigma = min(0.49, max(1e-3, 0.5 * vol_budget / max(inv_sum, 1e-12)))
    cover_tol = min(0.5 * vol_budget, 0.49)

    norm_f = sobolev_norm(f, p, "full")
    target = eps * (1.0 + norm_f)

    radius = _initial_radius(inner_domain, sv)
    mesh = grid.meshgrid()
    for _ in range(max_refinements):
        min_half = np.array([radius ** (1.0 / ai) for ai in sv.a])
        if np.any(min_half < 3.0 * h * np.array(sv.a)):
            raise RuntimeError(
                f"eps={eps} unattainable: boxes of radius {radius} are unresolved by the grid"
            )
        try:
            cover = _cover_or_none(inner_domain, radius, sv, cover_tol)
        except RuntimeError:
            cover = None
        if cover is None:
            radius /= 2.0
            continue
        u_vals = f.values.copy()
        cores = []
        ok = True
        for b in cover.boxes:
            try:
                P, _ = polynomial_approx(f, b, p)
            except ValueError:
                ok = False
                break
            eta = cutoff(b, sigma, grid)
            u_vals = u_vals + eta.values * (P(*mesh) - f.values)
            cores.append(AnisoBox(b.center, (1.0 - sigma) * b.radius, sv))
        if ok:
            u = GridField(grid, u_vals)
            err = sobolev_norm(GridField(grid, f.values - u_vals), p, "full")
            if err <= target:
                return u, cores
        radius /= 2.0
    raise RuntimeError(f"eps={eps} unattainable within {max_refinements} radius refinements")


def _safe_vol(rect) -> float:
    v = 1.0
    for lo, hi in rect:
        if hi <= lo:
            return 0.0
        v *= hi - lo
    return v


def _initial_radius(domain, sv: SmoothnessVector) -> float:
    # largest radius whose box fits inside the rectangle
    r = math.inf
    for (lo, hi), ai in zip(domain, sv.a):
        half = (hi - lo) / 2.0
        r = min(r, half**ai)
    return r


def _cover_or_none(domain, radius, sv, tol):
    from .smoothness import box_cover

    if _safe_vol(domain) <= 0:
        return None
    try:
        return box_cover(domain, radius, sv, coverage_tol=tol)
    except ValueError:
        return None
