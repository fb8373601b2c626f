"""Empirical Young-measure diagnostics.

Gradient fields push the normalized counting measure on interior nodes
forward to an atomic measure on R^{n x m}.  The diagnostics here are the
computable half of the duality theory: barycentres and p-th moments, the
Jensen gap against a tabulated envelope (which must be >= -tol for measures
coming from gradient fields), scale-and-tile generators that reproduce a
base field's distribution on any rectangle, and the truncate-project
splitting of a sequence into an equiintegrable oscillation part and a
concentration remainder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envelope import EnvelopeTable, envelope_interpolate
from .grid import AGradientField, Grid, GridField, full_gradient, project_to_gradients, truncate
from .integrand import Integrand
from .smoothness import box_cover

__all__ = [
    "EmpiricalMeasure",
    "empirical_measure",
    "scale_and_tile",
    "moments",
    "jensen_gap",
    "decompose",
    "DecompositionReport",
    "sliced_wasserstein",
    "coordinate_quantile_distance",
]

# scale_and_tile: the share of the target domain its boxes may leave uncovered
_TILE_COVERAGE = 0.02
# decompose: the residual size that counts as concentration, and the
# truncation levels M of the oscillation tail masses
_CONCENTRATION_DELTA = 1e-6
_TAIL_LEVELS = (2.0, 4.0, 8.0)
# coordinate_quantile_distance: the quantiles compared per coordinate
_QUANTILES = 64


@dataclass
class EmpiricalMeasure:
    """Atomic probability measure on R^{n x m}: atoms (k, n, m) and weights (k,)."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.atoms = np.asarray(self.atoms, dtype=float)
        if self.atoms.ndim == 1:
            self.atoms = self.atoms[:, None, None]
        self.weights = np.asarray(self.weights, dtype=float)
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")
        total = self.weights.sum()
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1 within 1e-12, got {total}")

    @property
    def n(self) -> int:
        return self.atoms.shape[1]

    @property
    def m(self) -> int:
        return self.atoms.shape[2]

    def pairing(self, g) -> float:
        """<nu, g> for a vectorized function g on R^{n x m}."""
        return float(np.sum(self.weights * np.asarray(g(self.atoms), dtype=float)))

    def to_rows(self) -> np.ndarray:
        """Flattened export: one row per atom, coordinates then weight."""
        flat = self.atoms.reshape(len(self.weights), -1)
        return np.hstack([flat, self.weights[:, None]])


def empirical_measure(V: AGradientField) -> EmpiricalMeasure:
    """Pushforward of the normalized interior-node measure under the field."""
    k = V.grid.n_interior
    atoms = V.values.reshape(k, V.n_components, V.n_columns)
    return EmpiricalMeasure(atoms, np.full(k, 1.0 / k))


def moments(nu: EmpiricalMeasure, p: float) -> tuple[np.ndarray, float]:
    """(barycentre, p-th Frobenius moment)."""
    bary = np.einsum("k,kij->ij", nu.weights, nu.atoms)
    fro = np.sqrt(np.sum(nu.atoms**2, axis=(1, 2)))
    return bary, float(np.sum(nu.weights * fro**p))


def jensen_gap(nu: EmpiricalMeasure, g: Integrand, Qg: EnvelopeTable) -> float:
    """<nu, g> - envelope(barycentre); >= -tol for gradient-generated measures."""
    bary, _ = moments(nu, g.p)
    return nu.pairing(g) - envelope_interpolate(Qg, bary)


def scale_and_tile(phi: GridField, j: int, target: Grid) -> GridField:
    """Tile the target domain with anisotropically rescaled copies of phi.

    phi must be zero-boundary on Q = [-1,1]^N.  Boxes of radius <= 2^-j cover
    all but ``_TILE_COVERAGE`` of the target domain; on each box the copy
    r * phi(r^-1 (.) (x - x0)) is resampled onto the target nodes.  The result
    is zero-boundary and its gradient distribution matches phi's up to the
    uncovered sliver (atoms at 0) and resampling error.
    """
    from scipy.interpolate import RegularGridInterpolator

    src = phi.grid
    for (lo, hi) in src.domain:
        if abs(lo + 1.0) > 1e-12 or abs(hi - 1.0) > 1e-12:
            raise ValueError("scale-and-tile source must live on Q = [-1,1]^N")
    if not phi.is_zero_on_collar():
        raise ValueError("scale-and-tile source must vanish on its collar")
    if j < 0:
        raise ValueError("scale count must be nonnegative")

    radius = 2.0 ** (-j)
    sv = target.a
    cover = box_cover(target.domain, radius, sv, coverage_tol=_TILE_COVERAGE)
    # every box must contain enough target nodes to resolve the copy
    for i, ai in enumerate(sv.a):
        half = radius ** (1.0 / ai)
        if half < (2 * ai + 1) * target.h[i] / 2.0:
            raise RuntimeError(
                f"target grid too coarse to resolve scale j={j} on axis {i}"
            )

    # legacy spline methods are true interpolants (node-exact), which the
    # j = 0 identity and the distribution comparisons rely on
    max_a = max(sv.a)
    method = "linear" if max_a <= 1 else ("cubic_legacy" if max_a == 2 else "quintic_legacy")
    if method == "quintic_legacy" and min(src.shape) < 6:
        method = "cubic_legacy"
    if method == "cubic_legacy" and min(src.shape) < 4:
        method = "linear"
    interp = [
        RegularGridInterpolator(src.axes(), phi.values[..., c], method=method,
                                bounds_error=False, fill_value=0.0)
        for c in range(phi.n_components)
    ]
    out = np.zeros(target.shape + (phi.n_components,))
    mesh = np.stack(target.meshgrid(), axis=-1)
    for b in cover.boxes:
        r = b.radius
        inv = np.array([r ** (-1.0 / ai) for ai in sv.a])
        local = (mesh - np.asarray(b.center)) * inv
        mask = np.all(np.abs(local) <= 1.0, axis=-1)
        if not np.any(mask):
            continue
        pts = local[mask]
        for c in range(phi.n_components):
            out[..., c][mask] += r * interp[c](pts)
    out[target.collar_mask()] = 0.0
    return GridField(target, out)


@dataclass
class DecompositionReport:
    oscillation_tail_mass: list   # per element: {M: mean |.|^p over {|.|>M}}
    concentration_fraction: list  # per element: fraction of |residual| > _CONCENTRATION_DELTA


def decompose(
    fields: list[GridField],
    p: float = 2.0,
) -> tuple[list[GridField], list[np.ndarray], DecompositionReport]:
    """Split each element into an oscillation field and a concentration residual.

    Element l: truncate the full gradient at k_l = 2^l, project back onto the
    discrete gradient range (oscillation field g_l); the concentration part
    is the remainder full_gradient(u_l) - full_gradient(g_l), so the two
    recombine to the input stack exactly.
    """
    oscillation: list[GridField] = []
    concentration: list[np.ndarray] = []
    tails = []
    fractions = []
    for lev, u in enumerate(fields):
        W = full_gradient(u)
        Wt = truncate(W.values, 2.0**lev)
        g, _ = project_to_gradients(u.grid, Wt, W.alphas)
        Wg = full_gradient(g).values
        resid = W.values - Wg
        oscillation.append(g)
        concentration.append(resid)

        fro = np.sqrt(np.sum(Wg**2, axis=(-2, -1)))
        tails.append(
            {M: float(np.mean(np.where(fro > M, fro**p, 0.0))) for M in _TAIL_LEVELS}
        )
        rfro = np.sqrt(np.sum(resid**2, axis=(-2, -1)))
        fractions.append(float(np.mean(rfro > _CONCENTRATION_DELTA)))
    report = DecompositionReport(tails, fractions)
    return oscillation, concentration, report


def sliced_wasserstein(
    nu1: EmpiricalMeasure,
    nu2: EmpiricalMeasure,
    directions: int = 32,
    seed: int = 0,
) -> float:
    """Max over random directions of the 1-D Wasserstein-1 of the projections.

    Cheap metric for weak convergence reports on bounded sets; atom lists
    sidestep the curse of dimension that histogram binning would hit.
    """
    # scipy.stats is slow and large to import, and only this function needs it
    from scipy.stats import wasserstein_distance

    if nu1.atoms.shape[1:] != nu2.atoms.shape[1:]:
        raise ValueError("measures live on different matrix spaces")
    k = nu1.atoms.shape[1] * nu1.atoms.shape[2]
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((directions, k))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    flat1 = nu1.atoms.reshape(len(nu1.weights), k)
    flat2 = nu2.atoms.reshape(len(nu2.weights), k)
    worst = 0.0
    for d in dirs:
        w1 = wasserstein_distance(flat1 @ d, flat2 @ d, nu1.weights, nu2.weights)
        worst = max(worst, float(w1))
    return worst


def coordinate_quantile_distance(
    nu1: EmpiricalMeasure, nu2: EmpiricalMeasure
) -> np.ndarray:
    """Per-coordinate sup difference of quantile functions on a uniform grid."""
    k = nu1.atoms.shape[1] * nu1.atoms.shape[2]
    flat1 = nu1.atoms.reshape(len(nu1.weights), k)
    flat2 = nu2.atoms.reshape(len(nu2.weights), k)
    qs = (np.arange(_QUANTILES) + 0.5) / _QUANTILES
    out = np.empty(k)
    for c in range(k):
        q1 = _weighted_quantiles(flat1[:, c], nu1.weights, qs)
        q2 = _weighted_quantiles(flat2[:, c], nu2.weights, qs)
        out[c] = np.max(np.abs(q1 - q2))
    return out


def _weighted_quantiles(x: np.ndarray, w: np.ndarray, qs: np.ndarray) -> np.ndarray:
    order = np.argsort(x)
    xs = x[order]
    cw = np.cumsum(w[order])
    cw /= cw[-1]
    return xs[np.searchsorted(cw, qs, side="left").clip(0, len(xs) - 1)]
