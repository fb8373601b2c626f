"""Coercivity diagnostics: the auxiliary curve theta(t), its linear minorant,
and the pointwise quasiconvexity criterion.

theta(t) is the infimum of the mean energy over zero-boundary fields whose
mean q-th gradient moment is at least t.  The constraint is kept by a radial
retraction: each t descends the energy of c x, where c >= 1 is the least
scale that lifts the moment of x to t, so every iterate is feasible.  Every
reported value is the energy of a verified-feasible field (the incumbent is
rescaled onto the constraint), so the curve is a family of upper estimates
of a convex function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._descent import _MomentRetraction, laminate_profile, screen_then_polish, start_portfolio
from ._descent import run_lbfgs  # noqa: F401  (bench/layers.py traces it at this site)
from .envelope import AQCVerdict, EnvelopeOptions, is_aqc_at
from .grid import Grid, GridField, a_gradient
from .grid import gradient_adjoint  # noqa: F401  (bench/layers.py traces it at this site)
from .integrand import Integrand, minus_power
from .smoothness import SmoothnessVector, _as_sv

__all__ = [
    "ThetaOptions",
    "ThetaCurve",
    "theta_estimate",
    "mean_coercivity_fit",
    "strong_qc_test",
]

# bench/layers.py traces the moment energy under its former name at this site
_PenalizedMoment = _MomentRetraction


@dataclass(frozen=True)
class ThetaOptions:
    resolution: int = 17
    multistart: int = 4
    maxiter: int = 400
    seed: int = 0
    domain: tuple | None = None  # defaults to Q = [-1,1]^N; theta is domain-invariant

    def grid(self, a: SmoothnessVector) -> Grid:
        dom = self.domain
        if dom is None:
            dom = tuple(((-1.0, 1.0),) * a.ndim)
        return Grid(tuple(tuple(d) for d in dom), (self.resolution,) * a.ndim, a)


@dataclass
class ThetaCurve:
    q: float
    t_values: np.ndarray
    theta_hat: np.ndarray
    diagnostics: list = field(default_factory=list)

    def __post_init__(self):
        self.t_values = np.asarray(self.t_values, dtype=float)
        self.theta_hat = np.asarray(self.theta_hat, dtype=float)
        if np.any(np.diff(self.t_values) <= 0):
            raise ValueError("t values must be strictly increasing")
        if np.any(self.t_values < 0):
            raise ValueError("t values must be nonnegative")


def _check_moment_order(F: Integrand, q: float) -> None:
    """The moment order q must lie in [1, p]."""
    if not (1.0 <= q <= F.p):
        raise ValueError(f"q={q} outside [1, p={F.p}]")


def _sorted_t_values(t_values) -> np.ndarray:
    """The constraint levels in increasing order; they must be distinct and nonnegative."""
    t = np.asarray(sorted(float(t) for t in t_values))
    if np.any(np.diff(t) <= 0):
        raise ValueError("t values must be distinct")
    if np.any(t < 0):
        raise ValueError("t values must be nonnegative")
    return t


def theta_estimate(
    F: Integrand,
    q: float,
    t_values,
    a,
    opts: ThetaOptions = ThetaOptions(),
) -> ThetaCurve:
    """Upper estimates of theta(t) on the unit box, with verified feasibility.

    Each point descends the radially retracted energy (``_MomentRetraction``)
    in one ``screen_then_polish`` batch: from a deterministic scaled laminate
    candidate, a warm start (the previous point's incumbent rescaled onto the
    constraint) and the start portfolio, less any start of zero moment when
    t > 0.  The best result, rescaled onto the constraint, is the point's
    incumbent; a final downward sweep reuses feasible incumbents from larger
    t, so the curve is nondecreasing by construction.
    """
    if F.C_upper is None:
        raise ValueError("theta estimation requires finite p-growth (C_upper)")
    _check_moment_order(F, q)
    t_values = _sorted_t_values(t_values)
    grid = opts.grid(_as_sv(a))
    rng = np.random.default_rng(opts.seed)

    def stats(phi: np.ndarray) -> tuple[float, float]:
        W = a_gradient(GridField(grid, phi)).values
        fro = np.sqrt(np.sum(W**2, axis=(-2, -1)))
        return float(np.mean(F(W))), float(np.mean(fro**q))

    # deterministic reference profile with unit moment
    base = laminate_profile(grid, 0, 1, 0.5)[..., None] * np.ones(F.n)
    base[grid.collar_mask()] = 0.0
    _, mom_base = stats(base)
    if mom_base <= 0:
        raise RuntimeError("reference profile has zero gradient moment")
    base = base / mom_base ** (1.0 / q)

    def feasible_candidate(t: float) -> np.ndarray:
        return base * t ** (1.0 / q) if t > 0 else np.zeros_like(base)

    def rescale_to(phi: np.ndarray, t: float) -> np.ndarray:
        _, mom = stats(phi)
        if t <= 0:
            return phi
        if mom <= 0:
            return feasible_candidate(t)
        if mom >= t:
            return phi
        return phi * (t / mom) ** (1.0 / q) * (1.0 + 1e-12)

    theta = np.empty_like(t_values)
    incumbents: list[np.ndarray] = []
    diagnostics = []
    warm = None
    for i, t in enumerate(t_values):
        starts = [("candidate", feasible_candidate(t))]
        if warm is not None:
            starts.append(("warm", rescale_to(warm, t)))
        starts += start_portfolio(grid, F.n, opts.multistart, max(1.0, t) ** (1.0 / q), rng)

        # one batch per t; a start of zero moment has no retraction when t > 0
        energy = _MomentRetraction(grid, F, q, t)
        X0 = np.stack([energy.pack(phi0) for _, phi0 in starts])  # pack drops the collar
        keep = np.isfinite(energy.scales(X0))
        labels = [label for (label, _), k in zip(starts, keep) if k]
        results = screen_then_polish(energy, X0[keep], labels, maxiter=opts.maxiter)
        # a diverged start is dropped
        finite = [res for res in results if np.isfinite(res.value)]

        best_phi = None
        best_val = np.inf
        for res in finite:
            phi_final = rescale_to(energy.unpack(res.x), t)
            val, mom = stats(phi_final)
            if mom >= t - 1e-9 and val < best_val:
                best_val = val
                best_phi = phi_final
        if best_phi is None:
            best_phi = feasible_candidate(t)
            best_val, _ = stats(best_phi)
        theta[i] = best_val
        incumbents.append(best_phi)
        _, mom = stats(best_phi)
        diagnostics.append({"t": float(t), "feasibility_gap": float(max(0.0, t - mom)),
                            "iterations": sum(res.iterations for res in finite)})
        warm = best_phi

    # downward sweep: a feasible incumbent for larger t is feasible for smaller t
    for i in range(len(t_values) - 2, -1, -1):
        if theta[i + 1] < theta[i]:
            theta[i] = theta[i + 1]
            incumbents[i] = incumbents[i + 1]
            diagnostics[i]["reused_incumbent_from"] = float(t_values[i + 1])
    return ThetaCurve(q, t_values, theta, diagnostics)


@dataclass
class CoercivityFit:
    c1: float
    c2: float
    coercive: bool
    degenerate: bool


def mean_coercivity_fit(curve: ThetaCurve, c_min: float = 1e-3) -> CoercivityFit:
    """Steepest global linear minorant of the curve, read off the lower hull.

    For a convex curve the last lower-hull edge supports the function on all
    of [0, inf), so its slope is the largest c1 with c1*t + c2 <= theta(t)
    everywhere; slopes are clamped at zero.  Verdict: coercive iff c1 >= c_min.
    """
    t = curve.t_values
    y = curve.theta_hat
    if len(t) < 3:
        raise ValueError("need at least 3 points to fit a minorant")
    hull = []
    for p in zip(t, y):
        while len(hull) >= 2 and (
            (hull[-1][1] - hull[-2][1]) * (p[0] - hull[-1][0])
            >= (p[1] - hull[-1][1]) * (hull[-1][0] - hull[-2][0])
        ):
            hull.pop()
        hull.append(p)
    degenerate = len(hull) < 2
    if degenerate:
        c1 = 0.0
        c2 = float(y.min())
    else:
        (t0, y0), (t1, y1) = hull[-2], hull[-1]
        c1 = (y1 - y0) / (t1 - t0)
        if c1 < 0.0:
            c1 = 0.0
        c2 = float(np.min(y - c1 * t))
    return CoercivityFit(float(c1), float(c2), bool(c1 >= c_min), degenerate)


def strong_qc_test(
    F: Integrand,
    c: float,
    q: float,
    V0,
    a,
    opts: EnvelopeOptions = EnvelopeOptions(),
) -> AQCVerdict:
    """Point criterion: is F(.) - c|.|^q quasiconvex at V0 for the given stencils."""
    if c <= 0:
        raise ValueError("c must be positive")
    return is_aqc_at(minus_power(F, c, q), V0, a, opts)
