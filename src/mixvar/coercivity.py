"""Coercivity diagnostics: the auxiliary curve theta(t), its linear minorant,
and the pointwise quasiconvexity criterion.

theta(t) is the infimum of the mean energy over zero-boundary fields whose
mean q-th gradient moment is at least t.  The constraint is kept by a radial
retraction, the one place that computes the moment: each t descends the
energy of c x, where c >= 1 is the least scale that lifts the moment of x to
t, so every iterate is feasible.  Every reported value is the energy of its
retracted incumbent c x, feasible up to rounding, so the curve is a family
of upper estimates of a convex function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._descent import _MomentRetraction, laminate_profile, screen_then_polish, start_portfolio
from ._descent import run_lbfgs  # noqa: F401  (bench/layers.py traces it at this site)
from .envelope import AQCVerdict, EnvelopeOptions, is_aqc_at
from .grid import Grid
from .grid import gradient_adjoint  # noqa: F401  (bench/layers.py traces it at this site)
from .integrand import Integrand, minus_power

__all__ = [
    "ThetaOptions",
    "ThetaCurve",
    "theta_estimate",
    "mean_coercivity_fit",
    "strong_qc_test",
]

# bench/layers.py traces the moment energy under its former name at this site
_PenalizedMoment = _MomentRetraction


# the iteration budget of each theta point's descents
_MAXITER = 400
# the least slope that ``mean_coercivity_fit`` calls coercive; positive, as
# every slope is clamped at zero
_C_MIN = 1e-3


@dataclass(frozen=True)
class ThetaOptions:
    """The descents of ``theta_estimate``, on Q (``Grid.cube``): theta is domain-invariant."""

    resolution: int = 17
    multistart: int = 4
    seed: int = 0


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
    """The constraint levels in increasing order; they must be finite, distinct and nonnegative."""
    t = np.asarray(sorted(float(t) for t in t_values))
    if not np.all(np.isfinite(t)):
        raise ValueError("t values must be finite")
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
    """Upper estimates of theta(t) on the unit box, each the energy of a feasible field.

    Each point descends the radially retracted energy G_t
    (``_MomentRetraction``) in one ``screen_then_polish`` batch: from a
    deterministic laminate candidate of moment t, a warm start (the previous
    point's incumbent, which the retraction lifts from the moment t_prev) and
    the start portfolio; when t > 0 any start of zero moment (the zero
    incumbent of t = 0, or a laminate on a tiny grid) is dropped.  The best
    finite value G_t(x) is the point's estimate and the retracted field c x
    its incumbent, feasible up to rounding (``feasibility_gap`` reports it).
    At t = 0, when ``F.hull_exact`` certifies the zero gradient, the zero
    candidate is the incumbent without a descent: its energy F(0) is
    theta(0), since mean F(grad_a phi) >= CF(0) = F(0) for every
    zero-boundary phi (Jensen).  The portfolio is still drawn there, so
    the later points draw the same starts.
    A point where no start stays finite raises ``RuntimeError``.  A final
    downward sweep reuses the values of larger t, so the curve is
    nondecreasing by construction.
    """
    if F.C_upper is None:
        raise ValueError("theta estimation requires finite p-growth (C_upper)")
    _check_moment_order(F, q)
    t_values = _sorted_t_values(t_values)
    grid = Grid.cube(a, opts.resolution)
    rng = np.random.default_rng(opts.seed)

    # deterministic reference profile with unit moment (at t = 0 the retraction is the identity)
    flat = _MomentRetraction(grid, F, q, 0.0)
    base = flat.pack(laminate_profile(grid, 0, 1, 0.5)[..., None] * np.ones(F.n))
    mom_base = flat.scales(base[None])[0][0]
    if mom_base <= 0:
        raise RuntimeError("reference profile has zero gradient moment")
    base = base / mom_base ** (1.0 / q)

    # where F = CF at 0, Jensen's inequality makes the zero field a minimiser at t = 0
    exact_at_zero = F.hull_exact is not None and bool(F.hull_exact(np.zeros((F.n, F.m))))
    theta = np.empty_like(t_values)
    diagnostics = []
    warm = []
    for i, t in enumerate(t_values):
        energy = _MomentRetraction(grid, F, q, t)
        starts = [("candidate", base * t ** (1.0 / q) if t > 0 else np.zeros_like(base))] + warm
        portfolio, = start_portfolio(grid, F.n, opts.multistart, [max(1.0, t) ** (1.0 / q)], [rng])
        starts += [(label, energy.pack(phi0)) for label, phi0 in portfolio]

        if t == 0 and exact_at_zero:
            # the zero candidate is the incumbent, and no start descends
            x = starts[0][1]
            value, iterations = energy.value_and_grad(x)[0], 0
        else:
            # one batch per t; a start of zero moment has no retraction when t > 0
            X0 = np.stack([x0 for _, x0 in starts])
            keep = np.isfinite(energy.scales(X0)[1])
            labels = [label for (label, _), k in zip(starts, keep) if k]
            results = screen_then_polish(energy, X0[keep], labels, maxiter=_MAXITER)
            # a diverged start is dropped
            finite = [res for res in results if np.isfinite(res.value)]
            if not finite:
                raise RuntimeError(f"every theta descent diverged at t={float(t)!r}")
            best = min(finite, key=lambda res: res.value)
            value, x, iterations = best.value, best.x, sum(res.iterations for res in finite)
        incumbent = energy.scales(x[None])[1][0] * x
        mom = energy.scales(incumbent[None])[0][0]
        theta[i] = value
        diagnostics.append({"t": float(t), "feasibility_gap": float(max(0.0, t - mom)),
                            "iterations": iterations})
        warm = [("warm", incumbent)]

    # downward sweep: a feasible incumbent for larger t is feasible for smaller t
    for i in range(len(t_values) - 2, -1, -1):
        if theta[i + 1] < theta[i]:
            theta[i] = theta[i + 1]
            diagnostics[i]["reused_incumbent_from"] = float(t_values[i + 1])
    return ThetaCurve(q, t_values, theta, diagnostics)


@dataclass
class CoercivityFit:
    c1: float
    c2: float
    coercive: bool
    degenerate: bool


def mean_coercivity_fit(curve: ThetaCurve) -> CoercivityFit:
    """Steepest global linear minorant of the curve, read off the lower hull.

    For a convex curve the last lower-hull edge supports the function on all
    of [0, inf), so its slope is the largest c1 with c1*t + c2 <= theta(t)
    everywhere; slopes are clamped at zero.  Verdict: coercive iff c1 >= ``_C_MIN``.
    """
    t = curve.t_values
    y = curve.theta_hat
    if len(t) < 3:
        raise ValueError("need at least 3 points to fit a minorant")
    # edge slopes, not cross products: those overflow where t and theta are large
    hull = []
    for p in zip(t, y):
        while len(hull) >= 2 and (
            (hull[-1][1] - hull[-2][1]) / (hull[-1][0] - hull[-2][0])
            >= (p[1] - hull[-1][1]) / (p[0] - hull[-1][0])
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
    return CoercivityFit(float(c1), float(c2), bool(c1 >= _C_MIN), degenerate)


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
