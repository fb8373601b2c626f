"""Shared descent machinery for the inner minimizations.

Free degrees of freedom are the node values outside the zero-boundary
collar.  Energies are assembled through the linear forward-difference
stencils; their gradients come from the adjoint of the same stencils
(chain rule), so L-BFGS sees exact derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage
from scipy.optimize import minimize

from .grid import Grid, GridField, a_gradient, gradient_adjoint
from .grid import mixed_derivative  # noqa: F401  (bench/layers.py traces it at this site)
from .integrand import Integrand
from .smoothness import homogeneity_set


class StencilEnergy:
    """Sum over interior nodes of F(base + grad_a(phi)) and its free-DOF gradient."""

    def __init__(self, grid: Grid, F: Integrand, base: np.ndarray):
        self.grid = grid
        self.F = F
        self.alphas = homogeneity_set(grid.a)
        if F.m != len(self.alphas):
            raise ValueError(
                f"integrand expects m={F.m} columns, smoothness vector gives {len(self.alphas)}"
            )
        base = np.asarray(base, dtype=float)
        if base.shape == (F.n, F.m):
            base = np.broadcast_to(base, grid.interior_shape + (F.n, F.m))
        if base.shape != grid.interior_shape + (F.n, F.m):
            raise ValueError(f"base gradient has shape {base.shape}")
        self.base = base
        self.free = ~grid.collar_mask()
        self.n_free = int(np.count_nonzero(self.free)) * F.n

    def unpack(self, x: np.ndarray) -> np.ndarray:
        phi = np.zeros(self.grid.shape + (self.F.n,))
        phi[self.free] = x.reshape(-1, self.F.n)
        return phi

    def pack(self, phi: np.ndarray) -> np.ndarray:
        return phi[self.free].reshape(-1)

    def gradient_stack(self, phi: np.ndarray) -> np.ndarray:
        return a_gradient(GridField(self.grid, phi)).values

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        phi = self.unpack(x)
        W = self.base + self.gradient_stack(phi)
        vals = self.F(W)
        if not np.all(np.isfinite(vals)):
            return float("inf"), np.zeros_like(x)
        dF = self.F.gradient(W)
        if not np.all(np.isfinite(dF)):
            # finite value but broken derivative (e.g. FD probe hit a barrier)
            return float("inf"), np.zeros_like(x)
        g_full = gradient_adjoint(self.grid, self.alphas, dF)
        return float(np.sum(vals)), g_full[self.free].reshape(-1)


@dataclass
class DescentResult:
    value: float
    x: np.ndarray
    start_label: str
    iterations: int
    converged: bool
    budget_exhausted: bool = False
    history: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)  # (iteration, x_k copies)


def run_lbfgs(
    energy,
    x0: np.ndarray,
    maxiter: int = 400,
    gtol: float = 1e-9,
    label: str = "",
    snapshot_stride: int | None = None,
) -> DescentResult:
    """L-BFGS-B descent of ``energy.value_and_grad`` from x0.

    With ``snapshot_stride`` set, ``history`` holds the energy at x0 and at
    every accepted iterate, and ``snapshots`` a copy of every stride-th one.
    """
    history = []
    snapshots = []
    cb = None
    if snapshot_stride:
        history.append(energy.value_and_grad(x0)[0])

        def cb(intermediate_result):
            history.append(float(intermediate_result.fun))
            it = len(history) - 1
            if it % snapshot_stride == 0:
                snapshots.append((it, intermediate_result.x.copy()))

    res = minimize(
        energy.value_and_grad, x0, jac=True, method="L-BFGS-B", callback=cb,
        options={"maxiter": maxiter, "ftol": 1e-14, "gtol": gtol, "maxcor": 20},
    )
    value = float(res.fun)
    if not np.isfinite(value):
        raise RuntimeError(f"descent diverged (energy {value}) from start {label!r}")
    exhausted = res.status == 1  # iteration/function budget
    return DescentResult(value, res.x, label, int(res.nit), bool(res.success),
                         exhausted, history, snapshots)


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
