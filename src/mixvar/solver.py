"""Direct-method minimization over discrete Dirichlet classes and the
relaxation comparison experiment.

A problem fixes the smoothness vector, a rectangular domain, an integrand,
and a boundary datum defined on the whole domain at every resolution (an
a-polynomial), so there are no trace issues: the unknown is u = g + phi with
phi vanishing on the collar.  Energies are quadrature sums, with the same
normalized weight at every resolution, so energies computed at different
refinement levels are directly comparable.

A solve's starts descend in two phases (``_descent.screen_then_polish``):
each screens in the flat metric of the free values, and each that ran out of
that budget polishes for the rest of ``maxiter`` in the discrete a-Sobolev
metric, whose condition number does not grow with the mesh as the flat
one's does (like h^(-2 max a_i)).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from ._descent import StencilEnergy, prolong_zero_boundary, screen_then_polish, smooth_noise
from ._descent import run_lbfgs  # noqa: F401  (bench/layers.py traces it at this site)
from .envelope import EnvelopeTable, _check_interior
from .grid import APolynomial, Grid, GridField, a_gradient
from .integrand import Integrand
from .smoothness import SmoothnessVector, _as_sv, lower_set, pairing

__all__ = [
    "DirichletProblem",
    "SolveOptions",
    "SolveResult",
    "apolynomial_datum",
    "solve_dirichlet",
    "relax_compare",
    "RelaxReport",
]

# the most negative gap E_F - E_QF that still counts as E_QF <= E_F
_GAP_TOL = 1e-8
# the levels of a relaxation ladder
DEFAULT_RELAX_LEVELS = 3
# a solve's gradient tolerance, in the a-Sobolev metric's coordinates where it polishes
_GTOL = 1e-10


def apolynomial_datum(coeffs: dict, grid: Grid) -> GridField:
    """Evaluate an a-polynomial datum; coefficients prescribe derivative values.

    The polynomial is sum_gamma c_gamma x^gamma / gamma!, so the mixed-order
    gradient of the sampled field is the constant matrix read directly off
    the hyperplane coefficients (the stencils are exact on these monomials).
    Exponents must lie in the non-strict lower set.
    """
    admissible = set(lower_set(grid.a, strict=False))
    for gamma in coeffs:
        g = tuple(int(x) for x in gamma)
        if g not in admissible:
            raise ValueError(
                f"exponent {g} has pairing {pairing(g, grid.a)} > 1: outside the lower set"
            )
    P = APolynomial.build({tuple(k): v for k, v in coeffs.items()})
    return P.sample(grid)


@dataclass(frozen=True)
class DirichletProblem:
    """The Dirichlet problem of ``integrand`` on ``domain``, ``resolution`` nodes per axis.

    ``datum`` holds the coefficients of an a-polynomial (``apolynomial_datum``),
    sampled at every resolution, so a refinement ladder replaces only ``resolution``.
    """

    a: SmoothnessVector
    domain: tuple[tuple[float, float], ...]
    integrand: Integrand
    datum: dict
    resolution: tuple[int, ...]

    def __post_init__(self):
        a = _as_sv(self.a)
        object.__setattr__(self, "a", a)
        res = self.resolution
        if np.isscalar(res):
            res = (int(res),) * a.ndim
        object.__setattr__(self, "resolution", tuple(int(r) for r in res))

    def grid(self) -> Grid:
        return Grid(self.domain, self.resolution, self.a)

    def datum_field(self, grid: Grid) -> GridField:
        g = apolynomial_datum(self.datum, grid)
        if g.n_components != self.integrand.n:
            raise ValueError(f"datum has {g.n_components} components, "
                             f"the integrand has n = {self.integrand.n}")
        return g


@dataclass(frozen=True)
class SolveOptions:
    maxiter: int = 800
    multistart: int = 1          # extra perturbed starts beyond the datum start
    perturbation: float = 1e-2
    seed: int = 0


@dataclass
class SolveResult:
    u: GridField
    energy: float
    energies: list        # the winning descent's energy at x0 and at every accepted iterate
    grad_norm: float      # norm of the energy's gradient over the free values at u
    converged: bool
    start_label: str
    iterations: int       # the winning descent's iterations, screen and polish
    budget_exhausted: bool  # it stopped at maxiter, not converged


class _DirichletEnergy(StencilEnergy):
    """Quadrature energy integrand(grad_a(g + phi)) over free DOFs, one field or a batch."""

    def __init__(self, grid: Grid, F: Integrand, g: GridField):
        super().__init__(grid, F, a_gradient(g).values)
        self.weight = grid.quad_weight

    def value_and_grad(self, x, rows=None):
        v, grad = super().value_and_grad(x, rows)
        return v * self.weight, grad * self.weight


def solve_dirichlet(
    prob: DirichletProblem,
    opts: SolveOptions = SolveOptions(),
    warm_start: GridField | None = None,
) -> SolveResult:
    """Quasi-Newton descent to a stationary point of the Dirichlet problem.

    Every start screens flat for ``_descent._SCREEN_MAXITER`` iterations, and
    every finite start that ran out of that budget polishes for the rest of
    ``maxiter`` in the a-Sobolev metric; the lowest energy wins.  Its
    ``converged`` then means the polish met ``_GTOL`` in the metric's
    coordinates (or the relative-f test), and its ``iterations`` count both
    phases.  The returned field agrees with the datum on the collar
    bit-exactly (those nodes are never touched).  ``energies`` are the energy
    at x0 and at each accepted iterate of both phases, nonincreasing by
    construction of the line search.  A ``warm_start`` (a zero-boundary
    field, e.g. a prolonged coarser minimizer) runs as the last start,
    labelled "prolonged", so ties go to the others.
    """
    grid = prob.grid()
    F = prob.integrand
    g = prob.datum_field(grid)
    energy = _DirichletEnergy(grid, F, g)
    base_energy = energy.value_and_grad(np.zeros(energy.n_free))[0]
    if not np.isfinite(base_energy):
        raise RuntimeError(
            "integrand is infinite at the datum gradient; provide a barrier-safe start"
        )

    rng = np.random.default_rng(opts.seed)
    starts = [("datum", np.zeros(grid.shape + (F.n,)))]
    for i in range(opts.multistart):
        noise = smooth_noise(grid, F.n, rng) * opts.perturbation
        starts.append((f"perturbed{i}", noise))
    if warm_start is not None:
        starts.append(("prolonged", warm_start.values))

    X0 = np.stack([energy.pack(phi0) for _, phi0 in starts])  # pack drops the collar
    results = screen_then_polish(energy, X0, [label for label, _ in starts], opts.maxiter,
                                 _GTOL, history=True)
    best = None
    for res in results:
        if np.isfinite(res.value) and (best is None or res.value < best.value):
            best = res
    if best is None:
        raise RuntimeError("all descent starts diverged")

    u = GridField(grid, g.values + energy.unpack(best.x))
    _, g_final = energy.value_and_grad(best.x)
    return SolveResult(u, best.value, list(best.history), float(np.linalg.norm(g_final)),
                       best.converged, best.start_label, best.iterations, best.budget_exhausted)


@dataclass
class RelaxReport:
    levels: list
    resolutions: list
    E_F: list
    E_QF: float
    gaps: list
    grad_norms: list
    converged: list       # per level: the winning descent met _GTOL within maxiter
    wallclock: list
    no_gap_detected: bool
    lower_bound_ok: bool  # E_QF <= E_F + _GAP_TOL at every level


def _check_refinement_levels(refinement_levels: int) -> None:
    """A relax ladder has at least one level."""
    if refinement_levels < 1:
        raise ValueError(f"levels must be at least 1, got {refinement_levels}")


def _check_table(prob: DirichletProblem, table: EnvelopeTable) -> None:
    """The envelope table must be tabulated for the problem's a, n and m.

    Its hull must have an interior (every count at least 2), as the table
    integrand of the envelope solve needs one.
    """
    F = prob.integrand
    if (tuple(table.a), table.n, table.m) != (prob.a.a, F.n, F.m):
        raise ValueError(
            f"table has a={tuple(table.a)}, n={table.n}, m={table.m}; "
            f"the problem has a={prob.a.a}, n={F.n}, m={F.m}"
        )
    _check_interior(table.lattice)


def relax_compare(
    prob: DirichletProblem,
    table: EnvelopeTable,
    refinement_levels: int = DEFAULT_RELAX_LEVELS,
    opts: SolveOptions = SolveOptions(),
) -> RelaxReport:
    """Solve with F on a refinement ladder, with the interpolated envelope once.

    The envelope solve runs at the finest level; out-of-hull gradient queries
    abort (no extrapolation).  Reports the gap sequence E_F - E_QF, which is
    bounded below by -_GAP_TOL and expected to shrink as oscillations refine.
    A ladder of no levels, or a table for another a, n or m, raises
    ValueError before any descent, and the table integrand is registered
    (its gradient checked) before any descent too.
    """
    _check_refinement_levels(refinement_levels)
    _check_table(prob, table)
    # registered (its gradient checked) before any descent runs
    QF = table.as_integrand(fallback=None)
    base_res = prob.resolution
    ladders = [tuple((r - 1) * 2**lev + 1 for r in base_res) for lev in range(refinement_levels)]

    E_F: list[float] = []
    grad_norms: list[float] = []
    converged: list[bool] = []
    wallclock: list[float] = []
    warm_phi: GridField | None = None
    for lev, res in enumerate(ladders):
        t0 = time.perf_counter()
        lev_prob = replace(prob, resolution=res)
        grid = lev_prob.grid()
        warm = None if warm_phi is None else prolong_zero_boundary(warm_phi, grid)
        result = solve_dirichlet(lev_prob, replace(opts, seed=opts.seed + lev), warm_start=warm)
        warm_phi = GridField(grid, result.u.values - lev_prob.datum_field(grid).values)
        E_F.append(result.energy)
        grad_norms.append(result.grad_norm)
        converged.append(result.converged)
        wallclock.append(time.perf_counter() - t0)

    # envelope solve at the finest level; hull excess aborts, never extrapolates
    fine_prob = replace(prob, resolution=ladders[-1], integrand=QF)
    t0 = time.perf_counter()
    try:
        qf_result = solve_dirichlet(fine_prob, replace(opts, seed=opts.seed + 101))
    except RuntimeError as exc:
        # the table integrand is infinite only outside its lattice hull
        raise RuntimeError(
            f"envelope table hull exceeded during the QF solve: {exc}"
        ) from exc
    E_QF = qf_result.energy
    final_stack = a_gradient(qf_result.u).values.reshape(-1, table.n * table.m)
    if not np.all(table._interpolant.inside(final_stack)):
        raise RuntimeError(
            "QF minimizer leaves the envelope table hull; extend the table lattice"
        )
    wallclock.append(time.perf_counter() - t0)

    gaps = [e - E_QF for e in E_F]
    no_gap = max(abs(g) for g in gaps) <= max(_GAP_TOL, 1e-6 * (1.0 + abs(E_F[0])))
    return RelaxReport(
        list(range(refinement_levels)), [list(r) for r in ladders],
        E_F, E_QF, gaps, grad_norms, converged, wallclock, bool(no_gap),
        bool(min(gaps) >= -_GAP_TOL),
    )
