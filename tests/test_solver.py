import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mixvar import _descent, solver
from mixvar.envelope import EnvelopeOptions, EnvelopeTable, tabulate_envelope
from mixvar.grid import Grid, GridField, a_gradient, stencil_matrix
from mixvar.integrand import Integrand, builtin
from mixvar.smoothness import SmoothnessVector, homogeneity_set
from mixvar.solver import (
    DirichletProblem,
    SolveOptions,
    apolynomial_datum,
    relax_compare,
    solve_dirichlet,
)


SV12 = SmoothnessVector((1, 2))


def test_apolynomial_datum_gradient_reads_off_coefficients():
    g = Grid(((-1, 1), (-1, 1)), (17, 17), SV12)
    datum = apolynomial_datum({(1, 0): 1.0, (0, 2): 2.0}, g)
    ag = a_gradient(datum)
    assert np.allclose(ag.values[..., 0, 0], 1.0, atol=1e-10)
    assert np.allclose(ag.values[..., 0, 1], 2.0, atol=1e-10)


def test_apolynomial_datum_constant():
    g = Grid(((-1, 1), (-1, 1)), (17, 17), SV12)
    datum = apolynomial_datum({(0, 0): 5.0}, g)
    assert np.allclose(datum.values, 5.0)
    assert np.allclose(a_gradient(datum).values, 0.0, atol=1e-12)


def test_apolynomial_datum_rejects_outside_lower_set():
    g = Grid(((-1, 1), (-1, 1)), (17, 17), SV12)
    with pytest.raises(ValueError, match="lower set"):
        apolynomial_datum({(1, 1): 1.0}, g)  # pairing 3/2 > 1


def quad_oracle_energy(prob):
    """Independent oracle: assemble the normal equations of the quadratic
    energy sum |S_alpha (g + phi)|^2 sparsely and solve with a direct SPD
    factorization."""
    grid = prob.grid()
    g = prob.datum_field(grid)
    free = ~grid.collar_mask().reshape(-1)
    mats = [stencil_matrix(grid, al) for al in homogeneity_set(grid.a)]
    gvec = g.values[..., 0].reshape(-1)
    A = sp.vstack([M[:, free] for M in mats], format="csr")
    b = np.concatenate([M @ gvec for M in mats])
    x = spla.spsolve((A.T @ A).tocsc(), -A.T @ b)
    resid = A @ x + b
    return grid.quad_weight * float(resid @ resid)


def test_convex_quadratic_datum_is_minimizer():
    F = builtin("pnorm", p=2, n=1, m=2)
    prob = DirichletProblem((1, 2), ((-1, 1), (-1, 1)), F,
                            {(1, 0): 1.0, (0, 2): 2.0}, 17)
    res = solve_dirichlet(prob, SolveOptions(seed=1))
    grid = prob.grid()
    X = np.array([[1.0, 2.0]])
    expected = grid.volume * float(F(X))
    assert abs(res.energy - expected) <= 1e-10 * (1 + abs(expected))
    # minimizer is the datum itself
    g = prob.datum_field(grid)
    assert np.max(np.abs(res.u.values - g.values)) <= 1e-6


def test_pantographic_matches_sparse_spd_oracle():
    F = builtin("pantographic")
    rng = np.random.default_rng(42)
    coeffs = {(0, 0): rng.normal(), (1, 0): rng.normal(),
              (0, 1): rng.normal(), (0, 2): rng.normal()}
    prob = DirichletProblem((1, 2), ((-1, 1), (-1, 1)), F, coeffs, 17)
    res = solve_dirichlet(prob, SolveOptions(seed=2))
    oracle = quad_oracle_energy(prob)
    assert abs(res.energy - oracle) <= 1e-8 * (1 + abs(oracle))


def test_constant_integrand_exits_immediately():
    F = builtin("constant", c=2.0, n=1, m=2)
    prob = DirichletProblem((1, 2), ((-1, 1), (-1, 1)), F, {(0, 0): 1.0}, 9)
    res = solve_dirichlet(prob, SolveOptions(seed=3))
    assert res.energy == pytest.approx(2.0 * prob.grid().volume, rel=1e-12)


def test_dirichlet_collar_consistency():
    F = builtin("double_well", col=0, w=1.0, n=1, m=2)
    prob = DirichletProblem((1, 2), ((-1, 1), (-1, 1)), F,
                            {(1, 0): 0.5, (0, 1): -0.3}, 17)
    res = solve_dirichlet(prob, SolveOptions(seed=4, multistart=1))
    grid = prob.grid()
    g = prob.datum_field(grid)
    collar = grid.collar_mask()
    # bit-exact agreement on the collar
    assert np.array_equal(res.u.values[collar], g.values[collar])


def test_kernel_polynomial_frame_invariance():
    # adding a kernel a-polynomial (span{1, y} for a=(1,2)) to the datum
    # leaves every gradient-dependent energy unchanged to round-off
    F = builtin("pnorm", p=2, n=1, m=2)
    base = {(1, 0): 0.7, (0, 2): -0.4}
    shifted = dict(base)
    shifted[(0, 0)] = 5.0
    shifted[(0, 1)] = -3.0
    p1 = DirichletProblem((1, 2), ((-1, 1), (-1, 1)), F, base, 17)
    p2 = DirichletProblem((1, 2), ((-1, 1), (-1, 1)), F, shifted, 17)
    r1 = solve_dirichlet(p1, SolveOptions(seed=5))
    r2 = solve_dirichlet(p2, SolveOptions(seed=5))
    assert abs(r1.energy - r2.energy) <= 1e-10 * (1 + abs(r1.energy))


def test_trace_energies_nonincreasing():
    # an a-polynomial datum is a stationary point (constant dF against exact
    # zero-mean stencils), so a perturbed start is what actually iterates
    F = builtin("double_well", col=0, w=1.0, n=1, m=2)
    prob = DirichletProblem((1, 2), ((-1, 1), (-1, 1)), F,
                            {(1, 0): 0.2}, 17)
    res = solve_dirichlet(prob, SolveOptions(seed=6, multistart=1, perturbation=0.1))
    e = res.energies
    assert len(e) >= 2
    assert all(b <= a + 1e-12 * (1 + abs(a)) for a, b in zip(e, e[1:]))


def test_relax_convex_zero_gap():
    F = builtin("pnorm", p=2, n=1, m=1)
    table = tabulate_envelope(
        F, (2,), [(-2.0, 2.0, 21)], EnvelopeOptions(resolution=33, multistart=2, seed=8)
    )
    # datum slope 0.4 sits exactly on a lattice node
    prob = DirichletProblem((2,), ((-1.0, 1.0),), F, {(2,): 0.4}, 9)
    rep = relax_compare(prob, table, refinement_levels=2, opts=SolveOptions(seed=9))
    assert rep.lower_bound_ok
    assert all(abs(g) <= 1e-8 for g in rep.gaps)
    assert rep.no_gap_detected
    assert rep.converged == [True, True]


def test_relax_reports_levels_stopped_at_maxiter():
    F = builtin("double_well", w=1.0, n=1, m=1)
    table = tabulate_envelope(
        F, (2,), [(-2.0, 2.0, 5)], EnvelopeOptions(resolution=17, multistart=2, seed=14)
    )
    # slope 0.4 is not stationary for the double well: two iterations cannot converge
    prob = DirichletProblem((2,), ((-1.0, 1.0),), F, {(2,): 0.4}, 9)
    rep = relax_compare(prob, table, refinement_levels=2,
                        opts=SolveOptions(seed=15, maxiter=2))
    assert rep.converged == [False, False]
    assert all(np.isfinite(g) and g > 0 for g in rep.grad_norms)


def test_warm_start_runs_last_and_wins_when_lower():
    F = builtin("double_well", col=0, w=1.0, n=1, m=2)
    prob = DirichletProblem((1, 2), ((-1, 1), (-1, 1)), F, {(1, 0): 0.2}, 17)
    grid = prob.grid()
    full = solve_dirichlet(prob, SolveOptions(seed=16))
    warm = GridField(grid, full.u.values - prob.datum_field(grid).values)
    short = SolveOptions(seed=16, maxiter=3)
    cold = solve_dirichlet(prob, short)
    res = solve_dirichlet(prob, short, warm_start=warm)
    assert res.start_label == "prolonged"
    assert res.energy <= full.energy < cold.energy
    assert np.isfinite(res.grad_norm)


def test_relax_double_well_gap_shrinks():
    F = builtin("double_well", w=1.0, n=1, m=1)
    table = tabulate_envelope(
        F, (2,), [(-2.0, 2.0, 21)],
        EnvelopeOptions(resolution=129, multistart=8, maxiter=2000, seed=10),
        levels=(17, 33, 65, 129),
    )
    prob = DirichletProblem((2,), ((-1.0, 1.0),), F, {(0,): 0.0}, 9)
    rep = relax_compare(prob, table, refinement_levels=3,
                        opts=SolveOptions(seed=11, multistart=2, perturbation=0.05))
    assert rep.lower_bound_ok
    assert all(np.isfinite(g) for g in rep.grad_norms)
    assert all(b <= a + 1e-10 for a, b in zip(rep.E_F, rep.E_F[1:]))
    assert rep.gaps[-1] <= 0.1 * (1 + rep.E_F[0])
    assert not rep.no_gap_detected


def test_relax_hull_exceeded_aborts():
    F = builtin("pnorm", p=2, n=1, m=1)
    # tiny hull: the datum gradient 1.9 runs straight out of [-0.5, 0.5]
    table = tabulate_envelope(
        F, (2,), [(-0.5, 0.5, 5)], EnvelopeOptions(resolution=17, multistart=2, seed=12)
    )
    prob = DirichletProblem((2,), ((-1.0, 1.0),), F, {(2,): 1.9}, 9)
    with pytest.raises(RuntimeError, match="hull"):
        relax_compare(prob, table, refinement_levels=1, opts=SolveOptions(seed=13))


def node_table(F, a, lattice):
    """A table holding F at the nodes of the lattice."""
    pts = [np.linspace(*r) for r in lattice]
    V = np.stack(np.meshgrid(*pts, indexing="ij"), axis=-1).reshape(-1, F.n, F.m)
    return EnvelopeTable(a, F.n, F.m, F.p, lattice, F(V), None)


@pytest.mark.parametrize("a, datum, lattice", [
    ((2,), {(2,): 3.0}, ((2.0, 4.0, 3),)),
    ((1, 2), {(1, 0): 0.3, (0, 2): -0.2}, ((-2.0, 2.0, 33), (-2.0, 2.0, 33))),
])
def test_relax_runs_on_tables_far_from_the_origin_and_on_fine_lattices(a, datum, lattice):
    F = builtin("pnorm", p=2, n=1, m=len(lattice))
    table = node_table(F, a, lattice)
    prob = DirichletProblem(a, ((-1.0, 1.0),) * len(a), F, datum, 9)
    rep = relax_compare(prob, table, refinement_levels=1, opts=SolveOptions(seed=5))
    # the table lies above the convex F, so E_QF >= E_F
    assert np.isfinite(rep.E_QF) and rep.E_QF >= rep.E_F[0] - 1e-12


def test_relax_e_qf_matches_the_finite_difference_descent(monkeypatch):
    # E_QF with the table's exact gradient against the same solve descending
    # on central differences of the interpolant, on a kinked multi-cell table
    F = builtin("double_well", w=1.0, n=1, m=1)
    table = tabulate_envelope(
        F, (2,), [(-2.0, 2.0, 21)], EnvelopeOptions(resolution=33, multistart=2, seed=8)
    )
    exact = EnvelopeTable.as_integrand

    def central_differences(self, fallback=None):
        G = exact(self, fallback)
        return Integrand(G.eval, G.n, G.m, G.p, C_upper=G.C_upper, name=G.name, params=G.params)

    opts = SolveOptions(seed=11, multistart=2, perturbation=0.05)
    for slope in (0.0, 0.3, 1.45):
        prob = DirichletProblem((2,), ((-1.0, 1.0),), F, {(2,): slope}, 9)
        monkeypatch.setattr(EnvelopeTable, "as_integrand", exact)
        got = relax_compare(prob, table, refinement_levels=2, opts=opts)
        monkeypatch.setattr(EnvelopeTable, "as_integrand", central_differences)
        ref = relax_compare(prob, table, refinement_levels=2, opts=opts)
        assert got.E_F == ref.E_F
        assert abs(got.E_QF - ref.E_QF) <= 1e-12 * (1.0 + abs(ref.E_QF))


@pytest.mark.parametrize("levels, table_shape, match", [
    (0, ((2,), 1, 1), "levels must be at least 1"),
    (-1, ((2,), 1, 1), "levels must be at least 1"),
    (2, ((1, 2), 1, 2), r"table has a=\(1, 2\), n=1, m=2; the problem has a=\(2,\), n=1, m=1"),
    (2, ((2,), 2, 1), "n=2"),
])
def test_relax_rejects_bad_levels_and_foreign_tables_before_any_descent(
        monkeypatch, levels, table_shape, match):
    def no_descent(*args, **kwargs):
        raise AssertionError("a descent ran before validation")

    monkeypatch.setattr(solver, "solve_dirichlet", no_descent)
    a, n, m = table_shape
    lattice = tuple((-2.0, 2.0, 3) for _ in range(n * m))
    table = EnvelopeTable(a, n, m, 2.0, lattice, np.zeros((3,) * (n * m)), None)
    F = builtin("pnorm", p=2, n=1, m=1)
    prob = DirichletProblem((2,), ((-1.0, 1.0),), F, {(0,): 0.0}, 9)
    with pytest.raises(ValueError, match=match):
        relax_compare(prob, table, refinement_levels=levels)


WELL_PROBLEM = DirichletProblem((1, 2), ((-1, 1), (-1, 1)),
                                builtin("double_well", col=1, w=1.0, n=1, m=2),
                                {(1, 0): 0.5, (0, 2): 0.3}, 17)
WELL_OPTS = SolveOptions(maxiter=400, seed=3)
WELL_SCREEN = 50  # the perturbed start runs out of it


def test_a_solve_that_uses_up_its_screen_polishes_to_convergence(monkeypatch):
    monkeypatch.setattr(_descent, "_SCREEN_MAXITER", WELL_OPTS.maxiter)  # flat only
    flat = solve_dirichlet(WELL_PROBLEM, WELL_OPTS)
    batches = []
    run = _descent.run_lbfgs_batch

    def recorded(energy, X0, labels, **kwargs):
        batches.append(run(energy, X0, labels, **kwargs))
        return batches[-1]

    monkeypatch.setattr(_descent, "run_lbfgs_batch", recorded)
    monkeypatch.setattr(_descent, "_SCREEN_MAXITER", WELL_SCREEN)
    res = solve_dirichlet(WELL_PROBLEM, WELL_OPTS)
    assert flat.budget_exhausted and not flat.converged
    assert res.converged and not res.budget_exhausted
    assert res.energy <= flat.energy
    screen, polish = batches
    screened = next(r for r in screen if r.start_label == res.start_label)
    polished = next(r for r in polish if r.start_label == res.start_label)
    assert screened.iterations == WELL_SCREEN and screened.budget_exhausted
    assert res.iterations == WELL_SCREEN + polished.iterations
    # one energy per accepted iterate after x0's, nonincreasing across the junction
    e = res.energies
    assert len(e) == res.iterations + 1
    assert e[:WELL_SCREEN + 1] == screened.history
    assert all(b <= a for a, b in zip(e, e[1:]))
    assert e[-1] == res.energy
    grid = WELL_PROBLEM.grid()
    collar = grid.collar_mask()
    assert np.array_equal(res.u.values[collar], WELL_PROBLEM.datum_field(grid).values[collar])


def test_a_polished_start_is_bit_equal_beside_other_starts_and_alone(monkeypatch):
    monkeypatch.setattr(_descent, "_SCREEN_MAXITER", WELL_SCREEN)
    grid = WELL_PROBLEM.grid()
    F = WELL_PROBLEM.integrand
    energy = solver._DirichletEnergy(grid, F, WELL_PROBLEM.datum_field(grid))
    rng = np.random.default_rng(4)
    starts = [np.zeros(grid.shape + (F.n,))]
    starts += [_descent.smooth_noise(grid, F.n, rng) * s for s in (0.01, 0.1)]
    X0 = energy.pack(np.stack(starts))
    labels = ["datum", "small", "large"]
    together = _descent.screen_then_polish(energy, X0, labels, WELL_OPTS.maxiter, solver._GTOL,
                                           history=True)
    assert sum(r.iterations > WELL_SCREEN for r in together) == 2  # the datum start is stationary
    for k, res in enumerate(together):
        alone = _descent.screen_then_polish(energy, X0[[k]], [labels[k]], WELL_OPTS.maxiter,
                                            solver._GTOL, history=True)[0]
        assert alone.value == res.value
        assert np.array_equal(alone.x, res.x)
        assert (alone.iterations, alone.nfev, alone.converged) == (
            res.iterations, res.nfev, res.converged)
        assert alone.history == res.history
