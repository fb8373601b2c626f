import numpy as np
import pytest

from mixvar._descent import smooth_noise
from mixvar.envelope import EnvelopeOptions, tabulate_envelope
from mixvar.grid import AGradientField, Grid, GridField, a_gradient, full_gradient
from mixvar.integrand import builtin
from mixvar.smoothness import SmoothnessVector, homogeneity_set
from mixvar.youngmeasure import (
    EmpiricalMeasure,
    coordinate_quantile_distance,
    decompose,
    empirical_measure,
    jensen_gap,
    moments,
    scale_and_tile,
    sliced_wasserstein,
)


SV2 = SmoothnessVector((2,))
SV12 = SmoothnessVector((1, 2))


def unit_grid_1d(n=65):
    return Grid(((-1.0, 1.0),), (n,), SV2)


def bump_1d(grid, freq=4.0):
    f = GridField.from_function(grid, lambda x: (1 - x**2) ** 4 * np.sin(freq * x))
    return f.with_zero_collar()


def test_measure_normalization():
    with pytest.raises(ValueError):
        EmpiricalMeasure(np.zeros((2, 1, 1)), np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        EmpiricalMeasure(np.zeros((2, 1, 1)), np.array([1.5, -0.5]))


def test_constant_field_single_effective_atom():
    g = unit_grid_1d(17)
    datum_vals = np.full(g.interior_shape + (1, 1), 0.7)
    V = AGradientField(g, homogeneity_set(SV2), datum_vals)
    nu = empirical_measure(V)
    assert np.allclose(nu.atoms, 0.7)
    bary, mom = moments(nu, 2.0)
    assert bary[0, 0] == pytest.approx(0.7)
    assert mom == pytest.approx(0.49)


def test_zero_boundary_barycentre_vanishes():
    g = unit_grid_1d(65)
    phi = bump_1d(g)
    nu = empirical_measure(a_gradient(phi))
    bary, _ = moments(nu, 2.0)
    scale = np.mean(np.abs(nu.atoms))
    assert np.abs(bary).max() <= 1e-12 * max(scale, 1.0)


def test_two_cluster_laminate_fractions():
    # synthesize a two-valued gradient field directly: 30% at +1, 70% at -1
    g = unit_grid_1d(103)  # interior 101
    k = g.n_interior
    vals = np.full((k, 1, 1), -1.0)
    vals[:31] = 1.0
    V = AGradientField(g, homogeneity_set(SV2), vals.reshape(g.interior_shape + (1, 1)))
    nu = empirical_measure(V)
    plus = nu.weights[(nu.atoms[:, 0, 0] > 0)].sum()
    assert plus == pytest.approx(31 / 101, abs=1e-12)


def test_moments_examples():
    nu = EmpiricalMeasure(np.array([[[2.0, 0.0]]]), np.array([1.0]))
    bary, mom = moments(nu, 3.0)
    assert np.allclose(bary, [[2.0, 0.0]])
    assert mom == pytest.approx(8.0)
    X = np.array([[1.0, 2.0]])
    nu2 = EmpiricalMeasure(np.stack([X, -X]), np.array([0.5, 0.5]))
    bary2, mom2 = moments(nu2, 2.0)
    assert np.allclose(bary2, 0.0)
    assert mom2 == pytest.approx(5.0)


def test_moments_match_direct_quadrature():
    g = unit_grid_1d(65)
    phi = bump_1d(g)
    V = a_gradient(phi)
    nu = empirical_measure(V)
    _, mom = moments(nu, 2.0)
    direct = float(np.mean(np.sum(V.values**2, axis=(-2, -1))))
    assert mom == pytest.approx(direct, abs=1e-12)


def test_scale_and_tile_identity():
    g = unit_grid_1d(65)
    phi = bump_1d(g)
    tiled = scale_and_tile(phi, 0, g)
    assert np.max(np.abs(tiled.values - phi.values)) <= 1e-12


def test_scale_and_tile_barycentre_and_moment():
    g = unit_grid_1d(129)
    phi = bump_1d(g)
    nu0 = empirical_measure(a_gradient(phi))
    _, mom0 = moments(nu0, 2.0)
    for j, res in [(1, 257), (2, 513), (3, 1025)]:
        target = unit_grid_1d(res)
        tiled = scale_and_tile(phi, j, target)
        nu = empirical_measure(a_gradient(tiled))
        bary, mom = moments(nu, 2.0)
        assert np.abs(bary).max() <= 1e-10
        assert abs(mom / mom0 - 1.0) <= 0.10


def test_scale_and_tile_quantile_distance_shrinks_with_refinement():
    g = unit_grid_1d(129)
    phi = bump_1d(g)
    nu0 = empirical_measure(a_gradient(phi))
    dists = []
    for res in (257, 1025):
        tiled = scale_and_tile(phi, 1, unit_grid_1d(res))
        nu = empirical_measure(a_gradient(tiled))
        dists.append(float(coordinate_quantile_distance(nu0, nu).max()))
    assert dists[1] <= dists[0] + 1e-12


def test_scale_and_tile_rejects_bad_source():
    g = Grid(((0.0, 1.0),), (17,), SV2)
    phi = GridField.zeros(g)
    with pytest.raises(ValueError, match="Q ="):
        scale_and_tile(phi, 1, g)
    q = unit_grid_1d(33)
    loose = GridField.from_function(q, lambda x: np.ones_like(x))
    with pytest.raises(ValueError, match="collar"):
        scale_and_tile(loose, 1, q)


def test_scale_and_tile_too_coarse():
    g = unit_grid_1d(65)
    phi = bump_1d(g)
    with pytest.raises(RuntimeError, match="coarse"):
        scale_and_tile(phi, 5, unit_grid_1d(17))


def test_jensen_gap_convex_from_tiles():
    g = unit_grid_1d(65)
    phi = bump_1d(g)
    F = builtin("pnorm", p=2, n=1, m=1)
    # hull wide enough for the tiled gradients
    amax = float(np.abs(a_gradient(phi).values).max()) * 1.2 + 1.0
    table = tabulate_envelope(F, (2,), [(-amax, amax, 17)],
                              EnvelopeOptions(resolution=17, multistart=2, seed=1))
    tiled = scale_and_tile(phi, 1, unit_grid_1d(257))
    nu = empirical_measure(a_gradient(tiled))
    assert jensen_gap(nu, F, table) >= -1e-8


def test_jensen_gap_single_atom():
    F = builtin("pnorm", p=2, n=1, m=1)
    table = tabulate_envelope(F, (2,), [(-2.0, 2.0, 17)],
                              EnvelopeOptions(resolution=17, multistart=2, seed=2))
    nu = EmpiricalMeasure(np.array([[[0.75]]]), np.array([1.0]))
    gap = jensen_gap(nu, F, table)
    assert gap >= -1e-10  # table envelope never exceeds the integrand at atoms


def test_jensen_gap_double_well_minimizing_sequence():
    # necessity duality holds against the tabulated envelope only when the
    # table is at least as converged as the measure's generator, so the table
    # gets the refinement ladder and the witness a flat single-level run
    F = builtin("double_well", w=1.0, n=1, m=1)
    table = tabulate_envelope(F, (2,), [(-2.0, 2.0, 21)],
                              EnvelopeOptions(resolution=129, multistart=8, maxiter=2000, seed=3),
                              levels=(17, 33, 65, 129))
    from mixvar.envelope import dacorogna_min

    est = dacorogna_min(F, 0.0, (2,), EnvelopeOptions(resolution=65, multistart=8,
                                                      maxiter=800, seed=4))
    nu = empirical_measure(a_gradient(est.witness))
    gap = jensen_gap(nu, F, table)
    # both sides sit at the envelope's flat bottom, so the certification
    # scale is the optimizer slack of the tabulation, about 5e-3 here
    assert -5e-3 <= gap <= 0.1


def test_decompose_recombination():
    g = unit_grid_1d(65)
    rng = np.random.default_rng(5)
    fields = [GridField(g, smooth_noise(g, 1, rng)).with_zero_collar() for _ in range(5)]
    osc, conc, report = decompose(fields)
    for u, gfield, resid in zip(fields, osc, conc):
        W = full_gradient(u).values
        Wg = full_gradient(gfield).values
        assert np.max(np.abs(W - (Wg + resid))) <= 1e-10 * (1 + np.max(np.abs(W)))


def test_decompose_smooth_sequence_no_concentration():
    g = unit_grid_1d(65)
    fields = [
        GridField.from_function(g, lambda x, s=s: 0.1 * s * (1 - x**2) ** 3).with_zero_collar()
        for s in (1.0, 0.9, 0.8)
    ]
    # start the truncation schedule above the field scale so it never bites
    osc, conc, report = decompose(fields)
    for frac in report.concentration_fraction[1:]:
        assert frac <= 1e-6
    for resid in conc[1:]:
        assert np.max(np.abs(resid)) <= 1e-8


def test_decompose_spike_routed_to_concentration():
    g = unit_grid_1d(257)
    x = g.axes()[0]
    vals = np.zeros(g.shape + (1,))
    # tall thin spike away from the boundary
    spike = 1e4 * np.exp(-((x - 0.1) ** 2) / 1e-4)
    vals[:, 0] = spike
    u = GridField(g, vals).with_zero_collar()
    fields = [u]
    osc, conc, report = decompose(fields, p=2.0)
    W = full_gradient(u).values
    total = float(np.sum(W**2))
    routed = float(np.sum(conc[0] ** 2))
    assert routed >= 0.95 * total


def test_decompose_zero_sequence():
    g = unit_grid_1d(33)
    osc, conc, report = decompose([GridField.zeros(g)])
    assert np.all(osc[0].values == 0)
    assert np.all(conc[0] == 0)


def test_approximate_gradient_jensen_stability():
    g = unit_grid_1d(65)
    phi = bump_1d(g)
    F = builtin("pnorm", p=2, n=1, m=1)
    amax = float(np.abs(a_gradient(phi).values).max()) * 1.5 + 1.0
    table = tabulate_envelope(F, (2,), [(-amax, amax, 17)],
                              EnvelopeOptions(resolution=17, multistart=2, seed=7))
    nu_exact = empirical_measure(a_gradient(phi))
    # the gradients plus noise of discrete L^2 norm 1e-3
    W = a_gradient(phi).values
    noise = np.random.default_rng(8).standard_normal(W.shape)
    V = W + noise * (1e-3 / np.sqrt(np.sum(noise**2) * phi.grid.quad_weight))
    k = phi.grid.n_interior
    nu_pert = EmpiricalMeasure(V.reshape(k, 1, 1), np.full(k, 1.0 / k))
    g0 = jensen_gap(nu_exact, F, table)
    g1 = jensen_gap(nu_pert, F, table)
    assert abs(g1 - g0) <= 1e-2


def test_sliced_wasserstein_basic():
    rng = np.random.default_rng(9)
    atoms = rng.normal(size=(100, 1, 2))
    w = np.full(100, 0.01)
    nu = EmpiricalMeasure(atoms, w)
    assert sliced_wasserstein(nu, nu) == 0.0
    shifted = EmpiricalMeasure(atoms + np.array([[1.0, 0.0]]), w)
    d = sliced_wasserstein(nu, shifted, directions=64, seed=10)
    assert 0.5 <= d <= 1.0 + 1e-9
