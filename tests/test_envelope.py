from dataclasses import replace

import numpy as np
import pytest

from mixvar.envelope import (
    EnvelopeOptions,
    EnvelopeTable,
    dacorogna_min,
    dacorogna_refine,
    envelope_interpolate,
    is_aqc_at,
    tabulate_envelope,
)
from mixvar.integrand import builtin, shifted


def lower_convex_hull_1d(f, lo=-3.0, hi=3.0, k=10**4):
    """Independent envelope oracle: lower hull of dense samples, linear interp."""
    xs = np.linspace(lo, hi, k)
    ys = f(xs)
    hull = []
    for p in zip(xs, ys):
        while len(hull) >= 2 and (
            (hull[-1][1] - hull[-2][1]) * (p[0] - hull[-1][0])
            >= (p[1] - hull[-1][1]) * (hull[-1][0] - hull[-2][0])
        ):
            hull.pop()
        hull.append(p)
    hx = np.array([q[0] for q in hull])
    hy = np.array([q[1] for q in hull])
    return lambda x: np.interp(x, hx, hy)


FAST = EnvelopeOptions(resolution=17, multistart=4, maxiter=300, seed=0)


def test_convex_integrand_envelope_is_exact():
    F = builtin("pnorm", p=2, n=1, m=2)
    rng = np.random.default_rng(1)
    for _ in range(5):
        V = rng.uniform(-2, 2, size=(1, 2))
        est = dacorogna_min(F, V, (1, 2), FAST)
        assert abs(est.value - float(F(V))) <= 1e-10


def test_constant_integrand_envelope():
    F = builtin("constant", c=3.25, n=1, m=2)
    est = dacorogna_min(F, np.zeros((1, 2)), (1, 2), FAST)
    assert est.value == pytest.approx(3.25, abs=1e-12)


def test_envelope_requires_growth_bound():
    from mixvar.integrand import Integrand

    F = Integrand(lambda V: np.sum(V**2, axis=(-2, -1)), 1, 2, 2.0, name="nogrowth")
    with pytest.raises(ValueError, match="growth"):
        dacorogna_min(F, np.zeros((1, 2)), (1, 2), FAST)


def test_double_well_envelope_beats_raw_value():
    F = builtin("double_well", w=1.0, n=1, m=1)
    opts = EnvelopeOptions(resolution=65, multistart=8, maxiter=800, seed=2)
    est = dacorogna_min(F, 0.0, (2,), opts)
    assert est.value <= 0.05
    assert est.witness is not None


def test_is_aqc_convex_holds():
    F = builtin("pnorm", p=2, n=1, m=2)
    verdict = is_aqc_at(F, np.array([[0.5, -0.5]]), (1, 2), FAST)
    assert verdict.holds


def test_is_aqc_double_well_violated_with_witness():
    F = builtin("double_well", w=1.0, n=1, m=1)
    opts = EnvelopeOptions(resolution=65, multistart=8, maxiter=800, seed=3)
    verdict = is_aqc_at(F, 0.0, (2,), opts)
    assert not verdict.holds
    assert verdict.value < verdict.reference - opts.tol
    assert verdict.witness is not None
    # reproduce the violation from the witness
    from mixvar.grid import a_gradient

    W = a_gradient(verdict.witness).values
    energy = float(np.mean(F(W)))
    assert energy == pytest.approx(verdict.value, rel=1e-9)


def test_tabulate_convex_equals_integrand():
    F = builtin("pnorm", p=2, n=1, m=1)
    table = tabulate_envelope(F, (2,), [(-1.0, 1.0, 5)], FAST)
    expected = np.linspace(-1, 1, 5) ** 2
    assert np.allclose(table.values, expected, atol=1e-10)
    assert not table.failures.any()


def test_tabulate_constant():
    F = builtin("constant", c=-1.5, n=1, m=1, p=2)
    table = tabulate_envelope(F, (2,), [(-1.0, 1.0, 4)], FAST)
    assert np.allclose(table.values, -1.5, atol=1e-12)


def test_envelope_interpolation():
    F = builtin("pnorm", p=2, n=1, m=1)
    table = tabulate_envelope(F, (2,), [(-1.0, 1.0, 5)], FAST)
    # node query is exact
    assert envelope_interpolate(table, np.array([0.5])) == pytest.approx(0.25, abs=1e-12)
    # midpoint of two nodes is their average
    v = envelope_interpolate(table, np.array([0.25]))
    assert v == pytest.approx((0.0 + 0.25) / 2, abs=1e-12)
    with pytest.raises(ValueError, match="hull"):
        envelope_interpolate(table, np.array([1.5]))


def test_mesh_monotonicity_refinement():
    F = builtin("double_well", w=1.0, n=1, m=1)
    opts = EnvelopeOptions(multistart=8, maxiter=1500, seed=4)
    values, est = dacorogna_refine(F, 0.0, (2,), levels=(17, 33, 65), opts=opts)
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-10


def test_translation_covariance():
    F = builtin("double_well", w=1.0, n=1, m=1)
    opts = EnvelopeOptions(resolution=65, multistart=6, maxiter=800, seed=5)
    # where the estimator is exact (zero start wins) covariance holds to tol
    X0 = np.array([[0.9]])
    V = np.array([[0.6]])
    a = dacorogna_min(shifted(F, X0), V, (2,), opts)
    b = dacorogna_min(F, X0 + V, (2,), opts)
    assert abs(a.value - b.value) <= 2 * opts.tol
    # inside the well the two descents differ at ulp level and land in nearby
    # local minima; covariance holds at the estimator-slack scale
    X0 = np.array([[0.3]])
    V = np.array([[0.1]])
    a = dacorogna_min(shifted(F, X0), V, (2,), opts)
    b = dacorogna_min(F, X0 + V, (2,), opts)
    assert abs(a.value - b.value) <= 1e-2 * (1 + abs(b.value))


def test_envelope_idempotence_probe_convex():
    # converged table (convex case is exact); the interpolated envelope must
    # itself pass the pointwise quasiconvexity test at interior nodes
    F = builtin("pnorm", p=2, n=1, m=1)
    table = tabulate_envelope(F, (2,), [(-2.0, 2.0, 9)], FAST)
    G = table.as_integrand(fallback=F)
    for idx in (3, 4, 5):
        V = table.node_point((idx,))
        verdict = is_aqc_at(G, V, (2,), EnvelopeOptions(resolution=17, multistart=4, tol=1e-6, maxiter=300, seed=6))
        assert verdict.value >= verdict.reference - 3 * 1e-6


def test_envelope_idempotence_probe_double_well():
    # table convergence sets the certification scale: at desk resolution the
    # bottom values carry ~1e-3 optimizer slack, so the probe runs at that tol
    F = builtin("double_well", w=1.0, n=1, m=1)
    opts = EnvelopeOptions(resolution=65, multistart=8, maxiter=1200, seed=7)
    table = tabulate_envelope(F, (2,), [(-2.0, 2.0, 21)], opts)
    G = table.as_integrand(fallback=F)
    slack = 5e-3
    for idx in (5, 10, 15):
        V = table.node_point((idx,))
        verdict = is_aqc_at(G, V, (2,), EnvelopeOptions(resolution=33, multistart=6, tol=slack, maxiter=600, seed=8))
        assert verdict.value >= verdict.reference - 3 * slack


def test_qft_roundtrip(tmp_path):
    F = builtin("double_well", w=1.0, n=1, m=1)
    table = tabulate_envelope(F, (2,), [(-2.0, 2.0, 7)], FAST, meta={"config_hash": "xyz"})
    path = tmp_path / "t.qft"
    table.save(path)
    loaded = EnvelopeTable.load(path)
    assert np.array_equal(loaded.values, table.values)
    assert loaded.a == (2,)
    assert loaded.meta["config_hash"] == "xyz"
    assert loaded.lattice == table.lattice


def test_qft_byte_determinism(tmp_path):
    F = builtin("double_well", w=1.0, n=1, m=1)
    paths = []
    for run in range(2):
        table = tabulate_envelope(F, (2,), [(-2.0, 2.0, 5)], FAST)
        p = tmp_path / f"t{run}.qft"
        table.save(p)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_tabulate_propagates_programming_errors():
    # a ValueError is a bug, not a numerical failure: it must not become a
    # masked node; point evaluations (the exact F(V) reference) still work,
    # so only the descent at the lattice node V = 0 hits the fault
    F = builtin("double_well", w=1.0, n=1, m=1)

    def ev(V):
        if V.ndim > 2 and np.any(V == 0.0):
            raise ValueError("integrand bug")
        return F.eval(V)

    with pytest.raises(ValueError, match="integrand bug"):
        tabulate_envelope(replace(F, eval=ev), (2,), [(-2.0, 2.0, 5)], FAST)


def test_tabulate_failure_mask():
    # an integrand whose gradient explodes still yields a table with fallbacks
    F = builtin("pnorm", p=2, n=1, m=1)
    table = tabulate_envelope(F, (2,), [(-1.0, 1.0, 3)], FAST)
    assert table.failures.shape == (3,)
    assert not table.failures.any()
