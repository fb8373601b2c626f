import warnings
from dataclasses import replace

import numpy as np
import pytest

from mixvar.coercivity import (
    ThetaCurve,
    ThetaOptions,
    mean_coercivity_fit,
    strong_qc_test,
    theta_estimate,
)
from mixvar.envelope import EnvelopeOptions, dacorogna_min
from mixvar.integrand import builtin


T_GRID = [0.0, 1.0, 2.0, 3.0, 4.0]


def test_theta_pnorm_matches_identity():
    # objective and constraint coincide, so theta(t) = t on the nose
    F = builtin("pnorm", p=2, n=1, m=2)
    curve = theta_estimate(F, 2.0, T_GRID, (1, 2), ThetaOptions(seed=1, multistart=2))
    for t, th in zip(curve.t_values, curve.theta_hat):
        assert th >= t - 1e-9
        assert th <= t * (1 + 1e-6) + 1e-12
    for d in curve.diagnostics:
        assert d["feasibility_gap"] <= 1e-9


def test_theta_zero_integrand():
    Z = builtin("constant", c=0.0, n=1, m=2)
    curve = theta_estimate(Z, 2.0, T_GRID, (1, 2), ThetaOptions(seed=2, multistart=2))
    assert np.allclose(curve.theta_hat, 0.0, atol=1e-12)


def test_theta_is_nondecreasing():
    F = builtin("double_well", w=1.0, n=1, m=1)
    curve = theta_estimate(F, 2.0, T_GRID, (2,), ThetaOptions(resolution=33, seed=3))
    assert np.all(np.diff(curve.theta_hat) >= -1e-9)


def test_theta_double_well_midpoint_convexity():
    F = builtin("double_well", w=1.0, n=1, m=1)
    curve = theta_estimate(F, 2.0, T_GRID, (2,), ThetaOptions(resolution=33, seed=4))
    th = curve.theta_hat
    assert np.all(np.isfinite(th))
    for i in range(1, len(th) - 1):
        defect = th[i] - 0.5 * (th[i - 1] + th[i + 1])
        assert defect <= 0.1 * (1 + abs(th[i]))


def test_theta_zero_point_bounded_by_envelope():
    F = builtin("double_well", w=1.0, n=1, m=1)
    opts = ThetaOptions(resolution=33, seed=5)
    curve = theta_estimate(F, 2.0, [0.0, 0.5, 1.0], (2,), opts)
    est = dacorogna_min(F, 0.0, (2,), EnvelopeOptions(resolution=33, multistart=6, seed=5))
    assert curve.theta_hat[0] <= est.value + 1e-9


def record_theta_batches(monkeypatch):
    """(t, labels, results) of every batch theta_estimate descends."""
    from mixvar import coercivity

    batches = []
    descend = coercivity.screen_then_polish

    def recorded(energy, X0, labels, *args, **kwargs):
        results = descend(energy, X0, labels, *args, **kwargs)
        batches.append((energy.t, list(labels), results))
        return results

    monkeypatch.setattr(coercivity, "screen_then_polish", recorded)
    return batches


def test_theta_drops_a_start_of_zero_moment_when_t_is_positive(monkeypatch):
    # multistart 1 draws no portfolio start, so t = 0 descends from the zero
    # candidate alone; the zero field that wins there has no retraction as
    # the warm start of t = 0.5
    import warnings

    batches = record_theta_batches(monkeypatch)
    F = builtin("double_well", w=1.0, n=1, m=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = theta_estimate(F, 2.0, [0.0, 0.5, 1.0], (2,),
                               ThetaOptions(resolution=17, multistart=1, seed=12))
    assert np.all(np.isfinite(curve.theta_hat))
    assert [labels for _, labels, _ in batches] == [
        ["candidate"], ["candidate"], ["candidate", "warm"]]


def test_theta_pnorm_points_above_zero_end_in_two_iterations(monkeypatch):
    # criterion 5's curve: G_t is the constant t below the moment t, so every
    # start is done once it is retracted; without the certificate t = 0
    # descends too
    batches = record_theta_batches(monkeypatch)
    F = replace(builtin("pnorm", p=2, n=1, m=2), hull_exact=None)
    curve = theta_estimate(F, 2.0, T_GRID, (1, 2), ThetaOptions(seed=51, multistart=2))
    for t, th in zip(curve.t_values, curve.theta_hat):
        assert abs(th - t) <= 1e-14 * (1 + t)
    assert [t for t, _, _ in batches] == T_GRID
    for _, _, results in batches[1:]:
        assert max(res.iterations for res in results) <= 2


def test_a_certified_theta_zero_point_takes_the_zero_field_without_a_descent(monkeypatch):
    # pnorm is convex, so theta(0) = F(0): the zero candidate wins without a
    # batch at t = 0, and every point equals the uncertified curve's, whose
    # portfolio draws are the same, but for the t = 0 iterations
    batches = record_theta_batches(monkeypatch)
    F = builtin("pnorm", p=2, n=1, m=2)
    opts = ThetaOptions(seed=51, multistart=2)
    curve = theta_estimate(F, 2.0, T_GRID, (1, 2), opts)
    assert [t for t, _, _ in batches] == T_GRID[1:]
    plain = theta_estimate(replace(F, hull_exact=None), 2.0, T_GRID, (1, 2), opts)
    assert curve.theta_hat.tolist() == plain.theta_hat.tolist()
    assert curve.diagnostics[0]["iterations"] == 0 < plain.diagnostics[0]["iterations"]
    curve.diagnostics[0]["iterations"] = plain.diagnostics[0]["iterations"]
    assert curve.diagnostics == plain.diagnostics


def test_theta_warm_start_is_done_after_one_evaluation(monkeypatch):
    # criterion 5's curve: the previous incumbent lies strictly inside the
    # region the retraction lifts, where G_t is flat, so its first gradient
    # is zero; an incumbent put on the kink m = t fails a line search there
    batches = record_theta_batches(monkeypatch)
    F = builtin("pnorm", p=2, n=1, m=2)
    theta_estimate(F, 2.0, T_GRID, (1, 2), ThetaOptions(seed=51, multistart=2))
    warm = [(t, res.nfev) for t, _, results in batches for res in results
            if res.start_label == "warm" and t >= 2]
    assert warm == [(2.0, 1), (3.0, 1), (4.0, 1)]


def test_theta_rejects_bad_q():
    F = builtin("pnorm", p=2, n=1, m=1)
    with pytest.raises(ValueError):
        theta_estimate(F, 4.0, T_GRID, (2,))
    with pytest.raises(ValueError):
        theta_estimate(F, 0.5, T_GRID, (2,))


def test_theta_domain_invariance_spot_check():
    F = builtin("pnorm", p=2, n=1, m=2)
    base = theta_estimate(F, 2.0, [0.0, 1.0, 2.0], (1, 2), ThetaOptions(seed=6, multistart=2))
    rect = theta_estimate(
        F, 2.0, [0.0, 1.0, 2.0], (1, 2),
        ThetaOptions(seed=6, multistart=2, domain=((-0.5, 1.5), (-2.0, 0.0))),
    )
    for a, b in zip(base.theta_hat[1:], rect.theta_hat[1:]):
        assert abs(a - b) <= 0.1 * (1 + abs(a))


def test_fit_affine_data_is_exact():
    t = np.array([0.0, 1.0, 2.0, 3.0])
    curve = ThetaCurve(2.0, t, t + 5.0)
    fit = mean_coercivity_fit(curve)
    assert fit.c1 == pytest.approx(1.0, abs=1e-12)
    assert fit.c2 == pytest.approx(5.0, abs=1e-12)
    assert fit.coercive


def test_fit_of_a_curve_at_large_t_reads_the_last_edge_without_overflow():
    # a double-well curve at t up to 1e150: the cross products of the hull
    # test overflow to inf there, and inf >= inf dropped the middle point
    t = np.array([0.0, 5e149, 1e150])
    theta = np.array([0.046957616680236805, 2.6231781962221536e+299, 1.0492712784888616e+300])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fit = mean_coercivity_fit(ThetaCurve(2.0, t, theta))
    assert fit.c1 == (theta[2] - theta[1]) / (t[2] - t[1])
    assert fit.c1 == pytest.approx(1.574e150, rel=1e-3)


def test_fit_pnorm_slope_near_one():
    F = builtin("pnorm", p=2, n=1, m=2)
    curve = theta_estimate(F, 2.0, T_GRID, (1, 2), ThetaOptions(seed=7, multistart=2))
    fit = mean_coercivity_fit(curve)
    assert 0.9 <= fit.c1 <= 1.1
    assert fit.coercive


def test_fit_zero_integrand_not_coercive():
    Z = builtin("constant", c=0.0, n=1, m=2)
    curve = theta_estimate(Z, 2.0, T_GRID, (1, 2), ThetaOptions(seed=8, multistart=2))
    fit = mean_coercivity_fit(curve)
    assert fit.c1 == 0.0
    assert not fit.coercive


@pytest.mark.parametrize("c_min", [0.0, -1.0])
def test_fit_rejects_a_threshold_that_is_not_positive(c_min):
    # slopes are clamped at zero, so c_min <= 0 would call every curve coercive
    curve = ThetaCurve(2.0, np.array([0.0, 1.0, 2.0]), np.zeros(3))
    with pytest.raises(ValueError, match="c_min"):
        mean_coercivity_fit(curve, c_min=c_min)


def test_fit_needs_three_points():
    with pytest.raises(ValueError):
        mean_coercivity_fit(ThetaCurve(2.0, np.array([0.0, 1.0]), np.array([0.0, 1.0])))


def test_fit_minorizes_curve():
    rng = np.random.default_rng(9)
    t = np.linspace(0, 4, 9)
    th = t**2 / 4 + rng.uniform(0, 0.1, size=t.shape)  # convex-ish data
    curve = ThetaCurve(2.0, t, th)
    fit = mean_coercivity_fit(curve)
    assert np.all(fit.c1 * t + fit.c2 <= th + 1e-12)


def test_strong_qc_examples():
    F = builtin("pnorm", p=2, n=1, m=2)
    opts = EnvelopeOptions(resolution=17, multistart=4, maxiter=200, seed=10)
    V0 = np.zeros((1, 2))
    assert strong_qc_test(F, 0.5, 2.0, V0, (1, 2), opts).holds
    assert not strong_qc_test(F, 2.0, 2.0, V0, (1, 2), opts).holds
    Z = builtin("constant", c=0.0, n=1, m=2)
    assert not strong_qc_test(Z, 1.0, 2.0, V0, (1, 2), opts).holds
    with pytest.raises(ValueError):
        strong_qc_test(F, -1.0, 2.0, V0, (1, 2), opts)


def test_consistency_triangle():
    # the point criterion at (c, q, V0) forces a fitted slope >= 0.8 c
    F = builtin("pnorm", p=2, n=1, m=2)
    opts = EnvelopeOptions(resolution=17, multistart=4, maxiter=200, seed=11)
    c = 0.5
    assert strong_qc_test(F, c, 2.0, np.zeros((1, 2)), (1, 2), opts).holds
    curve = theta_estimate(F, 2.0, T_GRID, (1, 2), ThetaOptions(seed=11, multistart=2))
    fit = mean_coercivity_fit(curve)
    assert fit.c1 >= c * (1 - 0.2)
