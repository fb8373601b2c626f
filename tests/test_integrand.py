from dataclasses import replace

import numpy as np
import pytest

from mixvar import integrand
from mixvar.integrand import Integrand, builtin, builtin_from_config, grad_check, minus_power, shifted


def test_pantographic_value():
    F = builtin("pantographic")
    assert F(np.array([[1.0, 2.0]])) == pytest.approx(5.0)


def test_double_well_wells_are_zeros():
    F = builtin("double_well", col=0, w=1.0, n=1, m=3)
    for s in (+1.0, -1.0):
        V = np.zeros((1, 3))
        V[0, 0] = s
        assert F(V) == pytest.approx(0.0, abs=1e-15)
    rng = np.random.default_rng(0)
    Vs = rng.normal(size=(200, 1, 3))
    vals = F(Vs)
    assert np.all(vals >= 0)
    # zeros exactly at the wells: positivity off the well set
    off = np.abs(Vs[:, 0, 0] ** 2 - 1.0) + np.sum(Vs[:, 0, 1:] ** 2, axis=-1)
    assert np.all(vals[off > 1e-6] > 0)


def test_pnorm_gradient_and_fd_check():
    F = builtin("pnorm", p=2, n=1, m=2)
    V = np.array([[0.3, -1.1]])
    assert np.allclose(F.gradient(V), 2 * V)
    assert grad_check(F) <= 1e-6


def test_double_well_fd_check():
    F = builtin("double_well", col=0, w=1.0, n=1, m=2)
    assert grad_check(F) <= 1e-4


def test_grad_check_negative_control():
    def ev(V):
        return np.sum(V**2, axis=(-2, -1))

    def bad_grad(V):
        return 3.0 * V  # should be 2V

    with pytest.raises(ValueError, match="disagrees"):
        Integrand(ev, 1, 2, 2.0, grad=bad_grad, name="broken")
    # constructing without registration safety: check the reported error
    F = Integrand(ev, 1, 2, 2.0, grad=None, name="no-grad")
    F.grad = bad_grad
    assert grad_check(F) > 0.1


def test_a_nan_gradient_fails_registration():
    def ev(V):
        return np.sum(V**2, axis=(-2, -1))

    with pytest.raises(ValueError, match="relative error inf"):
        Integrand(ev, 1, 2, 2.0, grad=lambda V: np.full(V.shape, np.nan), name="nan-grad")


def per_sample_grad_check(F):
    """grad_check as a loop over one point at a time: the reference of the batched check."""
    rng = np.random.default_rng(integrand._CHECK_SEED)
    worst, got, tries = 0.0, 0, 0
    while got < integrand._CHECK_SAMPLES:
        tries += 1
        if tries > 50 * integrand._CHECK_SAMPLES:
            raise RuntimeError("could not sample enough finite points for grad_check")
        if F.check_points is None:
            V, h = rng.normal(size=(F.n, F.m)), None
        else:
            V, h = F.check_points(rng)
        if not np.isfinite(F(V)):
            continue
        got += 1
        g = np.asarray(F.grad(V), dtype=float)
        err = float(np.linalg.norm(g - integrand._fd_gradient(F, V, h)) / (1.0 + np.linalg.norm(g)))
        worst = max(worst, err if np.isfinite(err) else np.inf)
    return worst


def half_plane_square(V):
    """|V|^2 where V[0, 0] > 0, +inf elsewhere: half of the draws are resampled."""
    return np.where(V[..., 0, 0] > 0.0, np.sum(V**2, axis=(-2, -1)), np.inf)


def sparse(period, first):
    """F finite only on draws first, first + period, ... (from 0): check_points numbers its draws."""
    def check_points(rng):
        draws.append(len(draws))
        return np.array([[draws[-1] + 0.5]]), 0.1

    def ev(V):
        return np.where(np.floor(V[..., 0, 0]) % period == first, V[..., 0, 0] ** 2, np.inf)

    draws = []
    F = Integrand(ev, 1, 1, 2.0, name="sparse")
    F.grad, F.check_points = (lambda V: 2.0 * V), check_points
    return F, draws


def test_the_batched_grad_check_equals_the_per_sample_loop():
    from mixvar.envelope import EnvelopeTable

    pnorm = builtin("pnorm", p=2.0, n=1, m=1)
    table = EnvelopeTable((2,), 1, 2, 2.0, ((-2.0, 2.0, 9), (-1.0, 1.0, 5)),
                          np.random.default_rng(7).random(45), None, {"C_upper": 1.0})
    wrong = Integrand(lambda V: np.sum(V**3, axis=(-2, -1)), 2, 2, 3.0, name="wrong")
    wrong.grad = lambda V: 2.0 * V
    nan = Integrand(lambda V: np.sum(V**2, axis=(-2, -1)), 1, 2, 2.0, name="nan")
    nan.grad = lambda V: np.where(V > 1.0, np.nan, 2.0 * V)
    cases = [builtin("pnorm", p=3.0, n=2, m=2), builtin("double_well", col=1, w=1.0, n=2, m=3),
             builtin("pantographic"), table.as_integrand(), table.as_integrand(fallback=pnorm),
             Integrand(half_plane_square, 1, 2, 2.0, grad=lambda V: 2.0 * V, name="half"),
             wrong, nan]
    for F in cases:
        assert grad_check(F) == per_sample_grad_check(F), F.name
    assert grad_check(wrong) > 0.1 and grad_check(nan) == np.inf


@pytest.mark.parametrize("first, last_draw", [(0, 951), (49, 1000)])
def test_the_batched_grad_check_keeps_the_finite_draws_of_the_stream(first, last_draw):
    # the twentieth finite draw is draw 951 or 1000, the last one the cap allows
    F, draws = sparse(50, first)
    ref, ref_draws = sparse(50, first)
    assert grad_check(F) == per_sample_grad_check(ref)
    assert len(draws) == len(ref_draws) == last_draw


def test_the_batched_grad_check_stops_at_the_retry_cap_as_the_loop_does():
    # nineteen finite draws among the first 1000 (the twentieth would be draw
    # 1008): both raise after 1000 draws
    F, draws = sparse(53, 0)
    ref, ref_draws = sparse(53, 0)
    for check in (grad_check, per_sample_grad_check):
        with pytest.raises(RuntimeError, match="could not sample"):
            check(F if check is grad_check else ref)
    assert len(draws) == len(ref_draws) == 1000
    inf = Integrand(lambda V: np.full(V.shape[:-2], np.inf), 1, 1, 2.0, name="inf")
    inf.grad = lambda V: 2.0 * V
    with pytest.raises(RuntimeError, match="could not sample"):
        grad_check(inf)


def test_an_integrand_that_is_nan_at_a_growth_sample_fails_registration():
    def ev(V):
        return np.where(V[..., 0, 0] > 2, np.nan, (V**2).sum(axis=(-2, -1)))

    with pytest.raises(ValueError, match="'nan-well' is NaN"):
        Integrand(ev, 1, 1, 2.0, C_upper=1.0, name="nan-well")
    with pytest.raises(ValueError, match="exceeds declared C_upper"):
        Integrand(lambda V: np.where(np.isnan(ev(V)), np.inf, ev(V)), 1, 1, 2.0, C_upper=1.0)


@pytest.mark.parametrize("grad, hull_exact, check", [
    (lambda V: 2.0 * V, None, "gradient"),
    (lambda V: 2.0 * V, integrand._everywhere, "gradient"),
    (None, integrand._everywhere, "tangent-plane"),
])
def test_an_integrand_that_is_nan_at_a_registration_sample_fails_registration(grad, hull_exact,
                                                                                check):
    # without C_upper there is no growth check; the gradient check used to
    # resample NaN draws and the tangent-plane check to skip NaN pairs, so
    # this F registered, and with its certificate took F(V) = NaN at V = 2
    def ev(V):
        return np.where(V[..., 0, 0] > 1, np.nan, (V**2).sum(axis=(-2, -1)))

    with pytest.raises(ValueError, match=f"'nan-bowl' is NaN at a point of the sampled {check}"):
        Integrand(ev, 1, 1, 2.0, grad=grad, name="nan-bowl", hull_exact=hull_exact)
    # +inf draws are still resampled, and +inf pairs still skipped; central
    # differences that reach the +inf region take inf - inf
    with np.errstate(invalid="ignore"):
        F = Integrand(lambda V: np.where(np.isnan(ev(V)), np.inf, ev(V)), 1, 1, 2.0, grad=grad,
                      hull_exact=hull_exact)
    assert F(np.array([[2.0]])) == np.inf


def test_c_upper_sampling_rejects_undersized_bound():
    def ev(V):
        return 10.0 * np.sum(V**2, axis=(-2, -1))

    with pytest.raises(ValueError, match="C_upper"):
        Integrand(ev, 1, 2, 2.0, C_upper=1.0, name="understated")


def test_quadratic_requires_spd():
    with pytest.raises(ValueError, match="SPD"):
        builtin("quadratic", A=[[1.0, 0.0], [0.0, -1.0]], n=1, m=2)
    with pytest.raises(ValueError):
        builtin("quadratic", A=[[1.0, 2.0], [0.0, 1.0]], n=1, m=2)
    F = builtin("quadratic", A=[[2.0, 0.5], [0.5, 1.0]], n=1, m=2)
    V = np.array([[1.0, 1.0]])
    assert F(V) == pytest.approx(2.0 + 1.0 + 1.0)


def test_unknown_name():
    with pytest.raises(ValueError, match="unknown"):
        builtin("does_not_exist")


def test_a_parameter_the_integrand_does_not_read_is_an_error():
    # "W" for double_well's w would otherwise run silently with w = 1
    with pytest.raises(ValueError, match="'W'"):
        builtin("double_well", W=2.0, n=1, m=1)
    with pytest.raises(ValueError, match="'shift'"):
        builtin_from_config({"integrand": {"name": "pantographic", "params": {"shift": 1}}})
    assert builtin("double_well", w=2.0, n=1, m=1).params["w"] == 2.0


@pytest.mark.parametrize("name, params, key", [
    ("double_well", {"w": True}, "'w'"),
    ("double_well", {"n": 1.0}, "'n'"),
    ("pnorm", {"p": "3"}, "'p'"),
    ("constant", {"c": float("nan")}, "'c'"),
    # counts and the exponent of W^{a,p} are at least 1
    ("pnorm", {"p": 2.0, "n": 0}, "'n'"),
    ("double_well", {"n": 1, "m": 0}, "'m'"),
    ("pnorm", {"p": 0.5}, "'p'"),
    ("constant", {"c": 1.0, "p": -1.0}, "'p'"),
])
def test_a_parameter_of_the_wrong_type_is_an_error(name, params, key):
    # a bool, a string or a float is not coerced to the number or integer it reads as
    with pytest.raises(ValueError, match=key):
        builtin(name, **params)


def test_shifted_identity_at_zero():
    F = builtin("double_well", col=0, w=1.0, n=1, m=2)
    G = shifted(F, np.zeros((1, 2)))
    rng = np.random.default_rng(1)
    Vs = rng.normal(size=(100, 1, 2))
    assert np.allclose(G(Vs), F(Vs))


def test_minus_power_identity_at_zero_coefficient():
    F = builtin("pnorm", p=4, n=1, m=1)
    G = minus_power(F, 0.0, 2.0)
    rng = np.random.default_rng(2)
    Vs = rng.normal(size=(100, 1, 1))
    assert np.allclose(G(Vs), F(Vs))


def test_minus_power_rejects_q_above_p():
    F = builtin("pnorm", p=2, n=1, m=1)
    with pytest.raises(ValueError):
        minus_power(F, 1.0, 4.0)


def test_constant_integrand():
    F = builtin("constant", c=2.5, n=1, m=2)
    rng = np.random.default_rng(3)
    assert np.allclose(F(rng.normal(size=(10, 1, 2))), 2.5)
    assert np.allclose(F.gradient(np.ones((1, 2))), 0.0)


def test_config_roundtrip():
    cfg = {"integrand": {"name": "double_well", "params": {"col": 0, "w": 1.0, "n": 1, "m": 1}}}
    F = builtin_from_config(cfg)
    assert F.name == "double_well"
    assert F(np.array([[1.0]])) == pytest.approx(0.0)
    nested = {
        "integrand": {
            "name": "minus_power",
            "params": {"base": {"name": "pnorm", "params": {"p": 2, "n": 1, "m": 2}},
                        "c": 0.5, "q": 2.0},
        }
    }
    G = builtin_from_config(nested)
    V = np.array([[1.0, 1.0]])
    assert G(V) == pytest.approx(2.0 - 0.5 * 2.0)


def test_fd_gradient_fallback():
    def ev(V):
        return np.sum(V**4, axis=(-2, -1))

    F = Integrand(ev, 1, 2, 4.0, name="quartic")
    V = np.array([[0.5, -0.7]])
    fd = F.gradient(V)
    assert np.allclose(fd, 4 * V**3, atol=1e-6)


def test_builtin_certificates_mark_where_f_is_its_convex_envelope():
    V = np.array([[[-2.0, 0.5]], [[-1.0, 0.0]], [[0.3, 4.0]], [[0.99, -1.0]], [[1.0, 9.0]]])
    well = builtin("double_well", col=0, w=1.0, n=1, m=2)
    assert well.hull_exact(V).tolist() == [True, True, False, False, True]
    # a negative w has the same wells
    assert builtin("double_well", col=1, w=-1.0, n=1, m=2).hull_exact(V).tolist() == [
        False, False, True, True, True]
    # the shift moves the certified set with it
    X0 = np.array([[0.5, 0.0]])
    assert shifted(well, X0).hull_exact(V).tolist() == well.hull_exact(X0 + V).tolist()
    for F in (builtin("pnorm", p=1.0, n=1, m=2), builtin("pantographic"),
              builtin("quadratic", A=[[2.0, 0.3], [0.3, 1.0]], n=1, m=2),
              builtin("constant", c=-1.0, n=1, m=2, p=2.0)):
        assert F.hull_exact(V).tolist() == [True] * 5
    # no certificate where none is known
    assert minus_power(builtin("pnorm", p=2.0, n=1, m=2), 0.5, 2.0).hull_exact is None
    assert shifted(minus_power(well, 0.5, 2.0), X0).hull_exact is None


def test_a_false_certificate_fails_registration():
    well = builtin("double_well", w=1.0, n=1, m=1)
    for wrong in (lambda V: np.ones(V.shape[:-2], dtype=bool),
                  lambda V: np.abs(V[..., 0, 0]) >= 0.9):
        with pytest.raises(ValueError, match="hull_exact.*tangent plane"):
            replace(well, hull_exact=wrong)
    # the certificate of the well in column 1, asked of column 0
    with pytest.raises(ValueError, match="hull_exact"):
        replace(builtin("double_well", col=1, w=1.0, n=1, m=2),
                hull_exact=lambda V: np.abs(V[..., 0, 0]) >= 1.0)
    # a certificate that is right on its samples registers, with or without an
    # analytic gradient
    replace(well, hull_exact=lambda V: np.abs(V[..., 0, 0]) >= 1.0)
    replace(well, grad=None, hull_exact=lambda V: np.abs(V[..., 0, 0]) >= 1.0)
