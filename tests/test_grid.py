import numpy as np
import pytest

from mixvar.containers import FIELD_MAGIC, load_field, save_field
from mixvar.grid import (
    APolynomial,
    Grid,
    GridField,
    a_gradient,
    cutoff,
    full_gradient,
    lower_gradient,
    mixed_derivative,
    piecewise_gradient_approx,
    polynomial_approx,
    project_to_gradients,
    sobolev_norm,
    truncate,
)
from mixvar.smoothness import AnisoBox, SmoothnessVector


SV12 = SmoothnessVector((1, 2))


def grid12(counts=(33, 33), domain=((-1, 1), (-1, 1))):
    return Grid(domain, counts, SV12)


def random_zero_boundary(grid, rng, n=1, scale=1.0):
    vals = rng.normal(size=grid.shape + (n,)) * scale
    return GridField(grid, vals).with_zero_collar()


def test_grid_invariants():
    with pytest.raises(ValueError):
        Grid(((-1, 1),), (4,), SmoothnessVector((2,)))  # needs 2a+1 = 5
    with pytest.raises(ValueError):
        Grid(((1, -1),), (9,), SmoothnessVector((2,)))
    g = grid12()
    assert g.interior_shape == (32, 31)
    assert np.allclose(g.h, [2 / 32, 2 / 32])


def test_mixed_derivative_exact_on_monomials():
    g = grid12()
    fx = GridField.from_function(g, lambda x, y: x)
    d = mixed_derivative(fx, (1, 0))
    assert np.allclose(d, 1.0, atol=1e-12)
    fy2 = GridField.from_function(g, lambda x, y: y**2)
    d2 = mixed_derivative(fy2, (0, 2))
    assert np.allclose(d2, 2.0, atol=1e-10)
    zero = GridField.zeros(g)
    assert np.all(mixed_derivative(zero, (1, 0)) == 0)


def test_mixed_derivative_rejects_outside_lower_set():
    g = grid12()
    f = GridField.zeros(g)
    with pytest.raises(ValueError):
        mixed_derivative(f, (1, 1))  # pairing 3/2 > 1


def test_a_gradient_on_polynomial():
    g = grid12()
    f = GridField.from_function(g, lambda x, y: x + y**2)
    ag = a_gradient(f)
    assert ag.alphas == [(1, 0), (0, 2)]
    assert np.allclose(ag.values[..., 0, 0], 1.0, atol=1e-10)
    assert np.allclose(ag.values[..., 0, 1], 2.0, atol=1e-10)


def test_kernel_polynomial_has_zero_gradient():
    g = grid12()
    # span{1, y} for a=(1,2)
    f = GridField.from_function(g, lambda x, y: 3.0 - 2.0 * y)
    ag = a_gradient(f)
    assert np.allclose(ag.values, 0.0, atol=1e-12)


def test_gradient_column_counts():
    g = grid12()
    f = GridField.from_function(g, lambda x, y: np.sin(x) * np.cos(y))
    assert full_gradient(f).n_columns == 4
    assert lower_gradient(f).n_columns == 2
    assert a_gradient(f).n_columns == 2


def test_a_gradient_linearity():
    g = grid12((17, 17))
    rng = np.random.default_rng(0)
    f1 = random_zero_boundary(g, rng)
    f2 = random_zero_boundary(g, rng)
    lhs = a_gradient(GridField(g, 2.5 * f1.values - 1.25 * f2.values)).values
    rhs = 2.5 * a_gradient(f1).values - 1.25 * a_gradient(f2).values
    assert np.allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("a", [(1, 2), (2, 2), (1, 1, 3)])
def test_summation_by_parts(a):
    sv = SmoothnessVector(a)
    counts = tuple(max(9, 2 * ai + 3) for ai in a)
    g = Grid(tuple(((-1, 1),) * len(a)), counts, sv)
    rng = np.random.default_rng(42)
    phi = random_zero_boundary(g, rng)
    from mixvar.smoothness import lower_set

    for alpha in lower_set(sv):
        if all(x == 0 for x in alpha):
            continue
        d = mixed_derivative(phi, alpha)
        assert abs(d.sum()) <= 1e-12 * np.abs(d).sum()


def test_sobolev_norm_zero_field():
    g = grid12()
    z = GridField.zeros(g)
    for variant in ("pure", "hyperplane", "full"):
        assert sobolev_norm(z, 2.0, variant) == 0.0


def test_sobolev_norm_closed_form():
    # f(x,y) = x on [-1,1]^2: ||x||_2 = sqrt(4/3), ||d_x f||_2 = 2, d_yy f = 0
    g = Grid(((-1, 1), (-1, 1)), (4097, 33), SV12)
    f = GridField.from_function(g, lambda x, y: x)
    exact = np.sqrt(4.0 / 3.0) + 2.0
    got = sobolev_norm(f, 2.0, "pure")
    assert abs(got - exact) / exact < 0.01


def test_sobolev_norm_variants_mutually_bounded():
    g = grid12((17, 17))
    rng = np.random.default_rng(3)
    ratios = []
    for _ in range(50):
        f = random_zero_boundary(g, rng)
        norms = [sobolev_norm(f, 2.0, v) for v in ("pure", "hyperplane", "full")]
        for i in range(3):
            for j in range(3):
                ratios.append(norms[i] / norms[j])
    K = max(max(ratios), 1.0 / min(ratios))
    assert np.isfinite(K) and K < 100.0
    print(f"\nnorm-variant equivalence constant on this grid: K = {K:.3f}")


def test_sobolev_norm_rejects_bad_p():
    g = grid12((9, 9))
    f = GridField.zeros(g)
    with pytest.raises(ValueError):
        sobolev_norm(f, 1.0)
    with pytest.raises(ValueError):
        sobolev_norm(f, np.inf)


def test_truncate_examples():
    X = np.array([[[3.0, 4.0]]])  # 1 node, 1x2 matrix, |X| = 5
    assert np.allclose(truncate(X, 10.0), X)
    assert np.allclose(truncate(X, 1.0), [[[0.6, 0.8]]])
    with pytest.raises(ValueError):
        truncate(X, 0.0)


def test_truncate_idempotent_and_nonexpansive():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(50, 2, 3)) * 3
    Y = rng.normal(size=(50, 2, 3)) * 3
    for k in (0.5, 1.0, 2.0):
        tX = truncate(X, k)
        assert np.allclose(truncate(tX, k), tX, atol=1e-14)
        dn = np.sqrt(np.sum((truncate(X, k) - truncate(Y, k)) ** 2, axis=(-2, -1)))
        d = np.sqrt(np.sum((X - Y) ** 2, axis=(-2, -1)))
        assert np.all(dn <= d * (1 + 1e-12))


def test_project_to_gradients_recovers_field():
    g = grid12((17, 17))
    rng = np.random.default_rng(5)
    w = random_zero_boundary(g, rng)
    V = full_gradient(w).values
    u, residual = project_to_gradients(g, V)
    assert np.max(np.abs(u.values - w.values)) <= 1e-8 * (1 + np.max(np.abs(w.values)))
    assert np.max(np.abs(residual)) <= 1e-8 * (1 + np.max(np.abs(V)))


def test_project_to_gradients_zero():
    g = grid12((9, 9))
    V = np.zeros(g.interior_shape + (1, 4))
    u, residual = project_to_gradients(g, V)
    assert np.all(u.values == 0)
    assert np.all(residual == 0)


def test_project_to_gradients_residual_orthogonality():
    g = grid12((17, 17))
    rng = np.random.default_rng(6)
    V = rng.normal(size=g.interior_shape + (1, 4))
    u, residual = project_to_gradients(g, V)
    scale = np.linalg.norm(residual) + 1e-30
    for _ in range(10):
        phi = random_zero_boundary(g, rng)
        G = full_gradient(phi).values
        inner = float(np.sum(residual * G))
        assert abs(inner) <= 1e-8 * scale * (np.linalg.norm(G) + 1)


def test_project_to_gradients_idempotent():
    g = grid12((17, 17))
    rng = np.random.default_rng(8)
    V = rng.normal(size=g.interior_shape + (1, 4))
    u1, _ = project_to_gradients(g, V)
    u2, r2 = project_to_gradients(g, full_gradient(u1).values)
    assert np.max(np.abs(u1.values - u2.values)) <= 1e-9
    assert np.max(np.abs(r2)) <= 1e-9


def test_cutoff_basic_geometry():
    g = Grid(((-1.2, 1.2), (-1.2, 1.2)), (129, 129), SV12)
    box = AnisoBox((0.0, 0.0), 1.0, SV12)
    eta = cutoff(box, 0.25, g)
    mesh = np.stack(g.meshgrid(), axis=-1)
    center_idx = tuple(c // 2 for c in g.shape)
    assert eta.values[center_idx][0] == pytest.approx(1.0)
    outside = ~box.contains(mesh)
    assert np.max(np.abs(eta.values[..., 0][outside])) == 0.0
    assert np.all((eta.values >= 0) & (eta.values <= 1))
    with pytest.raises(ValueError):
        cutoff(box, 0.6, g)
    with pytest.raises(ValueError):
        cutoff(AnisoBox((0.0, 0.0), 2.0, SV12), 0.25, g)  # box escapes the domain


def test_cutoff_derivative_scaling_uniform_in_sigma():
    # measured sup of the second y-derivative times sigma^2 stays within factor 2
    g = Grid(((-1.1, 1.1), (-1.1, 1.1)), (65, 1025), SV12)
    box = AnisoBox((0.0, 0.0), 1.0, SV12)
    consts = []
    for sigma in (0.25, 0.125, 0.0625):
        eta = cutoff(box, sigma, g)
        d = mixed_derivative(eta, (0, 2))
        consts.append(np.max(np.abs(d)) * sigma**2)
    assert max(consts) / min(consts) <= 2.0
    print(f"\ncutoff curvature constants (sigma-normalized): {np.round(consts, 3)}")


def test_polynomial_approx_reproduces_a_polynomial():
    g = grid12((33, 33))
    f = GridField.from_function(g, lambda x, y: 1.5 + 0.5 * y + x + y**2)
    box = AnisoBox((0.0, 0.0), 0.5, SV12)
    P, ratios = polynomial_approx(f, box)
    mesh = g.meshgrid()
    assert np.max(np.abs(P(*mesh) - f.values)) <= 1e-9
    grads = P.gradient_matrix(SV12)
    assert np.allclose(grads, [[1.0, 2.0]], atol=1e-9)


def test_polynomial_approx_gradient_average():
    # f = x + y^2 has constant gradient (1, 2); the box average matches
    g = grid12((33, 33))
    f = GridField.from_function(g, lambda x, y: x + y**2)
    box = AnisoBox((0.1, 0.0), 0.4, SV12)
    P, _ = polynomial_approx(f, box)
    assert np.allclose(P.gradient_matrix(SV12), [[1.0, 2.0]], atol=1e-9)


def test_polynomial_approx_poincare_ratios_stable_under_scaling():
    g = Grid(((-1.2, 1.2), (-1.2, 1.2)), (129, 129), SV12)
    f = GridField.from_function(g, lambda x, y: np.sin(1.3 * x + 0.4) * np.cos(0.9 * y))
    worst = {}
    for r in (1.0, 0.5, 0.25):
        box = AnisoBox((0.0, 0.0), r, SV12)
        _, ratios = polynomial_approx(f, box)
        for beta, val in ratios.items():
            if np.isfinite(val):
                worst.setdefault(beta, []).append(val)
    for beta, vals in worst.items():
        if max(vals) > 1e-8:
            assert max(vals) / max(min(vals), 1e-12) <= 2.0 or max(vals) < 2.0


def test_piecewise_gradient_approx_exact_on_a_polynomial():
    g = grid12((33, 33))
    f = GridField.from_function(g, lambda x, y: 0.5 + x + 0.3 * y + y**2)
    u, cores = piecewise_gradient_approx(f, eps=0.5)
    assert np.max(np.abs(u.values - f.values)) <= 1e-9
    assert len(cores) >= 1


def test_piecewise_gradient_approx_error_decreases():
    # the construction is stiff: the cutoff cost sigma^{-|beta|} fights the
    # coverage requirement, so only moderate eps is resolvable on a 129 grid;
    # halving eps must still tighten the measured error
    g = Grid(((-1, 1), (-1, 1)), (129, 129), SV12)
    f = GridField.from_function(g, lambda x, y: np.sin(x))
    norm = sobolev_norm(f, 2.0, "full")
    errs = []
    for eps in (2.0, 1.0):
        u, cores = piecewise_gradient_approx(f, eps=eps, sigma=0.3)
        err = sobolev_norm(GridField(g, f.values - u.values), 2.0, "full")
        errs.append(err)
        assert err <= eps * (1 + norm)
    assert errs[1] <= errs[0] + 1e-12


def test_piecewise_gradient_approx_unattainable_eps_raises():
    g = grid12((33, 33))
    f = GridField.from_function(g, lambda x, y: np.sin(3 * x) * np.cos(2 * y))
    with pytest.raises(RuntimeError):
        piecewise_gradient_approx(f, eps=1e-4)


def test_piecewise_gradient_approx_gradient_constant_on_cores():
    g = Grid(((-1, 1), (-1, 1)), (129, 129), SV12)
    f = GridField.from_function(g, lambda x, y: np.sin(x) + 0.2 * y**2)
    u, cores = piecewise_gradient_approx(f, eps=1.0)
    ag = a_gradient(u)
    pts = np.stack(g.interior_meshgrid(), axis=-1)
    h = g.h
    checked = 0
    for b in cores[:4]:
        # stencil-safe core: nodes whose full stencil stays inside the core
        inner = AnisoBox(b.center, b.radius * 0.5, SV12)
        mask = inner.contains(pts)
        if np.count_nonzero(mask) < 4:
            continue
        vals = ag.values[mask]
        spread = np.max(np.abs(vals - vals.mean(axis=0)))
        assert spread <= 1e-6 * (1 + np.max(np.abs(vals)))
        checked += 1
    assert checked >= 1


def test_field_container_roundtrip(tmp_path):
    g = grid12((17, 17))
    rng = np.random.default_rng(2)
    f = random_zero_boundary(g, rng)
    path = tmp_path / "field.field"
    save_field(path, f, {"config_hash": "abc"})
    loaded, header = load_field(path)
    assert np.array_equal(loaded.values, f.values)
    assert header["config_hash"] == "abc"
    assert header["a"] == [1, 2]
    raw = path.read_bytes()
    assert raw[:16] == FIELD_MAGIC


def test_apolynomial_evaluation():
    P = APolynomial.build({(1, 0): [1.0], (0, 2): [2.0]})
    # Taylor convention: value = x + y^2 so derivative values read off directly
    x = np.array([0.5])
    y = np.array([0.3])
    assert P(x, y)[0, 0] == pytest.approx(0.5 + 0.09)
    assert np.allclose(P.gradient_matrix(SV12), [[1.0, 2.0]])


def test_cutoff_constants_reported_per_beta():
    from mixvar.grid import cutoff_constants

    g = Grid(((-1.1, 1.1), (-1.1, 1.1)), (65, 257), SV12)
    box = AnisoBox((0.0, 0.0), 1.0, SV12)
    consts = cutoff_constants(box, 0.25, g)
    from mixvar.smoothness import lower_set

    assert set(consts) == set(lower_set(SV12))
    assert all(np.isfinite(v) and v >= 0 for v in consts.values())


OPERATOR_CASES = [(2,), (1, 2), (2, 2), (1, 1, 3)]


def operator_grid(a):
    counts = tuple(max(9, 2 * ai + 3) for ai in a)
    return Grid(tuple(((-1, 1),) * len(a)), counts, SmoothnessVector(a))


@pytest.mark.parametrize("a", OPERATOR_CASES)
def test_full_gradient_matches_mixed_derivative_reference(a):
    g = operator_grid(a)
    f = GridField(g, np.random.default_rng(3).normal(size=g.shape + (2,)))
    W = full_gradient(f)
    ref = np.stack([mixed_derivative(f, al) for al in W.alphas], axis=-1)
    assert W.values.shape == ref.shape
    assert np.max(np.abs(W.values - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("a", OPERATOR_CASES)
def test_gradient_adjoint_is_the_transpose(a):
    from mixvar.grid import gradient_adjoint

    g = operator_grid(a)
    rng = np.random.default_rng(4)
    phi = GridField(g, rng.normal(size=g.shape + (2,)))
    W = full_gradient(phi)
    w = rng.normal(size=W.values.shape)
    lhs = np.sum(W.values * w)
    rhs = np.sum(phi.values * gradient_adjoint(g, W.alphas, w))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def central_difference(fun, x, eps=1e-6):
    out = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = eps
        out[i] = (fun(x + e) - fun(x - e)) / (2 * eps)
    return out


def test_energy_gradients_match_central_differences():
    from mixvar._descent import StencilEnergy
    from mixvar.coercivity import _PenalizedMoment
    from mixvar.integrand import builtin

    g = Grid(((-1, 1), (-1, 1)), (9, 9), SV12)
    F = builtin("double_well", col=0, w=1.0, n=2, m=2)
    rng = np.random.default_rng(5)
    energy = StencilEnergy(g, F, rng.normal(size=g.interior_shape + (2, 2)) * 0.1)
    x = rng.normal(size=energy.n_free) * 0.01
    # t far above the moment of x keeps the penalty branch active
    for prob in (energy, _PenalizedMoment(energy, 2.0, 5.0, 10.0)):
        _, grad = prob.value_and_grad(x)
        fd = central_difference(lambda y: prob.value_and_grad(y)[0], x)
        assert np.allclose(grad, fd, rtol=1e-5, atol=1e-6 * np.max(np.abs(fd)))


@pytest.mark.parametrize("a", [(2,), (3,)])
def test_prolongation_repeats_pure_differences(a):
    from mixvar._descent import prolong_zero_boundary

    g = Grid(((-1, 1),), (17,), SmoothnessVector(a))
    coarse = random_zero_boundary(g, np.random.default_rng(6), n=2)
    fine = prolong_zero_boundary(coarse, g.refine())
    d_coarse = np.repeat(mixed_derivative(coarse, a), 2, axis=0)
    d_fine = mixed_derivative(fine, a)
    scale = np.max(np.abs(d_coarse))
    assert np.max(np.abs(d_fine[: len(d_coarse)] - d_coarse)) <= 1e-12 * scale
    assert np.all(d_fine[len(d_coarse):] == 0.0)
    assert fine.is_zero_on_collar()


@pytest.mark.parametrize("a", [(1, 2), (2, 2), (1, 1, 3)])
def test_prolongation_keeps_the_collar_zero(a):
    from mixvar._descent import prolong_zero_boundary

    g = operator_grid(a)
    coarse = random_zero_boundary(g, np.random.default_rng(7), n=2)
    fine = prolong_zero_boundary(coarse, g.refine())
    assert fine.grid == g.refine()
    assert fine.is_zero_on_collar()
    assert np.max(np.abs(fine.values)) > 0


def test_prolongation_requires_the_dyadic_refinement():
    from mixvar._descent import prolong_zero_boundary

    g = grid12((17, 17))
    phi = GridField.zeros(g)
    with pytest.raises(ValueError, match="dyadic"):
        prolong_zero_boundary(phi, grid12((34, 33)))
    with pytest.raises(ValueError, match="dyadic"):
        prolong_zero_boundary(phi, grid12((33, 33), domain=((-1, 1), (-1, 2))))
