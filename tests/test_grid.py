import numpy as np
import pytest

from mixvar.containers import FIELD_MAGIC, load_field, save_field
from mixvar.grid import (
    APolynomial,
    Grid,
    GridField,
    a_gradient,
    full_gradient,
    mixed_derivative,
    project_to_gradients,
    sobolev_norm,
    truncate,
)
from mixvar.smoothness import SmoothnessVector, homogeneity_set, lower_set


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


def moment(energy, x, q):
    """mean |grad_a phi|^q of the zero-boundary field with free values x, on the full nodes."""
    W = a_gradient(GridField(energy.grid, energy.unpack(x))).values
    return float(np.mean(np.sqrt(np.sum(W**2, axis=(-2, -1))) ** q))


def test_energy_gradients_match_central_differences():
    from mixvar._descent import StencilEnergy, _MomentRetraction
    from mixvar.integrand import builtin

    g = Grid(((-1, 1), (-1, 1)), (9, 9), SV12)
    F = builtin("double_well", col=0, w=1.0, n=2, m=2)
    rng = np.random.default_rng(5)
    energy = StencilEnergy(g, F, rng.normal(size=g.interior_shape + (2, 2)) * 0.1)
    x = rng.normal(size=energy.n_free) * 0.01
    m = moment(energy, x, 2.0)
    # t = 2m retracts every field near x; t = m / 2 retracts none
    for prob in (energy, *(_MomentRetraction(g, F, 2.0, t) for t in (2.0 * m, 0.5 * m))):
        _, grad = prob.value_and_grad(x)
        fd = central_difference(lambda y: prob.value_and_grad(y)[0], x)
        assert np.allclose(grad, fd, rtol=1e-5, atol=1e-6 * np.max(np.abs(fd)))


def free_dof_energy(a, n):
    from mixvar._descent import StencilEnergy
    from mixvar.integrand import builtin
    from mixvar.smoothness import homogeneity_set

    g = operator_grid(a)
    F = builtin("double_well", col=0, w=1.0, n=n, m=len(homogeneity_set(g.a)))
    rng = np.random.default_rng(8)
    energy = StencilEnergy(g, F, rng.normal(size=g.interior_shape + (n, F.m)) * 0.1)
    return energy, rng.normal(size=energy.n_free) * 0.3


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("a", OPERATOR_CASES)
def test_free_dof_energy_is_bit_equal_to_the_full_node_path(a, n):
    from mixvar.grid import gradient_adjoint

    energy, x = free_dof_energy(a, n)
    g, F = energy.grid, energy.F
    W = energy.base + a_gradient(GridField(g, energy.unpack(x))).values
    value, grad = energy.value_and_grad(x)
    assert np.array_equal(value, float(np.sum(F(W))))
    ref = gradient_adjoint(g, energy.alphas, F.gradient(W))[~g.collar_mask()].reshape(-1)
    assert np.array_equal(grad, ref)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("a", OPERATOR_CASES)
def test_free_dof_penalized_moment_is_bit_equal_to_the_full_node_path(a, n):
    # the moment energy, still named coercivity._PenalizedMoment where bench/layers.py traces it
    from mixvar._descent import _MomentRetraction
    from mixvar.grid import gradient_adjoint

    energy, x = free_dof_energy(a, n)
    g, F, q, N = energy.grid, energy.F, 3.0, energy.grid.n_interior
    W = a_gradient(GridField(g, energy.unpack(x))).values
    fro = np.sqrt(np.sum(W**2, axis=(-2, -1)))
    m = float(np.mean(fro**q))
    for t in (2.0 * m, 0.5 * m):  # retracted, then not
        if t > m:
            c = float(np.power(t / m, 1.0 / q))
            dF = F.gradient(W * c)
            slope = np.sum(np.ascontiguousarray(dF * W)) / (m * N)  # in C order, as per row
            radial = np.maximum(fro, 1e-300)[..., None, None] ** (q - 2.0) * W
            ref_value = float(np.mean(F(W * c)))
            weights = c / N * (dF - slope * radial)
        else:
            ref_value = float(np.mean(F(W)))
            weights = F.gradient(W) / N
        ref_grad = gradient_adjoint(g, energy.alphas, weights)[~g.collar_mask()].reshape(-1)
        value, grad = _MomentRetraction(g, F, q, t).value_and_grad(x)
        assert np.array_equal(value, ref_value)
        assert np.array_equal(grad, ref_grad)


def test_free_dof_energy_rejects_non_finite_values():
    from mixvar._descent import _MomentRetraction

    energy, x = free_dof_energy((1, 2), 2)
    m = moment(energy, x, 2.0)
    for bad in (np.nan, np.inf):
        y = x.copy()
        y[3] = bad
        for prob in (energy, *(_MomentRetraction(energy.grid, energy.F, 2.0, t)
                               for t in (2.0 * m, 0.5 * m))):
            with pytest.raises(ValueError, match="finite"):
                prob.value_and_grad(y)


def test_a_row_with_a_broken_gradient_gets_inf_and_a_zero_gradient():
    # |V|^1.5 with the naive gradient 1.5 |V|^(-1/2) V: finite values, NaN gradient at V = 0
    from mixvar._descent import StencilEnergy, _MomentRetraction
    from mixvar.integrand import Integrand

    def ev(V):
        return np.sqrt(np.sum(V**2, axis=(-2, -1))) ** 1.5

    def gr(V):
        return 1.5 * np.sqrt(np.sum(V**2, axis=(-2, -1)))[..., None, None] ** -0.5 * V

    F = Integrand(ev, 1, 1, 1.5, grad=gr)
    energy = StencilEnergy(Grid(((-1, 1),), (17,), SmoothnessVector((2,))), F, np.zeros((1, 1)))
    x = np.zeros(energy.n_free)
    x[6] = 0.3
    m = moment(energy, x, 1.5)
    with np.errstate(divide="ignore", invalid="ignore"):
        for prob in (energy, *(_MomentRetraction(energy.grid, F, 1.5, t)
                               for t in (2.0 * m, 0.5 * m))):
            value, grad = prob.value_and_grad(x)
            assert value == np.inf and np.all(grad == 0.0)


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("a", OPERATOR_CASES)
def test_a_retracted_gradient_is_orthogonal_to_its_field(a, q):
    # below the moment t the energy is 0-homogeneous, so it has no radial slope
    from mixvar._descent import _MomentRetraction

    energy, x = free_dof_energy(a, 2)
    prob = _MomentRetraction(energy.grid, energy.F, q, 2.0 * moment(energy, x, q))
    _, grad = prob.value_and_grad(x)
    assert abs(grad @ x) <= 1e-12 * np.linalg.norm(grad) * np.linalg.norm(x)


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("a", OPERATOR_CASES)
def test_the_retraction_lifts_a_field_to_the_moment_t(a, q):
    from mixvar._descent import _MomentRetraction

    energy, x = free_dof_energy(a, 2)
    g, F = energy.grid, energy.F
    m = moment(energy, x, q)
    for t in (0.3 * m, 2.0 * m, 50.0 * m):
        prob = _MomentRetraction(g, F, q, t)
        (m_x,), (c,) = prob.scales(x[None])
        assert m_x == pytest.approx(m, rel=1e-14)
        if t < m:
            assert c == 1.0
        else:
            assert abs(moment(energy, c * x, q) - t) <= 1e-14 * t
        value, _ = prob.value_and_grad(x)
        W = a_gradient(GridField(g, energy.unpack(c * x))).values
        assert value == pytest.approx(float(np.mean(F(W))), rel=1e-12)


def test_a_field_of_zero_moment_has_no_retraction_when_t_is_positive():
    # no scale lifts the zero field to t > 0: +inf and a zero gradient, in a batch too
    from mixvar._descent import _MomentRetraction

    energy, x = free_dof_energy((1, 2), 1)
    X = np.stack([np.zeros_like(x), x])
    prob = _MomentRetraction(energy.grid, energy.F, 2.0, 1.0)
    assert prob.scales(X)[1][0] == np.inf
    with np.errstate(invalid="ignore"):  # 0 * inf
        values, grads = prob.value_and_grad(X)
    assert values[0] == np.inf and np.all(grads[0] == 0.0)
    one_value, one_grad = prob.value_and_grad(x)
    assert np.array_equal(values[1], one_value) and np.array_equal(grads[1], one_grad)
    # at t = 0 every field is its own retraction, the zero field too
    flat = _MomentRetraction(energy.grid, energy.F, 2.0, 0.0)
    assert np.array_equal(flat.scales(X)[1], [1.0, 1.0])
    assert np.all(np.isfinite(flat.value_and_grad(X)[0]))


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


def batch_of_fields(energy, rng):
    """Rows at three scales (small moments, large moments) plus one whose energy overflows."""
    X = rng.normal(size=(4, energy.n_free)) * np.array([0.05, 0.3, 1.0, 1.0])[:, None]
    X[3, ::5] = 1e80
    return X


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("a", OPERATOR_CASES)
def test_batched_energies_are_bit_equal_to_one_call_per_row(a, n):
    from mixvar._descent import StencilEnergy, _MomentRetraction
    from mixvar.solver import _DirichletEnergy

    energy, _ = free_dof_energy(a, n)
    g, F = energy.grid, energy.F
    rng = np.random.default_rng(9)
    X = batch_of_fields(energy, rng)
    moments = [moment(energy, x, 3.0) for x in X[:3]]
    t = 0.5 * (moments[0] + moments[1])  # row 0 is retracted, rows 1 and 2 are not
    probs = [
        energy,
        StencilEnergy(g, F, np.full((n, F.m), 0.2)),  # one gradient for every node
        _DirichletEnergy(g, F, GridField(g, rng.normal(size=g.shape + (n,)) * 0.1)),
        _MomentRetraction(g, F, 3.0, t),
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        for prob in probs:
            values, grads = prob.value_and_grad(X)
            assert values.shape == (4,) and grads.shape == X.shape
            assert not np.isfinite(values[3]) and np.all(np.isfinite(values[:3]))
            for x, value, grad in zip(X, values, grads):
                one_value, one_grad = prob.value_and_grad(x)
                assert isinstance(one_value, float)
                assert np.array_equal(value, one_value)
                assert np.array_equal(grad, one_grad)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("a", OPERATOR_CASES)
def test_per_row_bases_are_bit_equal_to_one_energy_per_row(a, n):
    # starts of different envelope nodes share a batch: row i adds its own V_i
    from mixvar._descent import StencilEnergy

    energy, _ = free_dof_energy(a, n)
    g, F = energy.grid, energy.F
    rng = np.random.default_rng(10)
    X = batch_of_fields(energy, rng)
    Vs = rng.normal(size=(len(X), n, F.m)) * 0.5
    per_row = StencilEnergy(g, F, Vs, per_row=True)
    with np.errstate(over="ignore", invalid="ignore"):
        values, grads = per_row.value_and_grad(X)
        assert not np.isfinite(values[3]) and np.all(np.isfinite(values[:3]))
        for x, V, value, grad in zip(X, Vs, values, grads):
            one_value, one_grad = StencilEnergy(g, F, V).value_and_grad(x)
            assert np.array_equal(value, one_value)
            assert np.array_equal(grad, one_grad)
        # live rows of a descent: the fields of rows 2 and 0 only
        rows = np.array([2, 0])
        some_values, some_grads = per_row.value_and_grad(X[rows], rows)
    assert np.array_equal(some_values, values[rows])
    assert np.array_equal(some_grads, grads[rows])
    with pytest.raises(ValueError, match="per-row"):
        StencilEnergy(g, F, Vs[0], per_row=True)


# stencil tables against the CSR products of stencil_matrix, the sparse reference
STENCIL_CASES = [(2,), (1, 2), (2, 2), (1, 2, 3), (2, 4)]


def stencil_grid(a):
    # unequal counts and spacings per axis, so a mixed-up axis shows
    counts = tuple(2 * ai + 3 + i for i, ai in enumerate(a))
    return Grid(tuple((0.0, 1.0 + 0.5 * i) for i in range(len(a))), counts, SmoothnessVector(a))


def sparse_stack(grid, alphas):
    import scipy.sparse as sp

    from mixvar.grid import stencil_matrix

    D = sp.vstack([stencil_matrix(grid, al) for al in alphas], format="csr")
    return D, D.T.tocsr()


def same_bits(x, y):
    """Equal shapes and bytes, so a zero of the other sign differs too."""
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def with_signed_zeros(values):
    values = values.copy()
    flat = values.reshape(-1)
    flat[::7], flat[3::11] = 0.0, -0.0
    return values


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("a", STENCIL_CASES)
def test_free_value_stencils_are_bit_equal_to_the_csr_products(a, n, k):
    from mixvar._descent import StencilEnergy
    from mixvar.integrand import builtin

    g = stencil_grid(a)
    alphas = homogeneity_set(g.a)
    F = builtin("pnorm", p=2.0, n=n, m=len(alphas))
    energy = StencilEnergy(g, F, np.zeros((n, F.m)))
    D, Dt = sparse_stack(g, alphas)
    free = ~g.collar_mask().reshape(-1)
    Df, Dft = D[:, free], Dt[free]
    rng = np.random.default_rng(11)
    nodes = energy.n_free // n

    X = with_signed_zeros(rng.normal(size=(k, energy.n_free)))
    ref = Df @ X.reshape(k, nodes, n).transpose(1, 0, 2).reshape(nodes, k * n)
    ref = ref.reshape((len(alphas),) + g.interior_shape + (k, n))
    assert same_bits(energy.stack(X), np.moveaxis(ref, (0, -2), (-1, 0)))

    w = with_signed_zeros(rng.normal(size=(k,) + g.interior_shape + (n, len(alphas))))
    ref = Dft @ np.moveaxis(w, (-1, 0), (0, -2)).reshape(-1, k * n)
    assert same_bits(energy.adjoint(w), ref.reshape(nodes, k, n).transpose(1, 0, 2).reshape(k, -1))


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("a", STENCIL_CASES)
def test_node_array_stencils_are_bit_equal_to_the_csr_products(a, n, k):
    from mixvar.grid import gradient_adjoint

    g = stencil_grid(a)
    rng = np.random.default_rng(12)
    for stack, alphas in ((a_gradient, homogeneity_set(g.a)),
                          (full_gradient, lower_set(g.a, strict=False))):
        D, Dt = sparse_stack(g, alphas)
        for _ in range(k):
            f = GridField(g, with_signed_zeros(rng.normal(size=g.shape + (n,))))
            W = stack(f)
            assert W.alphas == alphas
            ref = (D @ f.values.reshape(-1, n)).reshape((len(alphas),) + g.interior_shape + (n,))
            assert same_bits(W.values, np.moveaxis(ref, 0, -1))

            w = with_signed_zeros(rng.normal(size=g.interior_shape + (n, len(alphas))))
            ref = Dt @ np.moveaxis(w, -1, 0).reshape(-1, n)
            assert same_bits(gradient_adjoint(g, alphas, w), ref.reshape(g.shape + (n,)))
