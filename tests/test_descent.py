import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.optimize._dcsrch import DCSRCH

from mixvar import _descent
from mixvar._descent import (SobolevEnergy, StencilEnergy, _box5, _Lbfgs, _Row, boundary_window,
                             laminate_profile, run_lbfgs, run_lbfgs_batch, smooth_noise,
                             start_portfolio)
from mixvar.envelope import EnvelopeTable
from mixvar.grid import Grid
from mixvar.integrand import builtin
from mixvar.smoothness import SmoothnessVector, homogeneity_set


def double_well_energy():
    g = Grid(((-1, 1),), (33,), SmoothnessVector((2,)))
    F = builtin("double_well", col=0, w=1.0, n=1, m=1)
    return StencilEnergy(g, F, np.zeros((1, 1)))


class Recording:
    """Wraps an energy; counts its evaluations."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def value_and_grad(self, x, rows=None):
        self.calls += 1
        return self.inner.value_and_grad(x, rows)


def test_nfev_counts_every_energy_evaluation():
    energy = double_well_energy()
    x0 = np.random.default_rng(1).normal(size=energy.n_free) * 0.1
    counted = Recording(energy)
    res = run_lbfgs(counted, x0, maxiter=50)
    assert res.iterations > 0
    assert res.nfev >= res.iterations
    assert res.nfev == counted.calls


def scipy_descent(energy, x0, maxiter, gtol):
    """One start through scipy's L-BFGS-B with the rules mixvar's L-BFGS keeps."""
    return minimize(energy.value_and_grad, x0, jac=True, method="L-BFGS-B",
                    options={"maxiter": maxiter, "ftol": 1e-14, "gtol": gtol, "maxcor": 20})


def tilted_double_well(a):
    sv = SmoothnessVector(a)
    g = Grid(tuple(((-1, 1),) * len(a)), (33,) if len(a) == 1 else (13, 13), sv)
    m = len(homogeneity_set(sv))
    F = builtin("double_well", col=0, w=1.0, n=1, m=m)
    return StencilEnergy(g, F, np.full((1, m), 0.3))


def kinked_table_problem():
    """The piecewise-linear table integrand, whose kinks make line searches backtrack."""
    F = builtin("pnorm", p=2, n=1, m=1)
    nodes = np.linspace(-2.0, 2.0, 9)
    table = EnvelopeTable((2,), 1, 1, 2.0, ((-2.0, 2.0, 9),), nodes**2, None, {"C_upper": 1.0})
    g = Grid(((-1, 1),), (17,), SmoothnessVector((2,)))
    energy = StencilEnergy(g, table.as_integrand(fallback=F), np.array([[0.5]]))
    starts, = start_portfolio(g, 1, 4, [1.5], [np.random.default_rng(6)])
    return energy, np.stack([energy.pack(vals) for _, vals in starts])


def mixed_starts(energy, rng):
    x_star = run_lbfgs(energy, rng.normal(size=energy.n_free) * 0.2, maxiter=2000).x
    return np.stack([
        np.zeros(energy.n_free),                              # stationary: stops at once
        x_star + 1e-9 * rng.normal(size=energy.n_free),       # converges in a few steps
        rng.normal(size=energy.n_free) * 0.5,                 # runs out of iterations
        np.full(energy.n_free, 1e80),                         # energy inf at x0
    ])


@pytest.mark.parametrize("history", [False, True])
@pytest.mark.parametrize("a", [(2,), (1, 2)])
def test_lockstep_batch_is_bit_equal_to_lone_descents(a, history):
    energy = tilted_double_well(a)
    maxiter, gtol = 60, 1e-6
    X0 = mixed_starts(energy, np.random.default_rng(11))
    with np.errstate(over="ignore", invalid="ignore"):
        batch = run_lbfgs_batch(energy, X0, ["zero", "near", "far", "inf"], maxiter, gtol, history)
        for x0, got in zip(X0, batch):
            lone = run_lbfgs_batch(energy, x0[None], ["lone"], maxiter, gtol, history)[0]
            assert np.array_equal(got.value, lone.value)
            assert np.array_equal(got.x, lone.x)
            assert (got.iterations, got.nfev) == (lone.iterations, lone.nfev)
            assert (got.converged, got.budget_exhausted) == (lone.converged, lone.budget_exhausted)
            assert got.history == lone.history
    zero, near, far, inf = batch
    assert zero.converged and zero.iterations == 0 and zero.nfev == 1
    assert near.converged and 0 < near.iterations < far.iterations
    assert far.budget_exhausted and not far.converged and far.iterations == maxiter
    assert inf.value == np.inf and inf.converged and inf.iterations == 0
    if history:
        assert far.history[0] == energy.value_and_grad(X0[2])[0]
        assert len(far.history) == maxiter + 1
    else:
        assert far.history == []
    with pytest.raises(RuntimeError, match="diverged"), np.errstate(over="ignore"):
        run_lbfgs(energy, X0[3], maxiter=maxiter, label="inf")


def test_a_cut_retires_its_rows_and_leaves_the_kept_rows_bit_equal_to_lone_descents():
    energy = tilted_double_well((2,))
    maxiter, gtol = 60, 1e-6
    rng = np.random.default_rng(11)
    X0 = np.concatenate([mixed_starts(energy, rng), rng.normal(size=(5, energy.n_free)) * 0.5])
    labels = [str(k) for k in range(len(X0))]
    calls = []

    def cut(ids, values):
        calls.append(dict(zip(ids, values)))
        return sorted(ids)[::2]

    with np.errstate(over="ignore", invalid="ignore"):
        batch = run_lbfgs_batch(energy, X0, labels, maxiter, gtol, cut=cut)
        lone = [run_lbfgs_batch(energy, x0[None], ["lone"], maxiter, gtol)[0] for x0 in X0]
    round = _descent._SCREEN_CUT_ROUND
    assert len(calls) == 1
    # the cut sees the rows still descending after the cut round's evaluation
    ids = sorted(calls[0])
    assert ids == [k for k, res in enumerate(lone) if res.nfev > round]
    assert [calls[0][k] for k in ids] == [lone[k].cut_value for k in ids]
    assert len(ids) >= 5
    for k, (got, alone) in enumerate(zip(batch, lone)):
        assert np.array_equal(got.cut_value, alone.cut_value, equal_nan=True)
        assert np.isnan(got.cut_value) == (alone.nfev < round)
        if k in ids[::2]:
            assert got.retired and not got.converged and not got.budget_exhausted
            assert got.nfev == round and got.value == got.cut_value
            assert energy.value_and_grad(got.x)[0] == got.value
            continue
        assert not got.retired
        assert np.array_equal(got.value, alone.value)
        assert np.array_equal(got.x, alone.x)
        assert (got.iterations, got.nfev) == (alone.iterations, alone.nfev)
        assert (got.converged, got.budget_exhausted) == (alone.converged, alone.budget_exhausted)


def test_descent_tracks_scipy_lbfgsb():
    # the same rules as scipy's L-BFGS-B: only the order of round-off differs
    # (the compact inverse form instead of L-BFGS-B's subspace step), so
    # values agree to 1e-6 relative over these budgets and the iterations and
    # stopping reasons are the same
    cases = []
    for a in [(2,), (1, 2)]:
        energy = tilted_double_well(a)
        cases.append((energy, mixed_starts(energy, np.random.default_rng(11))[:3], 60, 1e-6))
    energy, X0 = kinked_table_problem()
    cases.append((energy, X0, 40, 1e-9))
    for energy, X0, maxiter, gtol in cases:
        batch = run_lbfgs_batch(energy, X0, [""] * len(X0), maxiter, gtol)
        for x0, got in zip(X0, batch):
            res = scipy_descent(energy, x0, maxiter, gtol)
            assert got.value == pytest.approx(res.fun, rel=1e-6)
            assert got.iterations == res.nit
            assert got.converged == res.success
            assert got.budget_exhausted == (res.status == 1)


def test_strongly_convex_quadratic_is_solved_to_gtol():
    rng = np.random.default_rng(3)
    n = 40
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    A = Q @ np.diag(np.geomspace(1.0, 100.0, n)) @ Q.T  # eigenvalues 1 ... 100
    b = rng.normal(size=n)

    class Quadratic:
        def value_and_grad(self, x, rows=None):
            Ax = x @ A
            return 0.5 * np.sum(x * Ax, axis=-1) - x @ b, Ax - b

    # at |g| = gtol the energy still drops by about gtol^2 per step, well
    # above the relative f reduction that would stop the descent first
    gtol = 1e-6
    X0 = rng.normal(size=(3, n)) * 10.0
    x_star = np.linalg.solve(A, b)
    for res in run_lbfgs_batch(Quadratic(), X0, ["a", "b", "c"], maxiter=1000, gtol=gtol):
        assert res.converged and not res.budget_exhausted
        assert np.max(np.abs(res.x @ A - b)) <= gtol
        assert np.max(np.abs(res.x - x_star)) <= gtol * np.sqrt(n)  # |x - x*| <= |g| / 1


def test_a_failed_line_search_with_an_empty_memory_ends_the_descent():
    # unbounded linear energy, huge gradient: the first step is tiny and every
    # trial only extrapolates, so the search gives up after 20 trials
    class Linear:
        def value_and_grad(self, x, rows=None):
            return -1e5 * np.sum(x, axis=-1), np.full(x.shape, -1e5)

    x0 = np.zeros(10)
    res = run_lbfgs(Linear(), x0, maxiter=100)
    ref = scipy_descent(Linear(), x0, 100, 1e-9)
    assert not res.converged and not res.budget_exhausted
    assert (res.iterations, res.nfev) == (ref.nit, ref.nfev) == (0, 21)
    assert np.array_equal(res.x, x0) and res.value == 0.0  # the iterate it started from


def test_a_search_that_ends_at_step_zero_is_not_converged():
    # an energy that is +inf beyond |x - 0.5| < 0.2: the first trial, x = 0.6
    # - 30 / 30, is infinite, the next step is nan and falls back to 0, and
    # the search ends at the start.  scipy calls that a success
    class Barrier:
        def value_and_grad(self, x, rows=None):
            inside = np.abs(x[..., 0] - 0.5) < 0.2
            f = np.where(inside, 100.0 * (x[..., 0] - 0.45) ** 2, np.inf)
            return f, np.where(inside, 200.0 * (x - 0.45).T, np.nan).T

    x0 = np.array([0.6])
    res = run_lbfgs(Barrier(), x0, maxiter=50)
    ref = scipy_descent(Barrier(), x0, 50, 1e-9)
    assert ref.success and np.abs(ref.jac).max() == pytest.approx(30.0)
    assert not res.converged and not res.budget_exhausted
    assert (res.value, res.iterations, res.nfev) == (ref.fun, ref.nit, ref.nfev)
    assert (res.iterations, res.nfev) == (1, 3)
    assert np.array_equal(res.x, x0) and res.value == Barrier().value_and_grad(x0[None])[0][0]


def test_searches_that_end_at_the_largest_step_store_no_pair():
    # unbounded linear energy, unit gradient: every search extrapolates to
    # stp = 1e10 and ends there with a warning; y = 0, so s'y = 0 and the pair
    # is skipped, as in scipy's L-BFGS-B
    class Linear:
        def value_and_grad(self, x, rows=None):
            return -np.sum(x, axis=-1), np.full(x.shape, -1.0)

    x0 = np.zeros(4)
    res = run_lbfgs(Linear(), x0, maxiter=3)
    ref = scipy_descent(Linear(), x0, 3, 1e-9)
    assert (res.value, res.iterations, res.nfev) == (ref.fun, ref.nit, ref.nfev) == (-1.2e11, 3, 55)
    assert res.budget_exhausted and not res.converged
    assert np.array_equal(res.x, ref.x)


def test_a_failed_line_search_restarts_along_minus_g_with_an_empty_memory():
    # one row driven by hand: an accepted first step stores a pair; then 20
    # trials whose f rises with the step while the slope says descent make the
    # search fail, the memory is dropped and the next trial is x - g; 20 more
    # failures with the memory empty end the descent
    n = 3
    run = _Lbfgs(np.zeros((1, n)), np.array([1.0]), np.ones((1, n)), maxiter=50, gtol=1e-9,
                 history=False)
    x1 = run.xt[0].copy()
    g1 = np.array([0.1, 0.2, 0.3])
    run.step(np.array([0.5]), g1[None])  # sufficient decrease, small slope: accepted
    assert run.rows[0].pairs == 1 and run.rows[0].nit == 1

    def rising_trials():
        for _ in range(20):
            assert run.live == 1
            run.step(np.array([0.5 + run.rows[0].stp]), g1[None])

    rising_trials()
    assert run.rows[0].pairs == 0 and not run.Rinv.any() and run.theta[0] == 1.0
    assert np.array_equal(run.xt[0], x1 - g1)  # a full step along -g
    rising_trials()
    assert run.live == 0
    res = run.results[0]
    assert not res.converged and not res.budget_exhausted
    assert (res.iterations, res.nfev) == (1, 42)
    assert res.value == 0.5 and np.array_equal(res.x, x1)  # the iterate, with its energy


PHI = {
    "quadratic": (lambda a: (a - 3.0) ** 2, lambda a: 2.0 * (a - 3.0)),
    "kink": (lambda a: abs(a - 0.7) - 0.2 * a, lambda a: np.sign(a - 0.7) - 0.2),
    "two_kinks": (lambda a: abs(a - 0.7) + 0.3 * abs(a - 1.9) - a,
                  lambda a: np.sign(a - 0.7) + 0.3 * np.sign(a - 1.9) - 1.0),
    "quartic": (lambda a: -a + 0.1 * a**4, lambda a: -1.0 + 0.4 * a**3),
    "wavy": (lambda a: np.cos(5.0 * a) - a, lambda a: -5.0 * np.sin(5.0 * a) - 1.0),
    "saturating": (lambda a: -a / (1.0 + a), lambda a: -1.0 / (1.0 + a) ** 2),
    "unbounded": (lambda a: -a, lambda a: -1.0),
}


@pytest.mark.parametrize("name", list(PHI))
def test_line_search_steps_match_minpack_dcsrch(name):
    # scipy's transcription of MINPACK-2's dcsrch, with L-BFGS-B's settings,
    # is the reference for every trial step, warnings included
    phi, dphi = PHI[name]
    for stp0 in (1e-3, 0.3, 1.0, 5.0, 40.0):
        ref = DCSRCH(phi, dphi, ftol=1e-3, gtol=0.9, xtol=0.1, stpmin=0.0, stpmax=1e10)
        stp, f, g, task = ref._iterate(stp0, phi(0.0), dphi(0.0), b"START")
        expected = []
        while task[:2] == b"FG" and len(expected) < 40:
            expected.append(stp)
            stp, f, g, task = ref._iterate(stp, phi(stp), dphi(stp), task)
        row = _Row(0, phi(0.0))
        row.start(stp0, dphi(0.0), 0)
        steps = [row.stp]
        while not row.search(float(phi(row.stp)), float(dphi(row.stp))) and len(steps) < 40:
            steps.append(row.stp)
        assert steps == expected, (name, stp0)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("shape", [(1,), (2,), (3,), (4,), (5,), (37,), (6, 1), (2, 9), (33, 17),
                                   (1, 2, 3), (7, 5, 9)])
def test_box_filter_is_bit_equal_to_ndimage(shape, n):
    from scipy import ndimage

    x = np.random.default_rng(sum(shape) + n).normal(size=shape + (n,)) * 3.0
    for axis in range(len(shape)):
        ref = ndimage.uniform_filter1d(x, size=5, axis=axis, mode="nearest")
        assert np.array_equal(_box5(x, axis), ref)


@pytest.mark.parametrize("a, res", [((2,), (33,)), ((1, 2), (9, 13)), ((1, 1, 2), (5, 6, 7))])
def test_smooth_noise_is_bit_equal_to_the_ndimage_filter(a, res):
    from scipy import ndimage

    g = Grid(tuple(((-1, 1),) * len(a)), res, SmoothnessVector(a))
    for n in (1, 2):
        got = smooth_noise(g, n, np.random.default_rng(4))
        ref = np.random.default_rng(4).standard_normal(g.shape + (n,))
        for axis in range(g.ndim):
            ref = ndimage.uniform_filter1d(ref, size=5, axis=axis, mode="nearest")
        assert np.array_equal(got, ref * boundary_window(g)[..., None])


@pytest.mark.parametrize("a, res", [((2,), (33,)), ((1, 2), (17, 41))])
def test_boundary_window_is_zero_on_the_faces_and_one_on_the_inner_part(a, res):
    g = Grid(((0.0, 2.0), (-1.0, 3.0))[:len(a)], res, SmoothnessVector(a))
    w = boundary_window(g)
    assert np.all((w >= 0.0) & (w <= 1.0))
    inner = np.ones(g.shape, dtype=bool)
    for i, ((lo, hi), ax) in enumerate(zip(g.domain, g.axes())):
        for face in (0, -1):
            assert np.all(np.take(w, face, axis=i) == 0.0)
        width = (hi - lo) * _descent._WINDOW_FRAC / 2.0
        shape = [1] * g.ndim
        shape[i] = len(ax)
        inner &= (np.minimum(ax - lo, hi - ax) >= width).reshape(shape)
    assert inner.any() and np.all(w[inner] == 1.0)
    assert np.all(w[tuple(slice(1, -1) for _ in a)] > 0.0)


# the a-Sobolev metric of the polish: exact where every column is pure, an
# approximation with mixed columns (a = (2, 2))
METRIC_CASES = [(2,), (1, 2), (2, 2), (1, 2, 3)]


def metric_grid(a):
    # unequal counts and spacings per axis, so a mixed-up axis shows
    counts = tuple(2 * ai + 3 + i for i, ai in enumerate(a))
    return Grid(tuple((0.0, 1.0 + 0.5 * i) for i in range(len(a))), counts, SmoothnessVector(a))


def same_bits(x, y):
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def metric_matrix(metric):
    """The metric A = Q Lambda Q^T, from z = Lambda^(1/2) Q^T x of each unit x."""
    Z = metric.to_z(np.eye(metric.n_free))
    return Z @ Z.T


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("a", METRIC_CASES)
def test_sobolev_rows_are_bit_equal_to_lone_rows(a, n, k):
    g = metric_grid(a)
    m = len(homogeneity_set(g.a))
    F = builtin("double_well", col=0, w=1.0, n=n, m=m)
    rng = np.random.default_rng(21)
    metric = SobolevEnergy(StencilEnergy(g, F, rng.normal(size=(3, n, m)), per_row=True))
    rows = np.array([2, 0, 1][:k])
    Z = rng.normal(size=(k, metric.n_free))
    values, grads = metric.value_and_grad(Z, rows)
    X = metric.to_x(Z)
    back = metric.to_z(X)
    for i, row in enumerate(rows):
        value, grad = metric.value_and_grad(Z[i:i + 1], row[None])
        assert same_bits(values[i], value[0]) and same_bits(grads[i], grad[0])
        assert same_bits(X[i], metric.to_x(Z[i]))
        assert same_bits(back[i], metric.to_z(X[i]))


def per_row_along_axes(mats, x):
    """M_i along axis i of one field x (f_1, ..., f_N, n): the loop the batched transform replaced."""
    for i, M in enumerate(mats):
        y = np.moveaxis(x, i, 0)
        cols = np.ascontiguousarray(y).reshape(len(M), -1)
        out = np.empty_like(cols)
        step = max(1, _descent._SERIAL_MADDS // M.size)
        for j in range(0, cols.shape[1], step):
            np.matmul(M, cols[:, j:j + step], out=out[:, j:j + step])
        x = np.moveaxis(out.reshape(y.shape), 0, i)
    return x


def per_row(metric, X, fn):
    """fn applied to each row of X (K, n_free) laid out as a field, one row at a time."""
    return np.stack([fn(x) for x in X.reshape((-1,) + metric._shape)]).reshape(X.shape)


@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("a, n, counts", [
    ((2,), 1, (33,)), ((1, 2), 1, (9, 14)), ((1, 1, 3), 1, (5, 6, 12)), ((2, 2), 2, (9, 11)),
    ((1,), 1, (517,)),  # 515 free nodes: every column block is one column
])
def test_batched_sobolev_transforms_equal_the_per_row_loop(a, n, counts, k):
    g = Grid(tuple((0.0, 1.0 + 0.5 * i) for i in range(len(a))), counts, SmoothnessVector(a))
    m = len(homogeneity_set(g.a))
    rng = np.random.default_rng(26)
    energy = StencilEnergy(g, builtin("double_well", col=0, w=1.0, n=n, m=m),
                           rng.normal(size=(n, m)) * 0.3)
    metric = SobolevEnergy(energy)
    if len(a) == 1 and counts[0] > 512:
        assert _descent._SERIAL_MADDS // metric._Q[0].size == 0
    Q, Qt, root = metric._Q, metric._Qt, metric._root
    Z = rng.normal(size=(k, metric.n_free))
    X = per_row(metric, Z, lambda z: per_row_along_axes(Q, z / root))
    assert same_bits(metric.to_x(Z), X)
    assert same_bits(metric.to_z(X), per_row(metric, X, lambda x: per_row_along_axes(Qt, x) * root))
    values, grads = metric.value_and_grad(Z)
    ref_values, ref_grads = energy.value_and_grad(X)
    assert same_bits(values, ref_values)
    assert same_bits(grads, per_row(metric, ref_grads, lambda g: per_row_along_axes(Qt, g) / root))


@pytest.mark.parametrize("a", METRIC_CASES)
def test_sobolev_unpack_inverts_pack(a):
    # a zero-boundary field to z and back: pack, to_z, then to_x, unpack
    for n in (1, 2):
        g = metric_grid(a)
        F = builtin("pnorm", p=2.0, n=n, m=len(homogeneity_set(g.a)))
        energy = StencilEnergy(g, F, np.zeros((n, F.m)))
        metric = SobolevEnergy(energy)
        phi = energy.unpack(np.random.default_rng(22).normal(size=metric.n_free))
        z = metric.to_z(energy.pack(phi))
        assert np.max(np.abs(energy.unpack(metric.to_x(z)) - phi)) <= 1e-12


@pytest.mark.parametrize("a", METRIC_CASES)
def test_sobolev_metric_is_the_kronecker_sum_of_the_pure_columns(a):
    g = metric_grid(a)
    alphas = homogeneity_set(g.a)
    F = builtin("pnorm", p=2.0, n=1, m=len(alphas))
    energy = StencilEnergy(g, F, np.zeros((1, F.m)))
    A = metric_matrix(SobolevEnergy(energy))
    # D_f^T D_f from the stencils of each unit x, and that of its pure columns alone
    full = energy.stack(np.eye(energy.n_free)).reshape(energy.n_free, -1, F.m)
    pure = [j for j, alpha in enumerate(alphas) if np.count_nonzero(alpha) == 1]
    gram_all = np.einsum("kqj,lqj->kl", full, full)
    gram_pure = np.einsum("kqj,lqj->kl", full[..., pure], full[..., pure])
    scale = np.max(np.abs(gram_pure))
    assert np.max(np.abs(A - gram_pure)) <= 1e-10 * scale
    assert np.linalg.eigvalsh(A)[0] > 0.0
    assert np.allclose(A, gram_all, rtol=0, atol=1e-10 * scale) == (len(pure) == len(alphas))


@pytest.mark.parametrize("a, shape", [((2,), (129,)), ((1, 2), (17, 33)), ((1, 2, 3), (7, 9, 11))])
def test_a_quadratic_energy_converges_at_once_in_the_sobolev_metric(a, shape):
    # pnorm p=2: D_f^T D_f is the metric, so the energy is |z|^2 plus a constant
    g = Grid(tuple(((-1.0, 1.0),) * len(a)), shape, SmoothnessVector(a))
    rng = np.random.default_rng(23)
    F = builtin("pnorm", p=2.0, n=1, m=len(homogeneity_set(g.a)))
    energy = StencilEnergy(g, F, rng.normal(size=(1, F.m)))
    metric = SobolevEnergy(energy)
    starts = np.stack([vals for _, vals in start_portfolio(g, 1, 6, [2.0], [rng])[0]])
    Z0 = metric.to_z(energy.pack(starts))
    for res in run_lbfgs_batch(metric, Z0, [""] * len(Z0), maxiter=200):
        assert res.converged and res.iterations <= 3


def test_the_sobolev_metric_with_mixed_columns_is_spd_and_a_polish_converges():
    g = Grid(((-1.0, 1.0), (-1.0, 1.0)), (13, 15), SmoothnessVector((2, 2)))
    m = len(homogeneity_set(g.a))
    rng = np.random.default_rng(24)
    energy = StencilEnergy(g, builtin("double_well", col=1, w=1.0, n=2, m=m),
                           rng.normal(size=(2, m)) * 0.3)
    metric = SobolevEnergy(energy)
    assert np.linalg.eigvalsh(metric_matrix(metric))[0] > 0.0
    starts = np.stack([vals for _, vals in start_portfolio(g, 2, 4, [1.0], [rng])[0]])
    Z0 = metric.to_z(energy.pack(starts))
    for res in run_lbfgs_batch(metric, Z0, [""] * len(Z0), maxiter=500):
        assert res.converged and not res.budget_exhausted


def lone_portfolio(grid, n, count, scale, rng):
    """One node's portfolio, built the way a one-node-per-call loop built it: the reference."""
    starts = []
    specs = [(axis, k, duty) for k in (1, 2, 3) for duty in (0.5, 0.25, 0.75, 0.1, 0.9)
             for axis in range(grid.ndim)]
    for axis, k, duty in specs[:min(len(specs), max(0, (count - 1) * 2 // 3))]:
        base = laminate_profile(grid, axis, k, duty)
        amp = _descent._gradient_amplitude(grid, base)
        vals = np.repeat((base * (scale / amp if amp > 0 else 1.0))[..., None], n, axis=-1)
        starts.append((f"laminate(ax={axis},k={k},duty={duty})", vals))
    while len(starts) < count - 1:
        vals = smooth_noise(grid, n, rng)
        amp = _descent._gradient_amplitude(grid, vals[..., 0])
        starts.append((f"random{len(starts) + 1}", vals * (scale / amp if amp > 0 else 1.0)))
    return starts


@pytest.mark.parametrize("count", [1, 4, 16])
@pytest.mark.parametrize("a, counts", [((2,), (33,)), ((1, 2), (9, 13))])
def test_portfolios_of_several_nodes_equal_one_node_at_a_time(a, counts, count):
    g = Grid(tuple(((-1.0, 1.0),) * len(a)), counts, SmoothnessVector(a))
    scales, seeds = [1.0, 2.5, 0.7, 2.5], [3, 11, 3, 12]
    together = start_portfolio(g, 2, count, scales, [np.random.default_rng(s) for s in seeds])
    assert len(together) == len(scales)
    for scale, seed, starts in zip(scales, seeds, together):
        alone, = start_portfolio(g, 2, count, [scale], [np.random.default_rng(seed)])
        reference = lone_portfolio(g, 2, count, scale, np.random.default_rng(seed))
        assert len(starts) == count - 1
        for other in (alone, reference):
            assert [label for label, _ in starts] == [label for label, _ in other]
            assert all(same_bits(x, y) for (_, x), (_, y) in zip(starts, other))


def test_column_blocks_leave_the_sobolev_transform_unchanged(monkeypatch):
    g = Grid(((-1.0, 1.0), (-1.0, 1.0)), (9, 13), SmoothnessVector((1, 2)))
    F = builtin("pnorm", p=2.0, n=2, m=2)
    metric = SobolevEnergy(StencilEnergy(g, F, np.zeros((2, 2))))
    Z = np.random.default_rng(25).normal(size=(2, metric.n_free))
    whole = metric.to_x(Z)
    monkeypatch.setattr(_descent, "_SERIAL_MADDS", 1)  # one column per product
    assert np.allclose(metric.to_x(Z), whole, rtol=0, atol=1e-14)
