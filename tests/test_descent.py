import numpy as np
import pytest
from scipy.optimize import minimize

from mixvar._descent import StencilEnergy, _blas_threads, run_lbfgs, run_lbfgs_batch
from mixvar.grid import Grid
from mixvar.integrand import builtin
from mixvar.smoothness import SmoothnessVector, homogeneity_set


def double_well_energy():
    g = Grid(((-1, 1),), (33,), SmoothnessVector((2,)))
    F = builtin("double_well", col=0, w=1.0, n=1, m=1)
    return StencilEnergy(g, F, np.zeros((1, 1)))


class Recording:
    """Wraps an energy; counts its evaluations and records what each one saw."""

    def __init__(self, inner, probe=None, fail_at=None):
        self.inner = inner
        self.probe = probe
        self.fail_at = fail_at
        self.calls = 0
        self.seen = []

    def value_and_grad(self, x, rows=None):
        self.calls += 1
        if self.probe is not None:
            self.seen.append(self.probe())
        if self.calls == self.fail_at:
            raise ValueError("energy bug")
        return self.inner.value_and_grad(x, rows)


def test_nfev_counts_every_energy_evaluation():
    energy = double_well_energy()
    x0 = np.random.default_rng(1).normal(size=energy.n_free) * 0.1
    counted = Recording(energy)
    res = run_lbfgs(counted, x0, maxiter=50)
    assert res.iterations > 0
    assert res.nfev >= res.iterations
    assert res.nfev == counted.calls


blas = _blas_threads()
needs_scipy_openblas = pytest.mark.skipif(
    blas is None, reason="scipy's L-BFGS-B does not link a libscipy_openblas exporting "
                         "scipy_openblas_get/set_num_threads (scipy not installed from a wheel)",
)


@needs_scipy_openblas
@pytest.mark.parametrize("fail_at", [None, 3])
def test_descent_runs_on_one_blas_thread_and_restores_the_count(fail_at):
    get, set_ = blas
    saved = get()
    set_(2)
    try:
        energy = double_well_energy()
        x0 = np.random.default_rng(2).normal(size=energy.n_free) * 0.1
        probe = Recording(energy, probe=get, fail_at=fail_at)
        if fail_at is None:
            run_lbfgs(probe, x0, maxiter=20)
        else:
            with pytest.raises(ValueError, match="energy bug"):
                run_lbfgs(probe, x0, maxiter=20)
        assert probe.seen and set(probe.seen) == {1}
        assert get() == 2
    finally:
        set_(saved)


def scipy_descent(energy, x0, maxiter, gtol, stride):
    """One start through scipy's minimize with the options mixvar descends with."""
    history, snapshots = [], []
    cb = None
    if stride:
        history.append(energy.value_and_grad(x0)[0])

        def cb(intermediate_result):
            history.append(float(intermediate_result.fun))
            it = len(history) - 1
            if it % stride == 0:
                snapshots.append((it, intermediate_result.x.copy()))

    res = minimize(energy.value_and_grad, x0, jac=True, method="L-BFGS-B", callback=cb,
                   options={"maxiter": maxiter, "ftol": 1e-14, "gtol": gtol, "maxcor": 20})
    return res, history, snapshots


def tilted_double_well(a):
    sv = SmoothnessVector(a)
    g = Grid(tuple(((-1, 1),) * len(a)), (33,) if len(a) == 1 else (13, 13), sv)
    m = len(homogeneity_set(sv))
    F = builtin("double_well", col=0, w=1.0, n=1, m=m)
    return StencilEnergy(g, F, np.full((1, m), 0.3))


@pytest.mark.parametrize("stride", [None, 7])
@pytest.mark.parametrize("a", [(2,), (1, 2)])
def test_lockstep_batch_is_bit_equal_to_one_scipy_minimize_per_start(a, stride):
    energy = tilted_double_well(a)
    rng = np.random.default_rng(11)
    maxiter, gtol = 60, 1e-6
    x_star = run_lbfgs(energy, rng.normal(size=energy.n_free) * 0.2, maxiter=2000).x
    X0 = np.stack([
        np.zeros(energy.n_free),                              # stationary: stops at once
        x_star + 1e-9 * rng.normal(size=energy.n_free),       # converges in a few steps
        rng.normal(size=energy.n_free) * 0.5,                 # runs out of iterations
        np.full(energy.n_free, 1e80),                         # energy inf at x0
    ])
    with np.errstate(over="ignore", invalid="ignore"):
        batch = run_lbfgs_batch(energy, X0, ["zero", "near", "far", "inf"], maxiter, gtol, stride)
        for x0, got in zip(X0, batch):
            res, history, snapshots = scipy_descent(energy, x0, maxiter, gtol, stride)
            assert np.array_equal(got.value, res.fun)
            assert np.array_equal(got.x, res.x)
            assert (got.iterations, got.nfev) == (res.nit, res.nfev)
            assert got.converged == res.success
            assert got.budget_exhausted == (res.status == 1)
            assert np.array_equal(got.history, history)
            assert [it for it, _ in got.snapshots] == [it for it, _ in snapshots]
            assert all(np.array_equal(x, y) for (_, x), (_, y) in zip(got.snapshots, snapshots))
    zero, near, far, inf = batch
    assert zero.converged and zero.iterations == 0
    assert near.converged and 0 < near.iterations < far.iterations
    assert far.budget_exhausted and not far.converged and far.iterations == maxiter
    assert inf.value == np.inf
    with pytest.raises(RuntimeError, match="diverged"), np.errstate(over="ignore"):
        run_lbfgs(energy, X0[3], maxiter=maxiter, label="inf")


def test_lockstep_batch_matches_scipy_where_line_searches_restart():
    # the piecewise-linear table integrand has kinks: line searches fail and
    # L-BFGS-B asks again for f and g at the point it evaluated last
    from mixvar._descent import start_portfolio
    from mixvar.envelope import EnvelopeTable

    F = builtin("pnorm", p=2, n=1, m=1)
    nodes = np.linspace(-2.0, 2.0, 9)
    table = EnvelopeTable((2,), 1, 1, 2.0, ((-2.0, 2.0, 9),), nodes**2, None, {"C_upper": 1.0})
    g = Grid(((-1, 1),), (17,), SmoothnessVector((2,)))
    energy = StencilEnergy(g, table.as_integrand(fallback=F), np.array([[0.5]]))
    starts = start_portfolio(g, 1, 4, 1.5, np.random.default_rng(6))
    X0 = np.stack([energy.pack(vals) for _, vals in starts])
    batch = run_lbfgs_batch(energy, X0, [label for label, _ in starts], maxiter=300, gtol=1e-9)
    for x0, got in zip(X0, batch):
        res, _, _ = scipy_descent(energy, x0, 300, 1e-9, None)
        assert (got.value, got.iterations, got.nfev) == (res.fun, res.nit, res.nfev)
        assert np.array_equal(got.x, res.x)
