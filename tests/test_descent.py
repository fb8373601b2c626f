import numpy as np
import pytest

from mixvar._descent import StencilEnergy, _blas_threads, run_lbfgs
from mixvar.grid import Grid
from mixvar.integrand import builtin
from mixvar.smoothness import SmoothnessVector


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

    def value_and_grad(self, x):
        self.calls += 1
        if self.probe is not None:
            self.seen.append(self.probe())
        if self.calls == self.fail_at:
            raise ValueError("energy bug")
        return self.inner.value_and_grad(x)


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
