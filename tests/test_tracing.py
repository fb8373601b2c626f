"""The per-layer tracer in bench/layers.py must find every site it patches."""

import importlib.util
from pathlib import Path

from mixvar import _descent, cli, coercivity, containers, envelope, grid, integrand, solver

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_the_package_and_uninstall_restores_it():
    owners = [_descent, cli, coercivity, containers, envelope, grid, integrand, solver,
              _descent.StencilEnergy, coercivity._PenalizedMoment, integrand.Integrand]
    before = [dict(vars(owner)) for owner in owners]
    tracer = load_layers().Tracer()
    try:
        tracer.install()
        patched = [(owner, attr) for owner, attr, _ in tracer._patches]
        assert patched
        for owner, attr in patched:
            assert any(owner is o for o in owners)
            assert vars(owner)[attr] is not before[owners.index(owner)][attr]
    finally:
        tracer.uninstall()
    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert set(now) == set(saved)
        assert all(now[name] is value for name, value in saved.items())


def test_tracer_sees_the_energy_evaluations_of_batched_descents(monkeypatch):
    import numpy as np

    from mixvar.integrand import builtin

    monkeypatch.setattr(_descent, "_SCREEN_MAXITER", 20)  # the node polishes too
    monkeypatch.setattr(coercivity, "_MAXITER", 20)
    tracer = load_layers().Tracer()
    try:
        tracer.install()
        F = builtin("double_well", w=1.0, n=1, m=1)
        envelope.dacorogna_min(F, [[0.2]], (2,), envelope.EnvelopeOptions(
            resolution=17, multistart=3, maxiter=60, seed=1))
        node = tracer.round_metrics(1.0, 1.0)
        tracer.reset()
        prob = solver.DirichletProblem((2,), ((-1.0, 1.0),), F, {(2,): 0.4}, 9)
        solver.solve_dirichlet(prob, solver.SolveOptions(maxiter=40, seed=2))
        solve = tracer.round_metrics(1.0, 1.0)
        tracer.reset()
        coercivity.theta_estimate(F, 2.0, [0.0, 0.5, 1.0], (2,), coercivity.ThetaOptions(
            resolution=9, multistart=1, seed=3))
        theta = tracer.round_metrics(1.0, 1.0)
    finally:
        tracer.uninstall()
    for metrics in (node, solve, theta):
        assert metrics["descent.vg.calls"] > 0
        assert metrics["integrand.eval.calls"] > 0
        assert np.isfinite(metrics["descent.vg.us_per_call"])
