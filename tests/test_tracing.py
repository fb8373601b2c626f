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
