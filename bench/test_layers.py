"""The tracer's accounting, on plain functions; run with python3 -m pytest bench/test_layers.py"""

import time
import types

import pytest

from layers import PER_LAYER, Tracer


def test_round_metrics_cover_every_per_layer_metric():
    names = set(Tracer().round_metrics(1.0, 2.0)) | {"trace.overhead_pct"}
    assert names == {name for name, _, _ in PER_LAYER}


def test_self_time_excludes_wrapped_children_and_patch_is_undone():
    mod = types.SimpleNamespace(__name__="mod")

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        mod.inner()

    mod.inner, mod.outer = inner, outer
    tracer = Tracer()
    tracer.patch("descent.vg", [(mod, "inner")])
    tracer.patch("descent.lbfgs", [(mod, "outer")])
    mod.outer()
    calls, total, self_s = tracer.stats["descent.lbfgs"]
    assert calls == 1
    assert total == pytest.approx(0.03, abs=0.02)
    assert self_s == pytest.approx(total - tracer.stats["descent.vg"][1])
    assert [(name, parent) for _, name, parent, _, _ in tracer.spans] == [("descent.lbfgs", None)]
    tracer.uninstall()
    assert mod.inner is inner and mod.outer is outer


def test_patch_refuses_sites_that_disagree():
    a = types.SimpleNamespace(__name__="a", f=lambda: 1)
    b = types.SimpleNamespace(__name__="b", f=lambda: 2)
    with pytest.raises(RuntimeError, match="not the same object"):
        Tracer().patch("descent.vg", [(a, "f"), (b, "f")])
