"""Package-level checks of the public names."""

import importlib
import pkgutil

import mixvar


def test_every_name_a_module_lists_in_all_exists():
    checked = []
    for info in pkgutil.iter_modules(mixvar.__path__, "mixvar."):
        module = importlib.import_module(info.name)
        if not hasattr(module, "__all__"):
            continue
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{info.name}.__all__ lists undefined names {missing}"
        checked.append(info.name)
    assert "mixvar.grid" in checked and "mixvar.integrand" in checked
