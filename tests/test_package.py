"""Package-level checks of the public names."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def test_no_module_imports_a_name_it_never_reads():
    # __init__.py re-exports what it imports, and a line marked
    # "# noqa: F401" keeps a name importable at that site on purpose
    unread = []
    for path in sorted(Path(mixvar.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                    getattr(node, "module", None) == "__future__" or \
                    "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unread.append(f"{path.name}:{node.lineno} {name}")
    assert not unread, f"imported names never read: {unread}"
