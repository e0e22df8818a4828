"""The package's public names: every ``__all__`` entry resolves, and the
package root re-exports only names its modules declare public."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import ballcover

# modules that declare __all__; the cli module and the entry point do not
MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(ballcover.__path__)
    if not info.name.startswith("_") and info.name != "cli"
)


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"ballcover.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"ballcover.{name}.__all__ names missing attributes: {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_imports_are_public():
    tree = ast.parse(inspect.getsource(ballcover))
    imported = 0
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            public = importlib.import_module(f"ballcover.{node.module}").__all__
            for alias in node.names:
                assert alias.name in public, f"{alias.name} is not in ballcover.{node.module}.__all__"
                imported += 1
    assert imported > 0
