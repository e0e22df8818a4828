"""The package's public names: every ``__all__`` entry resolves, and the
package root exposes only its submodules."""

import importlib
import inspect
import pkgutil
import subprocess
import sys

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
    # the package root exposes its submodules and nothing else; a fresh
    # import exposes exactly the eight library modules
    submodules = {info.name for info in pkgutil.iter_modules(ballcover.__path__)}
    public = {name for name in vars(ballcover) if not name.startswith("_")}
    assert all(inspect.ismodule(getattr(ballcover, name)) for name in public)
    assert public <= submodules
    code = "import ballcover; print(' '.join(sorted(n for n in vars(ballcover) if not n.startswith('_'))))"
    fresh = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert fresh.stdout.split() == MODULES
    assert len(MODULES) == 8
