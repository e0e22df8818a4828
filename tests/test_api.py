"""The package's public names: every ``__all__`` entry resolves, the
package root exposes only its submodules, and SciPy loads only on first use."""

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


def _fresh(code: str) -> str:
    # run code in a new interpreter; its stdout
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout


_SCIPY_LOADED = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def test_import_loads_no_scipy():
    code = f"import sys; import ballcover, ballcover.cli; print({_SCIPY_LOADED})"
    assert _fresh(code).strip() == "[]"


def test_cli_runs_with_scipy_blocked(tmp_path):
    # a None entry makes every import of scipy raise ImportError; only
    # p = inf work needs it, so these commands must not touch it
    cover = tmp_path / "axis.json"
    runs = [
        ["bounds", "table", "--d", "8", "--p", "2", "--delta-grid", "0.01:0.2:4"],
        ["hadamard", "--order", "8"],
        ["cover", "build", "--construction", "axis", "--d", "5", "--out", str(cover)],
        ["cover", "verify", "--in", str(cover), "--samples", "500", "--adversarial", "2", "--steps", "5"],
    ]
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from ballcover.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    code = main(argv)\n"
        "    assert code == 0, (argv, code)\n"
    )
    _fresh(code)
    assert cover.exists()


def test_linf_nearest_loads_scipy_spatial():
    code = (
        "import sys, math\n"
        "from ballcover.spaces import LpSpace\n"
        "from ballcover.verify import nearest\n"
        f"before = {_SCIPY_LOADED}\n"
        "index, dist = nearest(LpSpace(2, math.inf), [[0.4, -0.1]], [[0.5, 0.5], [0.5, -0.5]])\n"
        "print(before, 'scipy.spatial' in sys.modules, index.tolist(), dist.tolist())\n"
    )
    assert _fresh(code).strip() == "[] True [1] [0.4]"
