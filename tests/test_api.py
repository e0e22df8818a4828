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


def test_linf_queries_run_with_scipy_blocked():
    # p = inf nearest and its ascent on the d = 4 half-vertex cover load no
    # scipy; linf_vertex_check's part (b) cdist is the one call that does
    code = (
        "import itertools, math, sys; sys.modules['scipy'] = None\n"
        "from ballcover.coverings import BallCovering\n"
        "from ballcover.spaces import LpSpace\n"
        "from ballcover.verify import adversarial_search, linf_vertex_check, nearest\n"
        "space = LpSpace(4, math.inf)\n"
        "centers = [[s / 2 for s in v] for v in itertools.product((-1, 1), repeat=4)]\n"
        "cov = BallCovering(space, centers, 1.0, closed=False, provenance='half-vertices(d=4)')\n"
        "xs = [[0.25, -0.5, 0.75, 0.0], [0.0, 0.0, 0.0, 0.0], [0.9, -0.1, 0.3, -0.6]]\n"
        "index, dist = nearest(space, xs, centers)\n"
        "point, margin = adversarial_search(cov, 5, 20, 0)\n"
        "print(index.tolist(), dist.tolist(), point.tolist(), margin)\n"
        "del sys.modules['scipy']\n"
        f"print({_SCIPY_LOADED})\n"
        "linf_vertex_check(4, n_samples=10, n_centers=3)\n"
        "print('scipy.spatial.distance' in sys.modules)\n"
    )
    assert _fresh(code).splitlines() == [
        "[10, 0, 10] [0.5, 0.5, 0.4] "
        "[0.28328752041738725, -0.4761663812735139, -0.9494368443698128, -1.0] 0.5",
        "[]",
        "True",
    ]
