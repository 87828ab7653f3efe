"""The package's public names: every export resolves, and the CLI's import
stays light."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import henonball

MODULES = sorted(m.name for m in pkgutil.iter_modules(henonball.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"henonball.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(Path(henonball.__file__).read_text())
    names = [a.asname or a.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for a in node.names]
    assert names and [n for n in names if not hasattr(henonball, n)] == []


# scipy.integrate and scipy.optimize, with sparse, special and fft behind
# them, are loaded only by the rk45 cross-check and the Prüfer oracle
HEAVY = ("scipy.interpolate", "scipy.integrate", "scipy.optimize")


def loaded_after(code: str) -> list[str]:
    """The HEAVY modules a fresh interpreter holds after running `code`."""
    env = dict(os.environ, PYTHONPATH=str(Path(henonball.__file__).parents[1]))
    code += f"\nimport sys; print(sorted(m for m in {HEAVY!r} if m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return ast.literal_eval(proc.stdout.strip().splitlines()[-1])


def test_cli_import_leaves_out_scipy_interpolate():
    assert loaded_after("import henonball.cli") == []


def test_root_search_and_morse_index_leave_out_scipy_solvers():
    # the crossing search and the Morse index shoot, polish and solve on
    # numpy and scipy.linalg alone
    code = (
        "from henonball.bifurcation import find_bifurcation_alpha, morse_index\n"
        "bp = find_bifurcation_alpha(3, 0.01, k=2)\n"
        "morse_index(3, 0.01, bp.alpha_k_eps + 0.1)"
    )
    assert loaded_after(code) == []


def test_import_builds_no_grid():
    # SolverCache.grids' pairs are built on first use, not at import
    env = dict(os.environ, PYTHONPATH=str(Path(henonball.__file__).parents[1]))
    code = ("import henonball.cli\nfrom henonball import bifurcation\n"
            "print(bifurcation._unit_ball_grids.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "0"
