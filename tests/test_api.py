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


def test_cli_import_leaves_out_scipy_interpolate():
    env = dict(os.environ, PYTHONPATH=str(Path(henonball.__file__).parents[1]))
    code = "import sys, henonball.cli; print('scipy.interpolate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
