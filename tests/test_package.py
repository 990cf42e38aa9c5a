import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import teichkit

MODULES = ["teichkit"] + [f"teichkit.{m.name}"
                          for m in pkgutil.iter_modules(teichkit.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a stale __all__ entry breaks `from teichkit.x import *` and every
    # tool that walks the public names with getattr
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", ())
               if not hasattr(mod, attr)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_public_functions_read_every_parameter(name):
    # a parameter the body never reads is a knob that does nothing: the
    # caller restates a value the code ignores or could work out itself
    mod = importlib.import_module(name)
    public = set(getattr(mod, "__all__", ()))
    unread = []
    for node in ast.parse(inspect.getsource(mod)).body:
        if not isinstance(node, ast.FunctionDef) or node.name not in public:
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args,
                                  *args.kwonlyargs, args.vararg, args.kwarg)
                  if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{node.name}.{p}" for p in params if p not in read]
    assert not unread


def test_import_and_welding_leave_scipy_interpolate_unloaded():
    # scipy.interpolate costs about 0.2 s of import and 18 MB of memory;
    # grids are read through scipy.ndimage, so nothing should load it.
    # scipy.linalg (6 MB) is not needed either: the Gauss-Jacobi rule of
    # A_p is built with numpy; nor is multiprocessing, which only the
    # CLI's --jobs loads
    script = (
        "import sys\n"
        "import teichkit.cli\n"
        "mu = teichkit.BeltramiCoefficient.constant_disk(0.2, 0.5)\n"
        "teichkit.welding(mu, grid_n=64)\n"
        "teichkit.bers_map(mu, grid_n=64).ap_norm_report\n"
        "print([m in sys.modules for m in ('scipy.interpolate', "
        "'scipy.linalg', 'concurrent.futures.process')])\n")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=600,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[False, False, False]"
