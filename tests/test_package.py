import importlib
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


def test_import_and_welding_leave_scipy_interpolate_unloaded():
    # scipy.interpolate costs about 0.2 s of import and 18 MB of memory;
    # grids are read through scipy.ndimage, so nothing should load it
    script = (
        "import sys\n"
        "import teichkit\n"
        "teichkit.welding(teichkit.BeltramiCoefficient.constant_disk("
        "0.2, 0.5), grid_n=64)\n"
        "print('scipy.interpolate' in sys.modules)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=600,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False"]
