import importlib
import pkgutil

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
