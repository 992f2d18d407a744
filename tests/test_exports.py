import importlib
import pkgutil

import pytest

import hcalc

MODULES = sorted(info.name for info in pkgutil.iter_modules(hcalc.__path__, "hcalc."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    # a name deleted from a module but left in its __all__ breaks star imports
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
