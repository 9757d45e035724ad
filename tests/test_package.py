import importlib
import pkgutil

import pytest

import bratsfuse

MODULES = sorted(m.name for m in pkgutil.iter_modules(bratsfuse.__path__))


def test_modules_are_found():
    assert {"fusion", "metrics", "nifti", "pipeline", "volume"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"bratsfuse.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
