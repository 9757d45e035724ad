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


# The names the benchmark's tracer wraps on these modules (benchmarks/tracing.py).
TRACED = {
    "pipeline": ("load_labelmap", "load_probmap", "save_nifti", "average_probs",
                 "argmax_labels", "staple_multilabel_detailed", "et_threshold_relabel"),
    "fusion": ("staple_binary", "region_mask", "recompose_labels"),
}


@pytest.mark.parametrize("name", sorted(TRACED))
def test_traced_names_stay_bound(name):
    module = importlib.import_module(f"bratsfuse.{name}")
    assert [n for n in TRACED[name] if not callable(getattr(module, n, None))] == []
