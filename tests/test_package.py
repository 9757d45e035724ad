import importlib
import pkgutil

import pytest
from click.testing import CliRunner

import bratsfuse
from bratsfuse.cli import main

MODULES = sorted(m.name for m in pkgutil.iter_modules(bratsfuse.__path__))


def test_modules_are_found():
    assert {"fusion", "metrics", "nifti", "pipeline", "volume"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"bratsfuse.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


# The names the benchmark's tracer wraps on each module (benchmarks/tracing.py,
# ``targets``). Nothing in the package calls nifti.load_volume any more; it
# stays for the tracer until the benchmark stops wrapping it.
TRACED = {
    "cli": ("run_fuse", "run_eval"),
    "fusion": ("staple_binary", "region_mask", "recompose_labels"),
    "metrics": ("region_mask", "dice", "hd95", "boundary", "edt"),
    "nifti": ("load_volume",),
    "pipeline": ("load_labelmap", "load_probmap", "save_nifti", "average_probs",
                 "argmax_labels", "staple_multilabel_detailed", "et_threshold_relabel",
                 "evaluate_case", "write_summary_outputs", "summarize"),
}


@pytest.mark.parametrize("name", sorted(TRACED))
def test_traced_names_stay_bound(name):
    module = importlib.import_module(f"bratsfuse.{name}")
    assert [n for n in TRACED[name] if not callable(getattr(module, n, None))] == []


def test_the_cli_has_only_the_fusion_and_scoring_commands():
    result = CliRunner().invoke(main, ["--help"])
    assert result.exit_code == 0, result.output
    listing = result.output.split("Commands:\n")[1]
    assert [line.split()[0] for line in listing.splitlines() if line.strip()] == [
        "eval", "fuse", "postprocess", "rank", "report", "synth"]
    for gone in ("preprocess", "tiling-plan"):
        result = CliRunner().invoke(main, [gone])
        assert result.exit_code == 2
        assert f"No such command '{gone}'" in result.output
