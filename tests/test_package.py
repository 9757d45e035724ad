import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import click
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
# ``targets``). Nothing in the package calls nifti.load_volume any more,
# fusion no longer calls region_mask or recompose_labels (staple_lut reads the
# tables of ``regions``), metrics no longer calls region_mask and pipeline no
# longer calls evaluate_case (both score through metrics.score_codes); they
# stay for the tracer until the benchmark stops wrapping them.
# ``regions.recompose_labels`` is gone: fusion.recompose_labels is
# ``regions.compose``, bound under the tracer's name.
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


# Each command's options, by their long names, in the order its help lists
# them. A setting has one home: fuse reads its ET threshold and STAPLE
# controls from the config alone, and a new option is a deliberate edit here.
OPTIONS = {
    "eval": ["out", "jobs", "hd95-penalty"],
    "fuse": ["config", "jobs", "out"],
    "postprocess": ["et-threshold"],
    "rank": ["out"],
    "report": ["out"],
    "synth": ["out", "seed", "shape", "raters", "rate", "probmaps", "no-probmaps"],
}


def test_each_command_has_only_its_options():
    got = {name: [opt.removeprefix("--") for p in command.params if isinstance(p, click.Option)
                  for opt in (*p.opts, *p.secondary_opts)]
           for name, command in main.commands.items()}
    assert got == OPTIONS


def _fresh_python(args, env=None):
    """Run ``python args`` in a fresh interpreter with ``src`` on the path and
    no OPENBLAS_NUM_THREADS but what ``env`` sets; returns its stdout."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = str(Path(bratsfuse.__file__).parents[1])
    out = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                         check=True, timeout=120,
                         env={**base, "PYTHONPATH": src, **(env or {})})
    return out.stdout


def test_importing_the_package_loads_no_numpy():
    code = "import sys, bratsfuse; print('numpy' in sys.modules)"
    assert _fresh_python(["-c", code]).strip() == "False"


def test_the_cli_starts_numpy_without_a_blas_thread_pool():
    # OpenBLAS would start one spinning worker per extra CPU when numpy
    # loads; the CLI keeps it to the main thread.
    code = ("import os, sys, bratsfuse.cli\n"
            "print('numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'))\n"
            "task = '/proc/self/task'\n"
            "print(len(os.listdir(task)) if os.path.isdir(task) else 'none')")
    loaded, threads = _fresh_python(["-c", code]).splitlines()
    assert loaded == "True 1"
    if threads == "none":
        pytest.skip("no /proc/self/task to count threads in")
    assert threads == "1"


def test_the_cli_keeps_a_blas_thread_count_the_user_set():
    code = "import os, bratsfuse.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh_python(["-c", code], env={"OPENBLAS_NUM_THREADS": "3"}).strip() == "3"


@pytest.mark.parametrize("raters", [8, 20])
def test_fused_outputs_do_not_depend_on_the_blas_thread_count(tmp_path, raters):
    result = CliRunner().invoke(main, ["synth", "--out", str(tmp_path), "--shape", "48", "48",
                                       "40", "--raters", str(raters)])
    assert result.exit_code == 0, result.output
    config = str(tmp_path / "fuse_config.json")
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"fused_blas{threads}"
        _fresh_python(["-m", "bratsfuse.cli", "fuse", "--config", config, "--out", str(out)],
                      env={"OPENBLAS_NUM_THREADS": threads})
        written.append([(out / name).read_bytes()
                        for name in ("case_000.nii", "case_000_staple.json")])
    assert written[0] == written[1]
