import errno
import json
import math
import os
import signal
import struct
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import bratsfuse
from bratsfuse import fusion, nifti, pipeline
from bratsfuse.cli import main
from bratsfuse.errors import (
    BadData,
    BadHeader,
    BadMagic,
    ConfigError,
    GeometryMismatch,
    InvalidLabel,
    TruncatedFile,
    UnsupportedDtype,
    UnsupportedEncoding,
)
from bratsfuse.fusion import (
    CODE_BITS,
    argmax_labels,
    average_probs,
    joint_codes,
    staple_multilabel_detailed,
)
from bratsfuse.metrics import (
    EMPTY_PENALTY_MM,
    evaluate_case,
    metrics_csv_header,
    metrics_csv_row,
)
from bratsfuse.nifti import (
    ProbmapFiles,
    header_bytes,
    load_labelmap,
    load_probmap,
    save_nifti,
    save_probmap,
)
from bratsfuse.postprocess import DEFAULT_ET_THRESHOLD, et_threshold_relabel
from bratsfuse.pipeline import (
    CaseInput,
    ModelInput,
    PipelineConfig,
    run_eval,
    run_fuse,
    run_postprocess,
    run_rank,
)
from bratsfuse.regions import Region
from bratsfuse.synth import PhantomSpec, corrupt_labels, make_phantom, noisy_probmap
from bratsfuse.volume import BRATS_LABELS, LabelMap, ProbMap, Volume

from .oracles import REGION_LABELS, dice_counts, hd95_all_pairs, staple_fuse_reference
from .test_fusion import boundary_raters


def _labels(shape=(6, 6, 4)):
    data = np.zeros(shape, dtype=np.uint8)
    data[1:4, 1:4, 1:3] = 2
    data[2, 2, 1] = 4
    return LabelMap(data, (1.0, 1.0, 2.0))


def _patch(path, fmt, offset, value):
    """Overwrite the bytes at ``offset`` of a written file with ``value``
    packed as ``fmt``."""
    raw = bytearray(path.read_bytes())
    struct.pack_into(fmt, raw, offset, value)
    path.write_bytes(bytes(raw))


def _nan_prediction(path, shape=(6, 6, 4)):
    """A float32 prediction file with one NaN voxel (Volume refuses NaN, so
    the voxel is patched into the written bytes)."""
    save_nifti(path, Volume(np.zeros(shape, np.float32), (1.0, 1.0, 2.0)))
    _patch(path, "<f", 352 + 4 * 5, float("nan"))


def _nan_vox_offset_prediction(path):
    """A label prediction whose header says its voxels start at offset NaN."""
    save_nifti(path, _labels())
    _patch(path, "<f", 108, float("nan"))


def _eval_dirs(tmp_path, write_bad=_nan_prediction):
    pred, gt = tmp_path / "pred", tmp_path / "gt"
    pred.mkdir()
    gt.mkdir()
    for case in ("bad", "good"):
        save_nifti(gt / f"{case}.nii", _labels())
    save_nifti(pred / "good.nii", _labels())
    write_bad(pred / "bad.nii")
    return pred, gt


def test_nan_prediction_is_a_per_case_error(tmp_path):
    pred, gt = _eval_dirs(tmp_path)
    cases, errors = run_eval(pred, gt, tmp_path / "out")
    assert [c.case_id for c in cases] == ["good"]
    assert cases[0].dsc == {"ET": 1.0, "TC": 1.0, "WT": 1.0}
    assert [(e["case_id"], e["error"]) for e in errors] == [("bad", "BadData")]
    written = json.loads((tmp_path / "out" / "errors.json").read_text())
    assert written == errors
    csv_rows = (tmp_path / "out" / "cases.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in csv_rows[1:]] == ["good"]


def test_nan_vox_offset_is_a_per_case_bad_header(tmp_path):
    pred, gt = _eval_dirs(tmp_path, _nan_vox_offset_prediction)
    cases, errors = run_eval(pred, gt, tmp_path / "out")
    assert [c.case_id for c in cases] == ["good"]
    assert [(e["case_id"], e["error"]) for e in errors] == [("bad", "BadHeader")]
    assert json.loads((tmp_path / "out" / "errors.json").read_text()) == errors


def test_eval_cli_exits_2_on_a_nan_prediction(tmp_path):
    pred, gt = _eval_dirs(tmp_path)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["eval", str(pred), str(gt), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "evaluated 1 case(s), 1 error(s)" in result.output
    assert [e["case_id"] for e in json.loads((out / "errors.json").read_text())] == ["bad"]


def _directory(path):
    path.mkdir()


def _dangling_link(path):
    path.symlink_to(path.parent / "missing.nii")


@pytest.mark.parametrize("side", ["pred", "gt"])
@pytest.mark.parametrize("make_bad", [_directory, _dangling_link])
def test_an_unreadable_eval_input_is_a_per_case_error(tmp_path, side, make_bad):
    pred, gt = _eval_dirs(tmp_path, lambda p: save_nifti(p, _labels()))
    bad = (pred if side == "pred" else gt) / "bad.nii"
    bad.unlink()
    make_bad(bad)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["eval", str(pred), str(gt), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "evaluated 1 case(s), 1 error(s)" in result.output
    assert "Traceback" not in result.output
    [error] = json.loads((out / "errors.json").read_text())
    assert (error["case_id"], error["error"]) == ("bad", "ConfigError")
    assert error["detail"].startswith(f"cannot open label map {bad}: ")
    rows = (out / "cases.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["good"]


@pytest.mark.parametrize("penalty", ["nan", "inf", "-5"])
def test_eval_refuses_a_bad_hd95_penalty_before_any_case(tmp_path, penalty):
    pred, gt = _eval_dirs(tmp_path)
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match="hd95 penalty must be finite and nonnegative"):
        run_eval(pred, gt, out, penalty=float(penalty))
    result = CliRunner().invoke(main, ["eval", str(pred), str(gt), "--out", str(out),
                                       "--hd95-penalty", penalty])
    assert result.exit_code == 1, result.output
    assert result.output.startswith("Error: hd95 penalty must be finite")
    assert result.output.count("\n") == 1
    assert not out.exists()


def test_eval_refuses_directories_without_a_nii_file(tmp_path):
    # BraTS ships .nii.gz, which eval does not read: two such directories
    # are an error before any output, not "evaluated 0 case(s)".
    pred, gt = _eval_dirs(tmp_path)
    for d in (pred, gt):
        for f in d.glob("*.nii"):
            f.rename(f.with_name(f.name + ".gz"))
    out = tmp_path / "out"
    message = f"no .nii file in {pred} or {gt} (only *.nii is read)"
    with pytest.raises(ConfigError) as e:
        run_eval(pred, gt, out)
    assert str(e.value) == message
    result = CliRunner().invoke(main, ["eval", str(pred), str(gt), "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert result.output == f"Error: {message}\n"
    assert not out.exists()


def test_unpaired_cases_are_error_records(tmp_path):
    pred, gt = _eval_dirs(tmp_path)
    save_nifti(pred / "extra.nii", _labels())
    (gt / "bad.nii").rename(gt / "lone.nii")
    _, errors = run_eval(pred, gt, tmp_path / "out")
    assert errors == [
        {"case_id": "bad", "error": "UnpairedCase",
         "detail": "no ground truth for prediction bad.nii"},
        {"case_id": "extra", "error": "UnpairedCase",
         "detail": "no ground truth for prediction extra.nii"},
        {"case_id": "lone", "error": "UnpairedCase",
         "detail": "no prediction for ground truth lone.nii"},
    ]


@pytest.mark.parametrize("et, threshold, before, after", [
    (True, 200, 1, 0),   # one ET voxel, below the threshold: relabeled
    (True, 1, 1, 1),     # at the threshold: kept
    (False, 200, 0, 0),  # no ET at all: nothing to relabel
])
def test_et_counts_before_and_after_the_threshold(tmp_path, et, threshold, before, after):
    labels = _labels()
    if not et:
        labels = LabelMap(np.where(labels.data == 4, 1, labels.data), labels.spacing)
    save_nifti(tmp_path / "m.nii", labels)
    case = CaseInput("c0", (ModelInput("m", labelmap=tmp_path / "m.nii"),))
    cfg = PipelineConfig(cases=(case,), output_dir=tmp_path / "fused", et_threshold=threshold)
    [diag], _ = run_fuse(cfg)
    assert (diag["et_voxels_before"], diag["et_voxels_after"]) == (before, after)
    assert diag["et_relabeled"] == (before > after)
    fused = load_labelmap(tmp_path / "fused" / "c0.nii").data
    assert int((fused == 4).sum()) == after

    out = tmp_path / "post.nii"
    result = CliRunner().invoke(main, ["postprocess", str(tmp_path / "m.nii"), str(out),
                                       "--et-threshold", str(threshold)])
    assert result.exit_code == 0, result.output
    assert result.output == f"wrote {out} (ET voxels {before} -> {after})\n"


def test_postprocess_cli_refuses_a_negative_et_threshold(tmp_path):
    save_nifti(tmp_path / "in.nii", _labels())
    out = tmp_path / "out.nii"
    result = CliRunner().invoke(main, ["postprocess", str(tmp_path / "in.nii"), str(out),
                                       "--et-threshold", "-1"])
    assert result.exit_code == 2, result.output
    assert "Invalid value for '--et-threshold'" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert not out.exists()


@pytest.mark.parametrize("name, message", [
    ("nodir/out.nii", "No such file or directory"), ("somedir", "Is a directory")])
def test_a_postprocess_output_that_cannot_be_written_is_one_line(tmp_path, name, message):
    save_nifti(tmp_path / "in.nii", _labels())
    earlier = tmp_path / "somedir" / "earlier.nii"
    earlier.parent.mkdir()
    earlier.write_bytes(b"an earlier run's file\n")
    out = tmp_path / name
    result = CliRunner().invoke(main, ["postprocess", str(tmp_path / "in.nii"), str(out)])
    assert result.exit_code == 1
    assert result.output == f"Error: {out}: {message}\n"  # not the temporary file's name
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.nii", "somedir"]
    assert list(earlier.parent.iterdir()) == [earlier]
    assert earlier.read_bytes() == b"an earlier run's file\n"


@pytest.mark.parametrize("command", ["fuse", "eval", "report", "rank", "synth"])
def test_an_out_that_names_a_file_is_a_one_line_error(tmp_path, command):
    for d in ("pred", "gt"):
        (tmp_path / d).mkdir()
        save_nifti(tmp_path / d / "c0.nii", _labels())
    (tmp_path / "cfg.json").write_text(json.dumps({"output_dir": "fused", "cases": [
        {"id": "c0", "models": [{"name": "m", "labelmap": "pred/c0.nii"}]}]}))
    (tmp_path / "cases.csv").write_text(
        "case_id,DSC_ET,DSC_TC,DSC_WT,HD95_ET,HD95_TC,HD95_WT\nc0,1,1,1,0,0,0\n")
    (tmp_path / "models.csv").write_text(
        "model,DSC_ET,DSC_TC,DSC_WT,HD95_ET,HD95_TC,HD95_WT\na,0.8,0.85,0.9,3,4,5\n")
    args = {
        "fuse": ["--config", str(tmp_path / "cfg.json")],
        "eval": [str(tmp_path / "pred"), str(tmp_path / "gt")],
        "report": [str(tmp_path / "cases.csv")],
        "rank": [str(tmp_path / "models.csv")],
        "synth": ["--shape", "20", "20", "20"],
    }[command]
    out = tmp_path / "taken"
    out.write_bytes(b"an earlier file\n")
    result = CliRunner().invoke(main, [command, *args, "--out", str(out)])
    assert result.exit_code == 1
    assert result.output == f"Error: {out}: File exists\n"
    assert out.read_bytes() == b"an earlier file\n"


EVAL_OUTPUTS = ("cases.csv", "cases.json", "summary.json", "summary.txt")
RANK_OUTPUTS = ("ranking.json", "ranking.csv", "ranking.txt")


@pytest.mark.parametrize("name", EVAL_OUTPUTS + RANK_OUTPUTS)
def test_a_failed_write_keeps_the_earlier_file(tmp_path, monkeypatch, name):
    out = tmp_path / "out"
    if name in EVAL_OUTPUTS:
        pred, gt = _eval_dirs(tmp_path)

        def run():
            run_eval(pred, gt, out)
    else:
        summary = tmp_path / "models.csv"
        summary.write_text("model,DSC_ET,DSC_TC,DSC_WT,HD95_ET,HD95_TC,HD95_WT\n"
                           "a,0.8,0.85,0.9,3.0,4.0,5.0\nb,0.7,0.8,0.88,4.0,5.0,6.0\n")

        def run():
            run_rank(summary, out)
    run()
    written = {p.name: p.read_bytes() for p in out.iterdir()}
    earlier = b"an earlier run's file\n"
    (out / name).write_bytes(earlier)
    real = nifti._write_atomic

    @contextmanager
    def failing(path):
        with real(path) as fh:
            if path.name == name:
                fh.write(b"half a fi")
                raise OSError("No space left on device")
            yield fh

    monkeypatch.setattr(nifti, "_write_atomic", failing)
    with pytest.raises(OSError, match="No space left"):
        run()
    assert (out / name).read_bytes() == earlier
    assert sorted(p.name for p in out.iterdir()) == sorted(written)  # no temporary file
    monkeypatch.setattr(nifti, "_write_atomic", real)
    run()
    assert {p.name: p.read_bytes() for p in out.iterdir()} == written


def test_cases_csv_reads_back_what_eval_wrote(tmp_path):
    pred, gt = _eval_dirs(tmp_path)
    cases, _ = run_eval(pred, gt, tmp_path / "out")
    assert pipeline.read_cases_csv(tmp_path / "out" / "cases.csv") == cases


def test_case_ids_with_a_comma_or_a_quote_survive_eval_and_report(tmp_path):
    # A carriage return is quoted too, though csv.writer leaves it bare.
    pairs = {"a,b": _phantom_pair(), 'q"x': _phantom_pair(8), "c0": _phantom_pair(9),
             "a\rb": _phantom_pair(10)}
    out = tmp_path / "out"
    cases, errors = run_eval(*_write_pairs(tmp_path, pairs), out)
    assert errors == [] and [c.case_id for c in cases] == ["a\rb", "a,b", "c0", 'q"x']
    lines = (out / "cases.csv").read_bytes().decode().split("\n")
    assert lines[0] == "case_id,DSC_ET,DSC_TC,DSC_WT,HD95_ET,HD95_TC,HD95_WT"
    assert [line.split(",")[0] for line in lines[1:]] == ['"a\rb"', '"a', "c0", '"q""x"', ""]
    result = CliRunner().invoke(main, ["report", str(out / "cases.csv"),
                                       "--out", str(tmp_path / "report")])
    assert result.exit_code == 0, result.output
    assert pipeline.read_cases_csv(out / "cases.csv") == cases
    assert (tmp_path / "report" / "summary.json").read_bytes() == \
        (out / "summary.json").read_bytes()


def _cases_csv_naming_a_twice(tmp_path) -> Path:
    """A cases CSV whose case ``a`` (DSC 0.5 everywhere) has two rows and
    case ``b`` (DSC 1) one: read as three cases, its mean DSC would be 0.6667,
    not 0.75."""
    path = tmp_path / "cases.csv"
    path.write_text("case_id,DSC_ET,DSC_TC,DSC_WT,HD95_ET,HD95_TC,HD95_WT\n"
                    "a,0.5,0.5,0.5,2,2,2\nb,1,1,1,0,0,0\na,0.5,0.5,0.5,2,2,2\n")
    return path


def test_a_case_named_by_two_rows_is_a_config_error(tmp_path):
    path = _cases_csv_naming_a_twice(tmp_path)
    with pytest.raises(ConfigError, match=r"^bad metrics row .*: case 'a' is named by an "
                                          r"earlier row$"):
        pipeline.read_cases_csv(path)


def test_report_cli_refuses_a_case_named_by_two_rows(tmp_path):
    path = _cases_csv_naming_a_twice(tmp_path)
    result = CliRunner().invoke(main, ["report", str(path), "--out", str(tmp_path / "r")])
    assert result.exit_code == 1, result.output
    assert result.output.startswith("Error: bad metrics row ")
    assert result.output.endswith(": case 'a' is named by an earlier row\n")
    assert len(result.output.splitlines()) == 1
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("text, message", [
    ("case_id,DSC_ET\nc0,0.5\n", "bad metrics row {'case_id': 'c0', 'DSC_ET': '0.5'}"),
    ("case_id,DSC_ET,DSC_TC,DSC_WT,HD95_ET,HD95_TC,HD95_WT\nc0,1,1,1,nan,0,0\n",
     "bad metrics row"),
    ("case_id,DSC_ET,DSC_TC,DSC_WT,HD95_ET,HD95_TC,HD95_WT\n", "no case rows in"),
], ids=["missing-column", "non-finite", "no-rows"])
def test_report_cli_refuses_a_bad_cases_csv(tmp_path, text, message):
    path = tmp_path / "cases.csv"
    path.write_text(text)
    result = CliRunner().invoke(main, ["report", str(path), "--out", str(tmp_path / "r")])
    assert result.exit_code == 1, result.output
    assert f"Error: {message}" in result.output
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command", ["report", "rank"])
def test_a_csv_that_is_not_utf8_is_a_one_line_error(tmp_path, command):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"\xff\xfecase_id,DSC_ET\n\xffc0,0.5\n")
    result = CliRunner().invoke(main, [command, str(path), "--out", str(tmp_path / "r")])
    assert result.exit_code == 1, result.output
    assert result.output.startswith(f"Error: {path} is not UTF-8 text: ")
    assert len(result.output.splitlines()) == 1
    assert not (tmp_path / "r").exists()


def test_a_failed_postprocess_write_keeps_the_earlier_file(tmp_path, monkeypatch):
    save_nifti(tmp_path / "in.nii", _labels())
    out = tmp_path / "out" / "post.nii"
    out.parent.mkdir()
    earlier = b"an earlier run's file\n"
    out.write_bytes(earlier)
    real = pipeline._write_atomic

    @contextmanager
    def failing(path):
        with real(path) as fh:
            yield fh  # the whole file is written, then closing it fails
            raise OSError("No space left on device")

    monkeypatch.setattr(pipeline, "_write_atomic", failing)
    args = ["postprocess", str(tmp_path / "in.nii"), str(out)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 1
    assert result.output == "Error: No space left on device\n"
    assert out.read_bytes() == earlier
    assert [p.name for p in out.parent.iterdir()] == ["post.nii"]  # no temporary file
    monkeypatch.setattr(pipeline, "_write_atomic", real)
    assert CliRunner().invoke(main, args).exit_code == 0
    want = et_threshold_relabel(load_labelmap(tmp_path / "in.nii"), DEFAULT_ET_THRESHOLD)
    assert out.read_bytes() == save_nifti(tmp_path / "want.nii", want).read_bytes()


def _phantom_map(tmp_path):
    """A phantom label map on an anisotropic grid with a nonzero origin,
    written as ``m.nii``; returns its path and its ET voxel count."""
    gt, _ = make_phantom(PhantomSpec(shape=STREAM_SHAPE, seed=7))
    et = int(np.count_nonzero(gt.data == 4))
    assert et > 0
    return save_nifti(tmp_path / "m.nii", LabelMap(gt.data, SPACING, ORIGIN)), et


def test_postprocess_writes_the_bytes_fuse_writes_for_the_map_alone(tmp_path):
    path, et = _phantom_map(tmp_path)
    for threshold in (0, et, et + 1):  # kept, kept at the threshold, relabeled
        case = CaseInput("c0", (ModelInput("m", labelmap=path),))
        [diag], _ = run_fuse(PipelineConfig((case,), tmp_path / "fused", threshold))
        post = run_postprocess(path, tmp_path / "post.nii", threshold)
        fused = (tmp_path / "fused" / "c0.nii").read_bytes()
        assert (tmp_path / "post.nii").read_bytes() == fused
        want = et_threshold_relabel(load_labelmap(path), threshold)
        assert fused == save_nifti(tmp_path / "want.nii", want).read_bytes()
        assert post["et_voxels_before"] == diag["et_voxels_before"] == et
        assert post["et_voxels_after"] == diag["et_voxels_after"] == (0 if threshold > et else et)
    assert not (tmp_path / "post_staple.json").exists()


def test_postprocess_can_write_over_its_input(tmp_path):
    path, et = _phantom_map(tmp_path)
    run_postprocess(path, tmp_path / "want.nii", et + 1)
    result = CliRunner().invoke(main, ["postprocess", str(path), str(path),
                                       "--et-threshold", str(et + 1)])
    assert result.exit_code == 0, result.output
    assert result.output == f"wrote {path} (ET voxels {et} -> 0)\n"
    assert path.read_bytes() == (tmp_path / "want.nii").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.nii", "want.nii"]


def _postprocess_peak(tmp_path, shape):
    """Postprocess a map of nested 16^3, 8^3 and 4^3 boxes in the middle of
    a grid of ``shape``; returns the tracemalloc peak."""
    tmp_path.mkdir()
    c = [n // 2 for n in shape]
    labels = _boxes(*(tuple(slice(m - h, m + h) for m in c) for h in (8, 4, 2)), shape)
    path = save_nifti(tmp_path / "m.nii", LabelMap(labels))
    tracemalloc.start()
    try:
        diag = run_postprocess(path, tmp_path / "out.nii")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (diag["et_voxels_before"], diag["et_voxels_after"]) == (64, 0)
    return peak


def test_postprocess_holds_memory_by_the_tumour_not_the_grid(tmp_path):
    _postprocess_peak(tmp_path / "warm", (80, 80, 64))
    small = _postprocess_peak(tmp_path / "small", (80, 80, 64))
    large = _postprocess_peak(tmp_path / "large", (240, 240, 155))
    # 22 times the voxels, and the peak grows only by one plane's buffers
    # (the read buffer, the codes, their packing temporaries and the written
    # plane: about 4 bytes a plane voxel); the kept rectangles stay the
    # same. The large map whole would be 8.9 MB.
    added = 6 * (240 * 240 - 80 * 80)  # 6 bytes a plane voxel: 0.29 MB
    assert large < small + added, f"{small / 2**20:.2f} MB, then {large / 2**20:.2f} MB"
    assert large < 2**20, f"peak {large / 2**20:.2f} MB"


def test_cli_import_loads_neither_scipy_nor_numba():
    # scipy.ndimage would about double the start-up time of every command.
    code = ("import sys, bratsfuse.cli; "
            "print([m for m in ('scipy', 'numba') if m in sys.modules])")
    src = str(Path(bratsfuse.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_process_pool():
    # concurrent.futures.process (and multiprocessing) cost about 20 ms to
    # import, and the --jobs workers are forked without them.
    code = ("import sys, bratsfuse.cli; "
            "print([m for m in ('concurrent.futures.process', 'multiprocessing') "
            "if m in sys.modules])")
    src = str(Path(bratsfuse.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def _cli_in_subprocess(*commands):
    """Run the CLI ``commands`` (argument lists) one after another in a fresh
    interpreter; returns which of numpy.ma and the process-pool modules it
    had loaded by the end."""
    code = ("import sys\n"
            "from bratsfuse.cli import main\n"
            f"for args in {commands!r}:\n"
            "    main(args, standalone_mode=False)\n"
            "print([m for m in ('numpy.ma', 'concurrent.futures.process', "
            "'multiprocessing') if m in sys.modules])")
    src = str(Path(bratsfuse.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    return out.stdout.strip().splitlines()[-1]


def test_eval_of_one_pair_starts_no_process_pool(tmp_path):
    # One pair runs in the calling process, whatever --jobs is.
    dirs = [str(d) for d in _write_pairs(tmp_path, {"c0": _phantom_pair()})]
    out4, out1 = tmp_path / "jobs4", tmp_path / "jobs1"
    assert _cli_in_subprocess(["eval", *dirs, "--out", str(out4), "--jobs", "4"]) == "[]"
    run_eval(*dirs, out1)
    names = sorted(p.name for p in out1.iterdir())
    assert names == ["cases.csv", "cases.json", "summary.json", "summary.txt"]
    assert sorted(p.name for p in out4.iterdir()) == names
    for name in names:
        assert (out4 / name).read_bytes() == (out1 / name).read_bytes(), name


def test_no_more_workers_are_forked_than_cases(tmp_path, monkeypatch):
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    dirs = _write_pairs(tmp_path, {"c0": _phantom_pair(), "c1": _phantom_pair(8)})
    cases, errors = run_eval(*dirs, tmp_path / "out", jobs=4)
    assert forks == [os.getpid()] * 2
    assert [c.case_id for c in cases] == ["c0", "c1"] and errors == []


def test_eval_with_two_jobs_loads_no_process_pool(tmp_path):
    # The case workers are forked directly: concurrent.futures.process and
    # multiprocessing would cost about 15 ms and 1 MB before the forks.
    dirs = [str(d) for d in _write_pairs(tmp_path, {"c0": _phantom_pair(),
                                                    "c1": _phantom_pair(8)})]
    out = tmp_path / "out"
    assert _cli_in_subprocess(["eval", *dirs, "--out", str(out), "--jobs", "2"]) == "[]"
    rows = (out / "cases.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["c0", "c1"]


def _eval_three_pairs_with(tmp_path, monkeypatch, on_case):
    """``run_eval`` of three pairs at ``jobs=2``, ``on_case(case_id)`` called
    in the workers before each case is scored; checks, however the run ends,
    that it left no child process and no open file descriptor behind."""
    dirs = _write_pairs(tmp_path, {f"c{c}": _phantom_pair(seed=c) for c in range(3)})
    parent, real = os.getpid(), pipeline._eval_case

    def eval_case(pred_dir, gt_dir, penalty, case_id):
        assert os.getpid() != parent, "a case ran in the parent"
        on_case(case_id)
        return real(pred_dir, gt_dir, penalty, case_id)

    monkeypatch.setattr(pipeline, "_eval_case", eval_case)
    fds = len(os.listdir("/dev/fd"))
    try:
        return run_eval(*dirs, tmp_path / "out", jobs=2)
    finally:
        assert len(os.listdir("/dev/fd")) == fds
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("failing", ["c0", "c1"])
def test_a_worker_error_is_raised_again_in_the_parent(tmp_path, monkeypatch, failing):
    # Worker 0 takes c0 and c2, worker 1 takes c1: an error in worker 0 is
    # read while worker 1 may still run, and worker 1 is then killed. The
    # error is raised from one that holds the worker's pid and traceback.
    def on_case(case_id):
        if case_id == failing:
            raise ZeroDivisionError(f"in {case_id}")

    with pytest.raises(ZeroDivisionError, match=f"in {failing}") as raised:
        _eval_three_pairs_with(tmp_path, monkeypatch, on_case)
    cause = raised.value.__cause__
    assert type(cause) is RuntimeError
    pid, text = str(cause).split(" raised:\n", 1)
    assert pid.startswith("case worker ")
    assert int(pid.removeprefix("case worker ")) != os.getpid()
    assert text.startswith("Traceback (most recent call last):\n")
    line = on_case.__code__.co_firstlineno + 2
    assert (f'line {line}, in on_case\n    raise ZeroDivisionError(f"in {{case_id}}")\n'
            in text)


@pytest.mark.parametrize("how, status", [("exit", 3), ("kill", -signal.SIGKILL)])
def test_a_worker_that_dies_is_a_runtime_error_naming_its_status(tmp_path, monkeypatch,
                                                                 how, status):
    def on_case(case_id):
        if case_id == "c1":
            if how == "exit":
                os._exit(3)
            os.kill(os.getpid(), signal.SIGKILL)

    with pytest.raises(RuntimeError,
                       match=rf"^case worker \d+ ended without a result "
                             rf"\(exit status {status}\)$"):
        _eval_three_pairs_with(tmp_path, monkeypatch, on_case)


def test_workers_that_finish_leave_no_child_process(tmp_path, monkeypatch):
    cases, errors = _eval_three_pairs_with(tmp_path, monkeypatch, lambda case_id: None)
    assert [c.case_id for c in cases] == ["c0", "c1", "c2"] and errors == []


def test_eval_and_report_load_no_numpy_ma(tmp_path):
    # np.percentile would import numpy.ma: about 10 ms and 1 MB per process.
    pairs = {f"c{c}": _phantom_pair(seed=c) for c in range(3)}
    dirs = [str(d) for d in _write_pairs(tmp_path, pairs)]
    out, rep = tmp_path / "eval", tmp_path / "report"
    assert _cli_in_subprocess(
        ["eval", *dirs, "--out", str(out)],
        ["report", str(out / "cases.csv"), "--out", str(rep)]) == "[]"
    assert (out / "summary.json").read_bytes() == (rep / "summary.json").read_bytes()


def test_fusing_nine_models_loads_no_numpy_ma(tmp_path):
    # Nine models' codes need 18 bits, more than np.bincount counts, so their
    # distinct codes are sorted out; np.unique would import numpy.ma.
    d = tmp_path / "synth"
    assert _cli_in_subprocess(
        ["synth", "--out", str(d), "--shape", "24", "24", "16", "--raters", "8"],
        ["fuse", "--config", str(d / "fuse_config.json")]) == "[]"
    assert len(json.loads((d / "fuse_config.json").read_text())["cases"][0]["models"]) == 9
    assert (d / "fused" / "case_000.nii").is_file()


@pytest.mark.parametrize("command", ["fuse", "eval"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_a_usage_error(tmp_path, command, jobs):
    if command == "fuse":
        save_nifti(tmp_path / "m.nii", _labels())
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"cases": [{"id": "c0", "models": [{"name": "m", "labelmap": "m.nii"}]}]}))
        args = ["fuse", "--config", str(tmp_path / "cfg.json")]
    else:
        pred, gt = _eval_dirs(tmp_path)
        args = ["eval", str(pred), str(gt), "--out", str(tmp_path / "out")]
    result = CliRunner().invoke(main, [*args, "--jobs", jobs])
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '--jobs': {jobs} is not in the range x>=1." \
        in result.output
    assert not (tmp_path / "fused").exists() and not (tmp_path / "out").exists()


def test_config_with_seed_key_still_loads(tmp_path):
    save_nifti(tmp_path / "m.nii", _labels())
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "seed": 7,
        "output_dir": "fused",
        "cases": [{"id": "c0", "models": [{"name": "m", "labelmap": "m.nii"}]}],
    }))
    cfg = PipelineConfig.from_json(cfg_path)
    assert cfg.output_dir == tmp_path / "fused"
    assert [c.case_id for c in cfg.cases] == ["c0"]
    assert not hasattr(cfg, "seed")


# -- fold probability maps, decoded plane by plane -------------------------------

SPACING = (1.0, 1.25, 2.0)
ORIGIN = (4.0, -2.0, 7.5)

# Three folds of 6 x 5 x 8 voxels: the voxel patched into the second fold
# sits in plane 5, the voxels 150:180.
CHECK_SHAPE = (6, 5, 8)
CHECK_VOXEL = 4 + 6 * (3 + 5 * 5)  # (4, 3, 5), x-fastest


def _folds(tmp_path, rng, shape, n_folds, stem="case"):
    """Write ``n_folds`` random probability maps; returns their manifests."""
    manifests = []
    for f in range(n_folds):
        raw = rng.random((4,) + tuple(shape))
        raw /= raw.sum(axis=0, keepdims=True)
        pm = ProbMap(raw, SPACING, ORIGIN)
        manifests.append(save_probmap(pm, tmp_path / "probs", f"{stem}_f{f}"))
    return manifests


def _whole_volume_labels(manifests):
    return argmax_labels(average_probs([load_probmap(m) for m in manifests]))


def _fused_labels(manifests):
    """The labels of a one-model case of fold ``manifests``, fused with no ET
    threshold by ``_fuse_into`` (which raises the case's error), read back
    from the written file."""
    out = manifests[0].parent / "fused"
    out.mkdir(exist_ok=True)
    case = CaseInput("c", (ModelInput("m", prob_manifests=tuple(manifests)),))
    pipeline._fuse_into(case, PipelineConfig((case,), out, et_threshold=0), out / "c.nii")
    return load_labelmap(out / "c.nii")


def _assert_streamed_equals_whole(manifests):
    got = _fused_labels(manifests)
    want = _whole_volume_labels(manifests)
    assert got.data.tobytes(order="F") == want.data.tobytes(order="F")
    assert (got.spacing, got.origin) == (want.spacing, want.origin)
    return got


# The edges of the plane loop: one plane, and planes of one voxel.
EDGE_GRIDS = {"one_plane": (8, 6, 1), "one_voxel_planes": (1, 1, 11)}


def _fused_reads(manifests, monkeypatch):
    """Every ``ProbmapFiles.read_channel`` that fusing ``manifests`` made, in
    order, as ``(manifest, channel, start, stop)``: a scan reads one channel,
    a band all four in channel order. The labels are checked byte for byte
    against the whole-volume labels."""
    calls = []
    real_channel = ProbmapFiles.read_channel

    def read_channel(files, c, start, stop, buf):
        calls.append((files.manifest, c, start, stop))
        return real_channel(files, c, start, stop, buf)

    with monkeypatch.context() as patch:
        patch.setattr(ProbmapFiles, "read_channel", read_channel)
        got = _fused_labels(manifests)
    assert got.data.tobytes(order="F") == _whole_volume_labels(manifests).data.tobytes(order="F")
    return calls


def _rows(shape, z, step):
    """The voxel ranges of plane ``z`` of a grid of ``shape`` in pieces of
    ``step`` whole rows."""
    nx, ny, _ = shape
    return [(nx * (ny * z + y), nx * (ny * z + min(y + step, ny))) for y in range(0, ny, step)]


def _dense_plane_reads(manifests, shape, band, scan_rows=None):
    """The reads of fold maps with no certain background, decoded in bands
    of ``band`` rows. Per plane (the voxel range nx*ny*z : nx*ny*(z + 1)),
    the scan reads the first channel of the first fold, ``scan_rows`` rows
    at a time (by default all), and stops: the plane's first and last voxels
    are uncertain. Then each band is read from every fold in config order,
    channel by channel."""
    _, ny, nz = shape
    return [call for z in range(nz) for call in
            [(manifests[0], 0, *r) for r in _rows(shape, z, scan_rows or ny)]
            + [(m, c, *r) for r in _rows(shape, z, band) for m in manifests for c in range(4)]]


@pytest.mark.parametrize("shape", [(8, 6, 11), *EDGE_GRIDS.values()],
                         ids=["planes_of_48", *EDGE_GRIDS])
def test_streamed_labels_equal_whole_volume_labels(tmp_path, rng, monkeypatch, shape):
    monkeypatch.setattr(pipeline, "DECODE_VOXELS", 40)  # less than a plane of 48
    manifests = _folds(tmp_path, rng, shape, 3)
    # Bands of the rows that 40 voxels hold: 5 of 8, or the one row of 1. A
    # scan read holds four bands' rows, so the whole plane.
    band = min(40 // shape[0], shape[1])
    assert 4 * band >= shape[1]
    assert _fused_reads(manifests, monkeypatch) == _dense_plane_reads(manifests, shape, band)


def test_streamed_labels_when_the_default_decode_chunk_splits_planes(tmp_path, rng,
                                                                     monkeypatch):
    # 130 x 130 planes of dense maps: the scan reads the first fold's first
    # channel in one read of the plane (four bands hold 504 rows), and the
    # rectangle is the whole plane, decoded in two bands of rows, 126 (16380
    # voxels) and then 4.
    assert pipeline.DECODE_VOXELS // 130 == 126
    shape = (130, 130, 3)
    manifests = _folds(tmp_path, rng, shape, 2)
    assert _fused_reads(manifests, monkeypatch) == _dense_plane_reads(manifests, shape, 126)


def test_a_dense_plane_s_scan_reads_one_fold(tmp_path, rng, monkeypatch):
    # Planes of 6 x 5 in bands of one row: the scan reads the first fold's
    # first channel in pieces of four rows (four bands), rows 0:4 and 4:5,
    # then stops.
    monkeypatch.setattr(pipeline, "DECODE_VOXELS", 7)
    manifests = _folds(tmp_path, rng, CHECK_SHAPE, 3)
    reads = _fused_reads(manifests, monkeypatch)
    assert reads == _dense_plane_reads(manifests, CHECK_SHAPE, 1, scan_rows=4)
    # Per plane, two scan reads, then four per fold per band of one row.
    _, ny, nz = CHECK_SHAPE
    per_plane = 2 + 4 * len(manifests) * ny
    assert len(reads) == nz * per_plane
    scans = [r for z in range(nz) for r in reads[z * per_plane:][:2]]
    assert {(m, c) for m, c, _, _ in scans} == {(manifests[0], 0)}


def test_a_fold_model_s_read_block_does_not_grow_with_its_fold_count(tmp_path, rng):
    # 128 x 128 planes: a decode band is the plane's 128 rows, and the
    # model's read block, one fold's four float32 channels of a band, is
    # 16 * 128 * 128 bytes for any number of folds. Holding a block per fold
    # would add a whole block per added fold.
    assert pipeline.DECODE_VOXELS // 128 >= 128
    shape, block = (128, 128, 2), 16 * 128 * 128

    def peak(n_folds):
        manifests = _folds(tmp_path, rng, shape, n_folds, stem=f"folds{n_folds}")
        tracemalloc.start()
        try:
            _fused_labels(manifests)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    per_fold = (peak(8) - peak(2)) / 6
    assert per_fold < block / 4, f"{per_fold:.0f} bytes per added fold"


@pytest.mark.parametrize("decode_voxels, larger", [(16, "labels"), (1 << 14, "folds")])
def test_a_label_map_and_a_fold_model_share_one_read_buffer(tmp_path, rng, monkeypatch,
                                                            decode_voxels, larger):
    # Planes of 16 x 12: the float32 label map reads 768 bytes a plane; the
    # fold model's block, four float32 channels of a band, is 256 bytes in
    # bands of one row and 3,072 in one band of the plane's 12 rows.
    monkeypatch.setattr(pipeline, "DECODE_VOXELS", decode_voxels)
    shape = (16, 12, 3)
    labels = rng.choice(BRATS_LABELS, size=shape).astype(np.float32)
    save_nifti(tmp_path / "labels.nii", Volume(labels, SPACING, ORIGIN))
    folds = _folds(tmp_path, rng, shape, 2)
    case = CaseInput("c", (ModelInput("labels", labelmap=tmp_path / "labels.nii"),
                           ModelInput("folds", prob_manifests=tuple(folds))))
    # The same case with the folds decoded beforehand into a label map.
    save_nifti(tmp_path / "decoded.nii", _whole_volume_labels(folds))
    _, errors = run_fuse(PipelineConfig((replace(case, models=(
        case.models[0], ModelInput("folds", labelmap=tmp_path / "decoded.nii"))),),
        tmp_path / "want"))
    assert errors == []
    bufs = []
    real = nifti.PlaneReader.read

    def read(f, start, stop, buf):
        root = buf
        while isinstance(root.base, np.ndarray):
            root = root.base
        bufs.append((f.path.name, root))
        return real(f, start, stop, buf)

    monkeypatch.setattr(nifti.PlaneReader, "read", read)
    _, errors = run_fuse(PipelineConfig((case,), tmp_path / "fused"))
    assert errors == []
    assert (tmp_path / "fused" / "c.nii").read_bytes() == (tmp_path / "want" / "c.nii").read_bytes()
    assert {"labels.nii", "case_f0_ch0.nii", "case_f1_ch4.nii"} <= {name for name, _ in bufs}
    assert len({id(buf) for _, buf in bufs}) == 1
    band = min(decode_voxels // 16, 12)
    wanted = {"labels": 16 * 12 * 4, "folds": 4 * 4 * band * 16}
    assert bufs[0][1].nbytes == max(wanted.values()) == wanted[larger]


def test_streamed_labels_break_exact_ties_toward_the_later_channel(tmp_path):
    shape = (4, 3, 5)
    ties = [(0.25, 0.25, 0.25, 0.25), (0.5, 0.5, 0.0, 0.0), (0.5, 0.0, 0.5, 0.0),
            (0.0, 0.5, 0.0, 0.5), (0.125, 0.375, 0.375, 0.125), (0.0, 0.0, 0.5, 0.5)]
    want_labels = [4, 1, 2, 4, 2, 4]
    raw = np.zeros((4,) + shape)
    raw[0] = 1.0
    flat = raw.reshape(4, -1, order="F")
    for i, probs in enumerate(ties):
        flat[:, 7 * i] = probs
    raw = flat.reshape((4,) + shape, order="F")
    # Two folds whose average has the same ties: the values are dyadic.
    manifests = [save_probmap(ProbMap(raw, SPACING, ORIGIN), tmp_path, f"f{f}")
                 for f in range(2)]
    got = _assert_streamed_equals_whole(manifests)
    assert got.data.reshape(-1, order="F")[[7 * i for i in range(len(ties))]].tolist() \
        == want_labels


@pytest.mark.parametrize("decode_voxels", [1, 7, 29, 60, 1 << 15])
def test_labels_are_the_same_for_any_decode_chunk(tmp_path, rng, monkeypatch,
                                                  decode_voxels):
    # Planes of 6 x 5: 1 and 7 voxels make bands of one row, 29 bands of
    # four rows (the plane in two bands), and 60 and 1 << 15 one band of the
    # plane's five rows.
    monkeypatch.setattr(pipeline, "DECODE_VOXELS", decode_voxels)
    _assert_streamed_equals_whole(_folds(tmp_path, rng, CHECK_SHAPE, 3))


def test_fold_with_extra_planes_is_a_geometry_mismatch(tmp_path, rng):
    short = _folds(tmp_path, rng, (6, 5, 4), 2, stem="short")
    long_ = _folds(tmp_path, rng, (6, 5, 5), 1, stem="long")
    with pytest.raises(GeometryMismatch):
        _fused_labels(short + long_)


def test_channel_truncated_in_its_last_plane(tmp_path, rng):
    manifests = _folds(tmp_path, rng, (6, 5, 4), 3)
    path = manifests[2].parent / f"{manifests[2].stem}_ch1.nii"
    path.write_bytes(path.read_bytes()[:-7])
    with pytest.raises(TruncatedFile):
        _fused_labels(manifests)


def test_fold_decoding_holds_less_than_one_decoded_fold(tmp_path, rng):
    shape = (64, 64, 96)
    manifests = _folds(tmp_path, rng, shape, 5)
    fold_bytes = 4 * int(np.prod(shape)) * 8  # one fold's float64 map
    tracemalloc.start()
    try:
        labels = _fused_labels(manifests)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert labels.shape == shape
    assert peak < fold_bytes, f"peak {peak / 2**20:.1f} MB"


def test_fold_decoding_memory_grows_with_the_chunk_not_the_plane(tmp_path, rng,
                                                                monkeypatch):
    # The same voxels, so the same kept codes, in planes of 64 x 64 and of
    # 128 x 128.
    small = _folds(tmp_path, rng, (64, 64, 48), 3, stem="small")
    large = _folds(tmp_path, rng, (128, 128, 12), 3, stem="large")

    def peak(manifests, decode_voxels):
        monkeypatch.setattr(pipeline, "DECODE_VOXELS", decode_voxels)
        tracemalloc.start()
        try:
            _fused_labels(manifests)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    base = peak(large, 1024)
    # Four times the plane costs under 8 bytes per added plane voxel (one
    # plane's uint8 labels, uncertain mask, codes, packing temporaries and
    # output); decoding whole planes would cost 84 (float32 raw, float64
    # probs, mean, sums and best).
    assert base - peak(small, 1024) < 8 * (128 * 128 - 64 * 64)
    # Eight times the band (64 rows, not 8) costs at least its float64 probs
    # and mean.
    assert peak(large, 8192) - base > 2 * 4 * 8 * (8192 - 1024)


def _patch_channels(manifest, values, voxel=CHECK_VOXEL):
    """Store ``values`` (one per channel) at ``voxel`` of a written map."""
    for label, value in zip(ProbMap.channels, values):
        _patch(manifest.parent / f"{manifest.stem}_ch{label}.nii", "<f", 352 + 4 * voxel, value)


BAD_VOXELS = {
    "nan": ((0.25, float("nan"), 0.25, 0.5), "NaN or Inf"),
    "inf": ((0.25, 0.25, float("inf"), 0.5), "NaN or Inf"),
    "minus_inf": ((float("-inf"), 0.25, 0.25, 0.5), "NaN or Inf"),
    "zero": ((0.0, 0.0, 0.0, 0.0), "sum to 0"),
    # Sums to 1, so renormalising keeps it; clipping the -0.5 leaves 1.5.
    "clipped": ((0.5, -0.5, 0.5, 0.5), "channel sums deviate from 1 by 0.5"),
}


@pytest.mark.parametrize("bad", sorted(BAD_VOXELS))
def test_every_voxel_of_every_fold_is_checked(tmp_path, rng, bad):
    values, match = BAD_VOXELS[bad]
    bad_case = _folds(tmp_path, rng, CHECK_SHAPE, 3, stem="a_bad")
    _patch_channels(bad_case[1], values)
    with pytest.raises(BadData, match=match) as info:
        _fused_labels(bad_case)
    assert str(info.value).startswith(f"{bad_case[1]}: ")

    good_case = _folds(tmp_path, rng, CHECK_SHAPE, 3, stem="b_good")
    cfg = PipelineConfig(
        cases=tuple(CaseInput(cid, (ModelInput("soft", prob_manifests=tuple(ms)),))
                    for cid, ms in (("a_bad", bad_case), ("b_good", good_case))),
        output_dir=tmp_path / "fused",
    )
    diags, errors = run_fuse(cfg)
    assert [d["case_id"] for d in diags] == ["b_good"]
    assert errors == [{"case_id": "a_bad", "error": "BadData", "detail": str(info.value)}]
    assert json.loads((tmp_path / "fused" / "errors.json").read_text()) == errors


@pytest.mark.parametrize("bad", sorted(BAD_VOXELS))
def test_a_bad_voxel_in_a_later_decode_chunk_names_its_fold(tmp_path, rng, monkeypatch,
                                                            bad):
    # Bands of one row (7 voxels hold one row of 6): CHECK_VOXEL (172), in
    # row 3 of the plane 150:180, is in its fourth band.
    monkeypatch.setattr(pipeline, "DECODE_VOXELS", 7)
    values, match = BAD_VOXELS[bad]
    folds = _folds(tmp_path, rng, CHECK_SHAPE, 3)
    _patch_channels(folds[2], values)
    with pytest.raises(BadData, match=match) as info:
        _fused_labels(folds)
    assert str(info.value).startswith(f"{folds[2]}: ")


def _assert_the_average_is_checked(tmp_path, rng):
    # Each fold's renormalised, clipped channels sum to 1 + 0.99999999992e-6
    # (accepted); their average rounds to a sum of 1 + 1.00000000014e-6.
    folds = _folds(tmp_path, rng, CHECK_SHAPE, 2)
    _patch_channels(folds[0], (0.5900927186012268, -9.999999974752427e-07,
                               0.0006509264931082726, 0.40925735235214233))
    _patch_channels(folds[1], (0.48466530442237854, -9.999999974752427e-07,
                               0.0004276773252058774, 0.5149080157279968))
    for f in folds:
        load_probmap(f)  # each fold alone passes every check
    with pytest.raises(BadData, match="channel sums deviate from 1 by 1e-06") as info:
        _fused_labels(folds)
    assert str(info.value).startswith(f"average of {folds[0]}, {folds[1]}: ")


def test_the_average_of_the_folds_is_checked(tmp_path, rng):
    _assert_the_average_is_checked(tmp_path, rng)


def test_the_average_is_checked_in_a_later_decode_chunk(tmp_path, rng, monkeypatch):
    monkeypatch.setattr(pipeline, "DECODE_VOXELS", 7)
    _assert_the_average_is_checked(tmp_path, rng)


# -- voxels every fold stores as certain background --------------------------------

_DATATYPES = {"<u1": (2, 8), "<i2": (4, 16), "<f4": (16, 32)}


def _save_stored(directory, stem, channels, dtype="<f4"):
    """A fold manifest over channel files storing ``channels`` (``(4, nx,
    ny, nz)``, not renormalised) as ``dtype``."""
    directory.mkdir(exist_ok=True)
    files = []
    for label, channel in zip(ProbMap.channels, channels):
        header = bytearray(header_bytes(channel.shape, SPACING, ORIGIN, np.uint8))
        struct.pack_into("<2h", header, 70, *_DATATYPES[dtype])
        name = f"{stem}_ch{label}.nii"
        (directory / name).write_bytes(bytes(header) + channel.astype(dtype).tobytes(order="F"))
        files.append(name)
    manifest = directory / f"{stem}.json"
    manifest.write_text(json.dumps({"channels": list(ProbMap.channels), "files": files}))
    return manifest


def _background_folds(tmp_path, n_folds, zeros=(0.0,)):
    """``n_folds`` maps of ``CHECK_SHAPE`` storing (1, z, z, z) at every
    voxel, ``z`` taken from ``zeros`` in turn."""
    manifests = []
    for f in range(n_folds):
        stored = np.full((4,) + CHECK_SHAPE, zeros[f % len(zeros)], np.float32)
        stored[0] = 1.0
        manifests.append(_save_stored(tmp_path / "probs", f"case_f{f}", stored))
    return manifests


def _fused_as_whole(manifests, monkeypatch):
    """The fused labels of ``manifests``, checked byte for byte against the
    whole-volume labels, and the ``(manifest, voxels)`` of every
    ``ProbmapFiles.renormalise`` call fusing made."""
    want = _whole_volume_labels(manifests)
    calls = []
    real = ProbmapFiles.renormalise

    def renormalise(files, channels, out, sums):
        calls.append((files.manifest, out.shape[1]))
        return real(files, channels, out, sums)

    with monkeypatch.context() as patch:
        patch.setattr(ProbmapFiles, "renormalise", renormalise)
        got = _fused_labels(manifests)
    assert got.data.tobytes(order="F") == want.data.tobytes(order="F")
    return got, calls


@pytest.mark.parametrize("dtype", sorted(_DATATYPES))
def test_one_hot_folds_fuse_as_the_whole_volume_in_any_stored_dtype(tmp_path, rng,
                                                                    monkeypatch, dtype):
    # Bands of one row (13 voxels hold one row of 9): the tumour's rows are
    # decoded, in its columns only.
    monkeypatch.setattr(pipeline, "DECODE_VOXELS", 13)
    shape = (9, 7, 10)
    manifests = []
    for f in range(3):
        labels = np.zeros(shape, np.uint8)
        labels[2:7, 2:5, 3:7] = rng.choice(BRATS_LABELS, size=(5, 3, 4))
        one_hot = np.stack([labels == label for label in BRATS_LABELS])
        manifests.append(_save_stored(tmp_path / "probs", f"case_f{f}", one_hot, dtype))
    got, calls = _fused_as_whole(manifests, monkeypatch)
    assert set(np.unique(got.data)) == set(BRATS_LABELS)
    decoded = sum(n for _, n in calls)
    assert 0 < decoded < 3 * got.data.size


@pytest.mark.parametrize("voxel", [171, 174, 177], ids=["first", "middle", "last"])
def test_a_chunk_s_one_uncertain_voxel_is_decoded_alone(tmp_path, monkeypatch, voxel):
    # Each voxel of the plane 150:180 is alone its plane's rectangle.
    monkeypatch.setattr(pipeline, "DECODE_VOXELS", 7)
    folds = _background_folds(tmp_path, 3)
    for fold in folds:
        _patch_channels(fold, (0.125, 0.25, 0.25, 0.375), voxel)
    got, calls = _fused_as_whole(folds, monkeypatch)
    assert got.data.reshape(-1, order="F")[voxel] == 4
    assert calls == [(fold, 1) for fold in folds]


@pytest.mark.parametrize("odd", [0, 2, 4])
def test_a_voxel_uncertain_in_one_fold_is_decoded_in_every_fold(tmp_path, monkeypatch,
                                                                odd):
    monkeypatch.setattr(pipeline, "DECODE_VOXELS", 7)
    folds = _background_folds(tmp_path, 5)
    _patch_channels(folds[odd], (0.0, 0.5, 0.25, 0.25))
    _, calls = _fused_as_whole(folds, monkeypatch)
    assert calls == [(fold, 1) for fold in folds]


@pytest.mark.parametrize("zeros", [(0.0,), (-0.0,), (0.0, -0.0)],
                         ids=["zero", "minus_zero", "both"])
def test_all_background_folds_make_no_renormalise_call(tmp_path, monkeypatch, zeros):
    monkeypatch.setattr(pipeline, "DECODE_VOXELS", 7)
    folds = _background_folds(tmp_path, 3, zeros)
    stored = np.frombuffer((tmp_path / "probs" / "case_f0_ch1.nii").read_bytes()[352:], "<f4")
    assert np.signbit(stored).all() == np.signbit(zeros[0])  # -0.0 is stored
    got, calls = _fused_as_whole(folds, monkeypatch)
    assert not got.data.any()
    assert calls == []


# Bad voxels that differ from background in one channel only.
BAD_BACKGROUND = {
    "nan": ((1.0, float("nan"), 0.0, 0.0), "NaN or Inf"),
    "nan_first": ((float("nan"), 0.0, 0.0, 0.0), "NaN or Inf"),
    "inf": ((1.0, 0.0, 0.0, float("inf")), "NaN or Inf"),
    "minus_inf": ((1.0, 0.0, float("-inf"), 0.0), "NaN or Inf"),
    "zero": ((0.0, 0.0, 0.0, 0.0), "sum to 0"),
}


@pytest.mark.parametrize("bad", sorted(BAD_VOXELS) + [f"{b}_alone" for b in BAD_BACKGROUND])
def test_a_bad_voxel_among_background_names_its_fold(tmp_path, monkeypatch, bad):
    monkeypatch.setattr(pipeline, "DECODE_VOXELS", 7)
    values, match = BAD_VOXELS.get(bad) or BAD_BACKGROUND[bad.removesuffix("_alone")]
    folds = _background_folds(tmp_path, 3)
    _patch_channels(folds[1], values)
    with pytest.raises(BadData, match=match) as info:
        _fused_labels(folds)
    assert str(info.value).startswith(f"{folds[1]}: ")


# Three folds of 40 x 12 x 3 voxels that store certain background but in
# one box each: fold 0 in columns 10:20 and rows 3:6 of plane 1, fold 1 in
# columns 15:26 and rows 5:8 of plane 1, fold 2 in the last voxel of plane 2.
# Plane 1's rectangle is rows 3:8 by columns 10:26, 80 voxels; plane 2's is
# its one voxel.
WIDE_SHAPE = (40, 12, 3)
WIDE_BOXES = [np.s_[10:20, 3:6, 1], np.s_[15:26, 5:8, 1], np.s_[39:40, 11:12, 2]]


def _tumour_folds(tmp_path, rng):
    """Fold maps of ``WIDE_SHAPE``: certain background, and random
    probabilities that differ from it in each fold's ``WIDE_BOXES`` box."""
    manifests = []
    for f, box in enumerate(WIDE_BOXES):
        stored = np.zeros((4,) + WIDE_SHAPE, np.float32)
        stored[0] = 1.0
        inside = stored[(slice(None),) + box]
        inside[...] = 0.01 + rng.random(inside.shape)
        manifests.append(_save_stored(tmp_path / "probs", f"case_f{f}", stored))
    return manifests


@pytest.mark.parametrize("decode_voxels", [7, 1 << 14, 1 << 15])
def test_only_the_rectangle_of_the_uncertain_voxels_is_decoded(tmp_path, rng, monkeypatch,
                                                               decode_voxels):
    monkeypatch.setattr(pipeline, "DECODE_VOXELS", decode_voxels)
    folds = _tumour_folds(tmp_path, rng)
    _, calls = _fused_as_whole(folds, monkeypatch)
    # Bands of the rows decode_voxels holds (at least one, at most the plane's
    # 12), each of 16 columns, from every fold; then plane 2's one voxel.
    band = min(max(1, decode_voxels // 40), 12)
    assert calls == [(f, 16 * (min(y + band, 8) - y)) for y in range(3, 8, band)
                     for f in folds] + [(f, 1) for f in folds]
    assert sum(n for _, n in calls) == len(folds) * (80 + 1)


def test_the_scan_reads_every_fold_channel_by_channel_in_whole_rows(tmp_path, rng,
                                                                 monkeypatch):
    # Bands of one row of 40, so a scan read holds four rows: each plane is
    # read per fold, per channel, in rows 0:4, 4:8 and 8:12, since no plane's
    # first voxel is uncertain. Then plane 1's rectangle is read in bands of
    # its rows 3:8 and plane 2's in its row 11, each from every fold, channel
    # by channel.
    monkeypatch.setattr(pipeline, "DECODE_VOXELS", 40)
    folds = _tumour_folds(tmp_path, rng)
    scan = [[(f, c, *r) for f in folds for c in range(4) for r in _rows(WIDE_SHAPE, z, 4)]
            for z in range(3)]
    bands = [[], [(f, c, *r) for r in _rows(WIDE_SHAPE, 1, 1)[3:8] for f in folds
                  for c in range(4)],
             [(f, c, *_rows(WIDE_SHAPE, 2, 1)[11]) for f in folds for c in range(4)]]
    assert _fused_reads(folds, monkeypatch) == [call for z in range(3)
                                                for call in scan[z] + bands[z]]


@pytest.mark.parametrize("voxel", [(35, 4, 1), (2, 10, 1)], ids=["beside", "off_corner"])
@pytest.mark.parametrize("bad", sorted(BAD_BACKGROUND))
def test_a_bad_voxel_outside_the_tumour_columns_names_its_fold(tmp_path, rng, bad, voxel):
    values, match = BAD_BACKGROUND[bad]
    folds = _tumour_folds(tmp_path, rng)
    x, y, z = voxel
    nx, ny, _ = WIDE_SHAPE
    _patch_channels(folds[1], values, x + nx * (y + ny * z))
    with pytest.raises(BadData, match=match) as info:
        _fused_labels(folds)
    assert str(info.value).startswith(f"{folds[1]}: ")


def _break_manifest(manifest, how):
    if how == "not_json":
        manifest.write_text('{"channels": [0, 1, 2, 4], "files": [')
    elif how == "not_an_object":
        manifest.write_text('["case_ch0.nii"]')
    else:
        (manifest.parent / f"{manifest.stem}_ch2.nii").unlink()


@pytest.mark.parametrize("how, error", [("not_json", "BadHeader"),
                                        ("not_an_object", "BadHeader"),
                                        ("missing_channel", "ConfigError")])
def test_a_bad_fold_manifest_is_a_per_case_error(tmp_path, rng, how, error):
    cases = {cid: _folds(tmp_path, rng, (6, 5, 4), 2, stem=cid) for cid in ("a_bad", "b_good")}
    _break_manifest(cases["a_bad"][1], how)
    cfg = {"output_dir": "fused", "cases": [
        {"id": cid, "models": [{"name": "soft", "prob_manifests":
                                [str(m.relative_to(tmp_path)) for m in ms]}]}
        for cid, ms in cases.items()]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    diags, errors = run_fuse(PipelineConfig.from_json(cfg_path))
    assert [d["case_id"] for d in diags] == ["b_good"]
    assert [(e["case_id"], e["error"]) for e in errors] == [("a_bad", error)]
    assert "a_bad_f1" in errors[0]["detail"]
    assert (tmp_path / "fused" / "b_good.nii").is_file()

    result = CliRunner().invoke(main, ["fuse", "--config", str(cfg_path)])
    assert result.exit_code == 2, result.output
    assert f"  a_bad: {error} (" in result.output
    assert "Traceback" not in result.output


_GOOD_CASE = {"id": "c0", "models": [{"name": "m", "labelmap": "m.nii"}]}


@pytest.mark.parametrize("cfg, message", [
    ([_GOOD_CASE], "must be a JSON object, got list"),
    ({"cases": {"c0": _GOOD_CASE}}, "cases must be a JSON list"),
    ({"cases": ["c0"]}, "a case must be a JSON object"),
    ({"cases": [{"models": _GOOD_CASE["models"]}]}, "a case has no 'id'"),
    ({"cases": [{"id": "c0", "models": [{"labelmap": "m.nii"}]}]},
     "a model of case 'c0' has no 'name'"),
    ({"cases": [{"id": "c0", "models": [{"name": "m", "labelmap": 7}]}]},
     "paths must be strings, got 7"),
    ({"cases": [_GOOD_CASE], "et_threshold": "many"}, "et_threshold must be int"),
    ({"cases": [_GOOD_CASE], "et_threshold": float("inf")}, "et_threshold must be int"),
    ({"cases": [_GOOD_CASE], "staple": {"max_iters": "lots"}}, "max_iters must be int"),
    ({"cases": [_GOOD_CASE], "staple": {"tol": [1e-6]}}, "staple tol must be float"),
    ({"cases": [_GOOD_CASE], "staple": 5}, "staple must be a JSON object"),
    ({"cases": [_GOOD_CASE], "et_threshold": 2.7}, "et_threshold must be int, got 2.7"),
    ({"cases": [_GOOD_CASE], "et_threshold": True}, "et_threshold must be int, got True"),
    ({"cases": [_GOOD_CASE], "et_threshold": "300"}, "et_threshold must be int, got '300'"),
    ({"cases": [_GOOD_CASE], "staple": {"max_iters": 1.9}}, "max_iters must be int, got 1.9"),
    ({"cases": [_GOOD_CASE], "staple": {"max_iters": True}}, "max_iters must be int, got True"),
    ({"cases": [_GOOD_CASE], "staple": {"tol": "1e-3"}}, "staple tol must be float, got '1e-3'"),
    ({"cases": [_GOOD_CASE], "staple": {"tol": False}}, "staple tol must be float, got False"),
    ({"cases": [{**_GOOD_CASE, "id": "sub/case"}]}, "case id 'sub/case' is not a file name"),
    *(({"cases": [{**_GOOD_CASE, "id": bad}]}, "is not a file name")
      for bad in ("", ".", "..", "/abs", "a\\b", "a\0b")),
    ({"cases": [{**_GOOD_CASE, "id": None}]}, "a case id must be a JSON string, got NoneType"),
    ({"cases": [{**_GOOD_CASE, "id": 7}]}, "a case id must be a JSON string, got int"),
    ({"cases": [{"id": "c0", "models": [{"name": None, "labelmap": "m.nii"}]}]},
     "a model name of case 'c0' must be a JSON string, got NoneType"),
    ({"cases": [{"id": "c0", "models": [{"name": ["x"], "labelmap": "m.nii"}]}]},
     "a model name of case 'c0' must be a JSON string, got list"),
    ({"cases": [_GOOD_CASE], "staple": {"tol": float("inf")}},
     "staple tol must be finite, got inf"),
])
def test_malformed_config_is_a_config_error(tmp_path, cfg, message):
    save_nifti(tmp_path / "m.nii", _labels())
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match=message):
        PipelineConfig.from_json(cfg_path)
    result = CliRunner().invoke(main, ["fuse", "--config", str(cfg_path)])
    assert result.exit_code == 1, result.output
    assert result.output.startswith("Error: ") and result.output.count("\n") == 1


def test_a_case_of_33_models_is_refused_before_any_output(tmp_path):
    # A joint code holds 32 models; the refusal is a ConfigError naming the
    # case, not a ValueError from the case's fuse, and no case runs.
    save_nifti(tmp_path / "m.nii", _labels())
    models = [{"name": f"m{k}", "labelmap": "m.nii"} for k in range(33)]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"cases": [{"id": "a_few", "models": models[:32]},
                                              {"id": "b_many", "models": models}]}))
    message = "case 'b_many': joint codes hold at most 32 raters, got 33"
    with pytest.raises(ConfigError, match=message):
        PipelineConfig.from_json(cfg_path)
    few, many = (tuple(ModelInput(f"m{k}", labelmap=tmp_path / "m.nii") for k in range(n))
                 for n in (32, 33))
    cfg = PipelineConfig((CaseInput("a_few", few), CaseInput("b_many", many)), tmp_path / "fused")
    with pytest.raises(ConfigError, match=message):
        run_fuse(cfg)
    result = CliRunner().invoke(main, ["fuse", "--config", str(cfg_path)])
    assert (result.exit_code, result.output) == (1, f"Error: {message}\n")
    assert not (tmp_path / "fused").exists()


def test_integral_config_numbers_load(tmp_path):
    save_nifti(tmp_path / "m.nii", _labels())
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"cases": [_GOOD_CASE], "et_threshold": 300.0,
                                    "staple": {"max_iters": 5.0, "tol": 1}}))
    cfg = PipelineConfig.from_json(cfg_path)
    assert (cfg.et_threshold, cfg.staple_max_iters, cfg.staple_tol) == (300, 5, 1.0)
    assert type(cfg.et_threshold) is type(cfg.staple_max_iters) is int
    assert type(cfg.staple_tol) is float


def test_duplicate_case_ids_are_refused_before_any_output(tmp_path):
    # Two cases named case_000 would both write case_000.nii, the last one
    # to finish winning, so --jobs 1 and --jobs 2 could leave different bytes.
    for k in range(2):
        save_nifti(tmp_path / f"m{k}.nii", _labels())
    cases = [{"id": "case_000", "models": [{"name": "m", "labelmap": f"m{k}.nii"}]}
             for k in range(2)]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"cases": cases}))
    for jobs in ("1", "2"):
        result = CliRunner().invoke(main, ["fuse", "--config", str(cfg_path), "--jobs", jobs])
        assert result.exit_code == 1, result.output
        assert result.output == "Error: case id 'case_000' is used by two cases\n"
    assert not (tmp_path / "fused").exists()


def _zero_sum_fold(manifest):
    """Set voxel 0 of every channel of a written map to 0."""
    _patch_channels(manifest, (0.0, 0.0, 0.0, 0.0), voxel=0)


def _fuse_config(tmp_path, rng):
    """Three cases: a zero-sum fold, a good case, a fold with an extra plane."""
    cases = {}
    for case_id, shape in (("a_zero", (6, 5, 4)), ("b_good", (6, 5, 4)),
                           ("c_planes", (6, 5, 4))):
        cases[case_id] = _folds(tmp_path, rng, shape, 2, stem=case_id)
    _zero_sum_fold(cases["a_zero"][1])
    cases["c_planes"] += _folds(tmp_path, rng, (6, 5, 5), 1, stem="c_extra")
    cfg = {
        "output_dir": "fused",
        "cases": [{"id": cid, "models": [{"name": "soft", "prob_manifests":
                                          [str(m.relative_to(tmp_path)) for m in ms]}]}
                  for cid, ms in cases.items()],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path, cases


def test_run_fuse_records_per_case_errors(tmp_path, rng):
    cfg_path, cases = _fuse_config(tmp_path, rng)
    diags, errors = run_fuse(PipelineConfig.from_json(cfg_path))
    out = tmp_path / "fused"
    assert [d["case_id"] for d in diags] == ["b_good"]
    assert [(e["case_id"], e["error"]) for e in errors] == [
        ("a_zero", "BadData"), ("c_planes", "GeometryMismatch")]
    assert "a_zero_f1.json" in errors[0]["detail"]
    assert json.loads((out / "errors.json").read_text()) == errors
    assert json.loads((out / "fuse_manifest.json").read_text()) == diags
    assert sorted(p.name for p in out.glob("*.nii")) == ["b_good.nii"]
    want = et_threshold_relabel(_whole_volume_labels(cases["b_good"]), DEFAULT_ET_THRESHOLD)
    assert np.array_equal(load_labelmap(out / "b_good.nii").data, want.data)


def test_fuse_cli_exits_2_and_writes_the_good_case(tmp_path, rng):
    cfg_path, _ = _fuse_config(tmp_path, rng)
    result = CliRunner().invoke(main, ["fuse", "--config", str(cfg_path)])
    assert result.exit_code == 2, result.output
    assert "fused 1 case(s), 2 error(s)" in result.output
    assert (tmp_path / "fused" / "b_good.nii").is_file()
    assert "  a_zero: BadData (" in result.output
    assert "  c_planes: GeometryMismatch (" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("option", [["--staple-tol", "nan"], ["--staple-max-iters", "0"]])
def test_fuse_cli_refuses_bad_staple_controls(tmp_path, rng, option):
    cfg_path, _ = _fuse_config(tmp_path, rng)
    result = CliRunner().invoke(main, ["fuse", "--config", str(cfg_path), *option])
    assert result.exit_code == 1, result.output
    assert result.output == "Error: staple tol must be > 0 and max_iters >= 1\n"
    assert not (tmp_path / "fused").exists()


def test_fuse_cli_refuses_an_infinite_staple_tol(tmp_path, rng):
    # Every change is below an infinite tolerance, so EM would stop after
    # one step and report it as converged.
    cfg_path, _ = _fuse_config(tmp_path, rng)
    result = CliRunner().invoke(main, ["fuse", "--config", str(cfg_path), "--staple-tol", "inf"])
    assert result.exit_code == 1, result.output
    assert result.output == "Error: staple tol must be finite, got inf\n"
    assert not (tmp_path / "fused").exists()


def test_a_clean_rerun_removes_errors_json(tmp_path, rng):
    cfg_path, _ = _fuse_config(tmp_path, rng)
    cfg = PipelineConfig.from_json(cfg_path)
    run_fuse(cfg)
    assert (tmp_path / "fused" / "errors.json").is_file()
    good = replace(cfg, cases=tuple(c for c in cfg.cases if c.case_id == "b_good"))
    assert run_fuse(good)[1] == []
    assert not (tmp_path / "fused" / "errors.json").exists()

    pred, gt = _eval_dirs(tmp_path)
    run_eval(pred, gt, tmp_path / "out")
    (pred / "bad.nii").unlink()
    (gt / "bad.nii").unlink()
    assert run_eval(pred, gt, tmp_path / "out")[1] == []
    assert not (tmp_path / "out" / "errors.json").exists()


def test_an_eval_rerun_that_scores_no_case_removes_the_earlier_summary(tmp_path):
    _, gt = _phantom_pair()
    pred_dir, gt_dir = _write_pairs(tmp_path, {"c0": (gt, gt)})
    out = tmp_path / "out"
    assert run_eval(pred_dir, gt_dir, out)[1] == []
    assert "1.0000" in (out / "summary.txt").read_text()
    pred = pred_dir / "c0.nii"
    pred.write_bytes(pred.read_bytes()[:100])
    result = CliRunner().invoke(main, ["eval", str(pred_dir), str(gt_dir), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "evaluated 0 case(s), 1 error(s)" in result.output
    assert sorted(p.name for p in out.iterdir()) == ["cases.csv", "cases.json", "errors.json"]
    assert (out / "cases.csv").read_text() == ",".join(metrics_csv_header()) + "\n"


def test_a_failed_rerun_removes_the_earlier_outputs(tmp_path, rng):
    manifests = _folds(tmp_path, rng, (6, 5, 4), 2, stem="c0")
    cfg = PipelineConfig(
        cases=(CaseInput("c0", (ModelInput("soft", prob_manifests=tuple(manifests)),)),),
        output_dir=tmp_path / "fused",
    )
    assert run_fuse(cfg)[1] == []
    out = tmp_path / "fused"
    gt = tmp_path / "gt"
    gt.mkdir()
    (out / "c0.nii").replace(gt / "c0.nii")  # a ground truth the prediction matches
    assert run_fuse(cfg)[1] == []
    assert run_eval(out, gt, tmp_path / "eval")[1] == []

    _zero_sum_fold(manifests[1])
    assert [e["error"] for e in run_fuse(cfg)[1]] == ["BadData"]
    assert not (out / "c0.nii").exists()
    assert not (out / "c0_staple.json").exists()
    cases, errors = run_eval(out, gt, tmp_path / "eval")
    assert cases == []
    assert [(e["case_id"], e["error"]) for e in errors] == [("c0", "UnpairedCase")]


def test_fused_outputs_are_byte_identical_across_jobs(tmp_path):
    # Five cases: at jobs 2 and 3 the workers' shares are uneven.
    cases = []
    for c in range(4):
        gt, _ = make_phantom(PhantomSpec(shape=(16, 14, 12), seed=30 + c))
        models = []
        for k in range(3):
            path = tmp_path / f"case{c}_rater{k}.nii"
            save_nifti(path, corrupt_labels(gt, 0.1, seed=300 + 10 * c + k))
            models.append(ModelInput(f"rater{k}", labelmap=path))
        cases.append(CaseInput(f"case{c}", tuple(models)))
    # A mixed case: fold probability maps and two label maps.
    cases.append(_mixed_case(tmp_path, "case4"))
    cfg = PipelineConfig(cases=tuple(cases), output_dir=tmp_path / "jobs1")
    for jobs in (1, 2, 3):
        run_fuse(replace(cfg, output_dir=tmp_path / f"jobs{jobs}"), jobs=jobs)

    names = sorted(p.name for p in (tmp_path / "jobs1").iterdir())
    assert names == [f"case{c}{end}" for c in range(5) for end in (".nii", "_staple.json")] \
        + ["fuse_manifest.json"]
    for jobs in (2, 3):
        assert sorted(p.name for p in (tmp_path / f"jobs{jobs}").iterdir()) == names
        for name in names:
            assert (tmp_path / "jobs1" / name).read_bytes() == \
                (tmp_path / f"jobs{jobs}" / name).read_bytes(), name


# -- the plane-by-plane fuse path against the in-memory reference -----------------

STREAM_SHAPE = (16, 14, 11)


def _label_models(tmp_path, raters, stem):
    models = []
    for k, m in enumerate(raters):
        path = tmp_path / f"{stem}_rater{k}.nii"
        save_nifti(path, m)
        models.append(ModelInput(f"rater{k}", labelmap=path))
    return models


def _mixed_case(tmp_path, case_id, shape=(16, 14, 12)):
    """Fold probability maps (two noisy folds of the phantom) and two label
    maps that err at the region boundaries."""
    gt, _ = make_phantom(PhantomSpec(shape=shape, seed=41))
    folds = [save_probmap(noisy_probmap(gt, 2.0, seed=f), tmp_path, f"{case_id}_f{f}")
             for f in range(2)]
    soft = ModelInput("soft", prob_manifests=tuple(folds))
    return CaseInput(case_id, (soft, *_label_models(tmp_path, boundary_raters(gt, 2, 5),
                                                    case_id)))


def _model_maps(case):
    """Each model's labels, loaded whole (fold maps averaged and argmaxed
    whole)."""
    return [load_labelmap(m.labelmap) if m.labelmap is not None
            else _whole_volume_labels(m.prob_manifests) for m in case.models]


def _reference(maps, case, cfg, tmp_path):
    """The ``.nii`` bytes and ``_staple.json`` text of ``case``, whose models
    give ``maps``, from whole volumes: ``staple_multilabel_detailed``,
    ``et_threshold_relabel``, ``save_nifti``."""
    if len(maps) == 1:
        fused, staple = maps[0], None
    else:
        fused, fits = staple_multilabel_detailed(maps, tol=cfg.staple_tol,
                                                 max_iters=cfg.staple_max_iters)
        staple = {region: fit.to_json_dict() for region, fit in fits.items()}
    out = et_threshold_relabel(fused, cfg.et_threshold)
    before, after = (int(np.count_nonzero(m.data == 4)) for m in (fused, out))
    diag = {"case_id": case.case_id, "models": [m.name for m in case.models],
            "staple": staple, "et_threshold": cfg.et_threshold,
            "et_voxels_before": before, "et_voxels_after": after,
            "et_relabeled": after == 0 and before > 0, "output": f"{case.case_id}.nii"}
    path = save_nifti(tmp_path / f"reference_{case.case_id}.nii", out)
    return path.read_bytes(), json.dumps(diag, sort_keys=True, indent=2) + "\n"


def _assert_fuses_as_the_reference(tmp_path, case, oracle=True, **options):
    """Fuse ``case``: the outputs must be the bytes of the whole-volume
    reference and, unless ``oracle`` is False, the labels and STAPLE fits
    those of ``oracles.staple_fuse_reference``. Returns the diagnostics."""
    cfg = PipelineConfig(cases=(case,), output_dir=tmp_path / "fused", **options)
    diags, errors = run_fuse(cfg)
    assert errors == []
    maps = _model_maps(case)
    nii, staple = _reference(maps, case, cfg, tmp_path)
    out = cfg.output_dir
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [f"{case.case_id}.nii", f"{case.case_id}_staple.json", "fuse_manifest.json"])
    assert (out / f"{case.case_id}.nii").read_bytes() == nii
    assert (out / f"{case.case_id}_staple.json").read_text() == staple
    assert diags == [json.loads(staple)]
    if oracle:
        labels, fits = staple_fuse_reference([m.data for m in maps], cfg.staple_tol,
                                             cfg.staple_max_iters, cfg.et_threshold)
        assert np.array_equal(load_labelmap(out / f"{case.case_id}.nii").data, labels)
        assert (diags[0]["staple"] is None) == (fits is None)
        for region, (p, q, prior, iterations, converged) in (fits or {}).items():
            got = diags[0]["staple"][region]
            assert (got["iterations"], got["converged"]) == (iterations, converged), region
            assert np.abs(np.array(got["p"] + got["q"]) - np.concatenate([p, q])).max() < 1e-9
            assert abs(got["prior"] - prior) < 1e-9
    return diags[0]


def test_a_soft_and_two_label_models_fuse_as_the_reference(tmp_path):
    diag = _assert_fuses_as_the_reference(tmp_path, _mixed_case(tmp_path, "c0", STREAM_SHAPE))
    assert set(diag["staple"]) == {"ET", "TC", "WT"}


def test_one_label_model_below_the_et_threshold_is_relabeled(tmp_path):
    data = np.zeros(STREAM_SHAPE, np.uint8)
    data[3:12, 3:11, 2:10] = 2
    data[5:10, 5:9, 4:8] = 1
    data[6:8, 6, 9] = 4  # two ET voxels, in plane 9
    path = save_nifti(tmp_path / "m.nii", LabelMap(data, SPACING, ORIGIN))
    case = CaseInput("c0", (ModelInput("m", labelmap=path),))
    diag = _assert_fuses_as_the_reference(tmp_path, case, et_threshold=3)
    assert (diag["staple"], diag["et_voxels_before"], diag["et_voxels_after"],
            diag["et_relabeled"]) == (None, 2, 0, True)
    fused = load_labelmap(tmp_path / "fused" / "c0.nii")
    assert np.array_equal(fused.data, np.where(data == 4, 1, data))
    assert (fused.spacing, fused.origin) == (SPACING, ORIGIN)


@pytest.mark.parametrize("n_raters, code_type", [(5, np.uint16), (9, np.uint32)])
def test_many_label_models_fuse_as_the_reference(tmp_path, n_raters, code_type):
    # Five raters' codes need a uint16; nine need 18 bits, more than
    # np.bincount counts, so their joint rows are sorted.
    assert joint_codes(n_raters, 1).dtype == code_type
    assert (2 * n_raters > CODE_BITS) == (n_raters == 9)
    gt, _ = make_phantom(PhantomSpec(shape=STREAM_SHAPE, seed=7))
    models = _label_models(tmp_path, boundary_raters(gt, n_raters, 4), "c0")
    _assert_fuses_as_the_reference(tmp_path, CaseInput("c0", tuple(models)))


def _random_labels(rng, shape, n_maps):
    """``n_maps`` label maps of ``shape`` whose voxels are background or a
    random BraTS label, half and half."""
    return [LabelMap(np.where(rng.random(shape) < 0.5, rng.choice(BRATS_LABELS, shape),
                              0).astype(np.uint8), SPACING, ORIGIN) for _ in range(n_maps)]


@pytest.mark.parametrize("grid", sorted(EDGE_GRIDS))
def test_label_models_fuse_as_the_reference_at_the_plane_loop_edges(tmp_path, grid):
    raters = _random_labels(np.random.default_rng(3), EDGE_GRIDS[grid], 3)
    _assert_fuses_as_the_reference(tmp_path, _rater_case(tmp_path, raters))


def _spoil_last_plane(path, how):
    """Put label 3 in the last plane of a written label map, or cut the
    file's last 7 bytes."""
    raw = bytearray(path.read_bytes())
    if how == "invalid_label":
        raw[-5] = 3
    else:
        del raw[-7:]
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize("how, error", [("invalid_label", InvalidLabel),
                                        ("truncated", TruncatedFile)])
def test_a_bad_last_slab_is_a_per_case_error_with_no_outputs(tmp_path, how, error):
    gt, _ = make_phantom(PhantomSpec(shape=STREAM_SHAPE, seed=7))
    raters = boundary_raters(gt, 3, 4)
    cases = [CaseInput(cid, tuple(_label_models(tmp_path, raters, cid)))
             for cid in ("a_bad", "b_good")]
    bad = cases[0].models[2].labelmap
    _spoil_last_plane(bad, how)
    with pytest.raises(error) as want:
        load_labelmap(bad)
    out = tmp_path / "fused"
    diags, errors = run_fuse(PipelineConfig(cases=tuple(cases), output_dir=out))
    assert [d["case_id"] for d in diags] == ["b_good"]
    assert [(e["case_id"], e["error"]) for e in errors] == [("a_bad", error.__name__)]
    assert errors[0]["detail"] == str(want.value)  # the message of the whole-file read
    assert sorted(p.name for p in out.iterdir()) == [
        "b_good.nii", "b_good_staple.json", "errors.json", "fuse_manifest.json"]


class _FailingFile:
    """A file being written to ``path`` whose ``write`` raises once it has
    been called ``writes`` times. Before raising, it checks that the data
    went to a temporary file and that ``path`` still holds ``earlier``."""

    def __init__(self, fh, path, writes, earlier):
        self._fh, self._path, self._left, self._earlier = fh, path, writes, earlier

    def write(self, data):
        if not self._left:
            assert [p.name for p in self._path.parent.glob(f".{self._path.name}.*.tmp")] \
                == [Path(self._fh.name).name]
            assert self._path.read_bytes() == self._earlier
            raise BadData("injected after the first plane")
        self._left -= 1
        return self._fh.write(data)


def test_a_failed_write_leaves_no_output_and_no_temporary_file(tmp_path, monkeypatch):
    case = _mixed_case(tmp_path, "c0", STREAM_SHAPE)
    cfg = PipelineConfig(cases=(case,), output_dir=tmp_path / "fused")
    assert run_fuse(cfg)[1] == []  # an earlier run's outputs, to be removed
    earlier = (cfg.output_dir / "c0.nii").read_bytes()
    real = pipeline._write_atomic

    @contextmanager
    def failing(path):
        with real(path) as fh:
            # The header and the first piece of the body are written, then
            # the write fails.
            yield _FailingFile(fh, path, 2, earlier) if path.suffix == ".nii" else fh

    monkeypatch.setattr(pipeline, "_write_atomic", failing)
    diags, errors = run_fuse(cfg)
    assert diags == []
    assert errors == [{"case_id": "c0", "error": "BadData",
                       "detail": "injected after the first plane"}]
    out = cfg.output_dir
    assert sorted(p.name for p in out.iterdir()) == ["errors.json", "fuse_manifest.json"]
    assert json.loads((out / "errors.json").read_text()) == errors


def _boxes(edema, core, et, shape=(160, 160, 128)):
    """A phantom (160 x 160 x 128 by default) of three nested boxes, each
    given as a tuple of slices: edema (2) around the core (1) around ET (4)."""
    gt = np.zeros(shape, np.uint8)
    for label, box in ((2, edema), (1, core), (4, et)):
        gt[box] = label
    return gt


_LARGE_TUMOUR = (np.s_[30:130, 30:130, 20:110], np.s_[50:110, 50:110, 40:90],
                 np.s_[65:95, 65:95, 55:75])


def _fuse_peak(tmp_path, shifts, boxes=_LARGE_TUMOUR):
    """Fuse one case of a rater per shift of the phantom of ``boxes``;
    returns the case's voxel count and the tracemalloc peak."""
    gt = _boxes(*boxes)
    models = []
    for k, shift in enumerate(shifts):
        path = save_nifti(tmp_path / f"r{k}.nii",
                          LabelMap(np.roll(gt, shift, axis=(0, 1, 2))))
        models.append(ModelInput(f"r{k}", labelmap=path))
    cfg = PipelineConfig(cases=(CaseInput("c0", tuple(models)),),
                         output_dir=tmp_path / "fused")
    tracemalloc.start()
    try:
        diags, errors = run_fuse(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert errors == [] and diags[0]["et_voxels_before"] > 0
    return gt.size, peak


def test_fusing_holds_one_code_per_voxel(tmp_path):
    voxels, peak = _fuse_peak(tmp_path, ((0, 0, 0), (2, -1, 1), (-2, 1, -1)))
    assert peak < 2 * voxels, f"peak {peak / 2**20:.1f} MB"  # one uint8 code each


def test_fusing_nine_raters_holds_no_index_per_voxel(tmp_path):
    # Nine raters' codes are uint32 and their rows are sorted: one sorted
    # copy of the codes, and no int64 row index per voxel beside them.
    shifts = [(dx, dy, (dx + dy) % 3 - 1) for dx in (-2, 0, 2) for dy in (-1, 0, 1)]
    voxels, peak = _fuse_peak(tmp_path, shifts)
    assert joint_codes(len(shifts), 1).dtype == np.uint32
    assert peak < 3 * 4 * voxels, f"peak {peak / 2**20:.1f} MB"


def test_fusing_holds_memory_by_the_tumour_not_the_grid(tmp_path):
    # A tumour of 16^3 voxels: only a few planes' rows of codes are kept, and
    # one plane's buffers (25 KB each: the read buffer, the codes, the
    # written plane) hold most of the rest. A code per voxel would be 4 times
    # this.
    boxes = (np.s_[72:88, 72:88, 56:72], np.s_[76:84, 76:84, 60:68],
             np.s_[78:82, 78:82, 62:66])
    voxels, peak = _fuse_peak(tmp_path, ((0, 0, 0), (1, -1, 1), (-1, 1, -1)), boxes)
    assert peak < voxels / 4, f"peak {peak / 2**20:.2f} MB"


# -- what the kept rectangles hold, at the edges -------------------------------


def _rater_case(tmp_path, raters):
    return CaseInput("c0", tuple(_label_models(tmp_path, raters, "c0")))


def _kept(case):
    """The first and last (x, y, z) voxel of every rectangle the case keeps."""
    return [((x, y, z), (x + codes.shape[1] - 1, y + codes.shape[0] - 1, z))
            for (x, y, z), codes in pipeline._read_blocks(case)[1]]


@pytest.mark.parametrize("n_raters", [3, 9])
def test_raters_that_are_all_background_keep_no_rectangle(tmp_path, n_raters):
    empty = LabelMap(np.zeros(STREAM_SHAPE, np.uint8), SPACING, ORIGIN)
    case = _rater_case(tmp_path, [empty] * n_raters)
    assert _kept(case) == []
    diag = _assert_fuses_as_the_reference(tmp_path, case)
    assert diag["et_voxels_before"] == 0
    assert not load_labelmap(tmp_path / "fused" / "c0.nii").data.any()


@pytest.mark.parametrize("n_raters", [3, 9])
def test_rectangles_that_touch_both_ends_of_the_grid(tmp_path, n_raters):
    gt, _ = make_phantom(PhantomSpec(shape=STREAM_SHAPE, seed=7))
    raters = []
    for k, m in enumerate(boundary_raters(gt, n_raters, 4)):
        data = m.data.copy()
        data[0, 0, 0] = (2, 1, 4)[k % 3]  # the first and the last voxel
        data[-1, -1, -1] = (4, 2, 1)[k % 3]
        raters.append(LabelMap(data, m.spacing, m.origin))
    case = _rater_case(tmp_path, raters)
    kept = _kept(case)
    assert kept[0][0] == (0, 0, 0)
    assert kept[-1][1] == tuple(n - 1 for n in STREAM_SHAPE)
    _assert_fuses_as_the_reference(tmp_path, case)


@pytest.mark.parametrize("n_raters", [3, 9])
def test_a_case_with_no_background_voxel(tmp_path, n_raters):
    # Every voxel of every model is tumour, so no voxel has code 0 and each
    # plane keeps all of itself: the writer's fill with code 0's label is
    # overwritten on every plane.
    rng = np.random.default_rng(n_raters)
    raters = [LabelMap(rng.choice([1, 2, 4], STREAM_SHAPE).astype(np.uint8), SPACING, ORIGIN)
              for _ in range(n_raters)]
    case = _rater_case(tmp_path, raters)
    nx, ny, nz = STREAM_SHAPE
    assert _kept(case) == [((0, 0, z), (nx - 1, ny - 1, z)) for z in range(nz)]
    _assert_fuses_as_the_reference(tmp_path, case)
    pred, gt = raters[:2]
    cases, errors = run_eval(*_write_pairs(tmp_path / "eval", {"c0": (pred, gt)}),
                             tmp_path / "eval" / "out")
    assert errors == []
    assert cases == [evaluate_case(pred, gt, "c0")]


def _scattered(rng, n_maps, empty_planes):
    """``n_maps`` label maps of scattered labels (2 % of the voxels) that are
    all background in the planes ``empty_planes``."""
    maps = []
    for _ in range(n_maps):
        data = np.where(rng.random(STREAM_SHAPE) < 0.02,
                        rng.choice(BRATS_LABELS, STREAM_SHAPE), 0).astype(np.uint8)
        data[:, :, empty_planes] = 0
        maps.append(LabelMap(data, SPACING, ORIGIN))
    return maps


@pytest.mark.parametrize("n_raters", [3, 32])
@pytest.mark.parametrize("seed", range(4))
def test_each_plane_keeps_its_codes_cropped_to_its_nonzero_box(tmp_path, n_raters, seed):
    # Scattered labels: a plane's nonzero box may start and end anywhere.
    # Thirty-two raters fill a uint64 code.
    rng = np.random.default_rng(seed)
    raters = _scattered(rng, n_raters, [0, 4, 5, 10][seed:])
    case = _rater_case(tmp_path, raters)
    # Each voxel's code, packed here: the raters' label positions in
    # BRATS_LABELS, two bits each.
    index = np.searchsorted(BRATS_LABELS, [m.data for m in raters]).astype(np.uint64)
    codes = sum(index[r] << np.uint64(2 * r) for r in range(n_raters))
    planes = []
    for z in range(STREAM_SHAPE[2]):
        xs, ys = np.nonzero(codes[:, :, z])
        if xs.size:
            box = np.s_[xs.min() : xs.max() + 1, ys.min() : ys.max() + 1, z]
            planes.append(((xs.min(), ys.min(), z), codes[box].T))
    assert len(planes) == STREAM_SHAPE[2] - len([0, 4, 5, 10][seed:])
    _, blocks = pipeline._read_blocks(case)
    assert [corner for corner, _ in blocks] == [corner for corner, _ in planes]
    for (corner, got), (_, want) in zip(blocks, planes):
        assert got.dtype == joint_codes(n_raters, 1).dtype, corner
        assert np.array_equal(got, want), corner
    # The whole rows written from the rectangles give the reference's bytes.
    _assert_fuses_as_the_reference(tmp_path, case, oracle=False)


def test_voxels_outside_the_rectangles_take_the_label_of_code_0(tmp_path, monkeypatch):
    real = fusion.staple_lut

    def background_is_edema(rows, counts, *args, **kwargs):
        lut, fits = real(rows, counts, *args, **kwargs)
        lut = lut.copy()
        lut[(rows == 0).all(axis=0)] = 2  # the row of code 0
        return lut, fits

    # The reference (staple_multilabel_detailed) reads the same table; the
    # oracle does not.
    monkeypatch.setattr(fusion, "staple_lut", background_is_edema)
    monkeypatch.setattr(pipeline, "staple_lut", background_is_edema)
    gt, _ = make_phantom(PhantomSpec(shape=STREAM_SHAPE, seed=7))
    raters = boundary_raters(gt, 3, 4)
    _assert_fuses_as_the_reference(tmp_path, _rater_case(tmp_path, raters), oracle=False)
    background = ~np.any([m.data for m in raters], axis=0)
    assert background.any()
    fused = load_labelmap(tmp_path / "fused" / "c0.nii").data
    assert (fused[background] == 2).all()


def _taken_case_config(tmp_path):
    """A config of two cases, ``a_taken`` and ``b_good``, whose output
    directory has a directory in ``a_taken.nii``'s place and an earlier
    run's ``a_taken_staple.json``; returns the config and output paths."""
    gt, _ = make_phantom(PhantomSpec(shape=STREAM_SHAPE, seed=7))
    raters = boundary_raters(gt, 3, 4)
    cases = [{"id": cid, "models": [{"name": m.name, "labelmap": m.labelmap.name}
                                    for m in _label_models(tmp_path, raters, cid)]}
             for cid in ("a_taken", "b_good")]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"output_dir": "fused", "cases": cases}))
    out = tmp_path / "fused"
    (out / "a_taken.nii").mkdir(parents=True)
    (out / "a_taken_staple.json").write_text("an earlier run's sidecar\n")
    return cfg_path, out


def test_a_case_whose_output_cannot_be_written_is_a_per_case_error(tmp_path):
    cfg_path, out = _taken_case_config(tmp_path)
    result = CliRunner().invoke(main, ["fuse", "--config", str(cfg_path)])
    assert result.exit_code == 2, result.output
    assert "fused 1 case(s), 1 error(s)" in result.output
    assert "Traceback" not in result.output
    errors = json.loads((out / "errors.json").read_text())
    assert errors == [{"case_id": "a_taken", "error": "IsADirectoryError",
                       "detail": f"{out / 'a_taken.nii'}: Is a directory"}]
    assert [d["case_id"] for d in json.loads((out / "fuse_manifest.json").read_text())] \
        == ["b_good"]
    assert sorted(p.name for p in out.iterdir()) == [
        "a_taken.nii", "b_good.nii", "b_good_staple.json", "errors.json",
        "fuse_manifest.json"]
    assert list((out / "a_taken.nii").iterdir()) == []


def test_an_earlier_output_that_cannot_be_removed_is_named_in_the_error(tmp_path,
                                                                        monkeypatch):
    cfg_path, out = _taken_case_config(tmp_path)
    sidecar = out / "a_taken_staple.json"
    real = Path.unlink

    def refused(path, missing_ok=False):
        if path == sidecar:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
        return real(path, missing_ok=missing_ok)

    monkeypatch.setattr(Path, "unlink", refused)
    result = CliRunner().invoke(main, ["fuse", "--config", str(cfg_path)])
    assert result.exit_code == 2, result.output
    assert "fused 1 case(s), 1 error(s)" in result.output
    errors = json.loads((out / "errors.json").read_text())
    assert errors == [{"case_id": "a_taken", "error": "IsADirectoryError",
                       "detail": f"{out / 'a_taken.nii'}: Is a directory; cannot remove "
                                 f"the earlier {sidecar}: Permission denied"}]
    assert [d["case_id"] for d in json.loads((out / "fuse_manifest.json").read_text())] \
        == ["b_good"]
    assert sidecar.read_text() == "an earlier run's sidecar\n"


def test_the_label_maps_of_a_case_share_one_read_buffer(tmp_path, monkeypatch):
    gt, _ = make_phantom(PhantomSpec(shape=STREAM_SHAPE, seed=7))
    models = _label_models(tmp_path, boundary_raters(gt, 3, 4), "c0")
    # The widest stored type sets the buffer's size: one rater as float32.
    float_rater = tmp_path / "c0_float.nii"
    save_nifti(float_rater, Volume(load_labelmap(models[1].labelmap).data.astype(np.float32)))
    models[1] = ModelInput("float", labelmap=float_rater)
    buffers = []
    real = pipeline.read_label_planes

    def spy(f, start, stop, buf):
        buffers.append(buf)
        return real(f, start, stop, buf)

    monkeypatch.setattr(pipeline, "read_label_planes", spy)
    _assert_fuses_as_the_reference(tmp_path, CaseInput("c0", tuple(models)))
    assert len(buffers) == 3 * STREAM_SHAPE[2]  # per rater, per plane
    assert all(buf is buffers[0] for buf in buffers)
    assert buffers[0].nbytes == 16 * 14 * 4  # one plane of float32


# -- eval: pairs read through the rectangles, scored inside the tumour box --------


def _write_pairs(tmp_path, pairs):
    """Write each case's (prediction, ground truth) of the dict ``pairs`` as
    ``pred/<case>.nii`` and ``gt/<case>.nii``; returns the two directories."""
    pred, gt = tmp_path / "pred", tmp_path / "gt"
    for d in (pred, gt):
        d.mkdir(parents=True, exist_ok=True)
    for case_id, (p, g) in pairs.items():
        save_nifti(pred / f"{case_id}.nii", p)
        save_nifti(gt / f"{case_id}.nii", g)
    return pred, gt


def _phantom_pair(seed=7, shape=STREAM_SHAPE):
    """A phantom ground truth and the same phantom shifted by one voxel in x
    as the prediction, on an anisotropic grid."""
    gt, _ = make_phantom(PhantomSpec(shape=shape, seed=seed))
    return tuple(LabelMap(m, SPACING, ORIGIN) for m in (np.roll(gt.data, 1, axis=0), gt.data))


def _with(m, updates):
    """``m`` with the labels of ``updates`` ({index: label}) written in."""
    data = m.data.copy()
    for index, label in updates.items():
        data[index] = label
    return LabelMap(data, m.spacing, m.origin)


def _assert_scores_as_the_oracles(tmp_path, pred, gt, penalty=EMPTY_PENALTY_MM):
    """Evaluate one pair; every region's DSC and HD95 must be those the
    oracles give on the whole grid. Returns the case's metrics."""
    cases, errors = run_eval(*_write_pairs(tmp_path, {"c0": (pred, gt)}),
                             tmp_path / "out", penalty=penalty)
    assert errors == []
    [got] = cases
    for r in Region:
        a, b = (np.isin(m.data, REGION_LABELS[r.value]) for m in (pred, gt))
        assert got.dsc[r.value] == dice_counts(a, b), r
        assert got.hd95[r.value] == pytest.approx(
            hd95_all_pairs(a, b, SPACING, penalty), rel=1e-12, abs=0), r
    return got


def test_eval_scores_a_pair_as_the_oracles(tmp_path):
    got = _assert_scores_as_the_oracles(tmp_path, *_phantom_pair())
    assert all(0 < d < 1 for d in got.dsc.values())


def test_eval_of_two_empty_maps_is_perfect(tmp_path):
    empty = LabelMap(np.zeros(STREAM_SHAPE, np.uint8), SPACING, ORIGIN)
    got = _assert_scores_as_the_oracles(tmp_path, empty, empty)
    assert got.dsc == {"ET": 1.0, "TC": 1.0, "WT": 1.0}
    assert got.hd95 == {"ET": 0.0, "TC": 0.0, "WT": 0.0}


@pytest.mark.parametrize("empty_side", [0, 1])
def test_eval_of_one_empty_side_is_the_penalty(tmp_path, empty_side):
    pair = list(_phantom_pair())
    pair[empty_side] = LabelMap(np.zeros(STREAM_SHAPE, np.uint8), SPACING, ORIGIN)
    got = _assert_scores_as_the_oracles(tmp_path, *pair, penalty=50.0)
    assert got.dsc == {"ET": 0.0, "TC": 0.0, "WT": 0.0}
    assert got.hd95 == {"ET": 50.0, "TC": 50.0, "WT": 50.0}


def test_eval_of_et_only_in_the_ground_truth(tmp_path):
    pred, gt = _phantom_pair()
    pred = LabelMap(np.where(pred.data == 4, np.uint8(1), pred.data), SPACING, ORIGIN)
    got = _assert_scores_as_the_oracles(tmp_path, pred, gt)
    assert (got.dsc["ET"], got.hd95["ET"]) == (0.0, EMPTY_PENALTY_MM)
    assert got.dsc["TC"] > 0


@pytest.mark.parametrize("grid", sorted(EDGE_GRIDS))
def test_eval_scores_as_the_oracles_at_the_plane_loop_edges(tmp_path, grid):
    _assert_scores_as_the_oracles(tmp_path, *_random_labels(np.random.default_rng(4),
                                                            EDGE_GRIDS[grid], 2))


def test_eval_of_a_tumour_touching_the_first_and_last_voxel(tmp_path):
    _assert_scores_as_the_oracles(tmp_path, *_first_and_last_voxel_pair())


@pytest.mark.parametrize("seed", range(6))
def test_the_box_holds_the_pair_cropped_to_its_nonzero_voxels(tmp_path, seed):
    # Scattered labels: each plane's rectangle starts and ends anywhere, and
    # the box is the union of rectangles of different corners.
    pair = _scattered(np.random.default_rng(seed), 2, [])
    if seed == 0:  # a single voxel, in one map only
        empty = LabelMap(np.zeros(STREAM_SHAPE, np.uint8), SPACING, ORIGIN)
        pair = [empty, _with(empty, {(9, 3, 5): 2})]
    case = CaseInput("c0", tuple(_label_models(tmp_path, pair, "c0")))
    got = pipeline._codes_box(pipeline._read_blocks(case)[1])
    nz = np.nonzero(pair[0].data | pair[1].data)
    box = tuple(slice(int(i.min()), int(i.max()) + 1) for i in nz)
    want = joint_codes(2, math.prod(STREAM_SHAPE))
    for rater, m in enumerate(pair):
        fusion.pack_labels(want, rater, m.data.ravel())
    want = want.reshape(STREAM_SHAPE)[box]
    assert got.dtype == want.dtype and np.array_equal(got, want)


def _cliff_pair():
    """The phantom pair with one stray edema voxel in the prediction, far
    from the tumour."""
    pred, gt = _phantom_pair()
    return _with(pred, {(2, 3, 4): 2}), gt


def _first_and_last_voxel_pair():
    pred, gt = _phantom_pair()
    return (_with(pred, {(0, 0, 0): 4, (-1, -1, -1): 2}),
            _with(gt, {(0, 0, 0): 2, (-1, -1, -1): 1}))


def _anisotropic_pair():
    return tuple(LabelMap(m.data, (1.2, 0.7, 2.5), ORIGIN) for m in _phantom_pair())


@pytest.mark.parametrize("make_pair", [_anisotropic_pair, _cliff_pair,
                                       _first_and_last_voxel_pair])
def test_the_library_scores_whole_grids_as_eval_scores_the_files(tmp_path, make_pair):
    """``evaluate_case`` of the two files loaded whole and ``_eval_case`` of
    the files, which scores their codes box, agree bit for bit."""
    dirs = _write_pairs(tmp_path, {"c0": make_pair()})
    got, error = pipeline._eval_case(*dirs, EMPTY_PENALTY_MM, "c0")
    assert error is None
    want = _whole_file_scores(dirs, "c0")
    assert got == want
    assert metrics_csv_row(got) == metrics_csv_row(want)


def _eval_peak(tmp_path, shape):
    """Evaluate one pair of nested 16^3, 8^3 and 4^3 boxes in the middle of a
    grid of ``shape``, the prediction shifted by a voxel; returns the
    tracemalloc peak."""
    c = [n // 2 for n in shape]
    gt = _boxes(*(tuple(slice(m - h, m + h) for m in c) for h in (8, 4, 2)), shape)
    pred = np.roll(gt, (1, -1, 1), axis=(0, 1, 2))
    dirs = _write_pairs(tmp_path, {"c0": (LabelMap(pred), LabelMap(gt))})
    tracemalloc.start()
    try:
        cases, errors = run_eval(*dirs, tmp_path / "out")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert errors == [] and 0 < cases[0].dsc["ET"] < 1
    return peak


def test_eval_holds_memory_by_the_tumour_not_the_grid(tmp_path):
    # The first eval of a process also fills one-time caches (a few KB).
    _eval_peak(tmp_path / "warm", (80, 80, 64))
    small = _eval_peak(tmp_path / "small", (80, 80, 64))
    large = _eval_peak(tmp_path / "large", (240, 240, 155))
    # 22 times the voxels, the same peak: the EDT's all-pairs temporary over
    # the tumour's box, larger than one plane's buffers. Both large maps
    # whole would be 17.9 MB.
    assert large < small + 2**16, f"{small / 2**20:.2f} MB, then {large / 2**20:.2f} MB"
    assert large < 2**20, f"peak {large / 2**20:.2f} MB"


def _run_eval_cli(pred, gt, out, *options):
    result = CliRunner().invoke(main, ["eval", str(pred), str(gt), "--out", str(out),
                                       *options])
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    return json.loads((out / "errors.json").read_text())


def _whole_file_scores(dirs, case_id):
    """The case evaluated from both of its files loaded whole."""
    pred, gt = (load_labelmap(d / f"{case_id}.nii") for d in dirs)
    return evaluate_case(pred, gt, case_id)


@pytest.mark.parametrize("change", ["shape", "spacing", "origin"])
def test_an_eval_geometry_mismatch_is_a_per_case_error(tmp_path, change):
    pred, gt = _phantom_pair()
    if change == "shape":
        pred = LabelMap(pred.data[:, :, :-1], SPACING, ORIGIN)
    elif change == "spacing":
        pred = LabelMap(pred.data, (1.0, 1.0, 2.0), ORIGIN)
    else:
        pred = LabelMap(pred.data, SPACING, (0.0, 0.0, 0.0))
    good = _phantom_pair(seed=8)
    dirs = _write_pairs(tmp_path, {"a_bad": (pred, gt), "b_good": good})
    out = tmp_path / "out"
    [error] = _run_eval_cli(*dirs, out)
    assert (error["case_id"], error["error"]) == ("a_bad", "GeometryMismatch")
    with pytest.raises(GeometryMismatch) as want:
        _whole_file_scores(dirs, "a_bad")
    assert error["detail"] == str(want.value)
    rows = (out / "cases.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["b_good"]


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("how, error", [("invalid_label", InvalidLabel),
                                        ("truncated", TruncatedFile)])
def test_a_bad_last_slab_of_an_eval_pair_is_a_per_case_error(tmp_path, side, how, error):
    dirs = _write_pairs(tmp_path, {"a_bad": _phantom_pair(), "b_good": _phantom_pair(8)})
    bad = dirs[side] / "a_bad.nii"
    _spoil_last_plane(bad, how)
    with pytest.raises(error) as want:
        load_labelmap(bad)
    out = tmp_path / "out"
    [got] = _run_eval_cli(*dirs, out)
    assert (got["case_id"], got["error"]) == ("a_bad", error.__name__)
    assert got["detail"] == str(want.value)  # the message of the whole-file read
    rows = (out / "cases.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["b_good"]


# Ways to spoil a written file's header (see _spoil_header), and the error
# and message each gives.
_BAD_HEADERS = {
    "cut": (TruncatedFile, "need 348 header bytes, got 100"),
    "magic": (BadMagic, "expected magic"),
    "dim": (BadHeader, "got dim[0]=4"),
    "datatype": (UnsupportedDtype, "datatype code 64"),
    "nifti2": (UnsupportedEncoding, "NIfTI-2 is not supported"),
}


def _spoil_header(path, how):
    raw = bytearray(path.read_bytes())
    if how == "cut":
        del raw[100:]
    else:
        offset, value = {"magic": (344, b"ni1\0"), "dim": (40, struct.pack("<h", 4)),
                         "datatype": (70, struct.pack("<h", 64)),
                         "nifti2": (0, struct.pack("<i", 540))}[how]
        raw[offset : offset + len(value)] = value
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize("how", sorted(_BAD_HEADERS))
@pytest.mark.parametrize("side", [0, 1])
def test_a_bad_header_of_an_eval_pair_is_an_error_naming_its_file(tmp_path, side, how):
    dirs = _write_pairs(tmp_path, {"a_bad": _phantom_pair(), "b_good": _phantom_pair(8)})
    bad = dirs[side] / "a_bad.nii"
    _spoil_header(bad, how)
    error, message = _BAD_HEADERS[how]
    out = tmp_path / "out"
    [got] = _run_eval_cli(*dirs, out)
    assert (got["case_id"], got["error"]) == ("a_bad", error.__name__)
    assert got["detail"].startswith(f"{bad}: ") and message in got["detail"], got["detail"]
    with pytest.raises(error) as want:
        load_labelmap(bad)
    assert got["detail"] == str(want.value)
    rows = (out / "cases.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["b_good"]


def test_eval_outputs_are_byte_identical_across_jobs(tmp_path):
    pairs = {f"c{c}": _phantom_pair(seed=20 + c, shape=(16, 14, 12)) for c in range(3)}
    pred, gt = pairs["c2"]
    pairs["c2"] = (LabelMap(np.where(pred.data == 4, np.uint8(1), pred.data),
                            SPACING, ORIGIN), gt)  # no ET predicted
    pairs["c3"] = (LabelMap(np.zeros((16, 14, 12), np.uint8), SPACING, ORIGIN), gt)
    pairs["c4"] = pairs["c0"]
    dirs = _write_pairs(tmp_path, pairs)
    _spoil_last_plane(dirs[1] / "c4.nii", "invalid_label")
    save_nifti(dirs[1] / "c5.nii", gt)  # no prediction
    # Five pairs: at jobs 2 and 3 the workers' shares are uneven.
    for jobs in (1, 2, 3):
        run_eval(*dirs, tmp_path / f"jobs{jobs}", jobs=jobs)
    names = sorted(p.name for p in (tmp_path / "jobs1").iterdir())
    assert names == ["cases.csv", "cases.json", "errors.json", "summary.json",
                     "summary.txt"]
    for jobs in (2, 3):
        assert sorted(p.name for p in (tmp_path / f"jobs{jobs}").iterdir()) == names
        for name in names:
            assert (tmp_path / "jobs1" / name).read_bytes() == \
                (tmp_path / f"jobs{jobs}" / name).read_bytes(), name
    errors = json.loads((tmp_path / "jobs1" / "errors.json").read_text())
    assert [(e["case_id"], e["error"]) for e in errors] == [
        ("c4", "InvalidLabel"), ("c5", "UnpairedCase")]
