import json
import os
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import bratsfuse
from bratsfuse import pipeline
from bratsfuse.cli import main
from bratsfuse.errors import ConfigError, GeometryMismatch, TruncatedFile
from bratsfuse.fusion import argmax_labels, average_probs
from bratsfuse.nifti import load_labelmap, load_probmap, save_nifti, save_probmap, write_nifti
from bratsfuse.postprocess import DEFAULT_ET_THRESHOLD, et_threshold_relabel
from bratsfuse.pipeline import CaseInput, ModelInput, PipelineConfig, run_eval, run_fuse
from bratsfuse.synth import PhantomSpec, corrupt_labels, make_phantom
from bratsfuse.volume import LabelMap, ProbMap, Volume


def _labels(shape=(6, 6, 4)):
    data = np.zeros(shape, dtype=np.uint8)
    data[1:4, 1:4, 1:3] = 2
    data[2, 2, 1] = 4
    return LabelMap(data, (1.0, 1.0, 2.0))


def _nan_prediction(path, shape=(6, 6, 4)):
    """A float32 prediction file with one NaN voxel (Volume refuses NaN, so
    the voxel is patched into the written bytes)."""
    raw = bytearray(write_nifti(Volume(np.zeros(shape, np.float32), (1.0, 1.0, 2.0))))
    struct.pack_into("<f", raw, 352 + 4 * 5, float("nan"))
    path.write_bytes(bytes(raw))


def _nan_vox_offset_prediction(path):
    """A label prediction whose header says its voxels start at offset NaN."""
    raw = bytearray(write_nifti(_labels()))
    struct.pack_into("<f", raw, 108, float("nan"))
    path.write_bytes(bytes(raw))


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


def test_postprocess_cli_refuses_a_negative_et_threshold(tmp_path):
    save_nifti(tmp_path / "in.nii", _labels())
    out = tmp_path / "out.nii"
    result = CliRunner().invoke(main, ["postprocess", str(tmp_path / "in.nii"), str(out),
                                       "--et-threshold", "-1"])
    assert result.exit_code == 2, result.output
    assert "Invalid value for '--et-threshold'" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert not out.exists()


def test_cases_csv_reads_back_what_eval_wrote(tmp_path):
    pred, gt = _eval_dirs(tmp_path)
    cases, _ = run_eval(pred, gt, tmp_path / "out")
    assert pipeline.read_cases_csv(tmp_path / "out" / "cases.csv") == cases


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


def test_cli_import_loads_neither_scipy_nor_numba():
    # scipy.ndimage would about double the start-up time of every command.
    code = ("import sys, bratsfuse.cli; "
            "print([m for m in ('scipy', 'numba') if m in sys.modules])")
    src = str(Path(bratsfuse.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


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


# -- fold probability maps, decoded slab by slab ---------------------------------

SPACING = (1.0, 1.25, 2.0)
ORIGIN = (4.0, -2.0, 7.5)


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


def _assert_streamed_equals_whole(manifests):
    got = pipeline._model_labelmap(ModelInput("m", prob_manifests=tuple(manifests)))
    want = _whole_volume_labels(manifests)
    assert got.data.tobytes(order="F") == want.data.tobytes(order="F")
    assert (got.spacing, got.origin) == (want.spacing, want.origin)
    return got


@pytest.mark.parametrize("slab_voxels, planes_per_slab", [
    (3 * 8 * 6, 3),   # 11 planes: slabs of 3, 3, 3 and 2
    (10, 1),          # one plane exceeds the budget: still one plane per slab
    (8 * 6 * 11, 11),  # the whole grid in one slab
])
def test_streamed_labels_equal_whole_volume_labels(tmp_path, rng, monkeypatch,
                                                   slab_voxels, planes_per_slab):
    monkeypatch.setattr(pipeline, "SLAB_VOXELS", slab_voxels)
    manifests = _folds(tmp_path, rng, (8, 6, 11), 3)
    calls = []
    real = pipeline.load_probmap
    monkeypatch.setattr(pipeline, "load_probmap",
                        lambda m, planes: calls.append(planes) or real(m, planes))
    _assert_streamed_equals_whole(manifests)
    starts = sorted({p.start for p in calls})
    assert starts == list(range(0, 11, planes_per_slab))
    assert len(calls) == 3 * len(starts)


def test_streamed_labels_at_the_default_slab_size(tmp_path, rng):
    # 200 x 200 planes: 3 planes per slab, so 5 planes make slabs of 3 and 2.
    assert pipeline.SLAB_VOXELS // (200 * 200) == 3
    _assert_streamed_equals_whole(_folds(tmp_path, rng, (200, 200, 5), 2))


def test_streamed_labels_break_exact_ties_toward_the_later_channel(tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "SLAB_VOXELS", 4 * 3 * 2)
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


def test_fold_with_extra_planes_is_a_geometry_mismatch(tmp_path, rng):
    short = _folds(tmp_path, rng, (6, 5, 4), 2, stem="short")
    long_ = _folds(tmp_path, rng, (6, 5, 5), 1, stem="long")
    with pytest.raises(GeometryMismatch):
        pipeline._model_labelmap(ModelInput("m", prob_manifests=tuple(short + long_)))


def test_channel_truncated_in_its_last_plane(tmp_path, rng):
    manifests = _folds(tmp_path, rng, (6, 5, 4), 3)
    path = manifests[2].parent / f"{manifests[2].stem}_ch1.nii"
    path.write_bytes(path.read_bytes()[:-7])
    with pytest.raises(TruncatedFile):
        pipeline._model_labelmap(ModelInput("m", prob_manifests=tuple(manifests)))


def test_fold_decoding_holds_one_slab_of_each_fold(tmp_path, rng, monkeypatch):
    shape = (64, 64, 96)
    manifests = _folds(tmp_path, rng, shape, 5)
    fold_bytes = 4 * int(np.prod(shape)) * 8  # one fold's float64 map
    # Four planes per slab, so the whole grid takes 24 slabs.
    monkeypatch.setattr(pipeline, "SLAB_VOXELS", 4 * 64 * 64, raising=False)
    model = ModelInput("m", prob_manifests=tuple(manifests))
    tracemalloc.start()
    try:
        labels = pipeline._model_labelmap(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert labels.shape == shape
    assert peak < fold_bytes, f"peak {peak / 2**20:.1f} MB"


def _zero_sum_fold(manifest):
    """Set voxel 0 of every channel of a written map to 0."""
    for label in ProbMap.channels:
        path = manifest.parent / f"{manifest.stem}_ch{label}.nii"
        raw = bytearray(path.read_bytes())
        struct.pack_into("<f", raw, 352, 0.0)
        path.write_bytes(bytes(raw))


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
    cases = []
    for c in range(2):
        gt, _ = make_phantom(PhantomSpec(shape=(16, 14, 12), seed=30 + c))
        models = []
        for k in range(3):
            path = tmp_path / f"case{c}_rater{k}.nii"
            save_nifti(path, corrupt_labels(gt, 0.1, seed=300 + 10 * c + k))
            models.append(ModelInput(f"rater{k}", labelmap=path))
        cases.append(CaseInput(f"case{c}", tuple(models)))
    cfg = PipelineConfig(cases=tuple(cases), output_dir=tmp_path / "jobs1")
    run_fuse(cfg, jobs=1)
    run_fuse(replace(cfg, output_dir=tmp_path / "jobs2"), jobs=2)

    names = sorted(p.name for p in (tmp_path / "jobs1").iterdir())
    assert names == ["case0.nii", "case0_staple.json", "case1.nii", "case1_staple.json",
                     "fuse_manifest.json"]
    assert sorted(p.name for p in (tmp_path / "jobs2").iterdir()) == names
    for name in names:
        assert (tmp_path / "jobs1" / name).read_bytes() == \
            (tmp_path / "jobs2" / name).read_bytes(), name
