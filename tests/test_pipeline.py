import json
import struct

import numpy as np
from click.testing import CliRunner

from bratsfuse.cli import main
from bratsfuse.nifti import save_nifti, write_nifti
from bratsfuse.pipeline import PipelineConfig, run_eval
from bratsfuse.volume import LabelMap, Volume


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


def _eval_dirs(tmp_path):
    pred, gt = tmp_path / "pred", tmp_path / "gt"
    pred.mkdir()
    gt.mkdir()
    for case in ("bad", "good"):
        save_nifti(gt / f"{case}.nii", _labels())
    save_nifti(pred / "good.nii", _labels())
    _nan_prediction(pred / "bad.nii")
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


def test_eval_cli_exits_2_on_a_nan_prediction(tmp_path):
    pred, gt = _eval_dirs(tmp_path)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["eval", str(pred), str(gt), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "evaluated 1 case(s), 1 error(s)" in result.output
    assert [e["case_id"] for e in json.loads((out / "errors.json").read_text())] == ["bad"]


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
