"""Case-level pipeline orchestration behind the CLI.

``run_fuse`` executes, per case: average each model's fold probability maps
and decode to labels, fuse the models with STAPLE (a single model passes
through), apply the ET size threshold, and write the fused NIfTI plus a JSON
diagnostics sidecar. ``run_eval`` pairs prediction and ground-truth files by
filename stem and emits per-case metrics (CSV + JSON) and summary tables.

A model given as fold probability maps is decoded in slabs of whole
z-planes (about ``SLAB_VOXELS`` voxels, at least one plane). Every fold's
channel files are opened and their headers parsed and checked once, before
the first slab. The model's buffers (one float32 slab of stored channels,
float64 slabs for one fold's renormalised channels and for the running
mean, and the channel sums) are allocated once and reused: each slab is
read from every fold in config order, renormalised and checked, added to
the mean, and the mean is checked and decoded into the uint8 label map.
No fold's whole map, and no fresh float64 stack per slab, is held.

A case that raises a :class:`~bratsfuse.errors.BratsFuseError` is recorded
in ``errors.json`` and skipped, and any ``<case>.nii`` or
``<case>_staple.json`` an earlier run left in the output directory is
removed; the other cases still run.

Everything is deterministic: cases are processed independently (optionally
in parallel), per-case outputs depend only on that case's inputs, and all
aggregate files are written in sorted case order, so reruns and different
``jobs`` settings produce byte-identical outputs.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import BadData, BratsFuseError, ConfigError, UnpairedCase
from .fusion import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    argmax_labels_into,
    average_probs_into,
    staple_multilabel_detailed,
)
from .metrics import (
    EMPTY_PENALTY_MM,
    REGION_ORDER,
    CaseMetrics,
    evaluate_case,
    metrics_csv_header,
    metrics_csv_row,
)
from .nifti import ProbmapFiles, load_labelmap, save_nifti
from .postprocess import DEFAULT_ET_THRESHOLD, et_threshold_relabel
from .report import (
    ModelSummary,
    format_ranking_table,
    format_summary_table,
    model_summary,
    rank_models,
    summarize,
)
from .volume import LabelMap, _check_probs, require_same_geometry

# Not called here (fold maps go through the array cores above), but
# benchmarks/tracing.py wraps these names on this module.
from .fusion import argmax_labels, average_probs  # noqa: F401
from .nifti import load_probmap  # noqa: F401

__all__ = [
    "ModelInput",
    "CaseInput",
    "PipelineConfig",
    "run_fuse",
    "run_eval",
    "run_rank",
    "read_cases_csv",
    "write_summary_outputs",
]


@dataclass(frozen=True)
class ModelInput:
    """One model's prediction for one case: a label map or fold manifests."""

    name: str
    labelmap: Path | None = None
    prob_manifests: tuple[Path, ...] = ()

    def validate(self) -> None:
        if (self.labelmap is None) == (not self.prob_manifests):
            raise ConfigError(
                f"model {self.name!r} needs exactly one of labelmap/prob_manifests"
            )
        for p in ((self.labelmap,) if self.labelmap else self.prob_manifests):
            if not Path(p).is_file():
                raise ConfigError(f"missing input file: {p}")


@dataclass(frozen=True)
class CaseInput:
    case_id: str
    models: tuple[ModelInput, ...]


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{what} must be a JSON list, got {type(value).__name__}")
    return value


def _convert(kind, value, what: str):
    """``kind(value)``, or a ConfigError naming ``what``."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"{what} must be {kind.__name__}, got {value!r}") from e


@dataclass(frozen=True)
class PipelineConfig:
    cases: tuple[CaseInput, ...]
    output_dir: Path
    et_threshold: int = DEFAULT_ET_THRESHOLD
    staple_tol: float = DEFAULT_TOL
    staple_max_iters: int = DEFAULT_MAX_ITERS

    @classmethod
    def from_json(cls, path) -> "PipelineConfig":
        """Read a config file; anything malformed in it is a ConfigError."""
        path = Path(path)
        try:
            raw = json.loads(path.read_text())
        except (OSError, ValueError) as e:  # ValueError: not JSON, or not UTF-8
            raise ConfigError(f"cannot read config {path}: {e}") from e
        base = path.parent

        def resolve(p):
            if not isinstance(p, str):
                raise ConfigError(f"paths must be strings, got {p!r}")
            p = Path(p)
            return p if p.is_absolute() else base / p

        raw = _json_object(raw, f"config {path}")
        cases = []
        for c in _json_list(raw.get("cases", []), "cases"):
            c = _json_object(c, "a case")
            if "id" not in c:
                raise ConfigError("a case has no 'id'")
            case_id = str(c["id"])
            models = []
            for m in _json_list(c.get("models", []), f"case {case_id!r} models"):
                m = _json_object(m, f"a model of case {case_id!r}")
                if "name" not in m:
                    raise ConfigError(f"a model of case {case_id!r} has no 'name'")
                models.append(
                    ModelInput(
                        name=m["name"],
                        labelmap=resolve(m["labelmap"]) if "labelmap" in m else None,
                        prob_manifests=tuple(
                            resolve(p) for p in _json_list(
                                m.get("prob_manifests", []), f"model {m['name']!r} prob_manifests")
                        ),
                    )
                )
            if not models:
                raise ConfigError(f"case {case_id!r} lists no models")
            cases.append(CaseInput(case_id=case_id, models=tuple(models)))
        if not cases:
            raise ConfigError("config lists no cases")
        staple = _json_object(raw.get("staple", {}), "staple")
        cfg = cls(
            cases=tuple(cases),
            output_dir=resolve(raw.get("output_dir", "fused")),
            et_threshold=_convert(int, raw.get("et_threshold", DEFAULT_ET_THRESHOLD),
                                  "et_threshold"),
            staple_tol=_convert(float, staple.get("tol", DEFAULT_TOL), "staple tol"),
            staple_max_iters=_convert(int, staple.get("max_iters", DEFAULT_MAX_ITERS),
                                      "staple max_iters"),
        )
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.et_threshold < 0:
            raise ConfigError("et_threshold must be nonnegative")
        if not self.staple_tol > 0 or self.staple_max_iters < 1:
            raise ConfigError("staple tol must be > 0 and max_iters >= 1")
        for case in self.cases:
            for m in case.models:
                m.validate()


# Voxels per slab when fold maps are decoded; a slab is whole z-planes.
SLAB_VOXELS = 1 << 17


def _model_labelmap(m: ModelInput) -> LabelMap:
    if m.labelmap is not None:
        return load_labelmap(m.labelmap)
    with ExitStack() as stack:
        folds = [stack.enter_context(ProbmapFiles(p)) for p in m.prob_manifests]
        require_same_geometry(*(f.header for f in folds))
        grid = folds[0].header
        nx, ny, nz = grid.shape
        plane = nx * ny
        step = max(1, SLAB_VOXELS // plane)
        size = plane * min(step, nz)
        # One set of buffers for every slab of every fold.
        raw = np.empty((4, size), np.float32)
        probs, mean = np.empty((2, 4, size))
        sums, best = np.empty((2, size))
        labels = np.empty(plane * nz, np.uint8)  # x-fastest, as in the files
        for z0 in range(0, nz, step):
            z1 = min(z0 + step, nz)
            n = plane * (z1 - z0)
            decoded = (f.decode(z0, z1, raw, probs[:, :n], sums[:n]) for f in folds)
            average_probs_into(decoded, mean[:, :n])
            try:
                _check_probs(mean[:, :n], sums[:n])
            except ValueError as e:
                names = ", ".join(str(p) for p in m.prob_manifests)
                raise BadData(f"average of {names}: {e}") from e
            argmax_labels_into(mean[:, :n], labels[plane * z0 : plane * z1], best[:n])
    return LabelMap(labels.reshape(grid.shape, order="F"), grid.spacing, grid.origin)


def _fuse_one_case(case: CaseInput, cfg: PipelineConfig) -> dict:
    maps = [_model_labelmap(m) for m in case.models]
    if len(maps) == 1:
        fused = maps[0]
        staple_diag = None
    else:
        fused, details = staple_multilabel_detailed(
            maps, tol=cfg.staple_tol, max_iters=cfg.staple_max_iters
        )
        staple_diag = {region: res.to_json_dict() for region, res in details.items()}
    et_before = int((fused.data == 4).sum())
    relabeled = et_threshold_relabel(fused, cfg.et_threshold)
    et_after = int((relabeled.data == 4).sum())
    out_nii = cfg.output_dir / f"{case.case_id}.nii"
    save_nifti(out_nii, relabeled)
    diag = {
        "case_id": case.case_id,
        "models": [m.name for m in case.models],
        "staple": staple_diag,
        "et_threshold": cfg.et_threshold,
        "et_voxels_before": et_before,
        "et_voxels_after": et_after,
        "et_relabeled": et_after == 0 and et_before > 0,
        "output": out_nii.name,
    }
    diag_path = cfg.output_dir / f"{case.case_id}_staple.json"
    diag_path.write_text(json.dumps(diag, sort_keys=True, indent=2) + "\n")
    return diag


def _run_cases(worker, items, jobs: int):
    if jobs <= 1:
        return [worker(i) for i in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, items))


def _case_error(case_id: str, e: BratsFuseError) -> dict:
    return {"case_id": case_id, "error": type(e).__name__, "detail": str(e)}


def _write_errors(output_dir: Path, errors: list[dict]) -> None:
    """Write ``errors.json``, or remove one an earlier run left behind."""
    path = output_dir / "errors.json"
    if errors:
        path.write_text(json.dumps(errors, sort_keys=True, indent=2) + "\n")
    else:
        path.unlink(missing_ok=True)


@dataclass
class _FuseTask:
    cfg: PipelineConfig

    def __call__(self, case: CaseInput):
        try:
            return _fuse_one_case(case, self.cfg), None
        except BratsFuseError as e:
            # An earlier run's outputs for this case would otherwise be
            # scored as if this run had written them.
            for name in (f"{case.case_id}.nii", f"{case.case_id}_staple.json"):
                (self.cfg.output_dir / name).unlink(missing_ok=True)
            return None, _case_error(case.case_id, e)


def run_fuse(cfg: PipelineConfig, jobs: int = 1) -> tuple[list[dict], list[dict]]:
    """Fuse every configured case; returns (diagnostics, errors), both sorted
    by case id.

    A case that fails is recorded in ``errors.json`` and left out of
    ``fuse_manifest.json``; the caller decides the exit status from the
    returned error list.
    """
    cfg.validate()
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    cases = sorted(cfg.cases, key=lambda c: c.case_id)
    results = _run_cases(_FuseTask(cfg), cases, jobs)
    diags = [d for d, _ in results if d is not None]
    errors = [e for _, e in results if e is not None]
    manifest = cfg.output_dir / "fuse_manifest.json"
    manifest.write_text(json.dumps(diags, sort_keys=True, indent=2) + "\n")
    _write_errors(cfg.output_dir, errors)
    return diags, errors


@dataclass
class _EvalTask:
    pred_dir: Path
    gt_dir: Path
    penalty: float

    def __call__(self, case_id: str):
        try:
            pred = load_labelmap(self.pred_dir / f"{case_id}.nii")
            gt = load_labelmap(self.gt_dir / f"{case_id}.nii")
            return evaluate_case(pred, gt, case_id, self.penalty), None
        except BratsFuseError as e:
            return None, _case_error(case_id, e)


def run_eval(
    pred_dir,
    gt_dir,
    output_dir,
    jobs: int = 1,
    penalty: float = EMPTY_PENALTY_MM,
) -> tuple[list[CaseMetrics], list[dict]]:
    """Evaluate predictions against ground truth paired by filename stem.

    Unpaired files and per-case failures are recorded (not fatal) and the
    affected cases skipped; the caller decides the exit status from the
    returned error list. A ``penalty`` that is negative or not finite is a
    ConfigError, raised before any case runs.
    """
    if not 0.0 <= penalty < math.inf:
        raise ConfigError(f"hd95 penalty must be finite and nonnegative, got {penalty}")
    pred_dir, gt_dir, output_dir = Path(pred_dir), Path(gt_dir), Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    pred_stems = {p.stem for p in pred_dir.glob("*.nii")}
    gt_stems = {p.stem for p in gt_dir.glob("*.nii")}
    paired = sorted(pred_stems & gt_stems)
    errors = [
        _case_error(s, UnpairedCase(f"no ground truth for prediction {s}.nii"))
        for s in sorted(pred_stems - gt_stems)
    ] + [
        _case_error(s, UnpairedCase(f"no prediction for ground truth {s}.nii"))
        for s in sorted(gt_stems - pred_stems)
    ]
    results = _run_cases(_EvalTask(pred_dir, gt_dir, penalty), paired, jobs)
    cases = [m for m, _ in results if m is not None]
    errors.extend(e for _, e in results if e is not None)
    errors.sort(key=lambda e: e["case_id"])

    lines = [metrics_csv_header()] + [metrics_csv_row(c) for c in cases]
    (output_dir / "cases.csv").write_text("\n".join(lines) + "\n")
    (output_dir / "cases.json").write_text(
        json.dumps([c.to_json_dict() for c in cases], sort_keys=True, indent=2) + "\n"
    )
    if cases:
        write_summary_outputs(cases, output_dir)
    _write_errors(output_dir, errors)
    return cases, errors


def write_summary_outputs(cases: list[CaseMetrics], output_dir) -> None:
    """Emit summary.json and the text table for a set of case metrics."""
    output_dir = Path(output_dir)
    stats = summarize(cases)
    (output_dir / "summary.json").write_text(
        json.dumps(stats.to_json_dict(), sort_keys=True, indent=2) + "\n"
    )
    (output_dir / "summary.txt").write_text(format_summary_table(stats))


def _region_values(row: dict) -> tuple[dict[str, float], dict[str, float]]:
    """The DSC_<region> and HD95_<region> columns of one CSV row, as floats."""
    return ({r: float(row[f"DSC_{r}"]) for r in REGION_ORDER},
            {r: float(row[f"HD95_{r}"]) for r in REGION_ORDER})


def read_cases_csv(path) -> list[CaseMetrics]:
    """Parse a per-case metrics CSV as ``run_eval`` writes it (``cases.csv``).

    Columns: case_id,DSC_ET,DSC_TC,DSC_WT,HD95_ET,HD95_TC,HD95_WT.
    """
    cases = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            try:
                cases.append(CaseMetrics(row["case_id"], *_region_values(row)))
            except (KeyError, TypeError, ValueError) as e:
                raise ConfigError(f"bad metrics row {row}: {e}") from e
    if not cases:
        raise ConfigError(f"no case rows in {path}")
    return cases


def read_model_summaries_csv(path) -> list[ModelSummary]:
    """Parse a CSV of per-model region means.

    Columns: model,DSC_ET,DSC_TC,DSC_WT,HD95_ET,HD95_TC,HD95_WT.
    """
    summaries = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            try:
                name = row["model"]
                dsc, hd = _region_values(row)
            except (KeyError, TypeError, ValueError) as e:
                raise ConfigError(f"bad model summary row {row}: {e}") from e
            summaries.append(model_summary(name, dsc, hd))
    if not summaries:
        raise ConfigError(f"no model rows found in {path}")
    return summaries


def run_rank(summary_csv, output_dir) -> str:
    """Rank models from a summary CSV; writes JSON/CSV and a text table."""
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    summaries = read_model_summaries_csv(summary_csv)
    ranking = rank_models(summaries)
    (output_dir / "ranking.json").write_text(ranking.to_json() + "\n")
    rows = ["model,rank"] + [f"{n},{r}" for n, r in ranking.ranking]
    (output_dir / "ranking.csv").write_text("\n".join(rows) + "\n")
    table = format_ranking_table(summaries, ranking)
    (output_dir / "ranking.txt").write_text(table)
    return table
