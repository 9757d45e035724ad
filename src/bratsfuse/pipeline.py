"""Case-level pipeline orchestration behind the CLI.

``run_fuse`` executes, per case: average each model's fold probability maps
and decode to labels, fuse the models with STAPLE (a single model passes
through), apply the ET size threshold, and write the fused NIfTI plus a JSON
diagnostics sidecar. ``run_eval`` pairs prediction and ground-truth files by
filename stem and emits per-case metrics (CSV + JSON) and summary tables.

Everything is deterministic: cases are processed independently (optionally
in parallel), per-case outputs depend only on that case's inputs, and all
aggregate files are written in sorted case order, so reruns and different
``jobs`` settings produce byte-identical outputs.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .errors import BratsFuseError, ConfigError
from .fusion import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    argmax_labels,
    average_probs,
    staple_multilabel_detailed,
)
from .metrics import (
    EMPTY_PENALTY_MM,
    CaseMetrics,
    evaluate_case,
    metrics_csv_header,
    metrics_csv_row,
)
from .nifti import load_labelmap, load_probmap, save_nifti
from .postprocess import DEFAULT_ET_THRESHOLD, et_threshold_relabel
from .report import (
    ModelSummary,
    format_ranking_table,
    format_summary_table,
    model_summary,
    rank_models,
    summarize,
)

__all__ = [
    "ModelInput",
    "CaseInput",
    "PipelineConfig",
    "run_fuse",
    "run_eval",
    "run_rank",
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


@dataclass(frozen=True)
class PipelineConfig:
    cases: tuple[CaseInput, ...]
    output_dir: Path
    et_threshold: int = DEFAULT_ET_THRESHOLD
    staple_tol: float = DEFAULT_TOL
    staple_max_iters: int = DEFAULT_MAX_ITERS

    @classmethod
    def from_json(cls, path) -> "PipelineConfig":
        path = Path(path)
        try:
            raw = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        base = path.parent

        def resolve(p):
            p = Path(p)
            return p if p.is_absolute() else base / p

        cases = []
        for c in raw.get("cases", []):
            models = []
            for m in c.get("models", []):
                models.append(
                    ModelInput(
                        name=m["name"],
                        labelmap=resolve(m["labelmap"]) if "labelmap" in m else None,
                        prob_manifests=tuple(
                            resolve(p) for p in m.get("prob_manifests", [])
                        ),
                    )
                )
            if not models:
                raise ConfigError(f"case {c.get('id')!r} lists no models")
            cases.append(CaseInput(case_id=str(c["id"]), models=tuple(models)))
        if not cases:
            raise ConfigError("config lists no cases")
        staple = raw.get("staple", {})
        cfg = cls(
            cases=tuple(cases),
            output_dir=resolve(raw.get("output_dir", "fused")),
            et_threshold=int(raw.get("et_threshold", DEFAULT_ET_THRESHOLD)),
            staple_tol=float(staple.get("tol", DEFAULT_TOL)),
            staple_max_iters=int(staple.get("max_iters", DEFAULT_MAX_ITERS)),
        )
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.et_threshold < 0:
            raise ConfigError("et_threshold must be nonnegative")
        if self.staple_tol <= 0 or self.staple_max_iters < 1:
            raise ConfigError("staple tol must be > 0 and max_iters >= 1")
        for case in self.cases:
            for m in case.models:
                m.validate()


def _model_labelmap(m: ModelInput):
    if m.labelmap is not None:
        return load_labelmap(m.labelmap)
    probs = [load_probmap(p) for p in m.prob_manifests]
    return argmax_labels(average_probs(probs))


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


@dataclass
class _FuseTask:
    cfg: PipelineConfig

    def __call__(self, case: CaseInput) -> dict:
        return _fuse_one_case(case, self.cfg)


def run_fuse(cfg: PipelineConfig, jobs: int = 1) -> list[dict]:
    """Fuse every configured case; returns per-case diagnostics (sorted)."""
    cfg.validate()
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    cases = sorted(cfg.cases, key=lambda c: c.case_id)
    diags = _run_cases(_FuseTask(cfg), cases, jobs)
    diags.sort(key=lambda d: d["case_id"])
    manifest = cfg.output_dir / "fuse_manifest.json"
    manifest.write_text(json.dumps(diags, sort_keys=True, indent=2) + "\n")
    return diags


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
            return None, {"case_id": case_id, "error": type(e).__name__, "detail": str(e)}


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
    returned error list.
    """
    pred_dir, gt_dir, output_dir = Path(pred_dir), Path(gt_dir), Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    pred_stems = {p.stem for p in pred_dir.glob("*.nii")}
    gt_stems = {p.stem for p in gt_dir.glob("*.nii")}
    paired = sorted(pred_stems & gt_stems)
    errors = [
        {"case_id": s, "error": "UnpairedCase",
         "detail": f"no ground truth for prediction {s}.nii"}
        for s in sorted(pred_stems - gt_stems)
    ] + [
        {"case_id": s, "error": "UnpairedCase",
         "detail": f"no prediction for ground truth {s}.nii"}
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
    if errors:
        (output_dir / "errors.json").write_text(
            json.dumps(errors, sort_keys=True, indent=2) + "\n"
        )
    return cases, errors


def write_summary_outputs(cases: list[CaseMetrics], output_dir) -> None:
    """Emit summary.json and the text table for a set of case metrics."""
    output_dir = Path(output_dir)
    stats = summarize(cases)
    (output_dir / "summary.json").write_text(
        json.dumps(stats.to_json_dict(), sort_keys=True, indent=2) + "\n"
    )
    (output_dir / "summary.txt").write_text(format_summary_table(stats))


def read_model_summaries_csv(path) -> list[ModelSummary]:
    """Parse a CSV of per-model region means.

    Columns: model,DSC_ET,DSC_TC,DSC_WT,HD95_ET,HD95_TC,HD95_WT.
    """
    import csv

    summaries = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            try:
                name = row["model"]
                dsc = {r: float(row[f"DSC_{r}"]) for r in ("ET", "TC", "WT")}
                hd = {r: float(row[f"HD95_{r}"]) for r in ("ET", "TC", "WT")}
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
