"""Case-level pipeline orchestration behind the CLI.

``run_fuse`` fuses each case's models into one label map: a model is a
label map or fold probability maps, several models are fused with STAPLE
(a single model passes through), the ET size threshold is applied, and the
fused NIfTI is written with a JSON diagnostics sidecar. ``run_eval`` pairs
prediction and ground-truth files by filename stem and emits per-case
metrics (CSV + JSON) and summary tables.

A case is read in one loop over slabs of whole z-planes (about
``SLAB_VOXELS`` voxels, at least one plane); a slab is the x-fastest voxel
range of its planes, read from each file as one contiguous byte range.
Every input file is opened and its header parsed and checked once, and the
models' grids are checked to agree, before the first slab. Per slab, each
model gives its labels: a label map's voxels are read and checked as
``load_labelmap`` checks a whole file. Fold maps are decoded in chunks of
``DECODE_VOXELS`` voxels, small enough that a chunk's buffers stay in
cache through every pass over them. Per chunk, every fold's four stored
channels are read, and the chunk's uncertain range is found: the smallest
voxel range outside which every fold stores exactly (1, 0, 0, 0), the
certain background that models which infer on the brain's bounding box
store in the rest of the grid. A chunk whose first and last voxels are
both uncertain is its own range, found with no compare pass. On that
range only, every fold in config order is renormalised and checked, the
folds are averaged, and the mean is checked again and argmaxed, in
buffers allocated once per model; the voxels outside it are label 0. That is
exact: such a voxel passes every check, its mean is (1, 0, 0, 0) and its
argmax label 0, while a NaN or infinite channel differs from (1, 0, 0, 0)
and so stays inside the range and is refused.
Each model's labels go into its two bits of the case's joint code array
(``fusion.joint_codes``), which is the only whole-volume array: one code
per voxel, in the smallest unsigned type holding two bits per model
(uint8 for up to four models).

The codes' histogram (``fusion.joint_histogram``) gives each joint label
row and its voxel count, and a lookup table gives each row's fused label:
STAPLE's (``fusion.staple_lut``), or the model's own label for a single
model. ET voxels are counted from the histogram, so the ET threshold is
decided before any output voxel is written: a relabel is the table edit
ET -> 1. The output body is then the table read at the codes, written
slab by slab after the header ``nifti.header_bytes`` builds.

Every output file (``fuse``'s ``<case>.nii``, ``<case>_staple.json``,
``fuse_manifest.json`` and ``errors.json``; ``eval``'s ``cases.csv``,
``cases.json`` and ``errors.json``; the ``summary.json`` and
``summary.txt`` of ``eval`` and ``report``; ``rank``'s ``ranking.json``,
``ranking.csv`` and ``ranking.txt``) is written through
``nifti._write_atomic``: to a temporary file in the same directory, moved
onto its name with ``os.replace``, so an interrupted or failed write never
leaves a partial file under that name.
A case that raises a :class:`~bratsfuse.errors.BratsFuseError` is
recorded in ``errors.json`` and skipped, and any ``<case>.nii`` or
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
import os
from contextlib import ExitStack
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import BadData, BratsFuseError, ConfigError, UnpairedCase
from .fusion import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    argmax_labels_into,
    average_probs_into,
    joint_codes,
    joint_histogram,
    pack_labels,
    staple_lut,
)
from .metrics import (
    EMPTY_PENALTY_MM,
    REGION_ORDER,
    CaseMetrics,
    evaluate_case,
    metrics_csv_header,
    metrics_csv_row,
)
from .nifti import (
    PlaneReader,
    ProbmapFiles,
    _write_atomic,
    _write_text,
    header_bytes,
    load_labelmap,
    read_label_planes,
)
from .postprocess import DEFAULT_ET_THRESHOLD, relabels_et
from .report import (
    ModelSummary,
    format_ranking_table,
    format_summary_table,
    model_summary,
    rank_models,
    summarize,
)
from .volume import BRATS_LABELS, _check_probs, require_same_geometry

# Not called here (cases are fused slab by slab through the cores above), but
# benchmarks/tracing.py wraps these names on this module.
from .fusion import argmax_labels, average_probs, staple_multilabel_detailed  # noqa: F401
from .nifti import load_probmap, save_nifti  # noqa: F401
from .postprocess import et_threshold_relabel  # noqa: F401

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
    """The JSON number ``value`` as ``kind`` (int or float), or a ConfigError
    naming ``what``.

    Anything but a number is refused, a boolean too. Where an int is wanted,
    a float must be integral: a fractional part, infinity or NaN is refused
    rather than truncated.
    """
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    if ok and kind is int:
        ok = isinstance(value, int) or value.is_integer()
    if not ok:
        raise ConfigError(f"{what} must be {kind.__name__}, got {value!r}")
    return kind(value)


def _check_case_ids(cases) -> None:
    """Refuse a case id that is not a plain file name (it names
    ``<id>.nii``) or that two cases share."""
    seen = set()
    for case in cases:
        cid = case.case_id
        if cid in ("", ".", "..") or any(c in cid for c in "/\\\0"):
            raise ConfigError(f"case id {cid!r} is not a file name")
        if cid in seen:
            raise ConfigError(f"case id {cid!r} is used by two cases")
        seen.add(cid)


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
        _check_case_ids(self.cases)
        for case in self.cases:
            for m in case.models:
                m.validate()


# Voxels per slab when a case is read; a slab is whole z-planes.
SLAB_VOXELS = 1 << 17
# Voxels per chunk when fold maps are decoded: a chunk's buffers (about
# 2.6 MB for five folds) stay in a core's cache through every pass over them.
DECODE_VOXELS = 1 << 14
_LABELS = np.array(BRATS_LABELS, dtype=np.uint8)


def _slab_voxels(shape) -> tuple[int, int]:
    """Planes per slab of a grid, and the voxels of its largest slab."""
    nx, ny, nz = shape
    step = max(1, SLAB_VOXELS // (nx * ny))
    return step, nx * ny * min(step, nz)


def _voxels(shape, z0: int, z1: int) -> tuple[int, int]:
    """The x-fastest voxel range of planes ``z0:z1`` of a grid."""
    nx, ny, _ = shape
    return nx * ny * z0, nx * ny * z1


class _LabelModel:
    """A model given as a label map, read slab by slab."""

    def __init__(self, path: Path, stack: ExitStack):
        try:
            self._file = stack.enter_context(PlaneReader(path))
        except OSError as e:
            raise ConfigError(f"cannot open label map {path}: {e.strerror}") from e
        self.header = self._file.header
        _, size = _slab_voxels(self.header.shape)
        self._buf = np.empty(size * self.header.dtype.itemsize, np.uint8)

    def labels(self, z0: int, z1: int) -> np.ndarray:
        """The labels of planes ``z0:z1``, checked, x-fastest."""
        start, stop = _voxels(self.header.shape, z0, z1)
        data = read_label_planes(self._file, start, stop, self._buf)
        return data.astype(np.uint8, copy=False)


# A fold's stored channels (0, 1, 2, 4) at a voxel of certain background.
_BACKGROUND = (1, 0, 0, 0)


def _uncertain_at(stored, i: int) -> bool:
    """Whether some fold of ``stored`` (per fold, the channels
    ``ProbmapFiles.read`` returns) differs from ``_BACKGROUND`` at voxel
    ``i``; NaN equals nothing, so a NaN channel differs."""
    return any(c[i] != v for channels in stored for c, v in zip(channels, _BACKGROUND))


class _FoldModel:
    """A model given as fold probability maps, decoded ``DECODE_VOXELS``
    voxels at a time."""

    def __init__(self, manifests: tuple[Path, ...], stack: ExitStack):
        self._manifests = manifests
        self._folds = [stack.enter_context(ProbmapFiles(p)) for p in manifests]
        require_same_geometry(*(f.header for f in self._folds))
        self.header = self._folds[0].header
        _, size = _slab_voxels(self.header.shape)
        self._chunk = chunk = min(DECODE_VOXELS, size)
        # One set of buffers for every chunk: every fold's four stored
        # channels (at most 4 bytes a value), and float64 buffers for the
        # voxels that are not certain background.
        self._stored = np.empty((len(manifests), 4, chunk), np.float32)
        self._probs, self._mean = np.empty((2, 4, chunk))
        self._sums, self._best = np.empty((2, chunk))
        self._uncertain, self._differs = np.empty((2, chunk), bool)
        self._labels = np.empty(size, np.uint8)

    def labels(self, z0: int, z1: int) -> np.ndarray:
        """The labels of planes ``z0:z1``, x-fastest, one chunk at a time."""
        start, stop = _voxels(self.header.shape, z0, z1)
        labels = self._labels[: stop - start]
        for lo in range(start, stop, self._chunk):
            hi = min(lo + self._chunk, stop)
            self._chunk_labels(lo, hi, labels[lo - start : hi - start])
        return labels

    def _chunk_labels(self, lo: int, hi: int, out: np.ndarray) -> None:
        """The labels of voxels ``lo:hi`` into ``out``.

        Every fold's stored channels are read; on the smallest range of the
        chunk outside which every fold stores ``_BACKGROUND``, every fold in
        config order is renormalised and checked, then their mean is checked
        and argmaxed. The voxels outside that range are label 0: each of
        them passes every check and its mean is exactly ``_BACKGROUND``.
        """
        stored = [f.read(lo, hi, buf) for f, buf in zip(self._folds, self._stored)]
        a, b = self._uncertain_range(stored, hi - lo)
        out[:a] = 0
        out[b:] = 0
        if a < b:
            self._decode(([c[a:b] for c in channels] for channels in stored), out[a:b])

    def _uncertain_range(self, stored, n: int) -> tuple[int, int]:
        """The smallest range ``[a, b)`` of a chunk's ``n`` voxels outside
        which every fold of ``stored`` holds ``_BACKGROUND`` (``a == b ==
        0`` if all do).

        NaN and infinite channels differ from it, so they stay inside the
        range and are checked. If the first and last voxels are uncertain,
        the range is the whole chunk and the compare pass is skipped.
        """
        if _uncertain_at(stored, 0) and _uncertain_at(stored, n - 1):
            return 0, n
        uncertain, differs = self._uncertain[:n], self._differs[:n]
        uncertain[...] = False
        for channels in stored:
            for c, v in zip(channels, _BACKGROUND):
                np.not_equal(c, v, out=differs)
                uncertain |= differs
        a = int(uncertain.argmax())
        if not uncertain[a]:
            return 0, 0
        return a, n - int(uncertain[::-1].argmax())

    def _decode(self, stored, out: np.ndarray) -> None:
        """The labels of the voxels of ``stored`` (per fold, in config order,
        a range of the channels ``ProbmapFiles.read`` returns) into
        ``out``."""
        n = out.size
        mean, sums = self._mean[:, :n], self._sums[:n]
        decoded = (f.renormalise(channels, self._probs[:, :n], sums)
                   for f, channels in zip(self._folds, stored))
        average_probs_into(decoded, mean)
        try:
            _check_probs(mean, sums)
        except ValueError as e:
            names = ", ".join(str(p) for p in self._manifests)
            raise BadData(f"average of {names}: {e}") from e
        argmax_labels_into(mean, out, self._best[:n])


def _open_model(m: ModelInput, stack: ExitStack) -> _LabelModel | _FoldModel:
    if m.labelmap is not None:
        return _LabelModel(m.labelmap, stack)
    return _FoldModel(m.prob_manifests, stack)


def _write_json(path: Path, value) -> None:
    _write_text(path, json.dumps(value, sort_keys=True, indent=2) + "\n")


def _fuse_one_case(case: CaseInput, cfg: PipelineConfig) -> dict:
    with ExitStack() as stack:
        models = [_open_model(m, stack) for m in case.models]
        require_same_geometry(*(m.header for m in models))
        grid = models[0].header
        nx, ny, nz = grid.shape
        step, slab = _slab_voxels(grid.shape)
        codes = joint_codes(len(models), nx * ny * nz)
        for z0 in range(0, nz, step):
            z1 = min(z0 + step, nz)
            start, stop = _voxels(grid.shape, z0, z1)
            voxels = codes[start:stop]
            for r, model in enumerate(models):
                pack_labels(voxels, r, model.labels(z0, z1))
    rows, counts, index, codes = joint_histogram(codes, len(models))
    if len(models) == 1:
        lut, staple_diag = _LABELS[rows[0]], None
    else:
        lut, fits = staple_lut(rows, counts, codes.size, tol=cfg.staple_tol,
                               max_iters=cfg.staple_max_iters)
        staple_diag = {region: fit.to_json_dict() for region, fit in fits.items()}
    et_before = int(counts[lut == 4].sum())
    relabel = relabels_et(et_before, cfg.et_threshold)
    if relabel:
        lut = np.where(lut == 4, np.uint8(1), lut)
    table = index.of(lut)  # the fused label of every code
    out_nii = cfg.output_dir / f"{case.case_id}.nii"
    with _write_atomic(out_nii) as fh:
        fh.write(header_bytes(grid.shape, grid.spacing, grid.origin, np.uint8))
        for start in range(0, codes.size, slab):
            fh.write(table[codes[start : start + slab]])
    diag = {
        "case_id": case.case_id,
        "models": [m.name for m in case.models],
        "staple": staple_diag,
        "et_threshold": cfg.et_threshold,
        "et_voxels_before": et_before,
        "et_voxels_after": 0 if relabel else et_before,
        "et_relabeled": relabel,
        "output": out_nii.name,
    }
    _write_json(cfg.output_dir / f"{case.case_id}_staple.json", diag)
    return diag


def _run_cases(worker, items, jobs: int):
    if jobs <= 1:
        return [worker(i) for i in items]
    # Imported here: loading the process pool costs every command about 20 ms.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, items))


def _case_error(case_id: str, e: BratsFuseError) -> dict:
    return {"case_id": case_id, "error": type(e).__name__, "detail": str(e)}


def _write_errors(output_dir: Path, errors: list[dict]) -> None:
    """Write ``errors.json``, or remove one an earlier run left behind."""
    path = output_dir / "errors.json"
    if errors:
        _write_json(path, errors)
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
    _write_json(cfg.output_dir / "fuse_manifest.json", diags)
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
    _write_text(output_dir / "cases.csv", "\n".join(lines) + "\n")
    _write_json(output_dir / "cases.json", [asdict(c) for c in cases])
    if cases:
        write_summary_outputs(cases, output_dir)
    _write_errors(output_dir, errors)
    return cases, errors


def write_summary_outputs(cases: list[CaseMetrics], output_dir) -> None:
    """Emit summary.json and the text table for a set of case metrics."""
    output_dir = Path(output_dir)
    stats = summarize(cases)
    _write_json(output_dir / "summary.json", asdict(stats))
    _write_text(output_dir / "summary.txt", format_summary_table(stats))


def _region_values(row: dict) -> tuple[dict[str, float], dict[str, float]]:
    """The DSC_<region> and HD95_<region> columns of one CSV row, as floats."""
    return ({r: float(row[f"DSC_{r}"]) for r in REGION_ORDER},
            {r: float(row[f"HD95_{r}"]) for r in REGION_ORDER})


def _csv_rows(path) -> list[dict]:
    """The rows of a CSV file with a header line, read as UTF-8 text; a
    file that is not UTF-8 is a ConfigError."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path} is not UTF-8 text: {e}") from e


def read_cases_csv(path) -> list[CaseMetrics]:
    """Parse a per-case metrics CSV as ``run_eval`` writes it (``cases.csv``).

    Columns: case_id,DSC_ET,DSC_TC,DSC_WT,HD95_ET,HD95_TC,HD95_WT.
    """
    cases = []
    for row in _csv_rows(path):
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
    for row in _csv_rows(path):
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
    summaries = read_model_summaries_csv(summary_csv)
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    ranking = rank_models(summaries)
    _write_text(output_dir / "ranking.json", ranking.to_json() + "\n")
    rows = ["model,rank"] + [f"{n},{r}" for n, r in ranking.ranking]
    _write_text(output_dir / "ranking.csv", "\n".join(rows) + "\n")
    table = format_ranking_table(summaries, ranking)
    _write_text(output_dir / "ranking.txt", table)
    return table
