"""Case-level pipeline orchestration behind the CLI.

``run_fuse`` fuses each case's models into one label map: a model is a
label map or fold probability maps, several models (at most 32, the most a
joint code holds; a case with more is a ConfigError before any case runs)
are fused with STAPLE (a single model passes through), the ET size
threshold is applied, and the fused NIfTI is written with a JSON
diagnostics sidecar (``run_postprocess``: one label map alone, no sidecar).
``run_eval`` pairs prediction and ground-truth files by filename stem, reads
each pair as a case of two label-map models, and emits per-case metrics
(CSV + JSON) and summary tables.

A case is read in one loop over its z-planes; a plane is the x-fastest
voxel range ``nx*ny*z : nx*ny*(z + 1)``, read from each file as one
contiguous byte range. Every input file is opened and its header parsed and
checked once, and the models' grids are checked to agree (a mismatch names
both files), before the first plane. Per plane, each model gives its
labels, read into one read buffer that all of the case's models share, of
the most bytes any of them reads: a label map reads one plane in its stored
dtype, checked by ``nifti.read_label_planes``, and a fold model one stored
channel of a plane or one fold's four channels of one decode band, whatever
its number of folds. Fold maps are decoded in two steps per plane. The scan
reads each fold in config order, one channel of the whole plane per read,
and compares the channel with its value in exactly (1, 0, 0, 0), the
certain background that models which infer on the brain's bounding box
store in the rest of the grid. The plane's rectangle is a slice of rows
and a slice of columns outside which no fold differs
(``volume.nonzero_box``); once the plane's first and last voxels differ,
the rectangle is the whole plane and the scan stops, so a dense plane
costs one read of one channel of one fold.
The rectangle is then decoded in bands of ``DECODE_VOXELS`` voxels' worth
of rows (at least one row; a BraTS-size rectangle is one band): per band,
each fold in config order is read again, one range per channel into the
front of the read buffer, and renormalised and checked on the rectangle's
columns only before the next fold is read; the folds are averaged, and the
mean's channel sums are checked and it is argmaxed, in buffers allocated
once per model. Only the passes a check needs are made: a fold is clipped
and its channel sums checked only when a stored channel of the band is
negative (``nifti.ProbmapFiles.renormalise`` says why no other fold can
fail them), and the mean of folds in [0, 1] lies in [0, 1], so only its
sums are checked. The voxels outside the rectangle are label 0. That is
exact: such a voxel passes every check, its mean is (1, 0, 0, 0) and its
argmax label 0, while a NaN or infinite channel differs from (1, 0, 0, 0)
and so lies inside the rectangle and is refused. A plane with no such
rectangle is neither decoded nor packed.
Each model's labels go into its two bits of one reused plane of joint
codes (``fusion.joint_codes``: one code per voxel, in the smallest unsigned
type holding two bits per model, uint8 for up to four models); code 0 is
every model saying background. Of each plane, only a copy of the rectangle
outside which every code is 0 (again ``nonzero_box``'s two slices) is
kept. What a case holds is therefore one plane's buffers plus the kept
rectangles, which grow with the tumour, not with the grid.

The histogram of the rectangles, with every other voxel counted as code 0
(``fusion.joint_histogram``), gives each joint label row and its voxel
count, and a lookup table gives each row's fused label: STAPLE's
(``fusion.staple_lut``), or the model's own label for a single model. ET
voxels are counted from the histogram, so the ET threshold is decided
before any output voxel is written: a relabel is the table edit ET -> 1.
The output body is then written after the header ``nifti.header_bytes``
builds, one z-plane at a time: the plane is filled with the label of row 0
(code 0's, whenever code 0 occurs), and the rectangle's codes are looked
up among the histogram's ascending codes and given their rows' labels.

``eval`` reads a pair the same way, the prediction as the first model and
the ground truth as the second, so the two grids are checked to agree
before any voxel is read. It copies the kept rectangles into one array of
two-model joint codes over their union (the box of the nonzero codes), the
only grid-shaped array it allocates, and scores that codes box with
``metrics.score_codes``; no label map is rebuilt. The scores are those of
the whole grid: every voxel outside the box is background in both maps,
so the Dice counts are unchanged, and ``metrics.hd95`` crops each region's
masks to their own union box, so it measures the same distances from the
same corner. A pair with no tumour in either map is scored as one 1x1x1
box of code 0: DSC 1 and HD95 0 in every region.

Every output file (``fuse``'s ``<case>.nii``, ``<case>_staple.json``,
``fuse_manifest.json`` and ``errors.json``; ``eval``'s ``cases.csv``,
``cases.json`` and ``errors.json``; the ``summary.json`` and
``summary.txt`` of ``eval`` and ``report``; ``rank``'s ``ranking.json``,
``ranking.csv`` and ``ranking.txt``) is written through
``nifti._write_atomic``: to a temporary file in the same directory, moved
onto its name with ``os.replace``, so an interrupted or failed write never
leaves a partial file under that name.
A case that raises a :class:`~bratsfuse.errors.BratsFuseError`, or an
``OSError`` (say, one of its outputs cannot be written), is recorded in
``errors.json`` and skipped, and any ``<case>.nii`` or
``<case>_staple.json`` an earlier run left in the output directory is
removed (or, if it cannot be, named in the case's error); the other cases
still run.

Everything is deterministic. Cases run in case-id order; with ``jobs`` N
above 1, min(N, cases) forked worker processes run them, worker k taking
cases k, k + N, k + 2N, ... of that order, a share fixed before any case
starts. Each worker sends its share's results to the parent once, pickled
through its own pipe, and the parent puts them back in case-id order. A
case's outputs depend only on that case's inputs, and the parent writes
every aggregate file in case-id order, so reruns and different ``jobs``
settings produce byte-identical outputs. An exception a worker raises,
other than a case's recorded error, is raised again in the parent, from a
RuntimeError that holds the worker's pid and traceback; a worker that ends
without sending its results (killed, say) is a RuntimeError naming its pid
and exit status. Either way the workers still running are
killed, and no worker outlives the run. Without ``os.fork`` (or at
``jobs`` 1), the cases run one after another in the calling process.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import ExitStack
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .errors import (
    BadData,
    BratsFuseError,
    ConfigError,
    UnpairedCase,
    error_text,
)
from .fusion import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    MAX_RATERS,
    _lookup,
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
    metrics_csv_header,
    metrics_csv_row,
    score_codes,
)
from .nifti import (
    PlaneReader,
    ProbmapFiles,
    _channel_files,
    _write_atomic,
    _write_text,
    header_bytes,
    read_label_planes,
)
from .postprocess import DEFAULT_ET_THRESHOLD, check_et_threshold, relabel_et
from .report import format_ranking_table, format_summary_table, rank_models, summarize
from .volume import _LABELS, ET, _check_sums, nonzero_box, require_same_geometry

# Not called here (cases are fused and evaluated plane by plane through the cores
# above), but benchmarks/tracing.py wraps these names on this module.
from .fusion import argmax_labels, average_probs, staple_multilabel_detailed  # noqa: F401
from .metrics import evaluate_case  # noqa: F401
from .nifti import load_labelmap, load_probmap, save_nifti  # noqa: F401
from .postprocess import et_threshold_relabel  # noqa: F401

__all__ = [
    "ModelInput",
    "CaseInput",
    "PipelineConfig",
    "run_fuse",
    "run_postprocess",
    "run_eval",
    "run_rank",
    "read_cases_csv",
    "write_summary_outputs",
]


@dataclass(frozen=True)
class ModelInput:
    """One model's prediction for one case: exactly one of a label map or
    fold manifests (checked when built). Its files are read, and a missing
    one refused, when its case is fused."""

    name: str
    labelmap: Path | None = None
    prob_manifests: tuple[Path, ...] = ()

    def __post_init__(self):
        if (self.labelmap is None) == (not self.prob_manifests):
            raise ConfigError(
                f"model {self.name!r} needs exactly one of labelmap/prob_manifests"
            )


@dataclass(frozen=True)
class CaseInput:
    case_id: str
    models: tuple[ModelInput, ...]

    def __post_init__(self):
        # The id is the config's to check: eval names its cases by file stems.
        if not self.models:
            raise ConfigError(f"case {self.case_id!r} lists no models")
        if len(self.models) > MAX_RATERS:
            raise ConfigError(f"case {self.case_id!r}: joint codes hold at most "
                              f"{MAX_RATERS} raters, got {len(self.models)}")


def _json_value(value, kind, what: str):
    """``value`` if it is a JSON ``kind`` (dict, list or str), else a
    ConfigError naming ``what``."""
    if not isinstance(value, kind):
        name = {dict: "object", str: "string"}.get(kind, kind.__name__)
        raise ConfigError(f"{what} must be a JSON {name}, got {type(value).__name__}")
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


def _check_keys(keys, known: tuple[str, ...], where: str) -> None:
    """Refuse a key outside ``known``: a misspelt setting would otherwise
    be dropped for its default."""
    for key in keys:
        if key not in known:
            raise ConfigError(f"{where} has an unknown key {key!r} (known: {', '.join(known)})")


@dataclass(frozen=True)
class PipelineConfig:
    """A fuse config; it, its cases and their models are checked when built,
    from JSON or in code. A case id names ``<id>.nii``."""

    cases: tuple[CaseInput, ...]
    output_dir: Path
    et_threshold: int = DEFAULT_ET_THRESHOLD
    staple_tol: float = DEFAULT_TOL
    staple_max_iters: int = DEFAULT_MAX_ITERS

    def __post_init__(self):
        if not self.cases:
            raise ConfigError("config lists no cases")
        check_et_threshold(self.et_threshold)
        if not self.staple_tol > 0 or self.staple_max_iters < 1:
            raise ConfigError("staple tol must be > 0 and max_iters >= 1")
        if self.staple_tol == math.inf:
            raise ConfigError("staple tol must be finite, got inf")
        seen = set()
        for cid in (case.case_id for case in self.cases):
            if cid in ("", ".", "..") or any(c in cid for c in "/\\\0"):
                raise ConfigError(f"case id {cid!r} is not a file name")
            if cid in seen:
                raise ConfigError(f"case id {cid!r} is used by two cases")
            seen.add(cid)

    @classmethod
    def from_json(cls, path) -> "PipelineConfig":
        """Read a config file's JSON types, keys and paths; anything malformed
        in it, or refused as the config is built, is a ConfigError."""
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

        raw = _json_value(raw, dict, f"config {path}")
        # "seed" is accepted and ignored: configs of earlier versions set it.
        _check_keys([k for k in raw if k != "seed"],
                    ("cases", "output_dir", "et_threshold", "staple"), f"config {path}")
        cases = []
        for c in _json_value(raw.get("cases", []), list, "cases"):
            c = _json_value(c, dict, "a case")
            if "id" not in c:
                raise ConfigError("a case has no 'id'")
            case_id = _json_value(c["id"], str, "a case id")
            _check_keys(c, ("id", "models"), f"case {case_id!r}")
            models = []
            for m in _json_value(c.get("models", []), list, f"case {case_id!r} models"):
                m = _json_value(m, dict, f"a model of case {case_id!r}")
                if "name" not in m:
                    raise ConfigError(f"a model of case {case_id!r} has no 'name'")
                name = _json_value(m["name"], str, f"a model name of case {case_id!r}")
                _check_keys(m, ("name", "labelmap", "prob_manifests"),
                            f"model {name!r} of case {case_id!r}")
                models.append(
                    ModelInput(
                        name=name,
                        labelmap=resolve(m["labelmap"]) if "labelmap" in m else None,
                        prob_manifests=tuple(
                            resolve(p) for p in _json_value(
                                m.get("prob_manifests", []), list, f"model {name!r} prob_manifests")
                        ),
                    )
                )
            cases.append(CaseInput(case_id=case_id, models=tuple(models)))
        staple = _json_value(raw.get("staple", {}), dict, "staple")
        _check_keys(staple, ("tol", "max_iters"), "staple")
        return cls(
            cases=tuple(cases),
            output_dir=resolve(raw.get("output_dir", "fused")),
            et_threshold=_convert(int, raw.get("et_threshold", DEFAULT_ET_THRESHOLD),
                                  "et_threshold"),
            staple_tol=_convert(float, staple.get("tol", DEFAULT_TOL), "staple tol"),
            staple_max_iters=_convert(int, staple.get("max_iters", DEFAULT_MAX_ITERS),
                                      "staple max_iters"),
        )


# Voxels per band of rows when fold maps are decoded (at least one row). Each
# band makes the same reads and numpy calls per fold whatever its size, so
# fewer bands cost less: at 1 << 15 a BraTS-size rectangle (82 rows of 240
# at the benchmark's seed 0) is one band, not two of 68 and 14 rows, and the
# fuse-soft case makes 1,680 decode reads instead of 3,360. Its in-process
# run_fuse took 184 to 213 ms of CPU against 202 to 243 ms at 1 << 14
# (medians of 7 to 9, three rounds, 2 vCPUs). A band's buffers, about 3 MB
# for any number of folds, are used from their front, so a smaller band
# touches fewer pages.
DECODE_VOXELS = 1 << 15


def _voxels(shape, z: int) -> tuple[int, int]:
    """The x-fastest voxel range of plane ``z`` of a grid."""
    plane = shape[0] * shape[1]
    return plane * z, plane * (z + 1)


class _LabelModel:
    """A model given as a label map, read plane by plane."""

    def __init__(self, path: Path, stack: ExitStack):
        self._file = stack.enter_context(PlaneReader(path))
        self.header = self._file.header
        # Bytes this model reads into the case's read buffer: one plane.
        nx, ny, _ = self.header.shape
        self.read_bytes = nx * ny * self.header.dtype.itemsize

    def labels(self, z: int, buf: np.ndarray) -> np.ndarray:
        """The labels of plane ``z``, checked, x-fastest, read into ``buf``."""
        start, stop = _voxels(self.header.shape, z)
        data = read_label_planes(self._file, start, stop, buf)
        return data.astype(np.uint8, copy=False)


# A fold's stored channels (0, 1, 2, 4) at a voxel of certain background.
_BACKGROUND = (1, 0, 0, 0)


class _FoldModel:
    """A model given as fold probability maps, decoded a plane at a time
    inside the rectangle of the plane's uncertain voxels, each fold read in
    turn into the case's read buffer: by the scan one channel of the whole
    plane at a time, and then one fold's four channels of a band at a time."""

    def __init__(self, manifests: tuple[Path, ...], stack: ExitStack):
        self._folds = [stack.enter_context(ProbmapFiles(p)) for p in manifests]
        require_same_geometry(*(f.header for f in self._folds), names=manifests)
        self.header = self._folds[0].header
        nx, ny, _ = self.header.shape
        # Rows per decode band: at most DECODE_VOXELS voxels, at least a row.
        self._band = band = min(max(1, DECODE_VOXELS // nx), ny)
        # Bytes this model reads into the case's read buffer (at most 4 a
        # value): one channel of a plane, or one fold's four channels of a band.
        self.read_bytes = 4 * max(ny, 4 * band) * nx
        # float64 buffers for the band's voxels inside the rectangle.
        self._probs, self._mean = np.empty((2, 4, band * nx))
        self._sums, self._best = np.empty((2, band * nx))
        self._uncertain = np.empty((ny, nx), bool)
        self._labels = np.empty((ny, nx), np.uint8)

    def labels(self, z: int, buf: np.ndarray) -> np.ndarray | None:
        """The labels of plane ``z``, x-fastest, or None if they are all 0;
        the folds are read into ``buf``, which holds at least ``read_bytes``.

        Inside the plane's rectangle (``_rectangle``), every fold in config
        order is renormalised and checked, then their mean is checked and
        argmaxed. The voxels outside it are label 0: each of them passes
        every check and its mean is exactly ``_BACKGROUND``.
        """
        start, _ = _voxels(self.header.shape, z)
        box = self._rectangle(start, buf)
        if box is None:
            return None
        self._labels.fill(0)
        self._decode(start, *box, buf)
        return self._labels.reshape(-1)

    def _rectangle(self, start: int, buf: np.ndarray):
        """The slices of rows and of columns of the plane from voxel
        ``start`` outside which every fold stores ``_BACKGROUND``, or None
        if every fold does everywhere.

        Per fold in config order, per channel, the whole plane is read into
        ``buf`` in one read and compared with the channel's ``_BACKGROUND``
        value; NaN and infinite values differ from it, so they lie inside
        the rectangle and are checked. Once the plane's first and last
        voxels are uncertain, the rectangle is the whole plane and the scan
        stops.
        """
        ny, nx = self._uncertain.shape
        uncertain = self._uncertain.reshape(-1)
        uncertain[...] = False
        for fold in self._folds:
            for c, value in enumerate(_BACKGROUND):
                uncertain |= fold.read_channel(c, start, start + nx * ny, buf) != value
                if uncertain[0] and uncertain[-1]:
                    return slice(0, ny), slice(0, nx)
        return nonzero_box(self._uncertain)

    def _decode(self, start: int, rows: slice, cols: slice, buf: np.ndarray) -> None:
        """The labels of the rectangle of the slices ``rows`` x ``cols`` of
        the plane from voxel ``start``, in bands of ``_band`` rows: per band,
        each fold's whole rows are read into ``buf``, channel ``c`` into the
        ``c``-th quarter of the band's first ``16 * voxels`` bytes, just
        before their columns ``cols`` are renormalised. The band's float64
        views are cut from the front of their buffers too, so a band touches
        only the pages it needs."""
        nx = self.header.shape[0]
        for ya in range(rows.start, rows.stop, self._band):
            yb = min(ya + self._band, rows.stop)
            lo, hi = start + ya * nx, start + yb * nx
            block = buf[: 16 * (hi - lo)].reshape(4, -1)
            out = self._labels[ya:yb, cols]
            n = out.size
            probs, mean = (a.reshape(-1)[: 4 * n].reshape(4, n) for a in (self._probs, self._mean))
            sums = self._sums[:n]
            # A generator: average_probs_into renormalises one fold into
            # ``probs`` and adds it to the mean before the next is read.
            decoded = (f.renormalise([f.read_channel(c, lo, hi, row).reshape(-1, nx)[:, cols]
                                      for c, row in enumerate(block)], probs, sums)
                       for f in self._folds)
            # The mean of folds in [0, 1] is in [0, 1] (average_probs_into),
            # so only its channel sums can be off.
            average_probs_into(decoded, mean)
            try:
                _check_sums(mean, sums)
            except ValueError as e:
                names = ", ".join(str(f.manifest) for f in self._folds)
                raise BadData(f"average of {names}: {e}") from e
            argmax_labels_into(mean.reshape(4, *out.shape), out,
                               self._best[:n].reshape(out.shape))


def _write_json(path: Path, value) -> None:
    _write_text(path, json.dumps(value, sort_keys=True, indent=2) + "\n")


def _csv_field(value) -> str:
    """``value`` as a CSV field: quoted, with its quotes doubled, if it holds
    a comma, a quote or a line break. ``csv.writer`` would leave a ``\\r``
    bare, which a reader takes for the end of the row."""
    s = str(value)
    return '"' + s.replace('"', '""') + '"' if any(c in s for c in ',"\r\n') else s


def _write_csv(path: Path, rows) -> None:
    """Write ``rows`` as CSV lines ending in ``\\n``."""
    _write_text(path, "".join(",".join(map(_csv_field, row)) + "\n" for row in rows))


def _read_blocks(case: CaseInput):
    """The grid of ``case``'s models and, per z-plane, the ``(rows, columns)``
    block of its joint codes outside which every model says background, as
    ``((x, y, z) corner, codes)`` pairs in plane order; a plane of
    background keeps nothing."""
    with ExitStack() as stack:
        models = [_LabelModel(m.labelmap, stack) if m.labelmap is not None
                  else _FoldModel(m.prob_manifests, stack) for m in case.models]
        require_same_geometry(*(m.header for m in models), names=[
            m.labelmap or m.prob_manifests[0] for m in case.models])
        grid = models[0].header
        nx, ny, nz = grid.shape
        codes = joint_codes(len(models), nx * ny)
        plane = codes.reshape(ny, nx)
        # One read buffer, of the most bytes any model reads, serves every
        # model: each model's labels are packed into the codes before the
        # next model reads.
        read = np.empty(max(m.read_bytes for m in models), np.uint8)
        blocks = []
        for z in range(nz):
            codes[...] = 0
            packed = False
            for r, model in enumerate(models):
                labels = model.labels(z, read)  # None: all background
                if labels is not None:
                    pack_labels(codes, r, labels)
                    packed = True
            box = nonzero_box(plane) if packed else None
            if box is not None:
                rows, cols = box
                blocks.append(((cols.start, rows.start, z), plane[box].copy()))
    return grid, blocks


def _fuse_into(case: CaseInput, cfg: PipelineConfig, out_nii: Path) -> dict:
    """Fuse ``case`` into the label file ``out_nii``; returns its diagnostics."""
    grid, blocks = _read_blocks(case)
    n_models, n_voxels = len(case.models), math.prod(grid.shape)
    rows, counts, keys = joint_histogram(
        [codes.ravel() for _, codes in blocks], n_models, n_voxels)
    if n_models == 1:
        lut, staple_diag = _LABELS[rows[0]], None
    else:
        lut, fits = staple_lut(rows, counts, n_voxels, tol=cfg.staple_tol,
                               max_iters=cfg.staple_max_iters)
        # p and q as lists, so the diagnostics equal the JSON they are written as.
        staple_diag = {region: dict(asdict(fit), p=list(fit.p), q=list(fit.q))
                       for region, fit in fits.items()}
    et_before = int(counts[lut == ET].sum())
    lut = relabel_et(lut, et_before, cfg.et_threshold)
    et_after = int(counts[lut == ET].sum())
    nx, ny, nz = grid.shape
    plane = np.empty((ny, nx), np.uint8)
    kept = {z: (x, y, codes) for (x, y, z), codes in blocks}
    with _write_atomic(out_nii) as fh:
        fh.write(header_bytes(grid.shape, grid.spacing, grid.origin, np.uint8))
        for z in range(nz):
            # Row 0 is code 0 whenever code 0 occurs, so lut[0] is its label;
            # when code 0 does not occur, every plane's rectangle is the whole
            # plane, which overwrites the fill.
            plane.fill(lut[0])
            if z in kept:
                x, y, codes = kept[z]
                plane[y : y + codes.shape[0], x : x + codes.shape[1]] = \
                    _lookup(keys, lut, codes)
            fh.write(plane)
    return {
        "case_id": case.case_id,
        "models": [m.name for m in case.models],
        "staple": staple_diag,
        # STAPLE's domain: the grid's voxels, and those every model calls
        # background (code 0).
        "grid_voxels": n_voxels,
        "background_voxels": int(counts[0]) if keys[0] == 0 else 0,
        "et_threshold": cfg.et_threshold,
        "et_voxels_before": et_before,
        "et_voxels_after": et_after,
        "et_relabeled": et_after != et_before,
        "output": out_nii.name,
    }


def run_postprocess(input_nii, output_nii, et_threshold: int = DEFAULT_ET_THRESHOLD) -> dict:
    """Apply the ET threshold to the label map ``input_nii``, written to
    ``output_nii`` (which may be the same file): ``fuse`` of it as a
    one-model case, with no sidecar. Returns the diagnostics. A negative
    ``et_threshold`` is a ConfigError, raised before any file is opened."""
    out = Path(output_nii)
    models = (ModelInput("input", labelmap=Path(input_nii)),)
    # The config's case is "input": an output stem such as ".." is no case id.
    cfg = PipelineConfig((CaseInput("input", models),), out.parent, et_threshold)
    return _fuse_into(CaseInput(out.stem, models), cfg, out)


def _run_cases(worker, items, jobs: int):
    # Worker k of min(jobs, len(items)) forked children takes items[k::jobs]
    # and sends its results back pickled, once, through its own pipe; the
    # parent reads the pipes in worker order and puts each share back in
    # place, so the results are in item order whatever --jobs is. A worker's
    # exception is raised again here, from a RuntimeError holding the worker's
    # pid and traceback; a worker that ends without a result is a
    # RuntimeError. No child outlives this call: on any way out, each one
    # still running is killed and every one is reaped.
    jobs = min(jobs, len(items))
    if jobs <= 1 or not hasattr(os, "fork"):
        return [worker(i) for i in items]
    import gc
    import pickle
    import signal

    results = [None] * len(items)
    reads, pids, reaped = [], [], 0
    try:
        # Frozen objects are never scanned by a child's collector, so the
        # children do not copy the parent's heap page by page.
        gc.freeze()
        try:
            for k in range(jobs):
                r, w = os.pipe()
                reads.append(r)
                try:
                    pid = os.fork()
                    if pid == 0:
                        _case_worker(worker, items[k::jobs], w)
                finally:
                    os.close(w)
                pids.append(pid)
        finally:
            gc.unfreeze()
        for k, (r, pid) in enumerate(zip(reads, pids)):
            with open(r, "rb", closefd=False) as f:
                data = f.read()
            status = os.waitpid(pid, 0)[1]
            reaped += 1
            try:
                ok, value = pickle.loads(data)
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(
                    f"case worker {pid} ended without a result "
                    f"(exit status {os.waitstatus_to_exitcode(status)})") from None
            if not ok:
                error, text = value
                raise error from RuntimeError(f"case worker {pid} raised:\n{text}")
            results[k::jobs] = value
        return results
    finally:
        for r in reads:
            os.close(r)
        for pid in pids[reaped:]:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _case_worker(worker, items, w: int):
    """The body of a forked case worker: writes ``(True, results)``, or
    ``(False, (exception, its formatted traceback))``, pickled to the pipe
    end ``w``, and leaves the process (status 1 if that write failed)
    without returning."""
    import pickle
    import traceback

    status = 1
    try:
        try:
            result = (True, [worker(i) for i in items])
        except BaseException as e:
            result = (False, (e, traceback.format_exc()))
        with open(w, "wb", closefd=False) as f:
            f.write(pickle.dumps(result))
        status = 0
    finally:
        os._exit(status)


def _case_error(case_id: str, e: BratsFuseError | OSError) -> dict:
    return {"case_id": case_id, "error": type(e).__name__, "detail": error_text(e)}


def _write_errors(output_dir: Path, errors: list[dict]) -> None:
    """Write ``errors.json``, or remove one an earlier run left behind."""
    path = output_dir / "errors.json"
    if errors:
        _write_json(path, errors)
    else:
        path.unlink(missing_ok=True)


def _fuse_case(cfg: PipelineConfig, case: CaseInput):
    """Fuse one case of ``cfg``: ``(diagnostics, None)``, or ``(None,
    error)`` with the case's earlier outputs removed."""
    out = cfg.output_dir
    try:
        diag = _fuse_into(case, cfg, out / f"{case.case_id}.nii")
        _write_json(out / f"{case.case_id}_staple.json", diag)
        return diag, None
    except (BratsFuseError, OSError) as e:
        error = _case_error(case.case_id, e)
        # An earlier run's outputs for this case would otherwise be scored
        # as if this run had written them. A directory in an output's place
        # is no such output, and is left; an output that cannot be removed
        # is named in the case's error.
        for name in (f"{case.case_id}.nii", f"{case.case_id}_staple.json"):
            path = out / name
            try:
                if not path.is_dir():
                    path.unlink(missing_ok=True)
            except OSError as left:
                error["detail"] += f"; cannot remove the earlier {path}: {left.strerror}"
        return None, error


def run_fuse(cfg: PipelineConfig, jobs: int = 1) -> tuple[list[dict], list[dict]]:
    """Fuse every configured case; returns (diagnostics, errors), both sorted
    by case id.

    ``cfg`` was checked when built. An output (``<id>.nii``,
    ``<id>_staple.json``, ``fuse_manifest.json``, ``errors.json``) that is a
    model's label map, fold manifest or one of a manifest's channel files
    is a ConfigError before anything is written. Directory entries are
    compared, as ``os.replace`` replaces an entry. A manifest that cannot
    be read or parsed here is left to fail its own case. A case that fails
    is recorded in ``errors.json`` and left out of ``fuse_manifest.json``;
    the caller decides the exit status from the returned error list.
    """
    out = cfg.output_dir.resolve()
    outputs = {out / "fuse_manifest.json", out / "errors.json"}
    outputs.update(out / f"{c.case_id}{s}" for c in cfg.cases for s in (".nii", "_staple.json"))
    for m in (m for case in cfg.cases for m in case.models):
        inputs = [m.labelmap] if m.labelmap else list(m.prob_manifests)
        for manifest in m.prob_manifests:
            try:
                inputs += _channel_files(manifest)
            except BratsFuseError:
                pass
        for path in map(Path, inputs):
            if path.parent.resolve() / path.name in outputs:
                raise ConfigError(f"{path} is an input of model {m.name!r} and an output")
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    cases = sorted(cfg.cases, key=lambda c: c.case_id)
    results = _run_cases(partial(_fuse_case, cfg), cases, jobs)
    diags = [d for d, _ in results if d is not None]
    errors = [e for _, e in results if e is not None]
    _write_json(cfg.output_dir / "fuse_manifest.json", diags)
    _write_errors(cfg.output_dir, errors)
    return diags, errors


def _codes_box(blocks) -> np.ndarray:
    """The joint codes of ``blocks`` (as :func:`_read_blocks` keeps them) in
    the union of the blocks' rectangles, the box of the nonzero codes, as an
    ``[x, y, z]`` array; one code 0 if there are none."""
    corners = np.array([corner for corner, _ in blocks] or [(0, 0, 0)])
    sizes = np.array([(c.shape[1], c.shape[0], 1) for _, c in blocks] or [(1, 1, 1)])
    lo = corners.min(axis=0)
    shape = tuple((corners + sizes).max(axis=0) - lo)
    codes = joint_codes(2, math.prod(shape)).reshape(shape)
    for corner, block in blocks:
        x, y, z = np.subtract(corner, lo)
        codes[x : x + block.shape[1], y : y + block.shape[0], z] = block.T
    return codes


def _eval_case(penalty: float, case: CaseInput):
    """Score one pair, the prediction and ground-truth models of ``case``:
    ``(metrics, None)`` or ``(None, error)``."""
    try:
        grid, blocks = _read_blocks(case)
        return score_codes(_codes_box(blocks), grid.spacing, case.case_id, penalty), None
    except (BratsFuseError, OSError) as e:
        return None, _case_error(case.case_id, e)


def _case_files(directory: Path) -> dict[str, Path]:
    """Each stem in ``directory`` and its file: ``<stem>.nii``, or, if there
    is none, ``<stem>.nii.gz``."""
    files = {p.name.removesuffix(".nii.gz"): p for p in directory.glob("*.nii.gz")}
    files.update((p.stem, p) for p in directory.glob("*.nii"))
    return files


def run_eval(
    pred_dir,
    gt_dir,
    output_dir,
    jobs: int = 1,
    penalty: float = EMPTY_PENALTY_MM,
) -> tuple[list[CaseMetrics], list[dict]]:
    """Evaluate predictions against ground truth paired by filename stem
    (each side's ``<stem>.nii``, or, if there is none, ``<stem>.nii.gz``).

    Each pair is read plane by plane through ``_read_blocks`` and scored
    from its joint codes inside the box of their tumour
    (``metrics.score_codes``; no label map is rebuilt, see the module
    docstring), so a case holds memory by its tumour, not by its grid.
    Unpaired files and per-case failures (a gzip file is read, and refused
    by ``nifti.PlaneReader``) are recorded (not fatal) and the affected
    cases skipped; the caller decides the exit status from the returned
    error list. With no case scored, an earlier run's summary is removed. A
    ``penalty`` that is negative or not finite, or two directories with no
    ``*.nii`` file between them, is a ConfigError, raised before the output
    directory is made.
    """
    if not 0.0 <= penalty < math.inf:
        raise ConfigError(f"hd95 penalty must be finite and nonnegative, got {penalty}")
    pred_dir, gt_dir, output_dir = Path(pred_dir), Path(gt_dir), Path(output_dir)
    pred, gt = _case_files(pred_dir), _case_files(gt_dir)
    if all(p.suffix == ".gz" for p in (*pred.values(), *gt.values())):
        raise ConfigError(f"no .nii file in {pred_dir} or {gt_dir} (only *.nii is read)")
    output_dir.mkdir(parents=True, exist_ok=True)
    errors = []
    for s in sorted(pred.keys() ^ gt.keys()):
        have, missing, path = (("prediction", "ground truth", pred[s]) if s in pred
                               else ("ground truth", "prediction", gt[s]))
        errors.append(_case_error(s, UnpairedCase(f"no {missing} for {have} {path.name}")))
    paired = [CaseInput(s, (ModelInput("pred", labelmap=pred[s]), ModelInput("gt", labelmap=gt[s])))
              for s in sorted(pred.keys() & gt.keys())]
    results = _run_cases(partial(_eval_case, penalty), paired, jobs)
    cases = [m for m, _ in results if m is not None]
    errors.extend(e for _, e in results if e is not None)
    errors.sort(key=lambda e: e["case_id"])

    _write_csv(output_dir / "cases.csv",
               [metrics_csv_header()] + [metrics_csv_row(c) for c in cases])
    _write_json(output_dir / "cases.json", [asdict(c) for c in cases])
    if cases:
        write_summary_outputs(cases, output_dir)
    else:
        for name in ("summary.json", "summary.txt"):
            (output_dir / name).unlink(missing_ok=True)
    _write_errors(output_dir, errors)
    return cases, errors


def write_summary_outputs(cases: list[CaseMetrics], output_dir) -> None:
    """Emit summary.json and the text table for a set of case metrics."""
    output_dir = Path(output_dir)
    summary = summarize(cases)
    _write_json(output_dir / "summary.json", summary)
    _write_text(output_dir / "summary.txt", format_summary_table(summary))


def read_cases_csv(path, id_column: str = "case_id", what: str = "metrics") -> list[CaseMetrics]:
    """The rows of a scores CSV (``<id_column>,DSC_ET,…,HD95_WT``: ``eval``'s
    ``cases.csv``, or ``rank``'s table, each ``case_id`` a model name), read
    as UTF-8 text after a byte-order mark, if any (spreadsheets save one).
    Text not UTF-8, a missing column, a row longer than the header, an empty
    or repeated id, a row ``CaseMetrics`` refuses, or no rows: a ConfigError."""
    columns = [id_column, *metrics_csv_header()[1:]]
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or columns  # None: an empty file
            rows = list(reader)
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path} is not UTF-8 text: {e}") from e
    for column in columns:
        if column not in header:
            raise ConfigError(f"{path}: no column {column!r}")
    cases, seen, noun = [], set(), id_column.removesuffix("_id")
    for row in rows:
        try:
            name = row[id_column]
            if None in row or not name:  # DictReader files extra fields under None
                raise ValueError("more fields than the header" if name else f"an empty {noun} id")
            dsc, hd95 = ({r: float(row[f"{m}_{r}"]) for r in REGION_ORDER}
                         for m in ("DSC", "HD95"))
            cases.append(CaseMetrics(name, dsc, hd95))
            if name in seen:
                raise ValueError(f"{noun} {name!r} is named by an earlier row")
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad {what} row {row}: {e}") from e
        seen.add(name)
    if not cases:
        raise ConfigError(f"no {noun} rows in {path}")
    return cases


def run_rank(summary_csv, output_dir) -> str:
    """Rank models from a per-model CSV (columns model,DSC_*,HD95_*, read as
    ``CaseMetrics`` rows whose ``case_id`` is the model name); writes
    JSON/CSV and returns the text table it writes."""
    ranked = rank_models(read_cases_csv(summary_csv, "model", "model summary"))
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    rows = [(m.case_id, rank) for rank, m in enumerate(ranked, 1)]
    _write_text(output_dir / "ranking.json", json.dumps(
        [{"name": n, "rank": r} for n, r in rows], sort_keys=True) + "\n")
    _write_csv(output_dir / "ranking.csv", [("model", "rank"), *rows])
    table = format_ranking_table(ranked)
    _write_text(output_dir / "ranking.txt", table)
    return table
