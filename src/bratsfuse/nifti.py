"""Single-file NIfTI-1 reading and writing, plus probability-map manifests.

Only uncompressed little-endian ``.nii`` with magic ``n+1`` is supported;
gzip streams, big-endian files, and NIfTI-2 are rejected with a clear error.
Geometry handling is deliberately minimal: spacing comes from ``pixdim``,
the world offset from ``qoffset_*``, and any rotation encoded in the
qform/sform is ignored (the data this toolkit targets is co-registered).

Writing uses float32 for :class:`~bratsfuse.volume.Volume` and uint8 for
:class:`~bratsfuse.volume.LabelMap`, with ``vox_offset`` 352 and data in
x-fastest order, so ``read(write(v))`` reproduces shape, spacing, and data
bit-exactly for the supported dtypes.

Probability maps do not fit in a 3-D file; they serialize as one NIfTI per
channel plus a JSON manifest ``{"channels": [0, 1, 2, 4], "files": [...]}``.
:class:`ProbmapFiles` opens a map's four channel files and parses and
checks their headers once; its ``decode`` then reads a range of whole
z-planes (in x-fastest order one contiguous byte range of each file) into
buffers the caller owns and reuses, renormalises them into a float64
buffer and checks the result, so a map can be read slab by slab without a
header parse or a fresh array per slab. :func:`load_probmap` and
:func:`load_probmap_header` are that same path for one call.
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import ExitStack
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    BadData,
    BadHeader,
    BadMagic,
    ConfigError,
    TruncatedFile,
    UnsupportedDtype,
    UnsupportedEncoding,
)
from .volume import (
    LabelMap,
    ProbMap,
    Volume,
    _check_probs,
    _shift_origin,
    require_same_geometry,
)

__all__ = [
    "read_nifti",
    "read_labelmap",
    "write_nifti",
    "load_volume",
    "load_labelmap",
    "save_nifti",
    "save_probmap",
    "load_probmap",
    "load_probmap_header",
    "ProbmapFiles",
    "Header",
]

HEADER_SIZE = 348
VOX_OFFSET = 352
MAGIC = b"n+1\x00"

_DTYPES = {2: np.dtype("<u1"), 4: np.dtype("<i2"), 16: np.dtype("<f4")}
_BITPIX = {2: 8, 4: 16, 16: 32}
_GZIP_MAGIC = b"\x1f\x8b"


class Header(NamedTuple):
    """The fields of a NIfTI-1 header this module uses; ``offset`` is the
    byte offset of the voxel data (``vox_offset``)."""

    shape: tuple[int, int, int]
    spacing: tuple[float, float, float]
    origin: tuple[float, float, float]
    dtype: np.dtype
    offset: int

    @property
    def data_end(self) -> int:
        return self.offset + int(np.prod(self.shape)) * self.dtype.itemsize


def _parse_header(raw: bytes) -> Header:
    if raw[:2] == _GZIP_MAGIC:
        raise UnsupportedEncoding(
            "gzip-compressed input; decompress to a plain .nii first"
        )
    if len(raw) < HEADER_SIZE:
        raise TruncatedFile(f"need {HEADER_SIZE} header bytes, got {len(raw)}")
    (sizeof_hdr,) = struct.unpack_from("<i", raw, 0)
    if sizeof_hdr != HEADER_SIZE:
        (be_size,) = struct.unpack_from(">i", raw, 0)
        if sizeof_hdr == 540 or be_size == 540:
            raise UnsupportedEncoding("NIfTI-2 is not supported")
        if be_size == HEADER_SIZE:
            raise UnsupportedEncoding("big-endian NIfTI-1 is not supported")
        raise BadMagic(f"not a NIfTI-1 file (sizeof_hdr={sizeof_hdr})")
    magic = raw[344:348]
    if magic != MAGIC:
        raise BadMagic(f"expected magic {MAGIC!r}, got {magic!r}")
    dim = struct.unpack_from("<8h", raw, 40)
    if dim[0] != 3:
        raise BadHeader(f"only 3-D images are supported, got dim[0]={dim[0]}")
    shape = tuple(int(n) for n in dim[1:4])
    if any(n <= 0 for n in shape):
        raise BadHeader(f"non-positive dimensions {shape}")
    (datatype,) = struct.unpack_from("<h", raw, 70)
    if datatype not in _DTYPES:
        raise UnsupportedDtype(
            f"datatype code {datatype} (supported: uint8=2, int16=4, float32=16)"
        )
    (bitpix,) = struct.unpack_from("<h", raw, 72)
    if bitpix != _BITPIX[datatype]:
        raise BadHeader(f"bitpix {bitpix} inconsistent with datatype {datatype}")
    pixdim = struct.unpack_from("<8f", raw, 76)
    spacing = tuple(float(p) for p in pixdim[1:4])
    if any(not np.isfinite(s) or s <= 0 for s in spacing):
        raise BadHeader(f"non-positive pixdim {spacing}")
    (vox_offset,) = struct.unpack_from("<f", raw, 108)
    if not np.isfinite(vox_offset):
        raise BadHeader(f"vox_offset must be finite, got {vox_offset}")
    offset = int(vox_offset)
    if vox_offset != offset or offset < VOX_OFFSET:
        raise BadHeader(f"vox_offset must be an integer >= {VOX_OFFSET}, got {vox_offset}")
    # NIfTI-1 reads scl_slope 0 as "unscaled"; any other scaling would change
    # the stored values (labels, probabilities), so it is refused, not applied.
    scl_slope, scl_inter = struct.unpack_from("<2f", raw, 112)
    if scl_slope not in (0.0, 1.0) or (scl_slope != 0.0 and scl_inter != 0.0):
        raise UnsupportedEncoding(
            f"intensity scaling scl_slope={scl_slope} scl_inter={scl_inter} "
            "is not supported (only unscaled data)"
        )
    origin = tuple(float(q) for q in struct.unpack_from("<3f", raw, 268))
    return Header(shape, spacing, origin, _DTYPES[datatype], offset)


def read_nifti(raw: bytes) -> Volume:
    """Parse an uncompressed single-file NIfTI-1 byte stream into a Volume."""
    hdr = _parse_header(raw)
    if len(raw) < hdr.data_end:
        raise TruncatedFile(f"need {hdr.data_end} bytes of data, got {len(raw)}")
    data = np.frombuffer(
        raw, dtype=hdr.dtype, count=int(np.prod(hdr.shape)), offset=hdr.offset
    )
    try:
        return Volume(data.reshape(hdr.shape, order="F"), hdr.spacing, hdr.origin)
    except ValueError as e:
        raise BadData(str(e)) from e


def read_labelmap(raw: bytes) -> LabelMap:
    """Like :func:`read_nifti`, validating voxel values as BraTS labels."""
    v = read_nifti(raw)
    return LabelMap(v.data, v.spacing, v.origin)


def write_nifti(v: Volume | LabelMap) -> bytes:
    """Serialize to NIfTI-1: float32 for Volume, uint8 for LabelMap."""
    if isinstance(v, LabelMap):
        datatype = 2
        payload = v.data.astype("<u1", copy=False)
    else:
        datatype = 16
        payload = v.data.astype("<f4", copy=False)
    nx, ny, nz = v.shape
    sx, sy, sz = v.spacing
    ox, oy, oz = v.origin
    hdr = bytearray(HEADER_SIZE)
    struct.pack_into("<i", hdr, 0, HEADER_SIZE)
    struct.pack_into("<c", hdr, 38, b"r")
    struct.pack_into("<8h", hdr, 40, 3, nx, ny, nz, 1, 1, 1, 1)
    struct.pack_into("<2h", hdr, 70, datatype, _BITPIX[datatype])
    struct.pack_into("<8f", hdr, 76, 1.0, sx, sy, sz, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<f", hdr, 108, float(VOX_OFFSET))
    struct.pack_into("<f", hdr, 112, 1.0)  # scl_slope
    hdr[123] = 2  # spatial units: millimetres
    descrip = b"bratsfuse"
    hdr[148 : 148 + len(descrip)] = descrip
    struct.pack_into("<2h", hdr, 252, 1, 1)  # qform_code, sform_code
    struct.pack_into("<3f", hdr, 256, 0.0, 0.0, 0.0)  # identity quaternion
    struct.pack_into("<3f", hdr, 268, ox, oy, oz)
    struct.pack_into("<4f", hdr, 280, sx, 0.0, 0.0, ox)
    struct.pack_into("<4f", hdr, 296, 0.0, sy, 0.0, oy)
    struct.pack_into("<4f", hdr, 312, 0.0, 0.0, sz, oz)
    hdr[344:348] = MAGIC
    # Four zero bytes: no header extensions; data starts at vox_offset 352.
    return bytes(hdr) + b"\x00\x00\x00\x00" + payload.tobytes(order="F")


def load_volume(path) -> Volume:
    return read_nifti(Path(path).read_bytes())


def load_labelmap(path) -> LabelMap:
    return read_labelmap(Path(path).read_bytes())


def save_nifti(path, v: Volume | LabelMap) -> Path:
    path = Path(path)
    path.write_bytes(write_nifti(v))
    return path


def save_probmap(pm: ProbMap, directory, stem: str) -> Path:
    """Write one float32 NIfTI per channel plus ``<stem>.json`` manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files = []
    for i, label in enumerate(pm.channels):
        name = f"{stem}_ch{label}.nii"
        save_nifti(directory / name, Volume(pm.data[i], pm.spacing, pm.origin))
        files.append(name)
    manifest = directory / f"{stem}.json"
    manifest.write_text(
        json.dumps({"channels": list(pm.channels), "files": files}, sort_keys=True)
    )
    return manifest


def _channel_files(manifest_path: Path) -> list[Path]:
    try:
        meta = json.loads(manifest_path.read_text())
    except OSError as e:
        raise ConfigError(f"cannot read manifest {manifest_path}: {e.strerror}") from e
    except ValueError as e:  # not JSON, or not UTF-8 text
        raise BadHeader(f"{manifest_path}: not a JSON manifest ({e})") from e
    if not isinstance(meta, dict):
        raise BadHeader(f"{manifest_path}: manifest must be a JSON object")
    channels = meta.get("channels")
    if not isinstance(channels, list) or tuple(channels) != ProbMap.channels:
        raise BadHeader(
            f"{manifest_path}: manifest channels must be {list(ProbMap.channels)}, "
            f"got {channels}"
        )
    files = meta.get("files", [])
    if not isinstance(files, list) or len(files) != len(ProbMap.channels):
        raise BadHeader(f"{manifest_path}: manifest must list 4 files, got {files!r}")
    if not all(isinstance(f, str) for f in files):
        raise BadHeader(f"{manifest_path}: manifest files must be names, got {files!r}")
    return [manifest_path.parent / f for f in files]


def _read_header(fh) -> Header:
    """Header of an open NIfTI file, checked to be followed by all its voxels."""
    hdr = _parse_header(fh.read(HEADER_SIZE))
    size = os.fstat(fh.fileno()).st_size
    if size < hdr.data_end:
        raise TruncatedFile(f"{fh.name}: need {hdr.data_end} bytes of data, got {size}")
    return hdr


class ProbmapFiles:
    """The open channel files of a probability map, checked once.

    Opening reads the manifest and the four channel headers, checks that each
    file holds all its voxels and that the four grids agree; :meth:`decode`
    then reads any range of z-planes without parsing or checking the headers
    again. Use it as a context manager (or call :meth:`close`).
    """

    def __init__(self, manifest_path):
        self.manifest = Path(manifest_path)
        paths = _channel_files(self.manifest)
        with ExitStack() as stack:
            self._files = []
            for path in paths:
                try:
                    self._files.append(stack.enter_context(open(path, "rb")))
                except OSError as e:
                    raise ConfigError(
                        f"{self.manifest}: cannot open channel file {path}: {e.strerror}"
                    ) from e
            self._headers = [_read_header(fh) for fh in self._files]
            require_same_geometry(*self._headers)
            self._stack = stack.pop_all()
        self.header = self._headers[0]

    def close(self) -> None:
        self._stack.close()

    def __enter__(self) -> "ProbmapFiles":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def decode(self, z0: int, z1: int, raw: np.ndarray, out: np.ndarray,
               sums: np.ndarray) -> np.ndarray:
        """Planes ``z0:z1`` renormalised into ``out``, which is returned.

        ``out`` is float64 ``(4, n)`` for the ``n`` voxels of those planes,
        each channel in x-fastest order. ``raw`` (float32, at least
        ``(4, n)``) receives the stored values and ``sums`` (float64,
        ``(n,)``) the channel sums; both are scratch. The sums are taken in
        float64 in channel order, each channel is divided by them and
        clipped to [0, 1]. A non-finite channel, a voxel whose channels sum
        to 0, and renormalised channels outside [0, 1] or whose sum is off 1
        by more than 1e-6 are ``BadData`` naming the manifest.
        """
        nx, ny, _ = self.header.shape
        n = nx * ny * (z1 - z0)
        channels = []
        for fh, hdr, row in zip(self._files, self._headers, raw):
            # Every supported dtype is at most 4 bytes wide, so a float32 row
            # holds n voxels of any of them.
            data = row.view(np.uint8)[: n * hdr.dtype.itemsize].view(hdr.dtype)
            fh.seek(hdr.offset + nx * ny * hdr.dtype.itemsize * z0)
            if fh.readinto(data) != data.nbytes:
                raise TruncatedFile(f"{fh.name}: ends inside planes {z0}:{z1}")
            channels.append(data)
        np.add(channels[0], channels[1], out=sums, dtype=np.float64)
        for data in channels[2:]:
            sums += data
        # Four finite float32 or integer values cannot sum to +-inf in
        # float64, and min and max propagate NaN: this finds every voxel
        # with a NaN or infinite channel.
        if not (np.isfinite(sums.min()) and np.isfinite(sums.max())):
            raise BadData(f"{self.manifest}: probability data contains NaN or Inf")
        if not sums.all():
            raise BadData(f"{self.manifest}: a voxel's four channels sum to 0")
        for data, probs in zip(channels, out):
            np.divide(data, sums, out=probs)
        # float32 storage can nudge channel sums off 1 by a few ulp.
        np.clip(out, 0.0, 1.0, out=out)
        try:
            _check_probs(out, sums)
        except ValueError as e:
            raise BadData(f"{self.manifest}: {e}") from e
        return out


def load_probmap_header(manifest_path) -> Header:
    """Header of a probability map's channel files, read without their voxels.

    Raises as :func:`load_probmap` would for a manifest, header, short file
    or channel files that disagree in geometry; ``dtype`` and ``offset`` are
    those of the first channel file.
    """
    with ProbmapFiles(manifest_path) as files:
        return files.header


def load_probmap(manifest_path, planes: slice = slice(None)) -> ProbMap:
    """Read a per-channel manifest written by :func:`save_probmap`.

    ``planes`` (step 1, not empty) selects a range of z-planes; only those
    planes of each channel file are read, and the result's origin is shifted
    by ``z0 * spacing[2]`` as :func:`~bratsfuse.volume.crop` would shift it.
    The default reads the whole map. The full grid of every channel file is
    checked either way, and the planes are decoded by
    :meth:`ProbmapFiles.decode`, whose ``BadData`` checks apply.
    """
    with ProbmapFiles(manifest_path) as files:
        nx, ny, nz = files.header.shape
        z0, z1, step = planes.indices(nz)
        if step != 1 or z1 <= z0:
            raise ValueError(f"planes must be a non-empty range with step 1, got {planes}")
        n = nx * ny * (z1 - z0)
        data = files.decode(z0, z1, np.empty((4, n), np.float32), np.empty((4, n)),
                            np.empty(n))
    spacing = files.header.spacing
    origin = _shift_origin(files.header.origin, spacing, (0, 0, z0))
    # Each channel row is x-fastest: view it as (nx, ny, nz) without a copy.
    return ProbMap(data.reshape(4, z1 - z0, ny, nx).transpose(0, 3, 2, 1), spacing, origin)
