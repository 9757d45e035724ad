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
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import (
    BadData,
    BadHeader,
    BadMagic,
    TruncatedFile,
    UnsupportedDtype,
    UnsupportedEncoding,
)
from .volume import LabelMap, ProbMap, Volume, require_same_geometry

__all__ = [
    "read_nifti",
    "read_labelmap",
    "write_nifti",
    "load_volume",
    "load_labelmap",
    "save_nifti",
    "save_probmap",
    "load_probmap",
]

HEADER_SIZE = 348
VOX_OFFSET = 352
MAGIC = b"n+1\x00"

_DTYPES = {2: np.dtype("<u1"), 4: np.dtype("<i2"), 16: np.dtype("<f4")}
_BITPIX = {2: 8, 4: 16, 16: 32}
_GZIP_MAGIC = b"\x1f\x8b"


def _parse_header(raw: bytes):
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
    offset = int(vox_offset)
    if vox_offset != offset or offset < VOX_OFFSET:
        raise BadHeader(f"vox_offset must be an integer >= {VOX_OFFSET}, got {vox_offset}")
    origin = tuple(float(q) for q in struct.unpack_from("<3f", raw, 268))
    return shape, spacing, origin, _DTYPES[datatype], offset


def read_nifti(raw: bytes) -> Volume:
    """Parse an uncompressed single-file NIfTI-1 byte stream into a Volume."""
    shape, spacing, origin, dtype, offset = _parse_header(raw)
    count = int(np.prod(shape))
    need = offset + count * dtype.itemsize
    if len(raw) < need:
        raise TruncatedFile(f"need {need} bytes of data, got {len(raw)}")
    data = np.frombuffer(raw, dtype=dtype, count=count, offset=offset)
    try:
        return Volume(data.reshape(shape, order="F"), spacing, origin)
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


def load_probmap(manifest_path) -> ProbMap:
    """Read a per-channel manifest written by :func:`save_probmap`."""
    manifest_path = Path(manifest_path)
    meta = json.loads(manifest_path.read_text())
    channels = meta.get("channels")
    if tuple(channels or ()) != ProbMap.channels:
        raise BadHeader(
            f"manifest channels must be {list(ProbMap.channels)}, got {channels}"
        )
    files = meta.get("files", [])
    if len(files) != len(ProbMap.channels):
        raise BadHeader(f"manifest must list 4 files, got {len(files)}")
    vols = [load_volume(manifest_path.parent / f) for f in files]
    require_same_geometry(*vols)
    data = np.stack([v.data for v in vols]).astype(np.float64)
    # float32 storage can nudge channel sums off 1 by a few ulp; renormalize.
    data /= data.sum(axis=0, keepdims=True)
    return ProbMap(np.clip(data, 0.0, 1.0), vols[0].spacing, vols[0].origin)
