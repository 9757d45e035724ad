"""Single-file NIfTI-1 reading and writing, plus probability-map manifests.

Only uncompressed little-endian ``.nii`` with magic ``n+1`` is supported;
gzip streams, big-endian files, and NIfTI-2 are rejected with a clear error.
Geometry handling is deliberately minimal: spacing comes from ``pixdim``,
the world offset from ``qoffset_*``, and any rotation encoded in the
qform/sform is ignored (the data this toolkit targets is co-registered).

Every file is read through :class:`PlaneReader`, which opens it (one that
cannot be opened is a ``ConfigError``), parses and checks its header and its
size once, naming the file in any refusal, and then reads any voxel range with
``readinto`` into a buffer the caller owns and reuses. The body of a file is
x-fastest, so any range of voxels ``start:stop`` in that order is one
contiguous byte range, and the voxels of planes ``z0:z1`` are the range
``nx*ny*z0 : nx*ny*z1``. :func:`read_label_planes` checks such a range as
BraTS labels; :func:`load_volume` and :func:`load_labelmap` read a whole
file as one range.

:func:`_write_nifti` writes a uint8 or float32 array (a
:class:`~bratsfuse.volume.LabelMap`'s labels, or a probability map's
channel), with ``vox_offset`` 352 and data in x-fastest order, so loading a
saved file reproduces shape, spacing, and data bit-exactly for the supported
dtypes. :func:`header_bytes` builds the 352 bytes before the voxels, so a
writer can stream a label body after it plane by plane and get the bytes
:func:`save_nifti` would. Every file this package writes goes through
:func:`_write_atomic`: a temporary file in the same directory, moved onto
its name with ``os.replace``, so a failed or interrupted write leaves the
earlier file, if any, under that name.

Probability maps do not fit in a 3-D file; they serialize as one NIfTI per
channel plus a JSON manifest ``{"channels": [0, 1, 2, 4], "files": [...]}``.
:class:`ProbmapFiles` is a map's four channel readers, whose grids it
checks to agree. Decoding a voxel range is two steps: ``read_channel``
gives one channel's stored values as a view, in its file's dtype, over a
caller's buffer, and ``renormalise`` sums the four channels, or any
same-shaped views of them, in float64 and divides them by their sums into
float64 rows, clipping and checking the rows only when a stored channel is
negative, the one case in which either can change or refuse a value. So a
map can be read a range at a time without a header parse or a fresh array
per range, and a caller can look at the stored values before any
arithmetic, as a fold model of ``pipeline`` does.
:func:`load_probmap` does both steps on a whole map; a map's header alone
is ``ProbmapFiles(m).header``.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    BadData,
    BadHeader,
    BadMagic,
    ConfigError,
    InvalidLabel,
    NiftiError,
    TruncatedFile,
    UnsupportedDtype,
    UnsupportedEncoding,
)
from .volume import LabelMap, ProbMap, _check_labels, _check_sums, require_same_geometry

__all__ = [
    "load_volume",
    "load_labelmap",
    "save_nifti",
    "save_probmap",
    "load_probmap",
    "ProbmapFiles",
    "PlaneReader",
    "read_label_planes",
    "header_bytes",
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
    if not all(np.isfinite(origin)):
        raise BadData(f"origin must be finite, got {origin}")
    return Header(shape, spacing, origin, _DTYPES[datatype], offset)


def header_bytes(shape, spacing, origin, dtype) -> bytes:
    """The 352 bytes before the voxels of a NIfTI-1 file of ``shape``,
    ``spacing`` and ``origin`` holding ``dtype`` (uint8 or float32) voxels:
    the header and four zero bytes (no extensions)."""
    datatype = {np.dtype("<u1"): 2, np.dtype("<f4"): 16}[np.dtype(dtype)]
    nx, ny, nz = shape
    sx, sy, sz = spacing
    ox, oy, oz = origin
    hdr = bytearray(VOX_OFFSET)
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
    return bytes(hdr)


@contextmanager
def _write_atomic(path: Path):
    """A binary file that becomes ``path`` when the block ends.

    It is written as a temporary file in the same directory and moved onto
    ``path`` with ``os.replace``; if the block raises, it is removed and
    ``path`` is left as it was. An ``OSError`` about the temporary file
    (its directory is missing, ``path`` is a directory, ...) names ``path``.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as e:
        if e.filename != str(tmp):
            raise
        raise OSError(e.errno, e.strerror, str(path)) from e
    finally:
        tmp.unlink(missing_ok=True)


def _write_text(path: Path, text: str) -> None:
    with _write_atomic(path) as fh:
        fh.write(text.encode())


def _write_nifti(path, data: np.ndarray, spacing, origin) -> Path:
    """Write the 3-D uint8 or float32 ``data`` to ``path``: the header
    :func:`header_bytes` builds, then the voxels x-fastest."""
    path = Path(path)
    with _write_atomic(path) as fh:
        fh.write(header_bytes(data.shape, spacing, origin, data.dtype))
        fh.write(data.ravel(order="F"))
    return path


def save_nifti(path, m: LabelMap) -> Path:
    """Write ``m`` to ``path`` as uint8 voxels (:func:`_write_nifti`)."""
    return _write_nifti(path, m.data, m.spacing, m.origin)


def save_probmap(pm: ProbMap, directory, stem: str) -> Path:
    """Write one float32 NIfTI per channel plus ``<stem>.json`` manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files = []
    for i, label in enumerate(pm.channels):
        name = f"{stem}_ch{label}.nii"
        _write_nifti(directory / name, pm.data[i].astype("<f4"), pm.spacing, pm.origin)
        files.append(name)
    manifest = directory / f"{stem}.json"
    _write_text(manifest, json.dumps({"channels": list(pm.channels), "files": files},
                                     sort_keys=True))
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


class PlaneReader:
    """One open NIfTI file whose header and size are checked once.

    Opening parses the header and checks that the file holds all the
    voxels it declares; :meth:`read` then reads any range of voxels
    without parsing or checking the header again. Use it as a context
    manager (or call :meth:`close`). A file that cannot be opened is a
    ``ConfigError`` naming it, and a bad header (gzip included) or size a
    :class:`~bratsfuse.errors.NiftiError` naming it.
    """

    def __init__(self, path):
        self.path = Path(path)
        try:
            self._fh = open(self.path, "rb")
        except OSError as e:
            raise ConfigError(f"cannot open {self.path}: {e.strerror}") from e
        try:
            self.header = _parse_header(self._fh.read(HEADER_SIZE))
            size = os.fstat(self._fh.fileno()).st_size
            if size < self.header.data_end:
                raise TruncatedFile(f"need {self.header.data_end} bytes of data, got {size}")
        except NiftiError as e:
            self._fh.close()
            raise type(e)(f"{self.path}: {e}") from e
        except BaseException:
            self._fh.close()
            raise

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "PlaneReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def read(self, start: int, stop: int, buf: np.ndarray) -> np.ndarray:
        """The stored voxels ``start:stop`` of the x-fastest body, as a 1-D
        array of the file's dtype over the first bytes of ``buf``.

        ``buf`` is any C-contiguous array of at least that many bytes
        (``ValueError`` if it is smaller); the result is a view of it. A
        file that has shrunk since it was opened is ``TruncatedFile``.
        """
        dtype = self.header.dtype
        data = buf.reshape(-1).view(np.uint8)[: (stop - start) * dtype.itemsize].view(dtype)
        if data.size != stop - start:
            raise ValueError(f"a buffer of {buf.nbytes} bytes cannot hold voxels {start}:{stop}")
        self._fh.seek(self.header.offset + start * dtype.itemsize)
        if self._fh.readinto(data) != data.nbytes:
            raise TruncatedFile(f"{self.path}: ends inside voxels {start}:{stop}")
        return data


def _check_finite(f: PlaneReader, data: np.ndarray) -> None:
    """Raise BadData naming ``f`` if floating-point ``data`` holds NaN or Inf."""
    if np.issubdtype(data.dtype, np.floating) and not np.isfinite(data).all():
        raise BadData(f"{f.path}: volume data contains NaN or Inf")


def read_label_planes(f: PlaneReader, start: int, stop: int,
                      buf: np.ndarray) -> np.ndarray:
    """Voxels ``start:stop`` of a label file read into ``buf`` (see
    :meth:`PlaneReader.read`), checked as BraTS labels: a NaN or infinite
    voxel is ``BadData``, any other value outside {0, 1, 2, 4}
    ``InvalidLabel`` listing the offending values, both naming the file."""
    data = f.read(start, stop, buf)
    _check_finite(f, data)
    try:
        _check_labels(data)
    except InvalidLabel as e:
        raise InvalidLabel(f"{f.path}: {e}") from e
    return data


def _whole(f: PlaneReader, read) -> np.ndarray:
    """Every voxel of ``f`` by ``read`` (:meth:`PlaneReader.read` or
    :func:`read_label_planes`), shaped as its grid."""
    n = math.prod(f.header.shape)
    return read(f, 0, n, np.empty(n, f.header.dtype)).reshape(f.header.shape, order="F")


def load_volume(path) -> tuple[np.ndarray, Header]:
    """The stored voxels of file ``path``, in its dtype and shaped as its
    grid, and its header; a NaN or infinite voxel is BadData naming the file."""
    with PlaneReader(path) as f:
        data = _whole(f, PlaneReader.read)
    _check_finite(f, data)
    return data, f.header


def load_labelmap(path) -> LabelMap:
    """The label map in file ``path``, checked by :func:`read_label_planes`."""
    with PlaneReader(path) as f:
        return LabelMap(_whole(f, read_label_planes), f.header.spacing, f.header.origin)


class ProbmapFiles:
    """The channel files of a probability map, each a :class:`PlaneReader`.

    Opening reads the manifest and opens the four channel readers, which
    check their headers and sizes, and checks that the four grids agree;
    :meth:`read_channel` then reads any range of voxels of a channel
    without parsing or checking the headers again. Use it as a context
    manager (or call :meth:`close`).
    """

    def __init__(self, manifest_path):
        self.manifest = Path(manifest_path)
        paths = _channel_files(self.manifest)
        with ExitStack() as stack:
            self._files = [stack.enter_context(PlaneReader(path)) for path in paths]
            require_same_geometry(*(f.header for f in self._files), names=paths)
            self._stack = stack.pop_all()
        self.header = self._files[0].header

    def close(self) -> None:
        self._stack.close()

    def __enter__(self) -> "ProbmapFiles":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def read_channel(self, c: int, start: int, stop: int, buf: np.ndarray) -> np.ndarray:
        """The stored values of voxels ``start:stop`` (x-fastest) of channel
        ``c`` (0 to 3, in channel order), unchecked: the view of ``buf`` in
        its file's dtype that :meth:`PlaneReader.read` returns. A buffer of
        ``stop - start`` 4-byte values holds any channel: every supported
        dtype is at most 4 bytes wide."""
        return self._files[c].read(start, stop, buf)

    def renormalise(self, channels, out: np.ndarray, sums: np.ndarray) -> np.ndarray:
        """The four stored ``channels`` of ``n`` voxels, in channel order (as
        :meth:`read_channel` returns them, or views of them of any one shape
        with ``n`` elements, such as some columns of whole rows)
        renormalised into ``out``, which is returned.

        ``out`` is float64 ``(4, n)``, one row per channel, and ``sums``
        (float64, ``(n,)``) receives the channel sums. The channels are cast
        to float64 inside the sum and the divide (exact: every supported
        dtype is a subset of float64), summed in channel order, divided by
        the sums into their rows of ``out`` in C order and clipped to
        [0, 1]. A non-finite channel, a voxel whose channels sum to 0, and
        renormalised channels outside [0, 1] or whose sum is off 1 by more
        than 1e-6 are ``BadData`` naming the manifest.

        The clip and the sum check run only when a stored channel is
        negative. With every stored value >= 0, each channel x is at most
        its voxel's float64 sum S (rounding is monotone, and S is finite
        and positive once the checks before the divide pass), so x / S
        rounds into [0, 1]: the clip would change no value (it keeps -0.0,
        too). The four quotients then sum to 1 within a few ulp, far inside
        1e-6, so the check cannot refuse the voxel.
        """
        shape = channels[0].shape
        total = sums.reshape(shape)
        np.add(channels[0], channels[1], out=total, dtype=np.float64)
        total += channels[2]
        total += channels[3]
        # Four finite float32 or integer values cannot sum to +-inf in
        # float64, and min and max propagate NaN: this finds every voxel
        # with a NaN or infinite channel.
        if not (np.isfinite(sums.min()) and np.isfinite(sums.max())):
            raise BadData(f"{self.manifest}: probability data contains NaN or Inf")
        if not sums.all():
            raise BadData(f"{self.manifest}: a voxel's four channels sum to 0")
        for channel, row in zip(channels, out):
            np.divide(channel, total, out=row.reshape(shape))
        if min(c.min() for c in channels) < 0:
            # The clip does not move channel sums back to 1, so the check
            # refuses a voxel whose clipped channels sum off 1. Only the
            # sums need checking: the clip bounds every value, and NaN was
            # refused above.
            np.clip(out, 0.0, 1.0, out=out)
            try:
                _check_sums(out, sums)
            except ValueError as e:
                raise BadData(f"{self.manifest}: {e}") from e
        return out


def load_probmap(manifest_path) -> ProbMap:
    """Read a per-channel manifest written by :func:`save_probmap`.

    The whole map is one voxel range, each channel read by
    :meth:`ProbmapFiles.read_channel` into its row of one block and
    renormalised by :meth:`ProbmapFiles.renormalise`, whose ``BadData``
    checks apply.
    """
    with ProbmapFiles(manifest_path) as files:
        nx, ny, nz = files.header.shape
        n = nx * ny * nz
        block = np.empty((4, n), np.float32)
        stored = [files.read_channel(c, 0, n, row) for c, row in enumerate(block)]
        data = files.renormalise(stored, np.empty((4, n)), np.empty(n))
    # Each channel row is x-fastest: view it as (nx, ny, nz) without a copy.
    return ProbMap(data.reshape(4, nz, ny, nx).transpose(0, 3, 2, 1),
                   files.header.spacing, files.header.origin)
