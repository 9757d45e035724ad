import gzip
import json
import re
import struct
import tempfile
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bratsfuse.errors import (
    BadData,
    BadHeader,
    BadMagic,
    ConfigError,
    GeometryMismatch,
    InvalidLabel,
    NiftiError,
    TruncatedFile,
    UnsupportedDtype,
    UnsupportedEncoding,
)
from bratsfuse.nifti import (
    PlaneReader,
    ProbmapFiles,
    _write_nifti,
    header_bytes,
    load_labelmap,
    load_probmap,
    load_volume,
    read_label_planes,
    save_nifti,
    save_probmap,
)
from bratsfuse.volume import LabelMap, ProbMap, _check_probs


def build_fixture(shape, spacing, datatype, payload, vox_offset=352.0, magic=b"n+1\x00"):
    """Hand-assemble a NIfTI-1 byte stream from the standard's constants."""
    bitpix = {2: 8, 4: 16, 16: 32}[datatype]
    hdr = bytearray(348)
    struct.pack_into("<i", hdr, 0, 348)
    struct.pack_into("<8h", hdr, 40, 3, *shape, 1, 1, 1, 1)
    struct.pack_into("<2h", hdr, 70, datatype, bitpix)
    struct.pack_into("<8f", hdr, 76, 1.0, *spacing, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<f", hdr, 108, vox_offset)
    hdr[344:348] = magic
    body = b"\x00" * (int(vox_offset) - 348)
    return bytes(hdr) + body + payload


def _load(raw, load=load_volume):
    """``load`` of a file holding the bytes ``raw``."""
    with tempfile.TemporaryDirectory() as d:
        (Path(d) / "v.nii").write_bytes(raw)
        return load(Path(d) / "v.nii")


def _saved(data, spacing=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0)):
    """The bytes ``_write_nifti`` writes for the uint8 or float32 ``data``."""
    with tempfile.TemporaryDirectory() as d:
        return _write_nifti(Path(d) / "v.nii", data, spacing, origin).read_bytes()


class TestRead:
    def test_fixture_parses(self):
        payload = np.arange(8, dtype="<f4").tobytes()
        raw = build_fixture((2, 2, 2), (1.0, 2.0, 3.0), 16, payload)
        data, header = _load(raw)
        assert data.shape == header.shape == (2, 2, 2)
        assert header.spacing == (1.0, 2.0, 3.0)
        # x-fastest on disk: linear element 1 is voxel (1, 0, 0)
        assert data[1, 0, 0] == 1.0

    def test_minimal_single_voxel(self):
        raw = build_fixture((1, 1, 1), (1.0, 1.0, 1.0), 16, np.zeros(1, "<f4").tobytes())
        data, _ = _load(raw)
        assert data.shape == (1, 1, 1)
        assert data[0, 0, 0] == 0.0

    def test_label_3_rejected_for_labelmap(self):
        payload = np.array([3], dtype="u1").tobytes()
        raw = build_fixture((1, 1, 1), (1.0, 1.0, 1.0), 2, payload)
        _load(raw)  # fine as a plain volume
        with pytest.raises(InvalidLabel):
            _load(raw, load_labelmap)

    def test_bad_magic(self):
        raw = build_fixture((1, 1, 1), (1.0, 1.0, 1.0), 2, b"\x00", magic=b"ni1\x00")
        with pytest.raises(BadMagic):
            _load(raw)

    def test_not_nifti_at_all(self):
        with pytest.raises(BadMagic):
            _load(b"\x00" * 400)

    def test_unsupported_dtype(self):
        raw = build_fixture((1, 1, 1), (1.0, 1.0, 1.0), 2, b"\x00")
        raw = raw[:70] + struct.pack("<h", 64) + raw[72:]  # float64 code
        with pytest.raises(UnsupportedDtype):
            _load(raw)

    def test_truncated_header(self):
        with pytest.raises(TruncatedFile):
            _load(b"\x00" * 100)

    def test_truncated_data(self):
        raw = build_fixture((2, 2, 2), (1.0, 1.0, 1.0), 16, b"\x00\x00\x00\x00")
        with pytest.raises(TruncatedFile):
            _load(raw)

    def test_gzip_rejected(self):
        raw = build_fixture((1, 1, 1), (1.0, 1.0, 1.0), 2, b"\x00")
        with pytest.raises(UnsupportedEncoding):
            _load(gzip.compress(raw))

    def test_big_endian_rejected(self):
        raw = bytearray(400)
        struct.pack_into(">i", raw, 0, 348)
        with pytest.raises(UnsupportedEncoding):
            _load(bytes(raw))

    def test_nifti2_rejected(self):
        raw = bytearray(600)
        struct.pack_into("<i", raw, 0, 540)
        with pytest.raises(UnsupportedEncoding):
            _load(bytes(raw))

    def test_non_3d_rejected(self):
        payload = np.zeros(1, "<f4").tobytes()
        raw = bytearray(build_fixture((1, 1, 1), (1.0, 1.0, 1.0), 16, payload))
        struct.pack_into("<8h", raw, 40, 4, 1, 1, 1, 1, 1, 1, 1)
        with pytest.raises(BadHeader):
            _load(bytes(raw))


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_voxel_is_bad_data(self, bad):
        payload = np.array([0.0, bad], dtype="<f4").tobytes()
        raw = build_fixture((2, 1, 1), (1.0, 1.0, 1.0), 16, payload)
        with pytest.raises(BadData, match="NaN or Inf") as info:
            _load(raw, load_labelmap)
        # Still a ValueError for callers that catch the old type.
        assert isinstance(info.value, ValueError)

    def test_non_finite_origin_is_bad_data(self):
        raw = bytearray(build_fixture((1, 1, 1), (1.0, 1.0, 1.0), 2, b"\x00"))
        struct.pack_into("<3f", raw, 268, 0.0, float("nan"), 0.0)
        with pytest.raises(BadData, match="origin"):
            _load(bytes(raw))

    @pytest.mark.parametrize("offset", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_vox_offset_is_bad_header(self, offset):
        raw = bytearray(build_fixture((1, 1, 1), (1.0, 1.0, 1.0), 2, b"\x00"))
        struct.pack_into("<f", raw, 108, offset)
        with pytest.raises(BadHeader, match="vox_offset"):
            _load(bytes(raw))

    @pytest.mark.parametrize("spacing", [(0.0, 1.0, 1.0), (1.0, float("nan"), 1.0),
                                         (1.0, 1.0, float("inf"))])
    def test_bad_spacing_is_a_nifti_error(self, spacing):
        raw = build_fixture((1, 1, 1), spacing, 2, b"\x00")
        with pytest.raises(NiftiError):
            _load(raw)


    @pytest.mark.parametrize("slope, inter", [(0.0, 0.0), (0.0, 7.5), (1.0, 0.0)])
    def test_identity_scaling_reads(self, slope, inter):
        raw = bytearray(build_fixture((1, 1, 1), (1.0, 1.0, 1.0), 2, b"\x02"))
        struct.pack_into("<2f", raw, 112, slope, inter)
        assert _load(bytes(raw), load_labelmap).data[0, 0, 0] == 2

    @pytest.mark.parametrize("slope, inter", [(2.0, 0.0), (-1.0, 0.0), (1.0, 1.0),
                                              (0.5, 3.0), (float("nan"), 0.0)])
    def test_non_identity_scaling_rejected(self, slope, inter):
        raw = bytearray(build_fixture((1, 1, 1), (1.0, 1.0, 1.0), 16,
                                      np.zeros(1, "<f4").tobytes()))
        struct.pack_into("<2f", raw, 112, slope, inter)
        with pytest.raises(UnsupportedEncoding, match="scl_slope"):
            _load(bytes(raw))

    def test_written_files_are_unscaled(self):
        raw = _saved(np.full((2, 1, 1), 3.5, np.float32))
        assert struct.unpack_from("<2f", raw, 112) == (1.0, 0.0)
        assert _load(raw)[0].max() == 3.5


class TestWrite:
    def test_labelmap_byte_layout(self):
        raw = _saved(np.zeros((2, 2, 2), dtype=np.uint8))
        assert len(raw) == 352 + 8
        assert struct.unpack_from("<i", raw, 0)[0] == 348
        assert raw[344:348] == b"n+1\x00"
        assert struct.unpack_from("<f", raw, 108)[0] == 352.0
        assert struct.unpack_from("<h", raw, 70)[0] == 2  # uint8
        assert raw[352:] == b"\x00" * 8

    def test_pixdim_fields(self):
        raw = _saved(np.zeros((1, 1, 1), np.float32), spacing=(1.0, 1.0, 1.0))
        pixdim = struct.unpack_from("<8f", raw, 76)
        assert pixdim[1:4] == (1.0, 1.0, 1.0)

    def test_volume_written_as_float32(self, tmp_path):
        # A probability map's float64 channels are written as float32.
        save_probmap(ProbMap(np.full((4, 1, 1, 1), 0.25)), tmp_path, "p")
        raw = (tmp_path / "p_ch0.nii").read_bytes()
        assert struct.unpack_from("<2h", raw, 70) == (16, 32)
        assert np.frombuffer(raw[352:], "<f4").tolist() == [0.25]

    def test_data_order_x_fastest(self):
        data = np.zeros((2, 1, 1), dtype=np.float32)
        data[1, 0, 0] = 5.0
        raw = _saved(data)
        vals = np.frombuffer(raw[352:], dtype="<f4")
        assert vals.tolist() == [0.0, 5.0]

    def test_origin_roundtrip(self):
        raw = _saved(np.zeros((1, 1, 1), np.float32), origin=(1.5, -2.0, 3.25))
        assert _load(raw)[1].origin == (1.5, -2.0, 3.25)


@settings(max_examples=50, deadline=None)
@given(
    shape=st.tuples(*(st.integers(1, 8),) * 3),
    dtype=st.sampled_from(["uint8", "int16", "float32"]),
    seed=st.integers(0, 2**32 - 1),
    spacing=st.tuples(*(st.floats(0.25, 8.0, width=32),) * 3),
)
def test_roundtrip_bit_exact(shape, dtype, seed, spacing):
    # Each payload as stored: load_volume gives back its dtype and values.
    rng = np.random.default_rng(seed)
    if dtype == "uint8":
        data, datatype = rng.integers(0, 256, size=shape).astype(np.uint8), 2
    elif dtype == "int16":
        data, datatype = rng.integers(-(2**15), 2**15, size=shape).astype(np.int16), 4
    else:
        data, datatype = rng.random(shape, dtype=np.float32), 16
    back, header = _load(build_fixture(shape, spacing, datatype, data.tobytes("F")))
    assert back.dtype == data.dtype == header.dtype
    assert header.shape == back.shape == shape
    assert header.spacing == spacing
    assert np.array_equal(back, data)


_FUZZ_FILES = (
    _saved(np.array([0, 1, 2, 4, 4, 2], np.uint8).reshape(3, 2, 1),
           (1.0, 1.25, 2.0), (-4.0, 0.5, 3.0)),
    _saved(np.linspace(-1.0, 1.0, 6, dtype=np.float32).reshape(1, 2, 3)),
)


@settings(max_examples=300, deadline=None)
@given(
    raw=st.sampled_from(_FUZZ_FILES),
    edit=st.sampled_from(["truncate", "overwrite", "flip"]),
    pos=st.integers(0, max(len(f) for f in _FUZZ_FILES) - 1),
    value=st.integers(0, 255),
)
@example(raw=_FUZZ_FILES[0], edit="overwrite", pos=111, value=0x7F)  # NaN vox_offset
@example(raw=_FUZZ_FILES[1], edit="overwrite", pos=111, value=0xFF)
def test_corrupted_file_raises_only_nifti_errors(raw, edit, pos, value):
    """One truncation, or one header byte (0-351) overwritten or bit-flipped:
    whatever ``load_volume`` refuses, it refuses as a NiftiError."""
    if edit == "truncate":
        raw = raw[:pos]
    else:
        assume(pos < 352)
        out = bytearray(raw)
        out[pos] = value if edit == "overwrite" else out[pos] ^ (1 << value % 8)
        raw = bytes(out)
    try:
        _load(raw)
    except NiftiError:
        pass


def test_labelmap_roundtrip_bit_exact(tmp_path, rng):
    labels = np.array([0, 1, 2, 4], dtype=np.uint8)[rng.integers(0, 4, size=(5, 4, 3))]
    m = LabelMap(labels, spacing=(0.5, 1.0, 2.0))
    back = load_labelmap(save_nifti(tmp_path / "m.nii", m))
    assert np.array_equal(back.data, m.data)
    assert back.data.dtype == np.uint8
    assert back.spacing == m.spacing


def test_probmap_manifest_roundtrip(tmp_path, rng):
    raw = rng.random((4, 3, 4, 5))
    raw /= raw.sum(axis=0, keepdims=True)
    pm = ProbMap(raw, spacing=(1.0, 1.5, 2.0))
    manifest = save_probmap(pm, tmp_path, "case")
    assert manifest.name == "case.json"
    back = load_probmap(manifest)
    assert back.shape == pm.shape
    assert back.spacing == pm.spacing
    # float32 storage: values agree to float32 resolution
    assert np.abs(back.data - pm.data).max() < 1e-6
    assert np.abs(back.data.sum(axis=0) - 1.0).max() <= 1e-6


def _channel_path(manifest, label):
    return manifest.parent / f"{manifest.stem}_ch{label}.nii"


def _patch_voxel(path, index, value):
    """Overwrite float32 voxel ``index`` (x-fastest) of a written file."""
    raw = bytearray(path.read_bytes())
    struct.pack_into("<f", raw, 352 + 4 * index, value)
    path.write_bytes(bytes(raw))


def _decode(manifest, start, stop):
    """Voxels ``start:stop`` (x-fastest) of a map through
    ``ProbmapFiles.read_channel``, each channel into its row of one block,
    and ``renormalise``, one row per channel."""
    with ProbmapFiles(manifest) as files:
        n = stop - start
        block = np.empty((4, n), np.float32)
        stored = [files.read_channel(c, start, stop, row) for c, row in enumerate(block)]
        return files.renormalise(stored, np.empty((4, n)), np.empty(n))


def _rows(data):
    """The channels of a ``(4, nx, ny, nz)`` array as rows, each x-fastest."""
    return data.transpose(0, 3, 2, 1).reshape(4, -1)


class TestProbmapPlanes:
    SHAPE = (5, 4, 7)
    PLANE = 5 * 4
    SPACING = (1.0, 1.5, 2.5)
    ORIGIN = (-3.0, 2.0, 10.25)

    @pytest.fixture
    def manifest(self, tmp_path, rng):
        raw = rng.random((4,) + self.SHAPE)
        raw /= raw.sum(axis=0, keepdims=True)
        return save_probmap(ProbMap(raw, self.SPACING, self.ORIGIN), tmp_path, "case")

    @pytest.mark.parametrize("planes", [slice(0, 1), slice(2, 5), slice(4, None),
                                        slice(None, 3), slice(6, 7), slice(0, 99)])
    def test_planes_equal_that_crop_of_the_whole_map(self, manifest, planes):
        whole = load_probmap(manifest)
        z0, z1, _ = planes.indices(self.SHAPE[2])
        got = _decode(manifest, self.PLANE * z0, self.PLANE * z1)
        assert got.shape == (4, self.PLANE * (z1 - z0))
        assert np.array_equal(got, _rows(whole.data[..., z0:z1]))

    @pytest.mark.parametrize("voxels", [slice(0, 1), slice(3, 4), slice(17, 63),
                                        slice(19, 21), slice(101, None), slice(139, 140)])
    def test_voxels_equal_those_of_the_whole_map(self, manifest, voxels):
        start, stop, _ = voxels.indices(int(np.prod(self.SHAPE)))
        got = _decode(manifest, start, stop)
        assert got.shape == (4, stop - start)
        assert np.array_equal(got, _rows(load_probmap(manifest).data)[:, start:stop])

    def test_default_is_the_whole_map(self, manifest):
        whole = load_probmap(manifest)
        assert np.array_equal(_rows(whole.data), _decode(manifest, 0, whole.data[0].size))
        assert (whole.spacing, whole.origin) == (self.SPACING, self.ORIGIN)

    def test_header_without_voxels(self, manifest):
        with ProbmapFiles(manifest) as files:
            hdr = files.header
        assert (hdr.shape, hdr.spacing, hdr.origin) == (self.SHAPE, self.SPACING, self.ORIGIN)

    def test_channel_truncated_in_its_last_plane(self, manifest):
        path = _channel_path(manifest, 2)
        path.write_bytes(path.read_bytes()[:-4])
        for load in (ProbmapFiles, load_probmap, lambda m: _decode(m, 0, self.PLANE)):
            with pytest.raises(TruncatedFile, match=path.name):
                load(manifest)

    def test_channel_with_an_extra_plane(self, manifest):
        path = _channel_path(manifest, 1)
        data, header = load_volume(path)
        _write_nifti(path, np.concatenate([data, data[:, :, :1]], axis=2),
                     header.spacing, header.origin)
        # The message names the first channel's file and the one that differs.
        names = re.escape(f"{_channel_path(manifest, 0)}, {path}: geometry mismatch: ")
        for load in (ProbmapFiles, load_probmap, lambda m: _decode(m, 0, self.PLANE)):
            with pytest.raises(GeometryMismatch, match=f"^{names}"):
                load(manifest)

    @pytest.mark.parametrize("planes", [slice(None), slice(3, 5)])
    def test_zero_sum_voxel_is_bad_data(self, manifest, planes):
        # Voxel (1, 2, 3): every channel 0, so renormalising would divide by 0.
        bad = 1 + 5 * (2 + 4 * 3)
        for label in ProbMap.channels:
            _patch_voxel(_channel_path(manifest, label), bad, 0.0)
        z0, z1, _ = planes.indices(self.SHAPE[2])
        loads = [lambda m: _decode(m, self.PLANE * z0, self.PLANE * z1),
                 lambda m: _decode(m, bad, bad + 1)]
        if z1 - z0 == self.SHAPE[2]:
            loads.append(load_probmap)
        for load in loads:
            with pytest.raises(BadData, match="case.json") as info:
                load(manifest)
            assert "sum to 0" in str(info.value)
        # The voxels on either side of it decode.
        assert _decode(manifest, 0, bad).shape == (4, bad)
        assert _decode(manifest, bad + 1, 140).shape == (4, 140 - bad - 1)

    def test_probmap_refusal_is_bad_data(self, manifest):
        # Channels (0.5, -0.5, 0.5, 0.5) sum to 1, so renormalising keeps them;
        # clipping the -0.5 leaves a sum of 1.5, which ProbMap refuses.
        for label, value in zip(ProbMap.channels, (0.5, -0.5, 0.5, 0.5)):
            _patch_voxel(_channel_path(manifest, label), 0, value)
        with pytest.raises(BadData, match="channel sums") as info:
            load_probmap(manifest)
        assert isinstance(info.value, ValueError)

    def test_non_finite_channel_is_bad_data(self, manifest):
        _patch_voxel(_channel_path(manifest, 4), 3, float("nan"))
        for start, stop in ((0, self.PLANE), (3, 4)):
            with pytest.raises(BadData, match="NaN or Inf"):
                _decode(manifest, start, stop)
        _decode(manifest, 0, 3)
        _decode(manifest, 4, self.PLANE)


def _write_channels(directory, stem, channels):
    """A manifest over channel files holding ``channels``, uint8 or float32
    arrays, as given (not renormalised)."""
    files = []
    for label, channel in zip(ProbMap.channels, channels):
        name = f"{stem}_ch{label}.nii"
        _write_nifti(directory / name, channel, (1.0, 1.5, 2.5), (-3.0, 2.0, 10.25))
        files.append(name)
    manifest = directory / f"{stem}.json"
    manifest.write_text(json.dumps({"channels": list(ProbMap.channels), "files": files}))
    return manifest


def _one_hot_channels(rng, shape):
    """Channels 0 and 1 as uint8 label files, 2 and 4 as float32, one-hot."""
    hot = rng.integers(0, 4, size=shape)
    return [(hot == c).astype(np.uint8 if c < 2 else np.float32) for c in range(4)]


class TestProbmapOracle:
    SHAPE = (5, 4, 7)
    PLANE = 5 * 4

    def raw(self, rng):
        raw = 3 * rng.random((4,) + self.SHAPE)  # channel sums far from 1
        raw[1, 2, 3, :] = -1e-8  # clipped to 0, within the sum tolerance
        return raw.astype(np.float32)

    def assert_oracle(self, tmp_path, rng, make, start, stop):
        """Voxels ``start:stop`` decode to the stored channels stacked in
        float64, divided by their sum and clipped, bit for bit."""
        channels = self.raw(rng) if make == "raw" else _one_hot_channels(rng, self.SHAPE)
        manifest = _write_channels(tmp_path, "case", channels)
        files = json.loads(manifest.read_text())["files"]
        stored = [load_volume(tmp_path / f)[0].reshape(-1, order="F")[start:stop]
                  for f in files]
        want = np.stack(stored, dtype=np.float64)
        want /= want.sum(axis=0, keepdims=True)
        np.clip(want, 0.0, 1.0, out=want)
        got = _decode(manifest, start, stop)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        if stop - start == self.PLANE * self.SHAPE[2]:
            assert _rows(load_probmap(manifest).data).tobytes() == want.tobytes()

    @pytest.mark.parametrize("make", ["raw", "one_hot"])
    @pytest.mark.parametrize("planes", [slice(None), slice(2, 5), slice(6, 7)])
    def test_bit_identical_to_stack_renormalise_clip(self, tmp_path, rng, make, planes):
        z0, z1, _ = planes.indices(self.SHAPE[2])
        self.assert_oracle(tmp_path, rng, make, self.PLANE * z0, self.PLANE * z1)

    @pytest.mark.parametrize("make", ["raw", "one_hot"])
    @pytest.mark.parametrize("start, stop", [(27, 92), (3, 4), (139, 140)])
    def test_voxel_ranges_inside_planes_are_bit_identical(self, tmp_path, rng, make,
                                                           start, stop):
        self.assert_oracle(tmp_path, rng, make, start, stop)


# Stored channel values of each supported dtype: float32 from 0, -0.0 and
# subnormals up to 1e30, uint8, and int16 with negatives.
_STORED = {
    "<f4": st.one_of(st.sampled_from([0.0, -0.0, 1e-45, 1.17e-38, 1.0]),
                     st.floats(0.0, float(np.float32(1e30)), width=32)),
    "<u1": st.integers(0, 255),
    "<i2": st.integers(-32768, 32767),
}


@st.composite
def _stored_channels(draw):
    """Four stored channels of one dtype, as columns ``cols`` of whole rows
    (the views a fold model renormalises)."""
    dtype = draw(st.sampled_from(sorted(_STORED)))
    rows, width = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    values = draw(st.lists(_STORED[dtype], min_size=4 * rows * width,
                           max_size=4 * rows * width))
    a, b = sorted(draw(st.lists(st.integers(0, width), min_size=2, max_size=2)))
    assume(a < b)
    return np.array(values, dtype).reshape(4, rows, width)[:, :, a:b]


@settings(max_examples=300, deadline=None)
@given(channels=_stored_channels())
@example(channels=np.array([[[1.0]], [[-0.0]], [[0.0]], [[0.0]]], "<f4"))
@example(channels=np.array([[[3, 2]], [[-1, 0]], [[0, 1]], [[0, 0]]], "<i2"))
def test_renormalise_is_stack_divide_clip_bit_for_bit(channels):
    # The oracle casts, sums, divides, clips and checks every voxel;
    # renormalise clips and checks only when a stored channel is negative.
    n = channels[0].size
    want = np.stack([c.reshape(-1) for c in channels], dtype=np.float64)
    sums = want.sum(axis=0)
    if not sums.all():  # every draw is finite
        match = "a voxel's four channels sum to 0"
    else:
        want /= sums
        np.clip(want, 0.0, 1.0, out=want)
        err = np.abs(want.sum(axis=0) - 1.0).max()
        match = f"channel sums deviate from 1 by {err:.3g}" if err > 1e-6 else None
    got = np.full((4, n), np.nan)
    renormalise = partial(ProbmapFiles.renormalise, SimpleNamespace(manifest="m.json"))
    if match is not None:
        with pytest.raises(BadData, match=re.escape(f"m.json: {match}")):
            renormalise(list(channels), got, np.empty(n))
        return
    renormalise(list(channels), got, np.empty(n))
    assert got.tobytes() == want.tobytes()
    if channels.min() >= 0:  # the property that skipping the clip rests on
        _check_probs(got)


class TestBadManifest:
    @pytest.fixture
    def manifest(self, tmp_path, rng):
        raw = rng.random((4, 3, 4, 5))
        raw /= raw.sum(axis=0, keepdims=True)
        return save_probmap(ProbMap(raw), tmp_path, "case")

    @pytest.mark.parametrize("text, match", [
        ("{not json", "not a JSON manifest"),
        (b"\xff\xfe{}", "not a JSON manifest"),
        ("[0, 1, 2, 4]", "must be a JSON object"),
        ('{"channels": 4, "files": []}', "manifest channels"),
        ('{"channels": [0, 1, 2, 4], "files": "abcd"}', "must list 4 files"),
        ('{"channels": [0, 1, 2, 4], "files": [1, 2, 3, 4]}', "must be names"),
    ])
    def test_malformed_manifest_is_bad_header(self, manifest, text, match):
        if isinstance(text, bytes):
            manifest.write_bytes(text)
        else:
            manifest.write_text(text)
        for load in (ProbmapFiles, load_probmap):
            with pytest.raises(BadHeader, match=match):
                load(manifest)

    def test_missing_channel_file_is_a_config_error(self, manifest):
        _channel_path(manifest, 2).unlink()
        for load in (ProbmapFiles, load_probmap):
            with pytest.raises(ConfigError, match="case_ch2.nii"):
                load(manifest)


# -- one file read by voxel ranges, and files written without a whole-file copy ----

PLANE_SHAPE = (5, 4, 7)


def _plane_file(tmp_path, datatype, data):
    """A hand-assembled file of ``PLANE_SHAPE`` holding ``data`` (x-fastest)."""
    dtype = {2: "<u1", 4: "<i2", 16: "<f4"}[datatype]
    path = tmp_path / "planes.nii"
    path.write_bytes(build_fixture(PLANE_SHAPE, (1.0, 1.5, 2.5), datatype,
                                   np.asarray(data, dtype).tobytes()))
    return path


@pytest.mark.parametrize("datatype", [2, 4, 16])
def test_planes_are_the_whole_file_s_planes(tmp_path, rng, datatype):
    labels = np.array([0, 1, 2, 4])[rng.integers(0, 4, int(np.prod(PLANE_SHAPE)))]
    path = _plane_file(tmp_path, datatype, labels)
    whole = load_labelmap(path).data.reshape(-1, order="F")
    plane = PLANE_SHAPE[0] * PLANE_SHAPE[1]
    buf = np.empty(3 * plane, np.float32)  # room for three planes of any dtype
    with PlaneReader(path) as f:
        assert f.header.shape == PLANE_SHAPE
        # Whole planes 0:3, 3:6, 6:7 and 2:3, then ranges that cut planes.
        for start, stop in ((0, 60), (60, 120), (120, 140), (40, 60),
                            (7, 33), (19, 79), (139, 140)):
            got = read_label_planes(f, start, stop, buf)
            assert np.shares_memory(got, buf)
            assert got.dtype == f.header.dtype
            assert np.array_equal(got, whole[start:stop])


@pytest.mark.parametrize("datatype, value, error, match", [
    (2, 3, InvalidLabel, r"label values outside \{0,1,2,4\}: \[3\]"),
    (16, float("nan"), BadData, "NaN or Inf"),
    (16, 0.5, InvalidLabel, r"\[0.5\]"),
])
def test_planes_are_checked_as_the_whole_file_is(tmp_path, datatype, value, error, match):
    data = np.zeros(int(np.prod(PLANE_SHAPE)))
    data[-3] = value  # in the last plane
    path = _plane_file(tmp_path, datatype, data)
    with pytest.raises(error, match=match) as want:
        load_labelmap(path)
    assert str(want.value).startswith(f"{path}: ")
    buf = np.empty(int(np.prod(PLANE_SHAPE)), np.float32)
    with PlaneReader(path) as f:
        read_label_planes(f, 0, 120, buf)  # planes 0:6
        read_label_planes(f, 0, 137, buf)
        read_label_planes(f, 138, 140, buf)
        for start, stop in ((120, 140), (137, 138)):  # plane 6, the voxel alone
            with pytest.raises(error) as got:
                read_label_planes(f, start, stop, buf)
            assert str(got.value) == str(want.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_volume_voxel_is_bad_data_naming_the_file(tmp_path, bad):
    data = np.zeros(int(np.prod(PLANE_SHAPE)))
    data[-3] = bad
    path = _plane_file(tmp_path, 16, data)
    with pytest.raises(BadData, match="NaN or Inf") as info:
        load_volume(path)
    assert str(info.value).startswith(f"{path}: ")


def test_a_file_short_of_its_voxels_is_refused_when_opened(tmp_path):
    path = _plane_file(tmp_path, 2, np.zeros(int(np.prod(PLANE_SHAPE))))
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(TruncatedFile, match=f"{path}: need"):
        PlaneReader(path)


def test_a_file_that_shrinks_after_opening_is_truncated(tmp_path):
    path = _plane_file(tmp_path, 2, np.zeros(int(np.prod(PLANE_SHAPE))))
    buf = np.empty(int(np.prod(PLANE_SHAPE)), np.uint8)
    with PlaneReader(path) as f:
        f.read(100, 140, buf)
        with open(path, "r+b") as fh:
            fh.truncate(352 + 20 * 6 + 1)
        f.read(0, 121, buf)  # six planes and one voxel are left
        with pytest.raises(TruncatedFile, match="ends inside voxels 120:140"):
            f.read(120, 140, buf)
        with pytest.raises(TruncatedFile, match="ends inside voxels 121:122"):
            f.read(121, 122, buf)


def test_a_buffer_too_small_for_the_voxels_is_refused(tmp_path):
    path = _plane_file(tmp_path, 16, np.zeros(int(np.prod(PLANE_SHAPE))))
    with PlaneReader(path) as f:
        with pytest.raises(ValueError, match="76 bytes cannot hold voxels 0:20"):
            f.read(0, 20, np.empty(19, np.float32))
        assert f.read(0, 20, np.empty(80, np.uint8)).size == 20


_GRID = np.arange(5 * 4 * 3).reshape(5, 4, 3)


@pytest.mark.parametrize("data, spacing, origin", [
    (np.array([0, 1, 2, 4], np.uint8)[_GRID % 4], (1.0, 1.0, 1.0), (0.0, 0.0, 0.0)),
    (np.asfortranarray(np.array([0, 1, 2, 4], np.uint8)[_GRID % 4]),
     (0.5, 1.0, 2.0), (1.0, -2.0, 3.5)),
    ((_GRID / 7.0).astype(np.float32), (1.0, 1.25, 2.0), (0.0, 0.0, 0.0)),
], ids=["labels", "labels_f_order", "volume"])
def test_save_nifti_writes_the_write_nifti_bytes(tmp_path, data, spacing, origin):
    # The header, then the voxels x-fastest: uint8 labels (by save_nifti too)
    # or float32 voxels.
    want = header_bytes(data.shape, spacing, origin, data.dtype) + data.tobytes("F")
    assert _write_nifti(tmp_path / "v.nii", data, spacing, origin).read_bytes() == want
    if data.dtype == np.uint8:
        m = LabelMap(data, spacing, origin)
        assert save_nifti(tmp_path / "m.nii", m).read_bytes() == want
