import gzip
import json
import struct

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
    load_probmap,
    load_probmap_header,
    read_labelmap,
    read_nifti,
    save_probmap,
    write_nifti,
)
from bratsfuse.volume import BBox, LabelMap, ProbMap, Volume, crop


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


class TestRead:
    def test_fixture_parses(self):
        payload = np.arange(8, dtype="<f4").tobytes()
        raw = build_fixture((2, 2, 2), (1.0, 2.0, 3.0), 16, payload)
        v = read_nifti(raw)
        assert v.shape == (2, 2, 2)
        assert v.spacing == (1.0, 2.0, 3.0)
        # x-fastest on disk: linear element 1 is voxel (1, 0, 0)
        assert v.data[1, 0, 0] == 1.0

    def test_minimal_single_voxel(self):
        raw = build_fixture((1, 1, 1), (1.0, 1.0, 1.0), 16, np.zeros(1, "<f4").tobytes())
        v = read_nifti(raw)
        assert v.shape == (1, 1, 1)
        assert v.data[0, 0, 0] == 0.0

    def test_label_3_rejected_for_labelmap(self):
        payload = np.array([3], dtype="u1").tobytes()
        raw = build_fixture((1, 1, 1), (1.0, 1.0, 1.0), 2, payload)
        read_nifti(raw)  # fine as a plain volume
        with pytest.raises(InvalidLabel):
            read_labelmap(raw)

    def test_bad_magic(self):
        raw = build_fixture((1, 1, 1), (1.0, 1.0, 1.0), 2, b"\x00", magic=b"ni1\x00")
        with pytest.raises(BadMagic):
            read_nifti(raw)

    def test_not_nifti_at_all(self):
        with pytest.raises(BadMagic):
            read_nifti(b"\x00" * 400)

    def test_unsupported_dtype(self):
        raw = build_fixture((1, 1, 1), (1.0, 1.0, 1.0), 2, b"\x00")
        raw = raw[:70] + struct.pack("<h", 64) + raw[72:]  # float64 code
        with pytest.raises(UnsupportedDtype):
            read_nifti(raw)

    def test_truncated_header(self):
        with pytest.raises(TruncatedFile):
            read_nifti(b"\x00" * 100)

    def test_truncated_data(self):
        raw = build_fixture((2, 2, 2), (1.0, 1.0, 1.0), 16, b"\x00\x00\x00\x00")
        with pytest.raises(TruncatedFile):
            read_nifti(raw)

    def test_gzip_rejected(self):
        raw = build_fixture((1, 1, 1), (1.0, 1.0, 1.0), 2, b"\x00")
        with pytest.raises(UnsupportedEncoding):
            read_nifti(gzip.compress(raw))

    def test_big_endian_rejected(self):
        raw = bytearray(400)
        struct.pack_into(">i", raw, 0, 348)
        with pytest.raises(UnsupportedEncoding):
            read_nifti(bytes(raw))

    def test_nifti2_rejected(self):
        raw = bytearray(600)
        struct.pack_into("<i", raw, 0, 540)
        with pytest.raises(UnsupportedEncoding):
            read_nifti(bytes(raw))

    def test_non_3d_rejected(self):
        payload = np.zeros(1, "<f4").tobytes()
        raw = bytearray(build_fixture((1, 1, 1), (1.0, 1.0, 1.0), 16, payload))
        struct.pack_into("<8h", raw, 40, 4, 1, 1, 1, 1, 1, 1, 1)
        with pytest.raises(BadHeader):
            read_nifti(bytes(raw))


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_voxel_is_bad_data(self, bad):
        payload = np.array([0.0, bad], dtype="<f4").tobytes()
        raw = build_fixture((2, 1, 1), (1.0, 1.0, 1.0), 16, payload)
        with pytest.raises(BadData, match="NaN or Inf") as info:
            read_labelmap(raw)
        # Still a ValueError for callers that catch the old type.
        assert isinstance(info.value, ValueError)

    def test_non_finite_origin_is_bad_data(self):
        raw = bytearray(build_fixture((1, 1, 1), (1.0, 1.0, 1.0), 2, b"\x00"))
        struct.pack_into("<3f", raw, 268, 0.0, float("nan"), 0.0)
        with pytest.raises(BadData, match="origin"):
            read_nifti(bytes(raw))

    @pytest.mark.parametrize("offset", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_vox_offset_is_bad_header(self, offset):
        raw = bytearray(build_fixture((1, 1, 1), (1.0, 1.0, 1.0), 2, b"\x00"))
        struct.pack_into("<f", raw, 108, offset)
        with pytest.raises(BadHeader, match="vox_offset"):
            read_nifti(bytes(raw))

    @pytest.mark.parametrize("spacing", [(0.0, 1.0, 1.0), (1.0, float("nan"), 1.0),
                                         (1.0, 1.0, float("inf"))])
    def test_bad_spacing_is_a_nifti_error(self, spacing):
        raw = build_fixture((1, 1, 1), spacing, 2, b"\x00")
        with pytest.raises(NiftiError):
            read_nifti(raw)


    @pytest.mark.parametrize("slope, inter", [(0.0, 0.0), (0.0, 7.5), (1.0, 0.0)])
    def test_identity_scaling_reads(self, slope, inter):
        raw = bytearray(build_fixture((1, 1, 1), (1.0, 1.0, 1.0), 2, b"\x02"))
        struct.pack_into("<2f", raw, 112, slope, inter)
        assert read_labelmap(bytes(raw)).data[0, 0, 0] == 2

    @pytest.mark.parametrize("slope, inter", [(2.0, 0.0), (-1.0, 0.0), (1.0, 1.0),
                                              (0.5, 3.0), (float("nan"), 0.0)])
    def test_non_identity_scaling_rejected(self, slope, inter):
        raw = bytearray(build_fixture((1, 1, 1), (1.0, 1.0, 1.0), 16,
                                      np.zeros(1, "<f4").tobytes()))
        struct.pack_into("<2f", raw, 112, slope, inter)
        with pytest.raises(UnsupportedEncoding, match="scl_slope"):
            read_nifti(bytes(raw))

    def test_written_files_are_unscaled(self):
        raw = write_nifti(Volume(np.full((2, 1, 1), 3.5, np.float32)))
        assert struct.unpack_from("<2f", raw, 112) == (1.0, 0.0)
        assert read_nifti(raw).data.max() == 3.5


class TestWrite:
    def test_labelmap_byte_layout(self):
        raw = write_nifti(LabelMap(np.zeros((2, 2, 2), dtype=np.uint8)))
        assert len(raw) == 352 + 8
        assert struct.unpack_from("<i", raw, 0)[0] == 348
        assert raw[344:348] == b"n+1\x00"
        assert struct.unpack_from("<f", raw, 108)[0] == 352.0
        assert struct.unpack_from("<h", raw, 70)[0] == 2  # uint8
        assert raw[352:] == b"\x00" * 8

    def test_pixdim_fields(self):
        raw = write_nifti(Volume(np.zeros((1, 1, 1)), spacing=(1.0, 1.0, 1.0)))
        pixdim = struct.unpack_from("<8f", raw, 76)
        assert pixdim[1:4] == (1.0, 1.0, 1.0)

    def test_volume_written_as_float32(self):
        raw = write_nifti(Volume(np.zeros((1, 1, 1), dtype=np.float64)))
        assert struct.unpack_from("<h", raw, 70)[0] == 16

    def test_data_order_x_fastest(self):
        data = np.zeros((2, 1, 1), dtype=np.float32)
        data[1, 0, 0] = 5.0
        raw = write_nifti(Volume(data))
        vals = np.frombuffer(raw[352:], dtype="<f4")
        assert vals.tolist() == [0.0, 5.0]

    def test_origin_roundtrip(self):
        v = Volume(np.zeros((1, 1, 1)), origin=(1.5, -2.0, 3.25))
        assert read_nifti(write_nifti(v)).origin == (1.5, -2.0, 3.25)


@settings(max_examples=50, deadline=None)
@given(
    shape=st.tuples(*(st.integers(1, 8),) * 3),
    dtype=st.sampled_from(["uint8", "int16", "float32"]),
    seed=st.integers(0, 2**32 - 1),
    spacing=st.tuples(*(st.floats(0.25, 8.0, width=32),) * 3),
)
def test_roundtrip_bit_exact(shape, dtype, seed, spacing):
    rng = np.random.default_rng(seed)
    if dtype == "uint8":
        data = rng.integers(0, 256, size=shape).astype(np.uint8)
    elif dtype == "int16":
        data = rng.integers(-(2**15), 2**15, size=shape).astype(np.int16)
    else:
        data = rng.random(shape, dtype=np.float32)
    v = Volume(data, spacing=spacing)
    back = read_nifti(write_nifti(v))
    assert back.shape == v.shape
    assert back.spacing == v.spacing
    assert np.array_equal(back.data, v.data)


_FUZZ_FILES = (
    write_nifti(LabelMap(np.array([0, 1, 2, 4, 4, 2], np.uint8).reshape(3, 2, 1),
                         (1.0, 1.25, 2.0), (-4.0, 0.5, 3.0))),
    write_nifti(Volume(np.linspace(-1.0, 1.0, 6, dtype=np.float32).reshape(1, 2, 3))),
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
    whatever ``read_nifti`` refuses, it refuses as a NiftiError."""
    if edit == "truncate":
        raw = raw[:pos]
    else:
        assume(pos < 352)
        out = bytearray(raw)
        out[pos] = value if edit == "overwrite" else out[pos] ^ (1 << value % 8)
        raw = bytes(out)
    try:
        read_nifti(raw)
    except NiftiError:
        pass


def test_labelmap_roundtrip_bit_exact(rng):
    labels = np.array([0, 1, 2, 4], dtype=np.uint8)[rng.integers(0, 4, size=(5, 4, 3))]
    m = LabelMap(labels, spacing=(0.5, 1.0, 2.0))
    back = read_labelmap(write_nifti(m))
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


class TestProbmapPlanes:
    SHAPE = (5, 4, 7)
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
        want = crop(whole, BBox((0, 0, z0), (self.SHAPE[0] - 1, self.SHAPE[1] - 1, z1 - 1)))
        got = load_probmap(manifest, planes)
        assert got.shape == (5, 4, z1 - z0)
        assert np.array_equal(got.data, want.data)
        assert got.spacing == self.SPACING
        assert got.origin == want.origin
        assert got.origin == (-3.0, 2.0, 10.25 + z0 * 2.5)

    def test_default_is_the_whole_map(self, manifest):
        assert np.array_equal(load_probmap(manifest).data,
                              load_probmap(manifest, slice(0, self.SHAPE[2])).data)

    @pytest.mark.parametrize("planes", [slice(3, 3), slice(7, 9), slice(0, 7, 2)])
    def test_empty_or_strided_planes_rejected(self, manifest, planes):
        with pytest.raises(ValueError, match="planes"):
            load_probmap(manifest, planes)

    def test_header_without_voxels(self, manifest):
        hdr = load_probmap_header(manifest)
        assert (hdr.shape, hdr.spacing, hdr.origin) == (self.SHAPE, self.SPACING, self.ORIGIN)

    def test_channel_truncated_in_its_last_plane(self, manifest):
        path = _channel_path(manifest, 2)
        path.write_bytes(path.read_bytes()[:-4])
        for load in (load_probmap_header, load_probmap,
                     lambda m: load_probmap(m, slice(0, 1))):
            with pytest.raises(TruncatedFile, match=path.name):
                load(manifest)

    def test_channel_with_an_extra_plane(self, manifest):
        path = _channel_path(manifest, 1)
        v = read_nifti(path.read_bytes())
        path.write_bytes(write_nifti(Volume(np.concatenate([v.data, v.data[:, :, :1]], axis=2),
                                            v.spacing, v.origin)))
        for load in (load_probmap_header, load_probmap,
                     lambda m: load_probmap(m, slice(0, 1))):
            with pytest.raises(GeometryMismatch):
                load(manifest)

    @pytest.mark.parametrize("planes", [slice(None), slice(3, 5)])
    def test_zero_sum_voxel_is_bad_data(self, manifest, planes):
        # Voxel (1, 2, 3): every channel 0, so renormalising would divide by 0.
        for label in ProbMap.channels:
            _patch_voxel(_channel_path(manifest, label), 1 + 5 * (2 + 4 * 3), 0.0)
        with pytest.raises(BadData, match="case.json") as info:
            load_probmap(manifest, planes)
        assert "sum to 0" in str(info.value)
        assert load_probmap(manifest, slice(0, 3)).shape == (5, 4, 3)

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
        with pytest.raises(BadData, match="NaN or Inf"):
            load_probmap(manifest, slice(0, 1))


def _write_channels(directory, stem, channels):
    """A manifest over channel files holding ``channels`` as given (not
    renormalised): float arrays are written as float32, LabelMaps as uint8."""
    files = []
    for label, channel in zip(ProbMap.channels, channels):
        name = f"{stem}_ch{label}.nii"
        if not isinstance(channel, LabelMap):
            channel = Volume(channel, (1.0, 1.5, 2.5), (-3.0, 2.0, 10.25))
        (directory / name).write_bytes(write_nifti(channel))
        files.append(name)
    manifest = directory / f"{stem}.json"
    manifest.write_text(json.dumps({"channels": list(ProbMap.channels), "files": files}))
    return manifest


def _one_hot_channels(rng, shape):
    """Channels 0 and 1 as uint8 label files, 2 and 4 as float32, one-hot."""
    hot = rng.integers(0, 4, size=shape)
    return [LabelMap((hot == c).astype(np.uint8), (1.0, 1.5, 2.5), (-3.0, 2.0, 10.25))
            if c < 2 else (hot == c).astype(np.float32) for c in range(4)]


class TestProbmapOracle:
    SHAPE = (5, 4, 7)

    def raw(self, rng):
        raw = 3 * rng.random((4,) + self.SHAPE)  # channel sums far from 1
        raw[1, 2, 3, :] = -1e-8  # clipped to 0, within the sum tolerance
        return raw

    @pytest.mark.parametrize("make", ["raw", "one_hot"])
    @pytest.mark.parametrize("planes", [slice(None), slice(2, 5), slice(6, 7)])
    def test_bit_identical_to_stack_renormalise_clip(self, tmp_path, rng, make, planes):
        channels = self.raw(rng) if make == "raw" else _one_hot_channels(rng, self.SHAPE)
        manifest = _write_channels(tmp_path, "case", channels)
        files = json.loads(manifest.read_text())["files"]
        stored = [read_nifti((tmp_path / f).read_bytes()).data[:, :, planes] for f in files]
        want = np.stack(stored, dtype=np.float64)
        want /= want.sum(axis=0, keepdims=True)
        np.clip(want, 0.0, 1.0, out=want)
        got = load_probmap(manifest, planes)
        assert got.data.shape == want.shape
        assert got.data.tobytes() == want.tobytes()


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
        for load in (load_probmap_header, load_probmap):
            with pytest.raises(BadHeader, match=match):
                load(manifest)

    def test_missing_channel_file_is_a_config_error(self, manifest):
        _channel_path(manifest, 2).unlink()
        for load in (load_probmap_header, load_probmap):
            with pytest.raises(ConfigError, match="case_ch2.nii"):
                load(manifest)
