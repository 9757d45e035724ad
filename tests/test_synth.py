import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from click.testing import CliRunner

from bratsfuse import synth
from bratsfuse.cli import main
from bratsfuse.errors import RadiiDontFit
from bratsfuse.synth import PhantomSpec, make_phantom


class TestPhantomSpecDefaults:
    def test_reference_grid_keeps_the_reference_radii(self):
        spec = PhantomSpec()
        assert spec.wt_radii == (16.0, 14.0, 15.0)
        assert spec.tc_radii == (10.0, 9.0, 9.0)
        assert spec.et_radii == (5.0, 5.0, 4.0)

    def test_default_radii_scale_per_axis(self):
        spec = PhantomSpec(shape=(24, 96, 48))
        assert spec.wt_radii == (8.0, 28.0, 15.0)
        assert spec.tc_radii == (5.0, 18.0, 9.0)
        assert spec.et_radii == (2.5, 10.0, 4.0)

    @pytest.mark.parametrize("shape", [(20, 20, 20), (24, 24, 24), (240, 240, 155)])
    def test_default_radii_fit_the_grid(self, shape):
        gt, intensity = make_phantom(PhantomSpec(shape=shape))
        assert gt.shape == shape and intensity.shape == shape
        assert set(np.unique(gt.data).tolist()) == {0, 1, 2, 4}

    def test_explicit_radii_are_absolute_voxels(self):
        radii = dict(wt_radii=(6.0, 5.0, 4.0), tc_radii=(3.0, 3.0, 2.0), et_radii=(1.5, 1.0, 1.0))
        spec = PhantomSpec(shape=(96, 96, 96), **radii)
        for name, value in radii.items():
            assert getattr(spec, name) == value

    def test_explicit_radii_that_do_not_fit_still_raise(self):
        spec = PhantomSpec(shape=(20, 20, 20), wt_radii=(16.0, 14.0, 15.0),
                           tc_radii=(10.0, 9.0, 9.0), et_radii=(5.0, 5.0, 4.0))
        with pytest.raises(RadiiDontFit):
            make_phantom(spec)

    def test_mixed_explicit_and_default_radii_are_checked_for_nesting(self):
        # The scaled default TC at 24^3 is (5, 4.5, 4.5); an explicit WT inside it breaks WT > TC.
        with pytest.raises(ValueError):
            PhantomSpec(shape=(24, 24, 24), wt_radii=(4.0, 4.0, 4.0))
        with pytest.raises(ValueError):
            PhantomSpec(shape=(24, 24, 24), et_radii=(6.0, 1.0, 1.0))

    def test_non_positive_shape_is_rejected(self):
        with pytest.raises(ValueError):
            PhantomSpec(shape=(0, 20, 20))


@settings(max_examples=10, deadline=None)
@given(shape=st.sampled_from([(20, 20, 20), (24, 31, 17), (48, 40, 12)]),
       seed=st.integers(0, 2**16))
def test_phantom_labels_are_its_ellipsoids_assigned_outside_in(shape, seed):
    # The ellipsoids' center is random; take it from the phantom's own calls
    # and rebuild each ellipsoid voxel by voxel from it.
    spec = PhantomSpec(shape=shape, seed=seed)
    with mock.patch.object(synth, "_ellipsoid", wraps=synth._ellipsoid) as ellipsoid:
        gt, _ = make_phantom(spec)
    center = np.array(ellipsoid.call_args_list[0].args[1])
    xyz = np.indices(shape).reshape(3, -1).T
    want = np.zeros(len(xyz), np.uint8)
    for radii, label in ((spec.wt_radii, 2), (spec.tc_radii, 1), (spec.et_radii, 4)):
        inside = (((xyz - center) / np.array(radii)) ** 2).sum(axis=1) <= 1.0
        want[inside] = label
    assert np.array_equal(gt.data, want.reshape(shape))


class TestSynthCommand:
    def test_small_grid_succeeds(self, tmp_path):
        result = CliRunner().invoke(main, ["synth", "--out", str(tmp_path), "--shape", "20", "20", "20"])
        assert result.exit_code == 0, result.output
        config = json.loads((tmp_path / "fuse_config.json").read_text())
        assert sorted(config) == ["cases", "et_threshold", "output_dir", "staple"]

    @pytest.mark.parametrize("shape", [("3", "3", "3"), ("0", "0", "0")])
    def test_grid_too_small_is_a_one_line_error(self, tmp_path, shape):
        result = CliRunner().invoke(main, ["synth", "--out", str(tmp_path / "out"), "--shape", *shape])
        assert result.exit_code != 0
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert result.output.startswith("Error: ")
        assert not (tmp_path / "out").exists()

    def test_rate_outside_unit_interval_is_a_one_line_error(self, tmp_path):
        result = CliRunner().invoke(main, ["synth", "--out", str(tmp_path / "out"), "--rate", "2"])
        assert result.exit_code != 0
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        errors = [line for line in result.output.splitlines() if line.startswith("Error: ")]
        assert len(errors) == 1 and "--rate" in errors[0]
        assert not (tmp_path / "out").exists()

    def test_negative_seed_is_a_usage_error_naming_the_option(self, tmp_path):
        result = CliRunner().invoke(main, ["synth", "--out", str(tmp_path / "out"),
                                           "--seed", "-1"])
        assert result.exit_code == 2, result.output
        assert "Invalid value for '--seed': -1 is not in the range x>=0." in result.output
        assert "Traceback" not in result.output
        assert not (tmp_path / "out").exists()

    def test_negative_raters_is_a_usage_error(self, tmp_path):
        result = CliRunner().invoke(main, ["synth", "--out", str(tmp_path / "out"),
                                           "--raters", "-2", "--no-probmaps"])
        assert result.exit_code == 2, result.output
        assert "Invalid value for '--raters': -2 is not in the range x>=0." in result.output
        assert not (tmp_path / "out").exists()

    def test_a_config_with_no_model_is_a_usage_error(self, tmp_path):
        result = CliRunner().invoke(main, ["synth", "--out", str(tmp_path / "out"),
                                           "--raters", "0", "--no-probmaps"])
        assert result.exit_code == 2, result.output
        assert "Error: --raters 0 with --no-probmaps would write a config with no model" \
            in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("probmaps, most, soft", [("--probmaps", 31, " and the soft model"),
                                                      ("--no-probmaps", 32, "")])
    def test_raters_beyond_32_models_is_a_usage_error(self, tmp_path, probmaps, most, soft):
        # fuse takes at most 32 models, the most a joint code holds: the
        # raters, and the soft model with --probmaps.
        runner = CliRunner()
        result = runner.invoke(main, ["synth", "--out", str(tmp_path / "most"), "--shape",
                                      "8", "8", "8", "--raters", str(most), probmaps])
        assert result.exit_code == 0, result.output
        config = tmp_path / "most" / "fuse_config.json"
        assert len(json.loads(config.read_text())["cases"][0]["models"]) == 32
        result = runner.invoke(main, ["fuse", "--config", str(config)])
        assert result.exit_code == 0, result.output

        result = runner.invoke(main, ["synth", "--out", str(tmp_path / "more"),
                                      "--raters", str(most + 1), probmaps])
        assert result.exit_code == 2, result.output
        assert f"Error: --raters {most + 1}{soft} would write a config of 33 models; " \
            "fuse takes at most 32" in result.output
        assert not (tmp_path / "more").exists()

    def test_no_raters_with_probmaps_writes_a_config_that_fuses(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, ["synth", "--out", str(tmp_path), "--shape", "20", "20", "20",
                                      "--raters", "0"])
        assert result.exit_code == 0, result.output
        config = json.loads((tmp_path / "fuse_config.json").read_text())
        assert [m["name"] for m in config["cases"][0]["models"]] == ["soft_model"]
        result = runner.invoke(main, ["fuse", "--config", str(tmp_path / "fuse_config.json")])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "fused" / "case_000.nii").is_file()
