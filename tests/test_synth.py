import json

import numpy as np
import pytest
from click.testing import CliRunner

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
