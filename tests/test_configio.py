"""Key-value config parsing and the CSV scene/trajectory formats."""

import numpy as np
import pytest

from insarmap import configio
from insarmap.imaging import Aperture
from insarmap.errors import ConfigError


RADAR_CFG = """
# chamber radar
center_frequency_hz = 77.4e9
ramp_slope_hz_per_s = 30e12
samples_per_chirp = 512
sample_rate_sps = 18.75e6
pri_s = 63.9e-6
chirps_per_tx_per_frame = 256
num_tx = 3
per_sample_snr_db = inf
plus_inf = +inf
minus_inf = -INF
infinity = Infinity
"""


class TestKvParsing:
    def test_round_trip_values(self, tmp_path):
        path = tmp_path / "radar.cfg"
        path.write_text(RADAR_CFG)
        cfg = configio.parse_kv_file(path)
        assert cfg["samples_per_chirp"] == 512
        assert cfg["center_frequency_hz"] == pytest.approx(77.4e9)
        assert cfg["per_sample_snr_db"] == np.inf
        assert (cfg["plus_inf"], cfg["minus_inf"], cfg["infinity"]) == (np.inf, -np.inf, np.inf)
        chirp = configio.load_chirp_config(cfg, source=str(path))
        assert chirp.num_tx == 3

    def test_tuple_values(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text(
            "tx_positions_m = [(0, 0, 0), (0.00774, 0, 0)]\n"
            "rx_positions_m = [(0, 0, 0)]\n"
            "grid_origin_m = (-5, 0)\n"
        )
        cfg = configio.parse_kv_file(path)
        arr = configio.load_virtual_array(cfg, 0.00387)
        assert arr.n_vx == 2
        grid = configio.load_grid(cfg)
        assert grid.origin_m[0] == -5.0

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("center_frequency_hz = 77e9\nthis is not a pair\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:2"):
            configio.parse_kv_file(path)

    def test_missing_key_reported(self, tmp_path):
        with pytest.raises(ConfigError, match="center_frequency_hz"):
            configio.load_chirp_config({}, source="x")

    def test_default_array_when_positions_omitted(self):
        arr = configio.load_virtual_array({}, 0.00387)
        assert arr.n_vx == 12

    def test_half_specified_array_rejected(self):
        with pytest.raises(ConfigError):
            configio.load_virtual_array({"tx_positions_m": [(0, 0, 0)]}, 0.004)

    def test_filter_defaults_and_overrides(self):
        cfg = configio.load_filter_config({"snr_threshold_db": 12, "sensor_height_m": 0.9})
        assert cfg.snr_threshold_db == 12.0
        assert cfg.resolved_min_z_m == -0.9
        assert cfg.max_elevation_angle_deg == 45.0
        cfg2 = configio.load_filter_config({"min_z_m": -0.4})
        assert cfg2.resolved_min_z_m == -0.4

    def test_imaging_defaults_are_the_library_defaults(self):
        # stated once, by Aperture and image_stack: a key the config does
        # not set is left to them
        assert configio.load_aperture({}) == Aperture()
        assert configio.load_aperture({"aperture_length_m": 0.3}) == Aperture(length_m=0.3)
        assert configio.load_imaging_options({}) == {}
        options = configio.load_imaging_options(
            {"oversample_factor": 8, "range_window": "hann", "image_height_m": -0.5}
        )
        assert options == {"oversample_factor": 8, "window": "hann", "image_height_m": -0.5}


class TestCsvFormats:
    def test_trajectory_round_trip(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("t,x,y,z,qw,qx,qy,qz\n0,0,0,1,1,0,0,0\n0.5,2.5,0,1,1,0,0,0\n")
        back = configio.load_trajectory_csv(path)
        assert len(back.poses) == 2
        assert back.poses[1].time_s == 0.5
        assert back.poses[1].position == pytest.approx([2.5, 0.0, 1.0])

    def test_scene_round_trip(self, tmp_path):
        path = tmp_path / "scene.csv"
        path.write_text("x,y,z,amplitude\n1,2,3,0.5\n-1,4,0,2\n")
        back = configio.load_scene_csv(path)
        assert len(back) == 2
        assert back.targets[0].amplitude == 0.5
        assert back.targets[1].position == pytest.approx([-1.0, 4.0, 0.0])

    def test_empty_scene_file_names_the_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ConfigError, match="empty.csv"):
            configio.load_scene_csv(path)

    def test_header_only_scene_rejected(self, tmp_path):
        path = tmp_path / "none.csv"
        path.write_text("x,y,z,amplitude\n")
        with pytest.raises(ConfigError, match="no targets"):
            configio.load_scene_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time,x,y,z,qw,qx,qy,qz\n0,0,0,0,1,0,0,0\n")
        with pytest.raises(ConfigError, match="t.csv:1"):
            configio.load_trajectory_csv(path)

    def test_bad_field_count_reports_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x,y,z,amplitude\n1,2,3\n")
        with pytest.raises(ConfigError, match="s.csv:2"):
            configio.load_scene_csv(path)
