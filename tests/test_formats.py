"""Binary artifact round trips and corruption handling."""

import dataclasses

import numpy as np
import pytest

import insarmap as im
from insarmap import formats
from insarmap.errors import ConfigError, DataFormatError


class TestCaptureFormat:
    def test_round_trip(self, tmp_path, small_e2e):
        cap = small_e2e["capture"]
        path = tmp_path / "cap.insarraw"
        formats.write_capture(cap, path)
        back = formats.read_capture(path)
        assert back.config == cap.config
        assert back.n_records == cap.n_records
        assert np.allclose(back.array.tx_positions, cap.array.tx_positions)
        for r0, r1 in zip(cap.records, back.records):
            assert (r0.tx, r0.rx, r0.cycle) == (r1.tx, r1.rx, r1.cycle)
            assert r1.time_s == r0.time_s
            # samples go through float32, so only that much precision survives
            assert np.allclose(r1.samples, r0.samples, rtol=0, atol=2e-5)
        # a second write of the loaded capture is byte-stable
        path2 = tmp_path / "cap2.insarraw"
        formats.write_capture(back, path2)
        assert path.read_bytes()[:64] == path2.read_bytes()[:64]
        back2 = formats.read_capture(path2)
        for r1, r2 in zip(back.records, back2.records):
            assert np.array_equal(r1.samples, r2.samples)

    def test_full_file_round_trip_and_record_view(self, tmp_path, small_e2e):
        cap = im.add_noise(small_e2e["capture"], 20.0, seed=3)
        path, path2 = tmp_path / "cap.insarraw", tmp_path / "cap2.insarraw"
        formats.write_capture(cap, path)
        back = formats.read_capture(path)
        formats.write_capture(back, path2)
        assert path2.read_bytes() == path.read_bytes()
        # the record view is cached and agrees with the columns
        assert back.records is back.records
        poses_by_cycle = {}
        for i, rec in enumerate(back.records):
            assert (rec.tx, rec.rx, rec.cycle) == (back.tx[i], back.rx[i], back.cycle[i])
            assert rec.time_s == back.time_s[i]
            assert rec.pose is back.poses[back.pose_index[i]]
            assert np.array_equal(rec.samples, back.samples[i])
            poses_by_cycle.setdefault(rec.cycle, set()).add(id(rec.pose))
        assert all(len(ids) == 1 for ids in poses_by_cycle.values())

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.insarraw"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(DataFormatError, match="magic"):
            formats.read_capture(path)

    def test_truncated_file(self, tmp_path, small_e2e):
        path = tmp_path / "cap.insarraw"
        formats.write_capture(small_e2e["capture"], path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(DataFormatError, match="truncated"):
            formats.read_capture(path)


class TestImageStackFormat:
    def test_round_trip(self, tmp_path, small_e2e):
        stack = small_e2e["stack"]
        path = tmp_path / "stack.insarimg"
        formats.write_image_stack(stack, path)
        back = formats.read_image_stack(path)
        assert back.grid.n_u == stack.grid.n_u
        assert back.wavelength_m == stack.wavelength_m
        assert np.array_equal(back.phase_center, stack.phase_center)
        assert len(back.array.vertical_baselines) == 4
        assert np.allclose(back.images, stack.images, rtol=1e-6, atol=1e-6 * np.abs(stack.images).max())
        # the planes are the pixels rounded to complex64
        assert path.read_bytes().endswith(stack.images.astype("<c8").tobytes())

    def test_pixel_beyond_float32_is_refused_with_its_vx(self, tmp_path, small_e2e):
        stack = small_e2e["stack"]
        images = stack.images.copy()
        images[2, 1, 3] = 1e39j
        big = dataclasses.replace(stack, images=images)
        path = tmp_path / "stack.insarimg"
        with pytest.raises(ConfigError, match="VX 2 image holds pixels beyond float32 range"):
            formats.write_image_stack(big, path)
        assert not path.exists()

    def test_version_check(self, tmp_path, small_e2e):
        path = tmp_path / "stack.insarimg"
        formats.write_image_stack(small_e2e["stack"], path)
        data = bytearray(path.read_bytes())
        data[8] = 99  # version field
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError, match="version"):
            formats.read_image_stack(path)


class TestElevationMapFormat:
    def test_round_trip_with_nans(self, tmp_path, small_e2e):
        emap = small_e2e["map"]
        # poke a NaN elevation in to confirm absent pixels survive the file
        elev = emap.elevation.copy()
        elev[0, 0] = np.nan
        poked = im.ElevationMap(
            grid=emap.grid,
            phase_center=emap.phase_center,
            wavelength_m=emap.wavelength_m,
            baseline_m=emap.baseline_m,
            elevation=elev,
            interferogram=emap.interferogram,
        )
        path = tmp_path / "map.insarelv"
        formats.write_elevation_map(poked, path)
        # the five planes are the values rounded to float32
        intf = emap.interferogram
        planes = (elev, intf.mean_phase_delay, intf.circular_variance, intf.combined_magnitude, intf.snr_db)
        assert path.read_bytes().endswith(np.stack(planes).astype("<f4").tobytes())
        back = formats.read_elevation_map(path)
        assert np.isnan(back.elevation[0, 0])
        finite = np.isfinite(poked.elevation)
        assert np.allclose(back.elevation[finite], poked.elevation[finite], atol=1e-6)
        assert np.allclose(
            back.interferogram.snr_db, emap.interferogram.snr_db, atol=1e-3
        )
        assert back.baseline_m == emap.baseline_m

    def test_value_beyond_float32_is_refused_with_its_plane(self, tmp_path, small_e2e):
        emap = small_e2e["map"]
        magnitude = emap.interferogram.combined_magnitude.copy()
        magnitude[4, 0] = 1e39
        big = dataclasses.replace(
            emap, interferogram=dataclasses.replace(emap.interferogram, combined_magnitude=magnitude)
        )
        path = tmp_path / "map.insarelv"
        with pytest.raises(ConfigError, match="combined magnitude plane holds values beyond float32 range"):
            formats.write_elevation_map(big, path)
        assert not path.exists()

    @pytest.mark.parametrize("plane, name", [(1, "phase"), (2, "variance"), (3, "magnitude"), (4, "SNR")])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_quality_value_is_a_format_error(self, tmp_path, small_e2e, plane, name, bad):
        path = tmp_path / "map.insarelv"
        formats.write_elevation_map(small_e2e["map"], path)
        data = bytearray(path.read_bytes())
        at = len(data) - (5 - plane) * 4 * small_e2e["grid"].n_u * small_e2e["grid"].n_v  # the last 5 planes
        data[at : at + 4] = np.float32(bad).tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError, match=f"{name} plane holds non-finite values"):
            formats.read_elevation_map(path)

    def test_zero_magnitude_pixel_keeps_its_minus_inf_snr(self, tmp_path, small_e2e):
        emap = small_e2e["map"]
        intf = emap.interferogram
        magnitude = intf.combined_magnitude.copy()
        magnitude[0, 0] = 0.0
        snr = im.snr_map(magnitude)
        poked = im.ElevationMap(
            grid=emap.grid,
            phase_center=emap.phase_center,
            wavelength_m=emap.wavelength_m,
            baseline_m=emap.baseline_m,
            elevation=emap.elevation,
            interferogram=im.InterferogramGrid(
                grid=emap.grid,
                mean_phase_delay=intf.mean_phase_delay,
                circular_variance=intf.circular_variance,
                combined_magnitude=magnitude,
                snr_db=snr,
            ),
        )
        path = tmp_path / "map.insarelv"
        formats.write_elevation_map(poked, path)
        back = formats.read_elevation_map(path)
        assert back.interferogram.snr_db[0, 0] == -np.inf
        assert np.isfinite(back.interferogram.snr_db.reshape(-1)[1:]).all()

    def test_truncation(self, tmp_path, small_e2e):
        path = tmp_path / "map.insarelv"
        formats.write_elevation_map(small_e2e["map"], path)
        data = path.read_bytes()
        path.write_bytes(data[:-100])
        with pytest.raises(DataFormatError, match="truncated"):
            formats.read_elevation_map(path)


class TestPgm:
    def test_pgm_header_and_size(self, tmp_path, small_e2e):
        stack = small_e2e["stack"]
        path = tmp_path / "vx00.pgm"
        formats.write_pgm(stack.images[0], path)
        data = path.read_bytes()
        header, rest = data.split(b"65535\n", 1)
        assert header.startswith(b"P5\n")
        dims = header.split(b"\n")[1].split()
        assert int(dims[0]) == stack.grid.n_u
        assert int(dims[1]) == stack.grid.n_v
        assert len(rest) == 2 * stack.grid.n_u * stack.grid.n_v


class TestFuzz:
    """Seeded byte flips and truncations of each binary format: every case
    either loads or raises DataFormatError (CLI exit 3), never anything
    else."""

    CASES = 150

    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        cfg = im.ChirpConfig(77.4e9, 30e12, 16, 18.75e6, 63.9e-6, 256, 3)
        array = im.default_virtual_array(im.derive_chirp_params(cfg).wavelength_m)
        traj = im.Trajectory(
            (
                im.Pose(0.0, np.array([0.0, 0.0, 0.4]), np.array([1.0, 0, 0, 0])),
                im.Pose(0.004, np.array([0.02, 0.0, 0.4]), np.array([1.0, 0, 0, 0])),
            )
        )
        scene = im.Scene((im.PointTarget(np.array([0.0, 3.0, 0.5]), 1.0),))
        cap = im.add_noise(im.synthesize_capture(scene, traj, cfg, array), 20.0, seed=1)
        grid = im.ImageGrid(np.array([-0.2, 2.8]), np.array([0.4, 0.4]), 0.04)
        stack = im.image_stack(cap, grid, im.Aperture(0.02))
        out = tmp_path_factory.mktemp("fuzz")
        paths = {"capture": out / "c.insarraw", "stack": out / "s.insarimg", "map": out / "m.insarelv"}
        formats.write_capture(cap, paths["capture"])
        formats.write_image_stack(stack, paths["stack"])
        formats.write_elevation_map(im.build_elevation_map(stack), paths["map"])
        return paths

    # garbage header values may overflow in the readers' validation arithmetic
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize(
        "kind, reader",
        [
            ("capture", formats.read_capture),
            ("stack", formats.read_image_stack),
            ("map", formats.read_elevation_map),
        ],
    )
    def test_damage_loads_or_is_a_format_error(self, tmp_path, artifacts, kind, reader):
        good = artifacts[kind].read_bytes()
        reader(artifacts[kind])
        rng = np.random.default_rng(2024)
        path = tmp_path / artifacts[kind].name
        for case in range(self.CASES):
            data = bytearray(good)
            if case % 3 == 0:
                data = data[: int(rng.integers(0, len(data)))]
            else:
                # half the flips land in the first 512 bytes, where the
                # header's sizes and values are
                span = 512 if case % 3 == 1 else len(data)
                for at in rng.integers(0, min(span, len(data)), size=int(rng.integers(1, 5))):
                    data[at] = int(rng.integers(0, 256))
            path.write_bytes(bytes(data))
            try:
                reader(path)
            except DataFormatError:
                pass
            except Exception as exc:
                pytest.fail(f"{kind} case {case}: {type(exc).__name__}: {exc}")
