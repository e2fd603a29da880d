"""Binary artifact round trips and corruption handling."""

import dataclasses

import numpy as np
import pytest

import insarmap as im
from insarmap import formats
from insarmap.errors import ConfigError, DataFormatError, DomainError
from insarmap.imaging import _select_aperture

from conftest import make_rail_trajectory


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


# 64 samples per chirp keep the aperture cases quick; one TDM cycle is
# 191.7 us, 0.38 mm along a 2 m/s track
PRI_S = 63.9e-6
CYCLE_S = 3 * PRI_S
CHIRP_M = 2.0 * PRI_S  # travel from one chirp to the next
APERTURE_CHIRP = im.ChirpConfig(77.4e9, 30e12, 64, 18.75e6, PRI_S, 256, 3)
APERTURE_GRID = im.ImageGrid(np.array([-0.2, 1.8]), np.array([0.4, 0.4]), 0.04)
IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def yaw_roll(yaw_deg, roll_deg):
    """Unit quaternion of a yaw about z after a roll about x."""
    y, r = np.radians(yaw_deg) / 2, np.radians(roll_deg) / 2
    q = np.array([np.cos(y) * np.cos(r), np.cos(y) * np.sin(r), np.sin(y) * np.sin(r), np.sin(y) * np.cos(r)])
    return q / np.linalg.norm(q)


def bent_track():
    """A pass that runs straight at 2 m/s, then turns left and speeds up to
    4 m/s: the chord of a part of it points another way than the chord of
    the whole, and an aperture about the turn is not centered in time."""
    rows = [(-0.02, -0.04, 0.0), (-0.01, -0.02, 0.0), (0.0, 0.0, 0.0), (0.01, 0.01, 0.03), (0.02, 0.01, 0.07)]
    return im.Trajectory(tuple(im.Pose(t, np.array([x, y, 0.4]), IDENTITY) for t, x, y in rows))


def rotated_rail():
    traj = make_rail_trajectory(2.0, 0.02, 0.4)
    return im.Trajectory(tuple(im.Pose(p.time_s, p.position, yaw_roll(20.0, 3.0)) for p in traj.poses))


def per_chirp_poses(capture, traj):
    """capture with each chirp's records at the pose of their own emission
    time, so a TDM cycle holds three poses."""
    times, pose_index = np.unique(capture.time_s, return_inverse=True)
    poses = tuple(im.pose_at_time(traj, float(t)) for t in times)
    return dataclasses.replace(capture, poses=poses, pose_index=pose_index)


@pytest.fixture(scope="module")
def capture_files(tmp_path_factory):
    """Noisy captures written to files, one per trajectory."""
    array = im.default_virtual_array(im.derive_chirp_params(APERTURE_CHIRP).wavelength_m)
    scene = im.Scene((im.PointTarget(np.array([0.0, 2.0, 0.6]), 1.0),))
    out = tmp_path_factory.mktemp("aperture")
    paths = {}
    rail = make_rail_trajectory(2.0, 0.02, 0.4)
    for name, traj in (("rail", rail), ("bent", bent_track()), ("rotated", rotated_rail())):
        capture = im.add_noise(im.synthesize_capture(scene, traj, APERTURE_CHIRP, array), 20.0, seed=5)
        paths[name] = out / f"{name}.insarraw"
        formats.write_capture(capture, paths[name])
        if name == "rail":
            paths["per-chirp"] = out / "per-chirp.insarraw"
            formats.write_capture(per_chirp_poses(capture, rail), paths["per-chirp"])
    return paths


class TestApertureRead:
    """read_capture(path, aperture) reads only the aperture's records, and
    image_stack images them to the bits it makes from the whole capture."""

    @pytest.mark.parametrize(
        "track, aperture",
        [
            pytest.param("bent", im.Aperture(0.01), id="curved trajectory"),
            pytest.param("bent", im.Aperture(0.01, center_time_s=0.008), id="curved, off-center"),
            pytest.param("rotated", im.Aperture(0.01, center_time_s=-0.005), id="rotated array"),
            # 0.3 of the way from one cycle anchor to the next; then 0.7,
            # before the anchor of the one cycle the aperture holds
            pytest.param("rail", im.Aperture(0.01, center_time_s=-0.02 + 120.3 * CYCLE_S),
                         id="explicit center time"),
            pytest.param("rail", im.Aperture(2e-4, center_time_s=-0.02 + 120.7 * CYCLE_S),
                         id="shorter than one cycle"),
            pytest.param("rail", im.Aperture(0.02, center_time_s=-0.02), id="at the capture start"),
            pytest.param("rail", im.Aperture(0.02, center_time_s=0.0196), id="at the capture end"),
            # The aperture, 1.5 chirps of travel either side, picks the last
            # chirp of the cycle before the center one.  Alone, that chirp's
            # pose would anchor its cycle, 0.4 chirps from the center time,
            # nearer than the center cycle's anchor at 0.6.
            pytest.param("per-chirp", im.Aperture(3 * CHIRP_M, center_time_s=-0.02 + 121 * CYCLE_S - 0.6 * PRI_S),
                         id="per-chirp poses, a cycle cut by the aperture"),
        ],
    )
    def test_images_the_whole_capture_bits(self, capture_files, track, aperture):
        whole = formats.read_capture(capture_files[track])
        cut = formats.read_capture(capture_files[track], aperture)
        sel, center = _select_aperture(whole, aperture)
        # the cut holds the whole cycles of the records the rule picks
        keep = np.flatnonzero(np.isin(whole.cycle, whole.cycle[sel]))
        assert sel.size <= keep.size < whole.n_records
        assert np.array_equal(cut.samples, whole.samples[keep])
        for name in ("tx", "rx", "cycle", "time_s", "pose_index"):
            assert np.array_equal(getattr(cut, name), getattr(whole, name)[keep])
        assert len(cut.poses) == len(whole.poses)
        cut_sel, cut_center = _select_aperture(cut, aperture)
        assert np.array_equal(keep[cut_sel], sel)
        assert cut_center.position.tobytes() == center.position.tobytes()
        if track != "per-chirp":  # one pose per cycle: the rule picks all of the cut
            assert cut_sel.size == cut.n_records
        a, b = (im.image_stack(c, APERTURE_GRID, aperture) for c in (cut, whole))
        assert a.images.tobytes() == b.images.tobytes()
        assert a.phase_center.tobytes() == b.phase_center.tobytes()


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

    def damaged(self, good: bytes, path):
        """Write each seeded damaged copy of good to path in turn, yielding
        its case number."""
        rng = np.random.default_rng(2024)
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
            yield case

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
        reader(artifacts[kind])
        path = tmp_path / artifacts[kind].name
        for case in self.damaged(artifacts[kind].read_bytes(), path):
            try:
                reader(path)
            except DataFormatError:
                pass
            except Exception as exc:
                pytest.fail(f"{kind} case {case}: {type(exc).__name__}: {exc}")

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_aperture_read_damage_loads_or_fails_cleanly(self, tmp_path, artifacts):
        # the aperture rule's own errors (say, for a pose far beyond the
        # others) are DomainErrors, as image_stack raises them
        aperture = im.Aperture(0.01)
        formats.read_capture(artifacts["capture"], aperture)
        path = tmp_path / "c.insarraw"
        for case in self.damaged(artifacts["capture"].read_bytes(), path):
            try:
                formats.read_capture(path, aperture)
            except (DataFormatError, DomainError):
                pass
            except Exception as exc:
                pytest.fail(f"aperture read case {case}: {type(exc).__name__}: {exc}")
