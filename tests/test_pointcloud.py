"""De-projection, filter chain, and PCD/CSV output."""

import os
import re

import numpy as np
import pytest

import insarmap as im
from insarmap.errors import ConfigError, DataFormatError
from insarmap.imaging import ImageGrid
from insarmap.interferometry import ElevationMap

from conftest import make_rail_trajectory, output_pipe


def synthetic_map(rng, n=24, snr_spread=30.0):
    """Random elevation map with plausible value ranges."""
    grid = ImageGrid(np.array([-3.0, 0.5]), np.array([6.0, 6.0]), 6.0 / n)
    shape = (grid.n_u, grid.n_v)
    mag = rng.uniform(0.1, 10.0, shape)
    snr = 20.0 * np.log10(mag / np.median(mag))
    phi = rng.uniform(-np.pi / 2, np.pi / 2, shape)
    phi[rng.random(shape) < 0.05] = np.nan
    return ElevationMap(
        grid=grid,
        phase_center=np.array([0.0, 0.0, 1.0]),
        wavelength_m=0.00387,
        baseline_m=0.00387 / 4,
        elevation=phi,
        mean_phase_delay=rng.uniform(-np.pi, np.pi, shape),
        circular_variance=rng.uniform(0.0, 0.4, shape),
        combined_magnitude=mag,
        snr_db=snr,
    )


class TestSpherical:
    def test_cartesian_example(self):
        s = im.spherical_to_cartesian(10.0, np.radians(90), np.radians(30))
        assert s[0] == pytest.approx(0.0, abs=1e-12)
        assert s[1] == pytest.approx(8.660, abs=5e-4)
        assert s[2] == pytest.approx(5.0, rel=1e-12)

    def test_ground_plane_identity(self):
        r, theta = 7.3, 0.8
        s = im.spherical_to_cartesian(r, theta, 0.0)
        assert s[0] == pytest.approx(r * np.cos(theta), rel=1e-12)
        assert s[1] == pytest.approx(r * np.sin(theta), rel=1e-12)
        assert s[2] == 0.0

    def test_norm_preserved(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            r = rng.uniform(0, 50)
            theta = rng.uniform(-np.pi, np.pi)
            phi = rng.uniform(-np.pi / 2, np.pi / 2)
            s = im.spherical_to_cartesian(r, theta, phi)
            assert np.sqrt(s[0] ** 2 + s[1] ** 2 + s[2] ** 2) == pytest.approx(r, rel=1e-12, abs=1e-12)


class TestFilterChain:
    def base_config(self):
        return im.FilterConfig(sensor_height_m=1.0)

    def test_low_snr_point_removed(self, small_e2e):
        emap = small_e2e["map"]
        base = im.filter_points(emap, im.FilterConfig(snr_threshold_db=15, sensor_height_m=0.5))
        assert np.all(base.snr_db >= 15.0)

    def test_every_emitted_point_satisfies_predicates(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            emap = synthetic_map(rng)
            cfg = im.FilterConfig(
                snr_threshold_db=rng.uniform(-5, 25),
                max_elevation_angle_deg=rng.uniform(10, 90),
                min_radius_m=rng.uniform(0, 4),
                front_azimuth_halfwidth_deg=rng.uniform(5, 45),
                max_circular_variance=rng.uniform(0.02, 0.5),
                sensor_height_m=rng.uniform(0, 2),
            )
            cloud = im.filter_points(emap, cfg)
            r = np.hypot(cloud.x, np.hypot(cloud.y, cloud.z))
            assert np.all(cloud.snr_db >= cfg.snr_threshold_db)
            assert np.all(cloud.circular_variance <= cfg.max_circular_variance)
            # the bound is on the measured elevation, the angle above the sensor plane
            eps = np.arcsin(np.clip(cloud.z / np.maximum(r, 1e-12), -1, 1))
            assert np.all(np.abs(eps) <= np.radians(cfg.max_elevation_angle_deg) + 1e-9)
            assert np.all(cloud.z >= cfg.resolved_min_z_m)
            theta = np.arctan2(np.hypot(cloud.y, cloud.z), cloud.x)
            in_cone = (r < cfg.min_radius_m) & (
                np.abs(theta - np.radians(cfg.front_azimuth_deg))
                <= np.radians(cfg.front_azimuth_halfwidth_deg)
            )
            assert not np.any(in_cone)

    def test_tightening_thresholds_never_adds_points(self):
        rng = np.random.default_rng(123)
        emap = synthetic_map(rng, n=40)
        base_cfg = self.base_config()
        base = im.filter_points(emap, base_cfg)
        base_set = set(zip(base.x.tolist(), base.y.tolist(), base.z.tolist()))
        tighter = [
            im.FilterConfig(snr_threshold_db=18, sensor_height_m=1.0),
            im.FilterConfig(max_elevation_angle_deg=30, sensor_height_m=1.0),
            im.FilterConfig(min_radius_m=3.5, sensor_height_m=1.0),
            im.FilterConfig(front_azimuth_halfwidth_deg=40, sensor_height_m=1.0),
            im.FilterConfig(max_circular_variance=0.05, sensor_height_m=1.0),
            im.FilterConfig(min_z_m=-0.2, sensor_height_m=1.0),
        ]
        for cfg in tighter:
            cloud = im.filter_points(emap, cfg)
            got = set(zip(cloud.x.tolist(), cloud.y.tolist(), cloud.z.tolist()))
            assert got <= base_set

    def test_boundary_cases_at_default_thresholds(self):
        grid = ImageGrid(np.array([-2.0, 0.0]), np.array([4.0, 6.0]), 1.0)
        shape = (grid.n_u, grid.n_v)
        mag = np.ones(shape)
        # pixel (2, v) sits at u = 0.5: nearly broadside column
        snr = np.zeros(shape)
        snr[2, :] = np.array([30.0, 14.0, 15.0, 30.0, 30.0, 30.0])
        phi = np.zeros(shape)
        phi[2, 3] = np.radians(50.0)
        phi[2, 4] = np.radians(44.0)
        emap = ElevationMap(
            grid=grid,
            phase_center=np.array([0.5, 0.0, 2.0]),
            wavelength_m=0.00387,
            baseline_m=0.00387 / 4,
            elevation=phi,
            mean_phase_delay=np.zeros(shape),
            circular_variance=np.zeros(shape),
            combined_magnitude=mag,
            snr_db=snr,
        )
        cfg = im.FilterConfig(sensor_height_m=2.0)
        cloud = im.filter_points(emap, cfg)
        # broadside column, v centers at 0.5..5.5 from the phase center:
        # iv=0: r=0.5 inside the front cone -> removed
        # iv=1: r=1.5 in-cone and snr 14 -> removed; iv=2: snr 15 boundary -> kept
        # iv=3: elevation 50 deg -> removed; iv=4: 44 deg -> kept; iv=5 -> kept
        r_kept = np.hypot(cloud.x, np.hypot(cloud.y, cloud.z))
        assert np.all(r_kept >= 2.0)
        assert len(cloud) == 3
        assert any(abs(p - 2.5) < 1e-6 for p in np.hypot(cloud.y, cloud.z))
        phis = np.degrees(np.arcsin(cloud.z / np.hypot(cloud.y, cloud.z)))
        assert not any(abs(p - 50.0) < 1.0 for p in phis)
        assert any(abs(p - 44.0) < 1.0 for p in phis)

    def test_close_range_forward_point_removed(self):
        grid = ImageGrid(np.array([-0.5, 1.0]), np.array([1.0, 1.0]), 1.0)
        emap = ElevationMap(
            grid=grid,
            phase_center=np.zeros(3),
            wavelength_m=0.00387,
            baseline_m=0.00387 / 4,
            elevation=np.zeros((1, 1)),
            mean_phase_delay=np.zeros((1, 1)),
            circular_variance=np.zeros((1, 1)),
            combined_magnitude=np.ones((1, 1)),
            snr_db=np.full((1, 1), 30.0),
        )
        # pixel at (0, 1.5): r = 1.5 straight ahead -> inside exclusion cone
        cloud = im.filter_points(emap, im.FilterConfig())
        assert len(cloud) == 0
        assert cloud.stats.rejected["front_cone"] == 1

    @pytest.mark.simd
    def test_row_blocks_give_the_points_of_whole_planes(self):
        # filter_points works one block of grid rows at a time; on a grid of
        # several blocks its points and counts must be those of the same
        # operations over whole planes, in grid order
        from insarmap import imaging
        from insarmap.pointcloud import _wrap_angle

        emap = synthetic_map(np.random.default_rng(11), n=300)
        assert len(imaging._row_blocks(emap.grid)) == 6
        cfg = im.FilterConfig(snr_threshold_db=0.0, max_circular_variance=0.3, min_radius_m=3.0, sensor_height_m=1.0)
        pc = emap.phase_center
        du = emap.grid.u_centers()[:, None] - pc[0]
        dv = emap.grid.v_centers()[None, :] - pc[1]
        r, theta, eps = np.hypot(du, dv), np.arctan2(dv, du), emap.elevation
        with np.errstate(invalid="ignore", divide="ignore"):
            phi = np.arcsin(np.sin(eps) / np.sin(theta))
        s_x, s_y, s_z = im.spherical_to_cartesian(r, theta, phi)
        has_phi = np.isfinite(phi)
        with np.errstate(invalid="ignore"):
            ok_elev = np.abs(eps) <= np.deg2rad(cfg.max_elevation_angle_deg)
            cone = (r < cfg.min_radius_m) & (
                np.abs(_wrap_angle(theta - np.deg2rad(cfg.front_azimuth_deg)))
                <= np.deg2rad(cfg.front_azimuth_halfwidth_deg)
            )
            ok_z = s_z >= cfg.resolved_min_z_m
        ok_snr, ok_var = emap.snr_db >= cfg.snr_threshold_db, emap.circular_variance <= cfg.max_circular_variance
        keep = has_phi & ok_snr & ok_var & ok_elev & ~cone & ok_z
        cloud = im.filter_points(emap, cfg)
        assert 0 < len(cloud) < keep.size
        for got, want in ((cloud.x, s_x), (cloud.y, s_y), (cloud.z, s_z), (cloud.intensity, emap.combined_magnitude),
                          (cloud.snr_db, emap.snr_db), (cloud.circular_variance, emap.circular_variance)):
            assert got.tobytes() == want[keep].tobytes()
        assert cloud.stats.candidates == keep.size and cloud.stats.kept == np.count_nonzero(keep)
        assert cloud.stats.rejected == {
            "no_elevation": np.count_nonzero(~has_phi),
            "snr": np.count_nonzero(~ok_snr),
            "circular_variance": np.count_nonzero(~ok_var),
            "elevation_angle": np.count_nonzero(has_phi & ~ok_elev),
            "front_cone": np.count_nonzero(cone),
            "underground": np.count_nonzero(has_phi & ~ok_z),
        }

    def test_empty_cloud_is_legal(self):
        rng = np.random.default_rng(1)
        emap = synthetic_map(rng)
        cloud = im.filter_points(emap, im.FilterConfig(snr_threshold_db=np.inf, sensor_height_m=1.0))
        assert len(cloud) == 0
        assert cloud.stats.rejected["snr"] == cloud.stats.candidates

    def test_deprojection_end_to_end(self, small_e2e, small_scene_truth):
        emap = small_e2e["map"]
        cloud = im.filter_points(emap, im.FilterConfig(sensor_height_m=0.5))
        pc = emap.phase_center
        for truth in small_scene_truth:
            world = truth["position"]
            pts = np.stack([cloud.x + pc[0], cloud.y + pc[1], cloud.z + pc[2]], axis=1)
            dist = np.linalg.norm(pts - world, axis=1)
            # the target appears in the cloud within two pixels of its true
            # 3D position, and that point carries real signal energy
            best = np.argmin(dist)
            assert dist[best] <= 0.08
            assert cloud.intensity[best] > 0.1 * cloud.intensity.max()

    def test_angle_invariants_rejected(self):
        with pytest.raises(ConfigError):
            im.FilterConfig(max_elevation_angle_deg=0.0)
        with pytest.raises(ConfigError):
            im.FilterConfig(front_azimuth_halfwidth_deg=120.0)
        # a non-finite cone axis used to turn the front-cone filter off
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ConfigError, match="front_azimuth_deg"):
                im.FilterConfig(front_azimuth_deg=value)


class TestDeprojectedHeights:
    """Noiseless single targets imaged on a 1 cm grid, squinted and not."""

    # keeps every pixel that de-projects
    KEEP_ALL = im.FilterConfig(
        snr_threshold_db=-np.inf, max_elevation_angle_deg=90.0, min_radius_m=0.0,
        max_circular_variance=1.0, min_z_m=-100.0,
    )

    @pytest.mark.parametrize("x", [0.0, 0.5, 1.5])
    def test_height_of_the_brightest_point(self, small_chirp, x):
        # A vertical baseline measures sin(eps) = dz / r.  Taking eps for the
        # angle about the aperture axis scaled every height by sin(theta):
        # -6.0 cm at x = 1.5 m, dz = 0.6 m, where sin(theta) = 0.90.
        array = im.default_virtual_array(im.derive_chirp_params(small_chirp).wavelength_m)
        traj = make_rail_trajectory(5.0, 0.03, 0.5)
        errors = []
        for dz in (-0.3, 0.3, 0.6):
            target = np.array([x, 3.0, 0.5 + dz])
            capture = im.synthesize_capture(im.Scene([target], [1.0]), traj, small_chirp, array)
            # the image plane is the sensor plane, where the target lies at its slant range
            slant = np.hypot(3.0, dz)
            grid = ImageGrid(np.array([x - 0.12, slant - 0.12]), np.array([0.24, 0.24]), 0.01)
            emap = im.build_elevation_map(im.image_stack(capture, grid, im.Aperture(0.3)))
            cloud = im.filter_points(emap, self.KEEP_ALL)
            best = np.argmax(cloud.intensity)
            errors.append(float(cloud.z[best] + emap.phase_center[2] - target[2]))
        assert max(abs(e) for e in errors) <= 0.01, errors


class TestPcdIo:
    def make_cloud(self, n, rng):
        stats = im.pointcloud.FilterStats(candidates=n, kept=n, rejected={})
        return im.ElevationPointCloud(
            x=rng.uniform(-10, 10, n),
            y=rng.uniform(0, 20, n),
            z=rng.uniform(-1, 5, n),
            intensity=rng.uniform(0, 100, n),
            snr_db=rng.uniform(0, 40, n),
            circular_variance=rng.uniform(0, 1, n),
            stats=stats,
        )

    def test_empty_cloud_header(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "empty.pcd"
        im.write_pcd(self.make_cloud(0, rng), path)
        text = path.read_text().splitlines()
        assert "WIDTH 0" in text
        assert "POINTS 0" in text
        assert text[-1] == "DATA ascii"
        fields = im.read_pcd(path)
        assert fields["x"].shape == (0,)

    def test_single_point_line(self, tmp_path):
        stats = im.pointcloud.FilterStats(candidates=1, kept=1, rejected={})
        cloud = im.ElevationPointCloud(
            x=np.array([1.0]),
            y=np.array([2.0]),
            z=np.array([3.0]),
            intensity=np.array([0.5]),
            snr_db=np.array([20.0]),
            circular_variance=np.array([0.0]),
            stats=stats,
        )
        path = tmp_path / "one.pcd"
        im.write_pcd(cloud, path)
        assert path.read_text().splitlines()[-1] == "1 2 3 0.5"

    def test_round_trip_precision(self, tmp_path):
        rng = np.random.default_rng(77)
        cloud = self.make_cloud(500, rng)
        path = tmp_path / "cloud.pcd"
        im.write_pcd(cloud, path)
        fields = im.read_pcd(path)
        for name, ref in (("x", cloud.x), ("y", cloud.y), ("z", cloud.z), ("intensity", cloud.intensity)):
            assert np.allclose(fields[name], ref, rtol=1e-4, atol=1e-7)

    @pytest.mark.parametrize(
        "body",
        [
            pytest.param(b"POINTS two\nDATA ascii\n1 2 3 4\n5 6 7 8\n", id="non-integer POINTS"),
            pytest.param(b"POINTS 2\nDATA ascii\n1 2 3 4\n5 6 7\n", id="short row"),
            pytest.param(b"POINTS 2\nDATA ascii\n1 2 3 4\n5 6 x 8\n", id="non-numeric value"),
            pytest.param(b"POINTS 2\nDATA ascii\n1 2 3 4\n5 6 7 8\xb0\n", id="non-ASCII byte"),
        ],
    )
    def test_malformed_pcd_is_a_format_error_naming_the_file(self, tmp_path, body):
        path = tmp_path / "bad.pcd"
        path.write_bytes(b"# .PCD v0.7\nFIELDS x y z intensity\n" + body)
        with pytest.raises(DataFormatError, match=re.escape(str(path))):
            im.read_pcd(path)

    def test_csv_export(self, tmp_path):
        rng = np.random.default_rng(3)
        cloud = self.make_cloud(10, rng)
        path = tmp_path / "cloud.csv"
        im.write_csv(cloud, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,z,intensity,snr_db,circ_var"
        assert len(lines) == 11

    @pytest.mark.parametrize("n", [0, 1, 7, 300])
    def test_writers_match_formatting_each_value(self, tmp_path, n):
        rng = np.random.default_rng(n)
        cloud = self.make_cloud(n, rng)
        if n:
            # a signed zero, a subnormal-scale and a huge value in every column
            for k, name in enumerate(("x", "y", "z", "intensity", "snr_db", "circular_variance")):
                getattr(cloud, name)[k % n] = -0.0
                getattr(cloud, name)[(k + 1) % n] = 1e-300
                getattr(cloud, name)[(k + 2) % n] = 1e300
        pcd, csv = tmp_path / "c.pcd", tmp_path / "c.csv"
        im.write_pcd(cloud, pcd)
        im.write_csv(cloud, csv)
        pcd_rows = [f"{cloud.x[i]:.6g} {cloud.y[i]:.6g} {cloud.z[i]:.6g} {cloud.intensity[i]:.6g}\n"
                    for i in range(n)]
        csv_rows = [
            f"{cloud.x[i]:.9g},{cloud.y[i]:.9g},{cloud.z[i]:.9g},"
            f"{cloud.intensity[i]:.9g},{cloud.snr_db[i]:.9g},{cloud.circular_variance[i]:.9g}\n"
            for i in range(n)
        ]
        assert pcd.read_text().endswith("DATA ascii\n" + "".join(pcd_rows))
        assert csv.read_text() == "x,y,z,intensity,snr_db,circ_var\n" + "".join(csv_rows)
        if n >= 3:
            assert "-0 " in pcd.read_text() and "1e-300" in csv.read_text() and "1e+300" in csv.read_text()

    @pytest.mark.parametrize("writer", ["write_pcd", "write_csv"])
    def test_a_failing_writer_leaves_no_file(self, tmp_path, monkeypatch, writer):
        # as the binary writers do; the text writers used to leave the rows
        # written so far
        def fail(fh, row, columns):
            fh.write(row % tuple(c[0] for c in columns))
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(im.pointcloud, "_write_rows", fail)
        cloud = self.make_cloud(10, np.random.default_rng(5))
        path = tmp_path / "cloud.out"
        with pytest.raises(OSError, match="No space left"):
            getattr(im, writer)(cloud, path)
        assert not path.exists()
        # an existing output is left as it was, and no new file beside it
        path.write_text("an earlier cloud\n")
        with pytest.raises(OSError, match="No space left"):
            getattr(im, writer)(cloud, path)
        assert path.read_text() == "an earlier cloud\n"
        assert list(tmp_path.iterdir()) == [path]
        # nothing is sent into a pipe; the header and a row used to be
        if hasattr(os, "mkfifo"):
            pipe = tmp_path / "pipe"
            with pytest.raises(OSError, match="No space left"), output_pipe(pipe) as received:
                getattr(im, writer)(cloud, pipe)
            assert received == b""

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("writer", ["write_pcd", "write_csv"])
    def test_a_pipe_receives_the_bytes_of_a_file(self, tmp_path, writer):
        cloud = self.make_cloud(50, np.random.default_rng(8))
        getattr(im, writer)(cloud, tmp_path / "file")
        with output_pipe(tmp_path / "pipe") as received:
            getattr(im, writer)(cloud, tmp_path / "pipe")
        assert received == (tmp_path / "file").read_bytes()

    def test_writers_take_a_file_open_for_writing(self, tmp_path):
        # the pointcloud stage opens both of its outputs before it writes
        # either, and hands the writers the open files
        cloud = self.make_cloud(50, np.random.default_rng(8))
        for writer in (im.write_pcd, im.write_csv):
            writer(cloud, tmp_path / "by_path")
            with open(tmp_path / "by_file", "w", encoding="ascii", newline="\n") as fh:
                writer(cloud, fh)
                assert not fh.closed
            assert (tmp_path / "by_file").read_bytes() == (tmp_path / "by_path").read_bytes()
