"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines.  Criterion 1 simulates the full chamber experiment twice and is the
slow one (tens of seconds); everything else is quick.
"""

import hashlib
import time

import numpy as np
import pytest

import insarmap as im
from insarmap import cli
from insarmap.imaging import _select_aperture

from conftest import make_rail_trajectory

C = 299_792_458.0


def report(line):
    print(f"\nACCEPTANCE {line}")


def reference_config(num_tx=3, pri=63.9e-6, samples=512):
    return im.ChirpConfig(
        center_frequency_hz=77.4e9,
        ramp_slope_hz_per_s=30e12,
        samples_per_chirp=samples,
        sample_rate_sps=18.75e6,
        pri_s=pri,
        chirps_per_tx_per_frame=256,
        num_tx=num_tx,
    )


class TestCriterion1ReflectorAccuracy:
    """Chamber analog: rail aperture, two corner reflectors, 20 dB SNR."""

    SENSOR_HEIGHT = 0.9
    SPEED = 5.0  # rail speed; 0.96 mm pulse spacing keeps azimuth unaliased

    def run_case(self, z_mounted, seed, x_mounted=0.44):
        t_start = time.monotonic()
        cfg = reference_config()
        derived = im.derive_chirp_params(cfg)
        array = im.default_virtual_array(derived.wavelength_m)
        # anchor a TDM cycle exactly at x = 0 so the phase center is clean
        epri = derived.effective_pri_s
        t_half = 522 * epri
        traj = make_rail_trajectory(self.SPEED, t_half, self.SENSOR_HEIGHT, margin_s=epri)
        # x = 0 and the default x_mounted sit on 4 cm pixel centers of the grid below
        reflectors = [
            np.array([0.0, 3.2, 0.05]),
            np.array([x_mounted, 4.6, z_mounted]),
        ]
        scene = im.Scene(reflectors, [1.0, 1.0])
        capture = im.synthesize_capture(scene, traj, cfg, array)
        capture = im.add_noise(capture, 20.0, seed=seed)
        grid = im.ImageGrid(np.array([-4.98, 0.0]), np.array([10.0, 10.0]), 0.04)
        stack = im.image_stack(capture, grid, im.Aperture(1.0), threads=2)
        emap = im.build_elevation_map(stack)
        cloud = im.filter_points(emap, im.FilterConfig(sensor_height_m=self.SENSOR_HEIGHT))
        elapsed = time.monotonic() - t_start

        pc = emap.phase_center
        recovered = []
        for target in reflectors:
            rel = target - pc
            slant = np.hypot(rel[1], rel[2])
            near = (np.abs(cloud.x - rel[0]) < 0.25) & (
                np.abs(np.hypot(cloud.y, cloud.z) - slant) < 0.25
            )
            assert near.any(), f"no cloud points near reflector at z={target[2]}"
            best = np.flatnonzero(near)[np.argmax(cloud.intensity[near])]
            recovered.append(float(cloud.z[best] + pc[2]))
        return recovered, elapsed

    @pytest.mark.parametrize("z_mounted,seed", [(0.33, 11), (0.63, 12)])
    def test_reflector_elevation_within_2cm(self, z_mounted, seed):
        recovered, elapsed = self.run_case(z_mounted, seed)
        err_ground = abs(recovered[0] - 0.05)
        err_mounted = abs(recovered[1] - z_mounted)
        report(
            f"1 reflector z={z_mounted:.2f}: ground {recovered[0]*100:.2f} cm "
            f"(err {err_ground*100:.2f} cm), mounted {recovered[1]*100:.2f} cm "
            f"(err {err_mounted*100:.2f} cm), runtime {elapsed:.1f} s -> "
            f"{'PASS' if max(err_ground, err_mounted) <= 0.02 and elapsed <= 60 else 'FAIL'}"
        )
        assert err_ground <= 0.02
        assert err_mounted <= 0.02
        assert elapsed <= 60.0


    def test_squinted_reflector_elevation_within_2cm(self):
        # the mounted reflector 1.5 m off broadside, where sin(theta) = 0.95:
        # its height needs the elevation de-projected about the aperture
        # axis; and at x = 0.46 m, 2 cm off the 0.44 m pixel center, half a
        # pixel from where the other cases sit on the 4 cm grid
        for x_mounted in (1.5, 0.46):
            recovered, _ = self.run_case(0.33, 11, x_mounted=x_mounted)
            err_ground = recovered[0] - 0.05
            err_mounted = recovered[1] - 0.33
            report(
                f"1 analogue, mounted reflector at x = {x_mounted:g} m: ground err {err_ground*100:+.2f} cm, "
                f"mounted err {err_mounted*100:+.2f} cm -> "
                f"{'PASS' if max(abs(err_ground), abs(err_mounted)) <= 0.02 else 'FAIL'}"
            )
            assert abs(err_ground) <= 0.02, x_mounted
            assert abs(err_mounted) <= 0.02, x_mounted


class TestCriterion2DerivedParameters:
    def test_reference_design_values_at_stated_precision(self):
        d = im.derive_chirp_params(reference_config())
        checks = [
            ("range resolution", d.range_resolution_m, 0.183, 5e-4),
            ("max range", d.max_range_m, 93.7, 5e-2),
            ("pulse length", d.pulse_length_s, 27.3e-6, 5e-8),
            ("effective PRI", d.effective_pri_s, 191.7e-6, 5e-8),
            ("wavelength", d.wavelength_m, 3.87e-3, 5e-6),
        ]
        for name, got, want, tol in checks:
            assert abs(got - want) <= tol, f"{name}: {got} != {want} +- {tol}"
        report("2 derived parameters match the design reference values -> PASS")


class TestCriterion3AzimuthPointResponse:
    SPEED = 5.0

    def test_fwhm_within_25_percent(self):
        # broadside point target at 10 m, 1 m aperture, imaged at the
        # standard 4 cm pixel pitch with the target on a pixel center
        cfg = reference_config(num_tx=1, pri=191.7e-6)
        lam = im.derive_chirp_params(cfg).wavelength_m
        array = im.build_virtual_array([(0.0, 0, 0)], [(0.0, 0, 0)])
        traj = make_rail_trajectory(self.SPEED, 0.11, 0.9, margin_s=cfg.pri_s)
        scene = im.Scene([[0.0, 10.0, 0.9]], [1.0])
        capture = im.synthesize_capture(scene, traj, cfg, array)
        grid = im.ImageGrid(np.array([-0.54, 9.58]), np.array([1.08, 0.84]), 0.04)
        img = im.image_stack(capture, grid, im.Aperture(1.0), threads=2).images[0]

        mag = np.abs(img)
        iu, iv = np.unravel_index(np.argmax(mag), mag.shape)
        cut = mag[:, iv] / mag[iu, iv]
        u = grid.u_centers()

        def crossing(direction):
            i = iu
            while 0 <= i + direction < len(cut):
                j = i + direction
                if cut[j] < 0.5 <= cut[i]:
                    f = (cut[i] - 0.5) / (cut[i] - cut[j])
                    return u[i] + f * (u[j] - u[i])
                i = j
            raise AssertionError("no half-maximum crossing found")

        fwhm_m = crossing(+1) - crossing(-1)
        fwhm_deg = np.degrees(fwhm_m / 10.0)
        predicted_deg = np.degrees(im.predicted_azimuth_resolution(1.0, lam, np.pi / 2))
        rel = abs(fwhm_deg - predicted_deg) / predicted_deg
        report(
            f"3 azimuth FWHM {fwhm_deg:.4f} deg vs predicted {predicted_deg:.4f} deg "
            f"({100*rel:.1f}% off) -> {'PASS' if rel <= 0.25 else 'FAIL'}"
        )
        assert predicted_deg == pytest.approx(0.222, abs=5e-4)
        assert rel <= 0.25


class TestCriterion4BaselineGain:
    def test_sqrt_n_snr_gain(self):
        rng = np.random.default_rng(40_000)
        trials = 10_000
        sigma = 0.05
        true_phase = 0.3

        def phase_error_std(n_baselines):
            lower = np.exp(1j * true_phase) + sigma * (
                rng.standard_normal((trials, n_baselines))
                + 1j * rng.standard_normal((trials, n_baselines))
            )
            upper = 1.0 + sigma * (
                rng.standard_normal((trials, n_baselines))
                + 1j * rng.standard_normal((trials, n_baselines))
            )
            phase, _ = im.mean_phase_delay(lower, upper, axis=1)
            return np.std(np.angle(np.exp(1j * (phase - true_phase))))

        ratio = phase_error_std(4) / phase_error_std(1)
        report(f"4 sqrt(N) gain: std ratio N=4/N=1 = {ratio:.3f} -> "
               f"{'PASS' if abs(ratio - 0.5) <= 0.1 else 'FAIL'}")
        assert ratio == pytest.approx(0.5, abs=0.1)


class TestCriterion5EquationRoundTrips:
    def test_identities(self):
        lam = C / 77.4e9
        d_v = lam / 4
        worst_rt = 0.0
        for phi in np.linspace(-np.pi / 2, np.pi / 2, 1001):
            back = im.elevation_from_phase(im.phase_from_elevation(phi, d_v, lam), d_v, lam)
            worst_rt = max(worst_rt, abs(back - phi))
        assert worst_rt <= 1e-12

        worst_tau = 0.0
        for phi in np.linspace(-np.pi / 2, np.pi / 2, 101):
            via_tau = 2 * np.pi * (C / lam) * 2 * im.tau_from_elevation(phi, d_v)
            direct = im.phase_from_elevation(phi, d_v, lam)
            if direct != 0:
                worst_tau = max(worst_tau, abs(via_tau - direct) / abs(direct))
        assert worst_tau <= 1e-12

        rng = np.random.default_rng(5)
        worst_norm = 0.0
        for _ in range(1000):
            r = rng.uniform(0, 100)
            s = im.spherical_to_cartesian(r, rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi / 2, np.pi / 2))
            norm = np.sqrt(s[0] ** 2 + s[1] ** 2 + s[2] ** 2)
            worst_norm = max(worst_norm, abs(norm - r) / max(r, 1e-300))
        assert worst_norm <= 1e-12
        report(
            f"5 equation round trips: elevation {worst_rt:.2e} rad, two-way {worst_tau:.2e} rel, "
            f"norm {worst_norm:.2e} rel -> PASS"
        )


class TestCriterion6BackprojectionOracle:
    def test_fbp_matches_direct_correlation(self):
        t_start = time.monotonic()
        cfg = reference_config(num_tx=1, samples=128)
        array = im.build_virtual_array([(0.0, 0, 0)], [(0.0, 0, 0)])
        traj = make_rail_trajectory(1.0, 0.01, 0.0)
        scene = im.Scene([[1.0, 6.0, 0.0], [-2.0, 7.5, 0.0], [2.5, 9.0, 0.3]], [1.0, 0.7, 1.3])
        capture = im.synthesize_capture(scene, traj, cfg, array, (-0.01, -0.01 + 48 * cfg.pri_s))
        grid = im.ImageGrid(np.array([-4.0, 4.0]), np.array([8.0, 8.0]), 0.25)
        aperture = im.Aperture(1.0)
        # linear interpolation meets the bound from 64x oversampling on
        # (3.8e-4 measured; 1.6e-3 at 32x)
        img = im.image_stack(capture, grid, aperture, oversample_factor=64).images[0]

        sel, center = _select_aperture(capture, aperture)
        n = np.arange(cfg.samples_per_chirp)
        worst = 0.0
        for position in scene.positions:
            rel = position - center.position
            slant = np.hypot(rel[1], rel[2])
            mu = np.abs(grid.u_centers() - position[0]) <= 0.6
            mv = np.abs(grid.v_centers() - slant) <= 0.6
            sub = np.abs(img)[np.ix_(mu, mv)]
            k = np.unravel_index(np.argmax(sub), sub.shape)
            iu, iv = np.flatnonzero(mu)[k[0]], np.flatnonzero(mv)[k[1]]
            pixel = np.array([grid.u_centers()[iu], grid.v_centers()[iv], center.position[2]])
            oracle = 0.0 + 0.0j
            for i in sel:
                rec = capture.records[i]
                tau = (
                    np.linalg.norm(pixel - rec.pose.to_world(array.tx_positions[rec.tx]))
                    + np.linalg.norm(pixel - rec.pose.to_world(array.rx_positions[rec.rx]))
                ) / C
                model = np.exp(
                    2j * np.pi * (
                        cfg.ramp_slope_hz_per_s * tau * n / cfg.sample_rate_sps
                        + cfg.center_frequency_hz * tau
                    )
                )
                oracle += np.vdot(model, rec.samples)
            worst = max(worst, abs(img[iu, iv] - oracle) / abs(oracle))
        elapsed = time.monotonic() - t_start
        report(
            f"6 backprojection vs time-domain oracle: worst peak error {worst:.2e}, "
            f"{elapsed:.1f} s -> {'PASS' if worst < 1e-3 and elapsed < 10 else 'FAIL'}"
        )
        assert worst < 1e-3
        assert elapsed < 10.0


class TestCriterion7FilterProperties:
    def random_map(self, rng, n=16):
        from insarmap.interferometry import ElevationMap
        from insarmap.imaging import ImageGrid

        grid = ImageGrid(np.array([-3.0, 0.5]), np.array([6.0, 6.0]), 6.0 / n)
        shape = (grid.n_u, grid.n_v)
        mag = rng.uniform(0.1, 10.0, shape)
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
            snr_db=20.0 * np.log10(mag / np.median(mag)),
        )

    def test_randomized_maps_and_boundaries(self):
        rng = np.random.default_rng(777)
        checked = 0
        for case in range(1000):
            emap = self.random_map(rng)
            cfg = im.FilterConfig(
                snr_threshold_db=float(rng.uniform(-5, 25)),
                max_elevation_angle_deg=float(rng.uniform(10, 90)),
                min_radius_m=float(rng.uniform(0, 4)),
                front_azimuth_halfwidth_deg=float(rng.uniform(5, 45)),
                max_circular_variance=float(rng.uniform(0.02, 0.5)),
                sensor_height_m=float(rng.uniform(0, 2)),
            )
            cloud = im.filter_points(emap, cfg)
            assert np.all(cloud.snr_db >= cfg.snr_threshold_db)
            assert np.all(cloud.circular_variance <= cfg.max_circular_variance)
            cross = np.hypot(cloud.y, cloud.z)
            r = np.hypot(cloud.x, cross)
            # the bound is on the measured elevation, the angle above the sensor plane
            eps = np.arcsin(np.clip(cloud.z / np.maximum(r, 1e-12), -1, 1))
            assert np.all(np.abs(eps) <= np.radians(cfg.max_elevation_angle_deg) + 1e-9)
            assert np.all(cloud.z >= cfg.resolved_min_z_m)
            theta = np.arctan2(cross, cloud.x)
            in_cone = (r < cfg.min_radius_m) & (
                np.abs(theta - np.radians(cfg.front_azimuth_deg))
                <= np.radians(cfg.front_azimuth_halfwidth_deg)
            )
            assert not np.any(in_cone)

            if case % 10 == 0:
                base = im.filter_points(emap, im.FilterConfig(sensor_height_m=1.0))
                base_set = set(zip(base.x.tolist(), base.y.tolist(), base.z.tolist()))
                for tight in (
                    im.FilterConfig(snr_threshold_db=20.0, sensor_height_m=1.0),
                    im.FilterConfig(max_elevation_angle_deg=30.0, sensor_height_m=1.0),
                    im.FilterConfig(min_radius_m=3.0, sensor_height_m=1.0),
                    im.FilterConfig(front_azimuth_halfwidth_deg=40.0, sensor_height_m=1.0),
                    im.FilterConfig(max_circular_variance=0.05, sensor_height_m=1.0),
                ):
                    sub = im.filter_points(emap, tight)
                    assert set(zip(sub.x.tolist(), sub.y.tolist(), sub.z.tolist())) <= base_set
                checked += 1

        self.boundary_cases()
        report(f"7 filter-chain properties over 1000 randomized maps "
               f"({checked} subset checks) -> PASS")

    def boundary_cases(self):
        from insarmap.interferometry import ElevationMap
        from insarmap.imaging import ImageGrid

        grid = ImageGrid(np.array([-0.5, 0.0]), np.array([1.0, 6.0]), 1.0)
        shape = (1, 6)

        def one_map(snr=30.0, phi_deg=0.0):
            return ElevationMap(
                grid=grid,
                phase_center=np.zeros(3),
                wavelength_m=0.00387,
                baseline_m=0.00387 / 4,
                elevation=np.full(shape, np.radians(phi_deg)),
                mean_phase_delay=np.zeros(shape),
                circular_variance=np.zeros(shape),
                combined_magnitude=np.ones(shape),
                snr_db=np.full(shape, snr),
            )

        cfg = im.FilterConfig(sensor_height_m=1.0)
        # pixels straight ahead at r = 0.5..5.5: the defaults cut r < 2
        cloud = im.filter_points(one_map(), cfg)
        assert len(cloud) == 4 and np.min(np.hypot(cloud.y, cloud.z)) >= 2.0
        # 14.9 dB rejected, 15.0 dB kept at the threshold boundary
        assert len(im.filter_points(one_map(snr=14.9), cfg)) == 0
        assert len(im.filter_points(one_map(snr=15.0), cfg)) == 4
        # 45 degrees kept, 45.1 rejected
        assert len(im.filter_points(one_map(phi_deg=45.0), cfg)) == 4
        assert len(im.filter_points(one_map(phi_deg=45.1), cfg)) == 0
        # azimuth cone boundary: pixel 15 deg off the front axis at r = 1.5
        narrow = im.FilterConfig(sensor_height_m=1.0, front_azimuth_deg=90.0)
        gridb = ImageGrid(np.array([0.28, 1.35]), np.array([0.2, 0.2]), 0.2)
        for halfwidth, expect in ((15.0, 0), (14.0, 1)):
            emap = ElevationMap(
                grid=gridb,
                phase_center=np.zeros(3),
                wavelength_m=0.00387,
                baseline_m=0.00387 / 4,
                elevation=np.zeros((1, 1)),
                mean_phase_delay=np.zeros((1, 1)),
                circular_variance=np.zeros((1, 1)),
                combined_magnitude=np.ones((1, 1)),
                snr_db=np.full((1, 1), 30.0),
            )
            cfgb = im.FilterConfig(sensor_height_m=1.0, front_azimuth_halfwidth_deg=halfwidth)
            assert len(im.filter_points(emap, cfgb)) == expect


class TestCriterion8Determinism:
    CONFIG = """
center_frequency_hz = 77.4e9
ramp_slope_hz_per_s = 30e12
samples_per_chirp = 64
sample_rate_sps = 18.75e6
pri_s = 63.9e-6
chirps_per_tx_per_frame = 256
num_tx = 3
per_sample_snr_db = 20
grid_origin_m = (-0.8, 3.2)
grid_extent_m = (1.6, 2.4)
pixel_size_m = 0.04
aperture_length_m = 0.1
sensor_height_m = 0.4
"""

    def test_pipeline_byte_identical_and_pcd_round_trip(self, tmp_path):
        (tmp_path / "radar.cfg").write_text(self.CONFIG)
        (tmp_path / "scene.csv").write_text(
            "x,y,z,amplitude\n0.0,4.0,0.4,1.0\n-0.3,4.6,0.9,1.0\n"
        )
        (tmp_path / "traj.csv").write_text(
            "t,x,y,z,qw,qx,qy,qz\n-0.02,-0.1,0,0.4,1,0,0,0\n0.02,0.1,0,0.4,1,0,0,0\n"
        )
        args = [
            "--seed", "21", "pipeline",
            str(tmp_path / "scene.csv"), str(tmp_path / "traj.csv"),
            "--config", str(tmp_path / "radar.cfg"),
        ]
        assert cli.main(args + ["--out-dir", str(tmp_path / "a")]) == 0
        assert cli.main(args + ["--out-dir", str(tmp_path / "b")]) == 0
        digests = []
        for d in ("a", "b"):
            digests.append(
                hashlib.sha256((tmp_path / d / "cloud.pcd").read_bytes()).hexdigest()
            )
        assert digests[0] == digests[1]

        fields = im.read_pcd(tmp_path / "a" / "cloud.pcd")
        assert fields["x"].shape[0] > 0
        from insarmap import formats

        emap = formats.read_elevation_map(tmp_path / "a" / "elevation.insarelv")
        cloud = im.filter_points(
            emap, im.FilterConfig(sensor_height_m=0.4)
        )
        for name, ref in (("x", cloud.x), ("y", cloud.y), ("z", cloud.z)):
            scale = np.maximum(np.abs(ref), 1e-6)
            assert np.max(np.abs(fields[name] - ref) / scale) <= 1e-4
        report(f"8 determinism: pipeline PCD sha256 {digests[0][:12]} reproduced; "
               "write/parse round trip within 1e-4 -> PASS")
