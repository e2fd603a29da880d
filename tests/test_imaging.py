"""Range compression, backprojection, and the image-stack contracts."""

import dataclasses

import numpy as np
import pytest

import insarmap as im
from insarmap.errors import ConfigError, DomainError
from insarmap import imaging
from insarmap.imaging import INTERPOLATIONS, _select_aperture

from conftest import make_rail_trajectory, peak_near


def monostatic_capture(cfg, scene, speed=5.0, t_half=0.11, height=0.0, margin=None):
    array = im.build_virtual_array([(0.0, 0, 0)], [(0.0, 0, 0)])
    traj = make_rail_trajectory(speed, t_half, height, margin_s=margin or cfg.pri_s)
    return im.synthesize_capture(scene, traj, cfg, array)


class TestRangeCompress:
    def test_peak_within_one_bin_of_target(self, reference_chirp):
        scene = im.Scene((im.PointTarget(np.array([0.0, 23.4, 0.0]), 1.0),))
        cfg = im.ChirpConfig(77.4e9, 30e12, 512, 18.75e6, 63.9e-6, 256, 1)
        cap = monostatic_capture(cfg, scene, speed=1.0, t_half=0.001)
        prof = im.range_compress(cap, oversample_factor=4, window="rectangular")
        assert prof.profiles.shape[1] == 2048
        derived = im.derive_chirp_params(cfg)
        assert prof.bin_spacing_m <= derived.range_resolution_m / 2
        peak_bin = np.argmax(np.abs(prof.profiles[0]))
        assert abs(peak_bin - 23.4 / prof.bin_spacing_m) <= 1.0

    def test_zero_pulse_gives_zero_profile(self, small_chirp):
        scene = im.Scene((im.PointTarget(np.array([0.0, 5.0, 0.0]), 0.0),))
        cfg = im.ChirpConfig(77.4e9, 30e12, 64, 18.75e6, 63.9e-6, 256, 1)
        cap = monostatic_capture(cfg, scene, speed=1.0, t_half=0.001)
        prof = im.range_compress(cap)
        assert np.all(prof.profiles == 0)

    def test_range_resolution_contract(self):
        # 18.3 cm resolution, rectangular window.  A single return's
        # mainlobe must be no wider than one resolution cell at half power,
        # and two returns at 1.5 cells must always produce separate maxima.
        # (At exactly one cell the visibility of the dip depends on the
        # carrier phase offset 4*pi*dr/lambda, which this wavelength places
        # near the blind spot, so the margin case is the honest observable.)
        cfg = im.ChirpConfig(77.4e9, 30e12, 512, 18.75e6, 63.9e-6, 256, 1)
        rr = im.derive_chirp_params(cfg).range_resolution_m
        one = im.Scene((im.PointTarget(np.array([0.0, 20.0, 0.0]), 1.0),))
        cap = monostatic_capture(cfg, one, speed=1.0, t_half=0.001)
        prof = im.range_compress(cap, oversample_factor=8, window="rectangular")
        mag = np.abs(prof.profiles[0])
        peak = np.argmax(mag)
        half = mag[peak] / np.sqrt(2.0)
        above = np.flatnonzero(mag > half)
        width = (above.max() - above.min() + 1) * prof.bin_spacing_m
        assert width <= rr

        pair = im.Scene(
            (
                im.PointTarget(np.array([0.0, 20.0, 0.0]), 1.0),
                im.PointTarget(np.array([0.0, 20.0 + 1.5 * rr, 0.0]), 1.0),
            )
        )
        cap = monostatic_capture(cfg, pair, speed=1.0, t_half=0.001)
        prof = im.range_compress(cap, oversample_factor=8, window="rectangular")
        mag = np.abs(prof.profiles[0])
        maxima = [
            k
            for k in range(1, mag.shape[0] - 1)
            if mag[k] >= mag[k - 1] and mag[k] >= mag[k + 1] and mag[k] > 0.5 * mag.max()
        ]
        bins = np.array(maxima) * prof.bin_spacing_m
        assert any(abs(b - 20.0) < rr / 2 for b in bins)
        assert any(abs(b - (20.0 + 1.5 * rr)) < rr / 2 for b in bins)

    def test_bad_oversample_rejected(self, small_e2e):
        with pytest.raises(ConfigError):
            im.range_compress(small_e2e["capture"], oversample_factor=1)
        with pytest.raises(ConfigError):
            im.range_compress(small_e2e["capture"], window="blackman")


class TestBackproject:
    def test_peak_within_one_pixel_broadside(self):
        cfg = im.ChirpConfig(77.4e9, 30e12, 256, 18.75e6, 191.7e-6, 256, 1)
        scene = im.Scene((im.PointTarget(np.array([0.0, 10.0, 0.0]), 1.0),))
        cap = monostatic_capture(cfg, scene, speed=5.0, t_half=0.105)
        prof = im.range_compress(cap)
        # grid aligned so the target sits on a pixel center: the azimuth
        # mainlobe (~2 cm here) is narrower than the 4 cm pixel pitch
        grid = im.ImageGrid(np.array([-1.02, 9.02]), np.array([2.0, 2.0]), 0.04)
        img = im.backproject(prof, 0, grid, im.Aperture(1.0))
        iu, iv = np.unravel_index(np.argmax(np.abs(img)), img.shape)
        # within one pixel of truth (the range mainlobe spans ~9 pixels, so
        # interpolation straddle may move the peak by one pixel in v)
        assert abs(grid.u_centers()[iu] - 0.0) <= 0.04 + 1e-9
        assert abs(grid.v_centers()[iv] - 10.0) <= 0.04 + 1e-9

    def test_linearity_in_amplitude(self, small_chirp):
        cfg = im.ChirpConfig(77.4e9, 30e12, 64, 18.75e6, 63.9e-6, 256, 1)
        grid = im.ImageGrid(np.array([-0.5, 4.0]), np.array([1.0, 1.0]), 0.1)
        imgs = []
        for amp in (1.0, 2.0):
            scene = im.Scene((im.PointTarget(np.array([0.0, 4.5, 0.0]), amp),))
            cap = monostatic_capture(cfg, scene, speed=2.0, t_half=0.02)
            prof = im.range_compress(cap)
            imgs.append(im.backproject(prof, 0, grid, im.Aperture(0.1)))
        assert np.allclose(imgs[1], 2 * imgs[0], rtol=1e-12, atol=0)

    def test_empty_aperture_rejected(self, small_e2e):
        prof = im.range_compress(small_e2e["capture"])
        with pytest.raises(DomainError):
            im.backproject(
                prof,
                0,
                small_e2e["grid"],
                im.Aperture(length_m=1.0, center_time_s=1e6),
            )
        with pytest.raises(DomainError):
            im.backproject(prof, 99, small_e2e["grid"], small_e2e["aperture"])

    def test_elevated_target_peaks_at_slant_range(self):
        # projection effect: peak lands at slant range, not ground range
        cfg = im.ChirpConfig(77.4e9, 30e12, 256, 18.75e6, 191.7e-6, 256, 1)
        target = np.array([0.0, 4.0, 1.5])  # slant 4.272 m from sensor plane
        scene = im.Scene((im.PointTarget(target, 1.0),))
        cap = monostatic_capture(cfg, scene, speed=5.0, t_half=0.055)
        prof = im.range_compress(cap)
        grid = im.ImageGrid(np.array([-0.3, 3.5]), np.array([0.6, 1.4]), 0.04)
        img = im.backproject(prof, 0, grid, im.Aperture(0.5))
        iu, iv = np.unravel_index(np.argmax(np.abs(img)), img.shape)
        slant = np.linalg.norm(target)
        assert abs(grid.v_centers()[iv] - slant) <= 0.04
        assert abs(grid.v_centers()[iv] - 4.0) > 0.2

    def test_threads_do_not_change_bits(self, small_e2e):
        prof = im.range_compress(small_e2e["capture"])
        a = im.backproject(prof, 3, small_e2e["grid"], small_e2e["aperture"], threads=1)
        b = im.backproject(prof, 3, small_e2e["grid"], small_e2e["aperture"], threads=2)
        assert np.array_equal(a, b)


class TestImageStack:
    def test_stack_matches_per_vx_backprojection_bitwise(self, small_e2e):
        stack = small_e2e["stack"]
        prof = im.range_compress(small_e2e["capture"])
        for k in (0, 5, 11):
            img = im.backproject(prof, k, small_e2e["grid"], small_e2e["aperture"])
            assert np.array_equal(stack.images[k], img)

    def test_stack_shape_and_phase_center(self, small_e2e):
        stack = small_e2e["stack"]
        assert stack.images.shape == (12, stack.grid.n_u, stack.grid.n_v)
        assert stack.phase_center[2] == pytest.approx(0.5, abs=1e-9)

    def test_in_plane_target_has_zero_phase_difference(self, small_e2e, small_scene_truth):
        stack = small_e2e["stack"]
        truth = small_scene_truth[0]["position"]  # in the sensor plane
        iu, iv = peak_near(stack, truth[0], truth[1])
        b = stack.array.vertical_baselines[0]
        dpsi = im.phase_delay(
            complex(stack.images[b.lower_vx][iu, iv]),
            complex(stack.images[b.upper_vx][iu, iv]),
        )
        assert abs(dpsi) < 0.05

    def test_elevated_target_phase_matches_model(self, small_e2e, small_scene_truth):
        stack = small_e2e["stack"]
        truth = small_scene_truth[1]["position"]  # 10 deg elevation
        rel = truth - stack.phase_center
        slant_cross = np.hypot(rel[1], rel[2])
        iu, iv = peak_near(stack, truth[0], slant_cross)
        b = stack.array.vertical_baselines[0]
        dpsi = im.phase_delay(
            complex(stack.images[b.lower_vx][iu, iv]),
            complex(stack.images[b.upper_vx][iu, iv]),
        )
        sin_phi = rel[2] / slant_cross
        predicted = im.phase_from_elevation(np.arcsin(sin_phi), b.separation_m, stack.wavelength_m)
        assert predicted == pytest.approx(np.pi * np.sin(np.radians(10.0)), abs=1e-9)
        assert dpsi == pytest.approx(0.5455, abs=0.05)
        assert dpsi == pytest.approx(predicted, abs=0.05)

    def test_phase_center_consistency_under_translation(self, small_chirp):
        # translating scene, trajectory, and grid together changes nothing
        cfg = im.ChirpConfig(77.4e9, 30e12, 128, 18.75e6, 63.9e-6, 256, 3)
        array = im.default_virtual_array(im.derive_chirp_params(cfg).wavelength_m)
        offset = np.array([2.0, -1.0, 0.5])

        def build(shift):
            traj = im.Trajectory(
                (
                    im.Pose(-0.01, np.array([-0.05, 0, 0.4]) + shift, np.array([1.0, 0, 0, 0])),
                    im.Pose(0.01, np.array([0.05, 0, 0.4]) + shift, np.array([1.0, 0, 0, 0])),
                )
            )
            scene = im.Scene(
                (
                    im.PointTarget(np.array([0.1, 4.0, 0.9]) + shift, 1.0),
                    im.PointTarget(np.array([-0.2, 4.6, 0.2]) + shift, 0.8),
                )
            )
            cap = im.synthesize_capture(scene, traj, cfg, array)
            grid = im.ImageGrid(np.array([-0.4, 3.6]) + shift[:2], np.array([0.8, 1.4]), 0.05)
            return im.image_stack(cap, grid, im.Aperture(0.08))

        s0 = build(np.zeros(3))
        s1 = build(offset)
        mag0 = np.abs(s0.images)
        mag1 = np.abs(s1.images)
        assert np.max(np.abs(mag1 - mag0)) <= 1e-6 * np.max(mag0)
        b = s0.array.vertical_baselines[0]
        d0 = np.angle(s0.images[b.lower_vx] * np.conj(s0.images[b.upper_vx]))
        d1 = np.angle(s1.images[b.lower_vx] * np.conj(s1.images[b.upper_vx]))
        bright = mag0.mean(axis=0) > 0.05 * mag0.max()
        assert np.max(np.abs(d1[bright] - d0[bright])) <= 1e-6


class TestOracleEquivalence:
    def test_fbp_matches_time_domain_correlation(self):
        # independent oracle: correlate raw samples against the model beat
        # signal of a unit target at the pixel, no range compression involved
        cfg = im.ChirpConfig(77.4e9, 30e12, 128, 18.75e6, 63.9e-6, 8, 1)
        array = im.build_virtual_array([(0.0, 0, 0)], [(0.0, 0, 0)])
        traj = make_rail_trajectory(1.0, 0.01, 0.0)
        targets = [
            im.PointTarget(np.array([1.0, 6.0, 0.0]), 1.0),
            im.PointTarget(np.array([-2.0, 7.5, 0.0]), 0.7),
            im.PointTarget(np.array([2.5, 9.0, 0.3]), 1.3),
        ]
        scene = im.Scene(tuple(targets))
        window = (-0.01, -0.01 + 48 * cfg.pri_s)
        cap = im.synthesize_capture(scene, traj, cfg, array, window)
        grid = im.ImageGrid(np.array([-4.0, 4.0]), np.array([8.0, 8.0]), 0.25)
        aperture = im.Aperture(1.0)
        prof = im.range_compress(cap, oversample_factor=8)
        img = im.backproject(prof, 0, grid, aperture, interpolation="sinc")

        sel, center, _ = _select_aperture(cap, aperture)
        n = np.arange(cfg.samples_per_chirp)
        for t in targets:
            slant = np.hypot(t.position[1] - center.position[1], t.position[2] - center.position[2])
            iu, iv = peak_near_stackless(img, grid, t.position[0], slant)
            pixel = np.array([grid.u_centers()[iu], grid.v_centers()[iv], center.position[2]])
            oracle = 0.0 + 0.0j
            for i in sel:
                rec = cap.records[i]
                tx_w = rec.pose.to_world(array.tx_positions[rec.tx])
                rx_w = rec.pose.to_world(array.rx_positions[rec.rx])
                tau = (
                    np.linalg.norm(pixel - tx_w) + np.linalg.norm(pixel - rx_w)
                ) / im.C_LIGHT
                model = np.exp(
                    2j
                    * np.pi
                    * (
                        cfg.ramp_slope_hz_per_s * tau * n / cfg.sample_rate_sps
                        + cfg.center_frequency_hz * tau
                    )
                )
                oracle += np.vdot(model, rec.samples)
            rel_err = abs(img[iu, iv] - oracle) / abs(oracle)
            assert rel_err < 1e-3


def peak_near_stackless(img, grid, u, v, window_m=0.6):
    mu = np.abs(grid.u_centers() - u) <= window_m
    mv = np.abs(grid.v_centers() - v) <= window_m
    sub = np.abs(img)[np.ix_(mu, mv)]
    k = np.unravel_index(np.argmax(sub), sub.shape)
    return np.flatnonzero(mu)[k[0]], np.flatnonzero(mv)[k[1]]


def exact_phasor(d, k_carrier):
    """The reference carrier phasor: one complex exp per element."""
    return np.exp(-1j * k_carrier * d)


class TestPhasorTolerance:
    """The kernel's float32 carrier phasor against the exact complex exp.

    Bits depend on which SIMD path numpy dispatches cos and sin to, so these
    bounds, not hashes, are the contract; CI reruns this class with numpy's
    AVX512 paths disabled and with only its baseline path.
    """

    K = 2.0 * np.pi * 77.4e9 / im.C_LIGHT

    @pytest.fixture(scope="class")
    def exact_stack(self, small_e2e):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(imaging, "_carrier_phasor", exact_phasor)
            return im.image_stack(small_e2e["capture"], small_e2e["grid"], small_e2e["aperture"], threads=2)

    def test_phasor_within_1e6_up_to_100m(self):
        # 0.1 mm steps put about 40 samples in each carrier wavelength
        d = np.linspace(0.0, 100.0, 1_000_001)
        err = np.abs(imaging._carrier_phasor(d, self.K) - exact_phasor(d, self.K))
        assert err.max() <= 1e-6

    def test_image_within_1e6_of_peak(self, small_e2e, exact_stack):
        fast = small_e2e["stack"].images
        peak = np.abs(exact_stack.images).max()
        assert np.abs(fast - exact_stack.images).max() <= 1e-6 * peak

    def test_baseline_phase_within_1e5_rad_above_15db(self, small_e2e, exact_stack):
        stack = small_e2e["stack"]
        strong = small_e2e["map"].interferogram.snr_db >= 15.0
        assert strong.sum() >= 20
        for b in stack.array.vertical_baselines:
            fast = stack.images[b.lower_vx] * np.conj(stack.images[b.upper_vx])
            exact = exact_stack.images[b.lower_vx] * np.conj(exact_stack.images[b.upper_vx])
            assert np.abs(np.angle(fast[strong] * np.conj(exact[strong]))).max() <= 1e-5


class TestInterpolation:
    def test_slope_form_equals_two_point_form(self):
        rng = np.random.default_rng(5)
        profile = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        q = np.r_[rng.uniform(0.0, 299.0, 5000), 0.0, 298.0, 298.5, 299.0]
        i0 = np.minimum(np.floor(q).astype(int), 298)
        w = q - i0
        two_point = profile[i0] * (1.0 - w) + profile[i0 + 1] * w
        slope_form = imaging._interp_linear(profile, np.diff(profile), q)
        assert np.allclose(slope_form, two_point, rtol=0, atol=1e-14 * np.abs(profile).max())

    @pytest.mark.parametrize("interpolation", ["linear", "sinc"])
    def test_pixels_beyond_profile_extent_are_zero(self, interpolation):
        # max range is c*fs/(2*slope) = 93.7 m; a grid straddling it, and
        # one about 1e20 m away, whose bin positions overflow an index
        cfg = im.ChirpConfig(77.4e9, 30e12, 64, 18.75e6, 63.9e-6, 256, 1)
        max_range = im.derive_chirp_params(cfg).max_range_m
        scene = im.Scene((im.PointTarget(np.array([0.0, 92.0, 0.0]), 1.0),))
        cap = im.add_noise(monostatic_capture(cfg, scene, speed=1.0, t_half=0.002), 10.0, seed=4)
        profiles = im.range_compress(cap)
        for origin in ((-0.5, max_range - 2.0), (1e20, 0.0)):
            grid = im.ImageGrid(np.array(origin), np.array([1.0, 4.0]), 0.1)
            img = im.backproject(profiles, 0, grid, im.Aperture(0.004), interpolation=interpolation)
            # pixel ranges from the sensor, which moves along x at the origin
            r = np.hypot(*np.meshgrid(grid.u_centers(), grid.v_centers(), indexing="ij"))
            assert np.all(img[r > max_range + 0.1] == 0)
            assert np.all(img[r < max_range - 0.5] != 0)


def oracle_stack(capture, grid, aperture, interpolation, image_height_m, oversample_factor=4):
    """image_stack as a plain loop over the aperture's records, in cycle
    order: per pixel, the 3-D distance to the record's TX and RX elements,
    the fractional bin (d_tx + d_rx) / 2, the full range profile read with
    the slope-form two-point formula p[i] + (p[i+1] - p[i]) * (q - i) or
    the kernel's sinc, and one _carrier_phasor per leg.  Pixels past the
    profile's last bin read zero."""
    profiles = im.range_compress(capture, oversample_factor)
    sel, center, _ = _select_aperture(capture, aperture)
    sel = sel[np.argsort(capture.cycle[sel], kind="stable")]
    array = capture.array
    last = profiles.profiles.shape[1] - 1
    half_inv_bin = 0.5 * (1.0 / profiles.bin_spacing_m)
    k_carrier = 2.0 * np.pi * capture.config.center_frequency_hz / im.C_LIGHT
    pu = np.repeat(grid.u_centers(), grid.n_v)
    pv = np.tile(grid.v_centers(), grid.n_u)
    pz = center.position[2] + image_height_m
    images = np.zeros((array.n_vx, pu.size), dtype=np.complex128)
    for r in sel:
        pose = capture.poses[capture.pose_index[r]]
        tx_w = pose.to_world(array.tx_positions)[capture.tx[r]]
        rx_w = pose.to_world(array.rx_positions)[capture.rx[r]]
        d_tx, d_rx = (np.sqrt((pu - x) ** 2 + (pv - y) ** 2 + (pz - z) ** 2) for x, y, z in (tx_w, rx_w))
        q = d_tx * half_inv_bin + d_rx * half_inv_bin
        beyond = q > last
        q[beyond] = last
        profile = profiles.profiles[r]
        if interpolation == "linear":
            i = np.minimum(np.floor(q).astype(int), last - 1)
            value = profile[i] + (profile[i + 1] - profile[i]) * (q - i)
        else:
            value = imaging._interp_sinc(profile, q)
        value = value * imaging._carrier_phasor(d_tx, k_carrier) * imaging._carrier_phasor(d_rx, k_carrier)
        value[beyond] = 0.0
        images[array.vx_index(capture.tx[r], capture.rx[r])] += value
    return images.reshape(array.n_vx, grid.n_u, grid.n_v)


class TestKernelOracle:
    """image_stack equals oracle_stack bit for bit: row blocks, profiles cut
    to the bins in reach, and the unclamped weights change no float."""

    @pytest.fixture(scope="class")
    def capture(self, small_chirp):
        cfg = dataclasses.replace(small_chirp, samples_per_chirp=64)
        array = im.default_virtual_array(im.derive_chirp_params(cfg).wavelength_m)
        max_range = im.derive_chirp_params(cfg).max_range_m
        scene = im.Scene(
            (
                im.PointTarget(np.array([0.1, 3.6, 0.9]), 1.0),
                im.PointTarget(np.array([-0.2, 4.1, 0.2]), 0.8),
                im.PointTarget(np.array([0.0, max_range - 0.6, 0.5]), 1.0),
            )
        )
        traj = make_rail_trajectory(5.0, 0.004, 0.5)
        # noise keeps every profile bin non-zero
        return im.add_noise(im.synthesize_capture(scene, traj, cfg, array), 10.0, seed=3)

    @pytest.fixture(scope="class")
    def grids(self, capture):
        max_range = im.derive_chirp_params(capture.config).max_range_m
        # (grid, image_height_m)
        return {
            # within reach of a few dozen of the 256 bins, so profiles are
            # cut; 0.4 m below the sensor, so the height term counts
            "near": (im.ImageGrid(np.array([-0.5, 3.2]), np.array([1.0, 1.2]), 0.04), -0.4),
            # straddling the profile extent at max range
            "straddle": (im.ImageGrid(np.array([-0.5, max_range - 1.6]), np.array([1.0, 2.1]), 0.1), 0.0),
        }

    @pytest.fixture(scope="class")
    def oracles(self, capture, grids):
        aperture = im.Aperture(0.03)
        return {
            (name, interp): oracle_stack(capture, grid, aperture, interp, height)
            for name, (grid, height) in grids.items()
            for interp in INTERPOLATIONS
        }

    @pytest.mark.parametrize("blocks", [None, "rows", "row slices"])
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("interpolation", INTERPOLATIONS)
    @pytest.mark.parametrize("grid_name", ["near", "straddle"])
    def test_stack_equals_per_record_loop(
        self, capture, grids, oracles, grid_name, interpolation, threads, blocks, monkeypatch
    ):
        grid, height = grids[grid_name]
        if blocks == "rows":
            # blocks of 3 or 4 rows: the rows do not split evenly
            monkeypatch.setattr(imaging, "_BLOCK_PIXELS", 4 * grid.n_v)
            assert grid.n_u % 4
        elif blocks == "row slices":
            # rows longer than a block split into slices of uneven length
            monkeypatch.setattr(imaging, "_BLOCK_PIXELS", 4)
            n_blocks = max(threads, -(-grid.n_u * grid.n_v // 4))
            slices = imaging._pixel_blocks(grid.n_u, grid.n_v, n_blocks)
            assert all(u_hi == u_lo + 1 for u_lo, u_hi, _, _ in slices)
            assert len({v_hi - v_lo for _, _, v_lo, v_hi in slices}) > 1
        stack = im.image_stack(
            capture, grid, im.Aperture(0.03), interpolation=interpolation, image_height_m=height, threads=threads
        )
        oracle = oracles[(grid_name, interpolation)]
        assert np.count_nonzero(oracle) > oracle.size // 2
        assert oracle.all() == (grid_name == "near")
        assert stack.images.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("n_u, n_v, threads", [(1, 100_000, 1), (750, 750, 2), (1, 50, 2), (3, 20_000, 8)])
def test_pixel_blocks_tile_the_grid_in_bounded_blocks(n_u, n_v, threads):
    # a block is at most about two _BLOCK_PIXELS, even for one long row,
    # and each thread gets a block while there are pixels to share
    n_blocks = max(threads, -(-n_u * n_v // imaging._BLOCK_PIXELS))
    blocks = imaging._pixel_blocks(n_u, n_v, n_blocks)
    flat = [(u_lo * n_v + v_lo, (u_hi - 1) * n_v + v_hi) for u_lo, u_hi, v_lo, v_hi in blocks]
    assert [lo for lo, _ in flat] == [0] + [hi for _, hi in flat[:-1]]
    assert flat[-1][1] == n_u * n_v
    assert all(v_hi == n_v or u_hi == u_lo + 1 for u_lo, u_hi, _, v_hi in blocks)
    assert max(hi - lo for lo, hi in flat) <= 2 * imaging._BLOCK_PIXELS
    assert len(blocks) >= min(threads, n_u * n_v)


class TestPredictedAzimuthResolution:
    def test_reference_design_value(self):
        lam = im.C_LIGHT / 77.4e9
        res = im.predicted_azimuth_resolution(1.0, lam, np.pi / 2)
        assert res == pytest.approx(0.00387, abs=5e-6)
        assert np.degrees(res) < 0.25

    def test_degenerate_angle(self):
        with pytest.raises(DomainError):
            im.predicted_azimuth_resolution(1.0, 0.004, 0.0)

    def test_doubling_aperture_halves_resolution(self):
        lam = 0.0039
        assert im.predicted_azimuth_resolution(2.0, lam, 1.0) == pytest.approx(
            im.predicted_azimuth_resolution(1.0, lam, 1.0) / 2, rel=1e-12
        )


class TestGrid:
    def test_default_grid_is_750_square(self):
        grid = im.ImageGrid.default()
        assert (grid.n_u, grid.n_v) == (750, 750)

    def test_subpixel_grid_rejected(self):
        with pytest.raises(ConfigError):
            im.ImageGrid(np.array([0.0, 0.0]), np.array([0.01, 0.01]), 0.04)


class TestStackValues:
    def stack_with(self, stack, **changes):
        fields = dict(
            grid=stack.grid, array=stack.array, images=stack.images, phase_center=stack.phase_center,
            aperture_length_m=stack.aperture_length_m, wavelength_m=stack.wavelength_m,
        )
        return im.SarImageStack(**{**fields, **changes})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pixel_rejected_with_its_vx(self, small_e2e, bad):
        images = small_e2e["stack"].images.copy()
        images[3, 1, 2] = bad
        with pytest.raises(ConfigError, match="VX 3 image holds non-finite pixels"):
            self.stack_with(small_e2e["stack"], images=images)

    @pytest.mark.parametrize("wavelength", [np.nan, -0.004, 0.0, np.inf])
    def test_wavelength_must_be_finite_and_positive(self, small_e2e, wavelength):
        with pytest.raises(ConfigError, match="wavelength"):
            self.stack_with(small_e2e["stack"], wavelength_m=wavelength)

    @pytest.mark.parametrize("height", [np.inf, -np.inf, np.nan])
    def test_non_finite_image_height_rejected(self, small_e2e, height):
        with pytest.raises(ConfigError, match="image_height_m"):
            im.image_stack(small_e2e["capture"], small_e2e["grid"], small_e2e["aperture"], image_height_m=height)
