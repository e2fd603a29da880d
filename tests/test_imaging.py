"""Range compression, backprojection, and the image-stack contracts."""

import dataclasses

import numpy as np
import pytest

import insarmap as im
from insarmap.errors import ConfigError, DomainError
from insarmap import configio, imaging
from insarmap.imaging import _select_aperture

from conftest import make_rail_trajectory, peak_near


def monostatic_capture(cfg, scene, speed=5.0, t_half=0.11, height=0.0, margin=None):
    array = im.build_virtual_array([(0.0, 0, 0)], [(0.0, 0, 0)])
    traj = make_rail_trajectory(speed, t_half, height, margin_s=margin or cfg.pri_s)
    return im.synthesize_capture(scene, traj, cfg, array)


class TestRangeCompress:
    def test_peak_within_one_bin_of_target(self, reference_chirp):
        scene = im.Scene([[0.0, 23.4, 0.0]], [1.0])
        cfg = im.ChirpConfig(77.4e9, 30e12, 512, 18.75e6, 63.9e-6, 256, 1)
        cap = monostatic_capture(cfg, scene, speed=1.0, t_half=0.001)
        prof = im.range_compress(cap, oversample_factor=4, window="rectangular")
        assert prof.profiles.shape[1] == 2048
        derived = im.derive_chirp_params(cfg)
        assert prof.bin_spacing_m <= derived.range_resolution_m / 2
        peak_bin = np.argmax(np.abs(prof.profiles[0]))
        assert abs(peak_bin - 23.4 / prof.bin_spacing_m) <= 1.0

    def test_zero_pulse_gives_zero_profile(self, small_chirp):
        scene = im.Scene([[0.0, 5.0, 0.0]], [0.0])
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
        one = im.Scene([[0.0, 20.0, 0.0]], [1.0])
        cap = monostatic_capture(cfg, one, speed=1.0, t_half=0.001)
        prof = im.range_compress(cap, oversample_factor=8, window="rectangular")
        mag = np.abs(prof.profiles[0])
        peak = np.argmax(mag)
        half = mag[peak] / np.sqrt(2.0)
        above = np.flatnonzero(mag > half)
        width = (above.max() - above.min() + 1) * prof.bin_spacing_m
        assert width <= rr

        pair = im.Scene([[0.0, 20.0, 0.0], [0.0, 20.0 + 1.5 * rr, 0.0]], [1.0, 1.0])
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
        # non-finite factors are refused before int() can raise on them
        for factor in (float("inf"), float("nan")):
            with pytest.raises(ConfigError, match="oversample_factor"):
                im.range_compress(small_e2e["capture"], oversample_factor=factor)
            with pytest.raises(ConfigError, match="oversample_factor"):
                im.image_stack(
                    small_e2e["capture"], small_e2e["grid"], small_e2e["aperture"], oversample_factor=factor
                )
        with pytest.raises(ConfigError):
            im.range_compress(small_e2e["capture"], window="blackman")
        with pytest.raises(ConfigError, match="cap of"):
            im.range_compress(small_e2e["capture"], oversample_factor=10**9)


class TestBackproject:
    def test_peak_within_one_pixel_broadside(self):
        cfg = im.ChirpConfig(77.4e9, 30e12, 256, 18.75e6, 191.7e-6, 256, 1)
        scene = im.Scene([[0.0, 10.0, 0.0]], [1.0])
        cap = monostatic_capture(cfg, scene, speed=5.0, t_half=0.105)
        # grid aligned so the target sits on a pixel center: the azimuth
        # mainlobe (~2 cm here) is narrower than the 4 cm pixel pitch
        grid = im.ImageGrid(np.array([-1.02, 9.02]), np.array([2.0, 2.0]), 0.04)
        img = im.image_stack(cap, grid, im.Aperture(1.0)).images[0]
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
            scene = im.Scene([[0.0, 4.5, 0.0]], [amp])
            cap = monostatic_capture(cfg, scene, speed=2.0, t_half=0.02)
            imgs.append(im.image_stack(cap, grid, im.Aperture(0.1)).images[0])
        assert np.allclose(imgs[1], 2 * imgs[0], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("time", [np.inf, -np.inf, np.nan])
    def test_non_finite_center_time_is_a_config_error(self, time):
        # an infinite one used to reach the capture-span check, a DomainError
        with pytest.raises(ConfigError, match=f"aperture_center_time_s must be finite, got {time!r}"):
            im.Aperture(center_time_s=time)

    def test_empty_aperture_rejected(self, small_e2e):
        with pytest.raises(DomainError):
            im.image_stack(
                small_e2e["capture"],
                small_e2e["grid"],
                im.Aperture(length_m=1.0, center_time_s=1e6),
            )

    def test_elevated_target_peaks_at_slant_range(self):
        # projection effect: peak lands at slant range, not ground range
        cfg = im.ChirpConfig(77.4e9, 30e12, 256, 18.75e6, 191.7e-6, 256, 1)
        target = np.array([0.0, 4.0, 1.5])  # slant 4.272 m from sensor plane
        scene = im.Scene([target], [1.0])
        cap = monostatic_capture(cfg, scene, speed=5.0, t_half=0.055)
        grid = im.ImageGrid(np.array([-0.3, 3.5]), np.array([0.6, 1.4]), 0.04)
        img = im.image_stack(cap, grid, im.Aperture(0.5)).images[0]
        iu, iv = np.unravel_index(np.argmax(np.abs(img)), img.shape)
        slant = np.linalg.norm(target)
        assert abs(grid.v_centers()[iv] - slant) <= 0.04
        assert abs(grid.v_centers()[iv] - 4.0) > 0.2

    def test_threads_do_not_change_bits(self, small_e2e):
        a = im.image_stack(small_e2e["capture"], small_e2e["grid"], small_e2e["aperture"], threads=1)
        b = im.image_stack(small_e2e["capture"], small_e2e["grid"], small_e2e["aperture"], threads=2)
        assert np.array_equal(a.images, b.images)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, small_e2e, threads):
        with pytest.raises(ConfigError, match="threads must be >= 1"):
            im.image_stack(small_e2e["capture"], small_e2e["grid"], small_e2e["aperture"], threads=threads)

    def test_workers_capped_at_available_cpus(self, monkeypatch):
        # A fake pool records the workers asked for and runs its tasks
        # serially, so no thread starts.  Uncapped, threads=100_000 would
        # split this 10 x 10 grid into 100 one-pixel blocks and ask for 100
        # workers.
        asked, tasks = [], []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def map(self, fn, items):
                tasks.append(len(items))
                return map(fn, items)

            def shutdown(self):
                pass

        monkeypatch.setattr(imaging, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(imaging, "_available_cpus", lambda: 3)
        cfg = im.ChirpConfig(77.4e9, 30e12, 64, 18.75e6, 63.9e-6, 256, 1)
        scene = im.Scene([[0.0, 4.5, 0.0]], [1.0])
        cap = monostatic_capture(cfg, scene, speed=2.0, t_half=0.02)
        grid = im.ImageGrid(np.array([-0.5, 4.0]), np.array([1.0, 1.0]), 0.1)
        serial = im.image_stack(cap, grid, im.Aperture(0.1), threads=1)
        assert asked == []
        many = im.image_stack(cap, grid, im.Aperture(0.1), threads=100_000)
        assert asked == [3]
        assert tasks and set(tasks) == {3}
        assert many.images.tobytes() == serial.images.tobytes()


class TestImageStack:
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
            scene = im.Scene(np.array([[0.1, 4.0, 0.9], [-0.2, 4.6, 0.2]]) + shift, [1.0, 0.8])
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


def exact_phasor(d, k_carrier):
    """The reference carrier phasor: one complex exp per element."""
    return np.exp(-1j * k_carrier * d)


@pytest.mark.simd
class TestPhasorTolerance:
    """The kernel's float32 carrier phasor against the exact complex exp.

    The exact stack is reference_stack's complex128 loop with the complex
    exp, so it carries neither the float32 phasors nor the kernel's
    complex64 values; the image bounds hold the kernel to it with both.
    Bits depend on which SIMD path numpy dispatches cos and sin to, so these
    bounds, not hashes, are the contract; CI reruns this class with numpy's
    AVX512 paths disabled and with only its baseline path.
    """

    K = 2.0 * np.pi * 77.4e9 / im.C_LIGHT

    @pytest.fixture(scope="class")
    def exact_stack(self, small_e2e):
        return reference_stack(
            small_e2e["capture"], small_e2e["grid"], small_e2e["aperture"], phasor=exact_phasor
        )

    def test_phasor_within_1e6_up_to_100m(self):
        # 0.1 mm steps put about 40 samples in each carrier wavelength
        d = np.linspace(0.0, 100.0, 1_000_001)
        err = np.abs(imaging._carrier_phasor(d, self.K) - exact_phasor(d, self.K))
        assert err.max() <= 1e-6

    def test_image_within_1e6_of_peak(self, small_e2e, exact_stack):
        assert_within_1e6_of_peak(small_e2e["stack"].images, exact_stack)

    def test_baseline_phase_within_1e5_rad_above_15db(self, small_e2e, exact_stack):
        assert_baseline_phases_within_1e5_rad(small_e2e["stack"], exact_stack, small_e2e["map"])


def assert_within_1e6_of_peak(images, reference):
    assert np.abs(images - reference).max() <= 1e-6 * np.abs(reference).max()


def assert_baseline_phases_within_1e5_rad(stack, reference, emap):
    """Every vertical baseline's phase agrees with reference's to 1e-5 rad
    on the map's pixels at 15 dB SNR or more."""
    strong = emap.snr_db >= 15.0
    assert strong.sum() >= 20
    for b in stack.array.vertical_baselines:
        fast = stack.images[b.lower_vx] * np.conj(stack.images[b.upper_vx])
        slow = reference[b.lower_vx] * np.conj(reference[b.upper_vx])
        assert np.abs(np.angle(fast[strong] * np.conj(slow[strong]))).max() <= 1e-5


@pytest.mark.simd
class TestSinglePrecisionTolerance:
    """image_stack's complex64 values and per-batch partial sums against
    reference_stack: the same phasors, with float64 weights and every record
    added straight into a complex128 image.  CI reruns this class on numpy's
    other SIMD paths."""

    @pytest.fixture(scope="class")
    def case(self, small_e2e):
        # both targets, under a shorter aperture that keeps the per-record
        # reference quick
        grid = im.ImageGrid(np.array([-0.6, 3.7]), np.array([0.9, 1.7]), 0.04)
        return small_e2e["capture"], grid, im.Aperture(0.1)

    @pytest.fixture(scope="class")
    def stacks(self, case):
        return im.image_stack(*case, threads=2), reference_stack(*case)

    def test_image_within_1e6_of_peak(self, stacks):
        stack, reference = stacks
        assert_within_1e6_of_peak(stack.images, reference)

    def test_baseline_phase_within_1e5_rad_above_15db(self, stacks):
        stack, reference = stacks
        assert_baseline_phases_within_1e5_rad(stack, reference, im.build_elevation_map(stack))


@pytest.mark.simd
class TestManyBatchTolerance:
    """TestSinglePrecisionTolerance's bounds over a thousand cycles, 131
    cycle batches: each batch's sum is added into the complex64 image, so
    its rounding accumulates with the batches.  CI reruns this class on
    numpy's other SIMD paths."""

    @pytest.fixture(scope="class")
    def case(self):
        # two TX and two RX, so 4 records a cycle: 4 VX, 2 vertical baselines
        cfg = im.ChirpConfig(77.4e9, 30e12, 64, 18.75e6, 63.9e-6, 256, 2)
        lam = im.derive_chirp_params(cfg).wavelength_m
        array = im.build_virtual_array([(0.0, 0, 0), (0.0, 0, lam / 2)], [(0.0, 0, 0), (lam / 2, 0, 0)])
        scene = im.Scene([[-0.2, 4.0, 0.8], [0.1, 4.3, 0.3], [0.25, 3.9, 0.5]], [1.0, 0.7, 0.5])
        capture = im.synthesize_capture(scene, make_rail_trajectory(5.0, 0.0665, 0.5), cfg, array)
        capture = im.add_noise(capture, 20.0, seed=5)
        grid = im.ImageGrid(np.array([-0.4, 3.6]), np.array([0.8, 0.8]), 0.04)
        aperture = im.Aperture(1.0)
        sel, _ = _select_aperture(capture, aperture)
        assert np.unique(capture.cycle[sel]).size >= 1000
        return capture, grid, aperture

    @pytest.fixture(scope="class")
    def stacks(self, case):
        return im.image_stack(*case), reference_stack(*case)

    def test_image_within_1e6_of_peak(self, stacks):
        stack, reference = stacks
        assert_within_1e6_of_peak(stack.images, reference)

    def test_baseline_phase_within_1e5_rad_above_15db(self, stacks):
        stack, reference = stacks
        assert_baseline_phases_within_1e5_rad(stack, reference, im.build_elevation_map(stack))


class TestInterpolation:
    def test_slope_form_equals_two_point_form(self):
        rng = np.random.default_rng(5)
        profile = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        slope = np.diff(profile)
        # every q below the last slope, len(slope) = 299
        q = np.r_[rng.uniform(0.0, 299.0, 5000), 0.0, 298.0, 298.5, np.nextafter(299.0, 0.0)]
        # complex128 tables and buffers, so the slope form is compared in
        # double precision
        work = (np.empty(q.size), np.empty(q.size, dtype=np.intp), np.empty(q.size, dtype=complex))
        sloped = imaging._interp_linear(profile, slope, q, work, np.empty(q.size, dtype=complex))
        i0 = np.floor(q).astype(int)
        w = q - i0
        two_point = profile[i0] * (1.0 - w) + profile[i0 + 1] * w
        assert np.allclose(sloped, two_point, rtol=0, atol=1e-14 * np.abs(profile).max())

    def test_grids_beyond_profile_extent_are_refused(self):
        # max range is c*fs/(2*slope) = 93.7 m: a dechirped return from
        # farther aliases into a near bin.  A grid straddling it, and one
        # about 1e20 m away, whose bin positions would overflow an index.
        cfg = im.ChirpConfig(77.4e9, 30e12, 64, 18.75e6, 63.9e-6, 256, 1)
        max_range = im.derive_chirp_params(cfg).max_range_m
        scene = im.Scene([[0.0, 92.0, 0.0]], [1.0])
        cap = im.add_noise(monostatic_capture(cfg, scene, speed=1.0, t_half=0.002), 10.0, seed=4)
        for origin in ((-0.5, max_range - 2.0), (1e20, 0.0)):
            grid = im.ImageGrid(np.array(origin), np.array([1.0, 4.0]), 0.1)
            with pytest.raises(ConfigError, match=r"range limit c\*fs/\(2\*slope\) = 93\.69 m"):
                im.image_stack(cap, grid, im.Aperture(0.004))


def aperture_records(capture, grid, aperture, image_height_m, oversample_factor=4):
    """The aperture's records in cycle order, each as (cycle batch, VX, full
    range profile, d_tx, d_rx, q): per pixel, the 3-D distance to the
    record's TX and RX elements and the fractional bin q = (d_tx + d_rx) / 2.
    Cycle batches are runs of _CYCLE_BATCH cycles, read from the capture and
    range-compressed one at a time, as the kernel reads them."""
    taps, n_padded, bin_spacing_m = imaging._range_setup(capture.config, oversample_factor, "rectangular")
    sel, center = _select_aperture(capture, aperture)
    sel = sel[np.argsort(capture.cycle[sel], kind="stable")]
    batch = np.unique(capture.cycle[sel], return_inverse=True)[1] // imaging._CYCLE_BATCH
    array = capture.array
    half_inv_bin = 0.5 * (1.0 / bin_spacing_m)
    pu = np.repeat(grid.u_centers(), grid.n_v)
    pv = np.tile(grid.v_centers(), grid.n_u)
    pz = center.position[2] + image_height_m
    for b, rows in enumerate(np.split(sel, np.flatnonzero(np.diff(batch)) + 1)):
        for r, profile in zip(rows, imaging._compress(capture.samples[rows], taps, n_padded)):
            pose = capture.records[r].pose
            tx_w = pose.to_world(array.tx_positions)[capture.tx[r]]
            rx_w = pose.to_world(array.rx_positions)[capture.rx[r]]
            d_tx, d_rx = (np.sqrt((pu - x) ** 2 + (pv - y) ** 2 + (pz - z) ** 2) for x, y, z in (tx_w, rx_w))
            q = d_tx * half_inv_bin + d_rx * half_inv_bin
            yield b, array.vx_index(capture.tx[r], capture.rx[r]), profile, d_tx, d_rx, q


def carrier_wavenumber(capture):
    return 2.0 * np.pi * capture.config.center_frequency_hz / im.C_LIGHT


def oracle_stack(capture, grid, aperture, image_height_m, oversample_factor=4):
    """image_stack as a plain loop over the aperture's records, with the
    kernel's precision steps: the full range profile and its first
    differences rounded to complex64, read with the slope-form two-point
    formula p[i] + (p[i+1] - p[i]) * w, w = q - i rounded to float32;
    times one complex64 _carrier_phasor per leg.  Each VX sums its records'
    values in complex64 over a cycle batch, then adds the sum into its
    complex64 image."""
    k = carrier_wavenumber(capture)
    images = np.zeros((capture.array.n_vx, grid.n_u * grid.n_v), dtype=np.complex64)
    partial = np.zeros(images.shape, dtype=np.complex64)
    current = 0
    for batch, vx, profile, d_tx, d_rx, q in aperture_records(
        capture, grid, aperture, image_height_m, oversample_factor
    ):
        if batch != current:
            images += partial
            partial[:] = 0.0
            current = batch
        i = np.floor(q).astype(int)
        slope = (profile[i + 1] - profile[i]).astype(np.complex64)
        value = profile[i].astype(np.complex64) + slope * (q - i).astype(np.float32)
        value = value * imaging._carrier_phasor(d_tx, k) * imaging._carrier_phasor(d_rx, k)
        partial[vx] += value
    images += partial
    return images.reshape(capture.array.n_vx, grid.n_u, grid.n_v)


def reference_stack(capture, grid, aperture, image_height_m=0.0, phasor=None):
    """The per-record loop in complex128: float64 weights, and each
    record's value added straight into its image.
    phasor(d, k) defaults to the kernel's float32 cos/sin carrier phasor."""
    if phasor is None:
        def phasor(d, k):
            return imaging._carrier_phasor(d, k).astype(np.complex128)
    k = carrier_wavenumber(capture)
    images = np.zeros((capture.array.n_vx, grid.n_u * grid.n_v), dtype=np.complex128)
    for _, vx, profile, d_tx, d_rx, q in aperture_records(capture, grid, aperture, image_height_m):
        i = np.floor(q).astype(int)
        value = profile[i] + (profile[i + 1] - profile[i]) * (q - i)
        value = value * phasor(d_tx, k) * phasor(d_rx, k)
        images[vx] += value
    return images.reshape(capture.array.n_vx, grid.n_u, grid.n_v)


@pytest.mark.simd
class TestKernelOracle:
    """image_stack equals oracle_stack bit for bit: row blocks and profiles
    cut to the bins in reach change no float, and the complex64 partial sums
    run per pixel, VX and cycle batch."""

    @pytest.fixture(scope="class")
    def config(self, small_chirp):
        return dataclasses.replace(small_chirp, samples_per_chirp=64)

    @pytest.fixture(scope="class")
    def scene(self, config):
        max_range = im.derive_chirp_params(config).max_range_m
        return im.Scene([[0.1, 3.6, 0.9], [-0.2, 4.1, 0.2], [0.0, max_range - 0.6, 0.5]], [1.0, 0.8, 1.0])

    @pytest.fixture(scope="class")
    def capture(self, config, scene):
        array = im.default_virtual_array(im.derive_chirp_params(config).wavelength_m)
        traj = make_rail_trajectory(5.0, 0.004, 0.5)
        # noise keeps every profile bin non-zero
        return im.add_noise(im.synthesize_capture(scene, traj, config, array), 10.0, seed=3)

    @pytest.fixture(scope="class")
    def monostatic(self, config, scene):
        # TX and RX coincide, so both legs of every record read one field
        cfg = dataclasses.replace(config, num_tx=1)
        return im.add_noise(monostatic_capture(cfg, scene, speed=5.0, t_half=0.004, height=0.5), 10.0, seed=3)

    @pytest.fixture(scope="class")
    def grids(self, capture):
        max_range = im.derive_chirp_params(capture.config).max_range_m
        # (grid, image_height_m)
        return {
            # within reach of a few dozen of the 256 bins, so profiles are
            # cut; 0.4 m below the sensor, so the height term counts
            "near": (im.ImageGrid(np.array([-0.5, 3.2]), np.array([1.0, 1.2]), 0.04), -0.4),
            # reaching into the last slope of the full profile, whose last
            # bin lies at 93.3 m, with no profile cut
            "edge": (im.ImageGrid(np.array([-0.5, max_range - 2.0]), np.array([1.0, 1.5]), 0.1), 0.0),
        }

    @pytest.fixture(scope="class")
    def oracles(self, capture, grids):
        aperture = im.Aperture(0.03)
        return {name: oracle_stack(capture, grid, aperture, height) for name, (grid, height) in grids.items()}

    @pytest.mark.parametrize("blocks", [None, "rows", "row slices"])
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("grid_name", ["near", "edge"])
    def test_stack_equals_per_record_loop(self, capture, grids, oracles, grid_name, threads, blocks, monkeypatch):
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
        stack = im.image_stack(capture, grid, im.Aperture(0.03), image_height_m=height, threads=threads)
        oracle = oracles[grid_name]
        assert oracle.all()
        assert stack.images.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("grid_name", ["near", "edge"])
    def test_monostatic_stack_equals_per_record_loop(self, monostatic, grids, grid_name):
        grid, height = grids[grid_name]
        assert monostatic.array.n_vx == 1
        stack = im.image_stack(monostatic, grid, im.Aperture(0.03), image_height_m=height)
        oracle = oracle_stack(monostatic, grid, im.Aperture(0.03), height)
        assert oracle.all()
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
        grid = configio.load_grid({})
        assert (grid.n_u, grid.n_v) == (750, 750)

    def test_subpixel_grid_rejected(self):
        with pytest.raises(ConfigError):
            im.ImageGrid(np.array([0.0, 0.0]), np.array([0.01, 0.01]), 0.04)


def test_interpolation_key_may_be_linear_or_absent():
    # the shipped configs say interpolation = linear; image_stack takes no
    # interpolation option
    options = configio.load_imaging_options({"interpolation": "linear"})
    assert options == configio.load_imaging_options({})
    assert "interpolation" not in options


class TestStackValues:
    def stack_with(self, stack, **changes):
        fields = dict(
            grid=stack.grid, array=stack.array, images=stack.images, phase_center=stack.phase_center,
            aperture_length_m=stack.aperture_length_m, wavelength_m=stack.wavelength_m,
        )
        return im.SarImageStack(**{**fields, **changes})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pixel_rejected_with_its_vx(self, small_e2e, bad):
        # kept as complex64, or rounded to it first
        for dtype in (np.complex64, np.complex128):
            images = small_e2e["stack"].images.astype(dtype)
            images[3, 1, 2] = bad
            with pytest.raises(ConfigError, match="VX 3 image holds non-finite pixels"):
                self.stack_with(small_e2e["stack"], images=images)

    def test_images_are_held_at_complex64(self, small_e2e):
        # complex64 planes are kept as they are; others are rounded to them
        stack = small_e2e["stack"]
        assert stack.images.dtype == np.complex64
        assert self.stack_with(stack).images is stack.images
        wide = stack.images.astype(np.complex128) * (1 + 1e-9)
        rounded = self.stack_with(stack, images=wide).images
        assert rounded.dtype == np.complex64
        assert rounded.tobytes() == wide.astype(np.complex64).tobytes()

    def test_images_are_read_only_once_checked(self, small_e2e, tmp_path):
        # a NaN written into a writable stack after its check would reach the
        # elevate stage, which would blame the mean phase delay plane, not the VX image
        from insarmap import formats

        stack = small_e2e["stack"]
        for images in (stack.images.copy(), stack.images.astype(np.complex128)):
            held = self.stack_with(stack, images=images).images
            assert not held.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                held[0, 0, 0] = np.nan
        # a store too, while the file it is made in is open for writing
        with formats.stack_file(tmp_path / "s.insarimg") as start:
            fields = dict(
                grid=stack.grid, array=stack.array, phase_center=stack.phase_center,
                aperture_length_m=stack.aperture_length_m, wavelength_m=stack.wavelength_m,
            )
            held = self.stack_with(stack, images=start(**fields)).images
            with pytest.raises(ValueError, match="reading only"):
                held[0, 0, 0] = np.nan

    def test_pixel_beyond_float32_is_refused_with_its_vx(self, small_e2e):
        # 1e39 is finite as complex128 but inf once rounded to complex64
        images = small_e2e["stack"].images.astype(np.complex128)
        images[2, 1, 3] = 1e39j
        with pytest.raises(ConfigError, match="VX 2 image holds pixels beyond float32 range"):
            self.stack_with(small_e2e["stack"], images=images)
        # a NaN pixel in an earlier plane: the overflow is still the refusal
        images[1, 0, 0] = np.nan
        with pytest.raises(ConfigError, match="VX 2 image holds pixels beyond float32 range"):
            self.stack_with(small_e2e["stack"], images=images)

    @pytest.mark.parametrize("length", [np.inf, np.nan, 0.0, -1.0])
    def test_one_aperture_length_rule(self, small_e2e, length):
        # the stack and the resolution formula used to take an infinite
        # aperture length, which Aperture refused
        for make in (
            lambda: im.Aperture(length_m=length),
            lambda: self.stack_with(small_e2e["stack"], aperture_length_m=length),
            lambda: im.predicted_azimuth_resolution(length, 0.004, 1.0),
        ):
            with pytest.raises(ConfigError, match=r"aperture_length_m must be > 0"):
                make()

    @pytest.mark.parametrize("wavelength", [np.nan, -0.004, 0.0, np.inf])
    def test_wavelength_must_be_finite_and_positive(self, small_e2e, wavelength):
        with pytest.raises(ConfigError, match="wavelength"):
            self.stack_with(small_e2e["stack"], wavelength_m=wavelength)

    @pytest.mark.parametrize("amplitude", [3e35, 1e36, 1e37])
    def test_values_beyond_float32_are_refused(self, small_chirp, amplitude):
        # at 3e35 every cycle batch's complex64 sum fits float32 but the
        # image's sum over the 6 batches (5.9e38) does not; at 1e36 every
        # range profile bin fits (6.3e37 at most) but a cycle batch's sum
        # does not; at 1e37 the bins do not
        cfg = dataclasses.replace(small_chirp, samples_per_chirp=64)
        array = im.default_virtual_array(im.derive_chirp_params(cfg).wavelength_m)
        scene = im.Scene([[0.0, 3.8, 0.5]], [amplitude])
        capture = im.synthesize_capture(scene, make_rail_trajectory(5.0, 0.004, 0.5), cfg, array)
        grid = im.ImageGrid(np.array([-0.5, 3.2]), np.array([1.0, 1.2]), 0.04)
        with pytest.raises(ConfigError, match="VX 0 image holds pixels beyond float32 range"):
            im.image_stack(capture, grid, im.Aperture(0.03))

    @pytest.mark.parametrize("height", [np.inf, -np.inf, np.nan])
    def test_non_finite_image_height_rejected(self, small_e2e, height):
        with pytest.raises(ConfigError, match="image_height_m"):
            im.image_stack(small_e2e["capture"], small_e2e["grid"], small_e2e["aperture"], image_height_m=height)
