"""Beat-signal synthesis, TDM scheduling, and noise injection."""

import dataclasses

import numpy as np
import pytest

import insarmap as im
from insarmap import simulate as sim
from insarmap.errors import ConfigError, DomainError

from conftest import make_rail_trajectory


def single_target(r, amplitude=1.0):
    return im.Scene((im.PointTarget(np.array([0.0, r, 0.0]), amplitude),))


class TestSynthesizeChirp:
    def test_beat_bin_at_23p4_m(self, reference_chirp):
        # monostatic beat slope*2R/c = 4.684 MHz lands at DFT bin 128 of 512
        sig = im.synthesize_chirp(single_target(23.4), np.zeros(3), np.zeros(3), reference_chirp)
        spectrum = np.abs(np.fft.fft(sig))
        expected_bin = 30e12 * 2 * 23.4 / im.C_LIGHT / (18.75e6 / 512)
        assert round(expected_bin) == 128
        assert np.argmax(spectrum) == 128

    def test_zero_amplitude_gives_zero_signal(self, reference_chirp):
        sig = im.synthesize_chirp(single_target(10.0, 0.0), np.zeros(3), np.zeros(3), reference_chirp)
        assert np.all(sig == 0)

    def test_two_coincident_targets_double_the_signal(self, reference_chirp):
        one = im.synthesize_chirp(single_target(15.0), np.zeros(3), np.zeros(3), reference_chirp)
        t = im.PointTarget(np.array([0.0, 15.0, 0.0]), 1.0)
        two = im.synthesize_chirp(im.Scene((t, t)), np.zeros(3), np.zeros(3), reference_chirp)
        assert np.allclose(two, 2 * one, rtol=0, atol=0)

    def test_empty_scene_rejected(self, reference_chirp):
        with pytest.raises(ConfigError):
            im.synthesize_chirp(im.Scene(()), np.zeros(3), np.zeros(3), reference_chirp)


class TestSynthesizeCapture:
    def test_tdm_sequence_and_pose_sharing(self, small_chirp):
        array = im.default_virtual_array(im.derive_chirp_params(small_chirp).wavelength_m)
        traj = make_rail_trajectory(1.0, 0.01, 0.0)
        # 6 firings = 2 full TDM cycles
        window = (-0.01, -0.01 + 6 * small_chirp.pri_s)
        cap = im.synthesize_capture(single_target(5.0), traj, small_chirp, array, window)
        firings = [
            (r.cycle, r.tx) for r in cap.records if r.rx == 0
        ]
        assert [tx for _, tx in firings] == [0, 1, 2, 0, 1, 2]
        poses = {}
        for rec in cap.records:
            poses.setdefault(rec.cycle, set()).add(id(rec.pose))
        assert all(len(s) == 1 for s in poses.values())
        assert len(poses) == 2

    def test_stationary_trajectory_repeats_pulses(self, small_chirp):
        array = im.default_virtual_array(im.derive_chirp_params(small_chirp).wavelength_m)
        traj = im.Trajectory(
            (
                im.Pose(0.0, np.array([0.0, 0, 0]), np.array([1.0, 0, 0, 0])),
                im.Pose(1.0, np.array([0.0, 0, 0]), np.array([1.0, 0, 0, 0])),
            )
        )
        window = (0.0, 4 * 3 * small_chirp.pri_s)
        cap = im.synthesize_capture(single_target(5.0), traj, small_chirp, array, window)
        first = {}
        for rec in cap.records:
            key = (rec.tx, rec.rx)
            if key in first:
                assert np.array_equal(rec.samples, first[key])
            else:
                first[key] = rec.samples

    def test_aperture_cycle_count_at_1mps(self):
        # 1 m aperture at 1 m/s with a 191.7 us effective PRI spans 5217 cycles
        cfg = im.ChirpConfig(77.4e9, 30e12, 4, 18.75e6, 63.9e-6, 256, 3)
        array = im.default_virtual_array(im.derive_chirp_params(cfg).wavelength_m)
        traj = make_rail_trajectory(1.0, 0.6, 0.0)
        cap = im.synthesize_capture(single_target(5.0), traj, cfg, array)
        from insarmap.imaging import _select_aperture

        sel, _, _ = _select_aperture(cap, im.Aperture(length_m=1.0))
        cycles = {cap.records[i].cycle for i in sel}
        assert len(cycles) == 5217

    def test_trajectory_too_short(self, small_chirp):
        array = im.default_virtual_array(im.derive_chirp_params(small_chirp).wavelength_m)
        traj = make_rail_trajectory(1.0, 0.5, 0.0)
        with pytest.raises(DomainError):
            im.synthesize_capture(
                single_target(5.0), traj, small_chirp, array, (-0.5, 10.0)
            )
        short = im.Trajectory(
            (
                im.Pose(0.0, np.zeros(3), np.array([1.0, 0, 0, 0])),
                im.Pose(1e-5, np.ones(3) * 1e-5, np.array([1.0, 0, 0, 0])),
            )
        )
        with pytest.raises(DomainError):
            im.synthesize_capture(single_target(5.0), short, small_chirp, array)

    def test_superposition_exact_for_added_target(self, small_chirp):
        array = im.build_virtual_array([(0.0, 0, 0)], [(0.0, 0, 0)])
        cfg = im.ChirpConfig(77.4e9, 30e12, 64, 18.75e6, 63.9e-6, 256, 1)
        traj = make_rail_trajectory(1.0, 0.01, 0.0)
        window = (-0.01, -0.01 + 8 * cfg.pri_s)
        a = im.PointTarget(np.array([1.0, 6.0, 0.0]), 1.0)
        b = im.PointTarget(np.array([-2.0, 8.0, 0.5]), 0.7)
        c = im.PointTarget(np.array([0.5, 12.0, -0.2]), 1.3)
        cap_ab = im.synthesize_capture(im.Scene((a, b)), traj, cfg, array, window)
        cap_c = im.synthesize_capture(im.Scene((c,)), traj, cfg, array, window)
        cap_abc = im.synthesize_capture(im.Scene((a, b, c)), traj, cfg, array, window)
        for rec_abc, rec_ab, rec_c in zip(cap_abc.records, cap_ab.records, cap_c.records):
            # sequential in-order accumulation makes this exact, not just close
            assert np.array_equal(rec_abc.samples, rec_ab.samples + rec_c.samples)

    def test_range_shift_moves_beat_by_predicted_bins(self, reference_chirp):
        array = im.build_virtual_array([(0.0, 0, 0)], [(0.0, 0, 0)])
        traj = make_rail_trajectory(1.0, 0.01, 0.0)
        window = (-0.01, -0.01 + reference_chirp.num_tx * reference_chirp.pri_s)
        delta_r = 3.7
        bins = []
        for r in (20.0, 20.0 + delta_r):
            cfg1 = im.ChirpConfig(77.4e9, 30e12, 512, 18.75e6, 63.9e-6, 256, 1)
            cap = im.synthesize_capture(single_target(r), traj, cfg1, array, window)
            bins.append(np.argmax(np.abs(np.fft.fft(cap.records[0].samples))))
        predicted = 30e12 * 2 * delta_r / im.C_LIGHT / (18.75e6 / 512)
        assert abs((bins[1] - bins[0]) - predicted) <= 1.0


class TestElementPattern:
    @pytest.mark.parametrize("power", [-1e300, -2.0, np.nan])
    def test_negative_power_rejected(self, small_chirp, power):
        # a negative power used to raise OverflowError off boresight
        with pytest.raises(ConfigError, match="cosine power"):
            im.synthesize_chirp(
                single_target(5.0), np.zeros(3), np.zeros(3), small_chirp, pattern=(power, np.array([0.0, 1, 0]))
            )

    def test_boresight_target_unscaled(self, small_chirp):
        scene = single_target(5.0)
        iso = im.synthesize_chirp(scene, np.zeros(3), np.zeros(3), small_chirp)
        pat = im.synthesize_chirp(
            scene, np.zeros(3), np.zeros(3), small_chirp, pattern=(2.0, np.array([0.0, 1.0, 0.0]))
        )
        assert np.allclose(pat, iso, rtol=0, atol=0)

    def test_off_boresight_scaled_on_both_legs(self, small_chirp):
        # target 60 degrees off boresight: amplitude scales by cos(60)^p twice
        target = im.Scene((im.PointTarget(np.array([np.sqrt(3.0) * 2.5, 2.5, 0.0]), 1.0),))
        iso = im.synthesize_chirp(target, np.zeros(3), np.zeros(3), small_chirp)
        pat = im.synthesize_chirp(
            target, np.zeros(3), np.zeros(3), small_chirp, pattern=(1.0, np.array([0.0, 1.0, 0.0]))
        )
        assert np.allclose(pat, 0.25 * iso, rtol=1e-12, atol=0)

    def test_target_behind_is_silent(self, small_chirp):
        behind = im.Scene((im.PointTarget(np.array([0.0, -5.0, 0.0]), 1.0),))
        pat = im.synthesize_chirp(
            behind, np.zeros(3), np.zeros(3), small_chirp, pattern=(1.0, np.array([0.0, 1.0, 0.0]))
        )
        assert np.all(pat == 0)

    def test_capture_level_hook(self, small_chirp):
        array = im.default_virtual_array(im.derive_chirp_params(small_chirp).wavelength_m)
        traj = make_rail_trajectory(1.0, 0.01, 0.0)
        window = (-0.01, -0.01 + 3 * small_chirp.pri_s)
        iso = im.synthesize_capture(single_target(5.0), traj, small_chirp, array, window)
        pat = im.synthesize_capture(
            single_target(5.0), traj, small_chirp, array, window, pattern_cos_power=2.0
        )
        # near-broadside target: gains are within (cos 0.0023 rad)^4 of 1
        for a, b in zip(iso.records, pat.records):
            assert np.allclose(b.samples, a.samples, rtol=1e-4, atol=0)
            assert not np.array_equal(b.samples, a.samples)


class TestAddNoise:
    def make_capture(self, small_chirp):
        array = im.default_virtual_array(im.derive_chirp_params(small_chirp).wavelength_m)
        traj = make_rail_trajectory(1.0, 0.01, 0.0)
        window = (-0.01, -0.01 + 6 * small_chirp.pri_s)
        return im.synthesize_capture(single_target(5.0), traj, small_chirp, array, window)

    def test_infinite_snr_returns_capture_unchanged(self, small_chirp):
        cap = self.make_capture(small_chirp)
        assert im.add_noise(cap, np.inf, seed=0) is cap

    def test_fixed_seed_is_deterministic(self, small_chirp):
        cap = self.make_capture(small_chirp)
        n1 = im.add_noise(cap, 10.0, seed=42)
        n2 = im.add_noise(cap, 10.0, seed=42)
        for r1, r2 in zip(n1.records, n2.records):
            assert np.array_equal(r1.samples, r2.samples)
        n3 = im.add_noise(cap, 10.0, seed=43)
        assert not np.array_equal(n1.records[0].samples, n3.records[0].samples)

    def test_noise_power_matches_requested_snr(self, small_chirp):
        cap = self.make_capture(small_chirp)
        snr_db = 3.0
        noisy = im.add_noise(cap, snr_db, seed=1)
        sig = np.concatenate([r.samples for r in cap.records])
        res = np.concatenate([r.samples for r in noisy.records]) - sig
        measured = np.mean(np.abs(sig) ** 2) / np.mean(np.abs(res) ** 2)
        assert 10 * np.log10(measured) == pytest.approx(snr_db, abs=0.3)

    def test_zero_capture_requires_override(self, small_chirp):
        cap = self.make_capture(small_chirp)
        zero = dataclasses.replace(cap, samples=np.zeros_like(cap.samples))
        with pytest.raises(DomainError):
            im.add_noise(zero, 10.0, seed=0)
        noisy = im.add_noise(zero, 10.0, seed=0, noise_power=1.0)
        power = np.mean(np.abs(np.concatenate([r.samples for r in noisy.records])) ** 2)
        assert power == pytest.approx(1.0, rel=0.05)

    @pytest.mark.parametrize("snr_db", [np.nan, -np.inf, -1e300])
    def test_snr_without_a_finite_noise_power_rejected(self, small_chirp, snr_db):
        # -inf used to die with ZeroDivisionError
        with pytest.raises(ConfigError, match="per_sample_snr_db"):
            im.add_noise(self.make_capture(small_chirp), snr_db, seed=0)

    def test_snr_beyond_float_range_adds_no_noise(self, small_chirp):
        cap = self.make_capture(small_chirp)
        assert im.add_noise(cap, 1e300, seed=0) is cap


class TestCaptureValues:
    def test_non_finite_sample_rejected_with_its_record(self, small_chirp):
        # a record past the first check block, so the block offset counts
        array = im.default_virtual_array(im.derive_chirp_params(small_chirp).wavelength_m)
        cap = im.synthesize_capture(single_target(5.0), make_rail_trajectory(1.0, 0.01, 0.0), small_chirp, array)
        row = sim._NOISE_ROWS + 5
        assert cap.n_records > row
        for bad in (np.nan, np.inf):
            samples = cap.samples.copy()
            samples[row, 3] = bad
            with pytest.raises(ConfigError, match=f"record {row} holds non-finite samples"):
                dataclasses.replace(cap, samples=samples)
        times = cap.time_s.copy()
        times[-1] = np.nan
        with pytest.raises(ConfigError, match="finite"):
            dataclasses.replace(cap, time_s=times)

    def test_overflowing_amplitude_fails_in_simulate(self, small_chirp):
        # the samples are finite until noise is added, which overflows
        array = im.default_virtual_array(im.derive_chirp_params(small_chirp).wavelength_m)
        cap = im.synthesize_capture(
            single_target(5.0, 1e300), make_rail_trajectory(1.0, 0.001, 0.0), small_chirp, array
        )
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ConfigError, match="non-finite"):
            im.add_noise(cap, 20.0, seed=0)

    def test_window_with_too_many_cycles_rejected(self, small_chirp):
        # counting 5e303 cycles one at a time used to hang
        array = im.default_virtual_array(im.derive_chirp_params(small_chirp).wavelength_m)
        traj = im.Trajectory(
            (
                im.Pose(0.0, np.zeros(3), np.array([1.0, 0, 0, 0])),
                im.Pose(1e300, np.zeros(3), np.array([1.0, 0, 0, 0])),
            )
        )
        with pytest.raises(DomainError, match="TDM cycles"):
            im.synthesize_capture(single_target(5.0), traj, small_chirp, array)


def loop_chirp(scene, tx_pos, rx_pos, cfg, pattern=None):
    """One chirp as a per-target loop over np.linalg.norm and np.dot: the
    arithmetic the vectorised synthesis must reproduce bit for bit."""
    n = np.arange(cfg.samples_per_chirp)
    out = np.zeros(cfg.samples_per_chirp, dtype=np.complex128)
    for target in scene.targets:
        p = target.position
        tau = (np.linalg.norm(p - tx_pos) + np.linalg.norm(p - rx_pos)) / im.C_LIGHT
        amplitude = target.amplitude
        if pattern is not None:
            power, boresight = pattern
            for element in (tx_pos, rx_pos):
                r = np.linalg.norm(p - element)
                cos = float(np.dot(boresight, p - element) / r) if r else 1.0
                amplitude = amplitude * (cos**power if cos > 0.0 else 0.0)
        phase = 2.0 * np.pi * (
            cfg.ramp_slope_hz_per_s * tau * n / cfg.sample_rate_sps
            + cfg.center_frequency_hz * tau
        )
        out += amplitude * np.exp(1j * phase)
    return out


class TestBeatOracle:
    """synthesize_capture rows equal the plain per-target sum of
    amplitude * np.exp(1j * 2*pi*(slope*tau*n/fs + f_c*tau)) in scene order
    (loop_chirp), bit for bit, whatever work buffers the synthesis reuses."""

    @pytest.mark.parametrize("samples_per_chirp", [64, 300])
    def test_capture_rows_equal_plain_exp_sum(self, samples_per_chirp):
        cfg = im.ChirpConfig(77.4e9, 30e12, samples_per_chirp, 18.75e6, 63.9e-6, 256, 3)
        array = im.default_virtual_array(im.derive_chirp_params(cfg).wavelength_m)
        traj = make_rail_trajectory(8.0, 0.01, 0.5)
        scene = im.Scene(
            tuple(
                im.PointTarget(np.array(p), a)
                for p, a in (
                    ((0.0, 4.0, 0.5), 1.0),
                    ((-1.2, 6.5, 1.3), 0.7),
                    ((2.0, 11.0, -0.2), 2.0),
                    ((0.3, 30.0, 0.9), 1e-3),
                )
            )
        )
        n_cycles = sim._SYNTH_CYCLES + 3
        cap = im.synthesize_capture(scene, traj, cfg, array, (-0.01, -0.01 + (3 * n_cycles - 1) * cfg.pri_s))
        assert cap.n_cycles == n_cycles
        for r in range(cap.n_records):
            pose = cap.poses[cap.pose_index[r]]
            tx_pos = pose.to_world(array.tx_positions)[cap.tx[r]]
            rx_pos = pose.to_world(array.rx_positions)[cap.rx[r]]
            assert cap.samples[r].tobytes() == loop_chirp(scene, tx_pos, rx_pos, cfg).tobytes()


class TestBlockPaths:
    """The block-wise synthesis and noise give the floats of the whole-array
    arithmetic, for sizes that are not multiples of the block sizes."""

    @pytest.mark.parametrize("samples_per_chirp", [256, 500])
    @pytest.mark.parametrize("power", [None, 1.5])
    def test_capture_rows_equal_single_chirps(self, samples_per_chirp, power):
        cfg = im.ChirpConfig(77.4e9, 30e12, samples_per_chirp, 18.75e6, 63.9e-6, 256, 3)
        array = im.default_virtual_array(im.derive_chirp_params(cfg).wavelength_m)
        yaw = np.radians(4.0)
        traj = im.Trajectory(
            (
                im.Pose(0.0, np.array([-0.1, 0.0, 0.5]), np.array([1.0, 0, 0, 0])),
                im.Pose(0.1, np.array([0.1, 0.02, 0.5]), np.array([np.cos(yaw), 0, 0, np.sin(yaw)])),
            )
        )
        scene = im.Scene(
            tuple(
                im.PointTarget(np.array(p), a)
                for p, a in (
                    ((0.0, 4.0, 0.5), 1.0),
                    ((-1.2, 6.5, 1.3), 0.7),
                    ((2.0, 3.0, -0.2), 2.0),
                    ((0.3, -2.0, 0.5), 1.0),  # behind the array
                    ((-0.1, 0.0, 0.5), 0.5),  # at TX 0 in cycle 0
                )
            )
        )
        n_cycles = 2 * sim._SYNTH_CYCLES + 5
        window = (0.0, (3 * n_cycles - 1) * cfg.pri_s)
        cap = im.synthesize_capture(scene, traj, cfg, array, window, pattern_cos_power=power)
        assert cap.n_cycles == n_cycles
        for r in range(cap.n_records):
            pose = cap.poses[cap.pose_index[r]]
            tx_pos = pose.to_world(array.tx_positions)[cap.tx[r]]
            rx_pos = pose.to_world(array.rx_positions)[cap.rx[r]]
            pattern = None if power is None else (power, pose.rotation_matrix() @ np.array([0.0, 1.0, 0.0]))
            chirp = im.synthesize_chirp(scene, tx_pos, rx_pos, cfg, pattern)
            assert cap.samples[r].tobytes() == chirp.tobytes()
            assert chirp.tobytes() == loop_chirp(scene, tx_pos, rx_pos, cfg, pattern).tobytes()

    def test_add_noise_equals_one_draw(self, small_chirp):
        n_rows, n = 2 * sim._NOISE_ROWS + 37, small_chirp.samples_per_chirp
        rng = np.random.default_rng(7)
        samples = rng.standard_normal((n_rows, n)) + 1j * rng.standard_normal((n_rows, n))
        cap = im.RawCapture(
            config=small_chirp,
            array=im.default_virtual_array(im.derive_chirp_params(small_chirp).wavelength_m),
            samples=samples,
            tx=np.zeros(n_rows, dtype=int),
            rx=np.zeros(n_rows, dtype=int),
            cycle=np.arange(n_rows),
            time_s=np.arange(n_rows) * small_chirp.pri_s,
            poses=(im.Pose(0.0, np.zeros(3), np.array([1.0, 0, 0, 0])),),
            pose_index=np.zeros(n_rows, dtype=int),
        )
        snr_db = 7.0
        # the one-pass mean power and one whole draw of the same seed
        mean_power = np.mean(np.mean(np.abs(samples) ** 2, axis=1))
        sigma = np.sqrt(mean_power / 10.0 ** (snr_db / 10.0) / 2.0)
        draw = np.random.default_rng(11).standard_normal((n_rows, n, 2))
        expected = samples + sigma * (draw[..., 0] + 1j * draw[..., 1])
        assert im.add_noise(cap, snr_db, seed=11).samples.tobytes() == expected.tobytes()
