"""Beat-signal synthesis, TDM scheduling, and noise injection."""

import dataclasses
import warnings

import numpy as np
import pytest

import insarmap as im
from insarmap import simulate as sim
from insarmap.errors import ConfigError, DomainError

from conftest import make_rail_trajectory, own_samples


def single_target(r, amplitude=1.0):
    return im.Scene([[0.0, r, 0.0]], [amplitude])


class TestScene:
    def test_columns_are_read_only_float64_copies(self):
        positions, amplitudes = np.array([[0.0, 4.0, 0.5], [1.0, 5.0, 0.0]]), np.array([1, 2])
        scene = im.Scene(positions, amplitudes)
        assert len(scene) == 2
        assert scene.positions.dtype == scene.amplitudes.dtype == np.float64
        assert not (scene.positions.flags.writeable or scene.amplitudes.flags.writeable)
        positions[0, 0] = 9.0
        assert scene.positions[0, 0] == 0.0
        assert positions.flags.writeable

    @pytest.mark.parametrize(
        "positions, amplitudes, message",
        [
            ([[0.0, 4.0, 0.5]], [1.0, 1.0], r"positions \(1, 3\) and amplitudes \(2,\) are not \(n, 3\) and \(n,\)"),
            ([0.0, 4.0, 0.5], [1.0], r"scene positions \(3,\) and amplitudes \(1,\) are not"),
            ([[0, 4, 0], [0, 5, 0], [0, np.nan, 0]], [1, 1, 1], r"target 2 position must be finite, got \(0.0, nan"),
            ([[0, 4, 0], [0, 5, 0]], [1, -1], "target 1 amplitude must be finite and >= 0, got -1.0"),
            ([[0, 4, 0], [0, 5, 0]], [np.inf, 1], "target 0 amplitude must be finite and >= 0, got inf"),
            ([[0, 4, 0], [0, 5, np.inf]], [np.nan, 1], "target 0 amplitude .* got nan"),
        ],
        ids=["shapes disagree", "one target as a row", "nan position", "negative amplitude",
             "infinite amplitude", "the first bad target"],
    )
    def test_refusal_names_the_first_bad_target(self, positions, amplitudes, message):
        with pytest.raises(ConfigError, match=message):
            im.Scene(positions, amplitudes)


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
        two = im.synthesize_chirp(
            im.Scene([[0.0, 15.0, 0.0]] * 2, [1.0, 1.0]), np.zeros(3), np.zeros(3), reference_chirp
        )
        assert np.allclose(two, 2 * one, rtol=0, atol=0)

    def test_empty_scene_rejected(self):
        with pytest.raises(ConfigError, match="scene has no targets"):
            im.Scene(np.empty((0, 3)), np.empty(0))


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
        # the pose is sampled once per cycle: a cycle's pose rows are equal
        for c in np.unique(cap.cycle):
            rows = cap.pose[cap.cycle == c]
            assert (rows == rows[0]).all()
        assert cap.n_cycles == 2
        assert not np.array_equal(cap.pose[0], cap.pose[-1])

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

        sel, _ = _select_aperture(cap, im.Aperture(length_m=1.0))
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
        # synthesize_chirp's complex128 sum: a capture row is that sum
        # rounded to complex64, where the rounding of each part can differ
        cfg = im.ChirpConfig(77.4e9, 30e12, 64, 18.75e6, 63.9e-6, 256, 1)
        positions = [[1.0, 6.0, 0.0], [-2.0, 8.0, 0.5], [0.5, 12.0, -0.2]]
        amplitudes = [1.0, 0.7, 1.3]
        for x in np.linspace(-0.01, 0.01, 8):
            pos = np.array([x, 0.0, 0.0])
            ab = im.synthesize_chirp(im.Scene(positions[:2], amplitudes[:2]), pos, pos, cfg)
            only_c = im.synthesize_chirp(im.Scene(positions[2:], amplitudes[2:]), pos, pos, cfg)
            abc = im.synthesize_chirp(im.Scene(positions, amplitudes), pos, pos, cfg)
            # sequential in-order accumulation makes this exact, not just close
            assert np.array_equal(abc, ab + only_c)

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
        target = im.Scene([[np.sqrt(3.0) * 2.5, 2.5, 0.0]], [1.0])
        iso = im.synthesize_chirp(target, np.zeros(3), np.zeros(3), small_chirp)
        pat = im.synthesize_chirp(
            target, np.zeros(3), np.zeros(3), small_chirp, pattern=(1.0, np.array([0.0, 1.0, 0.0]))
        )
        assert np.allclose(pat, 0.25 * iso, rtol=1e-12, atol=0)

    def test_target_behind_is_silent(self, small_chirp):
        behind = im.Scene([[0.0, -5.0, 0.0]], [1.0])
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
        n1 = im.add_noise(own_samples(cap), 10.0, seed=42)
        n2 = im.add_noise(own_samples(cap), 10.0, seed=42)
        for r1, r2 in zip(n1.records, n2.records):
            assert np.array_equal(r1.samples, r2.samples)
        n3 = im.add_noise(own_samples(cap), 10.0, seed=43)
        assert not np.array_equal(n1.records[0].samples, n3.records[0].samples)

    def test_noise_power_matches_requested_snr(self, small_chirp):
        cap = self.make_capture(small_chirp)
        snr_db = 3.0
        noisy = im.add_noise(own_samples(cap), snr_db, seed=1)
        sig = np.concatenate([r.samples for r in cap.records])
        res = np.concatenate([r.samples for r in noisy.records]) - sig
        measured = np.mean(np.abs(sig) ** 2) / np.mean(np.abs(res) ** 2)
        assert 10 * np.log10(measured) == pytest.approx(snr_db, abs=0.3)

    def test_zero_capture_requires_override(self, small_chirp):
        cap = self.make_capture(small_chirp)
        zero = dataclasses.replace(cap, samples=np.zeros_like(cap.samples))
        with pytest.raises(DomainError):
            im.add_noise(zero, 10.0, seed=0)

    @pytest.mark.parametrize("snr_db", [np.nan, -np.inf, -1e300])
    def test_snr_without_a_finite_noise_power_rejected(self, small_chirp, snr_db):
        # -inf used to die with ZeroDivisionError
        with pytest.raises(ConfigError, match="per_sample_snr_db"):
            im.add_noise(self.make_capture(small_chirp), snr_db, seed=0)

    def test_noise_power_is_summed_in_float64(self, small_chirp):
        # a complex64 capture gets the noise of its exact complex128 values
        cap = self.make_capture(small_chirp)
        single = dataclasses.replace(cap, samples=cap.samples.astype(np.complex64))
        double = dataclasses.replace(cap, samples=single.samples.astype(np.complex128))
        noisy = im.add_noise(single, 3.0, seed=5)
        assert noisy.samples.tobytes() == im.add_noise(double, 3.0, seed=5).samples.tobytes()

    def test_snr_beyond_float_range_adds_no_noise(self, small_chirp):
        cap = self.make_capture(small_chirp)
        assert im.add_noise(cap, 1e300, seed=0) is cap

    def test_noise_is_added_in_place(self, small_chirp):
        cap = self.make_capture(small_chirp)
        records = cap.records
        expected = im.add_noise(own_samples(cap), 10.0, seed=3).samples.tobytes()
        noisy = im.add_noise(cap, 10.0, seed=3)
        # the result is a capture on the input's own buffer, which the input
        # and its record views built earlier now share, read-only again
        assert np.shares_memory(noisy.samples, cap.samples)
        assert noisy.samples.tobytes() == expected
        assert cap.samples.tobytes() == expected
        assert records[1].samples.tobytes() == noisy.samples[1].tobytes()
        assert not cap.samples.flags.writeable
        assert not noisy.samples.flags.writeable

    def test_samples_it_cannot_write_are_noised_into_a_new_buffer(self, small_chirp):
        cap = self.make_capture(small_chirp)
        clean = cap.samples.tobytes()
        frozen = np.frombuffer(clean, np.complex64).reshape(cap.samples.shape)
        borrowed = dataclasses.replace(cap, samples=frozen)
        assert borrowed.samples is frozen
        noisy = im.add_noise(borrowed, 10.0, seed=3)
        assert not np.shares_memory(noisy.samples, frozen)
        assert frozen.tobytes() == clean
        assert noisy.samples.tobytes() == im.add_noise(own_samples(cap), 10.0, seed=3).samples.tobytes()

    @pytest.mark.parametrize("writable", [True, False], ids=["in place", "new buffer"])
    def test_result_shares_the_input_columns(self, small_chirp, writable):
        # the result used to be dataclasses.replace(capture, samples=...),
        # which copied every column and checked every sample again
        cap = self.make_capture(small_chirp)
        if not writable:
            frozen = np.frombuffer(cap.samples.tobytes(), np.complex64).reshape(cap.samples.shape)
            cap = dataclasses.replace(cap, samples=frozen)
        noisy = im.add_noise(cap, 10.0, seed=3)
        for name in ("tx", "rx", "cycle", "time_s", "pose"):
            assert np.shares_memory(getattr(noisy, name), getattr(cap, name)), name
        assert np.shares_memory(noisy.samples, cap.samples) == writable
        assert not noisy.samples.flags.writeable

    def test_second_noise_is_scaled_to_the_noisy_power(self, small_chirp):
        # each add_noise measures the power of the samples it is given, the
        # noisy ones the second time, not the clean synthesis's
        twice = im.add_noise(im.add_noise(self.make_capture(small_chirp), 3.0, seed=1), 3.0, seed=2)
        once = im.add_noise(self.make_capture(small_chirp), 3.0, seed=1)
        rebuilt = dataclasses.replace(once, samples=once.samples.copy())
        assert twice.samples.tobytes() == im.add_noise(rebuilt, 3.0, seed=2).samples.tobytes()

    @pytest.mark.parametrize("seed", [-1, 1.5, "7"])
    def test_seed_the_generator_refuses_is_a_config_error(self, small_chirp, seed):
        cap = self.make_capture(small_chirp)
        clean = cap.samples.tobytes()
        with pytest.raises(ConfigError, match=f"seed must be a non-negative integer, got {seed!r}"):
            im.add_noise(cap, 10.0, seed=seed)
        assert cap.samples.tobytes() == clean
        # without noise to add, the seed is not used
        assert im.add_noise(cap, np.inf, seed=seed) is cap

    @pytest.mark.parametrize("snr_db", [3.0, 25.0])
    def test_noisy_capture_within_one_ulp_of_noising_complex128(self, small_chirp, snr_db):
        # the capture is rounded to complex64 before the noise is added: each
        # noisy float32 component stays within one float32 ulp of
        # max(|clean|, |noisy|) of the same noise added to the unrounded
        # complex128 synthesis and rounded once
        array = im.default_virtual_array(im.derive_chirp_params(small_chirp).wavelength_m)
        scene = im.Scene([[0.0, 4.0, 0.4], [-0.3, 4.6, 0.9]], [1.0, 0.3])
        cap = im.synthesize_capture(scene, make_rail_trajectory(1.0, 0.01, 0.4), small_chirp, array)
        clean = np.array(
            [
                im.synthesize_chirp(
                    scene,
                    rec.pose.to_world(array.tx_positions)[rec.tx],
                    rec.pose.to_world(array.rx_positions)[rec.rx],
                    small_chirp,
                )
                for rec in cap.records
            ]
        )
        mean_power = np.mean(np.mean(np.abs(clean) ** 2, axis=1))
        sigma = np.sqrt(mean_power / 10.0 ** (snr_db / 10.0) / 2.0)
        draw = np.random.default_rng(4).standard_normal((*clean.shape, 2))
        exact = (clean + sigma * (draw[..., 0] + 1j * draw[..., 1])).astype(np.complex64).view(np.float32)
        noisy = im.add_noise(cap, snr_db, seed=4).samples.view(np.float32)
        ulp = np.spacing(np.maximum(np.abs(clean.view(np.float64)), np.abs(exact)).astype(np.float32))
        assert np.all(np.abs(noisy.astype(np.float64) - exact) <= ulp)
        # rounding the capture first changes some components, not most
        assert 0.0 < np.mean(noisy != exact) < 0.5


class TestCaptureValues:
    def test_sample_dtype_rule(self, small_chirp):
        # one dtype, complex64, the file's precision: complex64 is kept as it
        # is, and anything else is rounded to it
        array = im.default_virtual_array(im.derive_chirp_params(small_chirp).wavelength_m)
        cap = im.synthesize_capture(single_target(5.0), make_rail_trajectory(1.0, 0.01, 0.0), small_chirp, array)
        assert cap.samples.dtype == np.complex64
        single = cap.samples.copy()
        kept = dataclasses.replace(cap, samples=single)
        assert kept.samples is single
        assert kept.records[0].samples.dtype == np.complex64
        assert np.shares_memory(kept.records[0].samples, single)
        wide = cap.samples.astype(np.complex128) * (1.0 + 1e-12)
        for other in (wide, wide.real, wide.real.astype(np.float32), wide.astype(">c8"), wide.tolist()):
            rounded = dataclasses.replace(cap, samples=other)
            assert rounded.samples.dtype == np.complex64
            assert rounded.samples.tobytes() == np.asarray(other).astype(np.complex64).tobytes()
            assert rounded.records[0].samples.dtype == np.complex64
        record = sim.PulseRecord(0.0, 0, 0, 0, cap.records[0].pose, wide[0])
        assert record.samples.tobytes() == wide[0].astype(np.complex64).tobytes()
        # a finite value that complex64 cannot hold is refused, with its record
        row = sim._NOISE_ROWS + 5
        assert cap.n_records > row
        wide[row, 3] = 1e39
        with pytest.raises(ConfigError, match=f"record {row} holds samples beyond float32 range"):
            dataclasses.replace(cap, samples=wide)
        # a non-finite sample earlier in the same block: the overflow is still
        # the refusal
        wide[row - 1, 0] = np.nan
        with pytest.raises(ConfigError, match=f"record {row} holds samples beyond float32 range"):
            dataclasses.replace(cap, samples=wide)
        # a single record is rounded by the same rule, as record 0
        with pytest.raises(ConfigError, match="record 0 holds samples beyond float32 range"):
            sim.PulseRecord(0.0, 0, 0, 0, cap.records[0].pose, wide[row])

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

    @pytest.mark.parametrize(
        "column, value, message",
        [
            (4, 0.9, "record 7 pose quaternion norm 0.9 is not 1 within 1e-9"),
            (2, np.nan, r"record 7 pose time and position must be finite, got .*, \[.*nan.*\]"),
            (0, np.inf, "record 7 pose time and position must be finite, got inf"),
        ],
        ids=["quaternion norm 0.9", "nan position", "infinite time"],
    )
    def test_bad_pose_row_is_refused_with_its_record(self, small_chirp, column, value, message):
        # the column is checked once, by Pose's own rule
        array = im.default_virtual_array(im.derive_chirp_params(small_chirp).wavelength_m)
        cap = im.synthesize_capture(single_target(5.0), make_rail_trajectory(1.0, 0.01, 0.0), small_chirp, array)
        pose = cap.pose.copy()
        pose[7, column] = value
        pose[9, column] = value  # the first bad record is named
        with pytest.raises(ConfigError, match=message):
            dataclasses.replace(cap, pose=pose)

    def test_pose_column_shape_and_read_only(self, small_chirp):
        array = im.default_virtual_array(im.derive_chirp_params(small_chirp).wavelength_m)
        cap = im.synthesize_capture(single_target(5.0), make_rail_trajectory(1.0, 0.01, 0.0), small_chirp, array)
        assert cap.pose.shape == (cap.n_records, 8) and cap.pose.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            cap.pose[0, 1] = 0.0
        with pytest.raises(ConfigError, match=r"RawCapture.pose shape \(\d+, 7\)"):
            dataclasses.replace(cap, pose=cap.pose[:, :7])
        # each record's Pose is its row
        rec = cap.records[5]
        assert [rec.pose.time_s, *rec.pose.position, *rec.pose.quaternion] == cap.pose[5].tolist()

    def test_n_cycles_counts_the_distinct_cycles(self, small_chirp):
        # a capture need not number its cycles from 0, nor without gaps
        array = im.default_virtual_array(im.derive_chirp_params(small_chirp).wavelength_m)
        cap = im.synthesize_capture(single_target(5.0), make_rail_trajectory(1.0, 0.01, 0.0), small_chirp, array)
        rows = np.flatnonzero(np.isin(cap.cycle, [2, 3, 4, 7]))
        part = im.RawCapture(
            config=cap.config, array=array, samples=cap.samples[rows], tx=cap.tx[rows], rx=cap.rx[rows],
            cycle=cap.cycle[rows], time_s=cap.time_s[rows], pose=cap.pose[rows],
        )
        assert part.cycle[0] == 2 and part.n_records == 4 * array.n_vx
        assert part.n_cycles == 4
        assert cap.n_cycles == int(cap.cycle[-1]) + 1

    def test_overflowing_amplitude_fails_in_simulate(self, small_chirp):
        # finite in the complex128 synthesis block, but beyond float32 once
        # rounded into the capture
        array = im.default_virtual_array(im.derive_chirp_params(small_chirp).wavelength_m)
        with pytest.raises(ConfigError, match="record 0 holds samples beyond float32 range"):
            im.synthesize_capture(
                single_target(5.0, 1e300), make_rail_trajectory(1.0, 0.001, 0.0), small_chirp, array
            )

    def test_noisy_sample_beyond_float32_rejected_with_its_record(self, small_chirp):
        # the largest float32 plus noise is finite in complex128, but inf once
        # rounded to the file's complex64; a record past the first noise
        # block, so the block offset counts
        array = im.default_virtual_array(im.derive_chirp_params(small_chirp).wavelength_m)
        cap = im.synthesize_capture(single_target(5.0), make_rail_trajectory(1.0, 0.01, 0.0), small_chirp, array)
        row = sim._NOISE_ROWS + 5
        samples = cap.samples.copy()
        samples[row] = np.finfo(np.float32).max
        clean = samples.copy()
        with pytest.raises(ConfigError, match=f"record {row} holds samples beyond float32 range"):
            im.add_noise(dataclasses.replace(cap, samples=samples), 20.0, seed=0)
        # the blocks before the refused one were noised in place; the refused
        # block and the rest keep their finite values, read-only again
        assert not np.array_equal(samples[: sim._NOISE_ROWS], clean[: sim._NOISE_ROWS])
        assert samples[sim._NOISE_ROWS :].tobytes() == clean[sim._NOISE_ROWS :].tobytes()
        assert not samples.flags.writeable

    @pytest.mark.parametrize("x", [1e300, -1e300, 1e160])
    def test_target_at_no_finite_distance_rejected(self, small_chirp, x):
        # the squared distance overflows; refused before any beat is formed,
        # with no overflow or invalid-value warning
        scene = im.Scene([[x, 4.0, 0.5]], [1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=r"target 0 at \(.*\) lies at no finite distance"):
                im.synthesize_chirp(scene, np.zeros(3), np.zeros(3), small_chirp, pattern=(1.0, np.array([0.0, 1, 0])))

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
    """One chirp as a per-target loop over np.linalg.norm and np.dot and the
    direct two-way np.exp: the reference the synthesis is held to within
    BEAT_TOL."""
    n = np.arange(cfg.samples_per_chirp)
    out = np.zeros(cfg.samples_per_chirp, dtype=np.complex128)
    for p, amplitude in zip(scene.positions, scene.amplitudes.tolist()):
        tau = (np.linalg.norm(p - tx_pos) + np.linalg.norm(p - rx_pos)) / im.C_LIGHT
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


# The synthesis multiplies one-way beats with range-reduced phases, and
# loop_chirp takes np.exp of the unreduced two-way phase, whose rounding
# grows with range: they differ by about 1.4e-11 per unit amplitude at
# 11 m and 2.8e-11 at 30 m.  The stated tolerance, for targets within
# 30 m, is BEAT_TOL times the summed amplitudes per complex128 sample.
BEAT_TOL = 5e-11


def assert_beat_within_tolerance(scene, chirp, oracle):
    assert np.max(np.abs(chirp - oracle)) <= BEAT_TOL * scene.amplitudes.sum()


def assert_row_within_tolerance(scene, row, oracle):
    """Each float32 component of a capture row within BEAT_TOL times the
    summed amplitudes, plus the one float32 ulp its rounding adds, of the
    complex128 oracle."""
    got = row.view(np.float32).astype(np.float64)
    want = oracle.view(np.float64)
    ulp = np.spacing(np.maximum(np.abs(got), np.abs(want)).astype(np.float32))
    assert np.all(np.abs(got - want) <= BEAT_TOL * scene.amplitudes.sum() + ulp)


@pytest.mark.simd
class TestBeatOracle:
    """synthesize_chirp is within BEAT_TOL per unit amplitude of the plain
    per-target sum of amplitude * np.exp(1j * 2*pi*(slope*tau*n/fs +
    f_c*tau)) in scene order (loop_chirp), and each synthesize_capture row
    is within that plus one float32 ulp, whatever work buffers the
    synthesis reuses."""

    @staticmethod
    def check_capture(scene, samples_per_chirp, power):
        cfg = im.ChirpConfig(77.4e9, 30e12, samples_per_chirp, 18.75e6, 63.9e-6, 256, 3)
        array = im.default_virtual_array(im.derive_chirp_params(cfg).wavelength_m)
        traj = make_rail_trajectory(8.0, 0.01, 0.5)
        n_cycles = sim._SYNTH_CYCLES + 3
        window = (-0.01, -0.01 + (3 * n_cycles - 1) * cfg.pri_s)
        cap = im.synthesize_capture(scene, traj, cfg, array, window, pattern_cos_power=power)
        assert cap.n_cycles == n_cycles
        for r in range(cap.n_records):
            pose = cap.records[r].pose
            tx_pos = pose.to_world(array.tx_positions)[cap.tx[r]]
            rx_pos = pose.to_world(array.rx_positions)[cap.rx[r]]
            pattern = None if power is None else (power, pose.rotation_matrix() @ np.array([0.0, 1.0, 0.0]))
            oracle = loop_chirp(scene, tx_pos, rx_pos, cfg, pattern)
            assert_beat_within_tolerance(scene, im.synthesize_chirp(scene, tx_pos, rx_pos, cfg, pattern), oracle)
            assert_row_within_tolerance(scene, cap.samples[r], oracle)

    @staticmethod
    def mixed_scene(*extra):
        return im.Scene(
            *zip(
                ((0.0, 4.0, 0.5), 1.0),
                ((-1.2, 6.5, 1.3), 0.7),
                ((2.0, 11.0, -0.2), 2.0),
                ((0.3, 30.0, 0.9), 1e-3),
                *extra,
            )
        )

    @pytest.mark.parametrize("samples_per_chirp", [64, 300])
    def test_capture_rows_within_tolerance_of_plain_exp_sum(self, samples_per_chirp):
        self.check_capture(self.mixed_scene(), samples_per_chirp, None)

    def test_element_pattern(self):
        # the gains scale the one-way beats: add a target 60 degrees off
        # boresight and one behind the array
        self.check_capture(self.mixed_scene(((5.0, 3.0, 0.5), 1.0), ((0.0, -3.0, 0.5), 1.0)), 300, 2.0)

    def test_near_and_far_targets(self):
        # unit targets from half a metre to 30 m: the far ones carry the
        # largest phases, and so the largest rounding, of the two formulas
        scene = im.Scene([(0.0, 0.5, 0.5), (0.2, 1.0, 0.3), (-3.0, 20.0, 1.0), (2.0, 29.9, -0.5)], [1.0] * 4)
        self.check_capture(scene, 256, None)


class TestBlockPaths:
    """The block-wise synthesis and noise give the floats of the whole-array
    arithmetic, for sizes that are not multiples of the block sizes: a
    noiseless capture row is synthesize_chirp rounded to complex64."""

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
            *zip(
                ((0.0, 4.0, 0.5), 1.0),
                ((-1.2, 6.5, 1.3), 0.7),
                ((2.0, 3.0, -0.2), 2.0),
                ((0.3, -2.0, 0.5), 1.0),  # behind the array
                ((-0.1, 0.0, 0.5), 0.5),  # at TX 0 in cycle 0
            )
        )
        n_cycles = 2 * sim._SYNTH_CYCLES + 5
        window = (0.0, (3 * n_cycles - 1) * cfg.pri_s)
        cap = im.synthesize_capture(scene, traj, cfg, array, window, pattern_cos_power=power)
        assert cap.n_cycles == n_cycles
        for r in range(cap.n_records):
            pose = cap.records[r].pose
            tx_pos = pose.to_world(array.tx_positions)[cap.tx[r]]
            rx_pos = pose.to_world(array.rx_positions)[cap.rx[r]]
            pattern = None if power is None else (power, pose.rotation_matrix() @ np.array([0.0, 1.0, 0.0]))
            chirp = im.synthesize_chirp(scene, tx_pos, rx_pos, cfg, pattern)
            assert cap.samples[r].tobytes() == chirp.astype(np.complex64).tobytes()
            assert_beat_within_tolerance(scene, chirp, loop_chirp(scene, tx_pos, rx_pos, cfg, pattern))

    def test_add_noise_equals_one_draw(self, small_chirp):
        n_rows, n = 2 * sim._NOISE_ROWS + 37, small_chirp.samples_per_chirp
        rng = np.random.default_rng(7)
        samples = (rng.standard_normal((n_rows, n)) + 1j * rng.standard_normal((n_rows, n))).astype(np.complex64)
        cap = im.RawCapture(
            config=small_chirp,
            array=im.default_virtual_array(im.derive_chirp_params(small_chirp).wavelength_m),
            samples=samples,
            tx=np.zeros(n_rows, dtype=int),
            rx=np.zeros(n_rows, dtype=int),
            cycle=np.arange(n_rows),
            time_s=np.arange(n_rows) * small_chirp.pri_s,
            pose=np.tile([0.0, 0, 0, 0, 1.0, 0, 0, 0], (n_rows, 1)),
        )
        snr_db = 7.0
        # the one-pass float64 mean power and one whole draw of the same seed,
        # added to the samples widened to complex128
        wide = samples.astype(np.complex128)
        mean_power = np.mean(np.mean(np.abs(wide) ** 2, axis=1))
        sigma = np.sqrt(mean_power / 10.0 ** (snr_db / 10.0) / 2.0)
        draw = np.random.default_rng(11).standard_normal((n_rows, n, 2))
        expected = wide + sigma * (draw[..., 0] + 1j * draw[..., 1])
        # the noisy capture holds the file's precision: the sum, rounded
        noisy = im.add_noise(cap, snr_db, seed=11).samples
        assert noisy.tobytes() == expected.astype(np.complex64).tobytes()
