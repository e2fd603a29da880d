"""Config derivation, virtual-array enumeration, and pose interpolation."""

import numpy as np
import pytest

import insarmap as im
from insarmap.errors import ConfigError, DomainError

C = 299_792_458.0


class TestDeriveChirpParams:
    def test_reference_config_values(self, reference_chirp):
        d = im.derive_chirp_params(reference_chirp)
        # independently hand-evaluated from the closed-form expressions
        assert d.wavelength_m == pytest.approx(C / 77.4e9, rel=1e-12)
        assert d.wavelength_m == pytest.approx(3.87e-3, abs=5e-6)
        assert d.bandwidth_hz == pytest.approx(30e12 * 512 / 18.75e6, rel=1e-12)
        assert d.bandwidth_hz == pytest.approx(819.2e6, rel=1e-6)
        assert d.pulse_length_s == pytest.approx(27.3e-6, abs=5e-8)
        assert d.range_resolution_m == pytest.approx(0.183, abs=5e-4)
        assert d.max_range_m == pytest.approx(93.7, abs=5e-2)
        assert d.effective_pri_s == pytest.approx(191.7e-6, abs=5e-8)

    def test_doubled_sample_rate_doubles_max_range(self, reference_chirp):
        fast = im.ChirpConfig(
            center_frequency_hz=77.4e9,
            ramp_slope_hz_per_s=30e12,
            samples_per_chirp=512,
            sample_rate_sps=2 * 18.75e6,
            pri_s=63.9e-6,
            chirps_per_tx_per_frame=256,
            num_tx=3,
        )
        d = im.derive_chirp_params(fast)
        # hand evaluation of c*fs/(2*slope)
        assert d.max_range_m == pytest.approx(C * 37.5e6 / (2 * 30e12), rel=1e-12)
        assert d.max_range_m == pytest.approx(187.37, abs=5e-3)
        # pulse halves, so bandwidth halves and range resolution doubles
        base = im.derive_chirp_params(reference_chirp)
        assert d.range_resolution_m == pytest.approx(2 * base.range_resolution_m, rel=1e-12)

    def test_pulse_longer_than_pri_rejected(self):
        with pytest.raises(ConfigError):
            im.ChirpConfig(77.4e9, 30e12, 512, 18.75e6, 20e-6, 256, 3)

    def test_nonpositive_fields_rejected(self):
        with pytest.raises(ConfigError):
            im.ChirpConfig(-77.4e9, 30e12, 512, 18.75e6, 63.9e-6, 256, 3)
        with pytest.raises(ConfigError):
            im.ChirpConfig(77.4e9, 30e12, 1, 18.75e6, 63.9e-6, 256, 3)

    def test_bandwidth_scaling_halves_resolution(self, reference_chirp):
        doubled_slope = im.ChirpConfig(77.4e9, 60e12, 512, 18.75e6, 63.9e-6, 256, 3)
        d1 = im.derive_chirp_params(reference_chirp)
        d2 = im.derive_chirp_params(doubled_slope)
        assert d2.range_resolution_m == pytest.approx(d1.range_resolution_m / 2, rel=1e-12)


class TestBuildVirtualArray:
    def test_default_geometry_two_layers(self):
        lam = C / 77.4e9
        arr = im.default_virtual_array(lam)
        assert arr.n_vx == 12
        heights = arr.vx_positions[:, 2]
        assert np.sum(heights < 1e-12) == 8
        assert np.sum(heights > 1e-12) == 4
        assert len(arr.vertical_baselines) == 4
        for b in arr.vertical_baselines:
            assert b.separation_m == pytest.approx(lam / 4, rel=1e-12)
            lo = arr.vx_positions[b.lower_vx]
            hi = arr.vx_positions[b.upper_vx]
            assert lo[2] < hi[2]
            assert abs(lo[0] - hi[0]) <= 1e-9 and abs(lo[1] - hi[1]) <= 1e-9

    def test_single_pair_at_origin(self):
        arr = im.build_virtual_array([(0.0, 0, 0)], [(0.0, 0, 0)])
        assert arr.n_vx == 1
        assert np.allclose(arr.vx_positions[0], 0.0)
        assert arr.vertical_baselines == ()

    def test_stacked_tx_pair(self):
        # midpoint convention: a TX pair physically d apart yields VX d/2 apart
        d = 2e-3
        arr = im.build_virtual_array([(0.0, 0, 0), (0.0, 0, d)], [(0.0, 0, 0)])
        assert arr.n_vx == 2
        assert len(arr.vertical_baselines) == 1
        assert arr.vertical_baselines[0].separation_m == pytest.approx(d / 2, rel=1e-12)

    def test_count_and_permutation_invariance(self):
        rng = np.random.default_rng(7)
        tx = rng.normal(size=(3, 3)) * 1e-3
        rx = rng.normal(size=(4, 3)) * 1e-3
        arr = im.build_virtual_array(tx, rx)
        assert arr.n_vx == 12
        # each VX is its pair's midpoint, in the order vx_index gives
        for i in range(3):
            for j in range(4):
                assert np.array_equal(arr.vx_positions[arr.vx_index(i, j)], 0.5 * (tx[i] + rx[j]))
        assert not arr.vx_positions.flags.writeable
        arr_perm = im.build_virtual_array(tx[::-1], rx[::-1])
        as_set = lambda a: {
            tuple(np.round(v, 12)) for v in a.vx_positions
        }
        assert as_set(arr) == as_set(arr_perm)

        def baseline_set(a):
            return {
                (tuple(np.round(a.vx_positions[b.lower_vx], 12)), round(b.separation_m, 12))
                for b in a.vertical_baselines
            }

        assert baseline_set(arr) == baseline_set(arr_perm)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ConfigError):
            im.build_virtual_array([], [(0.0, 0, 0)])
        with pytest.raises(ConfigError):
            im.build_virtual_array([(np.inf, 0, 0)], [(0.0, 0, 0)])


class TestPoseInterpolation:
    def make_traj(self):
        return im.Trajectory(
            (
                im.Pose(0.0, np.array([0.0, 0, 0]), np.array([1.0, 0, 0, 0])),
                im.Pose(1.0, np.array([9.0, 0, 0]), np.array([1.0, 0, 0, 0])),
            )
        )

    def test_linear_midpoint(self):
        p = im.pose_at_time(self.make_traj(), 0.5)
        assert p.position[0] == pytest.approx(4.5, abs=1e-12)

    def test_exact_sample_returned(self):
        traj = self.make_traj()
        assert im.pose_at_time(traj, 1.0) is traj.poses[1]

    def test_out_of_range_time(self):
        with pytest.raises(DomainError):
            im.pose_at_time(self.make_traj(), -1.0)

    def test_slerp_halfway_rotation(self):
        # 90 degree yaw: halfway should be 45 degrees
        q90 = np.array([np.cos(np.pi / 4), 0, 0, np.sin(np.pi / 4)])
        traj = im.Trajectory(
            (
                im.Pose(0.0, np.zeros(3), np.array([1.0, 0, 0, 0])),
                im.Pose(1.0, np.zeros(3), q90),
            )
        )
        p = im.pose_at_time(traj, 0.5)
        fwd = p.to_world(np.array([1.0, 0, 0])) - p.position
        assert fwd == pytest.approx([np.cos(np.pi / 4), np.sin(np.pi / 4), 0.0], abs=1e-12)

    def test_midpoint_equals_position_mean(self):
        rng = np.random.default_rng(3)
        p0 = rng.normal(size=3)
        p1 = rng.normal(size=3)
        traj = im.Trajectory(
            (
                im.Pose(2.0, p0, np.array([1.0, 0, 0, 0])),
                im.Pose(4.0, p1, np.array([1.0, 0, 0, 0])),
            )
        )
        mid = im.pose_at_time(traj, 3.0)
        assert mid.position == pytest.approx((p0 + p1) / 2, abs=1e-12)

    def test_nonmonotonic_times_rejected(self):
        with pytest.raises(ConfigError):
            im.Trajectory(
                (
                    im.Pose(1.0, np.zeros(3), np.array([1.0, 0, 0, 0])),
                    im.Pose(1.0, np.ones(3), np.array([1.0, 0, 0, 0])),
                )
            )

    def test_speed_warning(self):
        with pytest.warns(UserWarning, match="exceeds"):
            im.Trajectory(
                (
                    im.Pose(0.0, np.array([0.0, 0, 0]), np.array([1.0, 0, 0, 0])),
                    im.Pose(1.0, np.array([12.0, 0, 0]), np.array([1.0, 0, 0, 0])),
                )
            )

    def test_bad_quaternion_rejected(self):
        with pytest.raises(ConfigError):
            im.Pose(0.0, np.zeros(3), np.array([0.5, 0, 0, 0]))

    @pytest.mark.parametrize(
        "time_s, position, quaternion",
        [
            (np.nan, [0.0, 0, 0], [1.0, 0, 0, 0]),
            (np.inf, [0.0, 0, 0], [1.0, 0, 0, 0]),
            (0.0, [np.nan, 0, 0], [1.0, 0, 0, 0]),
            (0.0, [0.0, -np.inf, 0], [1.0, 0, 0, 0]),
            # abs(nan - 1) > 1e-9 is False, so a NaN quaternion used to pass
            (0.0, [0.0, 0, 0], [np.nan, 0, 0, 0]),
            (0.0, [0.0, 0, 0], [1.0, np.nan, 0, 0]),
        ],
    )
    def test_non_finite_pose_rejected(self, time_s, position, quaternion):
        with pytest.raises(ConfigError):
            im.Pose(time_s, np.array(position), np.array(quaternion))
