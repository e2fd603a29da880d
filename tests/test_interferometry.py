"""Phase-delay relations, baseline averaging, and quality maps."""

import numpy as np
import pytest

import insarmap as im
from insarmap.errors import ConfigError, DomainError

C = 299_792_458.0
LAM = C / 77.4e9


class TestPhaseDelay:
    def test_identical_signals(self):
        assert im.phase_delay(1.0 + 0j, 1.0 + 0j) == 0.0

    def test_simple_difference(self):
        s0 = np.exp(0.3j)
        s1 = np.exp(0.1j)
        assert im.phase_delay(s0, s1) == pytest.approx(0.2, abs=1e-12)

    def test_antisymmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = complex(rng.normal(), rng.normal())
            b = complex(rng.normal(), rng.normal())
            if a == 0 or b == 0 or abs(abs(im.phase_delay(a, b)) - np.pi) < 1e-9:
                continue
            assert im.phase_delay(a, b) == pytest.approx(-im.phase_delay(b, a), abs=1e-12)

    def test_common_gain_rejection(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a = complex(rng.normal(), rng.normal())
            b = complex(rng.normal(), rng.normal())
            g = complex(rng.normal(), rng.normal())
            if 0 in (a, b, g):
                continue
            assert im.phase_delay(a * g, b * g) == pytest.approx(
                im.phase_delay(a, b), abs=1e-9
            )

    def test_zero_signal_rejected(self):
        with pytest.raises(DomainError):
            im.phase_delay(0.0, 1.0 + 0j)

    def test_wrap_range(self):
        # angle of a negative-real correlation is +pi, inside (-pi, pi]
        assert im.phase_delay(-1.0 + 0j, 1.0 + 0j) == pytest.approx(np.pi)


class TestElevationRelations:
    def test_phase_from_elevation_quarter_wave_30deg(self):
        d_v = LAM / 4
        assert im.phase_from_elevation(np.radians(30), d_v, LAM) == pytest.approx(
            np.pi / 2, rel=1e-12
        )

    def test_phase_from_elevation_10deg(self):
        d_v = LAM / 4
        assert im.phase_from_elevation(np.radians(10), d_v, LAM) == pytest.approx(
            np.pi * np.sin(np.radians(10)), rel=1e-12
        )
        assert im.phase_from_elevation(np.radians(10), d_v, LAM) == pytest.approx(0.5455, abs=5e-4)

    def test_phase_zero_at_zero_elevation(self):
        assert im.phase_from_elevation(0.0, LAM / 4, LAM) == 0.0

    def test_tau_values(self):
        assert im.tau_from_elevation(0.0, LAM / 4) == 0.0
        # hand evaluation with the rounded quarter-wave baseline
        assert im.tau_from_elevation(np.radians(30), 0.9675e-3) == pytest.approx(
            0.9675e-3 * 0.5 / C, rel=1e-12
        )
        assert im.tau_from_elevation(np.radians(30), 0.9675e-3) == pytest.approx(1.614e-12, abs=2e-15)

    def test_tau_odd_symmetry(self):
        phi = np.radians(17.0)
        assert im.tau_from_elevation(-phi, LAM / 4) == pytest.approx(
            -im.tau_from_elevation(phi, LAM / 4), rel=1e-15
        )

    def test_elevation_from_phase_examples(self):
        d_v = LAM / 4
        assert im.elevation_from_phase(0.0, d_v, LAM) == 0.0
        assert im.elevation_from_phase(np.pi / 2, d_v, LAM) == pytest.approx(
            np.radians(30), rel=1e-12
        )
        assert im.elevation_from_phase(np.pi, d_v, LAM) == pytest.approx(
            np.radians(90), rel=1e-12
        )

    def test_round_trip_identity(self):
        d_v = LAM / 4
        for phi in np.linspace(-np.pi / 2, np.pi / 2, 721):
            back = im.elevation_from_phase(im.phase_from_elevation(phi, d_v, LAM), d_v, LAM)
            assert abs(back - phi) <= 1e-12

    def test_two_way_consistency_with_tau(self):
        d_v = LAM / 4
        for phi in np.linspace(-1.2, 1.2, 37):
            expected = 2 * np.pi * (C / LAM) * 2 * im.tau_from_elevation(phi, d_v)
            got = im.phase_from_elevation(phi, d_v, LAM)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_monotonic_in_phase(self):
        d_v = LAM / 4
        grid = np.linspace(-np.pi, np.pi, 801)
        values = [im.elevation_from_phase(p, d_v, LAM) for p in grid]
        assert np.all(np.diff(values) > 0)

    def test_ambiguous_baseline_rejected(self):
        with pytest.raises(DomainError, match="ambiguous"):
            im.elevation_from_phase(0.1, LAM / 2, LAM)

    def test_out_of_domain_rejected(self):
        with pytest.raises(DomainError):
            im.elevation_from_phase(np.pi, LAM / 8, LAM)


class TestMeanPhaseDelay:
    def test_identical_baselines_have_zero_variance(self):
        lower = np.exp(1j * 0.4) * np.ones(4)
        upper = np.ones(4)
        phase, var = im.mean_phase_delay(lower, upper)
        assert phase == pytest.approx(0.4, abs=1e-12)
        assert var == pytest.approx(0.0, abs=1e-12)

    def test_one_opposed_baseline(self):
        # phases {0.1, 0.1, 0.1, 0.1 + pi}: complex sum 2 e^{j 0.1}
        lower = np.exp(1j * np.array([0.1, 0.1, 0.1, 0.1 + np.pi]))
        upper = np.ones(4)
        phase, var = im.mean_phase_delay(lower, upper)
        assert phase == pytest.approx(0.1, abs=1e-12)
        assert var == pytest.approx(0.5, abs=1e-12)

    def test_single_baseline_zero_variance(self):
        phase, var = im.mean_phase_delay(np.array([1j]), np.array([1.0 + 0j]))
        assert var == 0.0
        assert phase == pytest.approx(np.pi / 2)

    def test_all_zero_correlations(self):
        phase, var = im.mean_phase_delay(np.zeros(3, complex), np.ones(3, complex))
        assert phase == 0.0
        assert var == 1.0


class TestSqrtNGain:
    def test_four_baselines_halve_phase_error(self):
        # Monte Carlo: std of the averaged phase-delay error with N=4
        # independent baselines is half the single-baseline std
        rng = np.random.default_rng(2024)
        trials = 10_000
        sigma = 0.05
        true = 0.3

        def run(n_baselines):
            lower = np.exp(1j * true) + sigma * (
                rng.standard_normal((trials, n_baselines))
                + 1j * rng.standard_normal((trials, n_baselines))
            )
            upper = 1.0 + sigma * (
                rng.standard_normal((trials, n_baselines))
                + 1j * rng.standard_normal((trials, n_baselines))
            )
            phase, _ = im.mean_phase_delay(lower, upper, axis=1)
            err = np.angle(np.exp(1j * (phase - true)))
            return np.std(err)

        ratio = run(4) / run(1)
        assert ratio == pytest.approx(0.5, abs=0.1)


class TestSnrMap:
    def test_median_pixel_is_zero_db(self):
        mag = np.array([[1.0, 1.0], [1.0, 10.0]])
        snr = im.snr_map(mag)
        assert snr[0, 0] == pytest.approx(0.0)
        assert snr[1, 1] == pytest.approx(20.0)

    def test_uniform_image_is_all_zero_db(self):
        snr = im.snr_map(np.full((5, 5), 3.7))
        assert np.allclose(snr, 0.0)

    def test_zero_median_rejected(self):
        with pytest.raises(DomainError):
            im.snr_map(np.zeros((4, 4)))


class TestCombineBaselines:
    def test_requires_vertical_baseline(self, small_e2e):
        stack = small_e2e["stack"]
        flat = im.build_virtual_array([(0.0, 0, 0)], [(0.0, 0, 0), (0.001, 0, 0)])
        bad = im.SarImageStack(
            grid=stack.grid,
            array=flat,
            images=stack.images[:2],
            phase_center=stack.phase_center,
            aperture_length_m=stack.aperture_length_m,
            wavelength_m=stack.wavelength_m,
        )
        with pytest.raises(DomainError, match="baseline"):
            im.combine_baselines(bad)

    def test_mixed_separations_rejected(self, small_e2e):
        stack = small_e2e["stack"]
        mixed = im.build_virtual_array(
            [(0.0, 0, 0)], [(0.0, 0, 0), (0.0, 0, 0.001), (0.0, 0, 0.003)]
        )
        bad = im.SarImageStack(
            grid=stack.grid,
            array=mixed,
            images=stack.images[:3],
            phase_center=stack.phase_center,
            aperture_length_m=stack.aperture_length_m,
            wavelength_m=stack.wavelength_m,
        )
        with pytest.raises(DomainError, match="mixed"):
            im.combine_baselines(bad)

    def test_end_to_end_map_matches_truth(self, small_e2e, small_scene_truth):
        emap = small_e2e["map"]
        stack = small_e2e["stack"]
        for truth in small_scene_truth:
            rel = truth["position"] - stack.phase_center
            slant_cross = np.hypot(rel[1], rel[2])
            mu = np.abs(stack.grid.u_centers() - truth["position"][0]) <= 0.3
            mv = np.abs(stack.grid.v_centers() - slant_cross) <= 0.3
            sub = emap.interferogram.combined_magnitude[np.ix_(mu, mv)]
            k = np.unravel_index(np.argmax(sub), sub.shape)
            iu, iv = np.flatnonzero(mu)[k[0]], np.flatnonzero(mv)[k[1]]
            phi_true = np.arcsin(rel[2] / slant_cross)
            assert emap.elevation[iu, iv] == pytest.approx(phi_true, abs=0.02)
            assert emap.interferogram.circular_variance[iu, iv] < 0.01
            assert emap.interferogram.snr_db[iu, iv] > 15.0

    def test_interferogram_pixel_accessor(self, small_e2e):
        intf = small_e2e["map"].interferogram
        px = intf.pixel(3, 4)
        assert px.mean_phase_delay == pytest.approx(float(intf.mean_phase_delay[3, 4]))
        assert 0.0 <= px.circular_variance <= 1.0


class TestMapValues:
    def planes(self, small_e2e, **changes):
        intf = small_e2e["map"].interferogram
        planes = dict(
            mean_phase_delay=intf.mean_phase_delay, circular_variance=intf.circular_variance,
            combined_magnitude=intf.combined_magnitude, snr_db=intf.snr_db,
        )
        return {**planes, **changes}

    @pytest.mark.parametrize("field", ["mean_phase_delay", "circular_variance", "combined_magnitude", "snr_db"])
    def test_plane_shape_must_match_the_grid(self, small_e2e, field):
        plane = getattr(small_e2e["map"].interferogram, field)
        with pytest.raises(ConfigError, match="does not match"):
            im.InterferogramGrid(grid=small_e2e["grid"], **self.planes(small_e2e, **{field: plane[1:]}))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_quality_value_rejected(self, small_e2e, bad):
        variance = small_e2e["map"].interferogram.circular_variance.copy()
        variance[2, 2] = bad
        with pytest.raises(ConfigError, match="variance plane holds non-finite values"):
            im.InterferogramGrid(grid=small_e2e["grid"], **self.planes(small_e2e, circular_variance=variance))

    def test_minus_inf_snr_only_at_zero_magnitude(self, small_e2e):
        magnitude = small_e2e["map"].interferogram.combined_magnitude.copy()
        magnitude[0, 0] = 0.0
        snr = im.snr_map(magnitude)
        im.InterferogramGrid(grid=small_e2e["grid"], **self.planes(small_e2e, combined_magnitude=magnitude, snr_db=snr))
        snr[0, 1] = -np.inf
        with pytest.raises(ConfigError, match="SNR plane"):
            im.InterferogramGrid(grid=small_e2e["grid"], **self.planes(small_e2e, combined_magnitude=magnitude, snr_db=snr))

    def test_elevation_shape_must_match_the_grid(self, small_e2e):
        emap = small_e2e["map"]
        with pytest.raises(ConfigError, match="elevation plane shape"):
            im.ElevationMap(
                grid=emap.grid, phase_center=emap.phase_center, wavelength_m=emap.wavelength_m,
                baseline_m=emap.baseline_m, elevation=emap.elevation.T, interferogram=emap.interferogram,
            )
