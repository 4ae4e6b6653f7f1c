import math
import tracemalloc

import numpy as np
import pytest

from beamsquint import ArrayConfig, ConfigError, gain_mag, steering_phases, subcarrier_grid

from oracles import ref_gain_mag, ref_halfwidth

SQRT2_OVER_2 = math.sqrt(2.0) / 2.0


class TestArrayConfig:
    def test_rejects_small_arrays(self):
        with pytest.raises(ConfigError):
            ArrayConfig(1)

    def test_rejects_non_integer_count(self):
        with pytest.raises(ConfigError):
            ArrayConfig(8.0)

    def test_derived_spans(self):
        arr = ArrayConfig(16)
        assert arr.peak_gain == 4.0
        assert arr.main_lobe_half_span == 0.125
        assert arr.concave_half_span == pytest.approx(4 / (16 * math.pi), rel=1e-15)


class TestSteeringPhases:
    def test_broadside_all_zero(self):
        assert list(steering_phases(0.0, ArrayConfig(4))) == [0.0, 0.0, 0.0, 0.0]

    def test_endfire_three_elements(self):
        assert steering_phases(1.0, ArrayConfig(3)) == pytest.approx(
            [0.0, math.pi, 2 * math.pi])

    def test_half_focus_two_elements(self):
        assert steering_phases(0.5, ArrayConfig(2)) == pytest.approx([0.0, math.pi / 2])

    def test_first_element_always_zero(self):
        rng = np.random.default_rng(7)
        for psi_f in rng.uniform(-1, 1, size=20):
            assert steering_phases(float(psi_f), ArrayConfig(8))[0] == 0.0

    @pytest.mark.parametrize("psi_f", [1.0 + 1e-9, -1.5])
    def test_focus_past_endfire_is_not_range_checked(self, psi_f):
        # A chain's last focus may sit marginally past endfire.
        phases = steering_phases(psi_f, ArrayConfig(4))
        assert phases == pytest.approx(math.pi * psi_f * np.arange(4))
        assert not phases.flags.writeable


class TestGain:
    @pytest.mark.parametrize("n", [2, 16, 64, 128])
    def test_peak_is_exact_sqrt_n(self, n):
        assert gain_mag(0.0, ArrayConfig(n)) == math.sqrt(n)

    def test_paper_scale_peak(self):
        # N = 16 has peak magnitude 4.
        assert gain_mag(0.0, ArrayConfig(16)) == 4.0

    @pytest.mark.parametrize("n", [2, 16, 64, 128])
    def test_first_null(self, n):
        arr = ArrayConfig(n)
        assert gain_mag(2.0 / n, arr) < 1e-9
        assert gain_mag(-2.0 / n, arr) < 1e-9

    def test_half_power_point_n64(self):
        # The half-power offset sits near 0.886/N.
        arr = ArrayConfig(64)
        ratio = gain_mag(0.886 / 64, arr) / arr.peak_gain
        assert ratio == pytest.approx(SQRT2_OVER_2, abs=2e-3)

    @pytest.mark.parametrize("n", [2, 16, 64, 128])
    def test_half_power_matches_oracle(self, n):
        w = ref_halfwidth(SQRT2_OVER_2, n)
        assert gain_mag(w, ArrayConfig(n)) == pytest.approx(
            SQRT2_OVER_2 * math.sqrt(n), rel=1e-9)

    def test_matches_reference_formula(self):
        arr = ArrayConfig(32)
        rng = np.random.default_rng(3)
        for x in rng.uniform(-3, 3, size=200):
            assert gain_mag(float(x), arr) == pytest.approx(
                ref_gain_mag(float(x), 32), rel=1e-10, abs=1e-12)

    def test_even_symmetry(self):
        arr = ArrayConfig(64)
        xs = np.random.default_rng(11).uniform(-2, 2, size=500)
        left = gain_mag(-xs, arr)
        right = gain_mag(xs, arr)
        assert np.allclose(left, right, rtol=1e-12, atol=0)

    def test_bounded_by_peak(self):
        arr = ArrayConfig(16)
        xs = np.random.default_rng(13).uniform(-4, 4, size=2000)
        assert np.all(gain_mag(xs, arr) <= arr.peak_gain * (1 + 1e-12))
        assert gain_mag(2.0, arr) == arr.peak_gain  # even integers hit the peak

    @pytest.mark.parametrize("xs", [[0.0, np.nan], [0.0, np.inf], [2.0, np.nan],
                                    [np.nan, -4.0, 1.0, -np.inf]])
    def test_non_finite_entries_leave_singular_points_alone(self, xs):
        # A NaN or infinite offset gives NaN and changes no other entry: the
        # singular points next to it keep their limit sqrt(N).
        arr = ArrayConfig(8)
        with np.errstate(invalid="ignore"):
            mags = gain_mag(np.array(xs), arr)
        for x, m in zip(xs, mags):
            if not math.isfinite(x):
                assert math.isnan(m)
                continue
            assert m == gain_mag(x, arr)
            if x % 2.0 == 0.0:
                assert m == math.sqrt(8)

    def test_positive_inside_main_lobe(self):
        arr = ArrayConfig(16)
        xs = np.linspace(-2 / 16 + 1e-6, 2 / 16 - 1e-6, 401)
        assert np.all(gain_mag(xs, arr) > 0)

    def test_strictly_concave_on_window(self):
        arr = ArrayConfig(32)
        half = arr.concave_half_span
        rng = np.random.default_rng(17)
        for _ in range(300):
            x1, x2 = rng.uniform(-half, half, size=2)
            t = rng.uniform(0.01, 0.99)
            mid = gain_mag(t * x1 + (1 - t) * x2, arr)
            chord = t * gain_mag(x1, arr) + (1 - t) * gain_mag(x2, arr)
            assert mid >= chord - 1e-12
            if abs(x1 - x2) > 1e-3:
                assert mid > chord


class TestSubcarrierGrid:
    def test_is_a_read_only_array(self):
        ratios = subcarrier_grid(0.05, 8)
        assert isinstance(ratios, np.ndarray) and ratios.shape == (8,)
        assert not ratios.flags.writeable

    def test_zero_bandwidth_collapses(self):
        ratios = subcarrier_grid(0.0, 4)
        assert list(ratios) == [1.0, 1.0, 1.0, 1.0]

    def test_two_subcarriers_by_hand(self):
        ratios = subcarrier_grid(0.5, 2)
        assert list(ratios) == [0.875, 1.125]

    def test_paper_band_span(self):
        # b = 0.034 spans frequency ratios from about 0.983 to 1.017.
        ratios = subcarrier_grid(0.034, 2048)
        assert ratios.min() == pytest.approx(0.983, abs=5e-4)
        assert ratios.max() == pytest.approx(1.017, abs=5e-4)

    def test_symmetric_about_one(self):
        ratios = subcarrier_grid(0.07, 512)
        sums = ratios + ratios[::-1]
        assert np.allclose(sums, 2.0, rtol=0, atol=1e-15)

    def test_strictly_increasing(self):
        ratios = subcarrier_grid(0.05, 256)
        assert np.all(np.diff(ratios) > 0)

    def test_within_band_edges(self):
        b = 0.09
        ratios = subcarrier_grid(b, 128)
        assert ratios.min() >= 1 - b / 2
        assert ratios.max() <= 1 + b / 2

    def test_mean_is_one(self):
        ratios = subcarrier_grid(0.034, 2048)
        assert float(np.mean(ratios)) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("b,n_f", [(0.1, 3), (0.1, 1), (-0.01, 4), (2.0, 4)])
    def test_invalid_configs(self, b, n_f):
        with pytest.raises(ConfigError):
            subcarrier_grid(b, n_f)


class TestGainMemory:
    def test_singular_point_adds_no_full_size_temporaries(self):
        # The L'Hopital fill touches only the singular elements.
        cfg = ArrayConfig(32)
        plain = np.linspace(0.1, 0.9, 500 * 2048).reshape(500, 2048)
        singular = plain.copy()
        singular[10, 10] = 0.0

        def peak(x):
            tracemalloc.start()
            try:
                gain_mag(x, cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak(singular) <= peak(plain) + 64 * 1024
        assert gain_mag(singular, cfg)[10, 10] == math.sqrt(32)
