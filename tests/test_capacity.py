import math

import numpy as np
import pytest

from beamsquint import (ArrayConfig, BandConfig, ConfigError, DomainError,
                        InfeasibleError, beamwidth_nbs, capacity_bs, capacity_nbs,
                        capacity_threshold, capacity_threshold_3db, gain_region,
                        spectral_efficiency_bs, squint_safe_range)

from oracles import ref_halfwidth

SQRT2_OVER_2 = math.sqrt(2.0) / 2.0


@pytest.fixture
def arr16():
    return ArrayConfig(16)


@pytest.fixture
def arr64():
    return ArrayConfig(64)


class TestBandConfig:
    def test_from_hz(self):
        band = BandConfig.from_hz(2.5e9, 73e9, n_f=2048, snr=1.0)
        assert band.b == pytest.approx(2.5 / 73, rel=1e-15)
        assert band.bandwidth == 2.5e9

    def test_dimensionless_bandwidth_is_one(self):
        assert BandConfig(b=0.03, n_f=64, snr=1.0).bandwidth == 1.0

    def test_inconsistent_hz_pair(self):
        with pytest.raises(ConfigError):
            BandConfig(b=0.05, n_f=64, snr=1.0, bandwidth_hz=2.5e9, carrier_hz=73e9)

    @pytest.mark.parametrize("kwargs", [
        dict(b=0.03, n_f=64, snr=0.0),
        dict(b=0.03, n_f=64, snr=-1.0),
        dict(b=2.0, n_f=64, snr=1.0),
        dict(b=0.03, n_f=63, snr=1.0),
        dict(b=0.03, n_f=64, snr=math.nan),
        dict(b=0.03, n_f=64, snr=math.inf),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            BandConfig(**kwargs)


class TestCapacityBs:
    def test_peak_at_broadside(self, arr16):
        band = BandConfig(b=0.05, n_f=128, snr=1.0)
        # At psi = psi_f = 0 squint has no effect: every subcarrier peaks.
        assert capacity_bs(0.0, 0.0, band, arr16) == pytest.approx(
            math.log2(1 + 16), rel=1e-12)

    def test_absolute_bandwidth_scales(self, arr16):
        band = BandConfig.from_hz(1e9, 50e9, n_f=128, snr=2.0)
        assert capacity_bs(0.0, 0.0, band, arr16) == pytest.approx(
            1e9 * math.log2(1 + 32), rel=1e-12)

    def test_zero_bandwidth_is_bitwise_no_squint(self, arr16):
        band = BandConfig(b=0.0, n_f=2048, snr=1.0)
        rng = np.random.default_rng(23)
        for psi_f, psi in rng.uniform(-1, 1, size=(50, 2)):
            assert capacity_bs(psi_f, psi, band, arr16) == \
                capacity_nbs(psi_f, psi, band, arr16)

    def test_vectorised_matches_scalar(self, arr64):
        band = BandConfig(b=0.04, n_f=256, snr=1.0)
        psis = np.linspace(-0.5, 0.5, 17)
        vec = capacity_bs(0.2, psis, band, arr64)
        for p, v in zip(psis, vec):
            assert v == capacity_bs(0.2, float(p), band, arr64)

    @pytest.mark.parametrize("count", [2047, 2048, 2049, 5000])
    def test_chunked_vector_matches_slices(self, arr16, count):
        # The vector path works in blocks of 2048 angles; block edges must
        # not change a single bit.
        band = BandConfig(b=0.05, n_f=64, snr=1.0)
        psis = np.linspace(-1.0, 1.0, count)
        slices = [capacity_bs(0.3, psis[i:i + 7], band, arr16)
                  for i in range(0, count, 7)]
        assert np.array_equal(capacity_bs(0.3, psis, band, arr16),
                              np.concatenate(slices))

    def test_reflection_invariance_is_exact(self, arr64):
        band = BandConfig(b=0.03, n_f=512, snr=1.0)
        rng = np.random.default_rng(29)
        for psi_f, psi in rng.uniform(-1, 1, size=(50, 2)):
            assert capacity_bs(psi_f, psi, band, arr64) == \
                capacity_bs(-psi_f, -psi, band, arr64)


class TestCapacityNbs:
    def test_peak(self, arr16):
        band = BandConfig(b=0.03, n_f=128, snr=1.0)
        assert capacity_nbs(0.4, 0.4, band, arr16) == pytest.approx(
            math.log2(17), rel=1e-12)

    def test_first_null_gives_zero(self, arr16):
        band = BandConfig(b=0.03, n_f=128, snr=1.0)
        assert capacity_nbs(0.0, 2.0 / 16, band, arr16) < 1e-12

    def test_half_power_point(self, arr64):
        band = BandConfig(b=0.03, n_f=128, snr=1.0)
        w = ref_halfwidth(SQRT2_OVER_2, 64)
        assert capacity_nbs(0.0, w, band, arr64) == pytest.approx(
            math.log2(1 + 64 / 2), rel=1e-6)


class TestSpectralEfficiency:
    def test_peak(self, arr16):
        band = BandConfig.from_hz(2e9, 60e9, n_f=128, snr=1.0)
        assert spectral_efficiency_bs(0.0, 0.0, band, arr16) == pytest.approx(
            math.log2(17), rel=1e-12)

    def test_zero_b_equals_no_squint_per_hz(self, arr16):
        band = BandConfig(b=0.0, n_f=128, snr=1.0)
        assert spectral_efficiency_bs(0.3, 0.31, band, arr16) == \
            capacity_nbs(0.3, 0.31, band, arr16) / band.bandwidth

    def test_decreases_with_fractional_bandwidth(self, arr64):
        band1 = BandConfig(b=0.01, n_f=256, snr=1.0)
        band2 = BandConfig(b=0.05, n_f=256, snr=1.0)
        psi_f = 0.8
        lo, hi = squint_safe_range(psi_f, 0.05, arr64)
        psi = min(hi, 1.0) - 1e-4
        assert spectral_efficiency_bs(psi_f, psi, band1, arr64) >= \
            spectral_efficiency_bs(psi_f, psi, band2, arr64) - 1e-12


class TestCapacityThreshold:
    def test_three_db_value(self, arr16):
        band = BandConfig(b=0.03, n_f=128, snr=1.0)
        assert capacity_threshold(SQRT2_OVER_2, band, arr16) == pytest.approx(
            math.log2(9), rel=1e-12)
        assert capacity_threshold_3db(band, arr16) == \
            capacity_threshold(SQRT2_OVER_2, band, arr16)

    def test_approaches_peak_as_r_to_one(self, arr16):
        band = BandConfig(b=0.03, n_f=128, snr=1.0)
        assert capacity_threshold(0.999999, band, arr16) == pytest.approx(
            math.log2(17), rel=1e-5)

    @pytest.mark.parametrize("r", [0.0, 1.0, -0.3, 1.5])
    def test_domain(self, r, arr16):
        band = BandConfig(b=0.03, n_f=128, snr=1.0)
        with pytest.raises(DomainError):
            capacity_threshold(r, band, arr16)

    def test_equals_no_squint_capacity_at_region_edge(self, arr64):
        band = BandConfig(b=0.03, n_f=128, snr=1.0)
        for psi_f in (0.0, 0.3, -0.6):
            region = gain_region(psi_f, 0.6, arr64)
            assert capacity_threshold(0.6, band, arr64) == pytest.approx(
                capacity_nbs(psi_f, region.hi, band, arr64), rel=1e-9)


class TestGainRegion:
    def test_halfwidth_matches_oracle(self, arr64):
        region = gain_region(0.0, SQRT2_OVER_2, arr64)
        w = ref_halfwidth(SQRT2_OVER_2, 64)
        assert region.hi == pytest.approx(w, abs=1e-9)
        assert region.hi == pytest.approx(0.886 / 64, abs=1e-4)

    def test_symmetric_at_broadside(self, arr64):
        region = gain_region(0.0, 0.5, arr64)
        assert region.lo == -region.hi

    def test_clipped_at_endfire(self, arr64):
        region = gain_region(1.0, SQRT2_OVER_2, arr64)
        assert region.hi == 1.0
        assert region.lo == pytest.approx(1.0 - ref_halfwidth(SQRT2_OVER_2, 64),
                                          abs=1e-9)

    def test_small_r_rejected(self, arr64):
        with pytest.raises(ConfigError):
            gain_region(0.0, 0.2, arr64)

    @pytest.mark.parametrize("r", [0.0, 1.0, 1.2])
    def test_domain(self, r, arr64):
        with pytest.raises(DomainError):
            gain_region(0.0, r, arr64)


class TestBeamwidthNbs:
    def test_three_db_width(self, arr64):
        band = BandConfig(b=0.03, n_f=128, snr=1.0)
        c_t = capacity_threshold_3db(band, arr64)
        assert beamwidth_nbs(c_t, band, arr64) == pytest.approx(
            2 * ref_halfwidth(SQRT2_OVER_2, 64), abs=1e-6)
        assert beamwidth_nbs(c_t, band, arr64) == pytest.approx(1.772 / 64, abs=2e-4)

    def test_equals_gain_region_width(self, arr64):
        band = BandConfig(b=0.03, n_f=128, snr=1.0)
        for r in (0.5, SQRT2_OVER_2, 0.9):
            c_t = capacity_threshold(r, band, arr64)
            region = gain_region(0.0, r, arr64)
            assert beamwidth_nbs(c_t, band, arr64) == pytest.approx(
                region.width, rel=1e-9)

    def test_shrinks_to_zero_at_peak(self, arr64):
        band = BandConfig(b=0.03, n_f=128, snr=1.0)
        peak = math.log2(1 + 64)
        assert beamwidth_nbs(peak * (1 - 1e-9), band, arr64) < 1e-3

    def test_above_peak_infeasible(self, arr64):
        band = BandConfig(b=0.03, n_f=128, snr=1.0)
        with pytest.raises(InfeasibleError):
            beamwidth_nbs(math.log2(1 + 64) + 0.1, band, arr64)


class TestSquintNeverHelps:
    """Squint cannot raise capacity on the squint-safe angle range."""

    def test_capacity_bound_seeded_sample(self):
        rng = np.random.default_rng(4242)
        checked = 0
        while checked < 2000:
            n = int(rng.integers(4, 129))
            b = float(rng.uniform(0.0, 0.1))
            psi_f = float(rng.uniform(-1.0, 1.0))
            arr = ArrayConfig(n)
            lo, hi = squint_safe_range(psi_f, b, arr)
            lo, hi = max(lo, -1.0), min(hi, 1.0)
            if lo >= hi:
                continue
            psi = float(rng.uniform(lo, hi))
            band = BandConfig(b=b, n_f=128, snr=1.0)
            cbs = capacity_bs(psi_f, psi, band, arr)
            cnbs = capacity_nbs(psi_f, psi, band, arr)
            assert cbs <= cnbs * (1 + 1e-9)
            checked += 1

    def test_equality_at_broadside_arrival(self):
        rng = np.random.default_rng(55)
        for _ in range(200):
            n = int(rng.integers(4, 129))
            band = BandConfig(b=float(rng.uniform(0, 0.1)), n_f=128, snr=1.0)
            psi_f = float(rng.uniform(-1, 1))
            arr = ArrayConfig(n)
            cbs = capacity_bs(psi_f, 0.0, band, arr)
            cnbs = capacity_nbs(psi_f, 0.0, band, arr)
            if cnbs > 0:
                assert abs(cbs - cnbs) / cnbs < 1e-9

    def test_efficiency_nonincreasing_in_b_seeded_sample(self):
        rng = np.random.default_rng(4343)
        checked = 0
        while checked < 2000:
            n = int(rng.integers(4, 129))
            b2 = float(rng.uniform(1e-6, 0.1))
            b1 = float(rng.uniform(0.0, b2))
            psi_f = float(rng.uniform(-1.0, 1.0))
            arr = ArrayConfig(n)
            lo, hi = squint_safe_range(psi_f, b2, arr)
            lo, hi = max(lo, -1.0), min(hi, 1.0)
            if lo >= hi:
                continue
            psi = float(rng.uniform(lo, hi))
            e1 = spectral_efficiency_bs(psi_f, psi,
                                        BandConfig(b=b1, n_f=128, snr=1.0), arr)
            e2 = spectral_efficiency_bs(psi_f, psi,
                                        BandConfig(b=b2, n_f=128, snr=1.0), arr)
            assert e1 >= e2 - 1e-12
            checked += 1


class TestSolverPreconditions:
    """Sampled support for the bisection brackets the codebook solvers use."""

    def test_threshold_crossing_is_unique(self):
        rng = np.random.default_rng(909)
        checked = 0
        while checked < 200:
            n = int(rng.integers(8, 129))
            b = float(rng.uniform(0.0, 0.1))
            psi_f = float(rng.uniform(-1.0, 1.0))
            arr = ArrayConfig(n)
            band = BandConfig(b=b, n_f=128, snr=1.0)
            c_t = capacity_threshold_3db(band, arr)
            if capacity_bs(psi_f, psi_f, band, arr) < c_t:
                continue
            half = beamwidth_nbs(c_t, band, arr) / 2
            grid = np.linspace(psi_f, psi_f + half, 200)
            vals = capacity_bs(psi_f, grid, band, arr)
            signs = np.sign(vals - c_t)
            assert np.sum(np.abs(np.diff(signs)) > 0) <= 1
            # Any rise past the focus stays far below threshold resolution.
            rises = np.diff(vals)
            assert rises.max(initial=0.0) < 1e-3
            checked += 1

    def test_capacity_argmax_stays_near_focus(self):
        # The squinted capacity peaks close to, but not exactly at, the
        # focus; the worst observed offset is recorded for reference.
        rng = np.random.default_rng(911)
        checked = 0
        worst = 0.0
        while checked < 100:
            n = int(rng.integers(8, 129))
            b = float(rng.uniform(0.0, 0.08))
            psi_f = float(rng.uniform(-1.0, 1.0))
            arr = ArrayConfig(n)
            band = BandConfig(b=b, n_f=128, snr=1.0)
            if capacity_bs(psi_f, psi_f, band, arr) < capacity_threshold_3db(band, arr):
                continue
            w = ref_halfwidth(SQRT2_OVER_2, n)
            grid = np.linspace(psi_f - w, psi_f + w, 801)
            vals = capacity_bs(psi_f, grid, band, arr)
            deviation = abs(float(grid[int(np.argmax(vals))]) - psi_f)
            assert deviation <= 0.1 * w
            worst = max(worst, deviation / w)
            checked += 1
        print(f"worst capacity argmax offset: {worst:.4f} of a 3 dB half-width")
