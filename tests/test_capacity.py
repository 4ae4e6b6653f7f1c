import gc
import math
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import beamsquint

from beamsquint import (ArrayConfig, BandConfig, ConfigError, DomainError,
                        InfeasibleError, beamwidth_nbs, capacity_bs, capacity_nbs,
                        capacity_threshold, capacity_threshold_3db, gain_region,
                        spectral_efficiency_bs, squint_safe_range)
from beamsquint import capacity
from beamsquint.capacity import MIN_REGION_R, _capacity_rows, capacity_slope_bound

from oracles import pair_asymmetry, ref_capacity_bs, ref_halfwidth

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

    def test_distinct_bands_hold_no_package_memory(self):
        # Each band owns its subcarrier ratios; nothing the package keeps
        # may grow with the number of distinct bands seen.
        arr = ArrayConfig(16)
        capacity_bs(0.1, 0.2, BandConfig(b=0.01, n_f=2048, snr=1.0), arr)
        pkg = tracemalloc.Filter(True, str(Path(beamsquint.__file__).parent / "*"))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot().filter_traces([pkg])
            for i in range(1000):
                band = BandConfig(b=0.02 + i * 1e-6, n_f=2048, snr=1.0)
                capacity_bs(0.1, 0.2, band, arr)
            del band
            gc.collect()
            after = tracemalloc.take_snapshot().filter_traces([pkg])
        finally:
            tracemalloc.stop()
        grown = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
        assert grown < 2048 * 8  # less than one band's ratios


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

    @pytest.mark.parametrize("n_f, count", [
        pytest.param(64, 2047, id="2047"),
        pytest.param(64, 2048, id="2048"),
        pytest.param(64, 2049, id="2049"),
        pytest.param(64, 5000, id="5000"),
        # 2**16 // n_f angles per block: at, around and past block edges.
        *(pytest.param(n_f, count, id=f"nf{n_f}-{count}")
          for n_f, rows in ((256, 256), (2048, 32))
          for count in (1, rows - 1, rows, rows + 1, 2 * rows, 3 * rows + 1)),
    ])
    def test_chunked_vector_matches_slices(self, arr16, n_f, count):
        # The vector path works in blocks of angles; block edges must not
        # change a single bit, and every entry is the per-angle scalar call,
        # also with one focus per angle, at the singular point x = 0
        # (psi = psi_f = 0) and at b = 0.
        band = BandConfig(b=0.05, n_f=n_f, snr=1.0)
        psis = np.linspace(-1.0, 1.0, count)
        slices = [capacity_bs(0.3, psis[i:i + 7], band, arr16)
                  for i in range(0, count, 7)]
        assert np.array_equal(capacity_bs(0.3, psis, band, arr16),
                              np.concatenate(slices))
        foci = np.linspace(0.3, -0.3, count)
        foci[count // 2] = psis[count // 2] = 0.0
        for b in (0.05, 0.0):
            band = BandConfig(b=b, n_f=n_f, snr=1.0)
            for focus in (0.3, foci):
                scalar = [capacity_bs(float(f), float(p), band, arr16)
                          for f, p in zip(np.broadcast_to(focus, psis.shape), psis)]
                assert capacity_bs(focus, psis, band, arr16).tolist() == scalar

    def test_focus_broadcasts_against_angle(self, arr16):
        band = BandConfig(b=0.05, n_f=256, snr=1.0)
        foci = np.array([-0.2, 0.0, 0.4])
        for fn in (capacity_bs, capacity_nbs):
            assert isinstance(fn(0.1, 0.2, band, arr16), float)
            row = fn(foci, 0.2, band, arr16)
            assert row.shape == (3,)
            assert row.tolist() == [fn(float(f), 0.2, band, arr16) for f in foci]
            grid = fn(foci[:, np.newaxis], np.array([0.1, 0.3]), band, arr16)
            assert grid.shape == (3, 2)
            assert grid[2, 1] == fn(0.4, 0.3, band, arr16)

    @pytest.mark.parametrize("count, sizes", [
        pytest.param(count, sizes, id=f"{count}-angles") for count, sizes in (
            (0, []), (1, [1]), (2, [2]), (3, [3]), (4, [3, 1]), (6, [3, 3]),
            (7, [3, 3, 1]))])
    def test_blocks_tile_the_angles(self, arr16, monkeypatch, count, sizes):
        # Three angles per block: at, around and past the block edges.
        band = BandConfig(b=0.05, n_f=64, snr=1.0)
        psis = np.linspace(-1.0, 1.0, count)
        foci = np.linspace(0.3, -0.3, count)
        scalar = [capacity_bs(float(f), float(p), band, arr16)
                  for f, p in zip(foci, psis)]
        monkeypatch.setattr(capacity, "_BLOCK_ELEMENTS", 3 * 64)
        rate_sum, seen = capacity._rate_sum, []

        def recording(x, band, arr):
            seen.append(len(x))
            return rate_sum(x, band, arr)

        monkeypatch.setattr(capacity, "_rate_sum", recording)
        assert _capacity_rows(foci, psis, band, arr16).tolist() == scalar
        assert seen == sizes

    @pytest.mark.parametrize("count", [0, 1, 31, 32, 33, 64, 65, 16 * 32 + 5])
    def test_blocks_run_on_the_calling_thread(self, arr16, monkeypatch, count):
        # 2048 subcarriers give 32 angles per block; the last block is partial.
        band = BandConfig(b=0.05, n_f=2048, snr=1.0)
        psis = np.linspace(-1.0, 1.0, count)
        scalar = [capacity_bs(0.3, float(p), band, arr16) for p in psis]
        rate_sum, seen = capacity._rate_sum, []

        def recording(x, band, arr):
            seen.append(len(x))
            return rate_sum(x, band, arr)

        def refuse(self):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(capacity, "_rate_sum", recording)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert _capacity_rows(np.full(count, 0.3), psis, band, arr16).tolist() == scalar
        full, rest = divmod(count, 32)
        assert seen == [32] * full + ([rest] if rest else [])

    def test_first_failing_block_raises(self, arr16, monkeypatch):
        # Blocks 1 and 2 of 3 fail; block 1's exception propagates.
        band = BandConfig(b=0.05, n_f=64, snr=1.0)
        psis, foci = np.linspace(-1.0, 1.0, 7), np.zeros(7)
        block_of = {band.ratios[0] * psis[i] - foci[i]: i // 3 for i in range(0, 7, 3)}
        monkeypatch.setattr(capacity, "_BLOCK_ELEMENTS", 3 * 64)
        rate_sum = capacity._rate_sum

        def failing(x, band, arr):
            k = block_of[x[0, 0]]
            if k >= 1:
                raise ValueError(k)
            return rate_sum(x, band, arr)

        monkeypatch.setattr(capacity, "_rate_sum", failing)
        with pytest.raises(ValueError) as exc:
            _capacity_rows(foci, psis, band, arr16)
        assert exc.value.args == (1,)

    def test_reflection_invariance_is_exact(self, arr64):
        band = BandConfig(b=0.03, n_f=512, snr=1.0)
        rng = np.random.default_rng(29)
        for psi_f, psi in rng.uniform(-1, 1, size=(50, 2)):
            assert capacity_bs(psi_f, psi, band, arr64) == \
                capacity_bs(-psi_f, -psi, band, arr64)


class TestRateSumKernel:
    @pytest.mark.parametrize("n", [2, 3, 16, 64, 128])
    @pytest.mark.parametrize("n_f", [8, 256, 2048])
    @pytest.mark.parametrize("hz", [False, True])
    def test_scalar_and_vector_equal_the_plain_expression(self, n, n_f, hz):
        # The kernel squares the signed gain ratio in place; every bit must
        # be that of the plain expression, also at exact singular points:
        # psi = psi_f = 0 (every subcarrier) and psi_f = xi_k*psi (one).
        arr = ArrayConfig(n)
        band = (BandConfig.from_hz(0.05 * 28e9, 28e9, n_f=n_f, snr=2.0) if hz
                else BandConfig(b=0.05, n_f=n_f, snr=2.0))
        rng = np.random.default_rng(n * n_f)
        foci = [*rng.uniform(-1.0, 1.0, 12), 0.0, 1.0, -1.0,
                float(band.ratios[1] * 0.7), float(band.ratios[n_f // 2] * -0.4)]
        psis = [*rng.uniform(-1.0, 1.0, 12), 0.0, 1.0, 1.0, 0.7, -0.4]
        assert not band.ratios[1] * 0.7 - foci[-2]
        assert not band.ratios[n_f // 2] * -0.4 - foci[-1]
        expected = [ref_capacity_bs(f, p, band, arr) for f, p in zip(foci, psis)]
        assert [capacity_bs(f, p, band, arr) for f, p in zip(foci, psis)] == expected
        assert capacity_bs(np.array(foci), np.array(psis), band, arr).tolist() == expected

    def test_non_finite_rows_leave_singular_rows_alone(self):
        # One block holds NaN and infinite angles next to rows with exact
        # singular points; those rows still equal the plain expression.
        arr = ArrayConfig(8)
        band = BandConfig(b=0.05, n_f=8, snr=2.0)
        foci = [0.0, np.nan, 0.0, float(band.ratios[1] * 0.7), 0.2, 0.0]
        psis = [0.0, 0.0, np.inf, 0.7, 0.5, -np.inf]
        with np.errstate(invalid="ignore"):
            caps = capacity_bs(np.array(foci), np.array(psis), band, arr).tolist()
        for f, p, c in zip(foci, psis, caps):
            if math.isfinite(f) and math.isfinite(p):
                assert c == ref_capacity_bs(f, p, band, arr) == capacity_bs(f, p, band, arr)
            else:
                assert math.isnan(c)


class TestCapacitySlopeBound:
    @pytest.mark.parametrize("n", [2, 3, 16, 64, 128])
    @pytest.mark.parametrize("b", [0.0, 0.03, 0.5])
    @pytest.mark.parametrize("hz", [False, True], ids=["dimensionless", "hz"])
    def test_bounds_every_finite_difference(self, n, b, hz):
        # coverage_check's proof needs a true bound, and at b = 0, N=2 and
        # snr 100 the slope comes within 0.3% of it, so no tolerance beyond
        # rounding.
        arr = ArrayConfig(n)
        psis = np.linspace(-1.0, 1.0, 40_001)
        foci = np.array([[0.0], [0.5], [0.97]])
        # At snr 1e-6 and 1e-8 (N*snr < 1/4) the bound's factor is
        # 2*snr*sqrt(N), not sqrt(snr).
        for snr in (1e-8, 1e-6, 0.01, 1.0, 100.0):
            band = BandConfig(b=b, n_f=8, snr=snr,
                              bandwidth_hz=2.5e9 if hz else None)
            caps = capacity_bs(foci, psis, band, arr)
            ratio = np.max(np.abs(np.diff(caps, axis=1)) / np.diff(psis))
            bound = capacity_slope_bound(band, arr)
            assert ratio <= bound * (1.0 + 1e-6), (snr, ratio / bound)
            if n == 2 and b == 0.0 and snr == 100.0:
                assert ratio >= 0.99 * bound


class TestMirrorIdentity:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(n=st.integers(2, 1024), b=st.one_of(st.just(0.0), st.floats(1e-3, 1.5)),
           pairs=st.integers(1, 1024), snr_db=st.sampled_from([-20.0, 0.0, 3.0, 30.0]),
           psi=st.floats(-1.0, 1.0), share=st.floats(-1.0, 1.0))
    def test_focus_mirrored_about_the_angle_gives_the_same_capacity(
            self, n, b, pairs, snr_db, psi, share):
        # The band pairs each ratio xi with 2 - xi and the gain is even in
        # its offset, so C(2*psi - f, psi) = C(f, psi) for the exact sum;
        # the computed values differ by at most the mirror margin, with the
        # pairs' asymmetry at its proved bound, wherever every offset at
        # both foci is at most 1.
        arr, band = ArrayConfig(n), BandConfig(b=b, n_f=2 * pairs, snr=10 ** (snr_db / 10))
        f = psi - share * 2.0 / n
        mirror = 2.0 * psi - f
        offsets = np.subtract.outer(band.ratios[[0, -1]] * psi, [f, mirror])
        assume(np.max(np.abs(offsets)) <= 1.0)
        assert abs(capacity_bs(mirror, psi, band, arr) - capacity_bs(f, psi, band, arr)) \
            <= capacity._mirror_margin(psi, mirror, band, arr)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(b=st.one_of(st.just(0.0), st.floats(0.0, 2.0, exclude_max=True)),
           pairs=st.integers(1, 1024))
    def test_pairs_sum_to_two_within_the_proved_asymmetry(self, b, pairs):
        # |xi_k + xi_{n-1-k} - 2| <= 2**-52 exactly, as the margin assumes;
        # the suite's conftest checks the same of every band a test builds.
        ratios = BandConfig(b=b, n_f=2 * pairs, snr=1.0).ratios
        exact = max(abs(Fraction(x) + Fraction(y) - 2) for x, y in zip(ratios, ratios[::-1]))
        assert exact <= Fraction(2) ** -52
        assert pair_asymmetry(ratios) == exact


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

    @pytest.mark.parametrize("n,snr", [(64, 1.0), (128, 0.5), (128, 10.0), (16, 1.0)])
    def test_minimum_ratio_survives_the_threshold_round_trip(self, n, snr):
        # The ratio recovered from the r = 0.25 threshold rounds an ulp
        # below 0.25 at these points; it is still the documented minimum.
        arr = ArrayConfig(n)
        band = BandConfig(b=0.01, n_f=64, snr=snr)
        c_t = capacity_threshold(MIN_REGION_R, band, arr)
        assert beamwidth_nbs(c_t, band, arr) == pytest.approx(
            gain_region(0.0, MIN_REGION_R, arr).width, rel=1e-9)

    def test_one_minimum_ratio_rule_for_regions_and_beamwidths(self, arr64):
        band = BandConfig(b=0.01, n_f=64, snr=1.0)
        for r in (0.2499, MIN_REGION_R * (1 - 1e-9)):
            with pytest.raises(ConfigError):
                gain_region(0.0, r, arr64)
            with pytest.raises(ConfigError):
                beamwidth_nbs(capacity_threshold(r, band, arr64), band, arr64)
        r = MIN_REGION_R * (1 - 1e-13)  # rounding, not a smaller ratio
        assert gain_region(0.0, r, arr64).width > 0
        assert beamwidth_nbs(capacity_threshold(r, band, arr64), band, arr64) > 0

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
