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
                        capacity_threshold, capacity_threshold_3db, design_codebook,
                        gain_region, spectral_efficiency_bs, squint_safe_range,
                        subcarrier_grid)
from beamsquint import capacity
from beamsquint.capacity import MIN_REGION_R, _capacity_rows, capacity_slope_bound
from beamsquint.roots import TOL

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
        rate_terms, seen = capacity._rate_terms, []

        def recording(x, band, arr):
            seen.append(len(x))
            return rate_terms(x, band, arr)

        monkeypatch.setattr(capacity, "_rate_terms", recording)
        assert _capacity_rows(foci, psis, band, arr16).tolist() == scalar
        assert seen == sizes

    @pytest.mark.parametrize("count", [0, 1, 31, 32, 33, 64, 65, 16 * 32 + 5])
    def test_blocks_run_on_the_calling_thread(self, arr16, monkeypatch, count):
        # 2048 subcarriers give 32 angles per block; the last block is partial.
        band = BandConfig(b=0.05, n_f=2048, snr=1.0)
        psis = np.linspace(-1.0, 1.0, count)
        scalar = [capacity_bs(0.3, float(p), band, arr16) for p in psis]
        rate_terms, seen = capacity._rate_terms, []

        def recording(x, band, arr):
            seen.append(len(x))
            return rate_terms(x, band, arr)

        def refuse(self):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(capacity, "_rate_terms", recording)
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
        rate_terms = capacity._rate_terms

        def failing(x, band, arr):
            k = block_of[x[0, 0]]
            if k >= 1:
                raise ValueError(k)
            return rate_terms(x, band, arr)

        monkeypatch.setattr(capacity, "_rate_terms", failing)
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
            <= capacity._mirror_margin(band, arr)(psi, mirror)

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


def lobe_band(b, pairs, snr_db, hz):
    return BandConfig(b=b, n_f=2 * pairs, snr=10 ** (snr_db / 10),
                      bandwidth_hz=2.5e9 if hz else None)


LOBE_BANDS = dict(n=st.integers(2, 1024), b=st.one_of(st.just(0.0), st.floats(0.0, 1.9)),
                  pairs=st.integers(1, 1024), snr_db=st.floats(-80.0, 30.0),
                  hz=st.booleans())


class TestLobeBound:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(**LOBE_BANDS, focus=st.floats(-1.0, 1.0), ends=st.tuples(st.floats(0.0, 1.0),
                                                                      st.floats(0.0, 1.0)))
    def test_every_point_of_a_run_on_the_lobe_clears_the_bound(self, n, b, pairs, snr_db,
                                                               hz, focus, ends):
        # The angles psi that put both extreme offsets xi*psi - f on the
        # main lobe form an interval, not empty for |f| < 4/(N*(xi_max -
        # xi_min)); every computed capacity on a run inside it is at least
        # the bound from the run's two ends, less the sign margin.
        arr, band = ArrayConfig(n), lobe_band(b, pairs, snr_db, hz)
        lo_xi, hi_xi = band.ratios[[0, -1]].tolist()
        lobe = 2.0 / n
        f = focus * (1.0 if hi_xi == lo_xi else min(1.0, 0.999 * 2 * lobe / (hi_xi - lo_xi)))
        lo = max(-1.0, (f - lobe) / lo_xi, (f - lobe) / hi_xi)
        hi = min(1.0, (f + lobe) / lo_xi, (f + lobe) / hi_xi)
        assume(lo < hi)
        psi_a, psi_b = (lo + (hi - lo) * t for t in ends)
        terms_a, _, on_a = capacity._capacity_point(f, psi_a, band, arr)
        terms_b, _, on_b = capacity._capacity_point(f, psi_b, band, arr)
        assume(on_a and on_b)
        bound = capacity._lobe_bound(terms_a, terms_b, band)
        caps = capacity_bs(f, np.linspace(psi_a, psi_b, 64), band, arr)
        assert np.all(caps >= bound - capacity._sign_margin(bound, band, arr))

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(**LOBE_BANDS, psi=st.floats(-1.0, 1.0), outer=st.sampled_from([0, -1]),
           sign=st.sampled_from([-1.0, 1.0]), shift=st.floats(-1e-12, 1e-12))
    def test_off_the_lobe_when_an_end_offset_passes_two_over_n(self, n, b, pairs, snr_db,
                                                              hz, psi, outer, sign, shift):
        # One extreme offset within 1e-12 (relative) of the lobe's edge: the
        # flag is False wherever an exact offset at the stored ratios passes
        # 2/N, and True wherever both are 1e-14 inside it.
        arr, band = ArrayConfig(n), lobe_band(b, pairs, snr_db, hz)
        f = float(band.ratios[outer]) * psi - sign * (2.0 / n) * (1.0 + shift)
        _, _, on_lobe = capacity._capacity_point(f, psi, band, arr)
        exact = max(abs(Fraction(xi) * Fraction(psi) - Fraction(f))
                    for xi in band.ratios[[0, -1]].tolist())
        if exact > Fraction(2, n):
            assert not on_lobe
        if exact <= Fraction(2, n) - Fraction(1e-14):
            assert on_lobe

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(**LOBE_BANDS, focus=st.floats(-1.0, 1.0), psi=st.floats(-1.0, 1.0))
    def test_value_is_capacity_bs_to_the_bit(self, n, b, pairs, snr_db, hz, focus, psi):
        # Scalar and vector calls alike, at b = 0 (capacity_nbs) and in Hz;
        # the bound of a point with itself is its value.
        arr, band = ArrayConfig(n), lobe_band(b, pairs, snr_db, hz)
        terms, value, _ = capacity._capacity_point(focus, psi, band, arr)
        assert value == capacity_bs(focus, psi, band, arr)
        assert value == capacity_bs(np.array([focus, 0.0]), np.array([psi, 0.5]),
                                    band, arr)[0]
        assert capacity._lobe_bound(terms, terms, band) == value


class TestCapacityModel:
    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(n=st.integers(2, 1024), bn=st.floats(0.0, 5.0), pairs=st.integers(8, 1024),
           snr_db=st.floats(-80.0, 30.0), psi=st.floats(-1.0, 1.0), share=st.floats(-1.0, 1.0))
    def test_value_and_slope_follow_the_capacity(self, n, bn, pairs, snr_db, psi, share):
        # Wherever every offset is at most 1, the model is within 10% of
        # the peak capacity of capacity_bs, and its slope within 20% of L
        # of a central difference of the reference sum, whose rounding (at
        # most E at each end) adds E/eta; within 60% of L where fewer than
        # 20 subcarriers fall in each 1/N of offset (b*N > n_f/20), as there
        # the midpoint rule's h^4 term, which the model omits, is large.  Over 12,000 random and 130,000
        # grid examples these reached 6.9%, 9.3% and 53%, near nulls at
        # high SNR, where the 16-node rule resolves log2(1 + snr*G^2)
        # poorly, and at n_f 16 for the last.
        b = bn / n
        assume(b < 2.0)
        arr, band = ArrayConfig(n), BandConfig(b=b, n_f=2 * pairs, snr=10 ** (snr_db / 10))
        f = psi - share
        assume(np.max(np.abs(band.ratios[[0, -1]] * psi - f)) <= 1.0)
        value, slope = capacity._capacity_model(f, psi, band, arr)
        peak = band.bandwidth * math.log2(1.0 + n * band.snr)
        assert abs(value - capacity_bs(f, psi, band, arr)) <= 0.1 * peak
        eta = 1e-5 / n
        diff = (ref_capacity_bs(f, psi + eta, band, arr)
                - ref_capacity_bs(f, psi - eta, band, arr)) / (2.0 * eta)
        room = 0.2 if bn <= band.n_f / 20 else 0.6
        assert abs(slope - diff) <= (room * capacity_slope_bound(band, arr)
                                     + capacity._rounding_bound(band, arr) / eta)

    @pytest.mark.parametrize("n, bn", [(8, 1.0), (8, 3.0), (12, 3.0), (64, 1.0), (64, 2.8),
                                       (128, 2.19)])
    @pytest.mark.parametrize("snr_db", [0.0, 3.0])
    def test_puts_each_chain_edge_within_a_tenth_of_tol(self, n, bn, snr_db):
        # At a designed beam's right edge, where the edge solves aim with
        # it, the model is within 2e-11 of capacity_bs, relative, so its
        # root lies within TOL/10 of the capacity's (the largest seen:
        # 1.1e-11 and 0.04*TOL, at N=12, b*N 3.0, 0 dB), and its slope
        # within 1e-8 of a central difference (9e-10 seen).
        arr, band = ArrayConfig(n), BandConfig(b=bn / n, n_f=2048, snr=10 ** (snr_db / 10))
        cb = design_codebook(1.0, capacity_threshold_3db(band, arr), band, arr)
        eta = 1e-5 / n
        for beam in cb.beams:
            f, psi = beam.focus, beam.right
            value, slope = capacity._capacity_model(f, psi, band, arr)
            c = capacity_bs(f, psi, band, arr)
            assert abs(value - c) <= 2e-11 * c
            assert abs(value - c) <= 0.1 * TOL * abs(slope)
            diff = (ref_capacity_bs(f, psi + eta, band, arr)
                    - ref_capacity_bs(f, psi - eta, band, arr)) / (2.0 * eta)
            assert abs(slope - diff) <= 1e-8 * abs(diff)

    def test_rule_is_numpys_gauss_legendre(self):
        t, w, wt = capacity._gauss_legendre()
        nodes, weights = np.polynomial.legendre.leggauss(capacity._MODEL_NODES)
        order = np.argsort(t[:-2])
        assert np.allclose(t[:-2][order], nodes, rtol=0.0, atol=1e-15)
        assert np.allclose(2.0 * w[:-2][order], weights, rtol=0.0, atol=1e-14)
        assert (t[-2:].tolist(), w[-2:].tolist()) == ([-1.0, 1.0], [0.0, 0.0])
        assert np.array_equal(wt, w * t)

    def test_singular_offsets_take_the_limit(self):
        # At x = 0 and x = +-2 the gain's sines vanish; the model takes the
        # limit there without a warning (the suite makes warnings errors),
        # within 1e-13 of the nearby capacity, and with zero slope at the
        # peak of a zero-bandwidth beam.
        arr, band = ArrayConfig(16), BandConfig(b=0.0, n_f=2048, snr=1.0)
        for f, psi in ((0.3, 0.3), (-1.0, 1.0), (1.0, -1.0)):
            value, slope = capacity._capacity_model(f, psi, band, arr)
            assert value == pytest.approx(capacity_bs(f, psi, band, arr), rel=1e-13)
            assert slope == pytest.approx(0.0, abs=1e-9)
        band = BandConfig(b=0.1, n_f=32, snr=1.0)
        value, _ = capacity._capacity_model(0.0, 0.0, band, arr)
        assert value == pytest.approx(capacity_bs(0.0, 0.0, band, arr), rel=1e-13)


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

    @pytest.mark.parametrize("psi_f", [5.0, -1.5, math.nan])
    def test_focus_must_be_visible(self, psi_f, arr16):
        # Past endfire the clipped region would have lo > hi.
        with pytest.raises(DomainError, match=r"psi_f must be in \[-1, 1\]"):
            gain_region(psi_f, SQRT2_OVER_2, arr16)


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

    @pytest.mark.parametrize("b", [2.0, 3.0, -0.1, math.nan])
    def test_safe_range_takes_the_bands_fractional_bandwidths(self, b, arr16):
        # b = 2 puts the lower band edge at frequency 0.
        with pytest.raises(ConfigError) as safe:
            squint_safe_range(0.5, b, arr16)
        with pytest.raises(ConfigError) as band:
            subcarrier_grid(b, 64)
        assert str(safe.value) == str(band.value)

    @pytest.mark.parametrize("psi_f", [math.nan, 7.0, -1.5])
    def test_safe_range_rejects_an_invisible_focus(self, psi_f, arr16):
        with pytest.raises(DomainError, match="psi_f"):
            squint_safe_range(psi_f, 0.1, arr16)

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
