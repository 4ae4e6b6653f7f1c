import math

import numpy as np
import pytest

from beamsquint import (ArrayConfig, BandConfig, Beam, Codebook, ConfigError, DomainError,
                        InfeasibleError, assess_feasibility,
                        beamwidth_nbs, capacity_bs, capacity_threshold,
                        capacity_threshold_3db, coverage_check, design_codebook,
                        estimate_bsup, fit_bsup_constant, improvement_max,
                        improvement_ratio, solve_focus_from_left, solve_left_edge,
                        solve_right_edge, traditional_min_capacity)
from beamsquint import codebook
from beamsquint.codebook import _coverage_grid

from oracles import (both_parity_bsup, exhaustive_coverage_check, ref_halfwidth,
                     scan_first_at_or_above, scan_last_at_or_above)

SQRT2_OVER_2 = math.sqrt(2.0) / 2.0


def band_for(b, n_f=2048, snr=1.0):
    return BandConfig(b=b, n_f=n_f, snr=snr)


def threshold(band, arr, r=SQRT2_OVER_2):
    return capacity_threshold(r, band, arr)


class TestEdgeSolvers:
    def test_right_edge_zero_bandwidth_hits_bracket_end(self):
        arr = ArrayConfig(32)
        band = band_for(0.0)
        c_t = threshold(band, arr)
        half = beamwidth_nbs(c_t, band, arr) / 2
        assert solve_right_edge(0.3, c_t, band, arr) == pytest.approx(
            0.3 + half, abs=1e-9)
        assert solve_left_edge(0.3, c_t, band, arr) == pytest.approx(
            0.3 - half, abs=1e-9)

    def test_broadside_edges_mirror(self):
        arr = ArrayConfig(32)
        band = band_for(0.0342)
        c_t = threshold(band, arr)
        right = solve_right_edge(0.0, c_t, band, arr)
        left = solve_left_edge(0.0, c_t, band, arr)
        assert left == pytest.approx(-right, abs=1e-12)

    def test_edges_reflect_between_foci(self):
        arr = ArrayConfig(64)
        band = band_for(0.0342)
        c_t = threshold(band, arr)
        for psi_f in (0.5, 0.9):
            assert solve_left_edge(-psi_f, c_t, band, arr) == pytest.approx(
                -solve_right_edge(psi_f, c_t, band, arr), abs=1e-12)

    def test_right_edge_matches_grid_scan(self):
        # Verified against a brute 1e-6-step scan for coverage >= threshold.
        arr = ArrayConfig(32)
        band = band_for(0.0342)
        c_t = threshold(band, arr)
        half = beamwidth_nbs(c_t, band, arr) / 2
        root = solve_right_edge(0.9, c_t, band, arr)
        oracle = scan_last_at_or_above(
            lambda p: capacity_bs(0.9, p, band, arr), 0.9, 0.9 + half, c_t)
        assert abs(root - oracle) < 2e-6
        assert root < 0.9 + half  # squint pulls the edge strictly inward

    def test_left_edge_matches_grid_scan(self):
        arr = ArrayConfig(64)
        band = band_for(0.0342)
        c_t = threshold(band, arr)
        half = beamwidth_nbs(c_t, band, arr) / 2
        root = solve_left_edge(0.5, c_t, band, arr)
        oracle = scan_first_at_or_above(
            lambda p: capacity_bs(0.5, p, band, arr), 0.5 - half, 0.5, c_t)
        assert abs(root - oracle) < 2e-6

    def test_focus_solver_zero_bandwidth(self):
        arr = ArrayConfig(32)
        band = band_for(0.0)
        c_t = threshold(band, arr)
        half = beamwidth_nbs(c_t, band, arr) / 2
        assert solve_focus_from_left(0.2, c_t, band, arr) == pytest.approx(
            0.2 + half, abs=1e-9)

    def test_focus_solver_matches_grid_scan(self):
        arr = ArrayConfig(32)
        band = band_for(0.05)
        c_t = threshold(band, arr)
        half = beamwidth_nbs(c_t, band, arr) / 2
        root = solve_focus_from_left(0.7, c_t, band, arr)
        oracle = scan_last_at_or_above(
            lambda pf: capacity_bs(pf, 0.7, band, arr), 0.7, 0.7 + half, c_t)
        assert abs(root - oracle) < 2e-6

    def test_focus_and_left_edge_are_inverses(self):
        arr = ArrayConfig(32)
        band = band_for(0.0342)
        c_t = threshold(band, arr)
        for psi_l in (0.0, 0.4, 0.85):
            focus = solve_focus_from_left(psi_l, c_t, band, arr)
            assert solve_left_edge(focus, c_t, band, arr) == pytest.approx(
                psi_l, abs=1e-8)

    def test_infeasible_focus_raises_with_position(self):
        arr = ArrayConfig(64)
        band = band_for(0.2)  # far beyond the workable bandwidth
        c_t = threshold(band, arr)
        with pytest.raises(InfeasibleError) as err:
            solve_right_edge(0.9, c_t, band, arr)
        assert err.value.failing_focus == 0.9
        with pytest.raises(InfeasibleError):
            solve_focus_from_left(0.9, c_t, band, arr)
        with pytest.raises(InfeasibleError) as err:
            solve_left_edge(0.9, c_t, band, arr)
        assert err.value.failing_focus == 0.9


def uniform_tiling_sizes(psi_m, halfwidth):
    """Hand-computed no-squint tiling: centre beam + pairs vs pairs only."""
    pairs = math.ceil((psi_m - halfwidth) / (2 * halfwidth)) if psi_m > halfwidth else 0
    odd = 1 + 2 * pairs
    even = 2 * math.ceil(psi_m / (2 * halfwidth))
    return odd, even


class TestDesignCodebook:
    def test_zero_bandwidth_uniform_tiling(self):
        for n in (16, 32):
            arr = ArrayConfig(n)
            band = band_for(0.0, n_f=128)
            c_t = threshold(band, arr)
            cb = design_codebook(1.0, c_t, band, arr)
            w = ref_halfwidth(SQRT2_OVER_2, n)
            odd, even = uniform_tiling_sizes(1.0, w)
            assert cb.size == min(odd, even)
            widths = [beam.width for beam in cb.beams]
            assert widths == pytest.approx([2 * w] * cb.size, abs=1e-8)

    def test_structure(self):
        arr = ArrayConfig(32)
        band = band_for(0.0342)
        c_t = threshold(band, arr)
        cb = design_codebook(1.0, c_t, band, arr)

        foci = [beam.focus for beam in cb.beams]
        assert all(f2 > f1 for f1, f2 in zip(foci, foci[1:]))
        assert cb.parity == ("odd" if cb.size % 2 else "even")
        assert cb.size == len(cb.beams)

        # exact abutment of adjacent coverages
        for left_beam, right_beam in zip(cb.beams, cb.beams[1:]):
            assert abs(left_beam.right - right_beam.left) < 1e-8

        # mirror symmetry of the focus multiset
        assert sorted(abs(f) for f in foci[: cb.size // 2]) == pytest.approx(
            sorted(f for f in foci if f > 0), abs=1e-8)

        # full coverage reach
        assert cb.beams[0].left <= -1.0
        assert cb.beams[-1].right >= 1.0

        half = beamwidth_nbs(c_t, band, arr) / 2
        for beam in cb.beams:
            assert beam.left <= beam.focus <= beam.right
            assert beam.width > 0
            assert beam.focus - beam.left <= half + 1e-9
            assert beam.right - beam.focus <= half + 1e-9
            # edges are boundary roots of the threshold equation
            assert capacity_bs(beam.focus, beam.left, band, arr) >= c_t - 1e-6
            assert capacity_bs(beam.focus, beam.right, band, arr) >= c_t - 1e-6
            if -1 < beam.left and beam.right < 1:
                assert capacity_bs(beam.focus, beam.left - 1e-5, band, arr) < c_t
                assert capacity_bs(beam.focus, beam.right + 1e-5, band, arr) < c_t

    def test_odd_bookkeeping_counts_centre_plus_pairs(self):
        arr = ArrayConfig(16)
        band = band_for(0.0179)
        cb = design_codebook(1.0, threshold(band, arr), band, arr)
        positive = sum(1 for beam in cb.beams if beam.focus > 0)
        if cb.parity == "odd":
            assert cb.size == 1 + 2 * positive
        else:
            assert cb.size == 2 * positive

    def test_widths_shrink_toward_endfire(self):
        arr = ArrayConfig(64)
        band = band_for(0.0417)
        cb = design_codebook(1.0, threshold(band, arr), band, arr)
        outward = [beam.width for beam in cb.beams if beam.focus >= 0]
        assert all(w2 <= w1 + 1e-12 for w1, w2 in zip(outward, outward[1:]))

    def test_feasible_at_n32_wide_band(self):
        arr = ArrayConfig(32)
        band = band_for(0.0714)
        cb = design_codebook(1.0, threshold(band, arr), band, arr)
        assert cb.size > 0

    def test_infeasible_at_n42_wide_band(self):
        arr = ArrayConfig(42)
        band = band_for(0.0714)
        with pytest.raises(InfeasibleError) as err:
            design_codebook(1.0, threshold(band, arr), band, arr)
        assert "no codebook exists" in str(err.value)
        assert err.value.failing_focus is not None

    def test_psi_m_domain(self):
        arr = ArrayConfig(16)
        band = band_for(0.01)
        with pytest.raises(Exception):
            design_codebook(0.0, threshold(band, arr), band, arr)

    def test_partial_range_coverage(self):
        arr = ArrayConfig(32)
        band = band_for(0.0342)
        c_t = threshold(band, arr)
        cb = design_codebook(0.5, c_t, band, arr)
        assert cb.psi_m == 0.5
        assert cb.beams[0].left <= -0.5
        assert cb.beams[-1].right >= 0.5

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("units", ["dimensionless", "hz"])
    def test_every_beam_meets_the_threshold_exactly(self, n, units):
        # Each edge and focus is the solver's end of its root at which the
        # capacity meets c_t, so no slack is needed in either unit system.
        arr = ArrayConfig(n)
        band = (band_for(2.5 / 73) if units == "dimensionless"
                else BandConfig.from_hz(2.5e9, 73e9, n_f=2048, snr=1.0))
        cb = design_codebook(1.0, threshold(band, arr), band, arr)
        for beam in cb.beams:
            assert capacity_bs(beam.focus, beam.left, band, arr) >= cb.c_t, beam
            assert capacity_bs(beam.focus, beam.right, band, arr) >= cb.c_t, beam


def designed(n, band):
    arr = ArrayConfig(n)
    return design_codebook(1.0, threshold(band, arr), band, arr), arr


def squint_ignoring(n, band):
    """Uniform tiling by the carrier-only 3 dB gain region."""
    arr = ArrayConfig(n)
    w = ref_halfwidth(SQRT2_OVER_2, n)
    pairs = math.ceil((1.0 - w) / (2 * w))
    beams = tuple(Beam(focus=2 * w * k, left=2 * w * k - w, right=2 * w * k + w)
                  for k in range(-pairs, pairs + 1))
    return Codebook(beams=beams, psi_m=1.0, c_t=capacity_threshold_3db(band, arr))


class TestCoverageCheck:
    def test_designed_codebook_covers(self):
        arr = ArrayConfig(32)
        band = band_for(0.0342)
        cb = design_codebook(1.0, threshold(band, arr), band, arr)
        assert coverage_check(cb, band, arr, grid_step=1e-3)

    def test_every_beam_is_necessary(self):
        # Removing any single beam must open a coverage hole.
        arr = ArrayConfig(16)
        band = band_for(0.0179)
        cb = design_codebook(1.0, threshold(band, arr), band, arr)
        for i in range(cb.size):
            pruned = Codebook(beams=cb.beams[:i] + cb.beams[i + 1:],
                              psi_m=cb.psi_m, c_t=cb.c_t)
            assert not coverage_check(pruned, band, arr, grid_step=1e-3), i

    def test_squint_ignoring_codebook_fails(self):
        # Uniformly tiling by the carrier-only gain region leaves holes
        # once squint is accounted for.
        band = band_for(0.0342)
        assert not coverage_check(squint_ignoring(64, band), band, ArrayConfig(64),
                                  grid_step=1e-3)

    def test_grid_step_must_be_positive(self):
        arr = ArrayConfig(16)
        band = band_for(0.01)
        cb = design_codebook(1.0, threshold(band, arr), band, arr)
        for step in (0.0, -1e-3, math.nan, math.inf):
            with pytest.raises(ConfigError):
                coverage_check(cb, band, arr, grid_step=step)

    def test_verdict_does_not_depend_on_beam_order(self):
        # With the beams reversed the nearest-focus guess is wrong for most
        # points; the all-beam fallback must still find each point's beam.
        arr = ArrayConfig(16)
        band = band_for(0.0179, n_f=256)
        cb = design_codebook(1.0, threshold(band, arr), band, arr)
        shuffled = Codebook(beams=cb.beams[::-1], psi_m=cb.psi_m, c_t=cb.c_t)
        assert coverage_check(shuffled, band, arr, grid_step=1e-2)

    @pytest.mark.parametrize("psi_m, step, count", [
        (1.0, 1e-4, 20001), (1.0, 1e-3, 2001), (1.0, 0.3, 9), (0.5, 0.3, 5),
        (0.7, 0.07, 21), (0.25, 1.0, 3)])
    def test_grid_is_symmetric_and_holds_zero(self, psi_m, step, count):
        grid = _coverage_grid(psi_m, step)
        assert len(grid) == count
        assert grid[0] == -psi_m and grid[-1] == psi_m
        assert 0.0 in grid
        assert np.array_equal(grid, -grid[::-1])
        assert np.all(np.diff(grid) > 0)
        inner = grid[np.abs(grid) < psi_m]
        assert np.array_equal(inner, np.rint(inner / step) * step)


class TestCoverageScreen:
    """coverage_check proves most grid points with the capacity slope bound;
    its verdict must equal the point-by-point reference in every case."""

    def same_verdict(self, cb, band, arr, step, expected):
        assert coverage_check(cb, band, arr, grid_step=step) is expected
        assert exhaustive_coverage_check(cb, band, arr, step) is expected

    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("b", [0.0179, 0.0342, 0.0417])
    def test_structural_books(self, n, b):
        band = band_for(b)
        cb, arr = designed(n, band)
        self.same_verdict(cb, band, arr, 1e-3, True)

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("hz", [False, True], ids=["dimensionless", "hz"])
    def test_scan_books(self, n, hz):
        band = (BandConfig.from_hz(2.5e9, 73e9, n_f=2048, snr=1.0) if hz
                else band_for(2.5 / 73))
        cb, arr = designed(n, band)
        self.same_verdict(cb, band, arr, 1e-3, True)

    def test_zero_bandwidth_book(self):
        band = band_for(0.0)
        cb, arr = designed(32, band)
        self.same_verdict(cb, band, arr, 1e-4, True)

    @pytest.mark.parametrize("step", [1e-3, 1e-4])
    def test_pruned_books(self, step):
        band = band_for(0.0179, n_f=256)
        cb, arr = designed(16, band)
        for i in range(cb.size):
            pruned = Codebook(beams=cb.beams[:i] + cb.beams[i + 1:],
                              psi_m=cb.psi_m, c_t=cb.c_t)
            self.same_verdict(pruned, band, arr, step, False)

    @pytest.mark.parametrize("step", [1e-3, 1e-4])
    def test_squint_ignoring_book(self, step):
        band = band_for(0.0342, n_f=256)
        self.same_verdict(squint_ignoring(64, band), band, ArrayConfig(64), step, False)

    def test_reversed_book(self):
        band = band_for(0.0179, n_f=256)
        cb, arr = designed(16, band)
        reversed_ = Codebook(beams=cb.beams[::-1], psi_m=cb.psi_m, c_t=cb.c_t)
        self.same_verdict(reversed_, band, arr, 1e-3, True)

    def test_nudged_focus_opens_a_small_hole(self):
        # Moving one focus right by 3.5 grid steps uncovers the few grid
        # points between its left neighbour's right edge and its new left
        # edge; nothing else changes.
        step = 1e-4
        band = band_for(0.0179, n_f=256)
        cb, arr = designed(16, band)
        k = cb.size // 2 + 2
        beams = list(cb.beams)
        beams[k] = Beam(beams[k].focus + 3.5 * step, beams[k].left, beams[k].right)
        nudged = Codebook(beams=tuple(beams), psi_m=cb.psi_m, c_t=cb.c_t)
        grid = _coverage_grid(1.0, step)
        near = grid[np.abs(grid - cb.beams[k].left) < 20 * step]
        foci = np.array([beam.focus for beam in beams])[:, np.newaxis]
        covered = np.any(capacity_bs(foci, near, band, arr) >= cb.c_t * (1 - 1e-6), axis=0)
        assert 1 <= np.sum(~covered) <= 5
        self.same_verdict(nudged, band, arr, step, False)


class TestImprovement:
    def test_no_squint_no_improvement(self):
        arr = ArrayConfig(64)
        band = band_for(0.0)
        assert abs(improvement_ratio(0.7, SQRT2_OVER_2, band, arr)) < 1e-6
        assert abs(improvement_max(SQRT2_OVER_2, band, arr, grid_step=0.1)) < 1e-6

    def test_vanishes_at_broadside(self):
        arr = ArrayConfig(64)
        band = band_for(0.0342)
        assert improvement_ratio(0.0, SQRT2_OVER_2, band, arr) < 1e-3

    def test_traditional_min_capacity_no_squint(self):
        arr = ArrayConfig(64)
        band = band_for(0.0)
        assert traditional_min_capacity(0.5, 0.6, band, arr) == pytest.approx(
            capacity_threshold(0.6, band, arr), rel=1e-9)

    def test_traditional_min_capacity_broadside_edges_tie(self):
        arr = ArrayConfig(64)
        band = band_for(0.0342)
        from beamsquint import gain_region
        region = gain_region(0.0, SQRT2_OVER_2, arr)
        lo_cap = capacity_bs(0.0, region.lo, band, arr)
        hi_cap = capacity_bs(0.0, region.hi, band, arr)
        assert lo_cap == pytest.approx(hi_cap, rel=1e-12)
        assert traditional_min_capacity(0.0, SQRT2_OVER_2, band, arr) == \
            min(lo_cap, hi_cap)

    def test_endfire_min_is_worse_clipped_edge(self):
        arr = ArrayConfig(64)
        band = band_for(0.0342)
        from beamsquint import gain_region
        region = gain_region(1.0, SQRT2_OVER_2, arr)
        expected = min(capacity_bs(1.0, region.lo, band, arr),
                       capacity_bs(1.0, region.hi, band, arr))
        assert traditional_min_capacity(1.0, SQRT2_OVER_2, band, arr) == expected

    def test_headline_improvement_at_endfire(self):
        # 64 antennas, 2.5 GHz at 73 GHz carrier, 0 dB: about 17.8%.
        arr = ArrayConfig(64)
        band = band_for(2.5 / 73)
        value = improvement_ratio(1.0, SQRT2_OVER_2, band, arr)
        assert value == pytest.approx(0.178, abs=0.01)
        assert value == pytest.approx(0.169405, abs=1e-4)  # regression pin

    def test_max_close_to_endfire_value(self):
        arr = ArrayConfig(64)
        band = band_for(2.5 / 73)
        peak = improvement_max(SQRT2_OVER_2, band, arr)
        endfire = improvement_ratio(1.0, SQRT2_OVER_2, band, arr)
        assert peak >= endfire
        assert peak == pytest.approx(endfire, abs=0.01)
        assert peak == pytest.approx(0.172170, abs=1e-3)  # regression pin


class TestBandwidthLimit:
    def test_estimate_and_monotone_feasibility(self):
        arr = ArrayConfig(16)
        bsup = estimate_bsup(arr, SQRT2_OVER_2, snr=1.0, tol_b=1e-3, n_f=512)
        assert bsup == pytest.approx(0.1891, abs=5e-3)
        for frac in (0.25, 0.5, 0.9):
            band = band_for(frac * bsup, n_f=512)
            report = assess_feasibility(1.0, threshold(band, arr), band, arr)
            assert report.feasible and report.size_if_feasible is not None
        above = band_for(bsup * 1.05, n_f=512)
        report = assess_feasibility(1.0, threshold(above, arr), above, arr)
        assert not report.feasible
        assert report.failing_focus is not None
        assert report.size_if_feasible is None

    @pytest.mark.parametrize("n", range(8, 21))
    def test_first_feasible_parity_gives_the_two_parity_bsup(self, n):
        # Each probe stops at the first parity that succeeds; its verdict,
        # and so b_sup, must be that of a full two-parity design.
        arr = ArrayConfig(n)
        for snr in (1.0, 10 ** 0.3):
            assert estimate_bsup(arr, SQRT2_OVER_2, snr, tol_b=1e-6, n_f=16) == \
                both_parity_bsup(arr, SQRT2_OVER_2, snr, tol_b=1e-6, n_f=16)

    def test_probe_builds_the_even_chain_only_after_the_odd_one_fails(self, monkeypatch):
        calls = []

        def spy(name, build):
            def traced(*args):
                try:
                    book = build(*args)
                except InfeasibleError:
                    calls.append((name, False))
                    raise
                calls.append((name, True))
                return book
            return traced

        monkeypatch.setattr(codebook, "_odd_codebook", spy("odd", codebook._odd_codebook))
        monkeypatch.setattr(codebook, "_even_codebook", spy("even", codebook._even_codebook))
        estimate_bsup(ArrayConfig(16), SQRT2_OVER_2, snr=1.0, tol_b=1e-3, n_f=64)
        assert calls[0][0] == "odd"
        assert ("odd", True) in calls
        for before, call in zip(calls, calls[1:]):
            if call[0] == "even":
                assert before == ("odd", False)

    def test_psi_m_domain(self):
        with pytest.raises(DomainError):
            estimate_bsup(ArrayConfig(8), SQRT2_OVER_2, snr=1.0, psi_m=1.5, n_f=64)

    @pytest.mark.parametrize("tol_b", [0.0, -1.0, 2.0, math.inf, math.nan])
    def test_tol_b_must_lie_inside_the_bracket(self, tol_b):
        # The b bracket is [0, 2); a wider tolerance would make no probe.
        with pytest.raises(ConfigError):
            estimate_bsup(ArrayConfig(8), SQRT2_OVER_2, snr=1.0, tol_b=tol_b, n_f=64)

    def test_fit_recovers_exact_inverse_law(self):
        fit = fit_bsup_constant([16, 32, 64], SQRT2_OVER_2, snr=1.0,
                                bsup_values=[3.04 / 16, 3.04 / 32, 3.04 / 64])
        assert fit.a == pytest.approx(3.04, abs=1e-12)
        assert fit.max_deviation < 1e-12
        assert fit.bsup_by_n[32] == 3.04 / 32

    def test_fit_needs_three_sizes(self):
        with pytest.raises(ConfigError):
            fit_bsup_constant([16, 32], SQRT2_OVER_2, snr=1.0,
                              bsup_values=[0.1, 0.05])
