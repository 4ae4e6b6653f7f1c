import math

import pytest

from beamsquint import (ArrayConfig, BandConfig, Beam, Codebook, ConfigError,
                        InfeasibleError, assess_feasibility,
                        beamwidth_nbs, capacity_bs, capacity_threshold,
                        capacity_threshold_3db, coverage_check, design_codebook,
                        estimate_bsup, fit_bsup_constant, improvement_max,
                        improvement_ratio, solve_focus_from_left, solve_left_edge,
                        solve_right_edge, traditional_min_capacity)

from oracles import ref_halfwidth, scan_first_at_or_above, scan_last_at_or_above

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
                              psi_m=cb.psi_m, c_t=cb.c_t, parity=cb.parity)
            assert not coverage_check(pruned, band, arr, grid_step=1e-3), i

    def test_squint_ignoring_codebook_fails(self):
        # Uniformly tiling by the carrier-only gain region leaves holes
        # once squint is accounted for.
        n = 64
        arr = ArrayConfig(n)
        band = band_for(0.0342)
        c_t = capacity_threshold_3db(band, arr)
        w = ref_halfwidth(SQRT2_OVER_2, n)
        pairs = math.ceil((1.0 - w) / (2 * w))
        foci = [2 * w * k for k in range(-pairs, pairs + 1)]
        beams = tuple(Beam(focus=f, left=f - w, right=f + w) for f in foci)
        traditional = Codebook(beams=beams, psi_m=1.0, c_t=c_t,
                               parity="odd" if len(beams) % 2 else "even")
        assert not coverage_check(traditional, band, arr, grid_step=1e-3)

    def test_grid_step_must_be_positive(self):
        arr = ArrayConfig(16)
        band = band_for(0.01)
        cb = design_codebook(1.0, threshold(band, arr), band, arr)
        with pytest.raises(ConfigError):
            coverage_check(cb, band, arr, grid_step=0.0)


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
