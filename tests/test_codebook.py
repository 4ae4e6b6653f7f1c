import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamsquint import (ArrayConfig, BandConfig, Beam, Codebook, ConfigError, DomainError,
                        InfeasibleError, assess_feasibility,
                        beamwidth_nbs, capacity_bs, capacity_threshold,
                        capacity_threshold_3db, coverage_check, design_codebook,
                        estimate_bsup, fit_bsup_constant, improvement_max,
                        improvement_ratio, solve_focus_from_left, solve_right_edge,
                        traditional_min_capacity)
from beamsquint import capacity, codebook
from beamsquint.codebook import _coverage_grid
from beamsquint.experiments import sweep_codebook_size_vs_n
from beamsquint.roots import TOL

from oracles import (both_parity_bsup, exhaustive_coverage_check,
                     long_double_capacity, ref_halfwidth, ref_improvement_max,
                     scan_first_at_or_above, scan_last_at_or_above)

SQRT2_OVER_2 = math.sqrt(2.0) / 2.0


def band_for(b, n_f=2048, snr=1.0):
    return BandConfig(b=b, n_f=n_f, snr=snr)


def design_counts(arr, band, monkeypatch):
    """Size of the 3 dB design over [-1, 1] (None when it is infeasible),
    its root solves and its capacity evaluations."""
    counts = {"capacity": 0, "solves": 0}

    def counting(key, fn):
        def traced(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return traced

    with monkeypatch.context() as m:
        m.setattr(codebook, "capacity_bs", counting("capacity", capacity_bs))
        m.setattr(codebook, "bisect", counting("solves", codebook.bisect))
        try:
            size = design_codebook(1.0, capacity_threshold_3db(band, arr), band, arr).size
        except InfeasibleError:
            size = None
    return size, counts["solves"], counts["capacity"]


def outcome(fn, *args):
    """The bits of ``fn(*args)``, or the type and message of its error."""
    try:
        return fn(*args).hex()
    except (ConfigError, DomainError) as exc:
        return type(exc).__name__, str(exc)


def recording_focus_solves(monkeypatch):
    """The left edges, in order, from which the chains go on to solve a
    focus."""
    solved = []

    def solve(psi_l, *args, **kwargs):
        solved.append(psi_l)
        return solve_focus_from_left(psi_l, *args, **kwargs)

    monkeypatch.setattr(codebook, "solve_focus_from_left", solve)
    return solved


def threshold(band, arr, r=SQRT2_OVER_2):
    return capacity_threshold(r, band, arr)


# Designs whose chains, with no mirror proved, solve every focus.
UNPROVED_MIRROR_CASES = [
    (16, band_for(1.5 / 16, n_f=256)),
    (64, BandConfig.from_hz(2.5e9, 73e9, n_f=2048, snr=1.0)),
]


class TestEdgeSolvers:
    def test_right_edge_zero_bandwidth_hits_bracket_end(self):
        arr = ArrayConfig(32)
        band = band_for(0.0)
        c_t = threshold(band, arr)
        half = beamwidth_nbs(c_t, band, arr) / 2
        assert solve_right_edge(0.3, c_t, band, arr) == pytest.approx(
            0.3 + half, abs=1e-9)
        # The left edge is the right edge of the mirrored beam, reflected.
        assert -solve_right_edge(-0.3, c_t, band, arr) == pytest.approx(
            0.3 - half, abs=1e-9)

    def test_broadside_edges_mirror(self):
        # The broadside beam's left edge, found by a scan of a window that
        # holds it, is its reflected right edge.
        arr = ArrayConfig(32)
        band = band_for(0.0342)
        c_t = threshold(band, arr)
        right = solve_right_edge(0.0, c_t, band, arr)
        lo = -right - 1e-3
        left = scan_first_at_or_above(
            lambda p: capacity_bs(0.0, p, band, arr), lo, -right + 1e-3, c_t)
        assert lo < left and abs(left + right) < 2e-6

    def test_edges_reflect_between_foci(self):
        arr = ArrayConfig(64)
        band = band_for(0.0342)
        c_t = threshold(band, arr)
        for psi_f in (0.5, 0.9):
            # Capacity is symmetric under (psi_f, psi) -> (-psi_f, -psi), so
            # the beam at -psi_f crosses c_t at the reflected right edge.
            right = solve_right_edge(psi_f, c_t, band, arr)
            ps = right + np.array([-1e-3, -1e-6, 0.0, 1e-9, 1e-6])
            assert capacity_bs(-psi_f, -ps, band, arr) == pytest.approx(
                capacity_bs(psi_f, ps, band, arr), rel=1e-12)
            assert (capacity_bs(-psi_f, -right, band, arr) >= c_t
                    > capacity_bs(-psi_f, -right - 1e-9, band, arr))

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
        root = -solve_right_edge(-0.5, c_t, band, arr)  # the mirrored beam
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
            assert -solve_right_edge(-focus, c_t, band, arr) == pytest.approx(
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
            solve_right_edge(-0.9, c_t, band, arr)  # the mirrored beam
        assert err.value.failing_focus == -0.9


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

    def test_paper_design_solves_on_predicted_brackets(self, monkeypatch):
        # The paper's N=64 design, 2.5 GHz at 73 GHz and 0 dB: 86 solves
        # over both chains.  Taking each focus as the previous focus
        # mirrored about their shared edge where the rounding margin proves
        # it, each edge from the chain's extrapolation where its last two
        # missed by at most _TRUSTED and otherwise from Newton steps on the
        # capacity model, and proving the capacity at each bracket's start
        # once per design, takes 173 capacity evaluations; extrapolating
        # each edge's root and slope alone took 204 (87 solves), solving
        # each focus as well 368 (169 solves), and the full brackets 1,306.
        arr = ArrayConfig(64)
        band = BandConfig.from_hz(2.5e9, 73e9, n_f=2048, snr=1.0)
        size, solves, calls = design_counts(arr, band, monkeypatch)
        assert (size, solves) == (84, 86)
        assert calls <= 173

    @pytest.mark.parametrize("n, bn, size, solves, budget", [
        (128, 2.19, 167, 169, 339),  # 365 with extrapolated edges alone
        (16, 1.5, 19, 21, 43),       # 91
        (8, 3.0, 13, 15, 32),        # 88
        # Infeasible, both chains ending at foci past endfire: 83 with
        # extrapolated edges alone.
        (8, 3.0755, None, 16, 30),
    ])
    def test_chain_designs_keep_their_call_budgets(self, n, bn, size, solves, budget,
                                                   monkeypatch):
        found_size, found_solves, calls = design_counts(ArrayConfig(n), band_for(bn / n),
                                                        monkeypatch)
        assert (found_size, found_solves) == (size, solves)
        assert calls <= budget

    @pytest.mark.parametrize("n, band", [
        (64, BandConfig.from_hz(2.5e9, 73e9, n_f=2048, snr=1.0)),
        (8, band_for(3.0 / 8)),
        (8, band_for(3.0 / 8, snr=10 ** 0.3)),
        (128, band_for(2.19 / 128, n_f=256)),
    ])
    def test_each_focus_mirrors_the_previous_about_their_shared_edge(self, n, band,
                                                                     monkeypatch):
        # C(2*psi - f, psi) = C(f, psi), so the focus whose coverage starts
        # at the previous beam's right edge is the previous focus mirrored
        # about it.  Every focus but the even chain's first is that mirror,
        # bit for bit, except where the rounding margin does not prove it
        # and the focus is solved; the mirror meets c_t at the left edge
        # and lies within TOL of the focus solved there.
        arr = ArrayConfig(n)
        c_t = capacity_threshold_3db(band, arr)
        solved = recording_focus_solves(monkeypatch)
        books = [cb for cb in codebook._parities(1.0, c_t, band, arr)
                 if isinstance(cb, Codebook)]
        assert books
        for cb in books:
            mirrored = 0
            for prev, beam in zip(cb.beams, cb.beams[1:]):
                assert beam.left == prev.right
                if beam.left in solved or beam.focus <= 0.0:
                    continue
                mirrored += 1
                assert beam.focus == 2.0 * beam.left - prev.focus
                assert capacity_bs(beam.focus, beam.left, band, arr) >= c_t
                root = solve_focus_from_left(beam.left, c_t, band, arr)
                assert abs(beam.focus - root) <= TOL
            assert mirrored >= cb.size // 2 - 2

    @pytest.mark.parametrize("n, bn, snr, r", [
        (64, 2.5 * 64 / 73, 1.0, SQRT2_OVER_2), (16, 1.5, 1.0, SQRT2_OVER_2),
        (8, 3.0755, 1.0, SQRT2_OVER_2), (8, 3.0755, 10 ** 0.3, 0.5),
        (42, 3.0, 1.0, SQRT2_OVER_2), (8, 6.0, 1.0, 0.5), (32, 5.0, 1.0, 0.4),
    ])
    def test_solving_every_focus_gives_the_same_designs(self, n, bn, snr, r, monkeypatch):
        # With a margin no excess clears, every focus is solved from its
        # left edge, and the designs keep their sizes, verdicts and
        # failures, with beams and failing foci within N*TOL (each mirrored
        # focus lies within TOL of the solved one, a chain carries the
        # difference outward, and these chains hold fewer than N beams).
        arr, band = ArrayConfig(n), band_for(bn / n, snr=snr)
        c_t = threshold(band, arr, r)
        mirrored = list(codebook._parities(1.0, c_t, band, arr))
        monkeypatch.setattr(codebook, "_mirror_margin", lambda *args: lambda *a: math.inf)
        solved = list(codebook._parities(1.0, c_t, band, arr))
        for a, b in zip(mirrored, solved):
            assert type(a) is type(b)
            if isinstance(a, Codebook):
                assert a.size == b.size
                got = np.array([(x.focus, x.left, x.right) for x in a.beams])
                want = np.array([(x.focus, x.left, x.right) for x in b.beams])
                assert np.max(np.abs(got - want)) <= n * TOL
            else:
                assert str(a).replace(str(a.failing_focus), "") == \
                    str(b).replace(str(b.failing_focus), "")
                assert abs(a.failing_focus - b.failing_focus) <= n * TOL

    @pytest.mark.parametrize("n, band", UNPROVED_MIRROR_CASES)
    def test_an_unproved_mirror_costs_a_focus_solve_two_evaluations(self, n, band,
                                                                      monkeypatch):
        # With a margin no excess clears, every focus is solved from a probe
        # at its mirror, the prediction the margin would have proved; the
        # books keep their sizes and parities and cover their range, and a
        # focus solve takes at most 2 capacity evaluations on average.
        arr = ArrayConfig(n)
        c_t = capacity_threshold_3db(band, arr)
        want = [(cb.size, cb.parity) for cb in codebook._parities(1.0, c_t, band, arr)]
        counts, solves = {"capacity": 0}, []

        def evaluate(*args):
            counts["capacity"] += 1
            return capacity_bs(*args)

        def solve(*args, **kwargs):
            before = counts["capacity"]
            focus = solve_focus_from_left(*args, **kwargs)
            solves.append(counts["capacity"] - before)
            return focus

        monkeypatch.setattr(codebook, "capacity_bs", evaluate)
        monkeypatch.setattr(codebook, "solve_focus_from_left", solve)
        monkeypatch.setattr(codebook, "_mirror_margin", lambda *args: lambda *a: math.inf)
        books = list(codebook._parities(1.0, c_t, band, arr))
        assert [(cb.size, cb.parity) for cb in books] == want
        assert all(coverage_check(cb, band, arr, grid_step=1e-4) for cb in books)
        assert len(solves) == sum(cb.size // 2 for cb in books)
        assert sum(solves) <= 2 * len(solves)

    @pytest.mark.parametrize("n, band", UNPROVED_MIRROR_CASES)
    def test_an_unproved_focus_is_probed_at_the_mirror(self, n, band, monkeypatch):
        # Each focus solve's guess is the previous focus mirrored about the
        # shared edge, bit for bit; the even chain's first focus, with no
        # previous focus, gets none.
        arr = ArrayConfig(n)
        c_t = capacity_threshold_3db(band, arr)
        reach = codebook._certified_reach(1.0, c_t, band, arr)
        monkeypatch.setattr(codebook, "_mirror_margin", lambda *args: lambda *a: math.inf)
        for parity in ("odd", "even"):
            guesses = []

            def solve(*args, guess=None, **kwargs):
                guesses.append(guess)
                return solve_focus_from_left(*args, guess=guess, **kwargs)

            monkeypatch.setattr(codebook, "solve_focus_from_left", solve)
            cb = codebook._codebook(parity, 1.0, c_t, band, arr, reach)
            chain = [k for k, beam in enumerate(cb.beams) if beam.left >= 0.0]
            want = [None if cb.beams[k].left == 0.0
                    else (2.0 * cb.beams[k].left - cb.beams[k - 1].focus).hex()
                    for k in chain]
            assert [None if g is None else g.hex() for g in guesses] == want
            assert (want[0] is None) == (parity == "even")

    @pytest.mark.parametrize("wrong", ["off", "nan"])
    @pytest.mark.parametrize("n, bn, snr, r", [
        (64, 2.5 * 64 / 73, 1.0, SQRT2_OVER_2), (16, 1.5, 1.0, SQRT2_OVER_2),
        (8, 3.0755, 1.0, SQRT2_OVER_2), (8, 3.0755, 10 ** 0.3, 0.5),
        (42, 3.0, 1.0, SQRT2_OVER_2), (8, 6.0, 1.0, 0.5), (32, 5.0, 1.0, 0.4),
    ])
    def test_a_wrong_capacity_model_moves_only_probes(self, n, bn, snr, r, wrong,
                                                      monkeypatch):
        # The capacity model only aims the edge solves' probes.  With every
        # model root 1e-3 off, or every value NaN, the designs keep their
        # sizes, verdicts and failures, with beams and failing foci within
        # N*TOL (each edge within TOL of the crossing, a chain carrying the
        # differences outward); only the capacity calls may rise.
        arr, band = ArrayConfig(n), band_for(bn / n, snr=snr)
        c_t = threshold(band, arr, r)
        aimed = list(codebook._parities(1.0, c_t, band, arr))
        model = codebook._capacity_model
        monkeypatch.setattr(codebook, "_capacity_model", {
            "off": lambda f, psi, *args: model(f, psi - 1e-3, *args),
            "nan": lambda *args: (math.nan, math.nan)}[wrong])
        misaimed = list(codebook._parities(1.0, c_t, band, arr))
        for a, b in zip(aimed, misaimed):
            assert type(a) is type(b)
            if isinstance(a, Codebook):
                assert a.size == b.size
                got = np.array([(x.focus, x.left, x.right) for x in a.beams])
                want = np.array([(x.focus, x.left, x.right) for x in b.beams])
                assert np.max(np.abs(got - want)) <= n * TOL
            else:
                assert str(a).replace(str(a.failing_focus), "") == \
                    str(b).replace(str(b.failing_focus), "")
                assert abs(a.failing_focus - b.failing_focus) <= n * TOL

    @pytest.mark.parametrize("n, snr", [(8, 1.0), (10, 10 ** 0.3), (16, 1.0)])
    def test_a_wrong_capacity_model_keeps_every_bsup_bit(self, n, snr, monkeypatch):
        arr = ArrayConfig(n)
        bsup = estimate_bsup(arr, SQRT2_OVER_2, snr, tol_b=1e-6, n_f=256)
        monkeypatch.setattr(codebook, "_capacity_model", lambda *args: (math.nan, math.nan))
        assert estimate_bsup(arr, SQRT2_OVER_2, snr, tol_b=1e-6, n_f=256) == bsup

    def test_left_edge_past_reach_below_threshold_raises_there(self, monkeypatch):
        # N=8 at b*N 6, r 0.5 and 0 dB: the mirror at the even chain's last
        # left edge is proved, but that edge lies past the reach and C(l, l)
        # < c_t there, so the chain fails at it, as a focus solve from it
        # would, without solving a focus there.
        arr, band = ArrayConfig(8), band_for(6.0 / 8)
        c_t = threshold(band, arr, 0.5)
        reach = codebook._certified_reach(1.0, c_t, band, arr)
        solved = recording_focus_solves(monkeypatch)
        with pytest.raises(InfeasibleError) as err:
            codebook._codebook("even", 1.0, c_t, band, arr, reach)
        left = err.value.failing_focus
        assert str(err.value) == f"no focus can deliver the threshold at left edge {left}"
        assert left > reach and capacity_bs(left, left, band, arr) < c_t
        assert left not in solved
        with pytest.raises(InfeasibleError) as err:
            solve_focus_from_left(left, c_t, band, arr, reach=reach)
        assert err.value.failing_focus == left

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
        # The odd size's failure is failing_focus, the even size's even_focus,
        # and the message names both.
        for parity, focus in (("odd", err.value.failing_focus),
                              ("even", err.value.even_focus)):
            with pytest.raises(InfeasibleError) as chain:
                codebook._codebook(parity, 1.0, threshold(band, arr), band, arr, -1.0)
            assert chain.value.failing_focus == focus
            assert str(chain.value) in str(err.value)

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


def checked_points(cb, band, arr, step):
    """coverage_check's verdict on ``cb`` and the points it evaluates."""
    points = [0]

    def counting(psi_f, psi, *rest):
        points[0] += np.broadcast(np.asarray(psi_f), np.asarray(psi)).size
        return capacity_bs(psi_f, psi, *rest)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(codebook, "capacity_bs", counting)
        return coverage_check(cb, band, arr, grid_step=step), points[0]


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

    @pytest.mark.parametrize("n", [64, 32])
    def test_no_thread_is_started(self, monkeypatch, n):
        # Vector capacity calls run their blocks on the calling thread: 17
        # blocks of 32 angles, and every batched call of the check on the
        # paper's N = 64 book and on the N = 32 book of the same band.
        def refuse(self):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        arr = ArrayConfig(n)
        band = band_for(2.5 / 73)
        psis = np.linspace(-1.0, 1.0, 16 * 32 + 5)
        assert capacity_bs(0.2, psis, band, arr).tolist() == [
            capacity_bs(0.2, float(p), band, arr) for p in psis]
        cb = design_codebook(1.0, capacity_threshold_3db(band, arr), band, arr)
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

    @pytest.mark.parametrize("psi_m", [math.inf, math.nan, 0.0, -0.5, 1.5])
    def test_psi_m_must_be_in_domain(self, psi_m):
        # As design_codebook rejects it, and before a grid is built.
        cb = Codebook(beams=(Beam(0.0, -1.0, 1.0),), psi_m=psi_m, c_t=1.0)
        with pytest.raises(DomainError, match="psi_m"):
            coverage_check(cb, band_for(0.01, n_f=64), ArrayConfig(16), grid_step=1e-3)

    @pytest.mark.parametrize("c_t", [math.nan, math.inf, 0.0, -1.0])
    def test_c_t_must_be_finite_and_positive(self, c_t):
        # No capacity falls below a NaN floor, so such a book would pass.
        cb = Codebook(beams=(Beam(0.0, -1.0, 1.0),), psi_m=1.0, c_t=c_t)
        with pytest.raises(DomainError, match="c_t"):
            coverage_check(cb, band_for(0.01, n_f=64), ArrayConfig(16), grid_step=1e-3)

    @pytest.mark.parametrize("focus", [math.nan, math.inf, -math.inf])
    def test_foci_must_be_finite(self, focus):
        # Its capacity is NaN, which the screen would take as proved.
        band = band_for(0.01, n_f=64)
        cb, arr = designed(16, band)
        bad = Codebook(beams=cb.beams + (Beam(focus, -1.0, 1.0),), psi_m=1.0, c_t=cb.c_t)
        with pytest.raises(DomainError, match="foci"):
            coverage_check(bad, band, arr, grid_step=1e-3)

    def test_grid_is_refused_before_numpy_allocates_it(self):
        # 2e12 points would take 14.6 TiB.
        cb = Codebook(beams=(Beam(0.0, -1.0, 1.0),), psi_m=1.0, c_t=1.0)
        with pytest.raises(ConfigError, match="coverage grid step"):
            coverage_check(cb, band_for(0.01, n_f=64), ArrayConfig(16), grid_step=1e-12)

    def test_verdict_does_not_depend_on_beam_order(self):
        # The beams are taken in focus order, so the reversed book is
        # checked exactly as the designed one is.
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

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: the chain solvers check a beam's capacity only at its "
        "two solved edges, and at low gain ratios it dips below c_t between them"))
    def test_low_gain_ratio_design_covers_its_range_or_is_infeasible(self):
        # design --antennas 32 --frac-bandwidth 0.166221 --r 0.4 --snr-db 0
        arr, band = ArrayConfig(32), band_for(0.166221)
        c_t = threshold(band, arr, 0.4)
        try:
            cb = design_codebook(1.0, c_t, band, arr)
        except InfeasibleError:
            return
        assert coverage_check(cb, band, arr, 1e-4)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 1: the chain solvers check a beam's capacity only at its "
        "two solved edges, and at low gain ratios it dips below c_t between them"))
    @pytest.mark.parametrize("n, b, r, snr_db", [
        # design --antennas N --frac-bandwidth b --r r --snr-db S, at 0.99 or
        # 0.999 times b_sup (tol 1e-6), rounded to 6 decimals: the other
        # non-covering cells of N 16/32/64 x r 0.25-0.707 x 0/10 dB.
        (16, 0.351419, 0.35, 10.0),
        (32, 0.210116, 0.35, 0.0),
        (32, 0.212026, 0.35, 0.0),
        (64, 0.121237, 0.25, 10.0),
        (64, 0.122339, 0.25, 10.0),
        (64, 0.118752, 0.3, 0.0),
        (64, 0.101903, 0.3, 10.0),
    ])
    def test_other_low_gain_ratio_designs_cover_their_range_or_are_infeasible(
            self, n, b, r, snr_db):
        arr, band = ArrayConfig(n), band_for(b, snr=10 ** (snr_db / 10))
        c_t = threshold(band, arr, r)
        try:
            cb = design_codebook(1.0, c_t, band, arr)
        except InfeasibleError:
            return
        assert coverage_check(cb, band, arr, 1e-4)


class TestCoverageScreen:
    """coverage_check proves most grid points with the capacity slope bound;
    its verdict must equal the point-by-point reference in every case."""

    def same_verdict(self, cb, band, arr, step, expected):
        # The screen also evaluates no grid point twice, so at most the grid.
        screened = [0]
        runs = codebook._screen_runs

        def counting(psi_f, psi, *rest):
            screened[0] += np.broadcast(np.asarray(psi_f), np.asarray(psi)).size
            return capacity_bs(psi_f, psi, *rest)

        def screen(*args):
            with pytest.MonkeyPatch.context() as m:
                m.setattr(codebook, "capacity_bs", counting)
                return runs(*args)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(codebook, "_screen_runs", screen)
            assert coverage_check(cb, band, arr, grid_step=step) is expected
        assert 0 < screened[0] <= len(_coverage_grid(cb.psi_m, step))
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

    @pytest.mark.parametrize("n, snr_db", [(128, -80.0), (1024, -60.0)])
    def test_low_snr_books(self, n, snr_db):
        # Twice the rounding bound exceeds 1e-9 of c_t here, so the margin
        # of the screen's proofs is mostly rounding.
        band = band_for(2.0 / n, n_f=256, snr=10 ** (snr_db / 10))
        cb, arr = designed(n, band)
        assert 2.0 * capacity._rounding_bound(band, arr) > 1e-9 * cb.c_t
        self.same_verdict(cb, band, arr, 1e-4, True)
        for i in (0, cb.size // 4, cb.size // 2, cb.size - 1):
            pruned = Codebook(beams=cb.beams[:i] + cb.beams[i + 1:],
                              psi_m=cb.psi_m, c_t=cb.c_t)
            self.same_verdict(pruned, band, arr, 1e-4, False)

    def screened_points(self, n, band):
        """Points coverage_check evaluates on the N-antenna 3 dB design for
        ``band``, at step 1e-4; the design passes."""
        cb, arr = designed(n, band)
        verdict, points = checked_points(cb, band, arr, 1e-4)
        assert verdict
        assert len(_coverage_grid(1.0, 1e-4)) == 20_001
        return points

    def test_low_snr_screen_evaluates_fewer_points_than_the_grid(self):
        # At N*snr << 1 the slope bound's factor 2*snr*sqrt(N) is far below
        # sqrt(snr), so the screen proves most runs: 3,501 evaluated points
        # for the 20,001-point grid (4,234 when runs of up to 4 points were
        # evaluated point by point, 4,920 when each run's probe was an extra
        # point, 25,987 with sqrt(snr) alone).
        n = 128
        assert self.screened_points(n, band_for(2.0 / n, n_f=256, snr=1e-8)) <= 3_501

    @pytest.mark.parametrize("n, band, most", [
        # About 17 grid points a beam, and short runs halved like long ones
        # still prove some (every point, 20,001, when runs of up to 4 points
        # were evaluated point by point; 23,639 when each run's probe was an
        # extra point).
        (1024, band_for(2.0 / 1024, n_f=256, snr=1e-6), 14_617),
        # The scan workload's books, 2.5 GHz at 73 GHz and 0 dB (5,136 and
        # 1,904 when runs of up to 4 points were evaluated point by point,
        # 5,747 and 1,973 when each run's probe was an extra point).
        (64, band_for(2.5 / 73), 4_286),
        (32, band_for(2.5 / 73), 1_681),
    ], ids=["n1024-low-snr", "n64-scan", "n32-scan"])
    def test_screen_evaluates_each_point_at_most_once(self, n, band, most):
        assert self.screened_points(n, band) <= most

    @pytest.mark.parametrize("expected", [True, False])
    def test_offsets_past_one(self, expected):
        # One beam at focus 0 over [-1, 1] at b = 0.5: near endfire the
        # outer subcarriers see offsets up to 1.25, where no run is proved.
        arr, band = ArrayConfig(2), band_for(0.5, n_f=256)
        low = np.min(capacity_bs(0.0, _coverage_grid(1.0, 1e-3), band, arr))
        c_t = 0.5 * low if expected else threshold(band, arr)
        cb = Codebook(beams=(Beam(0.0, -1.0, 1.0),), psi_m=1.0, c_t=c_t)
        self.same_verdict(cb, band, arr, 1e-3, expected)

    def test_empty_book_covers_nothing(self):
        # The grid holds 0, which no beam covers, and there is no nearest one.
        band = band_for(0.0179, n_f=256)
        empty = Codebook(beams=(), psi_m=1.0, c_t=1.0)
        assert coverage_check(empty, band, ArrayConfig(16), grid_step=1e-3) is False

    def test_reversed_book(self):
        band = band_for(0.0179, n_f=256)
        cb, arr = designed(16, band)
        reversed_ = Codebook(beams=cb.beams[::-1], psi_m=cb.psi_m, c_t=cb.c_t)
        self.same_verdict(reversed_, band, arr, 1e-3, True)

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(data=st.data())
    def test_any_beam_order_gets_the_ordered_verdict_and_points(self, data):
        band = band_for(0.0179, n_f=256)
        cb, arr = designed(16, band)
        drop = data.draw(st.one_of(st.none(), st.integers(0, cb.size - 1)))
        beams = cb.beams if drop is None else cb.beams[:drop] + cb.beams[drop + 1:]
        ordered = Codebook(beams=beams, psi_m=cb.psi_m, c_t=cb.c_t)
        shuffled = Codebook(beams=tuple(data.draw(st.permutations(beams))),
                            psi_m=cb.psi_m, c_t=cb.c_t)
        verdict, points = checked_points(ordered, band, arr, 1e-3)
        assert verdict is (drop is None)
        assert checked_points(shuffled, band, arr, 1e-3) == (verdict, points)

    @pytest.mark.parametrize("pruned", [False, True])
    def test_each_missed_point_is_checked_against_every_beam(self, pruned, monkeypatch):
        # With every point left by the screen, each grid point takes one
        # all-beam call, up to the first point that no beam covers.
        step = 1e-3
        band = band_for(0.0179, n_f=256)
        cb, arr = designed(16, band)
        if pruned:
            k = cb.size // 2
            cb = Codebook(beams=cb.beams[:k] + cb.beams[k + 1:], psi_m=cb.psi_m, c_t=cb.c_t)
        grid = _coverage_grid(1.0, step)
        foci = np.array([beam.focus for beam in cb.beams])[:, np.newaxis]
        covered = np.any(capacity_bs(foci, grid, band, arr) >= cb.c_t * (1 - 1e-6), axis=0)
        assert covered.all() == (not pruned)
        calls = []

        def counting(psi_f, psi, *rest):
            calls.append(np.broadcast(np.asarray(psi_f), np.asarray(psi)).size)
            return capacity_bs(psi_f, psi, *rest)

        monkeypatch.setattr(codebook, "_screen_runs", lambda grid, *rest: np.ones(len(grid), bool))
        monkeypatch.setattr(codebook, "capacity_bs", counting)
        assert coverage_check(cb, band, arr, grid_step=step) is not pruned
        first = int(np.argmin(covered)) + 1 if pruned else len(grid)
        assert calls == [cb.size] * first

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

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(n=st.integers(2, 1024), b=st.one_of(st.just(0.0), st.floats(0.0, 1.9)),
           pairs=st.integers(1, 1024), snr_db=st.floats(-80.0, 30.0),
           r=st.floats(0.25, 1.0, exclude_max=True),
           step=st.sampled_from([0.01, 0.0073, 0.05, 0.3, 1.0]))
    def test_screened_maximum_is_the_full_scans_bit_for_bit(self, n, b, pairs, snr_db,
                                                             r, step):
        # Skipping the foci proved unable to hold the smallest C_min leaves
        # the largest ratio of every focus, to the bit, and the same errors.
        arr, band = ArrayConfig(n), BandConfig(b=b, n_f=2 * pairs, snr=10 ** (snr_db / 10))
        assert outcome(improvement_max, r, band, arr, step) == \
            outcome(ref_improvement_max, r, band, arr, step)

    @pytest.mark.parametrize("first", [0, 30, 50, 97, 100])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    def test_a_vanished_capacity_fails_at_the_first_focus_in_grid_order(
            self, first, value, monkeypatch):
        # From focus `first` on the capacity is patched to `value`.  The
        # screen meets it near endfire first, and still fails, or returns
        # the NaN-tainted maximum, as the full scan does in grid order.
        arr, band = ArrayConfig(16), band_for(0.02)
        grid = codebook._focus_grid(0.01).tolist()

        def patched(pf, psi, band, arr):
            return value if pf >= grid[first] else capacity_bs(pf, psi, band, arr)

        monkeypatch.setattr(codebook, "capacity_bs", patched)
        found = outcome(improvement_max, SQRT2_OVER_2, band, arr)
        assert found == outcome(ref_improvement_max, SQRT2_OVER_2, band, arr)
        if value <= 0.0:
            assert found == ("DomainError", "squinted capacity vanished at the region "
                             f"edge for psi_f={grid[first]}")

    @pytest.mark.parametrize("n, b, snr_db, calls", [
        (64, 2.5 / 73, 0.0, 66),  # the paper's headline cell
        (16, 0.02, 0.0, 164),
        (128, 0.05, 3.0, 108),
        # max|xi - 1| + w > 1: offsets may pass 1, so nothing is skipped.
        (2, 1.5, 0.0, 202),
    ])
    def test_screened_maximum_keeps_its_call_counts(self, n, b, snr_db, calls,
                                                    monkeypatch):
        # Evaluating every focus of the 0.01 grid takes 202 capacity calls.
        arr, band = ArrayConfig(n), band_for(b, snr=10 ** (snr_db / 10))
        counted = []

        def counting(*args):
            counted.append(args)
            return capacity_bs(*args)

        with monkeypatch.context() as m:
            m.setattr(codebook, "capacity_bs", counting)
            value = improvement_max(SQRT2_OVER_2, band, arr)
        assert len(counted) == calls
        assert value == ref_improvement_max(SQRT2_OVER_2, band, arr)

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
        assert report.failing_focus is not None and report.even_focus is not None
        assert report.size_if_feasible is None

    @pytest.mark.parametrize("n", range(8, 21))
    def test_first_feasible_parity_gives_the_two_parity_bsup(self, n):
        # Each probe stops at the first parity that succeeds; its verdict,
        # and so b_sup, must be that of a full two-parity design.
        arr = ArrayConfig(n)
        for snr in (1.0, 10 ** 0.3):
            assert estimate_bsup(arr, SQRT2_OVER_2, snr, tol_b=1e-6, n_f=16) == \
                both_parity_bsup(arr, SQRT2_OVER_2, snr, tol_b=1e-6, n_f=16)

    def test_probe_tries_the_last_feasible_parity_first(self, monkeypatch):
        # Each probe first builds the parity that succeeded on the last
        # feasible probe, odd before any has, and the other one only when
        # that fails.  At N=8 and 3 dB only the even chain survives on the
        # probes next to the limit, so both orders occur.
        calls = []

        build = codebook._codebook

        def traced(parity, *args):
            try:
                book = build(parity, *args)
            except InfeasibleError:
                calls.append((parity, False))
                raise
            calls.append((parity, True))
            return book

        parities = codebook._parities

        def probe(*args):
            calls.append(("probe", None))
            return parities(*args)

        monkeypatch.setattr(codebook, "_codebook", traced)
        monkeypatch.setattr(codebook, "_parities", probe)
        other = {"odd": "even", "even": "odd"}
        for n, snr in ((16, 1.0), (8, 10 ** 0.3)):
            calls.clear()
            estimate_bsup(ArrayConfig(n), SQRT2_OVER_2, snr=snr, tol_b=1e-3, n_f=64)
            assert calls[0] == ("probe", None)
            firsts, expected = [], "odd"
            builds = []
            for call in calls[1:] + [("probe", None)]:
                if call[0] != "probe":
                    builds.append(call)
                    continue
                # One probe: the expected parity, then the other only
                # after a failure.
                assert builds[0][0] == expected
                assert len(builds) == 1 if builds[0][1] else len(builds) == 2
                if len(builds) == 2:
                    assert builds[1][0] == other[expected]
                firsts.append(expected)
                expected = next((name for name, ok in builds if ok), expected)
                builds = []
            assert ("odd", True) in calls
            if n == 8:
                assert "even" in firsts

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("bn", [1.0, 2.6])
    def test_parities_do_not_depend_on_which_is_built_first(self, n, bn):
        # Each chain predicts its roots from its own beams only, so a
        # probe that builds the even parity first gets the same bits as a
        # full design, which builds the odd one first.
        arr, band = ArrayConfig(n), band_for(bn / n)
        c_t = threshold(band, arr)

        def bits(first):
            books = {cb.parity: cb for cb in codebook._parities(1.0, c_t, band, arr, first)}
            return {parity: [tuple(map(float.hex, (b.focus, b.left, b.right)))
                             for b in cb.beams] for parity, cb in books.items()}

        odd_first = bits("odd")
        assert sorted(odd_first) == ["even", "odd"]
        assert bits("even") == odd_first

    def test_paper_size_bsup_evaluations(self, monkeypatch):
        # N=64 at 0 dB to 1e-6: 14,950 capacity evaluations with predicted
        # brackets alone, at most 12,400 with the on-focus certificate, and
        # the same b_sup bits.
        calls = [0]

        def counting(*args):
            calls[0] += 1
            return capacity_bs(*args)

        monkeypatch.setattr(codebook, "capacity_bs", counting)
        assert estimate_bsup(ArrayConfig(64), SQRT2_OVER_2, 1.0, tol_b=1e-6) == \
            0.04660606384277344
        assert calls[0] <= 12_400

    def test_psi_m_domain(self):
        with pytest.raises(DomainError):
            estimate_bsup(ArrayConfig(8), SQRT2_OVER_2, snr=1.0, psi_m=1.5, n_f=64)

    @pytest.mark.parametrize("tol_b", [0.0, -1.0, 2.0, math.inf, math.nan])
    def test_tol_b_must_lie_inside_the_bracket(self, tol_b):
        # The b bracket is [0, 2); a wider tolerance would make no probe.
        with pytest.raises(ConfigError):
            estimate_bsup(ArrayConfig(8), SQRT2_OVER_2, snr=1.0, tol_b=tol_b, n_f=64)

    def test_fit_recovers_exact_inverse_law(self, monkeypatch):
        monkeypatch.setattr(codebook, "estimate_bsup",
                            lambda arr, *args: 3.04 / arr.n_antennas)
        fit = fit_bsup_constant([16, 32, 64], SQRT2_OVER_2, snr=1.0)
        assert fit.a == pytest.approx(3.04, abs=1e-12)
        assert fit.max_deviation < 1e-12
        assert fit.bsup_by_n[32] == 3.04 / 32

    def test_fit_needs_three_sizes(self):
        with pytest.raises(ConfigError):
            fit_bsup_constant([16, 32], SQRT2_OVER_2, snr=1.0)


def design_outcome(psi_m, c_t, band, arr):
    """The codebook, or the infeasibility error's message and both foci."""
    try:
        return design_codebook(psi_m, c_t, band, arr)
    except InfeasibleError as exc:
        return str(exc), exc.failing_focus, exc.even_focus


def without_certificate(monkeypatch):
    """Make every design prove nothing in advance, as before the certificate."""
    monkeypatch.setattr(codebook, "_certified_reach", lambda *args: -1.0)


class TestOnFocusCertificate:
    """``_certified_reach`` proves C(psi, psi) >= c_t up to an angle once per
    design, so the chain solves skip the capacity at their bracket's start."""

    @pytest.mark.parametrize("n", [8, 16, 64, 128])
    @pytest.mark.parametrize("snr_db", [0.0, 3.0, 20.0])
    def test_on_focus_capacity_does_not_rise_on_the_span(self, n, snr_db):
        # Sampled on [0, span] with span = 2/(N*max|xi - 1|): the computed
        # C(psi, psi) rises by no more than the rounding allowed at both
        # samples, and stays within it of a long-double evaluation.
        arr = ArrayConfig(n)
        for bn in (0.25, 1.0, 2.0, 3.0, 4.0):
            band = band_for(bn / n, snr=10 ** (snr_db / 10))
            span = 2.0 / (n * np.max(np.abs(band.ratios - 1.0)))
            psi = np.linspace(0.0, min(span, 1.0), 401)
            caps = capacity_bs(psi, psi, band, arr)
            error = capacity._rounding_bound(band, arr)
            assert np.all(np.diff(caps) <= 2.0 * error)
            if np.finfo(np.longdouble).eps < 1e-18:
                exact = long_double_capacity(psi[::20], psi[::20], band, n)
                assert np.all(np.abs(caps[::20] - exact) <= error)

    def test_reach_is_proved(self):
        # Up to the reach every on-focus capacity meets c_t; a wide band
        # certifies less than psi_m, and a narrow one all of it.
        for n, bn, snr in ((16, 1.0, 1.0), (42, 3.05, 1.0), (64, 3.3, 2.0), (8, 6.0, 100.0)):
            arr = ArrayConfig(n)
            band = band_for(bn / n, snr=snr)
            c_t = threshold(band, arr)
            reach = codebook._certified_reach(1.0, c_t, band, arr)
            assert (reach == 1.0) == (bn <= 3.0)
            psi = np.linspace(-reach, reach, 2001)
            assert np.all(capacity_bs(psi, psi, band, arr) >= c_t)

    @pytest.mark.parametrize("n", [8, 16, 33, 42, 64, 100, 128])
    def test_corpus_designs_do_not_depend_on_it(self, n, monkeypatch):
        # The r = sqrt(2)/2 corpus of b*N and 0/3 dB, at 256 subcarriers to
        # keep it quick: the same codebooks, or the same errors and foci.
        arr = ArrayConfig(n)
        cases = []
        for bn in (0.25, 1.0, 2.0, 2.9, 2.95, 3.0, 3.05, 3.2, 3.3):
            for snr in (1.0, 10 ** 0.3):
                band = band_for(bn / n, n_f=256, snr=snr)
                cases.append((1.0, threshold(band, arr), band, arr))
        with_it = [design_outcome(*case) for case in cases]
        without_certificate(monkeypatch)
        assert [design_outcome(*case) for case in cases] == with_it

    @pytest.mark.parametrize("n, band, r", [
        (42, band_for(0.0714), SQRT2_OVER_2),
        (128, BandConfig.from_hz(2.5e9, 73e9, n_f=2048, snr=1.0), SQRT2_OVER_2),
        (32, band_for(0.166221), 0.4),
    ], ids=["infeasible-n42", "infeasible-n128", "low-r-reproducer"])
    def test_named_designs_do_not_depend_on_it(self, n, band, r, monkeypatch):
        arr = ArrayConfig(n)
        c_t = threshold(band, arr, r)
        with_it = design_outcome(1.0, c_t, band, arr)
        without_certificate(monkeypatch)
        assert design_outcome(1.0, c_t, band, arr) == with_it

    @pytest.mark.parametrize("psi_m, c_t", [
        (1.0, math.log2(1.0 + 16)), (1.0, 100.0), (1.0, 0.0), (1.0, -1.0),
        (1.0, math.nan), (0.0, 3.0), (1.5, 3.0), (math.nan, 3.0),
    ], ids=["c_t-at-peak", "c_t-above-peak", "c_t-zero", "c_t-negative",
            "c_t-nan", "psi_m-zero", "psi_m-above-1", "psi_m-nan"])
    def test_bad_inputs_raise_as_without_it(self, psi_m, c_t, monkeypatch):
        arr, band = ArrayConfig(16), band_for(0.01, n_f=64)

        def raised():
            with pytest.raises((InfeasibleError, DomainError)) as err:
                design_codebook(psi_m, c_t, band, arr)
            exc = err.value
            return type(exc), str(exc), getattr(exc, "failing_focus", None)

        with_it = raised()
        without_certificate(monkeypatch)
        assert raised() == with_it


class TestInfeasibilityProof:
    """``_proved_infeasible`` proves from C(psi, psi) alone that both
    parities' chains fail, so the size sweep and the b_sup probes skip
    them."""

    def test_proved_cells_fail_both_parities(self):
        # A fast corpus across the infeasible side: wherever the proof
        # holds, both chains end in InfeasibleError.
        proved = 0
        for n in (8, 16, 32, 64):
            arr = ArrayConfig(n)
            for bn in (2.5, 3.0, 3.5, 4.0, 5.0, 6.0):
                for snr in (1.0, 10.0):
                    band = band_for(bn / n, n_f=256, snr=snr)
                    for r in (0.4, 0.5, SQRT2_OVER_2):
                        c_t = threshold(band, arr, r)
                        for psi_m in (0.5, 1.0):
                            if not codebook._proved_infeasible(psi_m, c_t, band, arr):
                                continue
                            proved += 1
                            outcomes = list(codebook._parities(psi_m, c_t, band, arr))
                            assert all(isinstance(o, InfeasibleError) for o in outcomes), \
                                (n, bn, snr, r, psi_m)
        assert proved >= 40

    @pytest.mark.parametrize("n", [2, 3, 16, 64, 128])
    @pytest.mark.parametrize("b", [0.03, 0.1, 0.5])
    @pytest.mark.parametrize("hz", [False, True], ids=["dimensionless", "hz"])
    def test_on_focus_slope_bound(self, n, b, hz):
        # Finite differences of C(psi, psi) on [-1, 1], b*N from 0.06 to 64.
        arr = ArrayConfig(n)
        psis = np.linspace(-1.0, 1.0, 40_001)
        for snr in (0.01, 1.0, 100.0):
            band = BandConfig(b=b, n_f=8, snr=snr, bandwidth_hz=2.5e9 if hz else None)
            caps = capacity_bs(psis, psis, band, arr)
            ratio = np.max(np.abs(np.diff(caps)) / np.diff(psis))
            bound = capacity._on_focus_slope_bound(band, arr)
            assert ratio <= bound * (1.0 + 1e-6), (snr, ratio / bound)

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("bn", [5.0, 6.0])
    def test_on_focus_rounding_holds_off_the_main_lobe(self, n, bn):
        # b*N > 4 puts the outer subcarriers' offsets past the main lobe
        # well before endfire.
        if np.finfo(np.longdouble).eps >= 1e-18:
            pytest.skip("long double is no wider than double here")
        arr = ArrayConfig(n)
        for snr in (1.0, 10.0):
            band = band_for(bn / n, snr=snr)
            psi = np.linspace(0.0, 1.0, 51)
            exact = long_double_capacity(psi, psi, band, n)
            error = capacity._rounding_bound(band, arr)
            assert np.all(np.abs(capacity_bs(psi, psi, band, arr) - exact) <= error)

    @pytest.mark.parametrize("n", [2, 3, 16, 128, 1024])
    def test_rounding_bound_holds_off_focus(self, n):
        # Random (f, psi) with |psi| <= 1 and every offset xi*psi - f within
        # [-1, 1], out to both ends, across b*N and from -80 to 30 dB.
        if np.finfo(np.longdouble).eps >= 1e-18:
            pytest.skip("long double is no wider than double here")
        arr, rng = ArrayConfig(n), np.random.default_rng(n)
        for snr_db in (-80.0, -60.0, 0.0, 30.0):
            for bn in (0.25, 2.0, 6.0):
                band = band_for(min(bn / n, 1.9), n_f=256, snr=10 ** (snr_db / 10))
                psi = rng.uniform(-1.0, 1.0, 30)
                lo = np.maximum(band.ratios[0] * psi, band.ratios[-1] * psi) - 1.0
                hi = np.minimum(band.ratios[0] * psi, band.ratios[-1] * psi) + 1.0
                f = rng.uniform(lo + 1e-12, hi - 1e-12)
                f[0], f[1] = lo[0] + 1e-12, hi[1] - 1e-12
                offsets = band.ratios * psi[:, np.newaxis] - f[:, np.newaxis]
                assert np.abs(offsets).max() <= 1.0
                exact = long_double_capacity(f, psi, band, n)
                error = capacity._rounding_bound(band, arr)
                assert np.all(np.abs(capacity_bs(f, psi, band, arr) - exact) <= error), \
                    (snr_db, bn)

    def test_sweep_cell_past_the_limit_builds_no_chain(self, monkeypatch):
        # N=64 at b*N = 3.65 and 0 dB, well past b_sup (about 2.98/64):
        # proved within the point cap, and the sweep marks it with no
        # chain solve.
        arr, band = ArrayConfig(64), band_for(3.65 / 64)
        points = []

        def counting(psi_f, psi, *args):
            points.append(np.size(psi))
            return capacity_bs(psi_f, psi, *args)

        def no_solve(*args, **kwargs):
            raise AssertionError("a chain was built")

        monkeypatch.setattr(codebook, "capacity_bs", counting)
        monkeypatch.setattr(codebook, "solve_focus_from_left", no_solve)
        monkeypatch.setattr(codebook, "solve_right_edge", no_solve)
        assert codebook._proved_infeasible(1.0, threshold(band, arr), band, arr)
        assert 0 < sum(points) <= codebook._PROOF_POINTS
        sweep = sweep_codebook_size_vs_n([3.65 / 64], [64], snr=1.0)
        assert sweep.rows == ((64.0, -1.0),)

    def test_feasible_design_is_not_proved(self):
        arr, band = ArrayConfig(64), band_for(2.5 / 73)
        assert not codebook._proved_infeasible(1.0, threshold(band, arr), band, arr)

    @pytest.mark.parametrize("psi_m, c_t", [
        (1.0, math.log2(1.0 + 16)), (1.0, 100.0), (1.0, 0.0), (1.0, -1.0),
        (1.0, math.nan), (0.0, 3.0), (1.5, 3.0), (math.nan, 3.0), (1.0, 0.1),
    ], ids=["c_t-at-peak", "c_t-above-peak", "c_t-zero", "c_t-negative",
            "c_t-nan", "psi_m-zero", "psi_m-above-1", "psi_m-nan", "c_t-below-main-lobe"])
    def test_bad_inputs_raise_as_the_chains_do(self, psi_m, c_t):
        # Checked in the chains' order with their errors; a threshold at
        # or above the peak, where the chains fail, is proved infeasible.
        arr, band = ArrayConfig(16), band_for(0.01, n_f=64)
        with pytest.raises((InfeasibleError, DomainError, ConfigError)) as err:
            design_codebook(psi_m, c_t, band, arr)
        if isinstance(err.value, InfeasibleError):
            assert codebook._proved_infeasible(psi_m, c_t, band, arr)
            return
        with pytest.raises(type(err.value)) as proof_err:
            codebook._proved_infeasible(psi_m, c_t, band, arr)
        assert str(proof_err.value) == str(err.value)

    def test_fit_estimates_each_size_once(self, monkeypatch):
        # A repeated size is estimated once and weighs in the fit as often
        # as it is listed.
        seen = []

        def fake(arr, *args):
            seen.append(arr.n_antennas)
            return 3.0 / arr.n_antennas + 1e-3

        monkeypatch.setattr(codebook, "estimate_bsup", fake)
        fit = fit_bsup_constant([16, 32, 16, 64], SQRT2_OVER_2, snr=1.0)
        assert seen == [16, 32, 64]
        assert fit.a == float(np.mean([n * fake(ArrayConfig(n)) for n in (16, 32, 16, 64)]))
        assert list(fit.bsup_by_n) == [16, 32, 64]

    def test_fit_checks_every_size_before_estimating(self, monkeypatch):
        def no_probe(*args):
            raise AssertionError("estimate_bsup ran")

        monkeypatch.setattr(codebook, "estimate_bsup", no_probe)
        with pytest.raises(ConfigError):
            fit_bsup_constant([64, 1, 2], SQRT2_OVER_2, snr=1.0)
