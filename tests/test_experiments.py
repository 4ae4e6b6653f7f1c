import math

import numpy as np
import pytest

from beamsquint import (INFEASIBLE_MARKER, ArrayConfig, ConfigError, rerun,
                        sweep_capacity_vs_bandwidth, sweep_codebook_size_vs_n,
                        sweep_gain_pattern, sweep_improvement_max_vs_b,
                        sweep_improvement_vs_focus, verify_facts)

from oracles import ref_halfwidth

SQRT2_OVER_2 = math.sqrt(2.0) / 2.0


@pytest.fixture(scope="module")
def fig3_sweep():
    return sweep_capacity_vs_bandwidth([ArrayConfig(64)], psi_f=0.9, psi=0.9,
                                       p_over_sigma2_hz=2e9, n_f=2048)


@pytest.fixture(scope="module")
def fig4_sweep():
    arrays = [ArrayConfig(16), ArrayConfig(32), ArrayConfig(64)]
    return sweep_improvement_vs_focus(arrays, b=0.0342, r=SQRT2_OVER_2, snr=1.0)


@pytest.fixture(scope="module")
def fig5_sweep():
    arrays = [ArrayConfig(16), ArrayConfig(64)]
    return sweep_improvement_max_vs_b(arrays, b_values=[0.0, 0.01, 0.0342, 0.05],
                                      r=SQRT2_OVER_2, snr=1.0)


@pytest.fixture(scope="module")
def fig6_sweep():
    return sweep_codebook_size_vs_n(b_values=[0.0342, 0.0714],
                                    n_values=[16, 32, 41, 42],
                                    r=SQRT2_OVER_2, snr=1.0)


@pytest.fixture(scope="module")
def facts_ledger():
    return verify_facts(fact1_samples=500, fact2_samples=500, seed=20240809,
                        n_f=128, fact3_n_values=(16, 24, 32), fact3_tol_b=1e-3)


class TestGainPatternSweep:
    def test_peak_and_nulls_n16(self):
        sr = sweep_gain_pattern(ArrayConfig(16), x_range=(-0.25, 0.25), steps=501)
        rows = np.array(sr.rows)
        xs, mags = rows[:, 0], rows[:, 1]
        assert mags[np.argmin(np.abs(xs))] == 4.0
        assert float(np.max(mags)) == 4.0
        for null in (-0.125, 0.125):
            assert mags[np.argmin(np.abs(xs - null))] < 1e-9

    def test_first_sidelobe_level(self):
        # Grid max between the first and second nulls sits near 0.217*sqrt(N).
        sr = sweep_gain_pattern(ArrayConfig(16), x_range=(2 / 16, 4 / 16),
                                steps=20001)
        mags = np.array(sr.rows)[:, 1]
        assert float(np.max(mags)) / 4.0 == pytest.approx(0.217, abs=0.01)

    def test_rejects_degenerate_steps(self):
        with pytest.raises(ConfigError):
            sweep_gain_pattern(ArrayConfig(16), steps=1)

    def test_columns_and_params(self):
        sr = sweep_gain_pattern(ArrayConfig(8), x_range=(-0.5, 0.5), steps=11)
        assert sr.columns == (("x", "-"), ("gain", "-"))
        assert all(len(row) == 2 for row in sr.rows)
        assert sr.params["n_antennas"] == 8


class TestCapacityVsBandwidthSweep:
    def test_squinted_capacity_rises_then_falls(self, fig3_sweep):
        cbs = np.array(fig3_sweep.rows)[:, 1]
        k = int(np.argmax(cbs))
        assert 0 < k < len(cbs) - 1
        assert np.all(np.diff(cbs[: k + 1]) > 0)
        assert np.all(np.diff(cbs[k:]) < 0)

    def test_ideal_capacity_nondecreasing_below_asymptote(self, fig3_sweep):
        cnbs = np.array(fig3_sweep.rows)[:, 2]
        assert np.all(np.diff(cnbs) >= 0)
        assert np.all(cnbs < 2e9 * 64 * math.log2(math.e))

    def test_squint_costs_capacity_everywhere(self, fig3_sweep):
        rows = np.array(fig3_sweep.rows)
        assert np.all(rows[:, 1] <= rows[:, 2] * (1 + 1e-12))
        # negligible squint at the narrowband end
        assert (rows[0, 2] - rows[0, 1]) / rows[0, 2] < 1e-3

    def test_units_note_recorded(self, fig3_sweep):
        assert "bit/s" in fig3_sweep.params["units_note"]
        assert fig3_sweep.columns[1] == ("capacity_bs_n64", "bit/s")

    def test_small_array_peaks_on_wider_range(self):
        # N = 16 needs a wider span before squint overtakes bandwidth growth.
        sr = sweep_capacity_vs_bandwidth([ArrayConfig(16)], psi_f=0.9, psi=0.9,
                                         p_over_sigma2_hz=2e9, n_f=2048,
                                         bandwidth_range_hz=(1e9, 3e10),
                                         steps=40)
        cbs = np.array(sr.rows)[:, 1]
        k = int(np.argmax(cbs))
        assert 0 < k < len(cbs) - 1
        assert np.all(np.diff(cbs[: k + 1]) > 0)
        assert np.all(np.diff(cbs[k:]) < 0)


class TestImprovementVsFocusSweep:
    def test_starts_near_zero(self, fig4_sweep):
        first = fig4_sweep.rows[0]
        assert first[0] == 0.0
        assert all(abs(v) < 1e-3 for v in first[1:])

    def test_nondecreasing_up_to_region_clipping(self, fig4_sweep):
        rows = np.array(fig4_sweep.rows)
        for col, n in ((1, 16), (2, 32), (3, 64)):
            cutoff = 1.0 - ref_halfwidth(SQRT2_OVER_2, n)
            prefix = rows[rows[:, 0] <= cutoff - 1e-9, col]
            assert np.all(np.diff(prefix) >= -1e-9)

    def test_grows_with_array_size(self, fig4_sweep):
        rows = np.array(fig4_sweep.rows)
        away = rows[rows[:, 0] >= 0.05]
        assert np.all(away[:, 2] >= away[:, 1] - 1e-9)
        assert np.all(away[:, 3] >= away[:, 2] - 1e-9)

    def test_endfire_value(self, fig4_sweep):
        last = fig4_sweep.rows[-1]
        assert last[0] == pytest.approx(1.0, abs=1e-12)
        assert last[3] == pytest.approx(0.178, abs=0.01)

    @pytest.mark.parametrize("step", [0.3, 0.6, 1.0])
    def test_focus_grid_stops_at_endfire(self, step):
        sweep = sweep_improvement_vs_focus([ArrayConfig(2)], b=0.03,
                                           r=SQRT2_OVER_2, snr=1.0, n_f=64,
                                           psi_f_step=step)
        foci = [row[0] for row in sweep.rows]
        assert max(foci) <= 1.0
        assert foci == pytest.approx([k * step for k in range(len(foci))])
        assert 1.0 - foci[-1] < step

    def test_default_focus_grid_ends_exactly_at_endfire(self, fig4_sweep):
        assert len(fig4_sweep.rows) == 101
        assert fig4_sweep.rows[-1][0] == 1.0


class TestImprovementMaxVsBSweep:
    def test_zero_bandwidth_row(self, fig5_sweep):
        assert all(abs(v) < 1e-6 for v in fig5_sweep.rows[0][1:])

    def test_nondecreasing_in_b(self, fig5_sweep):
        rows = np.array(fig5_sweep.rows)
        assert np.all(np.diff(rows[:, 1]) >= -1e-9)
        assert np.all(np.diff(rows[:, 2]) >= -1e-9)

    def test_headline_band_value(self, fig5_sweep):
        row = next(r for r in fig5_sweep.rows if r[0] == pytest.approx(0.0342))
        assert row[2] == pytest.approx(0.178, abs=0.01)

    def test_small_arrays_gain_little(self, fig5_sweep):
        row = next(r for r in fig5_sweep.rows if r[0] == pytest.approx(0.0342))
        assert row[1] < 0.02


class TestCodebookSizeSweep:
    def test_infeasible_marker(self, fig6_sweep):
        rows = {int(r[0]): r for r in fig6_sweep.rows}
        assert rows[42][2] == INFEASIBLE_MARKER
        assert rows[41][2] > 0
        assert all(rows[n][1] > 0 for n in (16, 32, 41, 42))
        assert fig6_sweep.params["infeasible_marker"] == INFEASIBLE_MARKER

    def test_size_nondecreasing_in_n(self, fig6_sweep):
        rows = np.array(fig6_sweep.rows)
        for col in (1, 2):
            sizes = [s for s in rows[:, col] if s != INFEASIBLE_MARKER]
            assert all(s2 >= s1 for s1, s2 in zip(sizes, sizes[1:]))

    def test_size_nondecreasing_in_b(self, fig6_sweep):
        for row in fig6_sweep.rows:
            if row[1] != INFEASIBLE_MARKER and row[2] != INFEASIBLE_MARKER:
                assert row[2] >= row[1]

    def test_zero_bandwidth_column_is_uniform_tiling(self):
        sr = sweep_codebook_size_vs_n(b_values=[0.0], n_values=[16, 24, 32],
                                      r=SQRT2_OVER_2, snr=1.0, n_f=256)
        for row in sr.rows:
            n = int(row[0])
            w = ref_halfwidth(SQRT2_OVER_2, n)
            pairs = math.ceil((1.0 - w) / (2 * w))
            expected = min(1 + 2 * pairs, 2 * math.ceil(1.0 / (2 * w)))
            assert row[1] == expected


class TestVerifyFacts:
    def test_no_violations(self, facts_ledger):
        by_fact = {int(row[0]): row for row in facts_ledger.rows}
        assert by_fact[1][2] == 0
        assert by_fact[2][2] == 0
        assert by_fact[3][2] == 0
        assert not facts_ledger.params["witnesses"]["fact1"]
        assert not facts_ledger.params["witnesses"]["fact2"]

    def test_margins_negative_when_passing(self, facts_ledger):
        by_fact = {int(row[0]): row for row in facts_ledger.rows}
        assert by_fact[1][3] <= 0
        assert by_fact[2][3] <= 0
        assert 0 <= by_fact[3][3] < 0.05

    def test_inverse_law_constant_recorded(self, facts_ledger):
        assert facts_ledger.params["fact3_a"] == pytest.approx(3.0, abs=0.1)

    def test_fact3_can_be_skipped(self):
        sr = verify_facts(fact1_samples=10, fact2_samples=10, fact3_n_values=())
        assert sr.rows[2] == (3.0, 0.0, 0.0, 0.0)


class TestDeterminism:
    def test_repeat_run_is_bitwise_identical(self):
        a = sweep_gain_pattern(ArrayConfig(32), x_range=(-0.3, 0.3), steps=201)
        b = sweep_gain_pattern(ArrayConfig(32), x_range=(-0.3, 0.3), steps=201)
        assert a.rows == b.rows
        assert a.params == b.params

    @pytest.mark.parametrize("make", [
        lambda: sweep_gain_pattern(ArrayConfig(16), x_range=(-0.5, 0.5), steps=101),
        lambda: sweep_capacity_vs_bandwidth([ArrayConfig(16)], 0.9, 0.9, 2e9, 256,
                                            steps=10),
        lambda: sweep_improvement_vs_focus([ArrayConfig(16)], b=0.02,
                                           r=SQRT2_OVER_2, snr=1.0, n_f=256,
                                           psi_f_step=0.2),
        lambda: sweep_improvement_max_vs_b([ArrayConfig(16)], b_values=[0.0, 0.02],
                                           r=SQRT2_OVER_2, snr=1.0, n_f=256),
        lambda: sweep_codebook_size_vs_n([0.02], [8, 16], r=SQRT2_OVER_2,
                                         snr=1.0, n_f=256),
        lambda: verify_facts(fact1_samples=50, fact2_samples=50, n_f=128,
                             fact3_n_values=()),
    ])
    def test_rerun_from_params_reproduces_rows(self, make):
        first = make()
        again = rerun(first.params)
        assert again.rows == first.rows
        assert again.columns == first.columns

    def test_rerun_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            rerun({"sweep": "nope"})
