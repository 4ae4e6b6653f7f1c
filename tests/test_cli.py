import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamsquint import (ArrayConfig, BandConfig, InfeasibleError, assess_feasibility,
                        capacity_threshold, cli, codebook, design_codebook, experiments,
                        rerun, serialize)
from beamsquint.capacity import R_3DB

ABSTRACT_DESIGN = [
    "design", "--antennas", "64", "--bandwidth-hz", "2.5e9", "--carrier-hz",
    "73e9", "--subcarriers", "2048", "--snr-db", "0", "--r",
    "0.7071067811865476", "--psi-m", "1", "--format", "json",
]


FOCUS_SWEEP = ["sweep", "--kind", "improvement-vs-focus", "--n-list", "16",
               "--frac-bandwidth", "0.03", "--subcarriers", "64"]
OVERFLOW_IMPROVEMENT = ["improvement", "--antennas", "16", "--frac-bandwidth", "0.01",
                        "--subcarriers", "64"]
BANDWIDTH_SWEEP = ["sweep", "--kind", "capacity-vs-bandwidth", "--n-list", "16",
                   "--steps", "3", "--subcarriers", "64"]


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCapacityCommand:
    def test_trivial_point_is_log2_17(self, capsys):
        code, out, _ = run_cli(
            ["capacity", "--antennas", "16", "--frac-bandwidth", "0",
             "--psi-f", "0", "--psi", "0", "--snr-db", "0",
             "--subcarriers", "2048"], capsys)
        assert code == 0
        header, row = out.strip().split("\n")
        cols = header.split(",")
        values = [float(v) for v in row.split(",")]
        cbs = values[cols.index("capacity_bs[bit/s/Hz]")]
        assert cbs == pytest.approx(math.log2(17), rel=1e-12)

    def test_header_format(self, capsys):
        code, out, _ = run_cli(
            ["capacity", "--antennas", "16", "--frac-bandwidth", "0.01",
             "--psi-f", "0.1", "--psi", "0.1", "--snr-db", "0",
             "--subcarriers", "64"], capsys)
        assert code == 0
        header = out.split("\n", 1)[0]
        assert all("[" in col and col.endswith("]") for col in header.split(","))

    def test_absolute_bandwidth_units(self, capsys):
        code, out, _ = run_cli(
            ["capacity", "--antennas", "16", "--bandwidth-hz", "1e9",
             "--carrier-hz", "60e9", "--psi-f", "0", "--psi", "0",
             "--snr-db", "0", "--subcarriers", "64"], capsys)
        assert code == 0
        assert "capacity_bs[bit/s]" in out.split("\n", 1)[0]


class TestDesignCommand:
    def test_abstract_parameters_emit_codebook_json(self, capsys):
        code, out, _ = run_cli(ABSTRACT_DESIGN, capsys)
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["n", "b", "n_f", "snr", "psi_m", "r", "parity", "beams"]
        assert doc["n"] == 64
        assert doc["b"] == pytest.approx(2.5 / 73, rel=1e-12)
        assert doc["parity"] in ("odd", "even")
        assert len(doc["beams"]) > 0
        first = doc["beams"][0]
        assert list(first) == ["focus", "left", "right", "width", "phases"]
        assert len(first["phases"]) == 64

    def test_json_round_trips_to_identical_bytes(self, capsys):
        code, out, _ = run_cli(ABSTRACT_DESIGN, capsys)
        assert code == 0
        assert serialize.to_json(json.loads(out)) == out

    def test_ct_flag_replaces_r_in_output(self, capsys):
        code, out, _ = run_cli(
            ["design", "--antennas", "16", "--frac-bandwidth", "0.01",
             "--snr-db", "0", "--subcarriers", "128", "--ct", "2.5",
             "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert "c_t" in doc and "r" not in doc
        assert doc["c_t"] == 2.5

    def test_csv_beam_table(self, capsys):
        code, out, _ = run_cli(
            ["design", "--antennas", "16", "--frac-bandwidth", "0.01",
             "--snr-db", "0", "--subcarriers", "128"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "focus[-],left[-],right[-],width[-]"
        assert len(lines) > 2

    def test_infeasible_design_exits_3_with_focus(self, capsys):
        code, out, err = run_cli(
            ["design", "--antennas", "42", "--frac-bandwidth", "0.0714",
             "--snr-db", "0", "--subcarriers", "2048"], capsys)
        assert code == 3
        assert out == ""
        assert "no codebook exists" in err
        assert "failing focus angle" in err
        # Both sizes' failing foci are named, the odd one first.
        code, out, err = run_cli(
            ["design", "--antennas", "128", "--bandwidth-hz", "2.5e9",
             "--carrier-hz", "73e9", "--snr-db", "0"], capsys)
        assert (code, out) == (3, "")
        band = BandConfig.from_hz(2.5e9, 73e9, n_f=2048, snr=1.0)
        arr = ArrayConfig(128)
        report = assess_feasibility(1.0, capacity_threshold(R_3DB, band, arr), band, arr)
        # The report names both sizes' failing foci too: each chain's last
        # focus, mirrored from the one before, whose edge solve finds
        # C(f, f) < c_t.
        assert (report.failing_focus, report.even_focus) == (0.6786677105088784,
                                                             0.678683648558043)
        with pytest.raises(InfeasibleError) as exc:
            design_codebook(1.0, capacity_threshold(R_3DB, band, arr), band, arr)
        odd, even = exc.value.failing_focus, exc.value.even_focus
        assert (odd, even) == (report.failing_focus, report.even_focus)
        assert err == (f"no codebook exists (failing focus angles: odd size {odd!r}, "
                       f"even size {even!r})\n")


class TestConfigErrors:
    @pytest.mark.parametrize("r,expected", [("0.25", 0), ("0.2499", 2)])
    def test_minimum_gain_ratio_is_inclusive(self, r, expected, capsys):
        # 0.25 is the documented minimum, though its threshold maps back to
        # a ratio an ulp below it.
        code, out, err = run_cli(
            ["design", "--antennas", "64", "--frac-bandwidth", "0.01", "--r", r,
             "--snr-db", "0", "--subcarriers", "256"], capsys)
        assert code == expected
        if expected:
            assert out == "" and "below 0.25" in err
        else:
            assert out.startswith("focus[-],left[-],right[-],width[-]\n")
            assert len(out.strip().split("\n")) > 2

    def test_bsup_at_the_minimum_gain_ratio(self, capsys):
        code, out, _ = run_cli(
            ["bsup", "--antennas", "64", "--r", "0.25", "--snr-db", "0",
             "--tol-b", "1e-3", "--subcarriers", "256"], capsys)
        assert code == 0 and float(out.split("\n")[1].split(",")[1]) > 0

    def test_unknown_flag_exits_2(self, capsys):
        code, _, _ = run_cli(["capacity", "--no-such-flag", "1"], capsys)
        assert code == 2

    def test_band_flags_are_exclusive(self, capsys):
        code, _, err = run_cli(
            ["capacity", "--antennas", "16", "--frac-bandwidth", "0.01",
             "--bandwidth-hz", "1e9", "--carrier-hz", "60e9", "--psi-f", "0",
             "--psi", "0", "--snr-db", "0"], capsys)
        assert code == 2
        assert "--frac-bandwidth" in err

    def test_band_flags_require_complete_pair(self, capsys):
        code, _, err = run_cli(
            ["capacity", "--antennas", "16", "--bandwidth-hz", "1e9",
             "--psi-f", "0", "--psi", "0", "--snr-db", "0"], capsys)
        assert code == 2
        assert "--bandwidth-hz" in err or "--carrier-hz" in err

    def test_r_and_ct_are_exclusive(self, capsys):
        code, _, _ = run_cli(
            ["design", "--antennas", "16", "--frac-bandwidth", "0.01",
             "--snr-db", "0", "--r", "0.7", "--ct", "2.0"], capsys)
        assert code == 2

    def test_invalid_antenna_count_names_flag(self, capsys):
        code, _, err = run_cli(
            ["gain", "--antennas", "1"], capsys)
        assert code == 2
        assert "--antennas" in err

    @pytest.mark.parametrize("argv", [
        ["capacity", "--antennas", "16", "--frac-bandwidth", "0.01",
         "--psi-f", "0", "--psi", "0", "--snr-db", "0"],
        ["design", "--antennas", "16", "--frac-bandwidth", "0.01", "--snr-db", "0"],
        ["improvement", "--antennas", "16", "--frac-bandwidth", "0.01", "--snr-db", "0"],
        ["bsup", "--antennas", "16", "--snr-db", "0"],
        FOCUS_SWEEP,
        ["verify", "--fact1-samples", "0", "--fact2-samples", "0", "--fact3-n-list", ""],
    ], ids=["capacity", "design", "improvement", "bsup", "sweep", "verify"])
    def test_odd_subcarriers_give_one_message(self, argv, capsys):
        # The band's inputs are checked once, by the library, whichever
        # subcommand builds the band.
        code, out, err = run_cli(argv + ["--subcarriers", "63"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: n_f must be an even integer >= 2, got 63\n"

    @pytest.mark.parametrize("flags, named", [
        (["--antennas", "1", "--n-list", "8,16,32"], "--n-list: not allowed with argument --antennas"),
        (["--n-list", "8,16,32", "--antennas", "1"], "--antennas: not allowed with argument --n-list"),
        (["--antennas", "8", "--n-list", "8"], "--n-list: not allowed with argument --antennas"),
    ], ids=["bad-antennas-first", "n-list-first", "both-valid"])
    def test_antennas_and_n_list_are_exclusive(self, capsys, monkeypatch, flags, named):
        # Either order, valid or not: the parser exits 2 before any point.
        def no_point(*args):
            raise AssertionError("a point was evaluated")

        monkeypatch.setattr(codebook, "capacity_bs", no_point)
        code, out, err = run_cli(
            ["bsup"] + flags + ["--snr-db", "0", "--tol-b", "0.01"], capsys)
        assert (code, out) == (2, "")
        assert f"argument {named}" in err

    def test_bsup_needs_antennas_or_n_list(self, capsys):
        code, out, err = run_cli(["bsup", "--snr-db", "0"], capsys)
        assert (code, out, err) == (2, "", "error: provide --antennas or --n-list\n")

    def test_bsup_help_shows_the_exclusive_pair(self, capsys):
        code, out, err = run_cli(["bsup", "--help"], capsys)
        assert (code, err) == (0, "")
        text = " ".join(out.split())
        assert "[--antennas ANTENNAS | --n-list N_LIST]" in text
        assert "--n-list N_LIST comma-separated array sizes; fits the a/N constant" in text

    @pytest.mark.parametrize("argv", [
        ["capacity", "--antennas", "16", "--frac-bandwidth", "0.01",
         "--psi-f", "0", "--psi", "0", "--snr-db", "nan"],
        ["capacity", "--antennas", "16", "--frac-bandwidth", "0.01",
         "--psi-f", "0", "--psi", "0", "--snr-db", "inf"],
        ["design", "--antennas", "16", "--frac-bandwidth", "0.01",
         "--snr-db", "0", "--ct", "nan"],
        ["bsup", "--antennas", "8", "--snr-db", "0", "--tol-b", "nan",
         "--subcarriers", "64"],
        ["gain", "--antennas", "8", "--x-min", "nan"],
        ["capacity", "--antennas", "16", "--frac-bandwidth", "0.01",
         "--psi-f", "5", "--psi", "3", "--snr-db", "0"],
        FOCUS_SWEEP + ["--psi-f-step", "0"],
        FOCUS_SWEEP + ["--psi-f-step", "nan"],
        FOCUS_SWEEP + ["--psi-f-step", "-0.1"],
        BANDWIDTH_SWEEP + ["--bw-min-hz", "-1"],
        BANDWIDTH_SWEEP + ["--bw-min-hz", "0"],
        BANDWIDTH_SWEEP + ["--psi-f", "nan"],
        ["bsup", "--antennas", "8", "--snr-db", "0", "--tol-b", "inf"],
        ["improvement", "--antennas", "16", "--frac-bandwidth", "0.02",
         "--snr-db", "0", "--psi-f", "nan"],
        ["verify", "--b-max", "nan"],
        ["verify", "--b-max", "-1"],
        ["verify", "--fact1-samples", "-5"],
        ["verify", "--seed", "-1"],
        ["sweep", "--kind", "improvement-vs-focus", "--n-list", "",
         "--frac-bandwidth", "nan", "--format", "json"],
        ["capacity", "--antennas", "16", "--frac-bandwidth", "0.01",
         "--psi-f", "0", "--psi", "0", "--snr-db", "4000"],
        ["bsup", "--antennas", "8", "--snr-db", "0", "--tol-b", "2"],
        ["design", "--antennas", "16", "--bandwidth-hz", "1e9", "--carrier-hz",
         "inf", "--snr-db", "0", "--subcarriers", "64", "--psi-m", "0.1"],
        ["improvement", "--antennas", "4", "--frac-bandwidth", "0.03",
         "--snr-db", "0", "--psi-f", "1.2", "--subcarriers", "64"],
        ["improvement", "--antennas", "16", "--frac-bandwidth", "0.03",
         "--snr-db", "0", "--psi-f", "-1.05", "--subcarriers", "64"],
        ["sweep", "--kind", "capacity-vs-bandwidth", "--n-list", "16",
         "--psi-f", "3", "--psi", "3", "--steps", "2"],
        # Point counts numpy cannot allocate are refused before it tries.
        ["gain", "--antennas", "2", "--steps", "100000000000000000000"],
        ["sweep", "--kind", "capacity-vs-bandwidth", "--n-list", "2",
         "--steps", "100000000000000000000", "--subcarriers", "2"],
        ["sweep", "--kind", "improvement-vs-focus", "--n-list", "2",
         "--frac-bandwidth", "0.5", "--psi-f-step", "1e-300", "--subcarriers", "2"],
        # 10**308 is a finite SNR, but N*snr overflows, and so do the results.
        OVERFLOW_IMPROVEMENT + ["--snr-db", "3080"],
        OVERFLOW_IMPROVEMENT + ["--snr-db", "3080", "--psi-f", "0.5"],
        ["capacity", "--antennas", "16", "--frac-bandwidth", "0.01", "--subcarriers",
         "64", "--psi-f", "0.5", "--psi", "0.5", "--snr-db", "3080"],
        ["sweep", "--kind", "improvement-max-vs-b", "--n-list", "16", "--b-list",
         "0.01", "--subcarriers", "64", "--snr-db", "3080"],
        ["sweep", "--kind", "improvement-vs-focus", "--n-list", "16", "--frac-bandwidth",
         "0.01", "--subcarriers", "64", "--psi-f-step", "0.5", "--snr-db", "3080"],
        ["verify", "--fact1-samples", "1", "--fact2-samples", "1", "--fact3-n-list",
         "16", "--tol-b", "0.5", "--snr-db", "3080"],
        # Too few steps, refused by the sweep itself.
        ["gain", "--antennas", "8", "--steps", "1"],
        ["sweep", "--kind", "capacity-vs-bandwidth", "--n-list", "16",
         "--steps", "0", "--subcarriers", "64"],
    ], ids=["snr-nan", "snr-inf", "ct-nan", "tol-b-nan", "x-min-nan",
            "psi-out-of-range", "psi-f-step-0", "psi-f-step-nan",
            "psi-f-step-negative", "bw-min-negative", "bw-min-0",
            "sweep-psi-f-nan", "tol-b-inf", "improvement-psi-f-nan",
            "b-max-nan", "b-max-negative", "fact1-samples-negative",
            "seed-negative", "unused-nan-b", "snr-db-overflow",
            "tol-b-bracket-width", "carrier-inf", "improvement-psi-f-above-1",
            "improvement-psi-f-below-minus-1", "sweep-angles-out-of-range",
            "gain-steps-oversize", "bandwidth-sweep-steps-oversize",
            "psi-f-step-oversize", "improvement-max-overflow", "improvement-overflow",
            "capacity-overflow", "improvement-max-sweep-overflow",
            "focus-sweep-overflow", "verify-overflow", "gain-steps-1",
            "bandwidth-sweep-steps-0"])
    def test_non_finite_or_out_of_domain_exits_2(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, filled", [
        (["sweep", "--kind", "improvement-vs-focus", "--n-list", "",
          "--frac-bandwidth", "5"], ("--n-list", "8")),
        (["sweep", "--kind", "improvement-max-vs-b", "--n-list", "", "--b-list", "7",
          "--subcarriers", "3"], ("--n-list", "8")),
        (["sweep", "--kind", "codebook-size-vs-n", "--n-list", "", "--b-list", "9"],
         ("--n-list", "8")),
        (["sweep", "--kind", "capacity-vs-bandwidth", "--n-list", "",
          "--subcarriers", "3"], ("--n-list", "8")),
        (["verify", "--fact1-samples", "0", "--fact2-samples", "0",
          "--fact3-n-list", "", "--subcarriers", "3"], ("--fact1-samples", "1")),
        (["sweep", "--kind", "improvement-vs-focus", "--n-list", "",
          "--frac-bandwidth", "0.01", "--r", "5"], ("--n-list", "8")),
        (["sweep", "--kind", "improvement-max-vs-b", "--n-list", "", "--b-list", "0.01",
          "--r", "7"], ("--n-list", "8")),
        (["sweep", "--kind", "codebook-size-vs-n", "--n-list", "", "--b-list", "0.01",
          "--r", "5"], ("--n-list", "8")),
        (["sweep", "--kind", "codebook-size-vs-n", "--n-list", "", "--b-list", "0.01",
          "--psi-m", "5"], ("--n-list", "8")),
        (["verify", "--fact1-samples", "0", "--fact2-samples", "0",
          "--fact3-n-list", "", "--tol-b", "5"], ("--fact3-n-list", "8")),
    ], ids=["improvement-vs-focus", "improvement-max-vs-b", "codebook-size-vs-n",
            "capacity-vs-bandwidth", "verify", "improvement-vs-focus-r",
            "improvement-max-vs-b-r", "codebook-size-vs-n-r", "codebook-size-vs-n-psi-m",
            "verify-tol-b"])
    def test_empty_lists_still_check_the_band(self, argv, filled, capsys):
        # With no array size or sample the band is still checked, with the
        # message a non-empty list gives.
        flag, value = filled
        nonempty = list(argv)
        nonempty[nonempty.index(flag) + 1] = value
        expected = run_cli(nonempty, capsys)
        assert expected[0] == 2 and expected[2].startswith("error: ")
        assert run_cli(argv, capsys) == expected

    def test_empty_size_list_still_checks_the_main_lobe(self, capsys):
        # A non-empty list's message names the threshold of its first size.
        for n_list in ("", "8"):
            code, out, err = run_cli(
                ["sweep", "--kind", "codebook-size-vs-n", "--n-list", n_list,
                 "--b-list", "0.01", "--r", "0.1"], capsys)
            assert (code, out) == (2, "")
            assert "below 0.25" in err

    @pytest.mark.parametrize("argv, flag", [
        (["sweep", "--kind", "codebook-size-vs-n", "--n-list", "64,1", "--b-list", "0.01"],
         "--n-list"),
        (["verify", "--fact3-n-list", "1"], "--fact3-n-list"),
        (["bsup", "--n-list", "64,1,2", "--snr-db", "0"], "--n-list"),
    ], ids=["codebook-size-vs-n", "verify", "bsup"])
    def test_sizes_are_checked_before_any_point(self, argv, flag, capsys, monkeypatch):
        def no_point(*args):
            raise AssertionError("a point was evaluated")

        monkeypatch.setattr(codebook, "capacity_bs", no_point)
        monkeypatch.setattr(experiments, "capacity_bs", no_point)
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {flag}: ")

    @pytest.mark.parametrize("extra, message", [
        (["--psi-m", "0"], "psi_m must be in (0, 1], got 0.0"),
        (["--psi-m", "1.5"], "psi_m must be in (0, 1], got 1.5"),
        (["--psi-m", "nan"], "psi_m must be in (0, 1], got nan"),
    ], ids=["psi_m-zero", "psi_m-above-1", "psi_m-nan"])
    @pytest.mark.parametrize("argv", [
        ["bsup", "--antennas", "16", "--snr-db", "0", "--tol-b", "1e-3"],
        ["sweep", "--kind", "codebook-size-vs-n", "--n-list", "8,64", "--b-list",
         "0.03,0.1", "--snr-db", "0", "--subcarriers", "256"],
    ], ids=["bsup", "sweep"])
    def test_bad_psi_m_exits_2(self, argv, extra, message, capsys):
        assert run_cli(argv + extra, capsys) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        (["bsup", "--antennas", "16", "--snr-db", "0", "--tol-b", "1e-3"],
         "threshold 0.2141248053528476 maps to gain ratio 0.1000 below 0.25; "
         "only main-lobe beamwidths are modelled"),
        (["sweep", "--kind", "codebook-size-vs-n", "--n-list", "8,64", "--b-list",
          "0.03,0.1", "--snr-db", "0", "--subcarriers", "256"],
         "r=0.1 is below 0.25; sidelobes would qualify and only the main lobe is "
         "modelled"),
    ], ids=["bsup", "sweep"])
    def test_gain_ratio_below_the_main_lobe_exits_2(self, argv, message, capsys):
        assert run_cli(argv + ["--r", "0.1"], capsys) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["capacity", "--antennas", "16", "--psi-f", "0", "--psi", "0", "--snr-db", "0"],
        ["design", "--antennas", "16", "--snr-db", "0"],
        ["improvement", "--antennas", "16", "--snr-db", "0"],
        ["sweep", "--kind", "improvement-vs-focus", "--n-list", "16"],
    ], ids=["capacity", "design", "improvement", "sweep"])
    def test_bad_fractional_bandwidth_gives_one_message(self, argv, capsys):
        code, out, err = run_cli(argv + ["--frac-bandwidth", "2.5"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: fractional bandwidth must be in [0, 2), got 2.5\n"


class TestOtherCommands:
    def test_gain_sweep(self, capsys):
        code, out, _ = run_cli(
            ["gain", "--antennas", "16", "--x-min", "-0.25", "--x-max", "0.25",
             "--steps", "101"], capsys)
        assert code == 0
        assert out.startswith("x[-],gain[-]\n")
        assert len(out.strip().split("\n")) == 102

    def test_improvement_point(self, capsys):
        code, out, _ = run_cli(
            ["improvement", "--antennas", "64", "--frac-bandwidth", "0.0342",
             "--snr-db", "0", "--psi-f", "1.0", "--subcarriers", "2048"], capsys)
        assert code == 0
        value = float(out.strip().split("\n")[1].split(",")[1])
        assert value == pytest.approx(0.178, abs=0.01)

    def test_improvement_max_mode(self, capsys):
        code, out, _ = run_cli(
            ["improvement", "--antennas", "16", "--frac-bandwidth", "0.02",
             "--snr-db", "0", "--subcarriers", "256"], capsys)
        assert code == 0
        assert out.startswith("improvement_max[-]\n")

    def test_bsup_single_array(self, capsys):
        code, out, _ = run_cli(
            ["bsup", "--antennas", "8", "--snr-db", "0", "--tol-b", "1e-2",
             "--subcarriers", "256"], capsys)
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert float(row[0]) == 8.0
        assert 0.2 < float(row[1]) < 0.6

    def test_bsup_fit_mode(self, capsys):
        code, out, _ = run_cli(
            ["bsup", "--n-list", "8,12,16", "--snr-db", "0", "--tol-b", "1e-2",
             "--subcarriers", "256", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["params"]["a"] == pytest.approx(3.0, abs=0.3)
        assert len(doc["rows"]) == 3

    def test_sweep_codebook_size(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--kind", "codebook-size-vs-n", "--n-list", "8,16",
             "--b-list", "0.02", "--snr-db", "0", "--subcarriers", "256"], capsys)
        assert code == 0
        assert out.startswith("n_antennas[count],size_b0.02[count]\n")

    def test_sweep_codebook_size_past_the_limit_bytes(self, capsys):
        # b = 0.057 is past b_sup at both sizes, where the sweep proves the
        # cells infeasible without building a chain; the bytes are those of
        # a full two-parity design of every cell.
        code, out, err = run_cli(
            ["sweep", "--kind", "codebook-size-vs-n", "--n-list", "56,64", "--b-list",
             "0.0342,0.057", "--snr-db", "0", "--subcarriers", "256"], capsys)
        assert (code, err) == (0, "")
        assert out == (
            "n_antennas[count],size_b0.0342[count],size_b0.057[count]\n"
            "5.6000000000000000e+01,7.0000000000000000e+01,-1.0000000000000000e+00\n"
            "6.4000000000000000e+01,8.3000000000000000e+01,-1.0000000000000000e+00\n")

    def test_sweep_missing_selector(self, capsys):
        code, _, err = run_cli(
            ["sweep", "--kind", "codebook-size-vs-n", "--b-list", "0.02",
             "--snr-db", "0"], capsys)
        assert code == 2
        assert "--n-list" in err

    def test_verify_command(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--fact1-samples", "50", "--fact2-samples", "50",
             "--fact3-n-list", "8,12,16", "--tol-b", "1e-2",
             "--subcarriers", "128", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        violations = {row[0]: row[2] for row in doc["rows"]}
        assert violations[1.0] == 0.0
        assert violations[2.0] == 0.0


class TestSweepRerun:
    @pytest.mark.parametrize("argv", [
        ["gain", "--antennas", "8", "--steps", "11"],
        ["sweep", "--kind", "gain-pattern", "--antennas", "8", "--x-min", "-0.5"],
        BANDWIDTH_SWEEP + ["--carrier-hz", "60e9", "--p-over-sigma2", "1e9"],
        FOCUS_SWEEP + ["--psi-f-step", "0.1", "--r", "0.6"],
        ["sweep", "--kind", "improvement-max-vs-b", "--n-list", "8,16",
         "--b-list", "0,0.03", "--subcarriers", "64", "--snr-db", "3"],
        ["sweep", "--kind", "codebook-size-vs-n", "--n-list", "8,41,42",
         "--b-list", "0.0714,0.02", "--subcarriers", "128", "--psi-m", "0.8"],
        ["verify", "--fact1-samples", "20", "--fact2-samples", "20",
         "--fact3-n-list", "8,12,16", "--tol-b", "0.1", "--subcarriers", "64"],
    ], ids=["gain", "gain-pattern", "capacity-vs-bandwidth", "improvement-vs-focus",
            "improvement-max-vs-b", "codebook-size-vs-n", "verify-facts"])
    def test_json_params_rerun_to_the_same_output(self, argv, capsys):
        code, out, _ = run_cli(argv + ["--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        again = rerun(doc["params"])
        assert [list(row) for row in again.rows] == doc["rows"]
        assert serialize.sweep_to_json(again) == out


FUZZ_PALETTE = ["nan", "inf", "-inf", "-1", "0", "0.5", "2", "x", ""]
_POINT_FLAGS = ["--antennas", "--frac-bandwidth", "--bandwidth-hz", "--carrier-hz",
                "--subcarriers", "--snr-db"]
# The value flags of every subcommand; --format and --out only choose where
# output goes.
FUZZ_FLAGS = {
    "gain": ["--antennas", "--x-min", "--x-max", "--steps"],
    "capacity": _POINT_FLAGS + ["--psi-f", "--psi"],
    "design": _POINT_FLAGS + ["--r", "--ct", "--psi-m"],
    "improvement": _POINT_FLAGS + ["--r", "--psi-f"],
    "bsup": ["--antennas", "--n-list", "--r", "--snr-db", "--psi-m", "--tol-b",
             "--subcarriers"],
    "sweep": ["--antennas", "--n-list", "--b-list", "--frac-bandwidth", "--x-min",
              "--x-max", "--steps", "--psi-f", "--psi", "--psi-f-step",
              "--p-over-sigma2", "--bw-min-hz", "--bw-max-hz", "--carrier-hz", "--r",
              "--snr-db", "--psi-m", "--subcarriers"],
    "verify": ["--fact1-samples", "--fact2-samples", "--seed", "--subcarriers",
               "--snr-db", "--b-max", "--fact3-n-list", "--tol-b"],
}
# Flags the fuzz changes but never drops: verify's defaults take seconds.
FUZZ_KEPT = {"--fact1-samples", "--fact2-samples", "--fact3-n-list"}
# A valid argv of each subcommand in palette values; the fuzz sets, changes
# or drops up to three of its flags, so a bad value is seen in a context
# that gets past the other checks.
_POINT_BASE = {"--antennas": "2", "--frac-bandwidth": "0.5", "--snr-db": "0"}
FUZZ_BASE = {
    "gain": {"--antennas": "2"},
    "capacity": {**_POINT_BASE, "--psi-f": "0.5", "--psi": "0.5"},
    "design": _POINT_BASE,
    "improvement": _POINT_BASE,
    "bsup": {"--antennas": "2", "--snr-db": "0", "--tol-b": "0.5"},
    "sweep": {"--antennas": "2", "--n-list": "2", "--b-list": "0.5",
              "--frac-bandwidth": "0.5", "--subcarriers": "2"},
    # No samples and no sizes: the empty lists and zero counts every
    # sweep must still check its inputs with.
    "verify": {"--fact1-samples": "0", "--fact2-samples": "0", "--fact3-n-list": "",
               "--subcarriers": "2", "--tol-b": "0.5"},
}
SWEEP_KINDS = ["gain-pattern", "capacity-vs-bandwidth", "improvement-vs-focus",
               "improvement-max-vs-b", "codebook-size-vs-n"]


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    changes = draw(st.dictionaries(st.sampled_from(FUZZ_FLAGS[command]),
                                   st.none() | st.sampled_from(FUZZ_PALETTE),
                                   max_size=3))
    argv = [command]
    if command == "sweep":
        argv += ["--kind", draw(st.sampled_from(SWEEP_KINDS))]
    for flag, value in {**FUZZ_BASE[command], **changes}.items():
        if value is None and flag in FUZZ_KEPT:
            value = FUZZ_BASE[command][flag]
        if value is not None:
            argv += [flag, value]
    return argv, not changes


@settings(derandomize=True, deadline=None, max_examples=1800)
@given(case=fuzz_argv())
def test_any_argv_exits_0_2_or_3(case):
    argv, unchanged = case
    code = cli.main(argv)
    assert code in (0, 2, 3)
    if unchanged:
        assert code == 0


class TestDeterminismAndOutput:
    def test_repeat_runs_are_byte_identical(self, capsys):
        argv = ["capacity", "--antennas", "32", "--frac-bandwidth", "0.03",
                "--psi-f", "0.4", "--psi", "0.41", "--snr-db", "3",
                "--subcarriers", "512"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second

    def test_shared_parser_answers_like_a_fresh_one(self, capsys):
        # The parser is built once per process; parsing must leave nothing
        # behind that changes a later call's output or exit code.
        argvs = [
            ["capacity", "--antennas", "16", "--frac-bandwidth", "0.03",
             "--psi-f", "0.2", "--psi", "0.21", "--snr-db", "0", "--subcarriers", "64"],
            ["--help"],
            ["design", "--help"],
            ["gain", "--antennas", "8", "--steps", "5", "--format", "json"],
            ["design", "--antennas", "16", "--frac-bandwidth", "0.01", "--snr-db", "0",
             "--bogus"],
            ["design", "--antennas", "8", "--frac-bandwidth", "0.02", "--snr-db", "0",
             "--subcarriers", "64", "--r", "0.5", "--ct", "1"],
            ["design", "--antennas", "8", "--frac-bandwidth", "0.02", "--snr-db", "0",
             "--subcarriers", "64", "--format", "csv"],
            BANDWIDTH_SWEEP,
            ["bsup", "--antennas", "8", "--snr-db", "0", "--tol-b", "0.01",
             "--subcarriers", "16"],
            [],
        ]

        def fresh(argv):
            cli._parser.cache_clear()
            return run_cli(argv, capsys)

        expected = [fresh(argv) for argv in argvs]
        assert {code for code, _, _ in expected} == {0, 2}
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()
        for _ in range(2):
            assert [run_cli(argv, capsys) for argv in argvs] == expected
        assert [run_cli(argv, capsys) for argv in reversed(argvs)] == expected[::-1]

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        argv = ["gain", "--antennas", "8", "--steps", "11"]
        _, stdout_text, _ = run_cli(argv, capsys)
        target = tmp_path / "gain.csv"
        code = cli.main(argv + ["--out", str(target)])
        capsys.readouterr()
        assert code == 0
        assert target.read_bytes() == stdout_text.encode("utf-8")

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        code, out, err = run_cli(["gain", "--antennas", "8", "--steps", "11",
                                  "--out", str(tmp_path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --out: ")

    def test_csv_uses_lf_and_full_precision(self, capsys):
        _, out, _ = run_cli(["gain", "--antennas", "8", "--steps", "11"], capsys)
        assert "\r" not in out
        cell = out.strip().split("\n")[1].split(",")[0]
        mantissa = cell.split("e")[0].replace("-", "").replace(".", "")
        assert len(mantissa) >= 12

    def test_console_script_installed(self):
        # The installed script, or else the entry point it names, run from
        # this checkout's sources: each exit code must cross the process.
        exe = shutil.which("beamsquint")
        env = dict(os.environ)
        if exe is None:
            src = str(Path(cli.__file__).resolve().parent.parent)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        command = ([exe] if exe else
                   [sys.executable, "-c", "from beamsquint.cli import entrypoint; entrypoint()"])
        for argv, code, err in [
            (["capacity", "--antennas", "16", "--frac-bandwidth", "0", "--psi-f", "0",
              "--psi", "0", "--snr-db", "0", "--subcarriers", "64"], 0, ""),
            (["capacity", "--antennas", "16", "--frac-bandwidth", "0.01", "--psi-f", "0",
              "--psi", "0", "--snr-db", "nan"], 2, "error: "),
            (["design", "--antennas", "42", "--frac-bandwidth", "0.0714", "--snr-db", "0",
              "--subcarriers", "64"], 3, "no codebook exists"),
        ]:
            proc = subprocess.run(command + argv, capture_output=True, text=True,
                                  timeout=120, env=env)
            assert proc.returncode == code
            assert ("capacity_bs" in proc.stdout) is (code == 0)
            assert proc.stderr.startswith(err) and (code or proc.stderr == "")
