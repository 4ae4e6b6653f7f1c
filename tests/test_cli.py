import json
import math
import shutil
import subprocess

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamsquint import cli, rerun, serialize

ABSTRACT_DESIGN = [
    "design", "--antennas", "64", "--bandwidth-hz", "2.5e9", "--carrier-hz",
    "73e9", "--subcarriers", "2048", "--snr-db", "0", "--r",
    "0.7071067811865476", "--psi-m", "1", "--format", "json",
]


FOCUS_SWEEP = ["sweep", "--kind", "improvement-vs-focus", "--n-list", "16",
               "--frac-bandwidth", "0.03", "--subcarriers", "64"]
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


class TestConfigErrors:
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

    def test_odd_subcarriers_names_flag(self, capsys):
        code, _, err = run_cli(
            ["capacity", "--antennas", "16", "--frac-bandwidth", "0.01",
             "--psi-f", "0", "--psi", "0", "--snr-db", "0",
             "--subcarriers", "63"], capsys)
        assert code == 2
        assert "--subcarriers" in err

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
    ], ids=["snr-nan", "snr-inf", "ct-nan", "tol-b-nan", "x-min-nan",
            "psi-out-of-range", "psi-f-step-0", "psi-f-step-nan",
            "psi-f-step-negative", "bw-min-negative", "bw-min-0",
            "sweep-psi-f-nan", "tol-b-inf", "improvement-psi-f-nan",
            "b-max-nan", "b-max-negative", "fact1-samples-negative",
            "seed-negative", "unused-nan-b", "snr-db-overflow",
            "tol-b-bracket-width", "carrier-inf", "improvement-psi-f-above-1",
            "improvement-psi-f-below-minus-1", "sweep-angles-out-of-range"])
    def test_non_finite_or_out_of_domain_exits_2(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_bad_fractional_bandwidth_names_flag(self, capsys):
        code, _, err = run_cli(
            ["capacity", "--antennas", "16", "--frac-bandwidth", "2.5",
             "--psi-f", "0", "--psi", "0", "--snr-db", "0"], capsys)
        assert code == 2
        assert "--frac-bandwidth" in err


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
# The value flags of every subcommand but verify, whose default sample
# counts take minutes; --format and --out only choose where output goes.
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
}
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
        exe = shutil.which("beamsquint")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run(
            [exe, "capacity", "--antennas", "16", "--frac-bandwidth", "0",
             "--psi-f", "0", "--psi", "0", "--snr-db", "0",
             "--subcarriers", "64"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert "capacity_bs" in proc.stdout
