import json
import math

import numpy as np
import pytest

from beamsquint import (ArrayConfig, BandConfig, capacity_threshold_3db, design_codebook,
                        serialize)
from beamsquint.experiments import SweepResult
from beamsquint.serialize import (codebook_to_csv, codebook_to_json, format_float,
                                  sweep_to_csv, sweep_to_json, to_json)

# Rows of Python and numpy floats at the edges of the float range.
EDGE_ROWS = ((-0.0, 0.0), (5e-324, -5e-324), (1.7976931348623157e308, 1 / 3),
             (np.float64(-2.5e-300), np.float64(math.pi)), ())


def small_sweep():
    return SweepResult(name="demo",
                       columns=(("x", "-"), ("y", "Hz")),
                       rows=((0.5, 1e9), (-0.25, 2.5e9)),
                       params={"sweep": "demo", "steps": 2, "flag": True,
                               "nested": {"values": [1, 2.5, "s"]}})


class TestFormatFloat:
    def test_seventeen_significant_digits(self):
        assert format_float(0.5) == "5.0000000000000000e-01"
        assert format_float(2.5 / 73) == "3.4246575342465752e-02"

    def test_lossless_round_trip(self):
        for x in (math.pi, 1 / 3, 0.886 / 64, 1e-300, 123456.789):
            assert float(format_float(x)) == x

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            format_float(float("nan"))
        with pytest.raises(ValueError):
            format_float(float("inf"))


class TestToJson:
    def test_is_valid_json_preserving_order(self):
        text = to_json({"b": 1, "a": [1.5, None, False]})
        doc = json.loads(text)
        assert list(doc) == ["b", "a"]
        assert doc["a"] == [1.5, None, False]

    def test_reserialising_parsed_output_is_identity(self):
        text = to_json({"x": 1 / 3, "rows": [[0.1, 2], [3.0, 4]], "s": "a\"b"})
        assert to_json(json.loads(text)) == text

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            to_json({"x": object()})


def expected_float(v) -> str:
    return format(float(v), ".16e")


class TestFloatTables:
    # Float rows and lists skip the per-value type dispatch of _emit; their
    # bytes must still be 17-digit scientific notation, value by value.
    def test_rows_match_scientific_notation(self):
        sr = SweepResult(name="edges", columns=(("x", "-"), ("y", "-")),
                         rows=EDGE_ROWS, params={})
        lines = [",".join(map(expected_float, row)) for row in EDGE_ROWS]
        assert sweep_to_csv(sr).split("\n")[1:] == lines + [""]
        rows = ["[" + ", ".join(map(expected_float, row)) + "]" for row in EDGE_ROWS]
        assert sweep_to_json(sr).endswith(
            '"rows": [\n    ' + ",\n    ".join(rows) + "\n  ]\n}\n")

    def test_float_list_matches_scientific_notation(self):
        for row in EDGE_ROWS:
            expected = "[" + ", ".join(map(expected_float, row)) + "]\n"
            assert to_json(list(row)) == expected

    def test_every_float_goes_through_format_float(self, monkeypatch):
        # Replacing format_float must reach every emitted float, so that a
        # perturbed formatter perturbs every document.
        monkeypatch.setattr(serialize, "format_float", lambda x: "F")
        sr = SweepResult(name="t", columns=(("x", "-"), ("y", "-")),
                         rows=((0.5, 2.0), (np.float64(1.0), 3.0)), params={"a": 1.5})
        assert sweep_to_csv(sr) == "x[-],y[-]\nF,F\nF,F\n"
        assert sweep_to_json(sr).endswith(
            '"a": F\n  },\n  "columns": [\n    ["x", "-"],\n    ["y", "-"]\n  ],\n'
            '  "rows": [\n    [F, F],\n    [F, F]\n  ]\n}\n')
        assert to_json([0.25, 1.0]) == "[F, F]\n"

    @pytest.mark.parametrize("rows", [
        [[1.0, 2.0], [3.0]],
        ((0.5,), [np.float64(1.5), 2.5]),
        [[1.0], []],
    ])
    def test_table_bytes_equal_row_by_row_emission(self, rows):
        # A sweep's rows are emitted as one table; the bytes are those of
        # emitting each row on its own.
        assert to_json({"rows": serialize._FloatTable(rows)}) == to_json({"rows": rows})
        assert to_json(serialize._FloatTable(())) == to_json([]) == "[]\n"

    @pytest.mark.parametrize("rows", [
        [[1, 2.0], [3.0]],
        [[True, 1.0]],
        [[[1.0]], [2.0]],
        [{"x": 1.0}, [1.0]],
        [[1.0], None],
    ])
    def test_other_lists_round_trip(self, rows):
        text = to_json({"rows": rows})
        assert json.loads(text) == {"rows": rows}
        assert to_json(json.loads(text)) == text

    def test_sweep_rows_are_floats_in_json_as_in_csv(self):
        sr = SweepResult(name="t", columns=(("x", "-"), ("y", "-")),
                         rows=((1, True),), params={})
        assert json.loads(sweep_to_json(sr))["rows"] == [[1.0, 1.0]]
        assert "[1.0000000000000000e+00, 1.0000000000000000e+00]" in sweep_to_json(sr)
        assert sweep_to_csv(sr).endswith("\n1.0000000000000000e+00,1.0000000000000000e+00\n")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_still_rejected(self, bad):
        with pytest.raises(ValueError):
            to_json([1.0, bad])
        with pytest.raises(ValueError):
            sweep_to_csv(SweepResult(name="bad", columns=(("x", "-"), ("y", "-")),
                                     rows=((1.0, 2.0), (1.0, np.float64(bad))),
                                     params={}))


class TestSweepSerialisation:
    def test_csv_layout(self):
        text = sweep_to_csv(small_sweep())
        lines = text.split("\n")
        assert lines[0] == "x[-],y[Hz]"
        assert lines[1].startswith("5.0000000000000000e-01,")
        assert text.endswith("\n")
        assert "\r" not in text

    def test_json_layout(self):
        doc = json.loads(sweep_to_json(small_sweep()))
        assert list(doc) == ["name", "params", "columns", "rows"]
        assert doc["columns"] == [["x", "-"], ["y", "Hz"]]
        assert doc["params"]["nested"]["values"] == [1, 2.5, "s"]


@pytest.fixture(scope="module")
def designed():
    arr = ArrayConfig(8)
    band = BandConfig(b=0.02, n_f=64, snr=1.0)
    cb = design_codebook(1.0, capacity_threshold_3db(band, arr), band, arr)
    return cb, band, arr


class TestCodebookSerialisation:
    def test_field_order_with_ratio(self, designed):
        cb, band, arr = designed
        doc = json.loads(codebook_to_json(cb, band, arr, r=math.sqrt(2) / 2))
        assert list(doc) == ["n", "b", "n_f", "snr", "psi_m", "r", "parity", "beams"]
        assert list(doc["beams"][0]) == ["focus", "left", "right", "width", "phases"]
        assert len(doc["beams"]) == cb.size
        assert all(len(beam["phases"]) == 8 for beam in doc["beams"])

    def test_field_order_with_threshold(self, designed):
        cb, band, arr = designed
        doc = json.loads(codebook_to_json(cb, band, arr))
        assert list(doc) == ["n", "b", "n_f", "snr", "psi_m", "c_t", "parity", "beams"]
        assert doc["c_t"] == cb.c_t

    def test_round_trip_bytes(self, designed):
        cb, band, arr = designed
        text = codebook_to_json(cb, band, arr, r=0.7)
        assert to_json(json.loads(text)) == text

    def test_csv_beam_table(self, designed):
        cb, _, _ = designed
        lines = codebook_to_csv(cb).strip().split("\n")
        assert lines[0] == "focus[-],left[-],right[-],width[-]"
        assert len(lines) == cb.size + 1
