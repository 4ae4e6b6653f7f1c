"""Deterministic CSV and JSON emission.

Floats are always written as 17-significant-digit scientific notation,
which round-trips exactly: parsing an emitted document and re-serialising
it reproduces the same bytes.  The stdlib ``json`` module cannot control
float formatting, hence the small writer here; ``json.loads`` parses the
output normally.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .array_model import ArrayConfig, steering_phases
from .capacity import BandConfig
from .codebook import Codebook
from .experiments import SweepResult

_INDENT = "  "


def format_float(x: float) -> str:
    """Decimal form of a float with 17 significant digits (lossless)."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialise non-finite value {x}")
    return format(x, ".16e")


def _emit(obj: Any, level: int) -> str:
    pad = _INDENT * (level + 1)
    close_pad = _INDENT * level
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f"{pad}{json.dumps(str(k))}: {_emit(v, level + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + "\n" + close_pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(_is_scalar(v) for v in obj):
            return "[" + ", ".join(_emit(v, level + 1) for v in obj) + "]"
        parts = [f"{pad}{_emit(v, level + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + close_pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialise {type(obj).__name__}")


def _is_scalar(v: Any) -> bool:
    return v is None or isinstance(v, (bool, int, float, str, np.integer, np.floating))


def to_json(obj: Any) -> str:
    """Serialise nested dicts/lists/scalars to JSON text ending in LF."""
    return _emit(obj, 0) + "\n"


def codebook_to_json(cb: Codebook, band: BandConfig, arr: ArrayConfig,
                     r: float | None = None) -> str:
    """Codebook wire format.

    Field order is fixed; ``r`` is emitted when the threshold was specified
    as a gain ratio, otherwise the capacity threshold itself appears.
    """
    doc: dict[str, Any] = {
        "n": arr.n_antennas,
        "b": band.b,
        "n_f": band.n_f,
        "snr": band.snr,
        "psi_m": cb.psi_m,
    }
    if r is not None:
        doc["r"] = r
    else:
        doc["c_t"] = cb.c_t
    doc["parity"] = cb.parity
    doc["beams"] = [
        {"focus": beam.focus, "left": beam.left, "right": beam.right,
         "width": beam.width,
         "phases": [float(p) for p in steering_phases(beam.focus, arr)]}
        for beam in cb.beams
    ]
    return to_json(doc)


def codebook_to_csv(cb: Codebook) -> str:
    """Beam table without phases (use JSON for the full codebook)."""
    lines = ["focus[-],left[-],right[-],width[-]"]
    for beam in cb.beams:
        lines.append(",".join(format_float(v)
                              for v in (beam.focus, beam.left, beam.right, beam.width)))
    return "\n".join(lines) + "\n"


def sweep_to_csv(sr: SweepResult) -> str:
    """Header ``label[unit],...`` then one LF-terminated line per row."""
    lines = [",".join(f"{label}[{unit}]" for label, unit in sr.columns)]
    for row in sr.rows:
        lines.append(",".join(format_float(v) for v in row))
    return "\n".join(lines) + "\n"


def sweep_to_json(sr: SweepResult) -> str:
    return to_json({
        "name": sr.name,
        "params": sr.params,
        "columns": [[label, unit] for label, unit in sr.columns],
        "rows": [list(row) for row in sr.rows],
    })
