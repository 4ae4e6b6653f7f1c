"""Reproducible sweep generators for the package's numerical studies.

Every sweep returns a :class:`SweepResult` whose ``params`` mapping records
all inputs (including any RNG seed), so :func:`rerun` can reproduce the
rows bit for bit.  Sweep points are evaluated one after another, in
parameter order, on the calling thread: each is Python root-solver steps
around small capacity calls, so threads would only contend for the GIL.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .array_model import ArrayConfig, gain_mag
from .capacity import (R_3DB, BandConfig, _require_region_ratio, _require_visible,
                       capacity_bs, capacity_nbs, capacity_threshold,
                       spectral_efficiency_bs, squint_safe_range)
from .codebook import (_MAX_POINTS, _focus_grid, _inverse_law, _proved_infeasible,
                       _require_psi_m, _require_tol_b, assess_feasibility, estimate_bsup,
                       improvement_max, improvement_ratio)
from .errors import ConfigError

INFEASIBLE_MARKER = -1.0

_UNITS_NOTE = ("capacities in bit/s; per-point snr is p_over_sigma2_hz divided "
               "by the bandwidth of that point")


@dataclass(frozen=True)
class SweepResult:
    """Labelled numeric table plus the parameters that produced it.

    The parameters are emitted and re-run, so they must be finite; this
    also catches a NaN input that an empty size list left unused.
    """

    name: str
    columns: tuple[tuple[str, str], ...]
    rows: tuple[tuple[float, ...], ...]
    params: dict

    def __post_init__(self):
        bad = [key for key, value in self.params.items() if _has_non_finite(value)]
        if bad:
            raise ConfigError(f"{self.name}: non-finite {', '.join(bad)}")


def _has_non_finite(value) -> bool:
    """True if ``value`` holds a NaN or infinite float at any depth."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return any(_has_non_finite(v) for v in value)
    return isinstance(value, (float, np.floating)) and not math.isfinite(value)


def _bands(b_values: Sequence[float], n_f: int, snr: float) -> list[BandConfig]:
    """One band per fractional bandwidth, built before any sweep point so
    that an empty list of sizes or samples still checks every input;
    with no bandwidths, ``n_f`` and ``snr`` are checked alone."""
    bands = [BandConfig(b=b, n_f=n_f, snr=snr) for b in b_values]
    if not bands:
        BandConfig(b=0.0, n_f=n_f, snr=snr)
    return bands


def _require_steps(steps: int) -> None:
    if not 2 <= steps <= _MAX_POINTS:
        raise ConfigError(f"steps must be in [2, {_MAX_POINTS}], got {steps}")


def sweep_gain_pattern(arr: ArrayConfig, x_range: tuple[float, float] = (-1.0, 1.0),
                       steps: int = 1001) -> SweepResult:
    """Dense samples of the array gain magnitude over ``x_range``."""
    _require_steps(steps)
    if not np.all(np.isfinite(x_range)):
        raise ConfigError(f"x_range must be finite, got {tuple(x_range)}")
    xs = np.linspace(x_range[0], x_range[1], steps)
    mags = gain_mag(xs, arr)
    return SweepResult(
        name="gain-pattern",
        columns=(("x", "-"), ("gain", "-")),
        rows=tuple(zip(xs.tolist(), mags.tolist())),
        params={"sweep": "gain-pattern", "n_antennas": arr.n_antennas,
                "x_range": [float(x_range[0]), float(x_range[1])], "steps": int(steps)})


def sweep_capacity_vs_bandwidth(arrays: Sequence[ArrayConfig], psi_f: float,
                                psi: float, p_over_sigma2_hz: float, n_f: int,
                                bandwidth_range_hz: tuple[float, float] = (1e8, 7e9),
                                steps: int = 50,
                                carrier_hz: float = 73e9) -> SweepResult:
    """Squinted and ideal capacity versus absolute bandwidth.

    The transmit power scales with bandwidth so that p_over_sigma2 stays
    fixed; squint grows with bandwidth, so the squinted capacity rises and
    then falls while the ideal one keeps growing.
    """
    _require_steps(steps)
    if not all(0.0 < bw < math.inf for bw in bandwidth_range_hz):
        raise ConfigError("bandwidth_range_hz must be finite and positive, "
                          f"got {tuple(bandwidth_range_hz)}")
    _require_visible("psi_f", psi_f)
    _require_visible("psi", psi)
    bws = np.logspace(math.log10(bandwidth_range_hz[0]),
                      math.log10(bandwidth_range_hz[1]), steps)
    columns = [("bandwidth", "Hz")]
    for arr in arrays:
        columns.append((f"capacity_bs_n{arr.n_antennas}", "bit/s"))
        columns.append((f"capacity_nbs_n{arr.n_antennas}", "bit/s"))
    # One band per bandwidth, built before any point, so an empty size list
    # still checks every input.
    bands = [BandConfig.from_hz(bw, carrier_hz, n_f, snr=p_over_sigma2_hz / bw)
             for bw in bws.tolist()]

    def point(band: BandConfig) -> tuple[float, ...]:
        row = [band.bandwidth]
        for arr in arrays:
            row.append(capacity_bs(psi_f, psi, band, arr))
            row.append(capacity_nbs(psi_f, psi, band, arr))
        return tuple(row)

    rows = [point(band) for band in bands]
    return SweepResult(
        name="capacity-vs-bandwidth", columns=tuple(columns), rows=tuple(rows),
        params={"sweep": "capacity-vs-bandwidth",
                "n_antennas": [a.n_antennas for a in arrays],
                "psi_f": float(psi_f), "psi": float(psi),
                "p_over_sigma2_hz": float(p_over_sigma2_hz), "n_f": int(n_f),
                "bandwidth_range_hz": [float(bandwidth_range_hz[0]),
                                       float(bandwidth_range_hz[1])],
                "steps": int(steps), "carrier_hz": float(carrier_hz),
                "units_note": _UNITS_NOTE})


def sweep_improvement_vs_focus(arrays: Sequence[ArrayConfig], b: float, r: float,
                               snr: float, n_f: int = 2048,
                               psi_f_step: float = 0.01) -> SweepResult:
    """Capacity improvement ratio as the beam focus moves toward endfire."""
    grid = _focus_grid(psi_f_step)
    columns = [("psi_f", "-")]
    columns += [(f"improvement_n{arr.n_antennas}", "-") for arr in arrays]
    band = BandConfig(b=b, n_f=n_f, snr=snr)
    _require_region_ratio(r)

    def point(pf: float) -> tuple[float, ...]:
        return (pf,) + tuple(improvement_ratio(pf, r, band, arr) for arr in arrays)

    rows = [point(float(pf)) for pf in grid]
    return SweepResult(
        name="improvement-vs-focus", columns=tuple(columns), rows=tuple(rows),
        params={"sweep": "improvement-vs-focus",
                "n_antennas": [a.n_antennas for a in arrays],
                "b": float(b), "r": float(r), "snr": float(snr),
                "n_f": int(n_f), "psi_f_step": float(psi_f_step)})


def sweep_improvement_max_vs_b(arrays: Sequence[ArrayConfig],
                               b_values: Sequence[float] | None = None,
                               r: float = R_3DB, snr: float = 1.0,
                               n_f: int = 2048) -> SweepResult:
    """Worst-focus capacity improvement ratio versus fractional bandwidth."""
    if b_values is None:
        b_values = np.linspace(0.0, 0.05, 21)
    bs = [float(b) for b in b_values]
    columns = [("b", "-")]
    columns += [(f"improvement_max_n{arr.n_antennas}", "-") for arr in arrays]
    bands = _bands(bs, n_f, snr)
    _require_region_ratio(r)

    def point(band: BandConfig) -> tuple[float, ...]:
        return (band.b,) + tuple(improvement_max(r, band, arr) for arr in arrays)

    rows = [point(band) for band in bands]
    return SweepResult(
        name="improvement-max-vs-b", columns=tuple(columns), rows=tuple(rows),
        params={"sweep": "improvement-max-vs-b",
                "n_antennas": [a.n_antennas for a in arrays],
                "b_values": bs, "r": float(r), "snr": float(snr), "n_f": int(n_f)})


def sweep_codebook_size_vs_n(b_values: Sequence[float] | None = None,
                             n_values: Sequence[int] | None = None,
                             r: float = R_3DB, snr: float = 1.0,
                             psi_m: float = 1.0, n_f: int = 2048) -> SweepResult:
    """Minimum codebook size versus array size, one column per bandwidth.

    Defaults cover array sizes 8..128 at the four standard mmWave band
    ratios.  Infeasible combinations are marked with ``INFEASIBLE_MARKER``
    so the table stays numeric.  A combination well past the bandwidth
    limit is proved infeasible from the capacity at a beam's own focus
    before any chain is built, see :func:`~beamsquint.codebook._proved_infeasible`;
    the others are designed in full.
    """
    if b_values is None:
        b_values = (0.0179, 0.0342, 0.0417, 0.0714)
    if n_values is None:
        n_values = range(8, 129, 8)
    bs = [float(b) for b in b_values]
    ns = [int(n) for n in n_values]
    columns = [("n_antennas", "count")]
    columns += [(f"size_b{b:g}", "count") for b in bs]
    bands = _bands(bs, n_f, snr)
    _require_region_ratio(r)
    _require_psi_m(psi_m)

    def row_for(n: int) -> tuple[float, ...]:
        arr = ArrayConfig(n)
        row = [float(n)]
        for band in bands:
            c_t = capacity_threshold(r, band, arr)
            size = INFEASIBLE_MARKER
            if not _proved_infeasible(psi_m, c_t, band, arr):
                report = assess_feasibility(psi_m, c_t, band, arr)
                if report.feasible:
                    size = float(report.size_if_feasible)
            row.append(size)
        return tuple(row)

    rows = [row_for(n) for n in ns]
    return SweepResult(
        name="codebook-size-vs-n", columns=tuple(columns), rows=tuple(rows),
        params={"sweep": "codebook-size-vs-n", "b_values": bs, "n_values": ns,
                "r": float(r), "snr": float(snr), "psi_m": float(psi_m),
                "n_f": int(n_f), "infeasible_marker": INFEASIBLE_MARKER})


def verify_facts(fact1_samples: int = 2000, fact2_samples: int = 2000,
                 seed: int = 20240809, n_f: int = 256, snr: float = 1.0,
                 n_range: tuple[int, int] = (4, 128), b_max: float = 0.1,
                 fact3_n_values: Sequence[int] = (16, 32, 64),
                 fact3_r: float = R_3DB, fact3_psi_m: float = 1.0,
                 fact3_tol_b: float = 1e-4,
                 fact3_rel_tol: float = 0.05) -> SweepResult:
    """Randomised verification ledger for the three structural claims.

    Row per claim: (claim id, points checked, violations, worst margin).

    1. squint never raises capacity on the squint-safe angle range
       (margin: capacity excess over the ideal value, incl. 1e-9 slack);
    2. spectral efficiency is nonincreasing in fractional bandwidth on the
       wider band's safe range (margin: efficiency excess, incl. 1e-12
       slack);
    3. the bandwidth limit scales as a/N (margin: worst relative deviation
       of bsup*N from the fitted constant; violation above
       ``fact3_rel_tol``).

    Violating sample points are recorded under ``params["witnesses"]``.
    """
    if min(fact1_samples, fact2_samples, seed) < 0:
        raise ConfigError("sample counts and seed must be >= 0, got "
                          f"{fact1_samples}, {fact2_samples} and {seed}")
    if not 1e-6 <= b_max < 2.0:  # fact 2 draws b from [1e-6, b_max)
        raise ConfigError(f"b_max must be in [1e-6, 2), got {b_max}")
    if len(n_range) != 2 or not 2 <= n_range[0] <= n_range[1]:
        raise ConfigError(f"n_range must be (lo, hi) with 2 <= lo <= hi, got {tuple(n_range)}")
    _bands((), n_f, snr)
    _require_tol_b(fact3_tol_b)
    _require_region_ratio(fact3_r)
    _require_psi_m(fact3_psi_m)
    rng = np.random.default_rng(seed)

    def sample(count: int, b_lo: float, pair: bool,
               check: Callable[..., tuple[float, list]]) -> tuple[float, list]:
        """Worst margin of ``check`` over ``count`` points (0.0 for none) and a
        witness per positive margin.  A point draws an array, fractional
        bandwidths, a focus and an arrival angle in the widest bandwidth's
        squint-safe range, in that order, and is redrawn, with no angle, when
        that range misses [-1, 1].  The widest bandwidth b comes from [b_lo,
        b_max); with ``pair`` a narrower one from [0, b) precedes it."""
        worst, witnesses = -math.inf, []
        while count > 0:
            arr = ArrayConfig(int(rng.integers(n_range[0], n_range[1] + 1)))
            b = float(rng.uniform(b_lo, b_max))
            bs = (float(rng.uniform(0.0, b)), b) if pair else (b,)
            psi_f = float(rng.uniform(-1.0, 1.0))
            lo, hi = squint_safe_range(psi_f, b, arr)
            lo, hi = max(lo, -1.0), min(hi, 1.0)
            if lo >= hi:
                continue
            psi = float(rng.uniform(lo, hi))
            margin, values = check(arr, [BandConfig(b=x, n_f=n_f, snr=snr) for x in bs],
                                   psi_f, psi)
            worst = max(worst, margin)
            if margin > 0.0:
                witnesses.append([arr.n_antennas, *bs, psi_f, psi, *values])
            count -= 1
        return (worst if math.isfinite(worst) else 0.0), witnesses

    def fact1(arr, bands, psi_f, psi):
        cbs = capacity_bs(psi_f, psi, bands[0], arr)
        cnbs = capacity_nbs(psi_f, psi, bands[0], arr)
        return cbs - cnbs * (1.0 + 1e-9), [cbs, cnbs]

    def fact2(arr, bands, psi_f, psi):
        e1, e2 = (spectral_efficiency_bs(psi_f, psi, band, arr) for band in bands)
        return e2 - e1 - 1e-12, [e1, e2]

    worst1, found1 = sample(fact1_samples, 0.0, False, fact1)
    worst2, found2 = sample(fact2_samples, 1e-6, True, fact2)

    # The ledger takes any number of sizes, where the fit needs three.
    ns = [int(n) for n in fact3_n_values]
    bsup = [estimate_bsup(ArrayConfig(n), fact3_r, snr, fact3_psi_m, fact3_tol_b, n_f=n_f)
            for n in ns]
    a, v3, worst3 = 0.0, 0, 0.0
    if ns:
        a, dev = _inverse_law(ns, bsup)
        rel_dev = dev / a
        v3 = int(np.sum(rel_dev > fact3_rel_tol))
        worst3 = float(np.max(rel_dev))

    rows = ((1.0, float(fact1_samples), float(len(found1)), float(worst1)),
            (2.0, float(fact2_samples), float(len(found2)), float(worst2)),
            (3.0, float(len(ns)), float(v3), worst3))
    return SweepResult(
        name="verify-facts",
        columns=(("fact", "-"), ("checked", "count"),
                 ("violations", "count"), ("worst_margin", "-")),
        rows=rows,
        params={"sweep": "verify-facts", "fact1_samples": int(fact1_samples),
                "fact2_samples": int(fact2_samples), "seed": int(seed),
                "n_f": int(n_f), "snr": float(snr),
                "n_range": [int(n_range[0]), int(n_range[1])],
                "b_max": float(b_max), "fact3_n_values": ns,
                "fact3_r": float(fact3_r), "fact3_psi_m": float(fact3_psi_m),
                "fact3_tol_b": float(fact3_tol_b),
                "fact3_rel_tol": float(fact3_rel_tol),
                "fact3_a": a,
                "fact3_bsup": {str(n): v for n, v in zip(ns, bsup)},
                "witnesses": {"fact1": found1, "fact2": found2}})


# Keys in params that are emitted metadata rather than sweep inputs.
_METADATA_KEYS = {"units_note", "infeasible_marker", "witnesses", "fact3_a",
                  "fact3_bsup"}


_SWEEPS: dict[str, Callable[..., SweepResult]] = {
    "gain-pattern": sweep_gain_pattern,
    "capacity-vs-bandwidth": sweep_capacity_vs_bandwidth,
    "improvement-vs-focus": sweep_improvement_vs_focus,
    "improvement-max-vs-b": sweep_improvement_max_vs_b,
    "codebook-size-vs-n": sweep_codebook_size_vs_n,
    "verify-facts": verify_facts,
}


def rerun(params: Mapping) -> SweepResult:
    """Re-execute a sweep from its emitted ``params`` mapping.

    The remaining inputs are passed to the sweep as keywords; ``n_antennas``
    is decoded to the sweep's ``arr`` (one size) or ``arrays`` (a list)
    argument.  The result's rows are reproduced bit for bit.  Keys that the
    sweep does not take, its required inputs that are absent, and a size
    list where it takes one size or the reverse raise ConfigError.
    """
    p = {k: v for k, v in dict(params).items() if k not in _METADATA_KEYS}
    kind = p.pop("sweep", None)
    if kind not in _SWEEPS:
        raise ConfigError(f"unknown sweep kind: {kind!r}")
    signature = inspect.signature(_SWEEPS[kind]).parameters
    takes = {"n_antennas" if k in ("arr", "arrays") else k: q for k, q in signature.items()}
    unknown = sorted(set(p) - set(takes))
    missing = [k for k, q in takes.items() if q.default is q.empty and k not in p]
    if unknown or missing:
        raise ConfigError(f"{kind} params: unknown {unknown}, missing {missing}")
    if "n_antennas" in p:
        n = p.pop("n_antennas")
        if "arr" in signature:
            p["arr"] = ArrayConfig(n)
        elif isinstance(n, list):
            p["arrays"] = [ArrayConfig(k) for k in n]
        else:
            raise ConfigError(f"{kind} params: n_antennas must be a list, got {n!r}")
    return _SWEEPS[kind](**p)
