"""Independent reference computations used to pin expected test values.

These deliberately avoid the library's solvers: magnitudes come from the
closed form written out here, widths from a fresh bisection on it, and
roots from brute-force grid scans.  The exception is the straightforward
versions of the package's screened, early-stopping or in-place paths,
which those paths must agree with: ``ref_capacity_bs``,
``exhaustive_coverage_check``, ``both_parity_bsup`` and
``ref_improvement_max``.
"""

from __future__ import annotations

import math

import numpy as np

from beamsquint import (BandConfig, assess_feasibility, capacity_bs, capacity_threshold,
                        gain_mag, improvement_ratio)
from beamsquint.codebook import _coverage_grid, _focus_grid


def ref_gain_mag(x: float, n: int) -> float:
    """Closed-form gain magnitude, written independently of the package."""
    s = math.sin(math.pi * x / 2.0)
    if s == 0.0:
        return math.sqrt(n)
    return abs(math.sin(n * math.pi * x / 2.0) / (math.sqrt(n) * s))


def ref_capacity_bs(psi_f: float, psi: float, band, arr) -> float:
    """Squinted capacity as one plain numpy expression, B/n_f * sum(log2(1 +
    snr*gain_mag(x)**2)) over the squinted angles x; the package's in-place
    kernel must equal it bit for bit."""
    x = band.ratios * psi - psi_f
    return float(band.bandwidth / band.n_f * np.sum(
        np.log2(1.0 + band.snr * gain_mag(x, arr) ** 2), axis=-1))


def ref_halfwidth(r: float, n: int) -> float:
    """Half-width where the gain falls to r*sqrt(N), bisected to 1e-13."""
    target = r * math.sqrt(n)
    lo, hi = 0.0, 2.0 / n
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if ref_gain_mag(mid, n) >= target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scan_last_at_or_above(fn, lo: float, hi: float, level: float,
                          step: float = 1e-6) -> float:
    """Largest grid point in [lo, hi] where fn(x) >= level (1e-6 grid)."""
    grid = np.arange(lo, hi + step, step)
    values = np.array([fn(float(x)) for x in grid])
    hits = np.where(values >= level)[0]
    return float(grid[hits[-1]])


def scan_first_at_or_above(fn, lo: float, hi: float, level: float,
                           step: float = 1e-6) -> float:
    """Smallest grid point in [lo, hi] where fn(x) >= level (1e-6 grid)."""
    grid = np.arange(lo, hi + step, step)
    values = np.array([fn(float(x)) for x in grid])
    hits = np.where(values >= level)[0]
    return float(grid[hits[0]])


def exhaustive_coverage_check(cb, band, arr, grid_step: float) -> bool:
    """Point-by-point reference for ``coverage_check``: every grid point is
    evaluated against the beam with the nearest focus, and the points that
    miss the floor are evaluated against every beam."""
    grid = _coverage_grid(cb.psi_m, grid_step)
    foci = np.array([beam.focus for beam in cb.beams])
    floor = cb.c_t * (1.0 - 1e-6)
    idx = np.clip(np.searchsorted(foci, grid), 0, len(foci) - 1)
    left = np.clip(idx - 1, 0, len(foci) - 1)
    nearest = np.where(np.abs(foci[left] - grid) <= np.abs(foci[idx] - grid),
                       left, idx)
    missed = grid[capacity_bs(foci[nearest], grid, band, arr) < floor]
    return all(np.any(capacity_bs(foci[:, np.newaxis], missed[i:i + 8], band, arr)
                      >= floor, axis=0).all()
               for i in range(0, len(missed), 8))


def ref_improvement_max(r: float, band, arr, grid_step: float = 0.01) -> float:
    """``improvement_max`` without its screen: the largest improvement ratio
    of every focus, evaluated in grid order."""
    return max(improvement_ratio(float(pf), r, band, arr) for pf in _focus_grid(grid_step))


def both_parity_bsup(arr, r: float, snr: float, psi_m: float = 1.0,
                     tol_b: float = 1e-6, n_f: int = 2048) -> float:
    """``estimate_bsup``'s bisection with each probe a full two-parity
    ``assess_feasibility`` design."""
    lo, hi = 0.0, 2.0
    for _ in range(60):
        if hi - lo <= tol_b:
            break
        mid = 0.5 * (lo + hi)
        band = BandConfig(b=mid, n_f=n_f, snr=snr)
        if assess_feasibility(psi_m, capacity_threshold(r, band, arr), band, arr).feasible:
            lo = mid
        else:
            hi = mid
    return lo


def long_double_capacity(psi_f, psi, band, n: int) -> np.ndarray:
    """C(psi_f, psi) at each pair of ``psi_f`` and ``psi`` taken in long
    double at the band's stored ratios: offsets xi*psi - psi_f and the
    closed-form gain, each squinted offset exactly 0 taking the limit
    sqrt(N)."""
    ld = np.longdouble
    pi = 4 * np.arctan(ld(1))
    pf, ps = (np.asarray(a, dtype=ld)[:, np.newaxis] for a in (psi_f, psi))
    x = band.ratios.astype(ld) * ps - pf
    den = np.sin(pi * x / 2)
    safe = np.where(den == 0, ld(1), den)
    g2 = np.where(den == 0, ld(n), (np.sin(n * pi * x / 2) / safe) ** 2 / n)
    return (ld(band.bandwidth) / band.n_f * np.log2(1 + ld(band.snr) * g2).sum(axis=-1))


def pair_asymmetry(ratios: np.ndarray) -> float:
    """max |xi_k + xi_{n-1-k} - 2| over a subcarrier grid's pairs, exactly.

    Each pair's sum s is split into its rounded value and its exact error
    (Knuth's two-sum); s - 2 is exact (Sterbenz), and so is its sum with
    the error, a small multiple of the pair's smaller ulp.
    """
    x, y = ratios, ratios[::-1]
    s = x + y
    t = s - x
    error = (x - (s - t)) + (y - t)
    return float(np.max(np.abs((s - 2.0) + error)))
