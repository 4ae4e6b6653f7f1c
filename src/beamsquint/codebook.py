"""Capacity-constrained beam coverage and minimum-size codebook synthesis.

A beam focused on psi_F covers the angles where its squinted capacity stays
at or above a threshold c_t.  Because squint narrows coverage away from
broadside, codebooks that tile [-psi_m, psi_m] cannot use a fixed beam
pitch; instead beams are chained outward one by one, each new beam's left
coverage edge abutting the previous beam's right edge.  Both a broadside-
centred (odd-size) and an edge-started (even-size) chain are built and the
smaller codebook wins; a feasibility probe builds the even chain only when
the odd one fails.

Coverage edges and focus angles have no closed form; each is the root of a
monotone capacity equation on a bracket of half the no-squint beamwidth and
is found by the bracketed secant solver of :mod:`beamsquint.roots`, on the
side of the root where the beam meets c_t exactly.  When the capacity at a
required focus cannot reach the threshold, no codebook exists for that
fractional bandwidth; the largest workable bandwidth is itself located by
bisection on feasibility.

Synthesis is sequential per codebook; distinct designs share no mutable
state and may run concurrently.  Only the batched capacity calls of
:func:`coverage_check` use more than one core, through
:func:`~beamsquint.capacity.capacity_bs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .array_model import ArrayConfig
from .capacity import (BandConfig, _require_visible, beamwidth_nbs, capacity_bs,
                       capacity_slope_bound, capacity_threshold, gain_region)
from .errors import ConfigError, DomainError, InfeasibleError
from .roots import bisect

# A solved beam narrower than this cannot make progress at the solver's
# 1e-10 angular resolution; the design is declared infeasible.
_MIN_BEAM_WIDTH = 1e-9

# Hard cap on beams per chain; the count grows without bound only in the
# immediate neighbourhood of the feasibility boundary.
_MAX_BEAMS = 100_000

# Cap on estimate_bsup's feasibility probes; 2 / 2**60 is below any
# useful tol_b.
_BSUP_MAX_ITER = 60

# Relative capacity slack of coverage_check.
_COVERAGE_RTOL = 1e-6

# Runs of coverage_check's screen this short are evaluated point by point.
_DIRECT_POINTS = 4

# Relative allowance (of c_t) by which the screen's proof must clear the
# floor: far above the rounding error of one capacity evaluation, so a run
# proved by the slope bound also passes when evaluated point by point.
_SCREEN_ALLOWANCE = 1e-9

# Grid points per all-beam call of coverage_check's fallback: few enough
# that an uncovered point ends the check early, many enough to batch.
_FALLBACK_POINTS = 8


@dataclass(frozen=True)
class Beam:
    """One codebook entry: focus angle and solved coverage edges.

    The phase-shifter settings follow from the focus alone, see
    :func:`~beamsquint.array_model.steering_phases`.
    """

    focus: float
    left: float
    right: float

    @property
    def width(self) -> float:
        return self.right - self.left


@dataclass(frozen=True)
class Codebook:
    """Ordered beams whose coverages jointly span [-psi_m, psi_m]."""

    beams: tuple[Beam, ...]
    psi_m: float
    c_t: float

    @property
    def size(self) -> int:
        return len(self.beams)

    @property
    def parity(self) -> str:
        return "odd" if self.size % 2 else "even"


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of one codebook design attempt."""

    n: int
    b: float
    failing_focus: float | None = None
    size_if_feasible: int | None = None

    @property
    def feasible(self) -> bool:
        return self.size_if_feasible is not None


@dataclass(frozen=True)
class BsupFit:
    """Inverse-law fit of the bandwidth limit across array sizes."""

    a: float
    mean_deviation: float
    max_deviation: float
    bsup_by_n: dict[int, float]


def solve_right_edge(psi_f: float, c_t: float, band: BandConfig,
                     arr: ArrayConfig) -> float:
    """Right coverage edge of a beam focused on ``psi_f``.

    The squinted capacity decreases from its value at the focus through
    c_t somewhere inside half a no-squint beamwidth; the returned edge is
    the solver's end of that crossing where the capacity still meets c_t.
    With zero fractional bandwidth the edge sits exactly on the no-squint
    bracket boundary.

    Raises
    ------
    InfeasibleError
        If the capacity at the focus itself is already below ``c_t`` (the
        local signal that the fractional bandwidth is too large).
    """
    half = beamwidth_nbs(c_t, band, arr) / 2.0
    edge = bisect(
        lambda psi: capacity_bs(psi_f, psi, band, arr) - c_t, psi_f, psi_f + half)
    if edge is None:
        raise InfeasibleError(
            f"capacity at focus {psi_f} is below the threshold", psi_f)
    return edge


def solve_left_edge(psi_f: float, c_t: float, band: BandConfig,
                    arr: ArrayConfig) -> float:
    """Left coverage edge of a beam focused on ``psi_f``.

    The capacity is exactly symmetric under (psi_f, psi) -> (-psi_f, -psi),
    so this is the mirrored right edge of the beam focused on -psi_f.
    """
    try:
        return 0.0 - solve_right_edge(0.0 - psi_f, c_t, band, arr)
    except InfeasibleError as exc:
        if exc.failing_focus is None:
            raise
        raise InfeasibleError(
            f"capacity at focus {psi_f} is below the threshold", psi_f) from None


def solve_focus_from_left(psi_l: float, c_t: float, band: BandConfig,
                          arr: ArrayConfig) -> float:
    """Focus angle whose coverage starts exactly at ``psi_l``.

    As the focus moves right of ``psi_l`` the capacity delivered at
    ``psi_l`` falls; the focus is the point where it hits c_t, bracketed
    within half a no-squint beamwidth of ``psi_l``, taken on the side where
    the capacity at ``psi_l`` still meets c_t.

    Raises
    ------
    InfeasibleError
        If even a beam focused on ``psi_l`` itself cannot reach ``c_t``
        there (no bracketed root exists).
    """
    half = beamwidth_nbs(c_t, band, arr) / 2.0
    focus = bisect(
        lambda pf: capacity_bs(pf, psi_l, band, arr) - c_t, psi_l, psi_l + half)
    if focus is None:
        raise InfeasibleError(
            f"no focus can deliver the threshold at left edge {psi_l}", psi_l)
    return focus


def _grow_chain(start_right: float, psi_m: float, c_t: float, band: BandConfig,
                arr: ArrayConfig) -> list[tuple[float, float, float]]:
    """Chain (focus, left, right) triples rightward until psi_m is covered."""
    out: list[tuple[float, float, float]] = []
    right = start_right
    while right < psi_m:
        left = right
        focus = solve_focus_from_left(left, c_t, band, arr)
        edge = solve_right_edge(focus, c_t, band, arr)
        if edge - left < _MIN_BEAM_WIDTH:
            raise InfeasibleError(
                f"beam coverage collapsed below solver resolution at focus {focus}",
                focus)
        out.append((focus, left, edge))
        right = edge
        if len(out) > _MAX_BEAMS:
            raise InfeasibleError(
                f"beam count exceeded {_MAX_BEAMS} before reaching {psi_m}", focus)
    return out


def _assemble(positives: list[tuple[float, float, float]],
              centre: tuple[float, float, float] | None,
              psi_m: float, c_t: float) -> Codebook:
    """Mirror the positive-side chain about broadside and build the codebook."""
    # 0.0 - x rather than -x keeps a 0.0 edge from turning into -0.0.
    mirrored = [Beam(0.0 - f, 0.0 - r, 0.0 - l) for f, l, r in reversed(positives)]
    middle = [Beam(*centre)] if centre is not None else []
    ordered = mirrored + middle + [Beam(*t) for t in positives]
    return Codebook(beams=tuple(ordered), psi_m=psi_m, c_t=c_t)


def design_codebook(psi_m: float, c_t: float, band: BandConfig,
                    arr: ArrayConfig) -> Codebook:
    """Smallest broadside-symmetric codebook covering [-psi_m, psi_m].

    Runs two constructions and keeps the smaller:

    * odd size: a beam centred on broadside, then symmetric pairs chained
      outward from its right edge;
    * even size: the first positive-side beam's coverage starts at 0, so
      beams straddle broadside in pairs.

    The final chained beam may overshoot ``psi_m``; it is kept exactly as
    solved.  On a tie the odd construction is returned.

    Raises
    ------
    InfeasibleError
        When either edge or focus solving breaks down in both
        constructions: no codebook exists at this fractional bandwidth.
    """
    odd, even = _parities(psi_m, c_t, band, arr)
    books = [o for o in (odd, even) if isinstance(o, Codebook)]
    if not books:
        raise InfeasibleError(
            f"no codebook exists: {odd}", odd.failing_focus) from even
    return min(books, key=lambda cb: cb.size)


def _parities(psi_m: float, c_t: float, band: BandConfig,
              arr: ArrayConfig) -> Iterator[Codebook | InfeasibleError]:
    """The odd and then the even codebook, or the error that stopped each;
    a parity is built only when the caller asks for it."""
    if not 0.0 < psi_m <= 1.0:
        raise DomainError(f"psi_m must be in (0, 1], got {psi_m}")
    for build in (_odd_codebook, _even_codebook):
        try:
            yield build(psi_m, c_t, band, arr)
        except InfeasibleError as exc:
            yield exc


def _odd_codebook(psi_m: float, c_t: float, band: BandConfig,
                  arr: ArrayConfig) -> Codebook:
    """A beam centred on broadside, then pairs chained outward from its
    right edge."""
    r0 = solve_right_edge(0.0, c_t, band, arr)
    chain = _grow_chain(r0, psi_m, c_t, band, arr)
    return _assemble(chain, (0.0, 0.0 - r0, r0), psi_m, c_t)


def _even_codebook(psi_m: float, c_t: float, band: BandConfig,
                   arr: ArrayConfig) -> Codebook:
    """Pairs straddling broadside, the first coverage starting at 0."""
    return _assemble(_grow_chain(0.0, psi_m, c_t, band, arr), None, psi_m, c_t)


def assess_feasibility(psi_m: float, c_t: float, band: BandConfig,
                       arr: ArrayConfig) -> FeasibilityReport:
    """Attempt a design and report the outcome instead of raising."""
    try:
        cb = design_codebook(psi_m, c_t, band, arr)
    except InfeasibleError as exc:
        return FeasibilityReport(n=arr.n_antennas, b=band.b,
                                 failing_focus=exc.failing_focus)
    return FeasibilityReport(n=arr.n_antennas, b=band.b, size_if_feasible=cb.size)


def coverage_check(cb: Codebook, band: BandConfig, arr: ArrayConfig,
                   grid_step: float) -> bool:
    """Independently verify that the codebook covers [-psi_m, psi_m].

    True iff every grid angle has at least one beam whose squinted capacity
    meets ``c_t * (1 - 1e-6)`` there; the slack is relative, so the verdict
    is the same in bit/s and per unit bandwidth.  The grid is ``i *
    grid_step`` for every integer ``i`` with ``|i * grid_step| <= psi_m``,
    plus ``+-psi_m`` themselves, so it is exactly symmetric and holds 0.

    Every point is first tested against the beam with the nearest focus (a
    speed heuristic only).  A run of points with the same nearest beam
    passes without being evaluated when the capacity at its midpoint,
    less :func:`~beamsquint.capacity.capacity_slope_bound` times its
    half-width, still meets the floor; runs that cannot be proved are
    halved, and runs of at most ``_DIRECT_POINTS`` points are evaluated
    point by point.  A point passes only where the floor is proved or
    computed, so the verdict equals a point-by-point check.  The points
    that fail are tested against every beam, up to ``_FALLBACK_POINTS``
    points per call, and the first point that no beam covers ends the
    check.  The check depends only on the codebook and the model, never
    on a solver tolerance.
    """
    grid = _coverage_grid(cb.psi_m, grid_step)
    foci = np.array([beam.focus for beam in cb.beams])
    floor = cb.c_t * (1.0 - _COVERAGE_RTOL)

    idx = np.clip(np.searchsorted(foci, grid), 0, len(foci) - 1)
    left = np.clip(idx - 1, 0, len(foci) - 1)
    nearest = np.where(np.abs(foci[left] - grid) <= np.abs(foci[idx] - grid),
                       left, idx)
    missed = grid[_screen_runs(grid, foci[nearest], floor, cb.c_t, band, arr)]
    chunks = (missed[i:i + _FALLBACK_POINTS]
              for i in range(0, len(missed), _FALLBACK_POINTS))
    return all(np.any(capacity_bs(foci[:, np.newaxis], c, band, arr) >= floor, axis=0).all()
               for c in chunks)


def _screen_runs(grid: np.ndarray, focus: np.ndarray, floor: float, c_t: float,
                 band: BandConfig, arr: ArrayConfig) -> np.ndarray:
    """Mask of the grid points whose own ``focus`` misses ``floor``.

    Bisects each run of equal foci until it is proved by the slope bound
    or short enough to evaluate; each level is one batched capacity call.
    """
    slope = capacity_slope_bound(band, arr)
    margin = floor + _SCREEN_ALLOWANCE * c_t
    missed = np.zeros(len(grid), dtype=bool)
    cuts = np.flatnonzero(focus[1:] != focus[:-1]) + 1
    lo = np.concatenate(([0], cuts))
    hi = np.concatenate((cuts, [len(grid)]))
    while len(lo):
        short = hi - lo <= _DIRECT_POINTS
        points = lo[short, np.newaxis] + np.arange(_DIRECT_POINTS)
        points = points[points < hi[short, np.newaxis]]
        lo, hi = lo[~short], hi[~short]
        first, last = grid[lo], grid[hi - 1]
        caps = capacity_bs(np.concatenate((focus[points], focus[lo])),
                           np.concatenate((grid[points], 0.5 * (first + last))),
                           band, arr)
        missed[points] = caps[:len(points)] < floor
        unproved = caps[len(points):] - slope * (0.5 * (last - first)) < margin
        lo, hi = lo[unproved], hi[unproved]
        mid = (lo + hi) // 2
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
    return missed


def _coverage_grid(psi_m: float, step: float) -> np.ndarray:
    """Sorted ``i * step`` for every integer ``i`` with ``|i * step| <=
    psi_m``, plus ``+-psi_m``."""
    if not 0.0 < step < math.inf:
        raise ConfigError(f"grid_step must be finite and positive, got {step}")
    n = math.floor(psi_m / step) + 1  # past the last i, however the division rounds
    grid = np.arange(-n, n + 1) * step
    return np.unique(np.concatenate(([-psi_m, psi_m], grid[np.abs(grid) <= psi_m])))


def traditional_min_capacity(psi_f: float, r: float, band: BandConfig,
                             arr: ArrayConfig) -> float:
    """Worst squinted capacity over a squint-ignoring beam's assigned region.

    A conventional codebook assigns the beam the gain region for ratio
    ``r`` computed at the carrier only.  With squint the capacity sags
    toward the region edges; the minimum is taken over the two (clipped)
    edges.
    """
    _require_visible("psi_f", psi_f)
    region = gain_region(psi_f, r, arr)
    return min(capacity_bs(psi_f, region.lo, band, arr),
               capacity_bs(psi_f, region.hi, band, arr))


def improvement_ratio(psi_f: float, r: float, band: BandConfig,
                      arr: ArrayConfig) -> float:
    """Relative capacity gained by enforcing the threshold instead of using
    a squint-ignoring beam: (C_t - C_min) / C_min."""
    c_min = traditional_min_capacity(psi_f, r, band, arr)
    if c_min <= 0.0:
        raise DomainError(
            f"squinted capacity vanished at the region edge for psi_f={psi_f}")
    return (capacity_threshold(r, band, arr) - c_min) / c_min


def improvement_max(r: float, band: BandConfig, arr: ArrayConfig,
                    grid_step: float = 0.01) -> float:
    """Largest improvement ratio over all focus angles.

    The ratio is invariant under focus reflection, so only [0, 1] is
    scanned; the maximum sits at (or within a grid step of) endfire.
    """
    return max(improvement_ratio(float(pf), r, band, arr)
               for pf in _focus_grid(grid_step))


def _focus_grid(step: float) -> np.ndarray:
    """Focus angles 0, step, 2*step, ... up to endfire at 1, none past it."""
    if not 0.0 < step <= 1.0:
        raise ConfigError(f"focus grid step must be in (0, 1], got {step}")
    grid = np.arange(0.0, 1.0 + step / 2.0, step)
    return grid[grid <= 1.0]


def estimate_bsup(arr: ArrayConfig, r: float, snr: float, psi_m: float = 1.0,
                  tol_b: float = 1e-6, n_f: int = 2048) -> float:
    """Largest fractional bandwidth at which a codebook still exists.

    Bisects feasibility of :func:`design_codebook` over b in [0, 2); zero
    bandwidth is always feasible.  Feasibility is monotone in b across the
    sampled parameter space, which the test suite checks empirically.  A
    probe needs only some codebook, not the smallest, so it builds the odd
    chain and builds the even chain only when the odd one fails.
    """
    if not 0.0 < tol_b < 2.0:
        raise ConfigError(
            f"tol_b must be in (0, 2), the width of the b bracket, got {tol_b}")

    def feasible(b: float) -> bool:
        band = BandConfig(b=b, n_f=n_f, snr=snr)
        c_t = capacity_threshold(r, band, arr)
        return any(isinstance(o, Codebook) for o in _parities(psi_m, c_t, band, arr))

    lo, hi = 0.0, 2.0
    for _ in range(_BSUP_MAX_ITER):
        if hi - lo <= tol_b:
            break
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def fit_bsup_constant(n_values: Sequence[int], r: float, snr: float,
                      psi_m: float = 1.0, tol_b: float = 1e-6, n_f: int = 2048,
                      bsup_values: Sequence[float] | None = None) -> BsupFit:
    """Fit the inverse law bandwidth-limit ~ a/N across array sizes.

    Least squares on bsup(N)*N reduces to its mean; the per-N absolute
    deviations from ``a`` quantify how well the inverse law holds.  Pass
    ``bsup_values`` to fit precomputed estimates instead of re-running the
    feasibility bisections.
    """
    ns = list(n_values)
    if len(set(ns)) < 3:
        raise ConfigError(f"need at least 3 distinct array sizes, got {ns}")
    if bsup_values is None:
        bsup = [estimate_bsup(ArrayConfig(n), r, snr, psi_m, tol_b, n_f) for n in ns]
    else:
        bsup = list(bsup_values)
        if len(bsup) != len(ns):
            raise ConfigError("bsup_values length must match n_values")
    products = np.array([n * v for n, v in zip(ns, bsup)])
    a = float(np.mean(products))
    dev = np.abs(products - a)
    return BsupFit(a=a, mean_deviation=float(np.mean(dev)),
                   max_deviation=float(np.max(dev)),
                   bsup_by_n={n: v for n, v in zip(ns, bsup)})
