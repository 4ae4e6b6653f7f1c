"""Capacity-constrained beam coverage and minimum-size codebook synthesis.

A beam focused on psi_F covers the angles where its squinted capacity stays
at or above a threshold c_t.  Because squint narrows coverage away from
broadside, codebooks that tile [-psi_m, psi_m] cannot use a fixed beam
pitch; instead beams are chained outward one by one, each new beam's left
coverage edge abutting the previous beam's right edge.  Both a broadside-
centred (odd-size) and an edge-started (even-size) chain are built and the
smaller codebook wins; a feasibility probe builds one chain, the parity
that succeeded on the previous feasible probe first, and the other only
when that one fails.  A probe, or a cell of the codebook-size sweep, that
is proved infeasible in advance builds neither (see below).

Coverage edges and focus angles have no closed form; each is the root of a
monotone capacity equation on a bracket of half the no-squint beamwidth and
is found by the bracketed secant solver of :mod:`beamsquint.roots`, on the
side of the root where the beam meets c_t exactly.  The band pairs each
subcarrier ratio xi with 2 - xi and the gain is even in its offset, so
C(2*psi - f, psi) = C(f, psi): each focus is the previous one mirrored
about their shared edge, taken unsolved where a rounding margin proves
it.  Each right edge starts from a root and slope extrapolated from the
chain's earlier edges, so most edge solves take two capacity
evaluations.  Nothing is carried from one chain to the next, so a
parity's beams do not depend on which parity is built first.
The capacity at a solve's bracket start, C(psi, psi) at a focus or at a
left edge, is evaluated only where :func:`_certified_reach` does not prove
its sign, so every result is the same bits.  When the capacity at a required
focus cannot reach the threshold, no codebook exists for that fractional
bandwidth.  Every chain starts a beam within one no-squint beamwidth below
psi_m, so where C(psi, psi) is proved below c_t on that whole interval, by
a few batched evaluations and a slope bound (see
:func:`_proved_infeasible`), both chains fail and a feasibility verdict
needs neither; :func:`design_codebook` still builds both, to name where
each fails.  The largest workable bandwidth is itself located by bisection
on feasibility.

Synthesis is sequential per codebook and runs on the calling thread, as
does every check; distinct designs share no mutable state and may run
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .array_model import ArrayConfig
from .capacity import (BandConfig, _max_offset_ratio, _mirror_margin,
                       _on_focus_slope_bound, _require_finite_positive,
                       _require_visible, _sign_margin, beamwidth_nbs, capacity_bs,
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

# Capacity evaluations _proved_infeasible may spend before it leaves a
# verdict to the chains; 16 proves the same 23 cells of the default size
# sweep as 256 does.
_PROOF_POINTS = 16

# Grid points per all-beam call of coverage_check's fallback: few enough
# that an uncovered point ends the check early, many enough to batch.
_FALLBACK_POINTS = 8

# Degrees of the polynomials in the beam index that extrapolate a chain's
# right edges and the slopes of its edge solves at them.
_ORDER = 6
_SLOPE_ORDER = 2
# A chain solve's second probe lands this many times the expected error of
# its Newton point past that point.
_SPREAD_GAIN = 4.0
# Error assumed, as a share of the offset, for the first prediction of a
# chain's edges, which repeats the first edge's offset.
_FIRST_ERROR = 2.5e-3


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
    """Outcome of one codebook design attempt; an infeasible one names the
    odd size's failing focus in ``failing_focus`` and the even size's in
    ``even_focus``, as :class:`~beamsquint.errors.InfeasibleError` does."""

    n: int
    b: float
    failing_focus: float | None = None
    size_if_feasible: int | None = None
    even_focus: float | None = None

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
                     arr: ArrayConfig, *, track: _Track | None = None,
                     reach: float = -1.0) -> float:
    """Right coverage edge of a beam focused on ``psi_f``.

    The squinted capacity decreases from its value at the focus through
    c_t somewhere inside half a no-squint beamwidth; the returned edge is
    the solver's end of that crossing where the capacity still meets c_t.
    With zero fractional bandwidth the edge sits exactly on the no-squint
    bracket boundary.  ``track``, a chain's record of its earlier edges
    (see :class:`_Track`), predicts the edge and its slope for
    :func:`~beamsquint.roots.bisect` and records this one; the edge meets
    the same conditions with or without it.  ``reach`` is an angle such
    that the capacity C(psi, psi) at a beam's own focus is proved to meet
    ``c_t`` for every |psi| <= reach, as :func:`_certified_reach` proves
    it; a focus within it spares the solver that evaluation, and the
    default proves nothing.  The edge is the same bits either way.

    Raises
    ------
    InfeasibleError
        If the capacity at the focus itself is already below ``c_t`` (the
        local signal that the fractional bandwidth is too large).
    """
    half = beamwidth_nbs(c_t, band, arr) / 2.0
    track = track or _Track()
    edge = bisect(track.watch(lambda psi: capacity_bs(psi_f, psi, band, arr) - c_t),
                  psi_f, psi_f + half, *track.hint(psi_f), good_proved=abs(psi_f) <= reach)
    if edge is None:
        raise InfeasibleError(
            f"capacity at focus {psi_f} is below the threshold", psi_f)
    track.observe(psi_f, edge)
    return edge


def solve_focus_from_left(psi_l: float, c_t: float, band: BandConfig,
                          arr: ArrayConfig, *, guess: float | None = None,
                          reach: float = -1.0) -> float:
    """Focus angle whose coverage starts exactly at ``psi_l``.

    As the focus moves right of ``psi_l`` the capacity delivered at
    ``psi_l`` falls; the focus is the point where it hits c_t, bracketed
    within half a no-squint beamwidth of ``psi_l``, taken on the side where
    the capacity at ``psi_l`` still meets c_t.  A predicted focus
    ``guess`` is probed, then a point just past it; the focus meets the
    same conditions with or without it.  ``reach`` is as in
    :func:`solve_right_edge`, for C(psi_l, psi_l).

    Raises
    ------
    InfeasibleError
        If even a beam focused on ``psi_l`` itself cannot reach ``c_t``
        there (no bracketed root exists).
    """
    half = beamwidth_nbs(c_t, band, arr) / 2.0
    focus = bisect(lambda pf: capacity_bs(pf, psi_l, band, arr) - c_t,
                   psi_l, psi_l + half, guess, good_proved=abs(psi_l) <= reach)
    if focus is None:
        raise _no_focus(psi_l)
    return focus


def _no_focus(psi_l: float) -> InfeasibleError:
    return InfeasibleError(f"no focus can deliver the threshold at left edge {psi_l}",
                           psi_l)


class _Track:
    """The right edges along a chain, each from its beam's focus, and the
    prediction of the next.

    Each solve's final bracket gives the slope of its predicate, from the
    bracket's two values, and its root, the secant point between them,
    which unlike the bracket's quantised end is smooth along the chain.
    The next root's offset from its base angle is extrapolated by the
    polynomial through the last ``_ORDER + 1`` offsets, and its slope by
    the one through the last ``_SLOPE_ORDER + 1`` slopes, each taken
    against the beam index.  The spread is ``_SPREAD_GAIN`` times the
    error expected of the Newton point: the larger of the last two
    predictions' errors, times the larger of the last two Newton points'
    errors as a share of their steps, so that a Newton miss widens the next
    spreads.  Before a Newton point has been seen the share is 1, which
    leaves the spread past the guess that a prediction alone would take.
    The last offset also starts the next focus solve, see
    :func:`_grow_chain`.
    """

    def __init__(self):
        self.offsets: list[float] = []
        self.slopes: list[float] = []
        self.errors: list[float] = []  # of each prediction
        self.shares: list[float] = []  # of each Newton point, per unit of its step
        self.guess: float | None = None
        self.slope = math.nan  # the slope predicted with the guess
        self.at_guess = math.nan  # the predicate's value at the guess
        self.ends: dict[bool, tuple[float, float]] = {}

    def hint(self, base: float) -> tuple[float | None, float, float]:
        """The predicted root at ``base`` (``None`` before the first
        root), the spread and the predicted slope."""
        if not self.offsets:
            return None, 0.0, math.nan
        self.guess = base + _extrapolate(self.offsets, _ORDER)
        self.slope = _extrapolate(self.slopes, _SLOPE_ORDER)
        spread = (_SPREAD_GAIN * max(self.errors[-2:])
                  * max(self.shares[-2:], default=1.0))
        return self.guess, spread, self.slope

    def watch(self, f: Callable[[float], float]) -> Callable[[float], float]:
        """``f``, recording its value at the guess and the last value on
        each side of zero: a bracketing solver evaluates only inside its
        bracket and moves the end of the value's sign, so these are the
        final bracket's ends."""
        self.ends = {}
        self.at_guess = math.nan

        def watched(x: float) -> float:
            value = f(x)
            self.ends[value >= 0.0] = (x, value)
            if x == self.guess:
                self.at_guess = value
            return value
        return watched

    def observe(self, base: float, root: float) -> None:
        """Record the root that the solve from ``base`` returned, with the
        values seen by :meth:`watch`."""
        slope = math.nan
        if len(self.ends) == 2:
            (xg, fg), (xb, fb) = self.ends[True], self.ends[False]
            slope = (fb - fg) / (xb - xg)
            root = xg - fg / slope
        if self.guess is None:
            self.errors.append(_FIRST_ERROR * abs(root - base))
        else:
            self.errors.append(abs(self.guess - root))
            step = self.at_guess / self.slope if self.slope else math.nan
            if step and math.isfinite(step):
                self.shares.append(abs(self.guess - step - root) / abs(step))
        self.offsets.append(root - base)
        self.slopes.append(slope)


def _extrapolate(ys: Sequence[float], order: int) -> float:
    """The next value of the sequence ``ys``, extrapolated by the polynomial
    through its last ``order + 1`` values (or all of them, if fewer)."""
    ys = ys[-order - 1:]
    k = len(ys)
    return sum((-1) ** (k - 1 - i) * math.comb(k, i) * y for i, y in enumerate(ys))


def _grow_chain(start: Beam | None, edges: _Track, psi_m: float, c_t: float,
                band: BandConfig, arr: ArrayConfig, reach: float) -> list[Beam]:
    """Chain beams rightward from the beam ``start`` (from 0 when it is
    None) until psi_m is covered.

    ``edges`` is the chain's :class:`_Track`: empty for the even parity,
    holding the odd centre beam's edge.  Each focus is the previous one
    mirrored about their shared edge, 2*left - focus (see the module
    docstring), taken with no capacity evaluation when the last edge
    solve's good end ``left`` clears c_t by
    :func:`~beamsquint.capacity._mirror_margin` and every offset at both
    foci is at most 1: the computed C(mirror, left) then meets c_t, and the
    mirror lies within TOL of the crossing, on the edge's side.  Otherwise
    the focus is solved from a probe at left plus the last offset on
    ``edges`` (the even chain's first from the full bracket, whose end it
    is).  Either way the chain fails where C(left, left) < c_t, evaluated
    unless |left| is within ``reach``.  Each edge solve probes the root and
    Newton point that ``edges`` predicts.  Each parity starts its own
    record, so its beams are the same bits whichever parity is built
    first, and an :func:`estimate_bsup` probe's verdict is that of a full
    design.
    """
    out: list[Beam] = []
    focus, right = (start.focus, start.right) if start else (math.nan, 0.0)
    while right < psi_m:
        left = right
        mirror = 2.0 * left - focus
        x, excess = edges.ends.get(True, (None, -math.inf))
        offsets = [xi * left - f for xi in band.ratios[[0, -1]] for f in (focus, mirror)]
        if (x == left and excess >= _mirror_margin(left, mirror, band, arr)
                and max(map(abs, offsets)) <= 1.0):
            if abs(left) > reach and capacity_bs(left, left, band, arr) < c_t:
                raise _no_focus(left)
            focus = mirror
        else:
            guess = left + edges.offsets[-1] if edges.offsets else None
            focus = solve_focus_from_left(left, c_t, band, arr, guess=guess, reach=reach)
        edge = solve_right_edge(focus, c_t, band, arr, track=edges, reach=reach)
        if edge - left < _MIN_BEAM_WIDTH:
            raise InfeasibleError(
                f"beam coverage collapsed below solver resolution at focus {focus}",
                focus)
        out.append(Beam(focus, left, edge))
        right = edge
        if len(out) > _MAX_BEAMS:
            raise InfeasibleError(
                f"beam count exceeded {_MAX_BEAMS} before reaching {psi_m}", focus)
    return out


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
        Its message names both constructions' failures; ``failing_focus``
        is the odd one's and ``even_focus`` the even one's.
    """
    odd, even = _parities(psi_m, c_t, band, arr)
    books = [o for o in (odd, even) if isinstance(o, Codebook)]
    if not books:
        raise InfeasibleError(
            f"no codebook exists: odd size: {odd}; even size: {even}",
            odd.failing_focus, even.failing_focus) from even
    return min(books, key=lambda cb: cb.size)


def _parities(psi_m: float, c_t: float, band: BandConfig, arr: ArrayConfig,
              first: str = "odd") -> Iterator[Codebook | InfeasibleError]:
    """The codebook of the ``first`` parity and then of the other, or the
    error that stopped each; a parity is built only when the caller asks
    for it.  Both share one :func:`_certified_reach`."""
    _require_psi_m(psi_m)
    reach = None
    for parity in ("odd", "even") if first == "odd" else ("even", "odd"):
        try:
            if reach is None:
                reach = _certified_reach(psi_m, c_t, band, arr)
            yield _codebook(parity, psi_m, c_t, band, arr, reach)
        except InfeasibleError as exc:
            yield exc


def _require_psi_m(psi_m: float) -> None:
    if not 0.0 < psi_m <= 1.0:
        raise DomainError(f"psi_m must be in (0, 1], got {psi_m}")


def _certified_reach(psi_m: float, c_t: float, band: BandConfig,
                     arr: ArrayConfig) -> float:
    """An angle up to which C(psi, psi) >= c_t is proved for every |psi|,
    as :func:`~beamsquint.capacity.capacity_bs` computes it; -1.0 when no
    angle is.

    C(psi, psi), a beam's capacity at its own focus, sees subcarrier xi at
    offset x = (xi - 1)*psi.  D_N(u) = sum_k cos((N-1-2k)*u), and each
    cosine decreases in |u| on [0, pi/N], so the gain falls as |x| grows
    on the main lobe |x| <= 2/N: C(psi, psi) does not increase with |psi|
    up to span = 2/(N*max|xi - 1|).  One evaluation at hi = min(psi_m,
    span) that clears c_t + M proves the computed C(psi, psi) >= c_t at
    every |psi| <= hi, by the lemma of
    :func:`~beamsquint.capacity._sign_margin` with S = 0.  When hi does not
    clear, one bisection on [0, hi] finds a point that does, and the proof
    holds up to it.  At zero bandwidth C(psi, psi) is one value for every
    psi.  No monotone bracket is assumed.  The checks every chain solve
    makes of ``c_t`` come first, with the same errors.
    """
    beamwidth_nbs(c_t, band, arr)
    target = c_t + _sign_margin(c_t, band, arr)
    excess = _max_offset_ratio(band)
    hi = psi_m
    if excess > 0.0:
        # The factor covers the three roundings of the span.
        hi = min(psi_m, 2.0 / (arr.n_antennas * excess) * (1.0 - 1e-15))
    if capacity_bs(hi, hi, band, arr) >= target:
        return hi
    reach = bisect(lambda psi: capacity_bs(psi, psi, band, arr) - target, 0.0, hi)
    return -1.0 if reach is None else reach


def _proved_infeasible(psi_m: float, c_t: float, band: BandConfig,
                       arr: ArrayConfig) -> bool:
    """True when both parities' chains are proved to fail, without a chain
    solve; False when no proof is found in ``_PROOF_POINTS`` capacity
    evaluations, and then the chains decide.

    Every chain beam is at most bw = ``beamwidth_nbs(c_t)`` wide, up to
    rounding: an edge solve brackets its root in [f, f + bw/2], a focus
    solve in [l, l + bw/2], and a mirrored focus 2*l - f lies as far right
    of l as l, the edge solved from f, lies right of f.  A chain grows from
    a left edge l_1 in [0, bw/2] (0 for the even parity, the odd centre
    beam's right edge) while its right edge is below psi_m, so its last
    left edge l_K lies in [psi_m - bw, psi_m), widened below by 1e-15 for
    the roundings of f + bw/2 (twice) and of l + bw/2 or 2*l - f (values
    below 3, each off by at most 2.2e-16), and not below 0.  When the odd
    centre beam alone reaches psi_m, psi_m <= bw/2 and its focus 0 stands
    for l_K; the interval then holds 0.  A chain that gets as far as l_K
    takes its focus from l_K, solved or mirrored, which evaluates C(l_K,
    l_K) - c_t unless |l_K| is within :func:`_certified_reach`, where
    C(psi, psi) >= c_t is proved, and raises InfeasibleError when it is
    negative.  So if the computed C(psi, psi) < c_t at every psi of [lo,
    psi_m], both parities fail: at l_K, or before it for another reason.
    This encodes the chain's present failure rule at a left edge; a change
    to that rule must change this proof with it.

    The interval is halved, one batched capacity call per level.  A piece
    with computed midpoint m, and h the larger distance from m to its ends,
    is proved when C(m, m) + S*h is below c_t - M, with S from
    :func:`~beamsquint.capacity._on_focus_slope_bound` and M from
    :func:`~beamsquint.capacity._sign_margin`, whose lemma then puts the
    computed C(psi, psi) below c_t on the whole piece, off the main lobe
    too.  A midpoint that reaches c_t - M cannot be proved at any depth
    and ends the proof.

    The checks of ``psi_m`` and of ``c_t`` come first, with the chains'
    errors, except that a ``c_t`` at or above the peak, where
    ``beamwidth_nbs`` raises InfeasibleError, is proved infeasible.
    """
    _require_psi_m(psi_m)
    try:
        bw = beamwidth_nbs(c_t, band, arr)
    except InfeasibleError:
        return True
    slope = _on_focus_slope_bound(band, arr)
    ceiling = c_t - _sign_margin(c_t, band, arr)
    lo, hi = np.array([max(0.0, psi_m - bw - 1e-15)]), np.array([psi_m])
    spent = 0
    while len(lo):
        spent += len(lo)
        if spent > _PROOF_POINTS:
            return False
        mid = 0.5 * (lo + hi)
        caps = capacity_bs(mid, mid, band, arr)
        if np.any(caps >= ceiling):
            return False
        unproved = caps + slope * np.maximum(mid - lo, hi - mid) >= ceiling
        lo, hi, mid = lo[unproved], hi[unproved], mid[unproved]
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
    return True


def _codebook(parity: str, psi_m: float, c_t: float, band: BandConfig,
              arr: ArrayConfig, reach: float) -> Codebook:
    """The codebook of one ``parity``, its positive side chained outward and
    mirrored about broadside: for the odd size from the right edge of a
    beam centred on broadside, for the even size from 0, so that pairs
    straddle broadside."""
    centre, edges = [], _Track()
    if parity == "odd":
        edge = solve_right_edge(0.0, c_t, band, arr, track=edges, reach=reach)
        centre = [Beam(0.0, 0.0 - edge, edge)]
    chain = _grow_chain(centre[0] if centre else None, edges, psi_m, c_t, band, arr, reach)
    # 0.0 - x rather than -x keeps a 0.0 edge from turning into -0.0.
    mirrored = [Beam(0.0 - b.focus, 0.0 - b.right, 0.0 - b.left) for b in reversed(chain)]
    return Codebook(beams=tuple(mirrored + centre + chain), psi_m=psi_m, c_t=c_t)


def assess_feasibility(psi_m: float, c_t: float, band: BandConfig,
                       arr: ArrayConfig) -> FeasibilityReport:
    """Attempt a design and report the outcome instead of raising."""
    try:
        cb = design_codebook(psi_m, c_t, band, arr)
    except InfeasibleError as exc:
        return FeasibilityReport(n=arr.n_antennas, b=band.b,
                                 failing_focus=exc.failing_focus,
                                 even_focus=exc.even_focus)
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
    passes when the capacity at its middle point, less
    :func:`~beamsquint.capacity.capacity_slope_bound` times h, the larger
    distance from that point to the run's ends (at most 1), clears the
    floor by M of :func:`~beamsquint.capacity._sign_margin` and every
    offset on the run is at most 1; the points either side of an unproved
    run's middle form two runs, and runs of at most ``_DIRECT_POINTS``
    points are evaluated point by point, so no point is evaluated twice.
    A point passes only where the floor is proved or computed, so by M's
    lemma the verdict equals a point-by-point check at every SNR.  The
    points that fail are tested against every beam, up to
    ``_FALLBACK_POINTS`` points per call, and the first point that no beam
    covers ends the check.  The check depends only on the codebook and the
    model, never on a solver tolerance.
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

    Evaluates each run of equal foci at its middle point, which is then
    checked, and splits a run the slope bound does not prove into the
    points on either side until runs are short enough to evaluate; each
    level is one batched capacity call.  A run's largest offset xi*psi -
    focus, as capacity_bs computes it, sits at one of its two ends and one
    of the two outer subcarriers.
    """
    slope = capacity_slope_bound(band, arr)
    margin = floor + _sign_margin(c_t, band, arr)
    missed = np.zeros(len(grid), dtype=bool)
    cuts = np.flatnonzero(focus[1:] != focus[:-1]) + 1
    lo = np.concatenate(([0], cuts))
    hi = np.concatenate((cuts, [len(grid)]))
    while len(lo):
        short = hi - lo <= _DIRECT_POINTS
        points = lo[short, np.newaxis] + np.arange(_DIRECT_POINTS)
        points = points[points < hi[short, np.newaxis]]
        lo, hi = lo[~short], hi[~short]
        mid = (lo + hi) // 2
        points = np.concatenate((points, mid))
        caps = capacity_bs(focus[points], grid[points], band, arr)
        missed[points] = caps < floor
        first, centre, last = grid[lo], grid[mid], grid[hi - 1]
        h = np.maximum(centre - first, last - centre)
        ends = np.multiply.outer(band.ratios[[0, -1]], (first, last)) - focus[lo]
        unproved = ((np.abs(ends).max(axis=(0, 1)) > 1.0) | (h > 1.0)
                    | (caps[len(points) - len(mid):] - slope * h < margin))
        lo, hi, mid = lo[unproved], hi[unproved], mid[unproved]
        lo, hi = np.concatenate((lo, mid + 1)), np.concatenate((mid, hi))
    return missed


def _coverage_grid(psi_m: float, step: float) -> np.ndarray:
    """Sorted ``i * step`` for every integer ``i`` with ``|i * step| <=
    psi_m``, plus ``+-psi_m``."""
    _require_finite_positive("grid_step", step)
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
    probe needs only some codebook, not the smallest, so it builds one
    chain and the other only when the first fails.  The first is the
    parity that succeeded on the last feasible probe, odd until one has:
    near the limit one parity often survives where the other fails, and
    neighbouring probes tend to share it.  Before either chain, a probe
    tries to prove both infeasible from the capacity at a beam's own focus
    alone, see :func:`_proved_infeasible`, and builds neither when it
    can; near the limit that proof seldom holds.  Every probe's verdict,
    and so the result, is that of a full two-parity design.
    """
    _require_tol_b(tol_b)
    first = "odd"

    def feasible(b: float) -> bool:
        nonlocal first
        band = BandConfig(b=b, n_f=n_f, snr=snr)
        c_t = capacity_threshold(r, band, arr)
        if _proved_infeasible(psi_m, c_t, band, arr):
            return False
        for outcome in _parities(psi_m, c_t, band, arr, first):
            if isinstance(outcome, Codebook):
                first = outcome.parity
                return True
        return False

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


def _require_tol_b(tol_b: float) -> None:
    if not 0.0 < tol_b < 2.0:
        raise ConfigError(
            f"tol_b must be in (0, 2), the width of the b bracket, got {tol_b}")


def fit_bsup_constant(n_values: Sequence[int], r: float, snr: float,
                      psi_m: float = 1.0, tol_b: float = 1e-6,
                      n_f: int = 2048) -> BsupFit:
    """Fit the inverse law bandwidth-limit ~ a/N across array sizes.

    Least squares on bsup(N)*N reduces to its mean; the per-N absolute
    deviations from ``a`` quantify how well the inverse law holds.  Every
    size is checked before any is estimated, and a repeated size is
    estimated once but weighs in the fit as often as it is listed.
    """
    ns = list(n_values)
    if len(set(ns)) < 3:
        raise ConfigError(f"need at least 3 distinct array sizes, got {ns}")
    arrays = {n: ArrayConfig(n) for n in ns}
    bsup_by_n = {n: estimate_bsup(arr, r, snr, psi_m, tol_b, n_f)
                 for n, arr in arrays.items()}
    a, dev = _inverse_law(ns, [bsup_by_n[n] for n in ns])
    return BsupFit(a=a, mean_deviation=float(np.mean(dev)),
                   max_deviation=float(np.max(dev)), bsup_by_n=bsup_by_n)


def _inverse_law(ns: Sequence[int], bsup: Sequence[float]) -> tuple[float, np.ndarray]:
    """The constant a of bsup ~ a/N, the mean of bsup(N)*N, and each
    size's absolute deviation |bsup(N)*N - a|; ``ns`` must not be empty."""
    products = np.array([n * v for n, v in zip(ns, bsup)])
    a = float(np.mean(products))
    return a, np.abs(products - a)
