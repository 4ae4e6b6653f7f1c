"""Bracketed root finding on monotone scalar functions.

The solvers in this package only ever bracket a root between a point known
to be above a threshold and one known to be below it.  Each step takes the
Anderson-Bjorck secant point of the bracket, which converges superlinearly
on the smooth capacity and gain curves, and projects it into the ITP
interval around the midpoint (Oliveira & Takahashi, ACM TOMS 47(1), 2020).
The projection caps the step count at bisection's plus ``SLACK`` on any
monotone function.  A caller that can predict the root and the slope there,
as a codebook chain can from its earlier beams, passes the predictions:
the first step probes the predicted root, the second the Newton point from
it moved a spread past the root, and each later one a point just past the
secant point of the last two probes, so that a good prediction closes the
bracket in three evaluations, or two when it is already within ``TOL``.
Every probe obeys the same projection, so a bad prediction or slope costs
no step beyond the bound.  A caller that has proved the function
non-negative at the good end spares its evaluation.  The steps are
deterministic, so every run is bit-reproducible.
"""

from __future__ import annotations

import math
from typing import Callable

TOL = 1e-10
# Steps allowed beyond bisection's count.  The projection leaves a point
# free while the bracket can still close within bisection's count plus this
# margin; on the package's capacity roots a margin of 2 costs no step that a
# larger one saves, and 1 does.  With 2, the first two steps may take any
# point at least TOL/2 inside the bracket, so the probes of a prediction
# and of its Newton point are never moved further than that; later probes
# are free once those two have bracketed the root.
SLACK = 2
# How far past an estimate of the root a probe aims, at least: two probes
# this far past a point within TOL/2 of the root, one on each side, leave a
# bracket 0.8*TOL wide.
_STRADDLE = 0.4 * TOL


def bisect(f: Callable[[float], float], good: float, bad: float,
           guess: float | None = None, spread: float = 0.0,
           slope: float | None = None, *, good_proved: bool = False) -> float | None:
    """Point of the bracket ``[good, bad]`` that meets ``f >= 0`` within
    ``TOL`` of the crossing, assuming ``f(good) >= 0 > f(bad)``.

    The two ends may come in either order, and ``f`` must cross zero once
    between them.  Returns ``None`` when ``f(good) < 0`` (no bracketed
    root), and ``bad`` when ``f(bad) >= 0`` (the root sits on the bracket
    boundary, e.g. the zero-bandwidth degenerate case).  Otherwise returns
    the end of the final bracket at which ``f >= 0``, once the bracket is at
    most ``TOL`` wide; that takes at most ``ceil(log2(|bad - good| / TOL))
    + SLACK`` steps of one evaluation each, besides the two ends.

    ``guess``, a predicted root, makes the first step probe ``f`` there.
    The second probes the Newton point from the guess, on ``slope``, the
    predicted slope of ``f`` at the root, moved ``spread`` further on the
    side where the root lies, so that a root within ``spread`` of the
    Newton point lies between the two probes; without a slope, or where
    the Newton step would go away from the root (a NaN, zero, infinite or
    wrong-signed slope), it probes ``spread`` past the guess instead.  The
    spread is at least ``_STRADDLE``.  When these two probes bracket the
    root, each later step probes ``_STRADDLE`` past the secant point of the
    last two probes, on the side where the root lies: two such probes on
    either side of a secant point within TOL/2 of the root close the
    bracket.  When they do not, or a secant point would go away from the
    root, the secant steps take over.  Every probe obeys the same
    projection as the secant steps, so any guess, spread or slope keeps the
    bound.  ``f(bad)`` is evaluated only when the bracket still ends at
    ``bad`` once the secant steps take over or the bracket is closed.

    ``f(good)`` is evaluated first, to tell whether a root is bracketed,
    unless ``good_proved`` says that ``f(good) >= 0`` is already known.  It
    is then evaluated only when a secant step needs its value, which no
    step does once a probe has moved the good end; ``f`` is pure, so the
    result is the same either way.
    """
    fg = None  # f(good): once proved non-negative, needed only by a secant step
    if not good_proved:
        fg = f(good)
        if fg < 0.0:
            return None
    width = abs(bad - good)
    n_max = math.ceil(math.log2(max(width, TOL) / TOL)) + SLACK
    # ITP bounds each step's bracket by tol * 2**(steps left), tol leaving 4
    # ulps for the rounding of mid +- radius, so the last leaves <= TOL.
    tol = TOL - 4.0 * math.ulp(max(abs(good), abs(bad)))
    fb = None  # f(bad): not needed unless bad is still an end after the probes
    probing = guess is not None
    target = guess
    last = None  # the previous probe and its value
    toward = 0.0  # the side of the guess on which the root lies
    side = 0  # +1 / -1: the previous secant step moved the good / bad end
    for j in range(n_max):
        if not probing and fb is None:
            fb = f(bad)
            if fb >= 0.0:
                return bad
        if width <= TOL:
            break
        # Both limits are symmetric about the midpoint: ITP's radius, and
        # TOL/2 inside either end, so that a secant point already within
        # TOL/2 of the crossing closes the bracket with the next step.
        mid = 0.5 * (good + bad)
        radius = max(min(tol * 2.0 ** (n_max - j - 1) - 0.5 * width,
                         0.5 * (width - TOL)), 0.0)
        if not probing and fg is None:
            fg = f(good)
        x = target if probing else (good * fb - bad * fg) / (fb - fg)
        if not abs(x - mid) <= radius:  # also a NaN point
            x = mid + math.copysign(radius, x - mid)
        fx = f(x)
        if fx >= 0.0:
            if side > 0:
                fb *= _damping(fx, fg)
            good, fg, side = x, fx, 0 if probing else 1
            d = math.copysign(1.0, bad - x)
        else:
            if side < 0:
                fg *= _damping(fx, fb)
            bad, fb, side = x, fx, 0 if probing else -1
            d = math.copysign(1.0, good - x)
        width = abs(bad - good)
        if not probing:
            continue
        # The root lies on side d of x.
        if last is None:  # the guess: aim a spread past its Newton point
            newton = x - fx / slope if slope else math.nan
            target = ((newton if (newton - x) * d >= 0.0 else x)
                      + max(spread, _STRADDLE) * d)
            toward = d
        else:
            estimate = (x - fx * (x - last[0]) / (fx - last[1]) if fx != last[1]
                        else math.nan)
            # A second probe that leaves the root on the guess's side, or a
            # secant point away from the root, leaves the rest to secant steps.
            probing = d != toward and (estimate - x) * d >= 0.0
            toward = 0.0
            target = estimate + _STRADDLE * d
        last = x, fx
    if fb is None:
        fb = f(bad)
        if fb >= 0.0:
            return bad
    return good


def _damping(f_new: float, f_old: float) -> float:
    """Anderson-Bjorck factor for the value kept at the unmoved end after
    the other end moved twice running; Illinois's 1/2 when it is not
    positive."""
    m = 1.0 - f_new / f_old if f_old else 0.0
    return m if m > 0.0 else 0.5
