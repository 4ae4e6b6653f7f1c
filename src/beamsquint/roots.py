"""Bisection on monotone scalar functions.

The solvers in this package only ever bracket a root between a point known
to be above a threshold and one known to be below it, so plain bisection is
sufficient and keeps every run bit-reproducible.
"""

from __future__ import annotations

from typing import Callable

TOL = 1e-10
MAX_ITER = 200


def bisect(f: Callable[[float], float], good: float, bad: float) -> float:
    """Root of ``f`` between ``good`` and ``bad``, assuming
    ``f(good) >= 0 > f(bad)``.

    The two ends may come in either order, and ``f`` must cross zero once
    between them.  Returns ``bad`` when ``f(bad) >= 0`` (the root sits on
    the bracket boundary, e.g. the zero-bandwidth degenerate case).  Stops
    once the bracket is narrower than ``TOL`` or after ``MAX_ITER`` halvings.
    """
    if f(bad) >= 0.0:
        return bad
    for _ in range(MAX_ITER):
        mid = 0.5 * (good + bad)
        if f(mid) >= 0.0:
            good = mid
        else:
            bad = mid
        if abs(bad - good) < TOL:
            break
    return 0.5 * (good + bad)
