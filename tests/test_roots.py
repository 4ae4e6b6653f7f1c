import math

import pytest

from beamsquint.roots import SLACK, TOL, bisect

ROOT = 0.3141


def counted(f):
    """``f`` with a count of its calls in ``calls[0]``."""
    calls = [0]

    def g(x):
        calls[0] += 1
        return f(x)
    return g, calls


# Predicates that defeat a plain secant step, each with f >= 0 left of ROOT.
ADVERSARIAL = {
    "step": lambda x: 1.0 if x < ROOT else -1.0,
    "flat-21st-order-root": lambda x: (ROOT - x) ** 21,
    "kink": lambda x: (ROOT - x) * (1.0 if x < ROOT else 1e6),
    "steep-exponential": lambda x: math.exp(-50.0 * x) - math.exp(-50.0 * ROOT),
}


class TestBisect:
    def test_ends_in_either_order(self):
        # Decreasing and increasing predicates share one solver, and the
        # returned point meets the predicate in both.
        down = bisect(lambda x: 2.0 - x * x, 0.0, 2.0)
        up = bisect(lambda x: x * x - 2.0, 2.0, 0.0)
        assert down == pytest.approx(math.sqrt(2.0), abs=1e-10)
        assert up == pytest.approx(math.sqrt(2.0), abs=1e-10)
        assert 2.0 - down * down >= 0.0
        assert up * up - 2.0 >= 0.0
        # A bad end that already meets the predicate is the root.
        assert bisect(lambda x: 1.0, 3.0, 0.0) == 0.0

    def test_no_root_when_the_good_end_fails(self):
        assert bisect(lambda x: -1.0, 0.0, 1.0) is None

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL))
    @pytest.mark.parametrize("good, bad", [(0.0, 1.0), (1.0, 0.0)])
    def test_adversarial_predicates_keep_the_bisection_bound(self, name, good, bad):
        sign = 1.0 if good < bad else -1.0
        f, calls = counted(lambda x: ADVERSARIAL[name](x if sign > 0 else 1.0 - x))
        root = ROOT if sign > 0 else 1.0 - ROOT
        x = bisect(f, good, bad)
        assert calls[0] <= math.ceil(math.log2(1.0 / TOL)) + SLACK + 2
        assert abs(x - root) <= TOL
        assert ADVERSARIAL[name](x if sign > 0 else 1.0 - x) >= 0.0

    @pytest.mark.parametrize("good, bad", [(0.0, 1.0), (1.0, 0.0)])
    def test_linear_predicate_takes_at_most_four_calls(self, good, bad):
        sign = 1.0 if good < bad else -1.0
        f, calls = counted(lambda x: sign * (ROOT - x))
        x = bisect(f, good, bad)
        assert calls[0] <= 4
        assert abs(x - ROOT) <= TOL
        assert sign * (ROOT - x) >= 0.0
