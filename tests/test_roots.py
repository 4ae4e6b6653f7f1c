import math

import pytest

from beamsquint.roots import bisect


class TestBisect:
    def test_ends_in_either_order(self):
        # Decreasing and increasing predicates share one solver.
        down = bisect(lambda x: 2.0 - x * x, 0.0, 2.0)
        up = bisect(lambda x: x * x - 2.0, 2.0, 0.0)
        assert down == pytest.approx(math.sqrt(2.0), abs=1e-10)
        assert up == pytest.approx(math.sqrt(2.0), abs=1e-10)
        # A bad end that already meets the predicate is the root.
        assert bisect(lambda x: 1.0, 3.0, 0.0) == 0.0
