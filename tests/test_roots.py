import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
        seen = []

        def traced(x):
            seen.append((x, f(x)))
            return seen[-1][1]
        x = bisect(traced, good, bad)
        assert calls[0] <= math.ceil(math.log2(1.0 / TOL)) + SLACK + 2
        assert abs(x - root) <= TOL
        assert ADVERSARIAL[name](x if sign > 0 else 1.0 - x) >= 0.0
        # The final bracket, as computed, is at most TOL wide.
        assert any(v < 0.0 and abs(p - x) <= TOL for p, v in seen)

    @pytest.mark.parametrize("good, bad", [(0.0, 1.0), (1.0, 0.0)])
    def test_linear_predicate_takes_at_most_four_calls(self, good, bad):
        sign = 1.0 if good < bad else -1.0
        f, calls = counted(lambda x: sign * (ROOT - x))
        x = bisect(f, good, bad)
        assert calls[0] <= 4
        assert abs(x - ROOT) <= TOL
        assert sign * (ROOT - x) >= 0.0


# (guess, spread) for the bracket [0, 1] around ROOT: a root inside the
# predicted bracket, outside it on either side, a guess at or past either
# end, and a guess that is far off or not a number.
PREDICTIONS = {
    "inside": (ROOT + 3e-7, 1e-6),
    "inside-near": (ROOT - 2e-11, 1e-9),
    "exact": (ROOT, 1e-9),
    "no-spread": (ROOT + 1e-12, 0.0),
    "outside-below": (ROOT - 1e-3, 1e-6),
    "outside-above": (ROOT + 1e-3, 1e-6),
    "spread-past-the-end": (ROOT + 1e-3, 10.0),
    "at-good-end": (0.0, 1e-6),
    "at-bad-end": (1.0, 1e-6),
    "past-good-end": (-5.0, 1e-6),
    "past-bad-end": (7.0, 1e-6),
    "far-off-low": (1e-3, 1e-9),
    "far-off-high": (0.999, 1e-9),
    "infinite": (math.inf, 1e-6),
    "nan": (math.nan, 1e-6),
}
SMOOTH = {
    "linear": lambda x: ROOT - x,
    "cubic": lambda x: (ROOT - x) * (1.0 + (x - 0.5) ** 2),
    "cosine": lambda x: math.cos(3.0 * x) - math.cos(3.0 * ROOT),
    **ADVERSARIAL,
}


class TestPredictedBracket:
    @pytest.mark.parametrize("name", sorted(SMOOTH))
    @pytest.mark.parametrize("where", sorted(PREDICTIONS))
    @pytest.mark.parametrize("good, bad", [(0.0, 1.0), (1.0, 0.0)])
    def test_any_prediction_finds_the_root_within_the_bound(self, name, where,
                                                            good, bad):
        sign = 1.0 if good < bad else -1.0
        flip = (lambda x: x) if sign > 0 else (lambda x: 1.0 - x)
        f, calls = counted(lambda x: SMOOTH[name](flip(x)))
        guess, spread = PREDICTIONS[where]
        x = bisect(f, good, bad, flip(guess), spread)
        assert calls[0] <= math.ceil(math.log2(1.0 / TOL)) + SLACK + 2
        assert abs(flip(x) - ROOT) <= TOL
        assert SMOOTH[name](flip(x)) >= 0.0

    @pytest.mark.parametrize("name", ["cosine", "steep-exponential"])
    @pytest.mark.parametrize("guess, spread", [(ROOT + 3e-7, 1e-6), (ROOT - 4e-9, 1e-8)])
    def test_root_inside_the_prediction_takes_five_calls(self, name, guess, spread):
        # f(good), the guess, a spread past it, and two secant steps inside
        # that narrow bracket; the full bracket needs more.
        fn = SMOOTH[name]
        full, full_calls = counted(fn)
        bisect(full, 0.0, 1.0)
        f, calls = counted(fn)
        x = bisect(f, 0.0, 1.0, guess, spread)
        assert calls[0] == 5 < full_calls[0]
        assert abs(x - ROOT) <= TOL and fn(x) >= 0.0

    @pytest.mark.parametrize("guess", [0.5, -1.0, 2.0, math.nan])
    def test_no_root_when_the_good_end_fails(self, guess):
        f, calls = counted(lambda x: -1.0)
        assert bisect(f, 0.0, 1.0, guess, 0.1) is None
        assert calls[0] == 1

    @pytest.mark.parametrize("guess", [0.5, 0.0, 3.0, -1.0, math.nan])
    def test_bad_end_that_meets_the_predicate_is_the_root(self, guess):
        assert bisect(lambda x: 1.0, 3.0, 0.0, guess, 0.5) == 0.0
        assert bisect(lambda x: 1.0, 0.0, 3.0, guess, 1e-9) == 3.0


# Monotone non-increasing predicates with their root at r, and a rate a > 0.
MONOTONE = {
    "linear": lambda r, a: lambda x: a * (r - x),
    "cubic": lambda r, a: lambda x: a * (r - x) ** 3,
    "tanh": lambda r, a: lambda x: math.tanh(a * (r - x)),
    "exponential": lambda r, a: lambda x: math.exp(-a * x) - math.exp(-a * r),
    "step": lambda r, a: lambda x: a if x <= r else -a,
}


class TestFinalBracket:
    @settings(derandomize=True, deadline=None, max_examples=600)
    @given(kind=st.sampled_from(sorted(set(MONOTONE) - {"exponential"})),
           lo=st.floats(-2.0, 2.0),
           width=st.floats(1e-11, 4.0),
           share=st.floats(0.0, 1.0),
           rate=st.floats(1e-3, 1e3),
           guess=st.none() | st.floats(-1e-6, 1e-6),
           flipped=st.booleans())
    def test_is_at_most_tol_wide_as_computed(self, kind, lo, width, share, rate,
                                             guess, flipped):
        # Each step's rounding of mid +- radius is kept inside ITP's bound,
        # so the bracket the last step leaves is within TOL, not a few ulps
        # past it, even where the bound forces halving after halving.
        root = lo + share * width
        fn = MONOTONE[kind](root, rate)
        good, bad = (lo + width, lo) if flipped else (lo, lo + width)
        f = (lambda x: fn(2.0 * root - x)) if flipped else fn
        assume(f(good) >= 0.0 > f(bad))
        seen = []

        def traced(x):
            seen.append((x, f(x)))
            return seen[-1][1]
        x = bisect(traced, good, bad, None if guess is None else root + guess)
        assert f(x) >= 0.0
        assert any(v < 0.0 and abs(p - x) <= TOL for p, v in seen)
        assert len(seen) <= math.ceil(math.log2(max(abs(bad - good), TOL) / TOL)) + SLACK + 2


class TestProvedGoodEnd:
    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(kind=st.sampled_from(sorted(MONOTONE)),
           root=st.floats(0.0, 1.0),
           rate=st.floats(1e-3, 1e3),
           guess=st.none() | st.floats(-0.5, 1.5),
           spread=st.floats(0.0, 0.5),
           slope=st.none() | st.floats(allow_nan=True, allow_infinity=True),
           flipped=st.booleans())
    def test_a_proved_good_end_changes_no_bit(self, kind, root, rate, guess,
                                              spread, slope, flipped):
        # With f(good) >= 0 known, the solver returns the same bits, and
        # evaluates f(good) only for a secant step: never once the first
        # probe has met the predicate and moved the good end.
        fn = MONOTONE[kind](root, rate)
        good, bad = (1.0, 0.0) if flipped else (0.0, 1.0)
        f = (lambda x: fn(1.0 - x)) if flipped else fn
        assume(f(good) >= 0.0)
        plain = bisect(f, good, bad, guess, spread, slope)
        points = []

        def traced(x):
            points.append(x)
            return f(x)
        proved = bisect(traced, good, bad, guess, spread, slope, good_proved=True)
        assert proved == plain and math.copysign(1.0, proved) == math.copysign(1.0, plain)
        if guess is not None and points and points[0] not in (good, bad) \
                and f(points[0]) >= 0.0:
            assert good not in points

    def test_a_first_probe_that_meets_spares_the_good_end(self):
        f, calls = counted(lambda x: ROOT - x)
        plain = bisect(f, 0.0, 1.0, ROOT - 1e-7, 1e-6)
        points = []

        def traced(x):
            points.append(x)
            return ROOT - x
        assert bisect(traced, 0.0, 1.0, ROOT - 1e-7, 1e-6, good_proved=True) == plain
        # f(good), the guess, a spread past it and two secant steps, less
        # f(good).
        assert (calls[0], len(points)) == (5, 4) and 0.0 not in points


def slope_at(fn, x, h=1e-6):
    """Central difference of ``fn`` at ``x``."""
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


# Slope hints relative to the predicate's own slope at the root, and those
# that carry no usable slope at all.
SLOPE_HINTS = {
    "exact": lambda s: s,
    "10x-high": lambda s: 10.0 * s,
    "10x-low": lambda s: 0.1 * s,
    "wrong-sign": lambda s: -s,
    "zero": lambda s: 0.0,
    "nan": lambda s: math.nan,
    "inf": lambda s: math.inf,
    "-inf": lambda s: -math.inf,
}
# Guesses for the bracket [0, 1] around ROOT: near the root on either side,
# on it, at either end, past either end, and far off.
SLOPE_GUESSES = (ROOT - 3e-7, ROOT + 3e-7, ROOT, 0.0, 1.0, -5.0, 7.0, 1e-3, 0.999)


class TestSlopeHint:
    @pytest.mark.parametrize("name", sorted(SMOOTH))
    @pytest.mark.parametrize("good, bad", [(0.0, 1.0), (1.0, 0.0)])
    def test_any_slope_and_guess_close_a_tol_bracket_within_the_bound(self, name,
                                                                      good, bad):
        sign = 1.0 if good < bad else -1.0
        flip = (lambda x: x) if sign > 0 else (lambda x: 1.0 - x)
        fn = lambda x: SMOOTH[name](flip(x))  # noqa: E731
        true_slope = slope_at(fn, flip(ROOT))
        for hint_name, hint in SLOPE_HINTS.items():
            for guess in SLOPE_GUESSES:
                for spread in (0.0, 1e-6):
                    seen = []

                    def f(x):
                        seen.append((x, fn(x)))
                        return seen[-1][1]
                    x = bisect(f, good, bad, flip(guess), spread, hint(true_slope))
                    case = (hint_name, guess, spread)
                    assert len(seen) <= math.ceil(math.log2(1.0 / TOL)) + SLACK + 2, case
                    assert fn(x) >= 0.0, case
                    # The final bracket: an evaluated point below zero within TOL.
                    assert any(v < 0.0 and abs(p - x) <= TOL for p, v in seen), case
                    assert abs(flip(x) - ROOT) <= TOL, case

    @pytest.mark.parametrize("slope", [-1.0, 1.0, 0.0, math.nan, math.inf])
    def test_no_root_and_boundary_root_returns_are_unchanged(self, slope):
        for guess in (0.5, -1.0, 2.0, math.nan):
            f, calls = counted(lambda x: -1.0)
            assert bisect(f, 0.0, 1.0, guess, 0.1, slope) is None
            assert calls[0] == 1
            assert bisect(lambda x: 1.0, 3.0, 0.0, guess, 0.5, slope) == 0.0
            assert bisect(lambda x: 1.0, 0.0, 3.0, guess, 1e-9, slope) == 3.0

    @pytest.mark.parametrize("good, bad", [(0.0, 1.0), (1.0, 0.0)])
    @pytest.mark.parametrize("offset", [3e-7, -3e-7, 2e-3, -2e-3])
    def test_linear_predicate_with_an_exact_slope_closes_in_three_calls(self, good, bad,
                                                                        offset):
        # The guess, a spread past its Newton point, and the secant point of
        # the two kept TOL/2 inside their bracket; f(good) is proved.
        sign = 1.0 if good < bad else -1.0
        f, calls = counted(lambda x: sign * (ROOT - x))
        x = bisect(f, good, bad, ROOT + offset, 0.0, -sign, good_proved=True)
        assert calls[0] == 3
        assert sign * (ROOT - x) >= 0.0 and abs(x - ROOT) <= TOL

    def test_after_two_probes_the_secant_steps_take_over(self):
        # The guess and a spread past it bracket the root 1e-6 wide; the
        # third evaluation is that bracket's secant point, kept TOL/2 inside
        # its ends, not a further predicted probe.
        fn = SMOOTH["cosine"]
        seen = []

        def f(x):
            seen.append((x, fn(x)))
            return seen[-1][1]
        x = bisect(f, 0.0, 1.0, ROOT + 3e-7, 1e-6, good_proved=True)
        (bad, fb), (good, fg) = seen[:2]
        assert fg >= 0.0 > fb and abs(bad - good) > TOL
        secant = (good * fb - bad * fg) / (fb - fg)
        mid, radius = 0.5 * (good + bad), 0.5 * (abs(bad - good) - TOL)
        assert seen[2][0] == min(max(secant, mid - radius), mid + radius)
        assert fn(x) >= 0.0 and abs(x - ROOT) <= TOL

    def test_a_guess_within_tol_closes_in_two_calls(self):
        f, calls = counted(lambda x: ROOT - x)
        x = bisect(f, 0.0, 1.0, ROOT + 1e-11, 0.0, -1.0, good_proved=True)
        assert calls[0] == 2 and ROOT - x >= 0.0 and abs(x - ROOT) <= TOL

    @pytest.mark.parametrize("name", ["cosine", "steep-exponential"])
    def test_a_slope_off_by_a_tenth_percent_closes_in_four_calls(self, name):
        # The Newton point errs by about 3e-10, so the spread must cover it.
        fn = SMOOTH[name]
        f, calls = counted(fn)
        x = bisect(f, 0.0, 1.0, ROOT + 3e-7, 1e-9, 1.001 * slope_at(fn, ROOT),
                   good_proved=True)
        assert calls[0] <= 4
        assert fn(x) >= 0.0 and abs(x - ROOT) <= TOL
