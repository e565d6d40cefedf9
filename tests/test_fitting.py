import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sharpbounds import (FitResult, SharpBoundingFunction, fit_linear_bound,
                         mask_rows)

import oracles


def one_per_row(points):
    """(x, y) pairs as one point per row: row i is the mask ``1 << i``."""
    return [(x, y, 1 << i) for i, (x, y) in enumerate(points)]


def fit(points, direction):
    return fit_linear_bound(one_per_row(points), direction)


def touched_rows(result):
    return set(mask_rows(result.touched))


def test_identity_line():
    r = fit([(1, 1), (2, 2), (3, 3)], "upper")
    assert (r.bound.slope, r.bound.intercept) == ((1, 1), (0, 1))
    assert r.touch_number == 3


def test_flat_beats_steep_on_tied_touch():
    r = fit([(1, 2), (2, 2), (3, 1)], "upper")
    assert (r.bound.slope, r.bound.intercept) == ((0, 1), (2, 1))
    assert touched_rows(r) == {0, 1}


def test_single_point_slope_zero():
    r = fit([(0, 5)], "upper")
    assert (r.bound.slope, r.bound.intercept) == ((0, 1), (5, 1))
    assert r.touch_number == 1


def test_two_point_lower_bound():
    r = fit([(1, 1), (2, 3)], "lower")
    assert (r.bound.slope, r.bound.intercept) == ((2, 1), (-1, 1))
    assert r.touch_number == 2


def test_empty_input_returns_none():
    assert fit_linear_bound([], "upper") is None


def test_direction_validated():
    with pytest.raises(ValueError):
        fit_linear_bound([(0, 0, 1)], "sideways")
    with pytest.raises(ValueError):
        SharpBoundingFunction((1, 1), (0, 1), "sideways")


def test_evaluate_bound_exact():
    f = SharpBoundingFunction((1, 1), (0, 1), "upper")
    assert f.evaluate(7) == 7
    f = SharpBoundingFunction((3, 2), (0, 1), "upper")
    assert f.evaluate(2) == 3
    f = SharpBoundingFunction((0, 1), (2, 1), "upper")
    assert f.evaluate(100) == 2
    f = SharpBoundingFunction((1, 3), (1, 6), "upper")
    assert f.evaluate(Fraction(1, 2)) == Fraction(1, 3)


def test_equal_x_points():
    r = fit([(2, 1), (2, 3), (2, 2)], "upper")
    assert (r.bound.slope, r.bound.intercept) == ((0, 1), (3, 1))
    assert touched_rows(r) == {1}


coordinate = st.integers(0, 10)
point_lists = st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=12)
directions = st.sampled_from(["upper", "lower"])


@settings(max_examples=200, deadline=None)
@given(point_lists, directions)
def test_feasible_sharp_and_optimal(points, direction):
    r = fit(points, direction)
    # no row violates the bound, and the rows on it are the touched ones
    assert r.bound.compare(one_per_row(points)) == (0, r.touched)
    assert r.touch_number >= 1
    assert r.touch_number == oracles.oracle_best_touch(one_per_row(points),
                                                       direction)


@settings(max_examples=150, deadline=None)
@given(point_lists, directions)
def test_deterministic_and_order_insensitive(points, direction):
    a = fit(points, direction)
    b = fit(points, direction)
    assert a == b
    rng = random.Random(0)
    labeled = one_per_row(points)
    rng.shuffle(labeled)
    c = fit_linear_bound(labeled, direction)
    assert (a.bound, a.touched) == (c.bound, c.touched)


signed_points = st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
                         min_size=1, max_size=8)


def negated(pair):
    return (-pair[0], pair[1])


@settings(max_examples=150, deadline=None)
@given(signed_points, directions)
def test_mirror_symmetry(points, direction):
    # negating y and flipping the direction negates the fitted bound
    r = fit(points, direction)
    flipped = "lower" if direction == "upper" else "upper"
    mirrored = fit([(x, -y) for x, y in points], flipped)
    assert mirrored.bound.slope == negated(r.bound.slope)
    assert mirrored.bound.intercept == negated(r.bound.intercept)
    assert mirrored.touched == r.touched
    assert r.bound.compare(one_per_row(points)) == (0, r.touched)
    assert mirrored.bound.compare(
        one_per_row([(x, -y) for x, y in points])) == (0, r.touched)


@st.composite
def differential_inputs(draw):
    """Points with negative ints, repeats, and one-x clouds."""
    coordinate = st.integers(-8, 8)
    points = draw(st.lists(st.tuples(coordinate, coordinate),
                           min_size=1, max_size=10))
    points += draw(st.lists(st.sampled_from(points), max_size=4))
    if draw(st.booleans()):
        points = [(points[0][0], y) for _, y in points]
    return one_per_row(points)


def fit_fields(result):
    return (result.bound, result.touched, result.touch_number)


@settings(max_examples=200, deadline=None)
@given(differential_inputs())
@example([(3, -2, 1)])
@example([(1, 1, 1), (1, 1, 2), (2, 2, 4), (2, 2, 8), (3, 1, 16)])
def test_matches_pairwise_slope_oracle(points):
    # the hull-edge fitter must reproduce the pairwise-slope search exactly
    for direction in ("upper", "lower"):
        got = fit_linear_bound(points, direction)
        want = oracles.oracle_fit(points, direction)
        assert fit_fields(got) == fit_fields(want)


def grouped(points):
    """One point per distinct (x, y), carrying the OR of its rows' masks,
    in (x, y) order, as ``FeatureTable.select_rows`` returns them."""
    groups = {}
    for x, y, rows in points:
        groups[(x, y)] = groups.get((x, y), 0) | rows
    return [(x, y, rows) for (x, y), rows in sorted(groups.items())]


@settings(max_examples=200, deadline=None)
@given(differential_inputs())
@example([(2, 5, 1), (2, 5, 2), (2, 5, 4), (3, 1, 8)])
@example([(0, 0, 1), (1, 3, 2), (0, 0, 4), (2, 0, 8), (1, 3, 16), (2, 0, 32)])
def test_grouped_points_fit_like_one_point_per_row(points):
    # a point's weight is the popcount of its rows, so grouping equal
    # coordinates changes nothing: grouped, one per row and the oracle agree
    for direction in ("upper", "lower"):
        by_row = fit_linear_bound(points, direction)
        assert fit_fields(fit_linear_bound(grouped(points), direction)) == \
            fit_fields(by_row) == fit_fields(oracles.oracle_fit(points, direction))


def with_row_masks(draw, pairs):
    """(x, y) pairs as points with disjoint masks of one to three rows."""
    points, low = [], 0
    for (x, y), width in zip(pairs, draw(st.lists(
            st.integers(1, 3), min_size=len(pairs), max_size=len(pairs)))):
        points.append((x, y, ((1 << width) - 1) << low))
        low += width
    return points


@st.composite
def weighted_inputs(draw):
    """Points in any order, with negative coordinates, several points per x,
    repeated coordinates and disjoint masks of one to three rows each."""
    coordinate = st.integers(-6, 6)
    pairs = draw(st.lists(st.tuples(coordinate, coordinate),
                          min_size=1, max_size=10))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=4))
    pairs += [(pairs[0][0], y) for y in draw(st.lists(coordinate, max_size=3))]
    pairs = draw(st.permutations(pairs))
    if draw(st.booleans()):
        pairs.sort()
    return with_row_masks(draw, pairs)


@st.composite
def line_inputs(draw):
    """Points on one to three lines, flat ones included, plus a few points
    off them: collinear runs whose interior points carry several rows,
    flat hull edges, and hull edges tied on touches with each other and
    with slope zero. Negative coordinates, any order."""
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        p, q = draw(st.integers(-2, 2)), draw(st.integers(1, 2))
        b = draw(st.integers(-4, 4))
        xs = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4,
                           unique=True))
        pairs += [(q * x, p * x + b) for x in xs]
    pairs += draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                           max_size=3))
    pairs = draw(st.permutations(pairs))
    if draw(st.booleans()):
        pairs.sort()
    return with_row_masks(draw, pairs)


def fit_key(result):
    return (result.bound.slope, result.bound.intercept, result.bound.direction,
            result.touched)


@settings(max_examples=600, deadline=None)
@given(st.one_of(weighted_inputs(), line_inputs()))
@example([(1, 0, 1), (0, 2, 0b110), (1, 3, 0b1000), (0, 2, 0b10000)])
@example([(0, -1, 1), (2, -1, 2), (1, -1, 0b1100), (1, -3, 0b10000)])
# collinear interior points with multi-row masks, and a point below
@example([(0, 0, 1), (1, 1, 0b110), (2, 2, 0b111000), (3, 3, 0b1000000),
          (1, -1, 0b10000000)])
# a flat hull edge with a heavy interior point
@example([(0, 2, 1), (1, 2, 0b110), (2, 2, 0b1000), (3, 0, 0b10000)])
# slope zero tied with an edge: two rows each
@example([(0, 0, 1), (1, 2, 0b10), (2, 2, 0b100)])
# three edges tied on two touches each
@example([(0, 0, 1), (1, 2, 0b10), (3, 3, 0b100), (5, 2, 0b1000)])
# a single distinct x
@example([(3, 1, 1), (3, 5, 0b110), (3, 5, 0b1000)])
# negative coordinates, out of x order
@example([(-1, -5, 1), (-3, -2, 0b10), (-2, 4, 0b1100), (-2, -7, 0b10000)])
def test_single_pass_matches_the_two_pass_fitter(points):
    # the one-pass grouping must give the replaced fitter's bound and touches
    # exactly, in x order or not
    for direction in ("upper", "lower"):
        assert fit_key(fit_linear_bound(points, direction)) == \
            fit_key(oracles.hull_fit(points, direction))


def touch_maximal_rows(points, direction):
    """The union of the touches of every feasible line with the most
    touches, by brute force over the lines through each point with the
    slopes to every other point, slope zero, the midpoints between them and
    a slope past either end."""
    sign = 1 if direction == "upper" else -1
    pts = [(x, sign * y, rows) for x, y, rows in points]
    touches = {}
    for px, py, _ in pts:
        slopes = sorted({Fraction(0)} | {Fraction(qy - py, qx - px)
                                         for qx, qy, _ in pts if qx != px})
        slopes += [slopes[0] - 1, slopes[-1] + 1]
        slopes += [(a + b) / 2 for a, b in zip(slopes, slopes[1:])]
        for m in slopes:
            if all(qy <= py + m * (qx - px) for qx, qy, _ in pts):
                touches[m, py - m * px] = sum(
                    rows for qx, qy, rows in pts if qy == py + m * (qx - px))
    most = max(rows.bit_count() for rows in touches.values())
    out = 0
    for rows in touches.values():
        if rows.bit_count() == most:
            out |= rows
    return out


@settings(max_examples=400, deadline=None)
@given(st.one_of(weighted_inputs(), line_inputs()))
# a single distinct x, with duplicates
@example([(3, 1, 1), (3, 5, 0b110), (3, 5, 0b1000)])
# collinear interior points with multi-row masks, and a point below
@example([(0, 0, 1), (1, 1, 0b110), (2, 2, 0b111000), (3, 3, 0b1000000),
          (1, -1, 0b10000000)])
# out of x order, with repeated coordinates on both hulls
@example([(2, 0, 1), (0, 0, 0b10), (1, 3, 0b100), (1, -3, 0b1000),
          (0, 0, 0b10000), (2, 0, 0b100000)])
# two hull edges and the flat line tied on touches
@example([(0, 0, 1), (1, 1, 0b10), (2, 0, 0b100)])
def test_skip_hook_sees_every_touch_maximal_line(points):
    # the hook is asked twice: first with the rows of the highest (upper) or
    # lowest (lower) point at each x, then with the rows of every feasible
    # line with the most touches and no other row, so with the fit's
    # touches; a hook that declines both changes nothing, and one that
    # accepts at either call returns None
    for direction in ("upper", "lower"):
        sign = 1 if direction == "upper" else -1
        top = {}
        for x, y, _ in points:
            top[x] = max(top.get(x, sign * y), sign * y)
        reachable = 0
        for x, y, rows in points:
            if sign * y == top[x]:
                reachable |= rows
        asked = []

        def decline(rows):
            asked.append(rows)
            return False

        fit = fit_linear_bound(points, direction)
        assert fit_linear_bound(points, direction, decline) == fit
        first, last = asked
        assert first == reachable
        assert last == touch_maximal_rows(points, direction)
        assert last & ~first == 0
        assert fit.touched & ~last == 0
        for accept_at in (1, 2):
            calls = []

            def accept(rows):
                calls.append(rows)
                return len(calls) == accept_at

            assert fit_linear_bound(points, direction, accept) is None
            assert calls == asked[:accept_at]


@pytest.mark.parametrize("bad", [0, -1, -6])
@pytest.mark.parametrize("base", [
    [(0, 1, 1), (1, 3, 2), (1, 2, 4), (2, 0, 8)],   # in x order
    [(2, 0, 1), (0, 1, 2), (1, 3, 4), (1, 2, 8)],   # out of order at once
    [(0, 1, 1), (2, 0, 2), (1, 3, 4), (1, 2, 8)],   # out of order later
])
def test_empty_or_negative_mask_rejected_anywhere(base, bad):
    # a bad mask is found wherever it sits: before or after the first point
    # out of x order, and at any x
    for at in range(len(base) + 1):
        for x in (-1, 1, 3):
            points = base[:at] + [(x, 5, bad)] + base[at:]
            for direction in ("upper", "lower"):
                with pytest.raises(ValueError):
                    fit_linear_bound(points, direction)


def test_weights_decide_the_touch_maximal_line():
    # both hull edges touch two points; the one with three rows at an end wins
    r = fit_linear_bound([(0, 0, 0b111), (1, 2, 0b1000), (3, 3, 0b10000)],
                         "upper")
    assert (r.bound.slope, r.bound.intercept) == ((2, 1), (0, 1))
    assert (r.touched, r.touch_number) == (0b1111, 4)
    r = fit_linear_bound([(0, 0, 0b1), (1, 2, 0b10), (3, 3, 0b11100)], "upper")
    assert (r.bound.slope, r.bound.intercept) == ((1, 2), (3, 2))
    assert (r.touched, r.touch_number) == (0b11110, 4)


def test_empty_row_mask_rejected():
    with pytest.raises(ValueError):
        fit_linear_bound([(0, 0, 1), (1, 1, 0)], "upper")


@pytest.mark.parametrize("slope, intercept, direction, touched", [
    ((2, 2), (0, 1), "upper", 1),
    ((1, -1), (0, 1), "upper", 1),
    ((0, 1), (3, 6), "lower", 1),
    ((0, 1), (0, 1), "upper", 0),
    ((0, 1), (0, 1), "sideways", 1),
])
def test_fit_result_rejects_malformed_fields(slope, intercept, direction,
                                             touched):
    # equal bounds must have equal integer pairs, so pairs come reduced
    with pytest.raises(ValueError):
        FitResult(SharpBoundingFunction(slope, intercept, direction), touched)


@st.composite
def reduced_pairs(draw):
    """A reduced (numerator, denominator) pair, negative numerators included."""
    num = draw(st.integers(-40, 40))
    den = draw(st.integers(1, 12))
    g = gcd(num, den)
    return (num // g, den // g)


@settings(max_examples=300, deadline=None)
@given(reduced_pairs(), reduced_pairs(), directions,
       st.integers(-50, 50), st.integers(-50, 50))
@example((-3, 2), (1, 6), "lower", -4, -6)
@example((1, 3), (-1, 2), "upper", 3, 0)
def test_integer_comparison_matches_fractions(slope, intercept, direction, x, y):
    # the cross-multiplied comparison of one point agrees with plain
    # Fraction arithmetic
    bound = SharpBoundingFunction(slope, intercept, direction)
    rhs = Fraction(*slope) * x + Fraction(*intercept)
    assert bound.evaluate(x) == rhs
    violated, touched = bound.compare([(x, y, 1)])
    assert touched == (y == rhs)
    assert violated == (y > rhs if direction == "upper" else y < rhs)
    # the touching point itself, where the rhs is an integer
    if rhs.denominator == 1:
        assert bound.compare([(x, rhs.numerator, 1)]) == (0, 1)


@settings(max_examples=300, deadline=None)
@given(reduced_pairs(), reduced_pairs(), directions,
       st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50),
                          st.integers(1, 2**10)), max_size=12))
def test_violation_mask_is_the_union_of_failing_rows(slope, intercept,
                                                     direction, points):
    # the comparison's two masks OR the rows of exactly the points above
    # (upper) or below (lower) the bound and of exactly those on it, each
    # point compared alone or all at once, masks of several rows
    # (overlapping ones too) included
    bound = SharpBoundingFunction(slope, intercept, direction)
    one_by_one = [0, 0]
    violated = touched = 0
    for x, y, rows in points:
        for k, mask in enumerate(bound.compare([(x, y, rows)])):
            one_by_one[k] |= mask
        rhs = Fraction(*slope) * x + Fraction(*intercept)
        if (y > rhs if direction == "upper" else y < rhs):
            violated |= rows
        elif y == rhs:
            touched |= rows
    assert bound.compare(points) == tuple(one_by_one) == (violated, touched)
