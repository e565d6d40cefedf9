"""Exact fitting of sharp linear bounds that maximize the touch number.

Given points (x_i, y_i) and a direction, the fitter returns a line
y <= m*x + b (or >=) that is feasible on every point, touches at least one
point exactly, and touches as many points as any feasible line does. A lower
bound on y is fitted as an upper bound on -y and mirrored back.

Only the highest point above each distinct x can touch a feasible line, and
the candidate slopes are those of the edges of the upper convex hull of these
points (Andrew's monotone chain), plus slope zero. This loses nothing: any
feasible line can be translated to a tight one without losing touches; a
tight feasible line touching two or more distinct points contains a hull
edge; and when there are at least two distinct x values, a tight line
touching a single distinct point touches a hull vertex, so the line through
an edge at that vertex touches strictly more points. With a single distinct
x only slope zero is a candidate. Each candidate's intercept is read off a
hull point, its total slack follows from the coordinate sums, and its touches
are counted among the highest points.

Coordinates are ints or Fractions. Fractions are scaled once to a common
integer grid, which leaves slopes and every comparison unchanged, so the
search runs in integers; only the returned bound and the tie-break key use
Fractions. There is no tolerance anywhere; a touch means the rational values
are equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Optional, Sequence

UPPER = "upper"
LOWER = "lower"


@dataclass(frozen=True)
class SharpBoundingFunction:
    """An affine bound y <= m*x + b (upper) or y >= m*x + b (lower), evaluated
    exactly at int or Fraction coordinates, which are used without coercion."""

    slope: Fraction
    intercept: Fraction
    direction: str

    def __post_init__(self):
        if self.direction not in (UPPER, LOWER):
            raise ValueError(f"direction must be {UPPER!r} or {LOWER!r}")

    def evaluate(self, x) -> Fraction:
        """Exact value m*x + b at a rational x."""
        return self.slope * x + self.intercept

    def holds(self, x, y) -> bool:
        """Whether (x, y) satisfies the bound exactly."""
        rhs = self.evaluate(x)
        return y <= rhs if self.direction == UPPER else y >= rhs

    def touches(self, x, y) -> bool:
        return y == self.evaluate(x)


@dataclass(frozen=True)
class FitResult:
    """A fitted bound together with the points it touches."""

    function: SharpBoundingFunction
    touch_set: frozenset
    touch_number: int

    def __post_init__(self):
        if self.touch_number != len(self.touch_set) or self.touch_number < 1:
            raise ValueError("touch_number must equal |touch_set| and be >= 1")


def fit_linear_bound(points: Sequence[tuple], direction: str
                     ) -> Optional[FitResult]:
    """Fit the touch-maximal sharp linear bound over ``points``.

    Parameters
    ----------
    points : sequence of (x, y, id)
        Coordinates may be ints or Fractions; ids are opaque and become the
        touch set. Returns ``None`` on empty input.
    direction : "upper" or "lower"

    Ties on touch number are broken by smallest total slack, then smallest
    |slope|; a final sign tie prefers the smaller slope for upper bounds and
    the larger for lower bounds, which makes fitting mirror-symmetric under
    negating y and flipping the direction.
    """
    if direction not in (UPPER, LOWER):
        raise ValueError(f"direction must be {UPPER!r} or {LOWER!r}")
    if not points:
        return None

    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    scale = 1
    if {*map(type, xs), *map(type, ys)} != {int}:
        # Scale to integer coordinates: slopes are unchanged, intercepts and
        # slacks scale uniformly by L, so comparisons are unaffected.
        scale = lcm(*(v.denominator for v in chain(xs, ys)))
        xs = [int(v * scale) for v in xs]
        ys = [int(v * scale) for v in ys]
    upper = direction == UPPER
    if not upper:
        # y >= m*x + b iff -y <= -m*x - b, with the same slack: fit the
        # mirror as an upper bound, where the sign tie-break prefers the
        # smaller slope, i.e. the larger one once negated back.
        ys = [-y for y in ys]

    # Highest y above each distinct x, with the number of points there.
    top: dict[int, list[int]] = {}
    for x, y in zip(xs, ys):
        cur = top.get(x)
        if cur is None or y > cur[0]:
            top[x] = [y, 1]
        elif y == cur[0]:
            cur[1] += 1
    highest = [(x, y, k) for x, (y, k) in sorted(top.items())]

    # Upper hull, left to right, without collinear middle vertices.
    hull: list[tuple[int, int]] = []
    for x, y, _ in highest:
        while len(hull) >= 2 and ((hull[-1][0] - hull[-2][0]) * (y - hull[-2][1])
                                  >= (hull[-1][1] - hull[-2][1]) * (x - hull[-2][0])):
            hull.pop()
        hull.append((x, y))

    # Candidate slope p/q (q > 0) -> tight intercept numerator b, so that
    # q*y - p*x <= b on every point with equality exactly at the touches.
    candidates = {(0, 1): max(y for _, y in hull)}
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        g = gcd(y2 - y1, x2 - x1)
        p, q = (y2 - y1) // g, (x2 - x1) // g
        candidates[(p, q)] = q * y1 - p * x1

    npts, sum_x, sum_y = len(xs), sum(xs), sum(ys)
    best_key = None
    best = None
    for (p, q), b in candidates.items():
        touches = sum(k for x, y, k in highest if q * y - p * x == b)
        slack = Fraction(npts * b - q * sum_y + p * sum_x, q)
        m = Fraction(p, q)
        key = (-touches, slack, abs(m), m)
        if best_key is None or key < best_key:
            best_key = key
            best = (p, q, b)

    p, q, b = best
    touch_ids = frozenset(i for x, y, i in zip(xs, ys, (pt[2] for pt in points))
                          if q * y - p * x == b)
    if not upper:
        p, b = -p, -b
    fn = SharpBoundingFunction(Fraction(p, q), Fraction(b, q * scale), direction)
    return FitResult(fn, touch_ids, len(touch_ids))
