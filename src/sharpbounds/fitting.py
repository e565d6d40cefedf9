"""Exact fitting of sharp linear bounds that maximize the touch number.

Given points and a direction, the fitter returns a line y <= m*x + b (or >=)
that is feasible on every point, touches at least one point exactly, and
touches as many rows as any feasible line does. A lower bound on y is fitted
as an upper bound on -y and mirrored back.

A point is ``(x, y, rows)``: a coordinate pair and the non-empty ``int``
bitmask of the rows (objects) sitting there, as
:meth:`~sharpbounds.features.FeatureTable.select_rows` returns them. A
point's weight is the popcount of ``rows``; every count below (touches,
total slack) is weighted, and the rows of distinct points must be disjoint.
Two points may share coordinates, so one point per row is valid input too.
Points are read in x order, the (x, y) order in which ``select_rows``
returns them; input in any other order is sorted by x first.

Only the highest point above each distinct x can touch a feasible line. One
pass reads each point once: it checks the row mask, mirrors y for a lower
bound and keeps the highest point above every x, so input in x order is
never copied or sorted. The candidate slopes are those of the edges of the upper convex hull of these
points (Andrew's monotone chain), plus slope zero. This loses nothing: any
feasible line can be translated to a tight one without losing touches; a
tight feasible line touching two or more distinct points contains a hull
edge; and when there are at least two distinct x values, a tight line
touching a single distinct point touches a hull vertex, so the line through
an edge at that vertex touches strictly more rows. With a single distinct
x only slope zero is a candidate. Each candidate's intercept is read off a
hull point. Its touches are the rows of the highest points on its line:
all points at the top y for slope zero, and for an edge the points between
its two ends, since every point outside them lies strictly below the line
(the hull's other edges have strictly different slopes). Counting every
candidate's touches therefore takes time linear in the number of distinct x.

Coordinates are ints, as every feature-table cell is, so the search runs
in integers. Candidates are ranked by the key (most touches,
least total slack, least |slope|, then the slope itself). Only candidates
tied on touches need the rest of the key, so the weighted row count and x
sum are taken only then. A candidate p/q has slack S/q - sum_y, with
S = npts*b + p*sum_x, and sum_y is the same for every candidate, so
multiplying the key's rational entries by the common denominator D of the
tied candidates' q turns them into the integers S*(D/q), |p|*(D/q) and
p*(D/q), up to the common term D*sum_y. Scaling by D > 0 keeps every
comparison, so the integer key picks the same line as the rational one. The result is
integer too: :class:`SharpBoundingFunction` holds the slope and intercept as
reduced (numerator, denominator) pairs and compares a point against them by
cross-multiplication. There is no tolerance anywhere; a touch means the
rational values are equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import Optional, Sequence

UPPER = "upper"
LOWER = "lower"


@dataclass(frozen=True, slots=True)
class SharpBoundingFunction:
    """An affine bound y <= m*x + b (upper) or y >= m*x + b (lower), in
    integers.

    ``slope`` m = p/q and ``intercept`` b = c/e are reduced ``(numerator,
    denominator)`` pairs with positive denominators, so equal bounds have
    equal pairs. A point (x, y) is compared by the sign of
    ``y*q*e - p*e*x - c*q``, which is that of y - (m*x + b) scaled by q*e > 0.
    """

    slope: tuple[int, int]
    intercept: tuple[int, int]
    direction: str

    def __post_init__(self):
        if self.direction not in (UPPER, LOWER):
            raise ValueError(f"direction must be {UPPER!r} or {LOWER!r}")
        for num, den in (self.slope, self.intercept):
            if den < 1 or gcd(num, den) != 1:
                raise ValueError("slope and intercept must be reduced pairs")

    def _excess(self, x, y) -> int:
        (p, q), (c, e) = self.slope, self.intercept
        return y * q * e - p * e * x - c * q

    def evaluate(self, x) -> Fraction:
        """Exact value m*x + b at an integer x."""
        (p, q), (c, e) = self.slope, self.intercept
        return Fraction(p * e * x + c * q, q * e)

    def violations(self, points: Sequence[tuple[int, int, int]]) -> int:
        """Union of the row masks of the points ``(x, y, rows)`` that violate
        the bound: excess above zero for an upper bound, below for a lower."""
        (p, q), (c, e) = self.slope, self.intercept
        qe, pe, cq = q * e, p * e, c * q
        sign = 1 if self.direction == UPPER else -1
        violated = 0
        for x, y, rows in points:
            if (y * qe - pe * x - cq) * sign > 0:
                violated |= rows
        return violated

    def holds(self, x, y) -> bool:
        """Whether (x, y) satisfies the bound exactly."""
        return not self.violations(((x, y, 1),))

    def touches(self, x, y) -> bool:
        return self._excess(x, y) == 0


@dataclass(frozen=True)
class FitResult:
    """A fitted bound with the mask of the rows it touches."""

    bound: SharpBoundingFunction
    touched: int

    def __post_init__(self):
        if self.touched < 1:
            raise ValueError("a fit touches at least one row")

    @property
    def touch_number(self) -> int:
        return self.touched.bit_count()


def fit_linear_bound(points: Sequence[tuple], direction: str
                     ) -> Optional[FitResult]:
    """Fit the touch-maximal sharp linear bound over ``points``.

    Parameters
    ----------
    points : sequence of (x, y, rows)
        Coordinates are ints; ``rows`` is a non-empty row
        bitmask, disjoint from every other point's, whose popcount is the
        point's weight. Points in x order are read as given, any other
        order is sorted by x. The touched rows come back as one mask.
        Returns ``None`` on empty input.
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

    # One pass over the points checks each row mask, mirrors y for a lower
    # bound and keeps the highest y above each distinct x with the mask of
    # the rows there, in x order. A point out of x order ends the pass,
    # which is then run once more on the points stably sorted by x.
    upper = direction == UPPER
    while True:
        hx: list[int] = []
        hy: list[int] = []
        hr: list[int] = []
        last = None
        for x, y, r in points:
            if r <= 0:
                raise ValueError("every point needs a non-empty row mask")
            if not upper:
                # y >= m*x + b iff -y <= -m*x - b, with the same slack: fit
                # the mirror as an upper bound, where the sign tie-break
                # prefers the smaller slope, i.e. the larger one once
                # negated back.
                y = -y
            if x == last:
                if y > top:
                    top = hy[-1] = y
                    hr[-1] = r
                elif y == top:
                    hr[-1] |= r
                continue
            if last is not None and x < last:
                break
            last, top = x, y
            hx.append(x)
            hy.append(y)
            hr.append(r)
        else:
            break
        points = sorted(points, key=itemgetter(0))

    # Upper hull, left to right, as positions in hx, without collinear
    # middle vertices.
    hull: list[int] = []
    for k, (x, y) in enumerate(zip(hx, hy)):
        while len(hull) >= 2:
            i, j = hull[-2], hull[-1]
            if (hx[j] - hx[i]) * (y - hy[i]) < (hy[j] - hy[i]) * (x - hx[i]):
                break
            hull.pop()
        hull.append(k)

    # Candidates (touch mask, p, q, b) for slope p/q (q > 0) and tight
    # intercept numerator b: q*y - p*x <= b on every point, with equality
    # exactly at the touches. A flat hull edge is the slope-zero line. A
    # point left of an edge's start or right of its end lies strictly below
    # the edge's line, so only the points between its ends can touch it.
    # The candidates with the most touches are kept in ``tied``.
    ymax = max(hy)
    touched = 0
    for y, r in zip(hy, hr):
        if y == ymax:
            touched |= r
    tied = [(touched, 0, 1, ymax)]
    most = touched.bit_count()
    for i, j in zip(hull, hull[1:]):
        dy, dx = hy[j] - hy[i], hx[j] - hx[i]
        if dy == 0:
            continue
        g = gcd(dy, dx)
        p, q = dy // g, dx // g
        b = q * hy[i] - p * hx[i]
        touched = 0
        for k in range(i, j + 1):
            if q * hy[k] - p * hx[k] == b:
                touched |= hr[k]
        n = touched.bit_count()
        if n > most:
            tied, most = [], n
        if n == most:
            tied.append((touched, p, q, b))

    # Ties on touches go to the least (slack, |m|, m), compared as integers
    # scaled by the common denominator den (module docstring).
    if len(tied) > 1:
        npts = sum_x = 0
        for x, _, r in points:
            w = r.bit_count()
            npts += w
            sum_x += x * w
        den = lcm(*(c[2] for c in tied))

        def key(candidate):
            _, p, q, b = candidate
            s = den // q
            return ((npts * b + p * sum_x) * s, abs(p) * s, p * s)

        tied.sort(key=key)
    touched, p, q, b = tied[0]
    if not upper:
        p, b = -p, -b
    g = gcd(b, q)
    return FitResult(SharpBoundingFunction((p, q), (b // g, q // g), direction),
                     touched)
