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
pass reads each point once: it checks the row mask and keeps the highest
point above every x, reading each y as -y for a lower bound so that both
directions share one loop with no mirroring branch, and input in x order
is never copied or sorted. The candidate slopes are those of the edges of
the upper convex hull of these points (Andrew's monotone chain), plus slope
zero. This loses nothing: any feasible line can be translated to a tight one
without losing touches; a tight feasible line touching two or more distinct
points contains a hull edge; and when there are at least two distinct x
values, a tight line touching a single distinct point touches a hull vertex,
so the line through an edge at that vertex touches strictly more rows. With
a single distinct x only slope zero is a candidate. Each candidate's
intercept is read off a hull point. Its touches are the rows of the highest
points on its line: all points at the top y for slope zero, and for an edge
its two ends, which lie on the line by construction, plus whichever points
between them do, since every point outside them lies strictly below the line
(the hull's other edges have strictly different slopes). Counting every
candidate's touches therefore takes time linear in the number of distinct x.

Coordinates are ints, as every feature-table cell is, so the search runs in
integers. Candidates are ranked by the key (most touches, least total slack,
least |slope|, then the slope itself). Only candidates tied on touches need
the rest of the key, so a tie list is built, and the weighted row count and
x sum are taken, only when there is a tie. A candidate p/q has slack
S/q - sum_y, with S = npts*b + p*sum_x, and sum_y is the same for every
candidate, so multiplying the key's rational entries by the common
denominator D of the tied candidates' q turns them into the integers
S*(D/q), |p|*(D/q) and p*(D/q), up to the common term D*sum_y. Scaling by
D > 0 keeps every comparison, so the integer key picks the same line as the
rational one. The result is integer too: :class:`SharpBoundingFunction`
holds the slope and intercept as reduced (numerator, denominator) pairs and
compares a point against them by cross-multiplication. There is no tolerance
anywhere; a touch means the rational values are equal.

A bound and a fit are immutable named tuples. Their public constructors
check every field; the fitter builds its reduced pairs itself, so it makes
its result without those checks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import itemgetter, or_
from typing import Callable, NamedTuple, Optional, Sequence

UPPER = "upper"
LOWER = "lower"


class _Bound(NamedTuple):
    slope: tuple[int, int]
    intercept: tuple[int, int]
    direction: str


class SharpBoundingFunction(_Bound):
    """An affine bound y <= m*x + b (upper) or y >= m*x + b (lower), in
    integers.

    ``slope`` m = p/q and ``intercept`` b = c/e are reduced ``(numerator,
    denominator)`` pairs with positive denominators, so equal bounds have
    equal pairs. :meth:`compare` places a point (x, y) by the sign of
    ``y*q*e - p*e*x - c*q``, which is that of y - (m*x + b) scaled by q*e > 0.
    """

    __slots__ = ()

    def __new__(cls, slope, intercept, direction):
        if direction not in (UPPER, LOWER):
            raise ValueError(f"direction must be {UPPER!r} or {LOWER!r}")
        for num, den in (slope, intercept):
            if den < 1 or gcd(num, den) != 1:
                raise ValueError("slope and intercept must be reduced pairs")
        return super().__new__(cls, slope, intercept, direction)

    def evaluate(self, x) -> Fraction:
        """Exact value m*x + b at an integer x."""
        (p, q), (c, e) = self.slope, self.intercept
        return Fraction(p * e * x + c * q, q * e)

    def compare(self, points: Sequence[tuple[int, int, int]]
                ) -> tuple[int, int]:
        """``(violated, touched)``: the unions of the row masks of the points
        ``(x, y, rows)`` that violate the bound (excess above zero for an
        upper bound, below for a lower) and of those on its line."""
        (p, q), (c, e) = self.slope, self.intercept
        qe, pe, cq = q * e, p * e, c * q
        sign = 1 if self.direction == UPPER else -1
        violated = touched = 0
        for x, y, rows in points:
            excess = (y * qe - pe * x - cq) * sign
            if excess > 0:
                violated |= rows
            elif not excess:
                touched |= rows
        return violated, touched


class _Fit(NamedTuple):
    bound: SharpBoundingFunction
    touched: int


class FitResult(_Fit):
    """A fitted bound with the mask of the rows it touches."""

    __slots__ = ()

    def __new__(cls, bound, touched):
        if touched < 1:
            raise ValueError("a fit touches at least one row")
        return super().__new__(cls, bound, touched)

    @property
    def touch_number(self) -> int:
        return self.touched.bit_count()


# the fitter's own constructor: its pairs are reduced by construction, so
# the public constructors' checks are skipped
_new = tuple.__new__


def fit_linear_bound(points: Sequence[tuple], direction: str,
                     skip: Optional[Callable[[int], bool]] = None
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
    skip : callable, optional
        Asked at most twice, with a row mask, whether to stop; when it
        returns true, ``None`` is returned. First, before the hull is
        built, with the rows of the highest (upper) or lowest (lower) point
        at each x, the only rows a feasible line can touch; then, before
        ties are broken, with the union of the touches of the candidates
        with the most touches, which is that of every feasible line with
        the most touches, as each touches the rows of a candidate (module
        docstring). The second mask lies inside the first, so a test that
        stops at every subset of a mask it stops at stops the same fits
        either way: the first call only saves the hull.

    Ties on touch number are broken by smallest total slack, then smallest
    |slope|; a final sign tie prefers the smaller slope for upper bounds and
    the larger for lower bounds, which makes fitting mirror-symmetric under
    negating y and flipping the direction.
    """
    if direction == UPPER:
        upper = True
    elif direction == LOWER:
        upper = False
    else:
        raise ValueError(f"direction must be {UPPER!r} or {LOWER!r}")
    if not points:
        return None

    # y >= m*x + b iff -y <= -m*x - b, with the same slack: a lower bound is
    # fitted as an upper bound on -y, where the sign tie-break prefers the
    # smaller slope, i.e. the larger one once negated back. One pass over
    # the points checks each row mask and keeps the highest y * sign above
    # each distinct x with the mask of the rows there, in x order. A point
    # out of x order ends the pass, which is then run once more on the
    # points stably sorted by x.
    sign = 1 if upper else -1
    while True:
        hx: list[int] = []
        hy: list[int] = []
        hr: list[int] = []
        last = None
        for x, y, r in points:
            if r <= 0:
                raise ValueError("every point needs a non-empty row mask")
            y *= sign
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
    # the kept rows are the only ones a feasible line can touch
    if skip is not None and skip(reduce(or_, hr)):
        return None

    # Upper hull, left to right, as positions in hx, without collinear
    # middle vertices.
    hull: list[int] = [0]
    for k in range(1, len(hx)):
        x, y = hx[k], hy[k]
        while len(hull) > 1:
            i, j = hull[-2], hull[-1]
            xi, yi = hx[i], hy[i]
            if (hx[j] - xi) * (y - yi) < (hy[j] - yi) * (x - xi):
                break
            hull.pop()
        hull.append(k)

    # Candidates (touch mask, p, q, b) for slope p/q (q > 0) and tight
    # intercept numerator b: q*y - p*x <= b on every point, with equality
    # exactly at the touches. A flat hull edge is the slope-zero line. An
    # edge's two ends lie on its line; a point left of its start or right
    # of its end lies strictly below it, so only the points between its
    # ends are tested. ``best`` holds the first candidate with the most
    # touches, and ``tied`` every such candidate once there are two.
    ymax = max(hy)
    touched = 0
    for y, r in zip(hy, hr):
        if y == ymax:
            touched |= r
    best = (touched, 0, 1, ymax)
    most = touched.bit_count()
    tied = None
    for i, j in zip(hull, hull[1:]):
        dy, dx = hy[j] - hy[i], hx[j] - hx[i]
        if dy == 0:
            continue
        g = gcd(dy, dx)
        p, q = dy // g, dx // g
        b = q * hy[i] - p * hx[i]
        touched = hr[i] | hr[j]
        for k in range(i + 1, j):
            if q * hy[k] - p * hx[k] == b:
                touched |= hr[k]
        n = touched.bit_count()
        if n > most:
            best, most, tied = (touched, p, q, b), n, None
        elif n == most:
            if tied is None:
                tied = [best]
            tied.append((touched, p, q, b))
    if skip is not None:
        rows = best[0]
        for candidate in tied or ():
            rows |= candidate[0]
        if skip(rows):
            return None

    # Ties on touches go to the least (slack, |m|, m), compared as integers
    # scaled by the common denominator den (module docstring); the first
    # least candidate wins, as a stable sort would put it first.
    if tied is not None:
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

        best = min(tied, key=key)
    touched, p, q, b = best
    if not upper:
        p, b = -p, -b
    g = gcd(b, q)
    return _new(FitResult, (_new(SharpBoundingFunction,
                                 ((p, q), (b // g, q // g), direction)),
                            touched))
