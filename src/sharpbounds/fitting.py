"""Exact fitting of sharp linear bounds that maximize the touch number.

Given points (x_i, y_i) and a direction, the fitter returns a line
y <= m*x + b (or >=) that is feasible on every point, touches at least one
point exactly, and touches as many points as any feasible line does. The
search enumerates every pairwise slope plus slope zero and tightens the
intercept against the point cloud: any feasible line can be translated to a
tight one without losing touches, and a tight line touching two or more
points must use a pairwise slope, so the enumeration is exhaustive.

Coordinates are ints or Fractions, used as given with no coercion; all
arithmetic is exact. There is no tolerance anywhere; a touch means the
rational values are equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
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

    # Scale to integer coordinates: slopes are unchanged, intercepts and
    # slacks scale uniformly by L, so comparisons are unaffected.
    ids = [p[2] for p in points]
    scale = lcm(*(v.denominator for p in points for v in p[:2]))
    xi = [int(p[0] * scale) for p in points]
    yi = [int(p[1] * scale) for p in points]
    npts = len(points)
    upper = direction == UPPER

    # Candidate slopes: all pairwise slopes over distinct coordinates, plus 0.
    slopes: set[tuple[int, int]] = {(0, 1)}
    distinct = sorted(set(zip(xi, yi)))
    for a in range(len(distinct)):
        x1, y1 = distinct[a]
        for b in range(a + 1, len(distinct)):
            x2, y2 = distinct[b]
            if x1 == x2:
                continue
            f = Fraction(y2 - y1, x2 - x1)
            slopes.add((f.numerator, f.denominator))

    best_key = None
    best = None
    sign = 1 if upper else -1
    for p, q in sorted(slopes):
        # s_i = q*y_i - p*x_i; the tight intercept is max(s)/q (upper) or
        # min(s)/q (lower), and a point touches iff s_i equals that extreme.
        s = [q * yi[k] - p * xi[k] for k in range(npts)]
        b_num = max(s) if upper else min(s)
        touched = [k for k in range(npts) if s[k] == b_num]
        slack = Fraction(sign * (npts * b_num - sum(s)), q)
        m = Fraction(p, q)
        key = (-len(touched), slack, abs(m), m if upper else -m)
        if best_key is None or key < best_key:
            best_key = key
            best = (m, Fraction(b_num, q * scale), touched)

    m, b, touched = best
    fn = SharpBoundingFunction(m, b, direction)
    touch_ids = frozenset(ids[k] for k in touched)
    return FitResult(fn, touch_ids, len(touch_ids))
