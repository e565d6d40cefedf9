#!/usr/bin/env python3
"""How the exact bound fitter picks the line touching the most points.

Each point is (x, y, rows): a coordinate pair and the bitmask of the rows
(graphs) that sit there, so bit i stands for row i. A point counts once per
row it holds, and the fit reports the rows it touches as one mask. Points
are read in x order, as a feature table's row selection returns them; any
other order is sorted first. The fit itself is integers: ``result.bound``
holds slope and intercept as reduced (numerator, denominator) pairs, and
its ``compare`` checks points against them by cross-multiplication, with no
Fraction, returning the masks of the rows that violate and that touch it.

Run from the repository root:  python3 demos/02_sharp_bound_fitting.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sharpbounds import fit_linear_bound, mask_rows


def rows(mask):
    return list(mask_rows(mask))


def fraction(pair):
    num, den = pair
    return str(num) if den == 1 else f"{num}/{den}"


def rhs(bound):
    return f"{fraction(bound.slope)}*x + {fraction(bound.intercept)}"


print("== a perfectly linear cloud ==")
points = [(1, 1, 1 << 0), (2, 2, 1 << 1), (3, 3, 1 << 2)]
result = fit_linear_bound(points, "upper")
print(f"points {[(x, y) for x, y, _ in points]}")
print(f"upper bound: y <= {rhs(result.bound)}"
      f"   touches {result.touch_number} of {len(points)}")

print()
print("== ties break toward the flattest line ==")
points = [(1, 2, 1 << 0), (2, 2, 1 << 1), (3, 1, 1 << 2)]
result = fit_linear_bound(points, "upper")
print(f"points {[(x, y) for x, y, _ in points]}")
print(f"upper bound: y <= {rhs(result.bound)}"
      f"   touched rows {rows(result.touched)}")

print()
print("== lower bounds work the same way ==")
points = [(1, 1, 1 << 0), (2, 3, 1 << 1), (3, 4, 1 << 2)]
result = fit_linear_bound(points, "lower")
print(f"points {[(x, y) for x, y, _ in points]}")
print(f"lower bound: y >= {rhs(result.bound)}"
      f"   touched rows {rows(result.touched)}")

print()
print("== rows sharing a point all count: weight is the popcount of rows ==")
# rows 0-2 sit at (0, 0); both hull edges touch two points, the left one
# touches four rows and wins
points = [(0, 0, 0b111), (1, 2, 1 << 3), (3, 3, 1 << 4)]
result = fit_linear_bound(points, "upper")
print(f"points {[(x, y, rows(r)) for x, y, r in points]}")
print(f"upper bound: y <= {rhs(result.bound)}"
      f"   touched rows {rows(result.touched)} ({result.touch_number} of 5)")

print()
print("== everything is exact rational arithmetic ==")
points = [(2, 3, 1 << 0), (4, 6, 1 << 1), (6, 9, 1 << 2), (3, 4, 1 << 3)]
result = fit_linear_bound(points, "upper")
print(f"points {[(x, y) for x, y, _ in points]}")
bound = result.bound
print(f"integer fit: slope {bound.slope}, intercept {bound.intercept}"
      f" as (numerator, denominator)")
print(f"upper bound: y <= {rhs(bound)}")
violated, touched = bound.compare([(5, 7, 1 << 0), (6, 9, 1 << 1)])
print(f"(5, 7) as row 0 and (6, 9) as row 1: violated rows {rows(violated)},"
      f" touched rows {rows(touched)} (cross-multiplied, no rounding anywhere)")
print(f"value at x=5: {bound.evaluate(5)} (exact, as a Fraction)")
