#!/usr/bin/env python3
"""How the exact bound fitter picks the line touching the most points.

Each point is (x, y, rows): a coordinate pair and the bitmask of the rows
(graphs) that sit there, so bit i stands for row i. A point counts once per
row it holds, and the fit reports the rows it touches as one mask. Points
are read in x order, as a feature table's row selection returns them; any
other order is sorted first. The fit itself is integers: slope and
intercept come as reduced (numerator, denominator) pairs, and
``result.function`` builds the Fraction bound from them when it is read.

Run from the repository root:  python3 demos/02_sharp_bound_fitting.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sharpbounds import fit_linear_bound, mask_rows


def rows(mask):
    return list(mask_rows(mask))


print("== a perfectly linear cloud ==")
points = [(1, 1, 1 << 0), (2, 2, 1 << 1), (3, 3, 1 << 2)]
result = fit_linear_bound(points, "upper")
print(f"points {[(x, y) for x, y, _ in points]}")
print(f"upper bound: y <= {result.function.slope}*x + {result.function.intercept}"
      f"   touches {result.touch_number} of {len(points)}")

print()
print("== ties break toward the flattest line ==")
points = [(1, 2, 1 << 0), (2, 2, 1 << 1), (3, 1, 1 << 2)]
result = fit_linear_bound(points, "upper")
print(f"points {[(x, y) for x, y, _ in points]}")
print(f"upper bound: y <= {result.function.slope}*x + {result.function.intercept}"
      f"   touched rows {rows(result.touched)}")

print()
print("== lower bounds work the same way ==")
points = [(1, 1, 1 << 0), (2, 3, 1 << 1), (3, 4, 1 << 2)]
result = fit_linear_bound(points, "lower")
print(f"points {[(x, y) for x, y, _ in points]}")
print(f"lower bound: y >= {result.function.slope}*x + {result.function.intercept}"
      f"   touched rows {rows(result.touched)}")

print()
print("== rows sharing a point all count: weight is the popcount of rows ==")
# rows 0-2 sit at (0, 0); both hull edges touch two points, the left one
# touches four rows and wins
points = [(0, 0, 0b111), (1, 2, 1 << 3), (3, 3, 1 << 4)]
result = fit_linear_bound(points, "upper")
print(f"points {[(x, y, rows(r)) for x, y, r in points]}")
print(f"upper bound: y <= {result.function.slope}*x + {result.function.intercept}"
      f"   touched rows {rows(result.touched)} ({result.touch_number} of 5)")

print()
print("== everything is exact rational arithmetic ==")
points = [(2, 3, 1 << 0), (4, 6, 1 << 1), (6, 9, 1 << 2), (3, 4, 1 << 3)]
result = fit_linear_bound(points, "upper")
print(f"points {[(x, y) for x, y, _ in points]}")
print(f"integer fit: slope {result.slope}, intercept {result.intercept}"
      f" as (numerator, denominator)")
fn = result.function
print(f"upper bound: y <= {fn.slope}*x + {fn.intercept}")
print(f"value at x=5: {fn.evaluate(5)} (a Fraction, no rounding anywhere)")
