#!/usr/bin/env python3
"""Tour of the graph type, graph6 serialization and the exact solvers.

Run from the repository root:  python3 demos/01_graphs_and_invariants.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sharpbounds import (
    complete,
    complete_bipartite,
    cycle,
    forcing_closure,
    parse_graph6,
    petersen,
    prism,
    standard_invariants,
    standard_predicates,
    to_graph6,
)

print("== graph6 serialization ==")
c5 = cycle(5)
line = to_graph6(c5)
print(f"C5 encodes as {line!r} and round-trips: {parse_graph6(line) == c5}")

print()
print("== named graphs ==")
for g in [complete(4), petersen(), prism(3)]:
    print(f"{g.label}: {g.order} vertices, {g.size} edges, "
          f"degrees {sorted(set(g.degrees()))}")

print()
print("== exact invariants on the Petersen graph ==")
invariants = standard_invariants()
p = petersen()
for name, solver in invariants.items():
    print(f"  {name:32s} {solver(p)}")

print()
print("== Boolean predicates ==")
predicates = standard_predicates()
for g in [p, cycle(6), complete_bipartite(3)]:
    flags = [name for name, holds in predicates.items() if holds(g)]
    print(f"  {g.label}: {', '.join(flags)}")

print()
print("== zero forcing, step by step ==")
# one endpoint forces an entire path; a stalled set stays put
from sharpbounds import path as path_graph  # noqa: E402

p4 = path_graph(4)
print(f"  closure of {{0}} on P4: {sorted(forcing_closure(p4, {0}))}")
c4 = cycle(4)
print(f"  closure of {{0}} on C4: {sorted(forcing_closure(c4, {0}))} (stalls)")
