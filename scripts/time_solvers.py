#!/usr/bin/env python3
"""Time every exact solver on a fixed list of hard graphs of one order.

At order 20 the list is the 29 graphs that README's solver timings name:
``E_20``, ``K_20``, ``K_10,10``, ``C_20``, ``P_20``, ``5K_4``, ``10K_2``,
``K_1,9 + 5K_2``, and three random graphs with round(p·190) edges for each p
in 0.03, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, the edges drawn by
``random.Random("order20/<p>/<k>")`` for k = 1, 2, 3. Another order, a
multiple of 4, scales the same families (``--order 8`` gives ``2K_4``,
``K_1,3 + 2K_2``, ...).

Every solver but the four that take no search is timed, best of three
calls per graph; the table gives, per solver, its slowest graph and that
time. ``--values`` also prints every solver value (``-`` where undefined),
so two checkouts can be compared with ``diff``.

    python3 scripts/time_solvers.py                  # order 20
    python3 scripts/time_solvers.py --order 8 --values

It imports the package from this checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sharpbounds import (  # noqa: E402
    Graph,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    path,
)
from sharpbounds.errors import UndefinedInvariantError  # noqa: E402
from sharpbounds.invariants import MAX_ORDER, standard_invariants  # noqa: E402

DENSITIES = (0.03, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7)
SEEDS = (1, 2, 3)
# invariants that take no search
CHEAP = ("order", "size", "min_degree", "max_degree")
REPEAT = 3


def hard_graphs(n: int) -> list[Graph]:
    half, quarter = n // 2, n // 4
    star = complete_bipartite(1, half - 1)
    graphs = [
        Graph.from_edges(n, [], f"E_{n}"),
        complete(n).relabeled(f"K_{n}"),
        complete_bipartite(half).relabeled(f"K_{half},{half}"),
        cycle(n).relabeled(f"C_{n}"),
        path(n).relabeled(f"P_{n}"),
        disjoint_union(*[complete(4)] * quarter).relabeled(f"{quarter}K_4"),
        disjoint_union(*[complete(2)] * half).relabeled(f"{half}K_2"),
        disjoint_union(star, *[complete(2)] * quarter).relabeled(
            f"K_1,{half - 1} + {quarter}K_2"),
    ]
    pairs = [(u, v) for v in range(n) for u in range(v)]
    for p in DENSITIES:
        m = round(p * len(pairs))
        for k in SEEDS:
            rng = random.Random(f"order{n}/{p}/{k}")
            graphs.append(Graph.from_edges(n, rng.sample(pairs, m),
                                           f"G({n},{p})#{k}, {m} edges"))
    return graphs


def best_time(solver, g: Graph) -> tuple[float, str]:
    """Fastest of ``REPEAT`` calls, and the value as text."""
    best = float("inf")
    for _ in range(REPEAT):
        started = time.perf_counter()
        try:
            value = str(solver(g))
        except UndefinedInvariantError:
            value = "-"
        best = min(best, time.perf_counter() - started)
    return best, value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--order", type=int, default=MAX_ORDER)
    parser.add_argument("--values", action="store_true",
                        help="also print every solver value per graph")
    args = parser.parse_args(argv)
    if args.order % 4 or not 4 <= args.order <= MAX_ORDER:
        parser.error(f"--order must be a multiple of 4 in 4..{MAX_ORDER}")
    registry = standard_invariants()
    names = [name for name in registry if name not in CHEAP]

    graphs = hard_graphs(args.order)
    width = max(len(g.label) for g in graphs)
    slowest = {}
    for g in graphs:
        values = []
        for name in names:
            seconds, value = best_time(registry[name], g)
            values.append(value)
            if seconds > slowest.get(name, (-1.0, ""))[0]:
                slowest[name] = (seconds, g.label)
        if args.values:
            print(f"{g.label:<{width}}  " + " ".join(
                f"{name}={value}" for name, value in zip(names, values)))
    print(f"{'solver':<30} {'slowest_s':>10}  graph "
          f"({len(graphs)} graphs of order {args.order}, best of {REPEAT})")
    for name in names:
        seconds, label = slowest[name]
        print(f"{name:<30} {seconds:>10.4f}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
