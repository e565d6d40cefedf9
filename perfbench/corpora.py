"""Seeded inputs: the generated corpora and the sweep op order.

Every random choice comes from ``random.Random("<workload>/<seed>/<index>")``
(string seeds hash the same way in every process), so one seed always gives
byte-identical corpora and op order.

Random graphs are G(n, p) in its fixed-edge-count form: exactly
``round(p * n * (n - 1) / 2)`` edges chosen uniformly. Letting the edge count
vary as in the independent-edge form makes the exact solvers' cost swing by
up to 10x between graphs with the same (n, p), which would make per-op times
depend on the seed more than on the program.
"""

from __future__ import annotations

import random

from sharpbounds.graphs import Graph, prism

# (order, edge density) per graph. Costs of the solvers grow steeply with the
# edge count, so each tabulate cell is chosen to cost about the same and no
# single graph dominates an op; the cells still span n = 13..16 and
# p = 0.25..0.45.
TABULATE_CELLS = ((13, 0.45), (14, 0.40), (14, 0.45), (15, 0.35), (15, 0.40),
                  (16, 0.25), (16, 0.30), (16, 0.30))
TABULATE_PRISMS = (7, 8)  # prisms on 14 and 16 vertices, randomly relabelled
REFUTE_CELLS = tuple((n, p) for n in (9, 10, 11) for p in (0.3, 0.4, 0.5, 0.6))


def rng_for(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def random_graph(rng: random.Random, n: int, p: float, label: str) -> Graph:
    pairs = [(u, v) for v in range(n) for u in range(v)]
    return Graph.from_edges(n, rng.sample(pairs, round(p * len(pairs))), label)


def relabelled(rng: random.Random, g: Graph, label: str) -> Graph:
    perm = list(range(g.order))
    rng.shuffle(perm)
    return Graph.from_edges(g.order, [(perm[u], perm[v]) for u, v in g.edges()],
                            label)


def tabulate_corpus(seed: int, index: int, stem: str) -> list[Graph]:
    """One fresh corpus for a ``tabulate`` op, labelled as the CLI will."""
    rng = rng_for("tabulate", seed, index)
    graphs = [random_graph(rng, n, p, "") for n, p in TABULATE_CELLS]
    graphs += [relabelled(rng, prism(k), "") for k in TABULATE_PRISMS]
    return [g.relabeled(f"{stem}#{i}") for i, g in enumerate(graphs, 1)]


def refute_corpus(seed: int, index: int, stem: str) -> list[Graph]:
    """One fresh corpus of order 9..11 graphs for a ``refute`` op."""
    rng = rng_for("refute", seed, index)
    return [random_graph(rng, n, p, f"{stem}#{i}")
            for i, (n, p) in enumerate(REFUTE_CELLS, 1)]


def sweep_order(seed: int, round_index: int, n_ops: int) -> list[int]:
    """The seeded permutation of the sweep's (corpus, target) ops in one round."""
    order = list(range(n_ops))
    rng_for("sweep", seed, round_index).shuffle(order)
    return order
