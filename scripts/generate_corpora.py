#!/usr/bin/env python3
"""One-off generator for the bundled corpora under data/.

Produces:
  data/cubic_connected_4_10.g6   every connected cubic graph on 4..10
                                 vertices, one per isomorphism class
  data/mixed_graphs.g6           named families plus seeded random graphs

The cubic census is enumerated here (labeled enumeration with the first
neighborhood pinned, then isomorphism dedup) and cross-checked against
networkx plus the published class counts (1, 2, 5, 19). Run from the
repository root:

    PYTHONPATH=src python3 scripts/generate_corpora.py

The output files are committed; tests read them and never regenerate.
Requires networkx for the independent cross-checks only.
"""

from __future__ import annotations

import random
import sys
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import networkx as nx

from sharpbounds import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    parse_graph6,
    path,
    petersen,
    prism,
    star,
    to_graph6,
    vertex_cover_number,
    zero_forcing_number,
)
from sharpbounds.predicates import is_claw_free, is_connected


# ---------------------------------------------------------------------------
# Labeled cubic enumeration
# ---------------------------------------------------------------------------

def labeled_cubic_graphs(n: int):
    """Yield adjacency rows of every labeled cubic graph with N(0) = {1,2,3}.

    Repeatedly saturate the lowest vertex with remaining degree by joining it
    to higher unsaturated non-neighbors; each labeled graph arises exactly
    once. Every isomorphism class has a labeling with N(0) = {1,2,3}, so
    pinning the first step only trims labeled duplicates.
    """
    rows = [0] * n
    deg = [3] * n
    for v in (1, 2, 3):
        rows[0] |= 1 << v
        rows[v] |= 1
        deg[v] -= 1
    deg[0] = 0

    def extend():
        v = next((u for u in range(n) if deg[u]), None)
        if v is None:
            yield tuple(rows)
            return
        candidates = [u for u in range(v + 1, n)
                      if deg[u] and not rows[v] >> u & 1]
        if len(candidates) < deg[v]:
            return
        need = deg[v]
        for combo in combinations(candidates, need):
            for u in combo:
                rows[v] |= 1 << u
                rows[u] |= 1 << v
                deg[u] -= 1
            deg[v] = 0
            yield from extend()
            deg[v] = need
            for u in combo:
                rows[v] &= ~(1 << u)
                rows[u] &= ~(1 << v)
                deg[u] += 1

    yield from extend()


def fingerprint(g: Graph) -> tuple:
    """Cheap isomorphism invariant: local triangle profile and distances."""
    n = g.order
    rows = g.adjacency
    tri = sorted((rows[v] & rows[u]).bit_count()
                 for v in range(n) for u in g.neighbors(v) if u > v)
    dist_counts = []
    for s in range(n):
        seen = 1 << s
        frontier = 1 << s
        layers = []
        while frontier:
            nxt = 0
            scan = frontier
            while scan:
                low = scan & -scan
                nxt |= rows[low.bit_length() - 1]
                scan ^= low
            frontier = nxt & ~seen
            seen |= nxt
            layers.append(frontier.bit_count())
        dist_counts.append(tuple(layers))
    return (n, tuple(tri), tuple(sorted(dist_counts)))


def isomorphic(g: Graph, h: Graph) -> bool:
    """Backtracking isomorphism test for small graphs."""
    if g.order != h.order or sorted(g.degrees()) != sorted(h.degrees()):
        return False
    n = g.order
    gr, hr = g.adjacency, h.adjacency

    mapping = [-1] * n
    used = 0

    def place(v: int) -> bool:
        nonlocal used
        if v == n:
            return True
        for w in range(n):
            if used >> w & 1 or hr[w].bit_count() != gr[v].bit_count():
                continue
            ok = True
            for u in range(v):
                if (gr[v] >> u & 1) != (hr[w] >> mapping[u] & 1):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used |= 1 << w
                if place(v + 1):
                    return True
                used &= ~(1 << w)
        return False

    return place(0)


def connected_cubic_classes(n: int) -> list[Graph]:
    """All connected cubic graphs on n vertices up to isomorphism."""
    champions: dict[tuple, list[Graph]] = {}
    count_labeled = 0
    for rows in labeled_cubic_graphs(n):
        count_labeled += 1
        g = Graph(n, rows)
        if not is_connected(g):
            continue
        fp = fingerprint(g)
        bucket = champions.setdefault(fp, [])
        if not any(isomorphic(g, seen) for seen in bucket):
            bucket.append(g)
    print(f"  n={n}: {count_labeled} pinned labelings")
    classes = [g for bucket in champions.values() for g in bucket]
    return sorted(classes, key=to_graph6)


# ---------------------------------------------------------------------------
# Cross-checks
# ---------------------------------------------------------------------------

def to_networkx(g: Graph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(g.order))
    G.add_edges_from(g.edges())
    return G


def audit_cubic(classes: dict[int, list[Graph]]) -> None:
    expected = {4: 1, 6: 2, 8: 5, 10: 19}
    for n, graphs in classes.items():
        assert len(graphs) == expected[n], (n, len(graphs))
        for g in graphs:
            assert all(d == 3 for d in g.degrees())
            assert is_connected(g)
            assert nx.is_connected(to_networkx(g))
            # round-trip agreement with networkx's codec
            line = to_graph6(g)
            via_nx = nx.from_graph6_bytes(line.encode())
            assert nx.is_isomorphic(via_nx, to_networkx(g))
            assert parse_graph6(line) == g
        for a, b in combinations(graphs, 2):
            assert not nx.is_isomorphic(to_networkx(a), to_networkx(b))
    assert any(nx.is_isomorphic(to_networkx(g), to_networkx(petersen()))
               for g in classes[10])
    print("  census audit passed (1, 2, 5, 19 classes; Petersen present)")


# ---------------------------------------------------------------------------
# Mixed corpus
# ---------------------------------------------------------------------------

def random_connected(rng: random.Random, n: int) -> Graph:
    while True:
        edges = [(u, v) for u, v in combinations(range(n), 2)
                 if rng.random() < 0.45]
        g = Graph.from_edges(n, edges)
        if is_connected(g):
            return g


def build_mixed(rng: random.Random) -> list[Graph]:
    graphs = [
        complete(2), complete(3), complete(4), complete(5), complete(6),
        cycle(3), cycle(4), cycle(5), cycle(6), cycle(7), cycle(8),
        path(3), path(4), path(5), path(6),
        star(3), star(4), star(5),
        complete_bipartite(2), complete_bipartite(3), complete_bipartite(2, 4),
        prism(3), prism(4),
        petersen(),
        disjoint_union(cycle(4), cycle(4)),
        disjoint_union(star(3), complete(2)),
    ]
    for n in (5, 6, 7, 8) * 4:
        graphs.append(random_connected(rng, n))
    # The vertex cover bound on claw-free graphs is the verification target;
    # make sure the shipped corpus contains no degenerate violation.
    for g in graphs:
        if is_claw_free(g):
            assert zero_forcing_number(g) <= vertex_cover_number(g), to_graph6(g)
    return graphs


def main() -> None:
    data = ROOT / "data"
    data.mkdir(exist_ok=True)

    print("enumerating connected cubic graphs on 4..10 vertices")
    classes = {n: connected_cubic_classes(n) for n in (4, 6, 8, 10)}
    audit_cubic(classes)
    cubic = [g for n in (4, 6, 8, 10) for g in classes[n]]
    (data / "cubic_connected_4_10.g6").write_text(
        "".join(to_graph6(g) + "\n" for g in cubic))
    print(f"wrote data/cubic_connected_4_10.g6 ({len(cubic)} graphs)")

    mixed = build_mixed(random.Random(20240917))
    (data / "mixed_graphs.g6").write_text(
        "".join(to_graph6(g) + "\n" for g in mixed))
    print(f"wrote data/mixed_graphs.g6 ({len(mixed)} graphs)")


if __name__ == "__main__":
    main()
