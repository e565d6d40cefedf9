"""Boolean structural predicates used as conjecture hypotheses."""

from __future__ import annotations

from itertools import combinations
from typing import Callable

from .graphs import Graph


def is_connected(g: Graph) -> bool:
    """True when every vertex is reachable from vertex 0."""
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        row = frontier
        while row:
            low = row & -row
            nxt |= g.adjacency[low.bit_length() - 1]
            row ^= low
        frontier = nxt & ~seen
        seen |= nxt
    return seen == (1 << g.order) - 1


def is_bipartite(g: Graph) -> bool:
    """True when the vertices admit a proper 2-coloring."""
    color = [None] * g.order
    for start in range(g.order):
        if color[start] is not None:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for u in g.neighbors(v):
                if color[u] is None:
                    color[u] = color[v] ^ 1
                    stack.append(u)
                elif color[u] == color[v]:
                    return False
    return True


def is_regular(g: Graph) -> bool:
    """True when all vertex degrees coincide."""
    return len(set(g.degrees())) == 1


def is_cubic(g: Graph) -> bool:
    """True when every vertex has degree exactly 3."""
    return all(d == 3 for d in g.degrees())


def is_claw_free(g: Graph) -> bool:
    """True when no vertex has three pairwise non-adjacent neighbors."""
    for v in range(g.order):
        nbrs = list(g.neighbors(v))
        if len(nbrs) < 3:
            continue
        for a, b, c in combinations(nbrs, 3):
            if not (g.has_edge(a, b) or g.has_edge(a, c) or g.has_edge(b, c)):
                return False
    return True


def has_isolated_vertex(g: Graph) -> bool:
    """True when some vertex has degree 0."""
    return any(row == 0 for row in g.adjacency)


def is_tree(g: Graph) -> bool:
    """True when the graph is connected and acyclic."""
    return g.size == g.order - 1 and is_connected(g)


def standard_predicates() -> dict[str, Callable[[Graph], bool]]:
    """The built-in predicate registry, in canonical column order."""
    return {
        "connected": is_connected,
        "bipartite": is_bipartite,
        "regular": is_regular,
        "cubic": is_cubic,
        "claw-free": is_claw_free,
        "has_isolated_vertex": has_isolated_vertex,
        "is_tree": is_tree,
    }
