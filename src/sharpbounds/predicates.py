"""Boolean structural predicates used as conjecture hypotheses."""

from __future__ import annotations

from itertools import combinations
from typing import Callable

from .graphs import Graph, components


def is_connected(g: Graph) -> bool:
    """True when every vertex is reachable from vertex 0."""
    return next(components(g.adjacency))[0] == (1 << g.order) - 1


def is_bipartite(g: Graph) -> bool:
    """True when the vertices admit a proper 2-coloring: when no
    breadth-first layer of a component holds an edge."""
    return not any(odd for _, odd in components(g.adjacency))


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
