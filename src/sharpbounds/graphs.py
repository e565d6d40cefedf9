"""Immutable simple undirected graphs and a small library of named families.

Vertices are the integers ``0 .. order-1``. Adjacency is stored densely as
one integer bitmask per vertex, which keeps subset enumeration (the workhorse
of the exact solvers) cheap at corpus scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence


def mask_rows(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask`` (vertices or rows), lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def components(rows: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Each connected component of the graph with adjacency ``rows``, by
    lowest vertex, as its vertex mask and the mask of its vertices with a
    neighbor in their own breadth-first layer from that vertex (at their
    own distance from it). Every edge joins a layer to itself or to the
    next, so the second mask is empty exactly when the component is
    bipartite: coloring by the parity of the layer is then proper, and an
    edge inside a layer closes an odd cycle."""
    left = (1 << len(rows)) - 1
    while left:
        comp = layer = left & -left
        odd = 0
        while layer:
            reach = 0
            scan = layer
            while scan:
                low = scan & -scan
                scan ^= low
                reach |= rows[low.bit_length() - 1]
            odd |= reach & layer
            layer = reach & ~comp
            comp |= layer
        left ^= comp
        yield comp, odd


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph.

    ``adjacency[v]`` is a bitmask with bit ``u`` set iff ``u`` and ``v`` are
    adjacent. The relation is symmetric and irreflexive; both properties are
    checked at construction time. ``label`` is display metadata and does not
    take part in equality or hashing.
    """

    order: int
    adjacency: tuple[int, ...]
    label: Optional[str] = field(default=None, compare=False)

    def __post_init__(self):
        n = self.order
        if n < 1:
            raise ValueError(f"graph order must be >= 1, got {n}")
        if len(self.adjacency) != n:
            raise ValueError("adjacency length differs from order")
        full = (1 << n) - 1
        for v, row in enumerate(self.adjacency):
            if row & ~full:
                raise ValueError(f"adjacency row {v} references vertices >= {n}")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v in range(n):
            for u in range(v):
                if (self.adjacency[v] >> u & 1) != (self.adjacency[u] >> v & 1):
                    raise ValueError(f"adjacency not symmetric at ({u}, {v})")

    @classmethod
    def from_edges(cls, order: int, edges: Iterable[tuple[int, int]],
                   label: Optional[str] = None) -> "Graph":
        """Build a graph from an edge list over vertices ``0 .. order-1``."""
        rows = [0] * order
        for u, v in edges:
            if not (0 <= u < order and 0 <= v < order):
                raise ValueError(f"edge ({u}, {v}) out of range for order {order}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(order, tuple(rows), label)

    @property
    def size(self) -> int:
        """Number of edges."""
        return sum(row.bit_count() for row in self.adjacency) // 2

    def degree(self, v: int) -> int:
        return self.adjacency[v].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.adjacency]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adjacency[u] >> v & 1)

    def neighbors(self, v: int) -> Iterator[int]:
        return mask_rows(self.adjacency[v])

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for v in range(self.order) for u in range(v)
                if self.adjacency[v] >> u & 1]

    def relabeled(self, label: Optional[str]) -> "Graph":
        """Same graph with a different display label."""
        return Graph(self.order, self.adjacency, label)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = f", label={self.label!r}" if self.label else ""
        return f"Graph(order={self.order}, size={self.size}{tag})"


# ---------------------------------------------------------------------------
# Named families
# ---------------------------------------------------------------------------

def complete(n: int) -> Graph:
    """Complete graph K_n."""
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)), f"K{n}")


def cycle(n: int) -> Graph:
    """Cycle C_n, n >= 3."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)], f"C{n}")


def path(n: int) -> Graph:
    """Path P_n on n vertices."""
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)], f"P{n}")


def star(k: int) -> Graph:
    """Star K_{1,k}: one center joined to k leaves."""
    if k < 1:
        raise ValueError("star needs k >= 1")
    return Graph.from_edges(k + 1, [(0, i) for i in range(1, k + 1)], f"K1,{k}")


def complete_bipartite(a: int, b: Optional[int] = None) -> Graph:
    """Complete bipartite graph K_{a,b}; with one argument, the balanced K_{a,a}."""
    if b is None:
        b = a
    if a < 1 or b < 1:
        raise ValueError("complete bipartite needs both sides >= 1")
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    return Graph.from_edges(a + b, edges, f"K{a},{b}")


def prism(k: int) -> Graph:
    """Prism over C_k: two k-cycles joined by a perfect matching."""
    if k < 3:
        raise ValueError("prism needs k >= 3")
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(k + i, k + (i + 1) % k) for i in range(k)]
    edges += [(i, k + i) for i in range(k)]
    return Graph.from_edges(2 * k, edges, f"prism{k}")


def petersen() -> Graph:
    """The Petersen graph: outer 5-cycle, inner pentagram, five spokes."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, edges, "petersen")


def disjoint_union(*parts: Graph) -> Graph:
    """Disjoint union of one or more graphs, numbered part after part."""
    if not parts:
        raise ValueError("disjoint union needs at least one graph")
    edges, offset = [], 0
    for part in parts:
        edges += [(u + offset, v + offset) for u, v in part.edges()]
        offset += part.order
    return Graph.from_edges(offset, edges)
