"""Exact solvers for the numerical graph invariants fed to the engine.

Every solver returns the exact optimum as a nonnegative integer; none of
them is a heuristic. NP-hard quantities are computed by pruned exact search,
whose cost grows exponentially with the order, so every such solver refuses
a graph of order above :data:`MAX_ORDER` with :class:`ConfigError` instead of
running for minutes. Solvers return only the cardinality, never a witness
set, so branching order cannot leak into results.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

from .errors import ConfigError, UndefinedInvariantError
from .graphs import Graph, components, mask_rows

# Largest order the exponential solvers accept. Slowest call of each over the
# 29 order-20 graphs of scripts/time_solvers.py (best of three, Python 3.11.7,
# shared 2-vCPU VM): zero forcing 2.1 s (K_20; K_10,10 and G(20, 0.7) are
# close), total domination 0.012 s, matching 0.008 s, and at most 0.004 s
# for the other five. Zero forcing alone keeps the limit at 20.
MAX_ORDER = 20


def _require_order(g: Graph) -> None:
    if g.order > MAX_ORDER:
        raise ConfigError(
            f"graph {g.label or '(unlabeled)'} has order {g.order}, above the "
            f"exact solvers' maximum order {MAX_ORDER}")


# ---------------------------------------------------------------------------
# Trivial invariants
# ---------------------------------------------------------------------------

def order(g: Graph) -> int:
    """Number of vertices."""
    return g.order


def size(g: Graph) -> int:
    """Number of edges."""
    return g.size


def min_degree(g: Graph) -> int:
    return min(g.degrees())


def max_degree(g: Graph) -> int:
    return max(g.degrees())


# ---------------------------------------------------------------------------
# Independence and covering
# ---------------------------------------------------------------------------

def independence_number(g: Graph) -> int:
    """Maximum size of a pairwise non-adjacent vertex set: the largest
    maximal independent set."""
    _require_order(g)
    return max(s.bit_count() for s in _maximal_independent_sets(g.adjacency))


def _maximal_independent_sets(rows: tuple[int, ...]) -> Iterator[int]:
    # Every maximal independent set of the graph with adjacency ``rows``,
    # once each, as a vertex mask: an iterative Bron-Kerbosch search with
    # pivoting (Tomita, Tanaka and Takahashi, 2006) over the bitmask rows.
    closed = [row | (1 << v) for v, row in enumerate(rows)]
    # (chosen I so far, candidates P, excluded X); a leaf with P and X empty
    # is a maximal independent set
    stack = [(0, (1 << len(rows)) - 1, 0)]
    while stack:
        chosen, cand, excl = stack.pop()
        if not cand:
            if not excl:
                yield chosen
            continue
        # every maximal independent set holds the pivot or one of its
        # neighbors, so only those candidates are branched on; the pivot is
        # the vertex of P or X whose closed neighborhood meets the fewest
        # candidates, found by a plain loop (max() with a key function made
        # the whole enumeration twice as slow)
        scan = cand | excl
        fewest = cand.bit_count() + 1
        while scan:
            low = scan & -scan
            scan ^= low
            meets = cand & closed[low.bit_length() - 1]
            if meets.bit_count() < fewest:
                fewest, branch = meets.bit_count(), meets
        while branch:
            low = branch & -branch
            branch ^= low
            row = closed[low.bit_length() - 1]
            stack.append((chosen | low, cand & ~row, excl & ~row))
            cand ^= low
            excl |= low


def vertex_cover_number(g: Graph) -> int:
    """Minimum size of a vertex set meeting every edge.

    Iterative branch and bound over the vertices still in play: a vertex v
    of largest remaining degree is either in the cover, or all its
    remaining neighbors are. A branch stops once the cover so far plus
    ceil(remaining edges / largest remaining degree), the fewest vertices
    that can meet the remaining edges, reaches the best cover found.
    Computed independently of the independence solver so the two can
    cross-check each other (alpha + beta = n).
    """
    _require_order(g)
    rows = g.adjacency
    best = g.order
    # (vertices still in play, cover size so far)
    stack = [((1 << g.order) - 1, 0)]
    while stack:
        alive, have = stack.pop()
        degree_sum = top = 0
        scan = alive
        while scan:
            low = scan & -scan
            scan ^= low
            d = (rows[low.bit_length() - 1] & alive).bit_count()
            degree_sum += d
            if d > top:
                top, v = d, low
        if not top:
            best = min(best, have)
            continue
        if have + -(-(degree_sum >> 1) // top) >= best:
            continue
        alive ^= v
        nbrs = rows[v.bit_length() - 1] & alive
        # popped first: taking v, the branch that finds small covers soonest
        stack.append((alive & ~nbrs, have + top))
        stack.append((alive, have + 1))
    return best


# ---------------------------------------------------------------------------
# Matchings
# ---------------------------------------------------------------------------

def matching_number(g: Graph) -> int:
    """Maximum size of a set of pairwise disjoint edges."""
    _require_order(g)
    return _matching_size(g.adjacency, (1 << g.order) - 1, {0: 0})


def _matching_size(rows: tuple[int, ...], mask: int, memo: dict[int, int]) -> int:
    # nu(G[mask]), memoised per vertex mask in ``memo``: the lowest vertex is
    # either left unmatched or matched to one of its neighbors in the mask,
    # and the search stops once a matching covers all but at most one
    # vertex. A module-level recursion holds no closure, so the memo is
    # freed as soon as the caller drops it.
    cached = memo.get(mask)
    if cached is not None:
        return cached
    low = mask & -mask
    rest = mask ^ low
    result = _matching_size(rows, rest, memo)
    cap = mask.bit_count() >> 1
    nbrs = rows[low.bit_length() - 1] & rest
    while nbrs and result < cap:
        u = nbrs & -nbrs
        nbrs ^= u
        result = max(result, 1 + _matching_size(rows, rest ^ u, memo))
    memo[mask] = result
    return result


def min_maximal_matching(g: Graph) -> int:
    """Minimum size of a matching that no edge can extend.

    Equal to the minimum edge dominating set (Yannakakis and Gavril, "Edge
    dominating sets in graphs", 1980): a maximal matching dominates every
    edge, and a minimum edge dominating set can be turned into a matching
    of the same size. An edge set dominates exactly when its ends contain a
    vertex cover C, and the fewest edges whose ends contain C number
    |C| - nu(G[C]): a maximum matching inside C plus one edge for each
    vertex it leaves, which exists when every vertex of C has a neighbor.
    |C| - nu(G[C]) never decreases as C grows (one more vertex raises nu
    by at most one), so the minimum is attained at a minimal vertex cover,
    that is at C = V - I for a maximal independent set I; every vertex of
    such a C has a neighbor in I.

    The sets I come from :func:`_maximal_independent_sets`, and nu is
    memoised across all of them.
    """
    _require_order(g)
    rows = g.adjacency
    full = (1 << g.order) - 1
    memo = {0: 0}
    best = g.order
    for chosen in _maximal_independent_sets(rows):
        cover = full ^ chosen
        k = cover.bit_count()
        if (k + 1) // 2 < best:  # nu(G[C]) <= |C|/2
            best = min(best, k - _matching_size(rows, cover, memo))
    return best


# ---------------------------------------------------------------------------
# Domination
# ---------------------------------------------------------------------------

def domination_number(g: Graph) -> int:
    """Minimum size of a set whose closed neighborhoods cover all vertices:
    the fewest closed rows whose union is every vertex.

    Summed over the connected components. An isolated vertex or an edge
    needs one vertex. In a larger component some minimum dominating set
    holds the neighbor of every leaf (a leaf in the set can be traded for
    its neighbor), so those vertices go in first.
    """
    _require_order(g)
    rows = g.adjacency
    closed = [row | (1 << v) for v, row in enumerate(rows)]
    forced = _leaf_neighbors(rows)
    total = 0
    for comp, _ in components(rows):
        if comp.bit_count() <= 2:
            total += 1
        else:
            total += _forced_cover(closed, comp, forced & comp)
    return total


def total_domination_number(g: Graph) -> int:
    """Minimum size of a set whose open neighborhoods cover all vertices:
    the fewest open rows whose union is every vertex.

    Summed over the connected components; the neighbor of every leaf is in
    every total dominating set, so those vertices go in first. Undefined
    when the graph has an isolated vertex; raises
    :class:`UndefinedInvariantError` in that case.
    """
    _require_order(g)
    rows = g.adjacency
    if 0 in rows:
        raise UndefinedInvariantError(
            "total domination is undefined with an isolated vertex")
    forced = _leaf_neighbors(rows)
    return sum(_forced_cover(rows, comp, forced & comp)
               for comp, _ in components(rows))


def _leaf_neighbors(rows: Sequence[int]) -> int:
    # mask of the vertices adjacent to a degree-1 vertex
    forced = 0
    for row in rows:
        if row & (row - 1) == 0:  # no neighbor or exactly one
            forced |= row
    return forced


def _forced_cover(rows: Sequence[int], comp: int, forced: int) -> int:
    # Fewest rows of the vertices of ``comp`` whose union is ``comp``, given
    # that the vertices in ``forced`` are taken: the search covers only what
    # the forced rows leave, with each other row cut down to that.
    left = comp
    scan = forced
    while scan:
        low = scan & -scan
        scan ^= low
        left &= ~rows[low.bit_length() - 1]
    if not left:
        return forced.bit_count()
    # every row cut down to ``left``, once per distinct nonempty cut; the
    # rows of forced vertices and of other components cut down to nothing
    useful = dict.fromkeys(row & left for row in rows)
    useful.pop(0, None)
    return forced.bit_count() + _smallest_cover(useful, left)


def _smallest_cover(rows: Iterable[int], target: int) -> int:
    # Fewest of ``rows`` whose union is ``target``, trying sizes upward from
    # ceil(|target| / largest row), which cannot exceed the answer. All rows
    # together must cover ``target``. Larger rows come first, so that a
    # cover of the right size comes up early.
    rows = sorted(rows, key=int.bit_count, reverse=True)
    for k in range(-(-target.bit_count() // rows[0].bit_count()), len(rows) + 1):
        for combo in combinations(rows, k):
            covered = 0
            for row in combo:
                covered |= row
            if covered == target:
                return k
    raise AssertionError("unreachable: all rows together cover the target")


def independent_domination_number(g: Graph) -> int:
    """Minimum size of an independent dominating set.

    An independent set dominates exactly when no vertex can join it, that
    is when it is a maximal independent set, so this is the smallest
    maximal independent set.
    """
    _require_order(g)
    return min(s.bit_count() for s in _maximal_independent_sets(g.adjacency))


# ---------------------------------------------------------------------------
# Zero forcing
# ---------------------------------------------------------------------------

def forcing_closure(g: Graph, blue: Iterable[int]) -> frozenset[int]:
    """Least fixed point of the color change rule from an initial blue set.

    Rule: a blue vertex with exactly one non-blue neighbor colors that
    neighbor blue. The closure is monotone in the input and idempotent.
    """
    mask = 0
    for v in blue:
        if not 0 <= v < g.order:
            raise ValueError(f"vertex {v} outside 0..{g.order - 1}")
        mask |= 1 << v
    mask = _closure_mask(g.adjacency, mask)
    return frozenset(mask_rows(mask))


def _closure_mask(rows: tuple[int, ...], blue: int) -> int:
    # Worklist closure: ``active`` holds the blue vertices to look at, all of
    # them at first. A vertex's white-neighbor count falls only when one of
    # its neighbors turns blue, so after w is colored only w and w's blue
    # neighbors can force anything new, and only they go back on the list.
    active = blue
    while active:
        low = active & -active
        active ^= low
        white = rows[low.bit_length() - 1] & ~blue
        if white and white & (white - 1) == 0:  # exactly one white neighbor
            blue |= white
            active |= white | (rows[white.bit_length() - 1] & blue)
    return blue


def zero_forcing_number(g: Graph) -> int:
    """Minimum size of a blue set whose forcing closure is every vertex.

    Summed over the connected components: no vertex forces across them, so
    Z is additive. Within each component, vertex sets are tried in order of
    size until one's closure is the whole component.
    """
    _require_order(g)
    rows = g.adjacency
    total = 0
    for comp, _ in components(rows):
        bits = [1 << v for v in mask_rows(comp)]
        k = 1
        while not any(_closure_mask(rows, sum(combo)) == comp
                      for combo in combinations(bits, k)):
            k += 1
        total += k
    return total


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def standard_invariants() -> dict[str, Callable[[Graph], int]]:
    """The built-in invariant registry, in canonical column order."""
    return {
        "order": order,
        "size": size,
        "min_degree": min_degree,
        "max_degree": max_degree,
        "independence_number": independence_number,
        "matching_number": matching_number,
        "domination_number": domination_number,
        "total_domination_number": total_domination_number,
        "independent_domination_number": independent_domination_number,
        "min_maximal_matching": min_maximal_matching,
        "zero_forcing_number": zero_forcing_number,
        "vertex_cover_number": vertex_cover_number,
    }


# Short math-style aliases accepted on the command line and in config files.
COLUMN_ALIASES = {
    "n": "order",
    "m": "size",
    "delta": "min_degree",
    "Delta": "max_degree",
    "alpha": "independence_number",
    "mu": "matching_number",
    "gamma": "domination_number",
    "gamma_t": "total_domination_number",
    "i": "independent_domination_number",
    "mu_star": "min_maximal_matching",
    "z": "zero_forcing_number",
    "Z": "zero_forcing_number",
    "beta": "vertex_cover_number",
    "claw_free": "claw-free",
}

# Compact symbols used when rendering conjecture statements.
DISPLAY_SYMBOLS = {
    "order": "n",
    "min_degree": "δ",
    "max_degree": "Δ",
    "independence_number": "α",
    "matching_number": "μ",
    "domination_number": "γ",
    "total_domination_number": "γ_t",
    "independent_domination_number": "i",
    "min_maximal_matching": "μ*",
    "zero_forcing_number": "Z",
    "vertex_cover_number": "β",
}


def resolve_column(name: str) -> str:
    """Map a user-supplied column name or alias to its canonical name."""
    return COLUMN_ALIASES.get(name, name)
