"""Exhaustive reference implementations used to check the production solvers.

The ``oracle_*`` functions enumerate subsets directly with set logic and no
pruning, trading speed for obvious correctness. ``search_*`` functions,
``oracle_fit`` and ``hull_fit`` keep a production implementation that was
replaced, for differential tests against its successor. Intended for graphs with at most
eight to ten vertices.

``generate`` and ``pipeline`` are the conjecture-level pipeline: one
conjecture for every fit record, stated under the smallest hypothesis of its
support and filtered over label sets, as a reference for ``run_pipeline``,
which filters and ranks the records themselves.
"""

import sys
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import gt, itemgetter
from typing import Optional, Sequence

from sharpbounds.engine import Conjecture, fit_records
from sharpbounds.errors import UndefinedInvariantError
from sharpbounds.fitting import LOWER, UPPER, FitResult, SharpBoundingFunction
from sharpbounds.graphs import mask_rows
from sharpbounds.invariants import max_degree


def _vertex_sets(g, k):
    return combinations(range(g.order), k)


def _is_independent(g, vs):
    return all(not g.has_edge(u, v) for u, v in combinations(vs, 2))


def _dominates(g, vs):
    covered = set(vs)
    for v in vs:
        covered.update(g.neighbors(v))
    return len(covered) == g.order


def _totally_dominates(g, vs):
    covered = set()
    for v in vs:
        covered.update(g.neighbors(v))
    return len(covered) == g.order


def _is_matching(g, es):
    used = set()
    for u, v in es:
        if u in used or v in used:
            return False
        used.update((u, v))
    return True


def _matching_is_maximal(g, es):
    used = {v for e in es for v in e}
    return all(u in used or v in used for u, v in g.edges())


def oracle_independence(g):
    return max(k for k in range(g.order + 1)
               if any(_is_independent(g, vs) for vs in _vertex_sets(g, k)))


def oracle_vertex_cover(g):
    edges = g.edges()
    for k in range(g.order + 1):
        for vs in _vertex_sets(g, k):
            chosen = set(vs)
            if all(u in chosen or v in chosen for u, v in edges):
                return k


def oracle_matching(g):
    edges = g.edges()
    for k in range(g.order // 2, 0, -1):
        if any(_is_matching(g, es) for es in combinations(edges, k)):
            return k
    return 0


def oracle_min_maximal_matching(g):
    edges = g.edges()
    for k in range(len(edges) + 1):
        for es in combinations(edges, k):
            if _is_matching(g, es) and _matching_is_maximal(g, es):
                return k


def search_min_maximal_matching(g):
    """The edge-subset search that ``min_maximal_matching`` replaced.

    Disjoint edge sets are tried in order of size, from a lower bound on the
    size, until one's endpoint set is a vertex cover.
    """
    edges = g.edges()
    if not edges:
        return 0
    masks = [(1 << u) | (1 << v) for u, v in edges]
    start = -(-len(edges) // (2 * max_degree(g) - 1))  # each edge covers <= 2D-1 edges
    for k in range(max(1, start), len(edges) + 1):
        for combo in combinations(masks, k):
            used = 0
            for em in combo:
                if used & em:
                    break
                used |= em
            else:
                if all(em & used for em in masks):
                    return k
    raise AssertionError("unreachable: the full matching closure is maximal")


def search_independence(g):
    """The branch and bound that ``independence_number`` replaced.

    Pick a maximum-degree vertex of the remaining graph, then either
    exclude it or include it and delete its closed neighborhood.
    """
    rows = g.adjacency
    best = 0

    def grow(avail, have):
        nonlocal best
        if have + avail.bit_count() <= best:
            return
        if avail == 0:
            best = max(best, have)
            return
        v = max(mask_rows(avail), key=lambda u: (rows[u] & avail).bit_count())
        # include v first so the bound tightens quickly
        grow(avail & ~(rows[v] | (1 << v)), have + 1)
        grow(avail & ~(1 << v), have)

    grow((1 << g.order) - 1, 0)
    return best


def search_vertex_cover(g):
    """The branch and bound that ``vertex_cover_number`` replaced: branch on
    an uncovered edge (u, v), since every cover contains u or v."""
    rows = g.adjacency
    n = g.order
    best = n

    def cover(chosen: int, have: int) -> None:
        nonlocal best
        if have >= best:
            return
        for u in range(n):
            if chosen >> u & 1:
                continue
            white = rows[u] & ~chosen
            if white:
                v = (white & -white).bit_length() - 1
                cover(chosen | (1 << u), have + 1)
                cover(chosen | (1 << v), have + 1)
                return
        best = have

    cover(0, 0)
    return best


def search_domination(g):
    """The subset loop that ``domination_number`` replaced: vertex sets in
    order of size, from a lower bound, until one's closed neighborhoods
    cover every vertex."""
    n = g.order
    closed = [g.adjacency[v] | (1 << v) for v in range(n)]
    full = (1 << n) - 1
    start = -(-n // (max_degree(g) + 1))  # a vertex covers at most D+1 vertices
    for k in range(max(1, start), n + 1):
        for combo in combinations(range(n), k):
            covered = 0
            for v in combo:
                covered |= closed[v]
            if covered == full:
                return k
    raise AssertionError("unreachable: V dominates itself")


def search_total_domination(g):
    """The subset loop that ``total_domination_number`` replaced, over open
    neighborhoods; raises :class:`UndefinedInvariantError` on a graph with
    an isolated vertex."""
    n = g.order
    if any(row == 0 for row in g.adjacency):
        raise UndefinedInvariantError(
            "total domination is undefined with an isolated vertex")
    full = (1 << n) - 1
    start = max(2, -(-n // max_degree(g)))
    for k in range(start, n + 1):
        for combo in combinations(range(n), k):
            covered = 0
            for v in combo:
                covered |= g.adjacency[v]
            if covered == full:
                return k
    raise AssertionError("unreachable: V totally dominates itself when delta >= 1")


def search_independent_domination(g):
    """The subset loop that ``independent_domination_number`` replaced: it
    ascends through independent sets until one dominates."""
    n = g.order
    closed = [g.adjacency[v] | (1 << v) for v in range(n)]
    full = (1 << n) - 1
    start = -(-n // (max_degree(g) + 1))
    for k in range(max(1, start), n + 1):
        for combo in combinations(range(n), k):
            picked = 0
            covered = 0
            for v in combo:
                if g.adjacency[v] & picked:
                    break
                picked |= 1 << v
                covered |= closed[v]
            else:
                if covered == full:
                    return k
    raise AssertionError("unreachable: greedy maximal independent sets exist")


def _scan_closure(rows, blue):
    """The closure that ``_closure_mask`` replaced: full scans over the blue
    vertices, repeated until one colors nothing."""
    changed = True
    while changed:
        changed = False
        scan = blue
        while scan:
            low = scan & -scan
            scan ^= low
            white = rows[low.bit_length() - 1] & ~blue
            if white and white & (white - 1) == 0:  # exactly one white neighbor
                blue |= white
                changed = True
    return blue


def search_zero_forcing(g):
    """The subset loop that ``zero_forcing_number`` replaced: vertex sets of
    the whole graph in order of size, with the closure by repeated scans,
    until one's closure is every vertex."""
    n = g.order
    rows = g.adjacency
    full = (1 << n) - 1
    for k in range(1, n + 1):
        for combo in combinations(range(n), k):
            mask = 0
            for v in combo:
                mask |= 1 << v
            if _scan_closure(rows, mask) == full:
                return k
    raise AssertionError("unreachable: the full vertex set forces itself")


def oracle_domination(g):
    for k in range(g.order + 1):
        if any(_dominates(g, vs) for vs in _vertex_sets(g, k)):
            return k


def oracle_total_domination(g):
    """None when undefined (isolated vertex present)."""
    if any(g.degree(v) == 0 for v in range(g.order)):
        return None
    for k in range(g.order + 1):
        if any(_totally_dominates(g, vs) for vs in _vertex_sets(g, k)):
            return k


def oracle_independent_domination(g):
    for k in range(g.order + 1):
        if any(_is_independent(g, vs) and _dominates(g, vs)
               for vs in _vertex_sets(g, k)):
            return k


def oracle_closure(g, blue):
    """Color change rule simulated with plain sets."""
    blue = set(blue)
    while True:
        forced = set()
        for v in blue:
            white = [u for u in g.neighbors(v) if u not in blue]
            if len(white) == 1:
                forced.add(white[0])
        if not forced:
            return frozenset(blue)
        blue |= forced


def oracle_zero_forcing(g):
    everything = frozenset(range(g.order))
    for k in range(g.order + 1):
        for vs in _vertex_sets(g, k):
            if oracle_closure(g, vs) == everything:
                return k


def oracle_best_touch(points, direction):
    """Maximum touch count over all candidate bounding lines.

    Candidates: the line through every pair of points with distinct x, and
    the horizontal line through every point. A candidate counts only when it
    is feasible for the direction; its touch count is the number of points
    lying on it exactly.
    """
    lines = set()
    for (x1, y1, _), (x2, y2, _) in combinations(points, 2):
        if x1 != x2:
            m = Fraction(y2 - y1) / Fraction(x2 - x1)
            lines.add((m, Fraction(y1) - m * Fraction(x1)))
    for x, y, _ in points:
        lines.add((Fraction(0), Fraction(y)))

    best = 0
    for m, b in lines:
        values = [(Fraction(y), m * Fraction(x) + b) for x, y, _ in points]
        if direction == "upper" and any(y > v for y, v in values):
            continue
        if direction == "lower" and any(y < v for y, v in values):
            continue
        best = max(best, sum(1 for y, v in values if y == v))
    return best


def oracle_fit(points, direction):
    """The pairwise-slope fitter that ``fit_linear_bound`` replaced.

    Every pairwise slope over distinct points, plus zero, is tried against
    every point. Same contract and tie-break as the production fitter:
    fit the touch-maximal sharp linear bound over ``points``.

    Parameters
    ----------
    points : sequence of (x, y, id)
        Coordinates may be ints or Fractions; each id is a one-row bitmask
        (``1 << row``), and the OR of the touched ids comes back as
        ``touched``. Returns ``None`` on empty input.
    direction : "upper" or "lower"

    Ties on touch number are broken by smallest total slack, then smallest
    |slope|; a final sign tie prefers the smaller slope for upper bounds and
    the larger for lower bounds, which makes fitting mirror-symmetric under
    negating y and flipping the direction.
    """
    if direction not in (UPPER, LOWER):
        raise ValueError(f"direction must be {UPPER!r} or {LOWER!r}")
    if not points:
        return None

    # Scale to integer coordinates: slopes are unchanged, intercepts and
    # slacks scale uniformly by L, so comparisons are unaffected.
    ids = [p[2] for p in points]
    scale = lcm(*(v.denominator for p in points for v in p[:2]))
    xi = [int(p[0] * scale) for p in points]
    yi = [int(p[1] * scale) for p in points]
    npts = len(points)
    upper = direction == UPPER

    # Candidate slopes: all pairwise slopes over distinct coordinates, plus 0.
    slopes: set[tuple[int, int]] = {(0, 1)}
    distinct = sorted(set(zip(xi, yi)))
    for a in range(len(distinct)):
        x1, y1 = distinct[a]
        for b in range(a + 1, len(distinct)):
            x2, y2 = distinct[b]
            if x1 == x2:
                continue
            f = Fraction(y2 - y1, x2 - x1)
            slopes.add((f.numerator, f.denominator))

    best_key = None
    best = None
    sign = 1 if upper else -1
    for p, q in sorted(slopes):
        # s_i = q*y_i - p*x_i; the tight intercept is max(s)/q (upper) or
        # min(s)/q (lower), and a point touches iff s_i equals that extreme.
        s = [q * yi[k] - p * xi[k] for k in range(npts)]
        b_num = max(s) if upper else min(s)
        touched = [k for k in range(npts) if s[k] == b_num]
        slack = Fraction(sign * (npts * b_num - sum(s)), q)
        m = Fraction(p, q)
        key = (-len(touched), slack, abs(m), m if upper else -m)
        if best_key is None or key < best_key:
            best_key = key
            best = (m, Fraction(b_num, q * scale), touched)

    m, b, touched = best
    touched_rows = 0
    for k in touched:
        touched_rows |= ids[k]
    return FitResult(SharpBoundingFunction(m.as_integer_ratio(),
                                           b.as_integer_ratio(), direction),
                     touched_rows)


def hull_fit(points: Sequence[tuple], direction: str
                     ) -> Optional[FitResult]:
    """The two-pass hull-edge fitter that ``fit_linear_bound`` replaced.

    It unzips the points, checks every row mask at once, mirrors y for a
    lower bound into a new list, sorts out-of-order input by x, and only
    then groups the highest point above each x. Same contract and result
    as the production fitter: fit the touch-maximal sharp linear bound over
    ``points``.

    Parameters
    ----------
    points : sequence of (x, y, rows)
        Coordinates are ints; ``rows`` is a non-empty row
        bitmask, disjoint from every other point's, whose popcount is the
        point's weight. Points in x order are read as given, any other
        order is sorted by x. The touched rows come back as one mask.
        Returns ``None`` on empty input.
    direction : "upper" or "lower"

    Ties on touch number are broken by smallest total slack, then smallest
    |slope|; a final sign tie prefers the smaller slope for upper bounds and
    the larger for lower bounds, which makes fitting mirror-symmetric under
    negating y and flipping the direction.
    """
    if direction not in (UPPER, LOWER):
        raise ValueError(f"direction must be {UPPER!r} or {LOWER!r}")
    if not points:
        return None

    xs, ys, rows = zip(*points)
    if min(rows) <= 0:
        raise ValueError("every point needs a non-empty row mask")
    upper = direction == UPPER
    if not upper:
        # y >= m*x + b iff -y <= -m*x - b, with the same slack: fit the
        # mirror as an upper bound, where the sign tie-break prefers the
        # smaller slope, i.e. the larger one once negated back.
        ys = [-y for y in ys]

    if any(map(gt, xs, xs[1:])):
        xs, ys, rows = zip(*sorted(zip(xs, ys, rows), key=itemgetter(0)))
    # Highest y above each distinct x, with the mask of the rows there, in
    # one pass over the points in x order.
    hx: list[int] = []
    hy: list[int] = []
    hr: list[int] = []
    for x, y, r in zip(xs, ys, rows):
        if hx and hx[-1] == x:
            if y > hy[-1]:
                hy[-1], hr[-1] = y, r
            elif y == hy[-1]:
                hr[-1] |= r
        else:
            hx.append(x)
            hy.append(y)
            hr.append(r)

    # Upper hull, left to right, as positions in hx, without collinear
    # middle vertices.
    hull: list[int] = []
    for k, (x, y) in enumerate(zip(hx, hy)):
        while len(hull) >= 2:
            i, j = hull[-2], hull[-1]
            if (hx[j] - hx[i]) * (y - hy[i]) < (hy[j] - hy[i]) * (x - hx[i]):
                break
            hull.pop()
        hull.append(k)

    # Candidates (touch mask, p, q, b) for slope p/q (q > 0) and tight
    # intercept numerator b: q*y - p*x <= b on every point, with equality
    # exactly at the touches. A flat hull edge is the slope-zero line. A
    # point left of an edge's start or right of its end lies strictly below
    # the edge's line, so only the points between its ends can touch it.
    # The candidates with the most touches are kept in ``tied``.
    ymax = max(hy)
    touched = 0
    for y, r in zip(hy, hr):
        if y == ymax:
            touched |= r
    tied = [(touched, 0, 1, ymax)]
    most = touched.bit_count()
    for i, j in zip(hull, hull[1:]):
        dy, dx = hy[j] - hy[i], hx[j] - hx[i]
        if dy == 0:
            continue
        g = gcd(dy, dx)
        p, q = dy // g, dx // g
        b = q * hy[i] - p * hx[i]
        touched = 0
        for k in range(i, j + 1):
            if q * hy[k] - p * hx[k] == b:
                touched |= hr[k]
        n = touched.bit_count()
        if n > most:
            tied, most = [], n
        if n == most:
            tied.append((touched, p, q, b))

    # Ties on touches go to the least (slack, |m|, m), compared as integers
    # scaled by the common denominator den (module docstring).
    if len(tied) > 1:
        npts = sum_x = sum_y = 0
        for x, y, r in zip(xs, ys, rows):
            w = r.bit_count()
            npts += w
            sum_x += x * w
            sum_y += y * w
        den = lcm(*(c[2] for c in tied))

        def key(candidate):
            _, p, q, b = candidate
            s = den // q
            return ((npts * b - q * sum_y + p * sum_x) * s, abs(p) * s, p * s)

        tied.sort(key=key)
    touched, p, q, b = tied[0]
    if not upper:
        p, b = -p, -b
    g = gcd(b, q)
    return FitResult(SharpBoundingFunction((p, q), (b // g, q // g), direction),
                     touched)


def generate(table, config):
    """The unfiltered conjecture list: every fit record of the sweep stated
    under its hypothesis, ordered by target, direction, other property and
    hypothesis (smallest first, then by name). The sweep is asked for every
    record, whatever filters and cut ``config`` names: with no filter and a
    ``top_k`` no group reaches, it skips no fit."""
    out = []
    for r in fit_records(table, replace(config, filters=(), top_k=sys.maxsize)):
        touch_set = frozenset(table.labels[i]
                              for i in mask_rows(r.fit.touched))
        out.append(Conjecture(
            target=r.target, other=r.other, hypothesis=r.hypothesis,
            bound=r.fit.bound, touch_set=touch_set,
            touch_number=len(touch_set), support_size=r.support.bit_count()))
    out.sort(key=lambda c: (c.target, c.direction, c.other,
                            len(c.hypothesis.key), c.hypothesis.key))
    return out


def support_labels(table, hypothesis):
    """Labels of the rows on which every predicate of ``hypothesis`` holds."""
    return frozenset(label for i, label in enumerate(table.labels)
                     if all(table.boolean[p][i] for p in hypothesis.key))


def generality_filter(conjectures, table):
    """Drop each conjecture whose support is a strict subset of the support
    of another conjecture with the same bound; supports are label sets."""
    supports = [support_labels(table, c.hypothesis) for c in conjectures]
    same_bound = {}
    for i, c in enumerate(conjectures):
        same_bound.setdefault((c.target, c.other, c.bound), []).append(i)
    kept = []
    for i, c in enumerate(conjectures):
        if not any(supports[i] < supports[j]
                   for j in same_bound[(c.target, c.other, c.bound)]):
            kept.append(c)
    return kept


def rank(conjectures):
    """Non-increasing touch number; ties by larger support, then statement."""
    return sorted(conjectures, key=lambda c: (-c.touch_number,
                                              -c.support_size, c.statement))


def dalmatian_filter(conjectures):
    """Keep a conjecture only if its touch set holds a label that no earlier
    kept conjecture of the same target and direction touched."""
    claimed = {}
    kept = []
    for c in conjectures:
        pool = claimed.setdefault((c.target, c.direction), set())
        if not c.touch_set <= pool:
            pool |= c.touch_set
            kept.append(c)
    return kept


def pipeline(conjectures, table, config):
    """Filter, rank and cut ``generate``'s list to ``config.top_k`` per
    (target, direction), as ``config.filters`` asks."""
    if "generality" in config.filters:
        conjectures = generality_filter(conjectures, table)
    conjectures = rank(conjectures)
    if "dalmatian" in config.filters:
        conjectures = dalmatian_filter(conjectures)
    counts = {}
    out = []
    for c in conjectures:
        key = (c.target, c.direction)
        counts[key] = counts.get(key, 0) + 1
        if counts[key] <= config.top_k:
            out.append(c)
    return out
