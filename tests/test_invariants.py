import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharpbounds import (
    ConfigError,
    Graph,
    UndefinedInvariantError,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    domination_number,
    forcing_closure,
    independence_number,
    independent_domination_number,
    matching_number,
    min_maximal_matching,
    path,
    petersen,
    standard_invariants,
    star,
    total_domination_number,
    vertex_cover_number,
    zero_forcing_number,
)
from sharpbounds import invariants

import oracles
from conftest import random_graph

SOLVER_ORACLE_PAIRS = [
    (independence_number, oracles.oracle_independence),
    (matching_number, oracles.oracle_matching),
    (domination_number, oracles.oracle_domination),
    (independent_domination_number, oracles.oracle_independent_domination),
    (min_maximal_matching, oracles.oracle_min_maximal_matching),
    (zero_forcing_number, oracles.oracle_zero_forcing),
    (vertex_cover_number, oracles.oracle_vertex_cover),
]


# ---------------------------------------------------------------------------
# Frozen values on named graphs
# ---------------------------------------------------------------------------

def test_independence_known_values():
    assert independence_number(complete(4)) == 1
    assert independence_number(complete(7)) == 1
    assert independence_number(cycle(5)) == 2
    assert independence_number(petersen()) == 4


def test_matching_known_values():
    assert matching_number(complete(1)) == 0
    assert matching_number(path(4)) == 2
    assert matching_number(petersen()) == 5


def test_domination_known_values():
    assert domination_number(complete(5)) == 1
    assert domination_number(cycle(6)) == 2
    assert domination_number(petersen()) == 3


def test_total_domination_known_values():
    assert total_domination_number(complete(2)) == 2
    assert total_domination_number(cycle(6)) == 4
    assert total_domination_number(petersen()) == 4


def test_total_domination_undefined_on_isolated():
    with pytest.raises(UndefinedInvariantError):
        total_domination_number(complete(1))
    with pytest.raises(UndefinedInvariantError):
        total_domination_number(Graph.from_edges(4, [(0, 1)]))


def test_independent_domination_known_values():
    assert independent_domination_number(complete(6)) == 1
    assert independent_domination_number(cycle(5)) == 2
    assert independent_domination_number(petersen()) == 3


def test_min_maximal_matching_known_values():
    assert min_maximal_matching(complete(1)) == 0
    assert min_maximal_matching(path(4)) == 1
    assert min_maximal_matching(cycle(6)) == 2


def test_zero_forcing_known_values():
    for n in (2, 5, 8):
        assert zero_forcing_number(path(n)) == 1
    for n in (2, 4, 6):
        assert zero_forcing_number(complete(n)) == n - 1
    assert zero_forcing_number(petersen()) == 5
    assert zero_forcing_number(complete_bipartite(3)) == 4
    # summed over the connected components
    for n in range(1, invariants.MAX_ORDER + 1):
        assert zero_forcing_number(Graph.from_edges(n, [])) == n
    assert zero_forcing_number(disjoint_union(path(3), cycle(4), complete(1))) \
        == 1 + 2 + 1


def test_vertex_cover_known_values():
    assert vertex_cover_number(complete(4)) == 3
    assert vertex_cover_number(cycle(5)) == 3
    assert vertex_cover_number(petersen()) == 6


def test_forcing_closure_examples():
    assert forcing_closure(path(3), {0}) == frozenset({0, 1, 2})
    assert forcing_closure(cycle(4), {0}) == frozenset({0})
    assert forcing_closure(complete(4), {0, 1}) == frozenset({0, 1})
    assert forcing_closure(path(3), set()) == frozenset()


def test_forcing_closure_rejects_bad_vertex():
    with pytest.raises(ValueError):
        forcing_closure(path(3), {5})


# ---------------------------------------------------------------------------
# Closure properties
# ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(st.data())
def test_closure_monotone_and_idempotent(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(1, 7))
    g = random_graph(rng, n, 0.5)
    small = data.draw(st.sets(st.integers(0, n - 1)))
    extra = data.draw(st.sets(st.integers(0, n - 1)))
    big = small | extra
    closed_small = forcing_closure(g, small)
    closed_big = forcing_closure(g, big)
    assert closed_small <= closed_big
    assert forcing_closure(g, closed_small) == closed_small
    assert closed_small == oracles.oracle_closure(g, small)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_closure_equals_oracle_on_larger_graphs(data):
    # long forcing chains, in which a vertex must be looked at again after
    # a later vertex turns blue, need more vertices than the test above
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(1, 12))
    g = random_graph(rng, n, data.draw(st.floats(0.1, 0.8)))
    blue = data.draw(st.sets(st.integers(0, n - 1)))
    assert forcing_closure(g, blue) == oracles.oracle_closure(g, blue)


# ---------------------------------------------------------------------------
# Solver equals oracle
# ---------------------------------------------------------------------------

def test_solvers_equal_oracles_on_named(named_suite):
    for g in named_suite:
        for solver, oracle in SOLVER_ORACLE_PAIRS:
            assert solver(g) == oracle(g), (g.label, solver.__name__)
        expected = oracles.oracle_total_domination(g)
        if expected is None:
            with pytest.raises(UndefinedInvariantError):
                total_domination_number(g)
        else:
            assert total_domination_number(g) == expected, g.label


def test_solvers_equal_oracles_on_random_sample(random_suite):
    # a fast subsample; the full 220-graph sweep runs in the acceptance suite
    for g in random_suite[:40]:
        for solver, oracle in SOLVER_ORACLE_PAIRS:
            assert solver(g) == oracle(g), (g.label, solver.__name__)


# ---------------------------------------------------------------------------
# Minimum maximal matching against the search it replaced
# ---------------------------------------------------------------------------

@settings(max_examples=250, deadline=None)
@given(st.data())
def test_min_maximal_matching_equals_edge_subset_search(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(1, 9))
    g = random_graph(rng, n, data.draw(st.sampled_from([0.2, 0.4, 0.6, 0.8])))
    assert min_maximal_matching(g) == oracles.search_min_maximal_matching(g)


def value_or_none(solver, g):
    # None where the invariant is undefined (total domination with an
    # isolated vertex)
    try:
        return solver(g)
    except UndefinedInvariantError:
        return None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_matching_solvers_ignore_vertex_labels(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(1, 16))
    g = random_graph(rng, n, data.draw(st.sampled_from([0.15, 0.3, 0.5])))
    perm = data.draw(st.permutations(range(n)))
    h = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])
    assert min_maximal_matching(h) == min_maximal_matching(g)
    assert matching_number(h) == matching_number(g)
    assert independence_number(h) == independence_number(g)
    assert independent_domination_number(h) == independent_domination_number(g)
    assert domination_number(h) == domination_number(g)
    assert value_or_none(total_domination_number, h) == \
        value_or_none(total_domination_number, g)
    assert vertex_cover_number(h) == vertex_cover_number(g)
    assert zero_forcing_number(h) == zero_forcing_number(g)


def test_min_maximal_matching_closed_forms():
    # orders past the reach of the brute-force oracles
    for n in range(1, invariants.MAX_ORDER + 1):
        assert min_maximal_matching(path(n)) == -(-(n - 1) // 3), n
        assert min_maximal_matching(complete(n)) == n // 2, n
        if n >= 3:
            assert min_maximal_matching(cycle(n)) == -(-n // 3), n
        if 2 * n <= invariants.MAX_ORDER:
            assert min_maximal_matching(complete_bipartite(n)) == n, n


# ---------------------------------------------------------------------------
# Independence, domination and vertex cover against the searches they replaced
# ---------------------------------------------------------------------------

SEARCH_PAIRS = [
    (independence_number, oracles.search_independence),
    (independent_domination_number, oracles.search_independent_domination),
    (domination_number, oracles.search_domination),
    (total_domination_number, oracles.search_total_domination),
    (vertex_cover_number, oracles.search_vertex_cover),
    (zero_forcing_number, oracles.search_zero_forcing),
]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_independence_and_domination_equal_replaced_searches(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    densities = st.sampled_from([0, 0.1, 0.3, 0.5, 0.8])
    n = data.draw(st.integers(1, 12))
    g = random_graph(rng, n, data.draw(densities))
    if n >= 2 and data.draw(st.booleans()):
        # a disjoint union of two random graphs: several components, and
        # isolated vertices at low density
        k = data.draw(st.integers(1, n - 1))
        a = random_graph(rng, k, data.draw(densities))
        b = random_graph(rng, n - k, data.draw(densities))
        g = disjoint_union(a, b)
    for solver, search in SEARCH_PAIRS:
        assert value_or_none(solver, g) == \
            value_or_none(search, g), solver.__name__


def test_independence_and_domination_closed_forms():
    # orders past the reach of the brute-force oracles
    for n in range(1, invariants.MAX_ORDER + 1):
        third = -(-n // 3)
        gamma_t = n // 2 + -(-n // 4) - n // 4
        edgeless = Graph.from_edges(n, [])
        assert independence_number(path(n)) == -(-n // 2), n
        assert independent_domination_number(path(n)) == third, n
        assert domination_number(path(n)) == third, n
        assert independence_number(edgeless) == n, n
        assert independent_domination_number(edgeless) == n, n
        assert domination_number(edgeless) == n, n
        if n >= 2:
            assert total_domination_number(path(n)) == gamma_t, n
        if n >= 3:
            assert independence_number(cycle(n)) == n // 2, n
            assert independent_domination_number(cycle(n)) == third, n
            assert domination_number(cycle(n)) == third, n
            assert total_domination_number(cycle(n)) == gamma_t, n
        if 2 * n <= invariants.MAX_ORDER:
            assert independence_number(complete_bipartite(n)) == n, n
            assert independent_domination_number(complete_bipartite(n)) == n, n


def test_vertex_cover_and_domination_closed_forms():
    # orders past the reach of the brute-force oracles
    limit = invariants.MAX_ORDER
    for n in range(1, limit + 1):
        assert vertex_cover_number(Graph.from_edges(n, [])) == 0, n
        assert vertex_cover_number(complete(n)) == n - 1, n
        assert vertex_cover_number(path(n)) == n // 2, n
        if n >= 3:
            assert vertex_cover_number(cycle(n)) == -(-n // 2), n
        for a in range(1, min(n, limit - n) + 1):
            assert vertex_cover_number(complete_bipartite(a, n)) == a, (a, n)
    for k in range(1, limit // 4 + 1):
        k4s = disjoint_union(*[complete(4)] * k)
        assert domination_number(k4s) == k, k
        assert total_domination_number(k4s) == 2 * k, k
    # the neighbor of every leaf is forced: five K2 and the star's center
    star_and_edges = disjoint_union(star(9), *[complete(2)] * 5)
    assert star_and_edges.order == limit
    assert domination_number(star_and_edges) == 6
    assert total_domination_number(star_and_edges) == 12


# ---------------------------------------------------------------------------
# Order limit
# ---------------------------------------------------------------------------

EXPONENTIAL_SOLVERS = [
    independence_number, vertex_cover_number, matching_number,
    min_maximal_matching, domination_number, total_domination_number,
    independent_domination_number, zero_forcing_number,
]


def test_exponential_solvers_refuse_orders_above_the_limit():
    limit = invariants.MAX_ORDER
    assert limit >= 16  # the benchmark corpora reach order 16
    g = path(limit + 1)
    for solver in EXPONENTIAL_SOLVERS:
        with pytest.raises(ConfigError) as info:
            solver(g)
        message = str(info.value)
        assert f"P{limit + 1}" in message, solver.__name__
        assert f"order {limit + 1}" in message, solver.__name__
        assert f"maximum order {limit}" in message, solver.__name__
    registry = standard_invariants()
    assert set(registry) - {s.__name__ for s in EXPONENTIAL_SOLVERS} == \
        {"order", "size", "min_degree", "max_degree"}
    assert [registry[name](g) for name in ("order", "size", "min_degree", "max_degree")] \
        == [limit + 1, limit, 1, 2]


def test_exponential_solvers_accept_the_limit():
    assert invariants.MAX_ORDER == 20
    g = path(20)
    expected = {
        independence_number: 10, vertex_cover_number: 10, matching_number: 10,
        min_maximal_matching: 7, domination_number: 7,
        total_domination_number: 10, independent_domination_number: 7,
        zero_forcing_number: 1,
    }
    assert set(expected) == set(EXPONENTIAL_SOLVERS)
    for solver, value in expected.items():
        assert solver(g) == value, solver.__name__


# ---------------------------------------------------------------------------
# Cross-solver identities
# ---------------------------------------------------------------------------

def test_classical_identities(named_suite, random_suite):
    registry = standard_invariants()
    for g in named_suite + list(random_suite)[:60]:
        n = g.order
        alpha = registry["independence_number"](g)
        beta = registry["vertex_cover_number"](g)
        mu = registry["matching_number"](g)
        mu_star = registry["min_maximal_matching"](g)
        gamma = registry["domination_number"](g)
        idom = registry["independent_domination_number"](g)
        assert alpha + beta == n
        assert gamma <= idom <= alpha
        assert mu_star <= mu
        assert mu <= beta <= 2 * mu
        try:
            gamma_t = registry["total_domination_number"](g)
        except UndefinedInvariantError:
            gamma_t = None
        if gamma_t is not None:
            assert gamma <= gamma_t <= 2 * gamma
