import random
from itertools import combinations, permutations

import pytest

from sharpbounds import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    path,
    petersen,
    prism,
    star,
    standard_predicates,
)
from sharpbounds.graphs import components
from sharpbounds.predicates import (is_bipartite, is_claw_free, is_connected,
                                    is_tree)

from conftest import random_graph


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(0, ())
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5)])
    with pytest.raises(ValueError):
        Graph(2, (2, 0))  # asymmetric
    with pytest.raises(ValueError, match="adjacency length differs"):
        Graph(2, (0,))
    with pytest.raises(ValueError, match="row 1 references vertices >= 2"):
        Graph(2, (0, 0b100))
    with pytest.raises(ValueError, match="self-loop at vertex 1"):
        Graph(2, (0, 0b10))


def test_label_ignored_by_equality():
    assert cycle(4).relabeled("x") == cycle(4).relabeled("y")
    assert hash(cycle(4).relabeled("x")) == hash(cycle(4))


def test_disjoint_union_numbers_parts_in_turn():
    g = disjoint_union(star(2), complete(2), Graph.from_edges(1, []))
    assert (g.order, g.edges(), g.label) == (6, [(0, 1), (0, 2), (3, 4)], None)
    assert disjoint_union(cycle(5)) == cycle(5)
    with pytest.raises(ValueError):
        disjoint_union()


def test_named_families():
    k4 = complete(4)
    assert k4.order == 4 and k4.size == 6 and all(d == 3 for d in k4.degrees())
    c5 = cycle(5)
    assert c5.size == 5 and all(d == 2 for d in c5.degrees())
    p = petersen()
    assert p.order == 10 and p.size == 15
    assert all(d == 3 for d in p.degrees())
    # girth five: no triangles and no four-cycles through brute force
    for quad in combinations(range(10), 3):
        a, b, c = quad
        assert not (p.has_edge(a, b) and p.has_edge(b, c) and p.has_edge(a, c))
    for quad in combinations(range(10), 4):
        for perm in permutations(quad):
            if perm[0] != min(perm):
                continue
            a, b, c, d = perm
            assert not (p.has_edge(a, b) and p.has_edge(b, c)
                        and p.has_edge(c, d) and p.has_edge(d, a))


BELOW_MINIMUM = [(complete, 0), (cycle, 2), (path, 0), (star, 0),
                 (complete_bipartite, 0), (prism, 2)]


@pytest.mark.parametrize("builder, size", BELOW_MINIMUM,
                         ids=[f"{b.__name__}-{n}" for b, n in BELOW_MINIMUM])
def test_builders_refuse_sizes_below_their_minimum(builder, size):
    with pytest.raises(ValueError):
        builder(size)


def evaluate_predicates(g):
    return {name: fn(g) for name, fn in standard_predicates().items()}


def test_predicates_on_known_graphs():
    p = evaluate_predicates(petersen())
    assert p["connected"] and p["cubic"] and p["regular"]
    assert not p["bipartite"] and not p["claw-free"]
    assert not p["is_tree"] and not p["has_isolated_vertex"]

    c6 = evaluate_predicates(cycle(6))
    assert c6["connected"] and c6["bipartite"] and c6["regular"]
    assert not c6["cubic"]

    claw = evaluate_predicates(star(3))
    assert not claw["claw-free"]
    assert claw["is_tree"] and claw["bipartite"]

    k1 = evaluate_predicates(complete(1))
    assert k1["connected"] and k1["has_isolated_vertex"] and k1["is_tree"]

    assert evaluate_predicates(prism(3))["claw-free"]
    assert not evaluate_predicates(complete_bipartite(3))["claw-free"]
    two_parts = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
    assert not evaluate_predicates(two_parts)["connected"]
    assert evaluate_predicates(two_parts)["has_isolated_vertex"]


def _has_odd_cycle(g):
    # exhaustive simple-cycle scan, practical for order <= 8
    for length in (3, 5, 7):
        if length > g.order:
            continue
        for vs in combinations(range(g.order), length):
            for perm in permutations(vs[1:]):
                walk = (vs[0], *perm)
                if all(g.has_edge(walk[i], walk[(i + 1) % length])
                       for i in range(length)):
                    return True
    return False


def test_bipartite_matches_odd_cycle_check():
    rng = random.Random(42)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 7), rng.choice([0.3, 0.5, 0.8]))
        assert is_bipartite(g) == (not _has_odd_cycle(g))


def _traversal_cases():
    # random graphs with n <= 12, a quarter of them also in a disjoint union
    # with another, plus K1, an edgeless graph and fixed disjoint unions
    rng = random.Random(2306)
    cases = [complete(1), Graph(6, (0,) * 6),
             disjoint_union(cycle(5), path(3)),
             disjoint_union(complete(1), star(3), cycle(4)),
             disjoint_union(petersen(), complete(1), complete_bipartite(2, 3))]
    for _ in range(400):
        g = random_graph(rng, rng.randint(1, 12), rng.choice([0.1, 0.2, 0.35, 0.6]))
        cases.append(g)
        if rng.random() < 0.25:
            cases.append(disjoint_union(g, random_graph(rng, rng.randint(1, 5))))
    return cases


def test_traversal_matches_networkx():
    # one traversal gives each component's mask and the mask of its vertices
    # with a neighbor at their own distance from its lowest vertex, and the
    # connected, is_tree and bipartite predicates read them
    nx = pytest.importorskip("networkx")
    for g in _traversal_cases():
        G = nx.Graph()
        G.add_nodes_from(range(g.order))
        G.add_edges_from(g.edges())
        found = list(components(g.adjacency))
        masks = [sum(1 << v for v in part) for part in nx.connected_components(G)]
        assert [comp for comp, _ in found] == sorted(masks, key=lambda m: m & -m)
        for comp, odd in found:
            root = (comp & -comp).bit_length() - 1
            distance = nx.single_source_shortest_path_length(G, root)
            assert odd == sum(1 << v for v in distance if any(
                distance[u] == distance[v] for u in G[v]))
            part = G.subgraph(distance)
            assert (odd == 0) == nx.is_bipartite(part)
        assert is_connected(g) == nx.is_connected(G)
        assert is_tree(g) == nx.is_tree(G)
        assert is_bipartite(g) == nx.is_bipartite(G)


def _claw_free_brute(g):
    for vs in combinations(range(g.order), 4):
        for center in vs:
            leaves = [v for v in vs if v != center]
            if all(g.has_edge(center, v) for v in leaves) and \
                    all(not g.has_edge(u, v) for u, v in combinations(leaves, 2)):
                return False
    return True


def test_claw_free_matches_brute_force():
    rng = random.Random(43)
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 7), rng.choice([0.3, 0.5, 0.8]))
        assert is_claw_free(g) == _claw_free_brute(g)


def test_cubic_implies_regular(random_suite, named_suite):
    for g in list(random_suite)[:60] + named_suite:
        p = evaluate_predicates(g)
        if p["cubic"]:
            assert p["regular"]
            assert all(d == 3 for d in g.degrees())
