"""The brute-force reference implementations themselves."""

import pytest

from corpus import G5_EDGES, P5_EDGES, STAR7_EDGES, complete_graph
from cwgraphs import (
    OracleBudget,
    SimplicialComplex,
    enumerate_labeled_graphs,
    from_edge_list,
    independence_complex,
    oracle_matchings,
    oracle_max_independent_sets,
    oracle_shelling_exists,
    random_cw,
    build_cw,
    g_prime,
)
from cwgraphs.errors import SizeGuard


def test_oracle_matchings_examples():
    assert oracle_matchings(from_edge_list(P5_EDGES)) == (2, 2)
    assert oracle_matchings(complete_graph(4)) == (2, 1)
    assert oracle_matchings(from_edge_list(STAR7_EDGES)) == (3, 3)


def test_oracle_matchings_budget():
    with pytest.raises(SizeGuard, match="^oracle edge budget is 20, graph has 21$"):
        oracle_matchings(complete_graph(7))
    assert oracle_matchings(complete_graph(6)) == (3, 1)  # 15 edges


def test_oracle_max_independent_sets_budget():
    with pytest.raises(SizeGuard, match="^oracle vertex budget is 16, graph has 17$"):
        oracle_max_independent_sets(complete_graph(17))
    with pytest.raises(SizeGuard, match="^oracle vertex budget is 14, graph has 15$"):
        oracle_max_independent_sets(complete_graph(15), OracleBudget(max_vertices=14))


def test_oracle_max_independent_sets():
    assert oracle_max_independent_sets(from_edge_list([("a", "b")])) == (("a",), ("b",))
    g5 = from_edge_list(G5_EDGES)
    assert {frozenset(s) for s in oracle_max_independent_sets(g5)} == {
        frozenset("vy"),
        frozenset("vz"),
        frozenset("vw"),
        frozenset("xz"),
        frozenset("xw"),
    }
    eight = random_cw(1, 2, 1, 1, 1.0, 3)
    sets = oracle_max_independent_sets(g_prime(eight))
    assert len(sets) == 4


def test_oracle_agrees_with_bron_kerbosch():
    for edges in (G5_EDGES, P5_EDGES, STAR7_EDGES):
        g = from_edge_list(edges)
        fast = {frozenset(f) for f in independence_complex(g).facets}
        slow = {frozenset(s) for s in oracle_max_independent_sets(g)}
        assert fast == slow


def test_oracle_shelling():
    g5 = build_cw(random_cw(1, 1, 1, 1, 0.0, 0))
    ok, order = oracle_shelling_exists(independence_complex(g5))
    assert ok and len(order) == 5
    c4 = from_edge_list([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    ok, order = oracle_shelling_exists(independence_complex(c4))
    assert not ok and order is None
    assert oracle_shelling_exists(SimplicialComplex([{"a"}]))[0]
    # K_13 has 13 one-vertex facets, one past the budget
    with pytest.raises(SizeGuard, match="^oracle facet budget is 12, complex has 13$"):
        oracle_shelling_exists(independence_complex(complete_graph(13)))


def test_enumerate_labeled_graphs():
    assert sum(1 for _ in enumerate_labeled_graphs(2)) == 2
    assert sum(1 for _ in enumerate_labeled_graphs(3)) == 8
    assert sum(1 for _ in enumerate_labeled_graphs(5)) == 1024
    with pytest.raises(SizeGuard, match="^labelled enumeration is capped at 6 vertices$"):
        next(enumerate_labeled_graphs(7))
    # deterministic order, distinct graphs
    first = [g.edges for g in enumerate_labeled_graphs(3)]
    second = [g.edges for g in enumerate_labeled_graphs(3)]
    assert first == second
    assert len(set(first)) == 8
