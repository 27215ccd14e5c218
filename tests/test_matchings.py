"""Matching and induced matching numbers against examples and the oracle;
witnesses against the reference checkers in ``corpus``."""

import itertools
import random

import pytest

from corpus import (
    P5_EDGES,
    STAR7_EDGES,
    complete_bipartite,
    complete_graph,
    is_induced_matching,
    is_matching,
    petersen,
    random_graph,
)
from cwgraphs import (
    Graph,
    from_edge_list,
    induced_matching_number,
    matching_number,
    matching_stats,
    oracle_matchings,
)
from cwgraphs import matchings
from cwgraphs.errors import LengthMismatch, SizeGuard


def test_is_matching():
    path = from_edge_list([("a", "b"), ("b", "c")])
    assert is_matching(path, [])
    assert not is_matching(path, [("a", "b"), ("b", "c")])
    star7 = from_edge_list(STAR7_EDGES)
    assert is_matching(star7, [("2", "3"), ("4", "5"), ("6", "7")])
    assert is_matching(path, [("b", "a")])  # either endpoint first
    assert not is_matching(path, [("a", "c")])


@pytest.mark.parametrize("bad", [("a", "c"), ("a", "a"), ("a", "q")])
def test_matching_checks_reject_non_edges(bad):
    # a non-edge, a loop and a vertex the graph does not have, alone and
    # beside a true edge that they do not touch
    path = from_edge_list([("a", "b"), ("b", "c"), ("x", "y")])
    for check in (is_matching, is_induced_matching):
        assert not check(path, [bad])
        assert not check(path, [("x", "y"), bad])


def test_is_induced_matching():
    p4 = from_edge_list([("a", "b"), ("b", "c"), ("c", "d")])
    assert not is_induced_matching(p4, [("a", "b"), ("c", "d")])
    p5 = from_edge_list(P5_EDGES)
    assert is_induced_matching(p5, [("a", "b"), ("d", "e")])
    star7 = from_edge_list(STAR7_EDGES)
    assert is_induced_matching(star7, [("2", "3"), ("4", "5"), ("6", "7")])


def test_complete_graph_values():
    k4 = complete_graph(4)
    assert matching_number(k4)[0] == 2
    assert induced_matching_number(k4)[0] == 1


def test_complete_bipartite_values():
    k23 = complete_bipartite(2, 3)
    assert matching_number(k23)[0] == 2
    assert induced_matching_number(k23)[0] == 1


def test_petersen_values():
    pet = petersen()
    assert matching_number(pet)[0] == 5
    assert induced_matching_number(pet)[0] == 3


def test_star_triangle_values():
    g = from_edge_list(STAR7_EDGES)
    assert matching_number(g)[0] == 3
    assert induced_matching_number(g)[0] == 3


def test_witnesses_are_valid_and_canonical():
    rng = random.Random(11)
    for _ in range(40):
        g = random_graph(rng, 7, 0.45)
        stats = matching_stats(g)
        assert is_matching(g, stats.witness_m)
        assert is_induced_matching(g, stats.witness_im)
        assert len(stats.witness_m) == stats.m
        assert len(stats.witness_im) == stats.im
        assert stats.im <= stats.m
        # canonical = lexicographically least among optima (brute check)
        edges = g.edges
        best_m = min(
            (
                tuple(sorted(sub))
                for r in (stats.m,)
                for sub in itertools.combinations(edges, r)
                if is_matching(g, sub)
            ),
            default=(),
        )
        assert tuple(sorted(stats.witness_m)) == best_m


def test_induced_witness_is_lex_least():
    rng = random.Random(12)
    for _ in range(25):
        g = random_graph(rng, 6, 0.5)
        im, wit = induced_matching_number(g)
        best = min(
            tuple(sorted(sub))
            for sub in itertools.combinations(g.edges, im)
            if is_induced_matching(g, sub)
        ) if im else ()
        assert tuple(sorted(wit)) == tuple(best)


def test_oracle_equivalence_exhaustive_4_vertices():
    verts = ["v1", "v2", "v3", "v4"]
    pairs = list(itertools.combinations(verts, 2))
    for code in range(1 << len(pairs)):
        g = Graph(verts, [pairs[i] for i in range(len(pairs)) if code & (1 << i)])
        m, _ = matching_number(g)
        im, _ = induced_matching_number(g)
        assert (m, im) == oracle_matchings(g)


def test_oracle_equivalence_random_up_to_12_edges():
    rng = random.Random(13)
    done = 0
    while done < 120:
        g = random_graph(rng, 7, 0.4)
        if g.edge_count > 12:
            continue
        m, _ = matching_number(g)
        im, _ = induced_matching_number(g)
        assert (m, im) == oracle_matchings(g)
        done += 1


def test_monotone_under_deletion():
    # m never grows when an edge goes away; removing an edge can RAISE im
    # (it can delete a bridge between two matching edges), but neither
    # number grows when a vertex goes away.
    rng = random.Random(14)
    for _ in range(20):
        g = random_graph(rng, 6, 0.5)
        m, _ = matching_number(g)
        im, _ = induced_matching_number(g)
        if g.edges:
            drop = rng.choice(g.edges)
            smaller = Graph(g.vertices, [e for e in g.edges if e != drop])
            assert matching_number(smaller)[0] <= m
        x = rng.choice(g.vertices)
        gone = g.induced_subgraph(v for v in g.vertices if v != x)
        assert matching_number(gone)[0] <= m
        assert induced_matching_number(gone)[0] <= im
    p4 = from_edge_list([("a", "b"), ("b", "c"), ("c", "d")])
    cut = Graph(p4.vertices, [("a", "b"), ("c", "d")])
    assert induced_matching_number(p4)[0] == 1
    assert induced_matching_number(cut)[0] == 2  # the counterexample


def test_size_guards():
    big = Graph([f"v{i}" for i in range(70)], [])
    with pytest.raises(SizeGuard):
        matching_number(big)
    wide = complete_bipartite(10, 10)
    with pytest.raises(SizeGuard):
        induced_matching_number(wide)


def test_matching_number_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(15)
    for _ in range(150):
        g = random_graph(rng, 18, rng.uniform(0.05, 0.6))
        other = nx.Graph()
        other.add_nodes_from(g.vertices)
        other.add_edges_from(g.edges)
        assert matching_number(g)[0] == len(nx.max_weight_matching(other, maxcardinality=True))


def test_witness_length_checks_raise(monkeypatch):
    # Summing the branches instead of taking their maximum inflates the
    # optimum past what the witness reconstruction can realise.
    monkeypatch.setattr(matchings, "max", lambda a, b: a + b, raising=False)
    p3 = from_edge_list([("a", "b"), ("b", "c")])
    with pytest.raises(LengthMismatch, match="witness has 1 edges, the optimum is 2"):
        matching_number(p3)
    two = from_edge_list([("a", "b"), ("c", "d")])
    with pytest.raises(LengthMismatch, match="witness has 1 edges, the optimum is 3"):
        induced_matching_number(two)


def test_matching_stats_order_check_raises(monkeypatch):
    monkeypatch.setattr(matchings, "induced_matching_number", lambda g: (2, ()))
    with pytest.raises(LengthMismatch, match="exceeds"):
        matching_stats(from_edge_list([("a", "b"), ("b", "c")]))
