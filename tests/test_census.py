"""The paper's statements on every small Cameron-Walker graph, checked
against the brute-force oracles."""

import time
from collections import Counter

from corpus import labelled_decompositions
from cwgraphs import build_cw, decompose, full_report, is_vertex_decomposable_graph
from cwgraphs.graph import Graph
from cwgraphs.oracle import oracle_matchings, oracle_max_independent_sets

# labelled decompositions by vertex count; the smallest CW graphs have 5
CENSUS_COUNTS = {5: 2, 6: 4, 7: 10, 8: 37}


def test_census_up_to_eight_vertices():
    start = time.perf_counter()
    counts = Counter()
    for dec in labelled_decompositions(8):
        counts[dec.vertex_count()] += 1
        g = build_cw(dec)
        # recognition gives dec back in build_cw's labels, up to the order
        # within each side
        cmap = dec.canonical_map()
        read = decompose(g)
        assert set(read.left) == {cmap[x] for x in dec.left}
        assert set(read.right) == {cmap[y] for y in dec.right}
        assert read.support == Graph(
            [cmap[v] for v in dec.left + dec.right],
            [(cmap[u], cmap[v]) for u, v in dec.support_edges],
        )
        assert read.leaf_map == {
            cmap[x]: tuple(cmap[z] for z in zs) for x, zs in dec.leaf_map.items()
        }
        assert read.triangle_map == {
            cmap[y]: tuple((cmap[a], cmap[b]) for a, b in ps) for y, ps in dec.triangle_map.items()
        }

        rep = full_report(g)
        sizes = {len(s) for s in oracle_max_independent_sets(g)}
        # unmixed <=> CM <=> one leaf per left and one triangle per right vertex
        shape = set(dec.f_counts) == set(dec.t_counts) == {1}
        assert rep.unmixed == rep.cm == (len(sizes) == 1) == shape
        # the CM type is 2^m with m >= 1, so no CW graph is Gorenstein
        assert rep.cm_type == (2**dec.m if shape else None)
        assert rep.gorenstein is False
        # m = im = reg = n + t
        assert oracle_matchings(g) == (dec.n + dec.t, dec.n + dec.t)
        assert rep.m == rep.im == rep.reg == dec.n + dec.t
        # pd = |V| - i(G), i(G) the least size of a maximal independent set
        assert rep.pd == g.vertex_count - min(sizes)
        assert rep.vertex_decomposable and is_vertex_decomposable_graph(g)[0]
    assert counts == CENSUS_COUNTS
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"the census took {elapsed:.1f} s"
