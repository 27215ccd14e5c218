"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import time
from contextlib import contextmanager

from corpus import (
    complete_bipartite,
    complete_graph,
    cw_corpus,
    petersen,
    random_clique_partition,
    random_graph,
    star_triangle,
)
from cwgraphs import (
    CliqueAttachmentSpec,
    CliquePartition,
    SimplicialComplex,
    attach_cliques,
    build_cw,
    classify,
    cm_type_cw,
    cw_cover_cardinalities,
    cw_shelling,
    cw_witness_covers,
    enumerate_labeled_graphs,
    from_edge_list,
    g_prime,
    independence_complex,
    induced_matching_number,
    is_cm_cw,
    is_gorenstein_cw,
    is_unmixed,
    is_vertex_decomposable,
    is_vertex_decomposable_graph,
    matching_number,
    oracle_matchings,
    oracle_max_independent_sets,
    projective_dimension_cw,
    regularity_cw,
    verify_shelling,
    whisker_partition,
)
from cwgraphs.graph import Graph
from cwgraphs.invariants import _is_vertex_cover
from cwgraphs.structure import CWDecomposition, TAG_OTHER


@contextmanager
def criterion(number, title):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {title} ({time.time() - start:.1f}s)")
        raise
    print(f"PASS criterion {number}: {title} ({time.time() - start:.1f}s)")


def test_criterion_1_paper_constants():
    with criterion(1, "paper constants for Petersen, K_n, K_{a,b}"):
        start = time.time()
        pet = petersen()
        assert induced_matching_number(pet)[0] == 3
        assert matching_number(pet)[0] == 5
        for n in range(2, 9):
            kn = complete_graph(n)
            assert induced_matching_number(kn)[0] == 1
            assert matching_number(kn)[0] == n // 2
        for a in range(1, 5):
            for b in range(a, 5):
                kab = complete_bipartite(a, b)
                assert induced_matching_number(kab)[0] == 1
                assert matching_number(kab)[0] == a
        assert time.time() - start < 5.0


def test_criterion_2_classification_completeness():
    with criterion(2, "classification = connected with im = m, exhaustively on 1 to 6 vertices"):
        start = time.time()
        for n in range(1, 7):
            for g in enumerate_labeled_graphs(n):
                in_family = classify(g).tag != TAG_OTHER
                connected = g.is_connected()
                equal = False
                if connected:
                    m, im = oracle_matchings(g)
                    equal = m == im
                assert in_family == (connected and equal), g.edges
                if in_family:
                    # reg is read off the recognition: it must be the common value
                    assert regularity_cw(g) == m == im, g.edges
        assert time.time() - start < 300.0


def test_criterion_3_unmixed_equivalences():
    with criterion(3, "unmixed = CM shape = pure, and unmixed implies vertex decomposable"):
        corpus = cw_corpus()
        assert len(corpus) == 300
        for dec in corpus:
            assert dec.vertex_count() <= 16
            g = build_cw(dec)
            cm = is_cm_cw(dec)
            unmixed = is_unmixed(g)
            pure = independence_complex(g).is_pure()
            assert cm == unmixed == pure
            if unmixed:
                ok_graph, _ = is_vertex_decomposable_graph(g)
                ok_complex, _ = is_vertex_decomposable(independence_complex(g))
                assert ok_graph and ok_complex


def test_criterion_4_cover_cardinality_formulas():
    with criterion(4, "witness covers are minimal with sizes (n+2t, m+f+t, n+m'+t)"):
        for dec in cw_corpus():
            g = build_cw(dec)
            triple = cw_cover_cardinalities(dec)
            assert triple == (
                dec.n + 2 * dec.t,
                dec.m + dec.f + dec.t,
                dec.n + dec.m_prime + dec.t,
            )
            for cover, size in zip(cw_witness_covers(dec), triple):
                assert len(cover) == size
                assert _is_vertex_cover(g, set(cover))
                for v in cover:
                    assert not _is_vertex_cover(g, set(cover) - {v})


def test_criterion_5_cm_type():
    with criterion(5, "CM type 2^m via maximal independent sets of the derived graph"):
        checked = 0
        for dec in cw_corpus():
            if not is_cm_cw(dec) or dec.m > 4 or dec.n > 4:
                continue
            checked += 1
            assert cm_type_cw(dec) == 2**dec.m
            gp = g_prime(dec)
            facets = independence_complex(gp).facets
            assert len(facets) == 2**dec.m
            ys = {f"y{j}" for j in range(1, dec.m + 1)}
            traces = {frozenset(f & ys) for f in facets}
            assert len(traces) == 2**dec.m  # facets biject with subsets of {y_1..y_m}
        seen_m = {dec.m for dec in cw_corpus() if is_cm_cw(dec) and dec.m <= 4 and dec.n <= 4}
        assert checked > 0 and seen_m == {1, 2, 3, 4}


def test_criterion_6_no_gorenstein():
    with criterion(6, "no Gorenstein member; CM type at least 2 whenever CM"):
        for dec in cw_corpus():
            assert is_gorenstein_cw(dec) is False
            if is_cm_cw(dec):
                assert cm_type_cw(dec) >= 2


def _all_small_complete_support_decs():
    for n in (1, 2):
        for m in (1, 2):
            left = tuple(f"x{i + 1}" for i in range(n))
            right = tuple(f"y{j + 1}" for j in range(m))
            support = Graph(left + right, [(x, y) for x in left for y in right])
            for fs in itertools.product((1, 2), repeat=n):
                for ts in itertools.product((0, 1, 2), repeat=m):
                    if any(ts[j] == 0 and ts[j + 1] > 0 for j in range(m - 1)):
                        continue  # keep triangle-bearing vertices first
                    leaf_map = {
                        x: tuple(f"z{i + 1}_{l + 1}" for l in range(fs[i]))
                        for i, x in enumerate(left)
                    }
                    triangle_map = {
                        y: tuple(
                            (f"w{j + 1}_{k + 1}+", f"w{j + 1}_{k + 1}-")
                            for k in range(ts[j])
                        )
                        for j, y in enumerate(right)
                    }
                    yield CWDecomposition(support, left, right, leaf_map, triangle_map)


def test_criterion_7_shelling():
    with criterion(7, "explicit shelling over complete bipartite support"):
        start = time.time()
        count = 0
        for dec in _all_small_complete_support_decs():
            count += 1
            order = cw_shelling(dec)
            cx = independence_complex(build_cw(dec))
            m_prime, t = dec.m_prime, dec.t
            t_counts = dec.t_counts
            expected = sum(
                2 ** sum(t_counts[i - 1] for i in range(1, m_prime + 1) if i not in set(sub))
                for r in range(m_prime + 1)
                for sub in itertools.combinations(range(1, m_prime + 1), r)
            ) + (2**dec.n - 1) * 2**t
            assert len(order.facets) == expected == len(cx.facets)
            assert set(order.facets) == set(cx.facets)
            assert verify_shelling(cx, order.facets) == (True, None)
            by_family: dict = {}
            for f, p in zip(order.facets, order.provenance):
                by_family.setdefault((p.family, p.index_set), []).append(f)
            for facs in by_family.values():
                assert len({len(f) for f in facs}) == 1  # family purity
                sub = SimplicialComplex(facs)
                assert verify_shelling(sub, facs) == (True, None)
        assert count == 60
        assert time.time() - start < 60.0


def test_criterion_8_vertex_decomposability():
    with criterion(8, "every member with at most 14 vertices is vertex decomposable"):
        checked = 0
        for dec in cw_corpus():
            if dec.vertex_count() > 14:
                continue
            checked += 1
            g = build_cw(dec)
            ok_graph, _ = is_vertex_decomposable_graph(g)
            ok_complex, _ = is_vertex_decomposable(independence_complex(g))
            assert ok_graph is True and ok_complex is True
        assert checked > 100


def test_criterion_9_clique_attachments():
    with criterion(9, "clique attachments and clique-partition whiskers are unmixed and vertex decomposable"):
        import random as _random

        rng = _random.Random(777)
        for _ in range(100):
            base = random_graph(rng, 7, 0.45)
            sizes = {v: rng.choice((2, 3)) for v in base.vertices}
            out = attach_cliques(CliqueAttachmentSpec(base, sizes))
            assert is_unmixed(out)
            assert is_vertex_decomposable_graph(out)[0]
        for _ in range(50):
            base = random_graph(rng, 7, 0.5)
            parts = random_clique_partition(rng, base)
            out = whisker_partition(CliquePartition(base, parts))
            assert is_unmixed(out)
            assert is_vertex_decomposable_graph(out)[0]


def test_criterion_10_projective_dimension():
    with criterion(10, "pd = |V| - i(G); CM members have i = n + m and pd = n + 2m"):
        for dec in cw_corpus():
            g = build_cw(dec)
            sets = oracle_max_independent_sets(g)
            i_oracle = min(len(s) for s in sets)
            assert projective_dimension_cw(g) == g.vertex_count - i_oracle
            if is_cm_cw(dec):
                assert i_oracle == dec.n + dec.m
                assert projective_dimension_cw(g) == dec.n + 2 * dec.m


def test_criterion_11_sandwich_regularity():
    with criterion(11, "im = m = reg on the family; im <= m on the 5-vertex corpus"):
        instances = [build_cw(dec) for dec in cw_corpus()[:80]]
        instances += [star_triangle(t) for t in (1, 2, 3, 4)]
        instances += [complete_bipartite(1, k) for k in (1, 2, 3, 5)]
        instances.append(from_edge_list([], isolated=["a"]))
        for g in instances:
            m, _ = matching_number(g)
            im, _ = induced_matching_number(g)
            assert im == m
            assert regularity_cw(g) == m
        for g in enumerate_labeled_graphs(5):
            m, im = oracle_matchings(g)
            assert im <= m
