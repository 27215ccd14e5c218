"""Independence complexes, vertex decomposability, and shellings."""

import itertools
import json
import random
from pathlib import Path

import pytest

from corpus import G5_EDGES, P5_EDGES, cw_corpus, random_graph
from cwgraphs import (
    SimplicialComplex,
    build_cw,
    cw_shelling,
    decompose,
    from_edge_list,
    independence_complex,
    is_vertex_decomposable,
    is_vertex_decomposable_graph,
    oracle_shelling_exists,
    parse_edge_list,
    random_cw,
    sign_vector_less,
    subset_less,
    verify_shelling,
)
from cwgraphs import shelling
from cwgraphs.complexes import PLUS, MINUS
from cwgraphs.errors import (
    LengthMismatch,
    NotAPermutation,
    NotCompleteBipartiteSupport,
    SizeGuard,
    UnknownVertex,
)
from cwgraphs.graph import Graph

DATA = Path(__file__).parent / "data"

G5_CANONICAL_FACETS = {
    frozenset({"w1_1+", "x1"}),
    frozenset({"w1_1+", "z1_1"}),
    frozenset({"w1_1-", "x1"}),
    frozenset({"w1_1-", "z1_1"}),
    frozenset({"y1", "z1_1"}),
}


def g5_complex():
    return independence_complex(build_cw(random_cw(1, 1, 1, 1, 0.0, 0)))


def test_independence_complex_single_edge():
    cx = independence_complex(from_edge_list([("a", "b")]))
    assert set(cx.facets) == {frozenset("a"), frozenset("b")}


def test_independence_complex_g5():
    assert set(g5_complex().facets) == G5_CANONICAL_FACETS


def test_independence_complex_k4():
    k4 = from_edge_list(list(itertools.combinations("abcd", 2)))
    cx = independence_complex(k4)
    assert all(len(f) == 1 for f in cx.facets)
    assert len(cx.facets) == 4


def test_independence_complex_size_guard():
    big = Graph([f"v{i}" for i in range(30)], [])
    with pytest.raises(SizeGuard):
        independence_complex(big)


def test_purity():
    assert g5_complex().is_pure()
    p5 = independence_complex(from_edge_list(P5_EDGES))
    assert {frozenset(f) for f in p5.facets} == {
        frozenset("ace"),
        frozenset("ad"),
        frozenset("bd"),
        frozenset("be"),
    }
    assert not p5.is_pure()
    assert SimplicialComplex([{"a", "b"}]).is_pure()


def test_link_and_delete():
    cx = g5_complex()
    link = cx.link("x1")
    assert set(link.facets) == {frozenset({"w1_1+"}), frozenset({"w1_1-"})}
    # delete on a vertex in no facet leaves the complex unchanged
    simplex = SimplicialComplex([{"a", "b"}], vertices={"a", "b", "q"})
    assert simplex.delete("q") == simplex
    # link of a simplex vertex is the simplex on the rest
    assert simplex.link("a") == SimplicialComplex([{"b"}])
    with pytest.raises(UnknownVertex):
        cx.link("nope")


def test_vertex_decomposable_base_cases():
    ok, wit = is_vertex_decomposable(SimplicialComplex([{"a", "b", "c"}]))
    assert ok and wit == {"kind": "simplex"}
    ok, wit = is_vertex_decomposable(SimplicialComplex([]))
    assert ok and wit == {"kind": "empty"}


def test_vertex_decomposable_g5():
    ok, wit = is_vertex_decomposable(g5_complex())
    assert ok and wit["kind"] == "shed"


def test_vertex_decomposable_c5():
    c5 = from_edge_list([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")])
    assert is_vertex_decomposable(independence_complex(c5))[0]
    assert is_vertex_decomposable_graph(c5)[0]


def test_c4_not_vertex_decomposable():
    c4 = from_edge_list([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    assert not is_vertex_decomposable_graph(c4)[0]
    assert not is_vertex_decomposable(independence_complex(c4))[0]


def test_vertex_decomposable_graph_base_cases():
    edgeless = Graph(["a", "b", "c"], [])
    ok, wit = is_vertex_decomposable_graph(edgeless)
    assert ok and wit == {"kind": "edgeless"}
    p5 = from_edge_list(P5_EDGES)
    assert is_vertex_decomposable_graph(p5)[0]


def test_checkers_agree_on_small_graphs():
    rng = random.Random(21)
    for _ in range(60):
        g = random_graph(rng, 6, 0.45)
        a = is_vertex_decomposable_graph(g)[0]
        b = is_vertex_decomposable(independence_complex(g))[0]
        assert a == b


def test_vd_graph_witnesses_are_pinned():
    # Exact (flag, witness) on the bundled graphs and two random_cw graphs:
    # which vertex is shed first and the order of components are pinned.
    expected = json.loads((DATA / "vd_witnesses.json").read_text())
    graphs = {p.name: parse_edge_list(p.read_text()) for p in sorted(DATA.glob("*.edges"))}
    for args in ((2, 2, 2, 1, 0.5, 3), (3, 3, 2, 1, 0.5, 11)):
        graphs[f"random_cw{args!r}"] = build_cw(random_cw(*args))
    assert sorted(graphs) == sorted(expected)
    for name, g in graphs.items():
        got = json.dumps(list(is_vertex_decomposable_graph(g)))
        assert got == json.dumps(expected[name]), name


def test_vd_complex_witnesses_are_pinned():
    # Exact (flag, witness) of the complex-level test on the independence
    # complexes of the graphs above and on four hand-built complexes, the
    # same in either call order: no state carries over between calls.
    expected = json.loads((DATA / "vd_complex_witnesses.json").read_text())
    graphs = {p.name: parse_edge_list(p.read_text()) for p in sorted(DATA.glob("*.edges"))}
    for args in ((2, 2, 2, 1, 0.5, 3), (3, 3, 2, 1, 0.5, 11)):
        graphs[f"random_cw{args!r}"] = build_cw(random_cw(*args))
    cxs = {name: independence_complex(g) for name, g in graphs.items()}
    cxs["path a-b-c-d"] = SimplicialComplex([{"a", "b"}, {"b", "c"}, {"c", "d"}])
    cxs["edges a-b, c-d"] = SimplicialComplex([{"a", "b"}, {"c", "d"}])
    cxs["[]"] = SimplicialComplex([])
    cxs["[set()]"] = SimplicialComplex([set()])
    assert sorted(cxs) == sorted(expected)
    for names in (list(cxs), list(reversed(cxs))):
        for name in names:
            got = json.dumps(list(is_vertex_decomposable(cxs[name])))
            assert got == json.dumps(expected[name]), name


def test_vd_witness_shape():
    g5 = from_edge_list(G5_EDGES)
    ok, wit = is_vertex_decomposable_graph(g5)
    assert ok
    def walk(node):
        assert node["kind"] in {"edgeless", "components", "shed"}
        if node["kind"] == "shed":
            walk(node["minus_vertex"])
            walk(node["minus_closed_neighborhood"])
        elif node["kind"] == "components":
            for part in node["parts"]:
                walk(part)
    walk(wit)


def test_verify_shelling_g5_orders():
    cx = g5_complex()
    good = [
        frozenset({"w1_1+", "z1_1"}),
        frozenset({"w1_1-", "z1_1"}),
        frozenset({"y1", "z1_1"}),
        frozenset({"w1_1+", "x1"}),
        frozenset({"w1_1-", "x1"}),
    ]
    assert verify_shelling(cx, good) == (True, None)
    bad = [
        frozenset({"y1", "z1_1"}),
        frozenset({"w1_1+", "x1"}),
        frozenset({"w1_1-", "z1_1"}),
        frozenset({"w1_1+", "z1_1"}),
        frozenset({"w1_1-", "x1"}),
    ]
    ok, idx = verify_shelling(cx, bad)
    assert not ok and idx == 2


def test_verify_shelling_single_facet_and_permutation_check():
    single = SimplicialComplex([{"a", "b"}])
    assert verify_shelling(single, [frozenset("ab")]) == (True, None)
    cx = g5_complex()
    with pytest.raises(NotAPermutation):
        verify_shelling(cx, list(cx.facets)[:-1])


def test_sign_vector_order_examples():
    assert sign_vector_less((MINUS, MINUS, MINUS), (PLUS, MINUS, MINUS))
    assert sign_vector_less((PLUS, MINUS, MINUS), (MINUS, PLUS, MINUS))
    assert not sign_vector_less((PLUS, MINUS), (PLUS, MINUS))
    with pytest.raises(LengthMismatch):
        sign_vector_less((PLUS,), (PLUS, MINUS))
    # the paper-adjacent chain for length 3
    chain = [
        (MINUS, MINUS, MINUS),
        (PLUS, MINUS, MINUS),
        (MINUS, PLUS, MINUS),
        (MINUS, MINUS, PLUS),
        (PLUS, PLUS, MINUS),
    ]
    for a, b in zip(chain, chain[1:]):
        assert sign_vector_less(a, b)


def test_subset_order_examples():
    assert subset_less({1, 3, 4}, {1, 2, 3})
    assert subset_less({1, 2, 3}, {2, 4})
    assert subset_less({2, 4}, {5})
    assert subset_less({5}, frozenset())
    assert not subset_less({2}, {2})


def _check_strict_total_order(items, less):
    for a in items:
        assert not less(a, a)
    for a, b in itertools.permutations(items, 2):
        assert less(a, b) != less(b, a)
    for a, b, c in itertools.permutations(items, 3):
        if less(a, b) and less(b, c):
            assert less(a, c)


def test_orders_are_strict_total_orders():
    for length in range(5):
        vectors = list(itertools.product((PLUS, MINUS), repeat=length))
        _check_strict_total_order(vectors, sign_vector_less)
    subsets = [
        frozenset(c)
        for r in range(5)
        for c in itertools.combinations(range(1, 5), r)
    ]
    _check_strict_total_order(subsets, subset_less)


def test_cw_shelling_g5():
    dec = random_cw(1, 1, 1, 1, 0.0, 0)
    order = cw_shelling(dec)
    assert [sorted(f) for f in order.facets] == [
        ["w1_1+", "z1_1"],
        ["w1_1-", "z1_1"],
        ["y1", "z1_1"],
        ["w1_1+", "x1"],
        ["w1_1-", "x1"],
    ]
    cx = g5_complex()
    assert verify_shelling(cx, order.facets) == (True, None)


def test_cw_shelling_13_facets():
    dec = random_cw(1, 2, 1, 1, 1.0, 3)
    order = cw_shelling(dec)
    assert len(order.facets) == 13
    cx = independence_complex(build_cw(dec))
    assert set(order.facets) == set(cx.facets)
    assert verify_shelling(cx, order.facets) == (True, None)


def test_cw_shelling_refuses_incomplete_support():
    # support is a path on four vertices, not K_{2,2}
    g = from_edge_list(
        [
            ("x1", "y1"), ("y1", "x2"), ("x2", "y2"),
            ("x1", "v1"), ("x2", "v2"),
            ("y2", "a"), ("y2", "b"), ("a", "b"),
        ]
    )
    dec = decompose(g)
    with pytest.raises(NotCompleteBipartiteSupport):
        cw_shelling(dec)


def test_cw_shelling_works_on_plain_labels():
    g5 = from_edge_list(G5_EDGES)
    dec = decompose(g5)
    order = cw_shelling(dec)
    cx = independence_complex(g5)
    assert set(order.facets) == set(cx.facets)
    assert verify_shelling(cx, order.facets) == (True, None)


def test_shelling_postcondition_on_corpus_sample():
    done = 0
    for dec in cw_corpus():
        if dec.support.edge_count != dec.n * dec.m or dec.t > 6:
            continue
        order = cw_shelling(dec)
        cx = independence_complex(build_cw(dec))
        assert set(order.facets) == set(cx.facets)
        assert verify_shelling(cx, order.facets) == (True, None)
        done += 1
        if done >= 25:
            break
    assert done > 0


def test_vd_and_pure_implies_oracle_shelling():
    rng = random.Random(22)
    checked = 0
    for _ in range(80):
        g = random_graph(rng, 6, 0.5)
        cx = independence_complex(g)
        if len(cx.facets) > 12 or not cx.is_pure():
            continue
        if not is_vertex_decomposable(cx)[0]:
            continue
        assert oracle_shelling_exists(cx)[0]
        checked += 1
    assert checked > 5


def test_cw_shelling_count_check_raises(monkeypatch):
    full = shelling._sign_vectors_descending
    monkeypatch.setattr(shelling, "_sign_vectors_descending", lambda k: full(k)[1:])
    with pytest.raises(LengthMismatch, match="shelling lists"):
        cw_shelling(decompose(from_edge_list(G5_EDGES)))
