"""Cover, Cohen-Macaulay, type, pd and regularity invariants."""

import json

import pytest

from corpus import (
    G5_EDGES,
    P5_EDGES,
    STAR7_EDGES,
    complete_graph,
    cw_corpus,
    petersen,
    star_triangle,
)
from cwgraphs import (
    build_cw,
    cm_type_cw,
    cw_cover_cardinalities,
    cw_witness_covers,
    decompose,
    from_edge_list,
    full_report,
    g_prime,
    independence_complex,
    independence_domination_number,
    is_cm_cw,
    is_gorenstein_cw,
    is_unmixed,
    minimal_vertex_covers,
    oracle_max_independent_sets,
    projective_dimension_cw,
    random_cw,
    regularity_cw,
)
from cwgraphs import invariants, structure
from cwgraphs.complexes import COMPLEX_VERTEX_CAP
from cwgraphs.errors import (
    InvalidDecomposition,
    NotCameronWalker,
    NotCohenMacaulay,
    NotInFamily,
)
from cwgraphs.structure import CWDecomposition


def test_minimal_vertex_covers_single_edge():
    covers = minimal_vertex_covers(from_edge_list([("a", "b")]))
    assert covers == (("a",), ("b",))


def test_minimal_vertex_covers_g5():
    g5 = from_edge_list(G5_EDGES)
    covers = minimal_vertex_covers(g5)
    assert sorted(len(c) for c in covers) == [3, 3, 3, 3, 3]
    assert is_unmixed(g5)


def test_minimal_vertex_covers_p5():
    p5 = from_edge_list(P5_EDGES)
    covers = minimal_vertex_covers(p5)
    assert sorted(len(c) for c in covers) == [2, 3, 3, 3]
    assert not is_unmixed(p5)


def test_covers_are_facet_complements():
    for g in (from_edge_list(G5_EDGES), from_edge_list(P5_EDGES), petersen()):
        covers = {frozenset(c) for c in minimal_vertex_covers(g)}
        facets = oracle_max_independent_sets(g)
        assert covers == {frozenset(set(g.vertices) - set(f)) for f in facets}


def test_unmixed_iff_pure():
    for dec in cw_corpus()[:60]:
        g = build_cw(dec)
        assert is_unmixed(g) == independence_complex(g).is_pure()


def test_cw_cover_cardinalities_examples():
    g5 = decompose(from_edge_list(G5_EDGES))
    assert cw_cover_cardinalities(g5) == (3, 3, 3)
    p5 = decompose(from_edge_list(P5_EDGES))
    assert cw_cover_cardinalities(p5) == (2, 3, 2)
    # two leaves on x1 plus one triangle on y1: (3, 4, 3), not unmixed
    from cwgraphs.graph import Graph

    f2 = CWDecomposition(
        support=Graph(("x1", "y1"), [("x1", "y1")]),
        left=("x1",),
        right=("y1",),
        leaf_map={"x1": ("z1_1", "z1_2")},
        triangle_map={"y1": (("w1_1+", "w1_1-"),)},
    )
    assert cw_cover_cardinalities(f2) == (3, 4, 3)
    assert not is_unmixed(build_cw(f2))


def test_witness_covers_are_minimal():
    from cwgraphs.invariants import _is_vertex_cover

    for dec in cw_corpus()[:60]:
        g = build_cw(dec)
        covers = cw_witness_covers(dec)
        sizes = cw_cover_cardinalities(dec)
        for cover, size in zip(covers, sizes):
            assert len(cover) == size
            assert _is_vertex_cover(g, set(cover))
            for v in cover:
                assert not _is_vertex_cover(g, set(cover) - {v})


def test_is_cm_cw():
    assert is_cm_cw(decompose(from_edge_list(G5_EDGES)))
    assert not is_cm_cw(decompose(from_edge_list(P5_EDGES)))
    assert is_cm_cw(random_cw(1, 2, 1, 1, 1.0, 3))


def test_g_prime():
    g5 = decompose(from_edge_list(G5_EDGES))
    gp = g_prime(g5)
    assert gp.vertices == ("w1_1+", "x1", "y1")
    assert gp.edges == (("w1_1+", "y1"), ("x1", "y1"))

    eight = random_cw(1, 2, 1, 1, 1.0, 3)
    gp8 = g_prime(eight)
    assert gp8.vertex_count == eight.n + 2 * eight.m == 5
    assert set(gp8.edges) == {
        ("x1", "y1"), ("x1", "y2"), ("w1_1+", "y1"), ("w2_1+", "y2"),
    }
    with pytest.raises(NotCohenMacaulay):
        g_prime(decompose(from_edge_list(P5_EDGES)))


def test_g_prime_is_read_off_the_certificate(monkeypatch):
    # G' is the induced subgraph of the built graph on the x, the y and
    # each w_{j,1}+, taken here the long way, before build_cw is refused
    decs = [dec for dec in cw_corpus() if is_cm_cw(dec)]
    expected = []
    for dec in decs:
        keep = [f"x{i}" for i in range(1, dec.n + 1)]
        keep += [f"y{j}" for j in range(1, dec.m + 1)]
        keep += [f"w{j}_1+" for j in range(1, dec.m + 1)]
        expected.append(build_cw(dec).induced_subgraph(keep))

    def refuse(dec):
        raise RuntimeError("build_cw called")

    monkeypatch.setattr(invariants, "build_cw", refuse)
    monkeypatch.setattr(structure, "build_cw", refuse)
    assert len(decs) > 100
    for dec, gp in zip(decs, expected):
        assert g_prime(dec) == gp
        assert cm_type_cw(dec) == 2**dec.m


def test_cm_type():
    assert cm_type_cw(decompose(from_edge_list(G5_EDGES))) == 2
    eight = random_cw(1, 2, 1, 1, 1.0, 3)
    assert cm_type_cw(eight) == 4
    facets = independence_complex(g_prime(eight)).facets
    assert {tuple(sorted(f)) for f in facets} == {
        ("w1_1+", "w2_1+", "x1"),
        ("w2_1+", "y1"),
        ("w1_1+", "y2"),
        ("y1", "y2"),
    }
    with pytest.raises(NotCohenMacaulay):
        cm_type_cw(decompose(from_edge_list(P5_EDGES)))


def test_cm_type_count_check_raises(monkeypatch):
    # a derived graph with one maximal independent set instead of 2^m = 2
    monkeypatch.setattr(invariants, "g_prime", lambda dec: from_edge_list([], isolated=["a"]))
    with pytest.raises(InvalidDecomposition, match="2\\^m = 2"):
        cm_type_cw(decompose(from_edge_list(G5_EDGES)))


def test_no_gorenstein():
    assert not is_gorenstein_cw(decompose(from_edge_list(G5_EDGES)))
    assert not is_gorenstein_cw(decompose(from_edge_list(P5_EDGES)))
    for dec in cw_corpus()[:40]:
        assert not is_gorenstein_cw(dec)
        if is_cm_cw(dec):
            assert cm_type_cw(dec) >= 2


def test_independence_domination():
    assert independence_domination_number(from_edge_list([("a", "b")]))[0] == 1
    g5 = from_edge_list(G5_EDGES)
    value, witness = independence_domination_number(g5)
    assert value == 2
    covered = set(witness)
    for v in witness:
        covered |= g5.neighborhood(v)
    assert covered == set(g5.vertices)
    p5 = from_edge_list(P5_EDGES)
    value, witness = independence_domination_number(p5)
    assert value == 2
    covered = set(witness) | {u for v in witness for u in p5.neighborhood(v)}
    assert covered == set(p5.vertices)
    assert witness == independence_domination_number(p5)[1]  # deterministic


def test_projective_dimension():
    assert projective_dimension_cw(from_edge_list(G5_EDGES)) == 3
    assert projective_dimension_cw(from_edge_list(P5_EDGES)) == 3
    eight = build_cw(random_cw(1, 2, 1, 1, 1.0, 3))
    assert projective_dimension_cw(eight) == 5  # n + 2m, also the cover size
    with pytest.raises(NotCameronWalker):
        projective_dimension_cw(petersen())


def test_regularity():
    assert regularity_cw(from_edge_list(G5_EDGES)) == 2
    assert regularity_cw(from_edge_list(STAR7_EDGES)) == 3
    assert regularity_cw(from_edge_list([("a", "b")])) == 1
    with pytest.raises(NotInFamily):
        regularity_cw(petersen())


@pytest.mark.parametrize(
    "g, value",
    [
        (from_edge_list([], isolated=["v"]), 0),
        (from_edge_list([("c", f"l{i}") for i in range(1, 6)]), 1),
        (from_edge_list(STAR7_EDGES), 3),
        (from_edge_list(G5_EDGES), 2),
    ],
    ids=["k1", "star", "star-triangle", "cw"],
)
def test_im_equals_m_family_matchings_come_from_the_recognition(monkeypatch, g, value):
    def no_search(g, cap=None):
        raise AssertionError("exponential matching search on an im = m graph")

    monkeypatch.setattr(invariants, "matching_number", no_search)
    monkeypatch.setattr(invariants, "induced_matching_number", no_search)
    assert regularity_cw(g) == value
    rep = full_report(g)
    assert rep.m == rep.im == rep.reg == value


def test_full_report_on_a_star_past_the_matching_cap():
    # A 70-leaf star has 71 vertices, past the 64-vertex cap of m; 40
    # triangles at a centre have 81 vertices and 120 edges, past both
    # matching caps.  The recognition still gives m = im = reg; only the
    # complex is refused, so the report stays partial.
    star = from_edge_list([("c", f"l{i}") for i in range(1, 71)])
    triangles = star_triangle(40)
    assert (triangles.vertex_count, triangles.edge_count) == (81, 120)
    for g, tag, value in [(star, "Star", 1), (triangles, "StarTriangle", 40)]:
        rep = full_report(g)
        assert rep.classification.tag == tag
        assert rep.m == rep.im == rep.reg == regularity_cw(g) == value
        assert rep.unmixed is False
        for name in ("cover_cardinalities", "i_g"):
            assert getattr(rep, name) is None and "cap is 26" in rep.reasons[name]
        assert rep.partial is True


def test_cameron_walker_matchings_come_from_the_certificate(monkeypatch):
    def no_search(g, cap=None):
        raise AssertionError("exponential matching search on a Cameron-Walker graph")

    monkeypatch.setattr(invariants, "matching_number", no_search)
    monkeypatch.setattr(invariants, "induced_matching_number", no_search)
    rep = full_report(from_edge_list(P5_EDGES))
    assert (rep.m, rep.im, rep.reg) == (2, 2, 2)
    # 67 vertices and 106 edges: above both matching caps
    big = random_cw(8, 8, 5, 3, 0.5, 0)
    assert big.vertex_count() == 67
    rep = full_report(build_cw(big))
    assert rep.m == rep.im == rep.reg == big.n + big.t
    assert rep.partial and rep.i_g is None and "cap is 26" in rep.reasons["i_g"]
    # above the cap the theorems still give unmixed = CM and VD = SCM = true
    assert rep.unmixed is rep.cm is False
    assert rep.vertex_decomposable is rep.sequentially_cm is True
    for name in ("unmixed", "vertex_decomposable", "sequentially_cm"):
        assert name not in rep.reasons
    for name in ("cover_cardinalities", "i_g", "pd"):
        assert getattr(rep, name) is None and "cap is 26" in rep.reasons[name]


@pytest.mark.parametrize(
    "edges",
    [G5_EDGES, P5_EDGES, [("c", f"l{i}") for i in range(1, 6)], STAR7_EDGES],
    ids=["cw-cm", "cw-mixed", "star", "star-triangle"],
)
@pytest.mark.parametrize("cap", [26, 2])
def test_im_equals_m_family_is_vertex_decomposable_by_theorem(monkeypatch, edges, cap):
    def no_search(g, cap=None):
        raise AssertionError("vertex-decomposability search on an im = m graph")

    monkeypatch.setattr(invariants, "is_vertex_decomposable_graph", no_search)
    rep = full_report(from_edge_list(edges), cap=cap)
    assert rep.vertex_decomposable is rep.sequentially_cm is True
    assert rep.partial is (cap == 2)


@pytest.mark.parametrize(
    "edges, unmixed",
    [
        ([("c", "l1")], True),
        ([("c", "l1"), ("c", "l2")], False),
        ([("c", f"l{i}") for i in range(1, 6)], False),
        (STAR7_EDGES[:3], True),
        (STAR7_EDGES[:6], False),
        (STAR7_EDGES, False),
    ],
)
@pytest.mark.parametrize("cap", [26, 2])
def test_star_and_star_triangle_unmixed_at_any_size(edges, unmixed, cap):
    # a star is unmixed iff it has at most two vertices, a star triangle
    # iff it is a single triangle; above the cap the closed form decides
    rep = full_report(from_edge_list(edges), cap=cap)
    assert rep.unmixed is unmixed and "unmixed" not in rep.reasons
    if cap == 26:
        assert (len(set(rep.cover_cardinalities)) == 1) is unmixed


def test_single_vertex_star_is_unmixed():
    rep = full_report(from_edge_list([], isolated=["v"]), cap=0)
    assert rep.classification.tag == "Star" and rep.unmixed is True


@pytest.mark.parametrize("edges", [[("c", f"l{i}") for i in range(1, 6)], STAR7_EDGES])
def test_purity_disagreeing_with_the_star_closed_form_raises(monkeypatch, edges):
    # a pure complex handed to the report of a mixed star (triangle)
    edge = from_edge_list([("a", "b")])
    monkeypatch.setattr(invariants, "independence_complex", lambda g, cap: independence_complex(edge))
    with pytest.raises(NotInFamily, match="closed form"):
        full_report(from_edge_list(edges))


@pytest.mark.parametrize("edges", [G5_EDGES, P5_EDGES])
def test_purity_disagreeing_with_the_cm_shape_raises(monkeypatch, edges):
    # unmixed iff CM on Cameron-Walker graphs: a wrong shape verdict is
    # caught by the facet sizes of the complex built under the cap
    truth = is_cm_cw(decompose(from_edge_list(edges)))
    monkeypatch.setattr(invariants, "is_cm_cw", lambda dec: not truth)
    with pytest.raises(InvalidDecomposition, match="purity"):
        full_report(from_edge_list(edges))


def test_full_report_builds_one_independence_complex(monkeypatch):
    built = []

    def counting(g, cap):
        built.append(g.vertex_count)
        return independence_complex(g, cap=cap)

    monkeypatch.setattr(invariants, "independence_complex", counting)
    full_report(from_edge_list(P5_EDGES))
    assert built == [5]
    built.clear()
    full_report(from_edge_list(G5_EDGES))  # Cohen-Macaulay: G' is counted too
    assert built == [5, 3]


def test_full_report_g5():
    rep = full_report(from_edge_list(G5_EDGES))
    assert (rep.im, rep.m) == (2, 2)
    assert rep.classification.tag == "CameronWalker"
    assert rep.unmixed and rep.cm and rep.cm_type == 2
    assert rep.gorenstein is False
    assert rep.vertex_decomposable and rep.sequentially_cm
    assert (rep.i_g, rep.pd, rep.reg) == (2, 3, 2)
    assert not rep.partial


def test_full_report_p5():
    rep = full_report(from_edge_list(P5_EDGES))
    assert (rep.im, rep.m) == (2, 2)
    assert rep.unmixed is False and rep.cm is False
    assert rep.cm_type is None and rep.gorenstein is False
    assert rep.vertex_decomposable
    assert (rep.i_g, rep.pd, rep.reg) == (2, 3, 2)


def test_full_report_k4():
    k4 = from_edge_list(
        [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
    )
    rep = full_report(k4)
    assert (rep.im, rep.m) == (1, 2)
    assert rep.classification.tag == "Other"
    assert rep.reg is None and rep.pd is None and rep.cm is None
    payload = json.loads(rep.to_json())
    assert payload["reg"] is None and "reg_reason" in payload
    assert list(payload)[:3] == ["im", "m", "classification"]


def test_report_to_dict_is_the_json_payload():
    for g in (from_edge_list(G5_EDGES), from_edge_list(STAR7_EDGES), complete_graph(4)):
        for cap in (COMPLEX_VERTEX_CAP, 2):
            rep = full_report(g, cap=cap)
            assert rep.to_json() == json.dumps(rep.to_dict())


def test_report_invariants_on_corpus_sample():
    for dec in cw_corpus()[:25]:
        rep = full_report(build_cw(dec))
        assert rep.im <= rep.reg <= rep.m
        if rep.cm:
            assert rep.unmixed
        assert rep.gorenstein is False
        if rep.sequentially_cm:
            assert rep.vertex_decomposable


@pytest.mark.parametrize(
    "run",
    [
        lambda: full_report(from_edge_list(G5_EDGES)),  # Cohen-Macaulay
        lambda: full_report(from_edge_list(P5_EDGES)),
        lambda: build_cw(random_cw(3, 3, 2, 2, 0.5, 1)),
    ],
    ids=["cm_report", "report", "build_cw"],
)
def test_each_certificate_is_validated_once(monkeypatch, run):
    # checked where it is built; no consumer checks it again
    calls = []
    validate = CWDecomposition.validate
    monkeypatch.setattr(CWDecomposition, "validate", lambda dec: calls.append(dec) or validate(dec))
    run()
    assert len(calls) == 1
