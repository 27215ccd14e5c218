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
from cwgraphs import complexes, invariants, structure
from cwgraphs.complexes import COMPLEX_VERTEX_CAP, _maximal_independent_masks
from cwgraphs.errors import (
    InvalidDecomposition,
    NotCameronWalker,
    NotCohenMacaulay,
    NotInFamily,
)
from cwgraphs.graph import Graph
from cwgraphs.structure import CWDecomposition


def lower_complex_cap(monkeypatch, cap):
    """Run the report's past-the-cap paths on small graphs: the complex
    searches and the G' count read ``COMPLEX_VERTEX_CAP`` when called."""
    monkeypatch.setattr(complexes, "COMPLEX_VERTEX_CAP", cap)
    monkeypatch.setattr(invariants, "COMPLEX_VERTEX_CAP", cap)


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


def test_cover_cardinalities_reject_a_witness_that_is_not_a_minimal_cover(monkeypatch):
    dec = decompose(from_edge_list(P5_EDGES))  # cover sizes (2, 3, 2)
    good = cw_witness_covers(dec)
    g = build_cw(dec)
    u, v = g.edges[0]
    uncovered = frozenset(g.vertices) - {u, v}  # misses the edge uv
    padded = good[0] | {next(w for w in g.vertices if w not in good[0])}
    assert len(uncovered) == len(padded) == 3
    for bad in (uncovered, padded):
        assert not invariants._is_minimal_vertex_cover(g, set(bad))
        monkeypatch.setattr(invariants, "cw_witness_covers", lambda dec, bad=bad: (good[0], bad, good[2]))
        with pytest.raises(InvalidDecomposition, match="minimality"):
            cw_cover_cardinalities(dec)


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


def test_gorenstein_reads_the_theorem(monkeypatch):
    # the type is 2^m with m >= 1, so nothing is counted
    def refuse(*args, **kwargs):
        raise RuntimeError("derived graph or complex built")

    decs = [decompose(from_edge_list(G5_EDGES)), *cw_corpus()[:40]]
    assert any(is_cm_cw(dec) and dec.n + 2 * dec.m <= COMPLEX_VERTEX_CAP for dec in decs)
    monkeypatch.setattr(invariants, "g_prime", refuse)
    monkeypatch.setattr(invariants, "independence_complex", refuse)
    monkeypatch.setattr(invariants, "_maximal_independent_masks", refuse)
    for dec in decs:
        assert is_gorenstein_cw(dec) is False


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
    def no_search(g):
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
    def no_search(g):
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
    def no_search(g):
        raise AssertionError("vertex-decomposability search on an im = m graph")

    monkeypatch.setattr(invariants, "is_vertex_decomposable_graph", no_search)
    lower_complex_cap(monkeypatch, cap)
    rep = full_report(from_edge_list(edges))
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
        ([("c", f"l{i}") for i in range(1, 31)], False),
        (star_triangle(14).edges, False),
    ],
)
@pytest.mark.parametrize("cap", [26, 2])
def test_star_and_star_triangle_unmixed_at_any_size(monkeypatch, edges, unmixed, cap):
    # a star is unmixed iff it has at most two vertices, a star triangle
    # iff it is a single triangle; above the cap the closed form decides
    lower_complex_cap(monkeypatch, cap)
    rep = full_report(from_edge_list(edges))
    assert rep.unmixed is unmixed and "unmixed" not in rep.reasons
    if rep.cover_cardinalities is not None:
        assert (len(set(rep.cover_cardinalities)) == 1) is unmixed


def test_single_vertex_star_is_unmixed():
    rep = full_report(from_edge_list([], isolated=["v"]))
    assert rep.classification.tag == "Star" and rep.unmixed is True


@pytest.mark.parametrize("edges", [[("c", f"l{i}") for i in range(1, 6)], STAR7_EDGES])
def test_purity_disagreeing_with_the_star_closed_form_raises(monkeypatch, edges):
    # a pure complex handed to the report of a mixed star (triangle)
    edge = from_edge_list([("a", "b")])
    monkeypatch.setattr(invariants, "independence_complex", lambda g: independence_complex(edge))
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
    built, counted = [], []

    def building(g):
        built.append(g.vertex_count)
        return independence_complex(g)

    def counting(g):
        counted.append(g.vertex_count)
        return _maximal_independent_masks(g)

    monkeypatch.setattr(invariants, "independence_complex", building)
    monkeypatch.setattr(invariants, "_maximal_independent_masks", counting)
    full_report(from_edge_list(P5_EDGES))
    assert built == [5] and counted == []
    built.clear()
    # Cohen-Macaulay: the sets of G' are counted too, with no complex built
    full_report(from_edge_list(G5_EDGES))
    assert built == [5] and counted == [3]


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


def test_other_report_pins_reg_where_the_searches_agree():
    # im <= reg <= m holds for every graph
    for g, value in ((Graph("abcd", [("a", "b"), ("c", "d")]), 2), (Graph("abq", [("a", "b")]), 1)):
        rep = full_report(g)
        assert rep.classification.tag == "Other"
        assert rep.m == rep.im == rep.reg == value and "reg" not in rep.reasons
    # both searches ran and im < m: reg stays null
    rep = full_report(Graph("abcd", [("a", "b"), ("b", "c"), ("c", "d")]))
    assert (rep.m, rep.im, rep.reg) == (2, 1, None)
    assert rep.reasons["reg"] == "regularity is only pinned down when im = m"
    # both searches past their caps: reg gives m's reason
    pairs = [(f"a{i}", f"b{i}") for i in range(97)]
    rep = full_report(Graph([v for p in pairs for v in p], pairs))
    assert rep.m is None and rep.im is None and rep.reg is None
    assert rep.reasons["reg"] == rep.reasons["m"] == "matching cap is 64 vertices, graph has 194"
    # K_{2,49}: 51 vertices, m = 2, and 98 edges past the im cap
    k249 = from_edge_list([(h, f"v{i}") for h in "ab" for i in range(49)])
    rep = full_report(k249)
    assert rep.m == 2 and rep.im is None and rep.reg is None
    assert rep.reasons["reg"] == rep.reasons["im"] == "induced-matching cap is 96 edges, graph has 98"


def test_cm_type_past_the_cap_is_formula_only(monkeypatch):
    # G' has n + 2m vertices: at 26 its maximal independent sets are
    # counted, at 27 the type is the formula alone
    built = []

    def counting(g):
        built.append(g.vertex_count)
        return _maximal_independent_masks(g)

    monkeypatch.setattr(invariants, "_maximal_independent_masks", counting)
    for n, m, counted in ((2, 12, True), (1, 13, False)):
        dec = random_cw(n, m, 1, 1, 0.0, 0)
        assert dec.n + 2 * dec.m == 26 + (not counted)
        built.clear()
        assert cm_type_cw(dec) == 2**m
        assert built == ([26] if counted else [])
        rep = full_report(build_cw(dec))
        assert rep.partial and rep.cm is True and rep.cm_type == 2**m
        if counted:
            assert "cm_type" not in rep.reasons
        else:
            assert rep.reasons["cm_type"] == "formula only; derived graph exceeds the cap"


def test_report_to_dict_is_the_json_payload():
    graphs = (
        from_edge_list(G5_EDGES),
        from_edge_list(STAR7_EDGES),
        complete_graph(4),
        from_edge_list([(f"p{i}", f"p{i + 1}") for i in range(1, 27)]),
        build_cw(random_cw(1, 13, 1, 1, 0.0, 0)),
    )
    for g in graphs:
        rep = full_report(g)
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
    # checked where it is built; no consumer checks it again.  The
    # constructor, the reading of a graph and validate each run the
    # checks once, starting with the support's.
    calls = []
    check = structure._check_support
    monkeypatch.setattr(
        structure, "_check_support", lambda *args: calls.append(args) or check(*args)
    )
    run()
    assert len(calls) == 1
