"""Classification, decomposition, constructions, and the generator."""

import gc
import itertools
import json
import tracemalloc

import pytest

from corpus import G5_EDGES, P5_EDGES, STAR7_EDGES, cw_corpus, star_triangle
from cwgraphs import (
    CliqueAttachmentSpec,
    CliquePartition,
    Graph,
    attach_cliques,
    build_cw,
    classify,
    decompose,
    decomposition_from_json,
    enumerate_labeled_graphs,
    from_edge_list,
    random_cw,
    whisker_partition,
)
from cwgraphs.errors import (
    InvalidDecomposition,
    InvalidParams,
    InvalidSize,
    NotAClique,
    NotAPartition,
    NotCameronWalker,
    ParseError,
)
from cwgraphs import structure
from cwgraphs.structure import (
    TAG_CAMERON_WALKER,
    TAG_OTHER,
    TAG_STAR,
    TAG_STAR_TRIANGLE,
    certify_cw,
)


def test_classify_stars():
    assert classify(from_edge_list([], isolated=["a"])).tag == TAG_STAR
    assert classify(from_edge_list([("a", "b")])).tag == TAG_STAR
    k13 = from_edge_list([("c", "a"), ("c", "b"), ("c", "d")])
    assert classify(k13).tag == TAG_STAR


def test_classify_star_triangles():
    assert classify(from_edge_list([("a", "b"), ("b", "c"), ("a", "c")])).tag == TAG_STAR_TRIANGLE
    assert classify(from_edge_list(STAR7_EDGES)).tag == TAG_STAR_TRIANGLE
    assert classify(star_triangle(4)).tag == TAG_STAR_TRIANGLE


def _star_triangle_reference(g):
    # The quadratic per-centre test that the degree test replaced.
    nv = g.vertex_count
    if nv < 3 or nv % 2 == 0 or g.edge_count != 3 * (nv - 1) // 2:
        return False
    for c in g.vertices:
        others = [v for v in g.vertices if v != c]
        ok = True
        for v in others:
            nbrs = g.neighborhood(v)
            if len(nbrs) != 2 or c not in nbrs:
                ok = False
                break
            partner = next(iter(nbrs - {c}))
            if g.degree(partner) != 2:
                ok = False
                break
        if ok:
            return True
    return False


def test_star_triangle_test_matches_the_reference():
    for n in range(1, 7):
        for g in enumerate_labeled_graphs(n):
            assert structure._is_star_triangle(g) == _star_triangle_reference(g), g.edges
    # star triangles with one edge removed, added or moved elsewhere
    for t in range(1, 7):
        st = star_triangle(t)
        assert structure._is_star_triangle(st) and _star_triangle_reference(st)
        edges = set(st.edges)
        absent = [e for e in itertools.combinations(st.vertices, 2) if e not in edges]
        variants = [edges - {e} for e in edges] + [edges | {e} for e in absent]
        variants += [(edges - {e}) | {f} for e in edges for f in absent]
        for es in variants:
            g = Graph(st.vertices, es)
            assert not structure._is_star_triangle(g), sorted(es)
            assert not _star_triangle_reference(g), sorted(es)


def test_classify_p5():
    cls = classify(from_edge_list(P5_EDGES))
    assert cls.tag == TAG_CAMERON_WALKER
    dec = cls.decomposition
    assert dec.n == 2 and dec.m == 1
    assert dec.f_counts == (1, 1) and dec.t_counts == (0,)


def test_classify_other():
    c4 = from_edge_list([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    cls = classify(c4)
    assert cls.tag == TAG_OTHER and cls.reason == "im!=m"
    two = from_edge_list([("a", "b"), ("c", "d")])
    assert classify(two).reason == "disconnected"


def test_decompose_p5():
    dec = decompose(from_edge_list(P5_EDGES))
    assert dec.support.edges == (("b", "c"), ("c", "d"))
    assert dec.left == ("b", "d") and dec.right == ("c",)
    assert dec.leaf_map == {"b": ("a",), "d": ("e",)}
    assert dec.triangle_map == {"c": ()}


def test_decompose_g5():
    dec = decompose(from_edge_list(G5_EDGES))
    assert dec.support.edges == (("x", "y"),)
    assert dec.leaf_map == {"x": ("v",)}
    assert dec.triangle_map == {"y": (("w", "z"),)}
    assert (dec.n, dec.m, dec.m_prime, dec.f, dec.t) == (1, 1, 1, 1, 1)


def test_decompose_is_certified(monkeypatch):
    def refuse(g, dec):
        raise InvalidDecomposition("refused")

    monkeypatch.setattr(structure, "certify_cw", refuse)
    with pytest.raises(InvalidDecomposition, match="refused"):
        decompose(from_edge_list(G5_EDGES))


def test_decompose_agrees_with_classify():
    graphs = [build_cw(dec) for dec in cw_corpus()[:40]]
    graphs += [from_edge_list(STAR7_EDGES), star_triangle(1), from_edge_list([("a", "b")])]
    graphs += [Graph("abcd", [("a", "b"), ("c", "d")]), from_edge_list(P5_EDGES[:3])]
    for g in graphs:
        cls = classify(g)
        if cls.tag == TAG_CAMERON_WALKER:
            assert decompose(g) == cls.decomposition
        else:
            with pytest.raises(NotCameronWalker):
                decompose(g)


def test_decompose_rejects():
    with pytest.raises(NotCameronWalker):
        decompose(from_edge_list(STAR7_EDGES))
    with pytest.raises(NotCameronWalker):
        decompose(from_edge_list([("a", "b"), ("b", "c"), ("c", "d")]))  # P4


def test_leaf_on_triangle_side_rejected():
    # chair: P4 plus an extra leaf; a stripped leaf ends up on both sides
    chair = from_edge_list(P5_EDGES[:3] + [("b", "q")])
    assert classify(chair).tag == TAG_OTHER


def test_build_cw_g5():
    dec = random_cw(1, 1, 1, 1, 0.0, 0)
    g = build_cw(dec)
    assert g.vertex_count == 5
    assert g.edges == (
        ("w1_1+", "w1_1-"),
        ("w1_1+", "y1"),
        ("w1_1-", "y1"),
        ("x1", "y1"),
        ("x1", "z1_1"),
    )


def test_build_cw_eight_vertex():
    dec = random_cw(1, 2, 1, 1, 1.0, 3)
    g = build_cw(dec)
    assert dec.t_counts == (1, 1)
    assert g.vertex_count == 8


def test_round_trips():
    for dec in cw_corpus()[:80]:
        g = build_cw(dec)
        again = decompose(g)
        assert again == dec  # generator output is already canonical
        assert build_cw(again) == g


def test_round_trip_from_plain_labels():
    g5 = from_edge_list(G5_EDGES)
    dec = decompose(g5)
    rebuilt = build_cw(dec)
    # same graph after the decomposition's own relabelling
    cmap = dec.canonical_map()
    relabeled = Graph(
        [cmap[v] for v in g5.vertices],
        [(cmap[u], cmap[v]) for u, v in g5.edges],
    )
    assert relabeled == rebuilt
    canonical = type(dec)(
        Graph([cmap[v] for v in dec.support.vertices], [(cmap[u], cmap[v]) for u, v in dec.support.edges]),
        tuple(cmap[x] for x in dec.left),
        tuple(cmap[y] for y in dec.right),
        {cmap[x]: tuple(cmap[z] for z in zs) for x, zs in dec.leaf_map.items()},
        {cmap[y]: tuple((cmap[a], cmap[b]) for a, b in ps) for y, ps in dec.triangle_map.items()},
    )
    assert decompose(rebuilt) == canonical


def test_decomposition_json_round_trip():
    dec = random_cw(2, 2, 2, 1, 0.5, 9)
    payload = json.loads(dec.to_json())
    assert set(payload) == {"left", "right", "support_edges", "leaves", "triangles"}
    again = decomposition_from_json(dec.to_json())
    assert again == dec
    with pytest.raises(ParseError, match="invalid JSON"):
        decomposition_from_json("{not json")
    del payload["triangles"]
    with pytest.raises(ParseError, match="malformed decomposition JSON"):
        decomposition_from_json(json.dumps(payload))
    # A repeated left label would make n count x1 twice and let
    # certify_cw read m = im = 2 off the path y1 - x1 - z2_1 (truly 1).
    repeated = {
        "left": ["x1", "x1"],
        "right": ["y1"],
        "support_edges": [["x1", "y1"]],
        "leaves": {"x1": 1},
        "triangles": {"y1": 0},
    }
    with pytest.raises(InvalidDecomposition, match="repeats"):
        decomposition_from_json(json.dumps(repeated))
    # A count is a JSON integer >= 0: 1.7 and true used to read as 1,
    # -3 as 0.
    for kind, side, bad in [("leaves", "x1", 1.7), ("leaves", "x1", True), ("triangles", "y1", -3)]:
        malformed = {**repeated, "left": ["x1"], kind: {side: bad}}
        with pytest.raises(ParseError, match="malformed decomposition JSON"):
            decomposition_from_json(json.dumps(malformed))


def test_classification_soundness_on_family():
    from cwgraphs import induced_matching_number, matching_number

    for dec in cw_corpus():
        g = build_cw(dec)
        cls = classify(g)
        assert cls.tag == TAG_CAMERON_WALKER
        assert cls.decomposition == dec
        assert matching_number(g)[0] == induced_matching_number(g)[0] == dec.n + dec.t
    st = star_triangle(3)
    assert matching_number(st)[0] == induced_matching_number(st)[0]


def test_certificate_rejects_tampered_graph():
    dec = random_cw(1, 2, 1, 1, 1.0, 3)  # one leaf, a triangle on y1 and y2
    g = build_cw(dec)
    assert certify_cw(g, dec) == dec.n + dec.t == 3
    # a triangle vertex at y1 joined to the second right vertex: the edge
    # meets no left vertex and leaves the odd set of y1
    tampered = Graph(g.vertices, g.edges + (("w1_1+", "y2"),))
    with pytest.raises(InvalidDecomposition, match="odd-set cover"):
        certify_cw(tampered, dec)
    # a leaf joined to a triangle vertex bridges two matching edges
    bridged = Graph(g.vertices, g.edges + (("z1_1", "w1_1+"),))
    with pytest.raises(InvalidDecomposition, match="joins two matching edges"):
        certify_cw(bridged, dec)
    # a matching edge that g lacks
    torn = Graph(g.vertices, [e for e in g.edges if e != ("x1", "z1_1")])
    with pytest.raises(InvalidDecomposition, match="is not an edge"):
        certify_cw(torn, dec)


def test_attach_cliques():
    single = from_edge_list([], isolated=["a"])
    whisker = attach_cliques(CliqueAttachmentSpec(single, {"a": 2}))
    assert whisker.vertex_count == 2 and whisker.edge_count == 1

    c5 = Graph([f"c{i}" for i in range(5)], [(f"c{i}", f"c{(i + 1) % 5}") for i in range(5)])
    wc5 = attach_cliques(CliqueAttachmentSpec(c5, {v: 2 for v in c5.vertices}))
    assert wc5.vertex_count == 10

    edge = from_edge_list([("a", "b")])
    g = attach_cliques(CliqueAttachmentSpec(edge, {"a": 3, "b": 3}))
    assert g.vertex_count == 6
    assert len(g.pendant_triangles()) == 2

    # the spec checks itself when built
    with pytest.raises(InvalidSize):
        CliqueAttachmentSpec(edge, {"a": 1, "b": 2})
    with pytest.raises(InvalidSize):
        CliqueAttachmentSpec(edge, {"a": 2})


def test_whisker_partition():
    path = from_edge_list([("a", "b"), ("b", "c")])
    singletons = CliquePartition(path, (frozenset("a"), frozenset("b"), frozenset("c")))
    g = whisker_partition(singletons)
    assert g.vertex_count == 6 and g.edge_count == 5

    single = from_edge_list([], isolated=["a"])
    g2 = whisker_partition(CliquePartition(single, (frozenset("a"), frozenset())))
    assert g2.vertex_count == 3
    assert g2.degree("w2") == 0

    tri = from_edge_list([("a", "b"), ("b", "c"), ("a", "c")])
    k4 = whisker_partition(CliquePartition(tri, (frozenset("abc"),)))
    assert k4.vertex_count == 4 and k4.edge_count == 6

    # the partition checks itself when built
    with pytest.raises(NotAClique):
        CliquePartition(path, (frozenset("ac"), frozenset("b")))
    with pytest.raises(NotAPartition):
        CliquePartition(path, (frozenset("ab"),))


def test_random_cw_forced_cases():
    for seed in range(10):
        dec = random_cw(1, 1, 1, 1, 0.0, seed)
        assert dec.f_counts == (1,) and dec.t_counts == (1,)
        dec = random_cw(2, 1, 1, 0, 0.0, seed)
        assert dec.f_counts == (1, 1) and dec.t_counts == (0,)
        assert dec.support.edges == (("x1", "y1"), ("x2", "y1"))


def test_random_cw_deterministic():
    a = random_cw(3, 2, 2, 2, 0.4, 123)
    b = random_cw(3, 2, 2, 2, 0.4, 123)
    assert a == b
    c = random_cw(3, 2, 2, 2, 0.4, 124)
    assert a != c or build_cw(a) == build_cw(c)


def test_random_cw_invalid_params():
    with pytest.raises(InvalidParams):
        random_cw(0, 1, 1, 1, 0.0, 0)
    with pytest.raises(InvalidParams):
        random_cw(1, 1, 0, 1, 0.0, 0)
    with pytest.raises(InvalidParams):
        random_cw(1, 2, 1, 0, 0.0, 0)
    with pytest.raises(InvalidParams):
        random_cw(1, 1, 1, 1, 1.5, 0)


def test_validate_rejects_bad_decompositions():
    # a bad certificate cannot be built; validate stays callable
    dec = random_cw(2, 2, 1, 1, 0.0, 7)
    dec.validate()
    # support x1-y1-x2-y2, leaves z1_1 and z2_1, one triangle on each y
    support, tri = dec.support, dict(dec.triangle_map)
    bad = [
        ("both sides", {"right": (), "triangle_map": {}}),
        ("partition", {"left": ("x1",), "leaf_map": {"x1": ("z1_1",)}}),
        ("overlap", {"left": ("x1", "x2", "y1")}),
        ("repeats", {"left": ("x1", "x2", "x1")}),
        ("repeats", {"right": ("y1", "y2", "y2")}),
        ("not connected", {"support": Graph(support.vertices, support.edges[:1])}),
        ("inside one side", {"support": Graph(support.vertices, (*support.edges, ("x1", "x2")))}),
        ("leaf_map keys", {"leaf_map": {"x1": ("z1_1",)}}),
        ("triangle_map keys", {"triangle_map": {"y1": tri["y1"]}}),
        ("at least one leaf", {"leaf_map": {**dec.leaf_map, "x1": ()}}),
        ("triangle-bearing ones first", {"triangle_map": {"y1": (), "y2": tri["y2"]}}),
        ("fresh and distinct", {"leaf_map": {"x1": ("z1_1",), "x2": ("z1_1",)}}),
        ("fresh and distinct", {"leaf_map": {"x1": ("z1_1",), "x2": ("y2",)}}),
        ("fresh and distinct", {"triangle_map": {"y1": tri["y1"], "y2": tri["y1"]}}),
    ]
    fields = {name: getattr(dec, name) for name in type(dec).__slots__}
    for message, changes in bad:
        with pytest.raises(InvalidDecomposition, match=message):
            type(dec)(**{**fields, **changes})


def test_classify_result_stays_small():
    # A stored decomposition keeps its support's vertex and edge tuples
    # only; adjacency sets would roughly double the retained size.
    g = build_cw(random_cw(4, 4, 3, 3, 0.5, 0))
    classify(g)  # builds g's own adjacency, which the input keeps
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cls = classify(g)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert cls.tag == TAG_CAMERON_WALKER
    assert retained < 3072, f"one classify result retains {retained} bytes"
