"""Classification, decomposition, constructions, and the generator."""

import collections
import gc
import hashlib
import itertools
import json
import pickle
import time
import tracemalloc

import pytest

from corpus import (
    G5_EDGES,
    P5_EDGES,
    STAR7_EDGES,
    complete_bipartite,
    complete_graph,
    cw_corpus,
    petersen,
    star_triangle,
)
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
    label_key,
    parse_edge_list,
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
    SizeGuard,
)
from cwgraphs import constructions, structure
from cwgraphs import graph as graph_module
from cwgraphs.structure import (
    TAG_CAMERON_WALKER,
    TAG_OTHER,
    TAG_STAR,
    TAG_STAR_TRIANGLE,
    Classification,
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


def test_classification_to_json_is_its_dict():
    for edges in (G5_EDGES, P5_EDGES, STAR7_EDGES, [("a", "b"), ("c", "d")]):
        cls = classify(from_edge_list(edges))
        assert cls.to_json() == json.dumps(cls.to_dict())
        assert json.loads(cls.to_json()) == cls.to_dict()


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


# One graph per way recognition can refuse, with the reason it gives.
REFUSALS = [
    (Graph("abcd", [("a", "b"), ("c", "d")]), "graph is disconnected"),
    (from_edge_list([("c", "a"), ("c", "b"), ("c", "d")]), "graph is a star"),
    (from_edge_list(STAR7_EDGES), "graph is a star triangle"),
    (complete_graph(4), "graph has no leaf, but every left vertex needs one"),
    # a leaf and a pendant triangle at one vertex: nothing else is left
    (
        from_edge_list([("c", "z"), ("c", "a"), ("c", "b"), ("a", "b")]),
        "support has fewer than two vertices after stripping",
    ),
    # a triangle with a leaf on each corner
    (
        from_edge_list([("a", "b"), ("b", "c"), ("a", "c"), ("a", "p"), ("b", "q"), ("c", "r")]),
        "support is not bipartite",
    ),
    # P4: each support vertex has a leaf, so neither side can be the right one
    (
        from_edge_list(P5_EDGES[:3]),
        "no side has a leaf on every vertex with triangles on the other",
    ),
]


def test_each_refusal_gives_its_own_reason():
    assert len({reason for _, reason in REFUSALS}) == len(REFUSALS)
    for g, reason in REFUSALS:
        with pytest.raises(NotCameronWalker) as info:
            decompose(g)
        assert str(info.value) == reason


def _recognition_inputs():
    """Every labelled graph on 1-6 vertices, then fixed families and the
    Cameron-Walker corpus, in a fixed order."""
    for n in range(1, 7):
        yield from enumerate_labeled_graphs(n)
    yield Graph([])
    yield Graph(["a"])
    yield Graph(["a", "b"], [("a", "b")])
    yield Graph(["a", "b"])
    for k in range(4, 19):
        verts = [f"c{i}" for i in range(k)]
        yield Graph(verts, [(verts[i], verts[(i + 1) % k]) for i in range(k)])
    for k in range(4, 9):
        yield complete_graph(k)
    for a in range(2, 5):
        for b in range(a, a + 3):
            yield complete_bipartite(a, b)
    yield petersen()
    for k in range(1, 17):
        yield Graph(["s"] + [f"s{i}" for i in range(k)], [("s", f"s{i}") for i in range(k)])
    for t in range(1, 9):
        yield star_triangle(t)
    for dec in cw_corpus():
        yield build_cw(dec)


def test_recognition_output_is_pinned():
    # one sha256 over the classification JSON of 34,225 graphs, taken
    # while connectivity was tested first and every connected graph that
    # was neither a star nor a star triangle went through the attachment
    # scan; the early rejections must not change a byte
    digest = hashlib.sha256()
    count = 0
    for g in _recognition_inputs():
        digest.update(classify(g).to_json().encode())
        digest.update(b"\n")
        count += 1
    assert count == 34225
    assert digest.hexdigest() == "fc0f49cfce926cea3281e8094217a155491a3df1dc76aa4aad42829db7cad2f7"


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


def test_build_cw_names_its_labels_in_label_order():
    # Graph sorts the labels itself; build_cw must already emit that order,
    # also where it differs from string order (x9 < x10, w1_9+ < w1_10+)
    decs = list(cw_corpus())
    decs += [random_cw(11, 10, 12, 12, 0.3, seed) for seed in range(3)]
    decs += [random_cw(1, 1, 1, 12, 0.0, 0)]
    assert max(dec.n for dec in decs) >= 10 and max(dec.m for dec in decs) >= 10
    assert max(t for dec in decs for t in dec.t_counts) >= 10
    assert max(f for dec in decs for f in dec.f_counts) >= 10
    for dec in decs:
        g = build_cw(dec)
        assert g == Graph(g.vertices, g.edges)


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


def test_certificate_of_an_induced_subgraph():
    # a subgraph shares its parent's ranks, which are positions among the
    # parent's vertices; its certificate refers to its own vertices
    g = build_cw(random_cw(2, 2, 2, 2, 0.5, 1))
    other = build_cw(random_cw(4, 4, 3, 3, 0.5, 0))
    name = {v: f"a{v}" for v in other.vertices}  # sorts before every label of g
    big = Graph(
        (*g.vertices, *name.values()),
        (*g.edges, *((name[u], name[v]) for u, v in other.edges), (g.vertices[0], name[other.vertices[0]])),
    )
    sub = big.induced_subgraph(g.vertices)
    alone = Graph(sub.vertices, sub.edges)
    # every position among big's vertices is past the end of sub's
    assert min(sub._rank[v] for v in sub.vertices) >= sub.vertex_count
    read = decompose(sub)
    assert read == decompose(alone) == decompose(g)
    assert repr(read) == repr(decompose(alone)) and read.to_json() == decompose(alone).to_json()
    assert read.labels is sub.vertices


def _one_edge_support(f: int, t: int):
    # x1-y1 with f leaves on x1 and t triangles on y1, named as build_cw names them
    return type(decompose(from_edge_list(G5_EDGES)))(
        Graph(("x1", "y1"), [("x1", "y1")]),
        ("x1",),
        ("y1",),
        {"x1": tuple(f"z1_{l}" for l in range(1, f + 1))},
        {"y1": tuple((f"w1_{k}+", f"w1_{k}-") for k in range(1, t + 1))},
    )


@pytest.mark.parametrize(
    "f, t, size", [(1, 126, 1), (2, 126, 2), (1, 32766, 2), (2, 32766, 4)], ids=lambda v: str(v)
)
def test_certificates_at_each_code_width(f, t, size):
    # 255, 256, 65,535 and 65,536 labels: one value per count, per
    # vertex and per support-edge end, each in the width the label count needs
    dec = _one_edge_support(f, t)
    assert len(dec.labels) == dec.vertex_count() == 2 + f + 2 * t
    assert len(dec.code) == (4 + f + 2 * t + 2 + 2) * size
    assert dec.to_json() == json.dumps(
        {"left": ["x1"], "right": ["y1"], "support_edges": [["x1", "y1"]], "leaves": {"x1": f}, "triangles": {"y1": t}}
    )
    assert dec.leaves == (tuple(f"z1_{l}" for l in range(1, f + 1)),)
    assert dec.triangles[0][-1] == (f"w1_{t}+", f"w1_{t}-") and dec.t_counts == (t,)
    g = build_cw(dec)
    assert g.vertex_count == 2 + f + 2 * t and g.edge_count == 1 + f + 3 * t
    read = decompose(g)
    assert read == dec and read.labels is g.vertices and len(read.code) == len(dec.code)
    assert build_cw(read) == g
    for d in (dec, read):
        twin = pickle.loads(pickle.dumps(d))
        assert twin == d and repr(twin) == repr(dec)


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
    # Sides are lists of nonempty strings and support edges lists of two:
    # a string side used to read as its characters, a string edge as its
    # two characters, and "" as a vertex label.
    shapes = {"right": ["y"], "support_edges": [["a", "y"], ["b", "y"]], "triangles": {"y": 1}}
    for malformed in [
        {**shapes, "left": "ab", "leaves": {"a": 1, "b": 1}},
        {**shapes, "left": ["x"], "support_edges": ["xy"], "leaves": {"x": 1}},
        {**shapes, "left": [""], "support_edges": [["", "y"]], "leaves": {"": 1}},
    ]:
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


def test_attach_cliques_renames_on_a_label_clash():
    # "a@1" is taken by a base vertex, so a's clique vertex becomes "a@1@"
    base = Graph(["a", "a@1"], [("a", "a@1")])
    g = attach_cliques(CliqueAttachmentSpec(base, {"a": 2, "a@1": 2}))
    assert set(g.vertices) == {"a", "a@1", "a@1@", "a@1@1"}
    assert g.neighborhood("a@1@") == {"a"} and g.neighborhood("a@1@1") == {"a@1"}


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


def test_whisker_partition_renames_on_a_label_clash():
    base = Graph(["w1", "b"], [("w1", "b")])
    g = whisker_partition(CliquePartition(base, (frozenset({"w1", "b"}),)))
    assert g.vertices == ("b", "w1", "w1@")
    assert g.neighborhood("w1@") == {"w1", "b"}


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


def test_generators_refuse_past_their_work_cap(monkeypatch):
    # refused before any draw or label, so 10**12 returns at once
    with pytest.raises(SizeGuard, match="cap is 60000"):
        random_cw(1, 1, 10**12, 1, 0.0, 0)
    with pytest.raises(SizeGuard, match="cap is 60000"):
        random_cw(10**6, 10**6, 1, 1, 0.0, 0)
    payload = {
        "left": ["x1"],
        "right": ["y1"],
        "support_edges": [["x1", "y1"]],
        "leaves": {"x1": 10**12},
        "triangles": {"y1": 1},
    }
    with pytest.raises(SizeGuard, match="cap is 60000"):
        decomposition_from_json(json.dumps(payload))
    with pytest.raises(SizeGuard, match="cap is 60000"):
        decomposition_from_json(json.dumps({**payload, "leaves": {"x1": 1}, "triangles": {"y1": 10**12}}))
    # exactly at the cap a draw is accepted, and unchanged:
    # n * m + n + m + n * max_f + 2 * m * max_t = 4 + 4 + 4 + 4
    dec = random_cw(2, 2, 2, 1, 0.5, 9)
    monkeypatch.setattr(constructions, "GENERATOR_WORK_CAP", 16)
    assert random_cw(2, 2, 2, 1, 0.5, 9) == dec
    with pytest.raises(SizeGuard, match="18 units of work"):
        random_cw(2, 2, 3, 1, 0.5, 9)
    # from JSON: support edges + n + m + f + 2t
    work = dec.support.edge_count + dec.n + dec.m + dec.f + 2 * dec.t
    monkeypatch.setattr(constructions, "GENERATOR_WORK_CAP", work)
    assert decomposition_from_json(dec.to_json()) == dec
    monkeypatch.setattr(constructions, "GENERATOR_WORK_CAP", work - 1)
    with pytest.raises(SizeGuard, match=f"{work} units of work"):
        decomposition_from_json(dec.to_json())


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
    fields = {name: getattr(dec, name) for name in type(dec)._fields}
    for message, changes in bad:
        with pytest.raises(InvalidDecomposition, match=message):
            type(dec)(**{**fields, **changes})


def _at_the_generator_cap():
    # 59,905 vertices: one left and one right vertex, 29,951 triangles
    return build_cw(random_cw(1, 1, 1, 29998, 0.0, 84))


def test_recognition_sorts_no_labels(monkeypatch):
    # Graph keeps the ranks it computed, so classify orders labels by rank:
    # no label_key call on a built, a parsed or a 59,905-vertex graph
    calls = collections.Counter()

    def counting_key(label):
        calls[label] += 1
        return label_key(label)

    monkeypatch.setattr(graph_module, "label_key", counting_key)
    built = build_cw(random_cw(4, 4, 3, 3, 0.5, 0))
    rename = {v: v.replace("_", "q").replace("+", "a").replace("-", "b") for v in built.vertices}
    calls.clear()  # random_cw builds its support with Graph
    parsed = parse_edge_list("".join(f"{rename[u]} {rename[v]}\n" for u, v in built.edges))
    assert calls and calls == collections.Counter(parsed.vertices)
    for g in (built, parsed, _at_the_generator_cap()):
        calls.clear()
        assert classify(g).tag == TAG_CAMERON_WALKER
        assert not calls, sum(calls.values())


def test_classify_at_the_generator_cap_is_fast():
    g = _at_the_generator_cap()
    assert g.vertex_count == 59905
    start = time.perf_counter()
    cls = classify(g)
    elapsed = time.perf_counter() - start
    assert cls.decomposition.t == 29951
    assert elapsed < 10, f"classify took {elapsed:.2f} s at 59,905 vertices"


def test_classify_result_stays_small():
    # A stored decomposition keeps g's own vertex tuple and one byte per
    # count, vertex and support-edge end: 200 bytes per result here on
    # CPython 3.11, 624 while it kept four tuples of labels and 1,112
    # while it kept a support graph and an aligned tuple per attachment
    # list.  The mean over 100 results spreads what a garbage-collector
    # hook of another library allocates during gc.collect().
    g = build_cw(random_cw(4, 4, 3, 3, 0.5, 0))
    classify(g)  # builds g's own adjacency, which the input keeps
    results = [None] * 100
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(len(results)):
            results[i] = classify(g)
        gc.collect()
        retained = (tracemalloc.get_traced_memory()[0] - before) / len(results)
    finally:
        tracemalloc.stop()
    assert all(cls.tag == TAG_CAMERON_WALKER for cls in results)
    assert retained <= 320, f"one classify result retains {retained} bytes"


def test_fixed_outcomes_are_shared():
    # Stars, star triangles, disconnected and leafless graphs get one of
    # four shared records, so storing their results costs no memory.
    graphs = [
        from_edge_list([("c", "a"), ("c", "b"), ("c", "d")]),
        star_triangle(3),
        Graph("abcd", [("a", "b"), ("c", "d")]),
        petersen(),
    ]
    expected = [
        Classification(TAG_STAR),
        Classification(TAG_STAR_TRIANGLE),
        Classification(TAG_OTHER, None, "disconnected"),
        Classification(TAG_OTHER, reason="im!=m"),
    ]
    for g in graphs:
        classify(g)  # builds g's own adjacency, which the input keeps
    results = [None] * 1000
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(len(results)):
            results[i] = classify(graphs[i % 4])
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1024, f"1,000 fixed classify results retain {retained} bytes"
    for i, cls in enumerate(results[:4]):
        assert cls == expected[i] and cls.to_json() == expected[i].to_json()
        assert pickle.loads(pickle.dumps(cls)) == expected[i]
        with pytest.raises(AttributeError):
            cls.tag = TAG_CAMERON_WALKER
        with pytest.raises(AttributeError):
            cls.reason = None
