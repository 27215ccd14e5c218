"""Graph primitives: construction, neighbourhoods, bipartitions, attachments."""

import collections
import copy
import itertools
import pickle
import random
import sys

import pytest

from corpus import (
    G5_EDGES,
    STAR7_EDGES,
    TRICKY_LABELS,
    connected_components,
    cw_corpus,
    label_key_reference,
    pendant_triangles,
    random_graph,
)
from cwgraphs import (
    Graph,
    build_cw,
    from_edge_list,
    label_key,
    parse_edge_list,
    parse_graph_json,
    random_cw,
)
from cwgraphs.complexes import _adjacency_masks
from cwgraphs.oracle import enumerate_labeled_graphs
from cwgraphs.graph import sorted_labels
from cwgraphs.structure import _two_coloring
from cwgraphs.errors import (
    EmptyGraph,
    LoopEdge,
    ParseError,
    UnknownVertex,
)


def test_single_edge():
    g = from_edge_list([("a", "b")])
    assert g.vertices == ("a", "b")
    assert g.edges == (("a", "b"),)


def test_loop_rejected():
    with pytest.raises(LoopEdge):
        from_edge_list([("a", "a")])


def test_empty_rejected():
    with pytest.raises(EmptyGraph):
        from_edge_list([])


def test_duplicate_edges_collapse():
    g = from_edge_list([("a", "b"), ("b", "a"), ("a", "b")])
    assert g.edge_count == 1


def test_isolated_vertices():
    g = from_edge_list([("a", "b")], isolated=["q"])
    assert g.vertices == ("a", "b", "q")
    assert g.degree("q") == 0


def test_star_triangle_from_paper():
    g = from_edge_list(STAR7_EDGES)
    assert g.vertex_count == 7
    assert g.edge_count == 9
    assert g.neighborhood("1") == frozenset("234567")


def test_natural_label_order():
    assert label_key("x2") < label_key("x10")
    assert label_key("2") < label_key("10")
    g = Graph(["x10", "x2", "x1"], [])
    assert g.vertices == ("x1", "x2", "x10")


def test_non_ascii_digit_run_orders_by_value():
    # a digit run in any script compares by its integer value: the
    # Arabic-Indic three sits between x2 and x4
    assert sorted_labels(["x4", "x\u0663", "x2"]) == ("x2", "x\u0663", "x4")
    assert Graph(["x4", "x\u0663", "x2"], []).vertices == ("x2", "x\u0663", "x4")


def test_neighborhood_open_closed():
    g = from_edge_list([("a", "b"), ("b", "c")])
    assert g.neighborhood("b") == {"a", "c"}
    assert g.neighborhood("a") == {"b"}
    with pytest.raises(UnknownVertex):
        g.neighborhood("zz")


def test_neighborhood_closed_is_open_plus_self():
    # the closed neighbourhoods the independent-set searches run on
    rng = random.Random(1)
    for _ in range(25):
        g = random_graph(rng, 7, 0.4)
        adj, closed = _adjacency_masks(g)
        for i, v in enumerate(g.vertices):
            members = {w for j, w in enumerate(g.vertices) if adj[i] >> j & 1}
            assert members == g.neighborhood(v)
            assert closed[i] == adj[i] | 1 << i


def test_graph_equality():
    g = Graph(["b", "a"], [("b", "a")])
    assert g == from_edge_list([("a", "b")]) and hash(g) == hash(Graph(["a", "b"], [("a", "b")]))
    assert g != Graph(["a", "b"]) and g != g.vertices and g != (g.vertices, g.edges)


def test_induced_subgraph():
    tri = from_edge_list([("a", "b"), ("b", "c"), ("a", "c")])
    sub = tri.induced_subgraph({"a", "b"})
    assert sub.edges == (("a", "b"),)
    assert tri.induced_subgraph(tri.vertices) == tri
    with pytest.raises(UnknownVertex):
        tri.induced_subgraph({"a", "zz"})
    # a subgraph shares its parent's ranks, but pickles and copies
    # without them
    big = Graph([f"v{i}" for i in range(500)], [("v1", "v2")])
    sub = big.induced_subgraph({"v1", "v2"})
    assert len(pickle.dumps(sub)) < 200
    for twin in (pickle.loads(pickle.dumps(sub)), copy.copy(sub), copy.deepcopy(sub)):
        assert twin == sub and sorted(twin._rank) == ["v1", "v2"]


def test_induced_monotone():
    rng = random.Random(2)
    for _ in range(20):
        g = random_graph(rng, 7, 0.5)
        verts = list(g.vertices)
        b = set(rng.sample(verts, rng.randint(0, len(verts))))
        a = set(rng.sample(sorted(b), rng.randint(0, len(b)))) if b else set()
        assert set(g.induced_subgraph(a).edges) <= set(g.induced_subgraph(b).edges)


def test_delete_matches_star_triangle_example():
    g = from_edge_list(STAR7_EDGES)
    rest = g.induced_subgraph(v for v in g.vertices if v != "1")
    assert rest.edges == (("2", "3"), ("4", "5"), ("6", "7"))
    assert connected_components(rest) == (("2", "3"), ("4", "5"), ("6", "7"))


def test_connected_components():
    g = from_edge_list([("a", "b")])
    assert connected_components(g) == (("a", "b"),)
    g2 = from_edge_list([("a", "b"), ("c", "d")])
    assert connected_components(g2) == (("a", "b"), ("c", "d"))
    assert not g2.is_connected()


def test_is_connected_agrees_with_the_components():
    # one traversal from the first vertex against the sorted components
    labelled = list(enumerate_labeled_graphs(5))
    isolated = [
        Graph([]),
        Graph(["a"]),
        Graph(["a", "b"]),
        from_edge_list([("b", "c")], isolated=["a"]),
        from_edge_list([("a", "b")], isolated=["c"]),
        from_edge_list([("a", "b"), ("b", "c")], isolated=["b2"]),
    ]
    for g in (*labelled, *isolated):
        assert g.is_connected() == (len(connected_components(g)) <= 1), g.edges
    # 728 of the 1,024 labelled graphs on 5 vertices are connected
    assert sum(g.is_connected() for g in labelled) == 728
    assert [g.is_connected() for g in isolated] == [True, True, False, False, False, False]


def test_bipartition_single_edge():
    g = from_edge_list([("a", "b")])
    assert _two_coloring(g, list(g.vertices)) == (("a",), ("b",))


def test_bipartition_triangle_none():
    tri = from_edge_list([("a", "b"), ("b", "c"), ("a", "c")])
    assert _two_coloring(tri, list(tri.vertices)) is None


def test_bipartition_path():
    g = from_edge_list([("v1", "x1"), ("x1", "y1"), ("y1", "x2"), ("x2", "v2")])
    # each side keeps the order of the vertices passed in
    assert _two_coloring(g, list(g.vertices)) == (("v1", "v2", "y1"), ("x1", "x2"))


def test_bipartition_is_proper_coloring():
    rng = random.Random(3)
    for _ in range(40):
        g = random_graph(rng, 7, 0.3)
        if not g.is_connected():
            continue
        sides = _two_coloring(g, list(g.vertices))
        if sides is None:
            # None must mean an odd cycle: no 2-coloring at all works
            verts = g.vertices
            for code in range(1 << len(verts)):
                left = {verts[i] for i in range(len(verts)) if code & (1 << i)}
                if all((u in left) != (v in left) for u, v in g.edges):
                    raise AssertionError("_two_coloring missed a valid 2-coloring")
        else:
            left = set(sides[0])
            assert sides[0] == tuple(v for v in g.vertices if v in left)
            assert sides[1] == tuple(v for v in g.vertices if v not in left)
            for u, v in g.edges:
                assert (u in left) != (v in left)


def test_leaves_and_pendant_triangles():
    path = from_edge_list([("a", "b"), ("b", "c")])
    assert path.leaves() == ("a", "c")
    assert path.pendant_triangles() == ()

    star7 = from_edge_list(STAR7_EDGES)
    assert star7.leaves() == ()
    tris = star7.pendant_triangles()
    assert tris == (("1", "2", "3"), ("1", "4", "5"), ("1", "6", "7"))

    g5 = from_edge_list(G5_EDGES)
    assert g5.leaves() == ("v",)
    assert g5.pendant_triangles() == (("y", "w", "z"),)


def test_ranks_follow_the_label_order():
    # the kept ranks order the vertices as sorted_labels does, also in an
    # induced subgraph, which shares its parent's ranks
    labels = ["x\u0663", "x4", "x2", "x01", "x1", "x10", "a10b2", "a2b10", "a10b10", "b", "a", "\u00e9"]
    rng = random.Random(11)
    for _ in range(20):
        rng.shuffle(labels)
        edges = [p for p in itertools.combinations(labels, 2) if rng.random() < 0.3]
        g = Graph(labels, edges)
        keep = rng.sample(labels, rng.randint(0, len(labels)))
        for h in (g, g.induced_subgraph(keep), g.induced_subgraph(keep).induced_subgraph(keep[:3])):
            assert tuple(sorted(h.vertices, key=g._rank.__getitem__)) == sorted_labels(h.vertices)
            assert sorted_labels(h.vertices) == h.vertices
    g = Graph(labels)
    rank = g._rank
    assert rank["x\u0663"] < rank["x4"] and rank["x01"] < rank["x1"] < rank["x4"]
    assert rank["a"] < rank["a2b10"] < rank["a10b2"] < rank["a10b10"] < rank["b"]


def test_pendant_triangles_agree_with_the_reference():
    # every labelled graph on 5 vertices, and the corpus under a seeded
    # relabelling whose label order differs from the canonical one
    for g in enumerate_labeled_graphs(5):
        assert g.pendant_triangles() == pendant_triangles(g), g.edges
    rng = random.Random(23)
    names = ["x\u0663", "x4", "x01", "x1", "a10b2", "a2b10", "b", "\u00e9"]
    names += [f"v{i}" for i in range(40)]
    found = 0
    for dec in cw_corpus():
        g = build_cw(dec)
        rename = dict(zip(g.vertices, rng.sample(names, g.vertex_count)))
        h = Graph(rename.values(), [(rename[u], rename[v]) for u, v in g.edges])
        assert h.pendant_triangles() == pendant_triangles(h), h.edges
        found += len(h.pendant_triangles())
    assert found > 100


def test_pendant_triangles_disjoint_pairs():
    rng = random.Random(4)
    for _ in range(50):
        g = random_graph(rng, 8, 0.35)
        seen = set()
        for _, a, b in g.pendant_triangles():
            assert a not in seen and b not in seen
            seen.update((a, b))


def test_determinism():
    edges = list(G5_EDGES)
    g1 = from_edge_list(edges)
    random.Random(5).shuffle(edges)
    g2 = from_edge_list(edges)
    assert g1 == g2
    assert g1.to_json() == g2.to_json()


def test_parse_edge_list():
    text = "# comment\na b\nvertex q\n\nb c\n"
    g = parse_edge_list(text)
    assert g.vertices == ("a", "b", "c", "q")
    assert g.edge_count == 2


def test_parse_edge_list_errors():
    with pytest.raises(ParseError) as exc:
        parse_edge_list("a b c\n")
    assert exc.value.lineno == 1
    with pytest.raises(EmptyGraph):
        parse_edge_list("# nothing\n")
    with pytest.raises(ParseError, match="expected 'vertex <label>'") as exc:
        parse_edge_list("vertex a b\n")
    assert exc.value.lineno == 1


def test_parse_graph_json():
    g = parse_graph_json('{"vertices": ["a", "b", "c"], "edges": [["a", "b"]]}')
    assert g.vertices == ("a", "b", "c")
    assert g.edges == (("a", "b"),)
    with pytest.raises(ParseError):
        parse_graph_json("{not json")
    with pytest.raises(ParseError):
        parse_graph_json('{"vertices": []}')
    with pytest.raises(EmptyGraph):
        parse_graph_json('{"vertices": [], "edges": []}')


@pytest.mark.parametrize(
    "text",
    [
        '{"edges": [[1, 2]]}',  # labels that are not strings
        '{"edges": 5}',  # a field that is not a list
        '{"vertices": "ab", "edges": []}',
        '{"edges": [["a", "b", "c"]]}',
        '{"edges": [["a", ""]]}',  # the empty label
        '{"vertices": [""], "edges": []}',
    ],
)
def test_parse_graph_json_rejects_malformed_fields(text):
    with pytest.raises(ParseError):
        parse_graph_json(text)


@pytest.mark.parametrize(
    "pairs",
    [
        ["ab"],  # a two-character string would unpack as a pair
        [("a", "b", "c")],
        [("a",)],
    ],
)
def test_from_edge_list_rejects_malformed_pairs(pairs):
    with pytest.raises(ParseError, match="exactly two endpoints"):
        from_edge_list(pairs)


def test_construction_keys_each_vertex_once(monkeypatch):
    # label order is computed once per distinct vertex; duplicate and
    # reversed edges, and isolated vertices, add no key computations, and
    # build_cw, which names its labels in label order, computes none
    import cwgraphs.graph as graph_module

    calls = collections.Counter()

    def counting_key(label):
        calls[label] += 1
        return label_key(label)

    monkeypatch.setattr(graph_module, "label_key", counting_key)
    text = "x10 x2\nx2 x10\nx2 y1\nx10 x2\nvertex q01\ny1 q1\n"
    g = parse_edge_list(text)
    assert calls == collections.Counter(g.vertices)
    dec = random_cw(3, 4, 2, 2, 0.5, 7)
    calls.clear()
    built = build_cw(dec)
    assert built.vertex_count == dec.vertex_count() and not calls


@pytest.mark.parametrize(
    "label",
    [
        *TRICKY_LABELS,
        "x\u0663\u0664", "v\u0967\u0966", "\uff11\uff12x",  # Arabic-Indic, Devanagari, fullwidth
        "x\u00b2",  # a superscript two is not a decimal digit
        "007", "x0", "a000b01",  # leading zeros
        "12ab", "ab12", "1a2", "12", "3x4y5",  # leading or trailing runs
        "", "abc", "x-y_z",  # no digits
    ],
)
def test_label_key_follows_its_definition(label):
    assert label_key(label) == label_key_reference(label)


def test_overlong_digit_run_is_a_parse_error():
    # a digit run past Python's int-string limit cannot be ordered as an
    # integer; the label is named, shortened, in the error
    label = "a" + "1" * 5000
    with pytest.raises(ParseError, match=r"vertex label 'a1{19}'\.\.\. \(5001 characters\)"):
        parse_edge_list(f"{label} b\n")
    with pytest.raises(ParseError):
        Graph(["b", label], [])
    # the whole message, with the run in the middle of the label
    label = "x" + "9" * 4301 + "y"
    with pytest.raises(ParseError) as exc:
        parse_edge_list(f"a {label}\n")
    assert str(exc.value) == (
        "vertex label 'x9999999999999999999'... (4303 characters) has a digit run"
        f" too long to order; Python converts at most {sys.get_int_max_str_digits()} digits"
    )
