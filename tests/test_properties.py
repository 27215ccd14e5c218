"""Property tests: graph construction against a reference written here,
recognition and both matching searches against the brute-force matching
oracle, the independence
complex and both vertex-decomposability tests against the brute-force
independent-set oracle and each other, vertex decomposability against
the exhaustive shelling search, the complex-level test against its
definition on links and deletions, written here, on general complexes,
the theorems full_report relies on against the searches, and the
report's cover size counts against the complex and the oracle."""

import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, event, given, settings, strategies as st  # noqa: E402

from cwgraphs import (  # noqa: E402
    CWDecomposition,
    Graph,
    SimplicialComplex,
    build_cw,
    OracleBudget,
    classify,
    decompose,
    full_report,
    independence_complex,
    induced_matching_number,
    is_cm_cw,
    is_vertex_decomposable,
    is_vertex_decomposable_graph,
    label_key,
    matching_number,
    oracle_matchings,
    oracle_max_independent_sets,
    oracle_shelling_exists,
    random_cw,
)
from cwgraphs.complexes import COMPLEX_VERTEX_CAP  # noqa: E402
from cwgraphs.errors import LoopEdge, UnknownVertex  # noqa: E402
from cwgraphs.graph import sorted_labels  # noqa: E402
from cwgraphs.oracle import ORACLE_EDGE_CAP as MAX_EDGES, ORACLE_FACET_CAP as MAX_FACETS  # noqa: E402
from cwgraphs.structure import TAG_CAMERON_WALKER, TAG_OTHER  # noqa: E402
from corpus import (  # noqa: E402
    connected_components,
    is_induced_matching,
    is_matching,
    pendant_triangles,
    star_triangle,
)


# Labels with digit runs, leading zeros that tie numerically (x01, x1),
# non-ASCII letters and a non-ASCII digit, which also orders as an integer.
LABELS = st.one_of(
    st.sampled_from(["x1", "x01", "x001", "x2", "x10", "1", "01", "10", "y", "\u00e9"]),
    st.text(alphabet="x0129\u00e9\u0663_", min_size=1, max_size=5),
)


def reference_graph(vertices, edges):
    """Vertex and edge tuples by definition: labels sorted by label_key,
    each edge with its smaller endpoint first, edges sorted by the keys
    of their endpoints; duplicates and reversals collapse."""
    verts = tuple(sorted(set(vertices), key=label_key))
    canon = {(u, v) if label_key(u) < label_key(v) else (v, u) for u, v in edges}
    return verts, tuple(sorted(canon, key=lambda e: (label_key(e[0]), label_key(e[1]))))


def reference_error(vertices, edges):
    """The first bad edge decides: a loop before an unknown endpoint,
    the first endpoint before the second."""
    for u, v in edges:
        if u == v:
            return LoopEdge, f"loop edge at {u!r}"
        for w in (u, v):
            if w not in vertices:
                return UnknownVertex, f"edge endpoint {w!r} is not a declared vertex"
    return None


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_construction_matches_reference(data):
    vertices = data.draw(st.lists(LABELS, min_size=1, max_size=12))
    known = sorted(set(vertices))
    # edges between declared vertices, duplicated and reversed at will,
    # and sometimes a label that is not declared
    endpoint = st.sampled_from(known)
    if data.draw(st.booleans()):
        endpoint = st.one_of(endpoint, LABELS)
    edges = data.draw(st.lists(st.tuples(endpoint, endpoint), max_size=20))
    error = reference_error(set(vertices), edges)
    if error is None:
        g = Graph(vertices, edges)
        event("built")
        assert (g.vertices, g.edges) == reference_graph(vertices, edges)
    else:
        event(error[0].__name__)
        with pytest.raises(error[0]) as exc:
            Graph(vertices, edges)
        assert str(exc.value) == error[1]


@st.composite
def any_graph(draw):
    nv = draw(st.integers(7, 9))
    verts = [f"v{i}" for i in range(1, nv + 1)]
    pairs = list(itertools.combinations(verts, 2))
    return Graph(verts, draw(st.lists(st.sampled_from(pairs), unique=True, max_size=MAX_EDGES)))


@st.composite
def near_cameron_walker(draw):
    """A Cameron-Walker graph on 7-9 vertices with at most one vertex
    pair toggled, so recognition sees members and near misses alike."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    max_f, max_t = draw(st.integers(1, 2)), draw(st.integers(0, 1))
    assume(n > 1 or max_t > 0)
    dec = random_cw(n, m, max_f, max_t, draw(st.floats(0, 1)), draw(st.integers(0, 2**16)))
    assume(7 <= dec.vertex_count() <= 9)
    g = build_cw(dec)
    edges = set(g.edges)
    if draw(st.booleans()):
        edges ^= {draw(st.sampled_from(list(itertools.combinations(g.vertices, 2))))}
    assume(len(edges) <= MAX_EDGES)
    return Graph(g.vertices, edges)


@settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(st.one_of(any_graph(), near_cameron_walker()))
def test_classify_agrees_with_oracle(g):
    cls = classify(g)
    event(cls.tag)
    connected = g.is_connected()
    m, im = oracle_matchings(g) if connected else (None, None)
    assert (cls.tag != TAG_OTHER) == (connected and m == im)
    if cls.tag == TAG_CAMERON_WALKER:
        assert cls.decomposition.n + cls.decomposition.t == m


@st.composite
def labelled_graph(draw):
    """Up to 9 vertices named from LABELS, so that label order, and with
    it the canonical edge order, differs from string order."""
    verts = sorted(set(draw(st.lists(LABELS, min_size=1, max_size=9))))
    pairs = list(itertools.combinations(verts, 2))
    if not pairs:
        return Graph(verts, [])
    return Graph(verts, draw(st.lists(st.sampled_from(pairs), unique=True, max_size=MAX_EDGES)))


@settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(st.one_of(any_graph(), labelled_graph(), near_cameron_walker()))
def test_is_connected_agrees_with_the_components(g):
    assert g.is_connected() == (len(connected_components(g)) <= 1)


@settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(st.one_of(any_graph(), labelled_graph(), near_cameron_walker()))
def test_pendant_triangles_agree_with_the_reference(g):
    # the rank-ordered scan against one sorted by label_key
    assert g.pendant_triangles() == pendant_triangles(g)


@settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(st.one_of(any_graph(), labelled_graph(), near_cameron_walker()))
def test_matching_searches_agree_with_oracle(g):
    m, witness_m = matching_number(g)
    im, witness_im = induced_matching_number(g)
    assert (m, im) == oracle_matchings(g)
    assert len(witness_m) == m and is_matching(g, witness_m)
    assert len(witness_im) == im and is_induced_matching(g, witness_im)


@settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(st.one_of(any_graph(), near_cameron_walker()))
def test_complex_and_vd_tests_agree_with_oracle(g):
    cx = independence_complex(g)
    facets = tuple(tuple(sorted(f, key=label_key)) for f in cx.facets)
    assert facets == oracle_max_independent_sets(g)
    vd = is_vertex_decomposable_graph(g)[0]
    event(f"vertex decomposable: {vd}")
    assert vd == is_vertex_decomposable(cx)[0]


def link(cx, x):
    """The link of x: the facets through x, without x."""
    return SimplicialComplex(f - {x} for f in cx.facets if x in f)


def deletion(cx, x):
    """The deletion of x: the maximal faces without x."""
    return SimplicialComplex(f - {x} for f in cx.facets)


def test_link_and_delete():
    cx = independence_complex(build_cw(random_cw(1, 1, 1, 1, 0.0, 0)))
    assert set(link(cx, "x1").facets) == {frozenset({"w1_1+"}), frozenset({"w1_1-"})}
    # what x1's facets leave, w1_1+ and w1_1-, lies in facets without x1
    assert set(deletion(cx, "x1").facets) == {f for f in cx.facets if "x1" not in f}
    simplex = SimplicialComplex([{"a", "b"}])
    # the link of a simplex vertex is the simplex on the rest; so is its
    # deletion, and a vertex in no facet changes neither
    assert link(simplex, "a") == deletion(simplex, "a") == SimplicialComplex([{"b"}])
    assert deletion(simplex, "q") == simplex
    assert link(simplex, "q") == SimplicialComplex([])


def reference_vertex_decomposable(c):
    """The complex-level test by its definition, on link and deletion:
    shedding vertices tried in label order, first success wins."""
    memo = {}

    def rec(cx):
        if not cx.facets:
            return True, {"kind": "empty"}
        if len(cx.facets) == 1:
            return True, {"kind": "simplex"}
        if cx.facets not in memo:
            memo[cx.facets] = (False, None)
            for x in sorted(cx.vertices, key=label_key):
                deleted, linked = deletion(cx, x), link(cx, x)
                if any(any(d <= f for f in linked.facets) for d in deleted.facets):
                    continue
                ok1, w1 = rec(deleted)
                ok2, w2 = rec(linked) if ok1 else (False, None)
                if ok2:
                    memo[cx.facets] = (True, {"kind": "shed", "vertex": x, "deleted": w1, "link": w2})
                    break
        return memo[cx.facets]

    return rec(c)


# Seven labels whose label order differs from string order.
COMPLEX_LABELS = ["x1", "x01", "x2", "x10", "y", "\u00e9", "x\u0663"]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.lists(st.frozensets(st.sampled_from(COMPLEX_LABELS), max_size=4), max_size=8).map(
        SimplicialComplex
    )
)
def test_complex_vd_matches_the_reference(cx):
    ok, witness = is_vertex_decomposable(cx)
    event(f"vertex decomposable: {ok}")
    assert (ok, witness) == reference_vertex_decomposable(cx)


@settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(
    st.one_of(
        st.one_of(any_graph(), near_cameron_walker()).map(independence_complex),
        st.lists(
            st.frozensets(st.sampled_from("abcdefg"), min_size=1, max_size=4),
            min_size=2,
            max_size=MAX_FACETS,
        ).map(SimplicialComplex),
    )
)
def test_vertex_decomposable_implies_a_shelling(cx):
    # Vertex decomposable complexes are shellable, pure or not
    # (Bjorner-Wachs), so the exhaustive search must find an order.
    if len(cx.facets) > MAX_FACETS or not is_vertex_decomposable(cx)[0]:
        return
    event("vertex decomposable, " + ("pure" if cx.is_pure() else "non-pure"))
    assert oracle_shelling_exists(cx)[0]


@st.composite
def im_equals_m_graph(draw):
    """A Cameron-Walker graph within the complex cap with its
    decomposition, or a star or star triangle with None."""
    kind = draw(st.sampled_from(["cw", "cw", "star", "star triangle"]))
    if kind == "star":
        k = draw(st.integers(1, 12))
        return Graph([f"v{i}" for i in range(k + 1)], [("v0", f"v{i}") for i in range(1, k + 1)]), None
    if kind == "star triangle":
        return star_triangle(draw(st.integers(1, 6))), None
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    max_f, max_t = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    assume(n > 1 or max_t > 0)
    dec = random_cw(n, m, max_f, max_t, draw(st.floats(0, 1)), draw(st.integers(0, 2**16)))
    assume(dec.vertex_count() <= COMPLEX_VERTEX_CAP)
    return build_cw(dec), dec


@settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(im_equals_m_graph())
def test_full_report_theorems_agree_with_the_searches(case):
    # full_report takes vertex decomposability of the whole im = m family,
    # and unmixed = CM on Cameron-Walker graphs, from the theorems
    g, dec = case
    assert classify(g).tag != TAG_OTHER
    assert is_vertex_decomposable_graph(g)[0]
    if dec is not None:
        pure = independence_complex(g).is_pure()
        event(f"pure: {pure}")
        assert pure == is_cm_cw(dec)


@settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(st.one_of(any_graph(), near_cameron_walker(), im_equals_m_graph().map(lambda case: case[0])))
def test_report_counts_and_triangle_pairs(g):
    # cover_size_counts expands to the sorted cover sizes of the complex,
    # and of the brute-force facets within the oracle's vertex budget
    rep = full_report(g)
    sizes = tuple(sorted(g.vertex_count - len(f) for f in independence_complex(g).facets))
    assert rep.cover_cardinalities == sizes
    assert [s for s, _ in rep.cover_size_counts] == sorted(set(sizes))
    assert all(c > 0 for _, c in rep.cover_size_counts)
    if g.vertex_count <= OracleBudget().max_vertices:
        event("within the oracle budget")
        oracle = sorted(g.vertex_count - len(f) for f in oracle_max_independent_sets(g))
        assert rep.cover_cardinalities == tuple(oracle)
    # each triangle pair is an edge tuple of the graph, pairs in label order
    dec = classify(g).decomposition
    if dec is None:
        return
    event(f"{dec.t} triangles")
    edges = set(g.edges)
    for pairs in dec.triangles:
        assert edges.issuperset(pairs)
        keys = [(label_key(a), label_key(b)) for a, b in pairs]
        assert all(a < b for a, b in keys) and keys == sorted(keys)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_decompose_of_a_relabelled_graph_matches_the_sorted_reading(data):
    # decompose takes its sides and leaf lists in the order of g.vertices
    # and splits the right side stably; the reference sorts them here
    n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    max_f, max_t = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 2))
    assume(n > 1 or max_t > 0)
    dec = random_cw(n, m, max_f, max_t, data.draw(st.floats(0, 1)), data.draw(st.integers(0, 2**16)))
    g = build_cw(dec)
    nv = g.vertex_count
    labels = data.draw(st.lists(LABELS, min_size=nv, max_size=nv, unique=True))
    name = dict(zip(g.vertices, labels))
    h = Graph(labels, [(name[u], name[v]) for u, v in g.edges])
    event(f"label order moved: {tuple(name[v] for v in g.vertices) != h.vertices}")

    left = sorted_labels(name[x] for x in dec.left)
    bearing = {name[y] for y, pairs in zip(dec.right, dec.triangles) if pairs}
    right = tuple(
        sorted((name[y] for y in dec.right), key=lambda y: (y not in bearing, label_key(y)))
    )
    leaf_map = {
        name[x]: sorted_labels(name[z] for z in ls) for x, ls in zip(dec.left, dec.leaves)
    }
    triangle_map = {
        name[y]: tuple(
            sorted(
                (sorted_labels((name[a], name[b])) for a, b in pairs),
                key=lambda pair: tuple(map(label_key, pair)),
            )
        )
        for y, pairs in zip(dec.right, dec.triangles)
    }
    expected = CWDecomposition(h.induced_subgraph(left + right), left, right, leaf_map, triangle_map)
    assert decompose(h) == expected
