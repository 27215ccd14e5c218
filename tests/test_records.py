"""The package's record classes and the cost of importing the package."""

import copy
import gc
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from cwgraphs import (
    Classification,
    CliqueAttachmentSpec,
    CliquePartition,
    CWDecomposition,
    FacetProvenance,
    InvariantReport,
    MatchingStats,
    OracleBudget,
    ShellingOrder,
    build_cw,
    decompose,
    random_cw,
)
from corpus import cw_corpus, pendant_triangles
from cwgraphs.errors import InvalidDecomposition
from cwgraphs.graph import Graph

EDGE = Graph(("x1", "y1"), [("x1", "y1")])
DEC = CWDecomposition(EDGE, ("x1",), ("y1",), {"x1": ("z1_1",)}, {"y1": (("w+", "w-"),)})
SPEC = CliqueAttachmentSpec(EDGE, {"x1": 2, "y1": 3})
# two supports on x1, x2 | y1, y2: a path and K_{2,2}
XY = ("x1", "x2", "y1", "y2")
PATH = Graph(XY, [("x1", "y1"), ("x2", "y1"), ("x2", "y2")])
K22 = Graph(XY, [(x, y) for x in XY[:2] for y in XY[2:]])

# record class -> (positional field values, a different value for the
# first field); both must be valid, since some records check themselves
FROZEN = {
    MatchingStats: ((2, 1, (("a", "b"), ("c", "d")), (("a", "b"),)), 3),
    CWDecomposition: (
        (PATH, XY[:2], XY[2:], {"x1": ("z1_1",), "x2": ("z2_1",)}, {"y1": (), "y2": ()}),
        K22,
    ),
    Classification: (("Other", None, "im!=m"), "Star"),
    CliqueAttachmentSpec: ((EDGE, {"x1": 2, "y1": 3}), Graph(("x1", "y1"))),
    CliquePartition: ((EDGE, (frozenset({"x1"}), frozenset({"y1"}))), Graph(("x1", "y1"))),
    FacetProvenance: (("F", (1, 2), ("+", "-")), "G"),
    ShellingOrder: (((frozenset({"a"}),), (FacetProvenance("F", (), ()),)), ()),
    OracleBudget: ((16,), 17),
}
UNHASHABLE = {CWDecomposition, CliqueAttachmentSpec}
RECORDS = [*FROZEN, InvariantReport]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_fields_follow_the_constructor(cls):
    assert tuple(inspect.signature(cls).parameters) == cls._fields


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_frozen_record_behaviour(cls):
    values, other_first = FROZEN[cls]
    rec = cls(*values)
    same = cls(**dict(zip(cls._fields, values)))
    assert tuple(getattr(rec, name) for name in cls._fields) == values
    assert rec == same and not rec != same
    assert rec != cls(other_first, *values[1:])
    assert rec != values and rec != object()
    assert copy.copy(rec) == rec and pickle.loads(pickle.dumps(rec)) == rec
    assert copy.deepcopy(rec) == rec
    assert repr(rec).startswith(f"{cls.__name__}({cls._fields[0]}=")
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == hash(same) == hash(values)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert tuple(getattr(rec, name) for name in cls._fields) == values


def test_record_defaults():
    assert Classification("Star") == Classification("Star", None, None)
    with pytest.raises(TypeError):
        hash(Classification("CameronWalker", DEC))  # the decomposition holds maps
    assert OracleBudget() == OracleBudget(16)
    # a certificate needs both maps, and empty ones never validate
    with pytest.raises(TypeError):
        CWDecomposition(EDGE, ("x1",), ("y1",))
    with pytest.raises(InvalidDecomposition):
        CWDecomposition(EDGE, ("x1",), ("y1",), {}, {})


def test_maps_are_read_only_copies():
    for mapping in (DEC.leaf_map, DEC.triangle_map, SPEC.sizes):
        with pytest.raises(TypeError):
            mapping["x1"] = ()
    leaves, triangles, sizes = {"x1": ("z1_1",)}, {"y1": ()}, {"x1": 2, "y1": 2}
    dec = CWDecomposition(EDGE, ("x1",), ("y1",), leaves, triangles)
    spec = CliqueAttachmentSpec(EDGE, sizes)
    leaves["x1"] = ()
    triangles["y2"] = ()
    sizes["x1"] = 1
    assert dec.leaf_map == {"x1": ("z1_1",)} and dec.triangle_map == {"y1": ()}
    assert spec.sizes == {"x1": 2, "y1": 2}


# random_cw(3, 3, 3, 2, 0.5, seed) draws f_i >= 2 at every left vertex
# and t_j = 2 at some right vertex for these seeds
CW_SEEDS = (1, 2, 3, 9)


def _certificates(seed):
    dec = random_cw(3, 3, 3, 2, 0.5, seed)
    assert min(dec.f_counts) >= 2 and max(dec.t_counts) >= 2
    return dec, decompose(build_cw(dec))


@pytest.mark.parametrize("seed", CW_SEEDS)
def test_certificate_copies_and_views(seed):
    for dec in _certificates(seed):
        for twin in (pickle.loads(pickle.dumps(dec)), copy.copy(dec), copy.deepcopy(dec)):
            assert twin == dec and not twin != dec
            assert (twin.leaves, twin.triangles) == (dec.leaves, dec.triangles)
        assert repr(dec).startswith("CWDecomposition(support=")
        with pytest.raises(TypeError):
            hash(dec)
        assert dec.leaf_map == dict(zip(dec.left, dec.leaves))
        assert dec.triangle_map == dict(zip(dec.right, dec.triangles))
        with pytest.raises(TypeError):
            dec.leaf_map[dec.left[0]] = ()
        with pytest.raises(TypeError):
            dec.triangle_map[dec.right[0]] = ()


def test_certificate_repr_and_reduce_are_unchanged():
    # the fields are the constructor's parameters, whatever is stored
    assert repr(DEC) == (
        "CWDecomposition(support=Graph(2 vertices, 1 edges), left=('x1',), right=('y1',),"
        " leaf_map=mappingproxy({'x1': ('z1_1',)}), triangle_map=mappingproxy({'y1': (('w+', 'w-'),)}))"
    )
    cls, args = DEC.__reduce__()
    assert cls is CWDecomposition and list(map(type, args)) == [Graph, tuple, tuple, dict, dict]
    assert args == (EDGE, ("x1",), ("y1",), {"x1": ("z1_1",)}, {"y1": (("w+", "w-"),)})


@pytest.mark.parametrize("seed", CW_SEEDS)
def test_certificate_views_follow_their_definitions(seed):
    dec, read = _certificates(seed)
    g = build_cw(dec)
    # the reading of g: each left vertex's leaves and each right vertex's
    # pendant-triangle pairs, in label order, and the graph they leave
    leaves = tuple(tuple(z for z in g.leaves() if g.has_edge(x, z)) for x in read.left)
    triangles = tuple(
        tuple((a, b) for c, a, b in pendant_triangles(g) if c == y) for y in read.right
    )
    assert (read.leaves, read.triangles) == (leaves, triangles)
    assert read.support == g.induced_subgraph(read.left + read.right)
    for d in (dec, read):
        assert d.support == Graph(d.left + d.right, d.support_edges)
        assert d.f_counts == tuple(map(len, d.leaves)) and d.t_counts == tuple(map(len, d.triangles))
        assert d.leaf_map == dict(zip(d.left, d.leaves))
        assert d.triangle_map == dict(zip(d.right, d.triangles))
        assert (d.f, d.t) == (sum(d.f_counts), sum(d.t_counts))
        # each view is decoded from the labels, which hold every vertex
        # once, and a code of one byte per count, per vertex and per end
        # of a support edge, each value below the number of labels
        flat = (*(z for ls in d.leaves for z in ls), *(a for ps in d.triangles for p in ps for a in p))
        assert sorted(d.labels) == sorted((*d.left, *d.right, *flat))
        assert len(d.labels) == d.vertex_count()
        assert len(d.code) == 2 + d.n + d.m + len(d.labels) + 2 * len(d.support_edges)
        assert max(d.code) < len(d.labels)
    # the generator names its attachments by position
    assert dec.leaves == tuple(
        tuple(f"z{i}_{l}" for l in range(1, f + 1)) for i, f in enumerate(dec.f_counts, start=1)
    )
    assert dec.triangles == tuple(
        tuple((f"w{j}_{k}+", f"w{j}_{k}-") for k in range(1, t + 1))
        for j, t in enumerate(dec.t_counts, start=1)
    )


def test_leaf_label_that_repeats_a_right_label_is_refused():
    # the constructor checks its arguments before it codes them
    with pytest.raises(InvalidDecomposition) as err:
        CWDecomposition(EDGE, ("x1",), ("y1",), {"x1": ("y1",)}, {"y1": ()})
    assert str(err.value) == "attachment labels must be fresh and distinct"


def test_certificate_equality_compares_the_stored_tuples(monkeypatch):
    # == compares the decoded sides, attachments and support edges (or
    # the codes of two certificates over equal labels), so it builds no
    # support graph; on valid certificates that is the relation of the
    # fields that repr and pickling show
    dec = decompose(build_cw(random_cw(4, 4, 3, 3, 0.5, 0)))
    twin = pickle.loads(pickle.dumps(dec))
    built = []
    build = Graph._build
    monkeypatch.setattr(Graph, "_build", lambda g, *args: built.append(g) or build(g, *args))
    assert dec == twin and not dec != twin
    assert built == []
    monkeypatch.undo()
    # each certificate, and its reading from the built graph, an equal
    # certificate that is another object
    certs = [*cw_corpus(), *(decompose(build_cw(d)) for d in cw_corpus())]
    values = [c._values() for c in certs]
    for a, va in zip(certs, values):
        for b, vb in zip(certs, values):
            assert (a == b) == (va == vb)


@pytest.mark.parametrize("seed", CW_SEEDS)
def test_certificate_refers_to_no_dict(seed):
    # the support graph and the maps are built only when read, so a
    # stored certificate holds neither a dict nor a Graph; read off g,
    # its labels are g's own vertex tuple, not a copy
    g = build_cw(random_cw(3, 3, 3, 2, 0.5, seed))
    dec = decompose(g)
    assert dec.labels is g.vertices
    reached, stack = set(), [dec]
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if not isinstance(ref, type) and id(ref) not in reached:
                assert type(ref) is not dict and not isinstance(ref, Graph), ref
                reached.add(id(ref))
                stack.append(ref)


def test_invariant_report_is_mutable_and_unhashable():
    rep = InvariantReport()
    assert all(getattr(rep, name) is None for name in InvariantReport.__slots__[:13])
    assert rep.reasons == {} and rep.partial is False
    assert InvariantReport().reasons is not InvariantReport().reasons
    assert rep == InvariantReport()
    rep.m = 3
    rep.reasons["cm"] = "why"
    assert rep != InvariantReport()
    assert rep == InvariantReport(m=3, reasons={"cm": "why"})
    values = tuple(range(13)) + ({"a": "b"}, True)
    assert InvariantReport(*values) == InvariantReport(**dict(zip(InvariantReport.__slots__, values)))
    assert copy.deepcopy(rep) == rep
    with pytest.raises(TypeError):
        hash(rep)


def test_invariant_report_stores_cover_size_counts():
    rep = InvariantReport(cover_size_counts=((2, 3), (4, 1)))
    assert rep.cover_cardinalities == (2, 2, 2, 4)
    assert InvariantReport().cover_cardinalities is None
    assert "cover_size_counts=((2, 3), (4, 1))" in repr(rep)
    with pytest.raises(AttributeError):
        rep.cover_cardinalities = (2, 2, 2, 4)
    assert '"cover_cardinalities": [2, 2, 2, 4]' in rep.to_json()


def test_cli_import_loads_only_what_analyze_runs():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = "import sys, cwgraphs.cli; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    layers = {f"cwgraphs.{m}" for m in ("cli", "graph", "structure", "matchings", "complexes", "invariants")}
    assert layers <= loaded
    # no code generation, no argparse, and none of the modules that only
    # the shelling, generate and oracle commands run
    assert not loaded & {"dataclasses", "inspect", "typing", "argparse"}
    assert not loaded & {"cwgraphs.oracle", "cwgraphs.shelling", "cwgraphs.constructions"}
