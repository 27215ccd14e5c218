"""The package's record classes and the cost of importing the package."""

import copy
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from cwgraphs import (
    BipartitePartition,
    Classification,
    CliqueAttachmentSpec,
    CliquePartition,
    CWDecomposition,
    FacetProvenance,
    InvariantReport,
    MatchingStats,
    OracleBudget,
    ShellingOrder,
)
from cwgraphs.graph import Graph

EDGE = Graph(("x1", "y1"), [("x1", "y1")])
DEC = CWDecomposition(EDGE, ("x1",), ("y1",), {"x1": ("z1_1",)}, {"y1": (("w+", "w-"),)})

# record class -> (positional field values, a different value for the first field)
FROZEN = {
    BipartitePartition: ((("a",), ("b",)), ("c",)),
    MatchingStats: ((2, 1, (("a", "b"), ("c", "d")), (("a", "b"),)), 3),
    CWDecomposition: ((EDGE, ("x1",), ("y1",), {"x1": ("z1_1",)}, {"y1": ()}), Graph(("a",))),
    Classification: (("Other", None, "im!=m"), "Star"),
    CliqueAttachmentSpec: ((EDGE, {"x1": 2, "y1": 3}), Graph(("a",))),
    CliquePartition: ((EDGE, (frozenset({"x1", "y1"}),)), Graph(("a",))),
    FacetProvenance: (("F", (1, 2), ("+", "-")), "G"),
    ShellingOrder: (((frozenset({"a"}),), (FacetProvenance("F", (), ()),)), ()),
    OracleBudget: ((16, 20, 12), 17),
}
UNHASHABLE = {CWDecomposition, CliqueAttachmentSpec}
RECORDS = [*FROZEN, InvariantReport]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_fields_follow_the_constructor(cls):
    assert tuple(inspect.signature(cls).parameters) == cls.__slots__


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_frozen_record_behaviour(cls):
    values, other_first = FROZEN[cls]
    rec = cls(*values)
    same = cls(**dict(zip(cls.__slots__, values)))
    assert tuple(getattr(rec, name) for name in cls.__slots__) == values
    assert rec == same and not rec != same
    assert rec != cls(other_first, *values[1:])
    assert rec != values and rec != object()
    assert copy.copy(rec) == rec and pickle.loads(pickle.dumps(rec)) == rec
    assert repr(rec).startswith(f"{cls.__name__}({cls.__slots__[0]}=")
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == hash(same) == hash(values)
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert tuple(getattr(rec, name) for name in cls.__slots__) == values


def test_record_defaults():
    assert Classification("Star") == Classification("Star", None, None)
    with pytest.raises(TypeError):
        hash(Classification("CameronWalker", DEC))  # the decomposition holds dicts
    assert OracleBudget() == OracleBudget(16, 20, 12)
    assert OracleBudget(max_edges=21).max_edges == 21
    bare = CWDecomposition(EDGE, ("x1",), ("y1",))
    assert bare.leaf_map == {} and bare.triangle_map == {}
    assert bare.leaf_map is not CWDecomposition(EDGE, ("x1",), ("y1",)).leaf_map
    assert bare.leaf_map is not bare.triangle_map


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
