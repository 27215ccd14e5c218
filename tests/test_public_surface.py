"""The names the package exports and the layers the benchmark traces."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cwgraphs

ROOT = Path(__file__).resolve().parent.parent

# Every name the package exported when all of its modules were imported
# eagerly; the lazily resolved ones must still work the same way.
EXPORTS = """
    CWDecomposition Classification CliqueAttachmentSpec CliquePartition
    FacetProvenance Graph InvariantReport MatchingStats OracleBudget ShellingOrder
    SimplicialComplex attach_cliques build_cw certify_cw classify cm_type_cw
    cw_cover_cardinalities cw_shelling cw_witness_covers decompose decomposition_from_json
    enumerate_labeled_graphs from_edge_list full_report g_prime independence_complex
    independence_domination_number induced_matching_number is_cm_cw is_gorenstein_cw
    is_unmixed is_vertex_decomposable
    is_vertex_decomposable_graph label_key matching_number matching_stats
    minimal_vertex_covers oracle_matchings oracle_max_independent_sets
    oracle_shelling_exists parse_edge_list parse_graph_json projective_dimension_cw
    random_cw regularity_cw verify_shelling whisker_partition
""".split()


def _fresh(probe: str, *argv: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", probe, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_exports_resolve_in_a_fresh_interpreter():
    # dir() is read before any lazy name is touched
    probe = (
        "import json, sys, cwgraphs\n"
        "listed = set(dir(cwgraphs))\n"
        "bad = []\n"
        "for name in sys.argv[1:]:\n"
        "    ns = {}\n"
        "    exec(f'from cwgraphs import {name}', ns)\n"
        "    if name not in listed or ns[name] is not getattr(cwgraphs, name) or not callable(ns[name]):\n"
        "        bad.append(name)\n"
        "print(json.dumps(bad))\n"
    )
    assert json.loads(_fresh(probe, *EXPORTS)) == []


def test_lazy_names_and_unknown_names():
    assert cwgraphs.oracle is sys.modules["cwgraphs.oracle"]
    assert cwgraphs.OracleBudget is cwgraphs.oracle.OracleBudget
    assert cwgraphs.ShellingOrder is cwgraphs.shelling.ShellingOrder
    assert cwgraphs.CliquePartition is cwgraphs.constructions.CliquePartition
    assert {"oracle", "shelling", "constructions", *EXPORTS} <= set(dir(cwgraphs))
    with pytest.raises(AttributeError, match="no_such_name"):
        cwgraphs.no_such_name
    with pytest.raises(ImportError):
        exec("from cwgraphs import no_such_name", {})


def test_api_that_nothing_reaches_is_gone():
    # the sort-key comparators, the link/deletion references and the
    # matching checkers live in the tests; recognition keeps its
    # two-colouring private, the shelling emits its families and sign
    # vectors in enumeration order without a sort key, and the oracle's
    # budgets raise SizeGuard like every other limit
    for name in (
        "sign_vector_less",
        "subset_less",
        "BipartitePartition",
        "Disconnected",
        "is_matching",
        "is_induced_matching",
    ):
        with pytest.raises(ImportError):
            exec(f"from cwgraphs import {name}", {})
    for name in ("Disconnected", "NotAnEdge", "BudgetExceeded"):
        assert not hasattr(cwgraphs.errors, name)
    for name in ("is_matching", "is_induced_matching", "_check_edges", "_disjoint"):
        assert not hasattr(cwgraphs.matchings, name)
    for name in ("two_coloring", "BipartitePartition", "canonical_edge"):
        assert not hasattr(cwgraphs.graph, name)
    for name in ("_subset_key", "_sign_vector_key"):
        assert not hasattr(cwgraphs.shelling, name)
    for name in ("link", "delete", "facet_support", "to_json"):
        assert not hasattr(cwgraphs.SimplicialComplex, name)
    with pytest.raises(TypeError):
        cwgraphs.SimplicialComplex([{"a"}], vertices={"a", "b"})
    # the components live in the tests too, since is_connected traverses once
    for name in ("bipartition", "delete", "__len__", "__iter__", "__contains__", "connected_components"):
        assert not hasattr(cwgraphs.Graph, name)
    g = cwgraphs.Graph(["a", "b"], [("a", "b")])
    with pytest.raises(TypeError):
        g.neighborhood("a", closed=True)


def test_traced_layers_are_loaded_by_the_cli_import():
    # bench/tracing.py wraps LAYERS[layer] in sys.modules[f"cwgraphs.{layer}"]
    # right after `import cwgraphs, cwgraphs.cli`
    probe = (
        "import json, sys, cwgraphs, cwgraphs.cli\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from tracing import LAYERS\n"
        "bad = []\n"
        "for layer, names in LAYERS.items():\n"
        "    mod = sys.modules.get(f'cwgraphs.{layer}')\n"
        "    bad += [f'{layer}.{n}' for n in names if not callable(getattr(mod, n, None))]\n"
        "print(json.dumps([len(LAYERS), bad]))\n"
    )
    count, bad = json.loads(_fresh(probe, str(ROOT / "bench")))
    assert count > 0 and bad == []


def test_no_assert_statements_in_the_package():
    # checks must survive python -O, so they raise instead
    found = []
    for path in sorted((ROOT / "src" / "cwgraphs").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_size_limits_are_constants_except_where_max_vertices_reaches():
    # No option reaches a search's size, so nothing is excepted: every
    # search reads its fixed cap, a module constant, when called, no
    # function takes a cap, and no second limit sits on top of the caps.
    takes_cap, defined = [], {}
    for path in sorted((ROOT / "src" / "cwgraphs").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                args = node.args
                names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
                if "cap" in names:
                    takes_cap.append(f"{path.name}:{node.lineno}")
        for node in tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    defined.setdefault(getattr(target, "id", None), []).append(path.name)
    assert takes_cap == []
    expected = {
        "COMPLEX_VERTEX_CAP": "complexes.py",
        "MATCHING_VERTEX_CAP": "matchings.py",
        "INDUCED_EDGE_CAP": "matchings.py",
        "SHELLING_FACET_CAP": "shelling.py",
        "GENERATOR_WORK_CAP": "constructions.py",
        "ORACLE_EDGE_CAP": "oracle.py",
        "ORACLE_FACET_CAP": "oracle.py",
        "ENUMERATION_VERTEX_CAP": "oracle.py",
        "PLUS": "shelling.py",
        "MINUS": "shelling.py",
    }
    for name, module in expected.items():
        assert defined[name] == [module], name
    assert "RECURSION_VERTEX_CEILING" not in defined
