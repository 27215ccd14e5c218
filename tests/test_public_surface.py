"""The names the package exports and the layers the benchmark traces."""

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
    BipartitePartition CWDecomposition Classification CliqueAttachmentSpec CliquePartition
    FacetProvenance Graph InvariantReport MatchingStats OracleBudget ShellingOrder
    SimplicialComplex attach_cliques build_cw certify_cw classify cm_type_cw
    cw_cover_cardinalities cw_shelling cw_witness_covers decompose decomposition_from_json
    enumerate_labeled_graphs from_edge_list full_report g_prime independence_complex
    independence_domination_number induced_matching_number is_cm_cw is_gorenstein_cw
    is_induced_matching is_matching is_unmixed is_vertex_decomposable
    is_vertex_decomposable_graph label_key matching_number matching_stats
    minimal_vertex_covers oracle_matchings oracle_max_independent_sets
    oracle_shelling_exists parse_edge_list parse_graph_json projective_dimension_cw
    random_cw regularity_cw sign_vector_less subset_less verify_shelling whisker_partition
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
