"""Cameron-Walker graphs: recognition, decomposition, edge-ideal invariants.

The public surface re-exports the main types and operations of each
submodule; everything is pure and deterministic.  It holds what the
fast paths, the brute-force oracle and the command line use; the
set-level references that tests check them against (links and
deletions of a complex, the shelling orders as comparators) live in the
tests.

The modules that ``cwgraphs analyze`` needs are imported here; the
explicit shelling, the graph constructions and the brute-force oracle
are imported on first use of one of their names (PEP 562), so the
command line never compiles them.  ``cw_shelling`` and ``random_cw``
are the stand-ins that ``complexes`` and ``structure`` keep for those
two functions.
"""

from .complexes import (
    SimplicialComplex,
    cw_shelling,
    independence_complex,
    is_vertex_decomposable,
    is_vertex_decomposable_graph,
    verify_shelling,
)
from .graph import (
    Graph,
    from_edge_list,
    label_key,
    parse_edge_list,
    parse_graph_json,
)
from .invariants import (
    InvariantReport,
    cm_type_cw,
    cw_cover_cardinalities,
    cw_witness_covers,
    full_report,
    g_prime,
    independence_domination_number,
    is_cm_cw,
    is_gorenstein_cw,
    is_unmixed,
    minimal_vertex_covers,
    projective_dimension_cw,
    regularity_cw,
)
from .matchings import (
    MatchingStats,
    induced_matching_number,
    matching_number,
    matching_stats,
)
from .structure import (
    Classification,
    CWDecomposition,
    build_cw,
    certify_cw,
    classify,
    decompose,
    random_cw,
)

__version__ = "0.1.0"

# Lazily resolved name -> the submodule that defines it; a submodule's
# own name resolves to the submodule.
_LAZY = {
    **dict.fromkeys(
        ("shelling", "FacetProvenance", "ShellingOrder"),
        "shelling",
    ),
    **dict.fromkeys(
        (
            "constructions",
            "CliqueAttachmentSpec",
            "CliquePartition",
            "attach_cliques",
            "decomposition_from_json",
            "whisker_partition",
        ),
        "constructions",
    ),
    **dict.fromkeys(
        (
            "oracle",
            "OracleBudget",
            "enumerate_labeled_graphs",
            "oracle_matchings",
            "oracle_max_independent_sets",
            "oracle_shelling_exists",
        ),
        "oracle",
    ),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
        globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
