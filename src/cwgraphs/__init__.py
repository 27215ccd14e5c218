"""Cameron-Walker graphs: recognition, decomposition, edge-ideal invariants.

The public surface re-exports the main types and operations of each
submodule; everything is pure and deterministic.
"""

from .complexes import (
    FacetProvenance,
    ShellingOrder,
    SimplicialComplex,
    cw_shelling,
    independence_complex,
    is_vertex_decomposable,
    is_vertex_decomposable_graph,
    sign_vector_less,
    subset_less,
    verify_shelling,
)
from .graph import (
    BipartitePartition,
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
    is_induced_matching,
    is_matching,
    matching_number,
    matching_stats,
)
from .oracle import (
    OracleBudget,
    enumerate_labeled_graphs,
    oracle_matchings,
    oracle_max_independent_sets,
    oracle_shelling_exists,
)
from .structure import (
    Classification,
    CliqueAttachmentSpec,
    CliquePartition,
    CWDecomposition,
    attach_cliques,
    build_cw,
    certify_cw,
    classify,
    decompose,
    decomposition_from_json,
    random_cw,
    whisker_partition,
)

__version__ = "0.1.0"
