"""Exact symmetry-breaking invariants of small graphs.

The package computes the distinguishing number and its five relatives
(chromatic number, distinguishing chromatic number, distinguishing index,
distinguishing chromatic index, total distinguishing number) with certified
exhaustive search, builds line/endline/subdivision/middle graphs, constructs
explicit proper distinguishing colorings, and sweeps verification checks over
exhaustive corpora of small connected graphs.
"""

from .colorings import EdgeColoring, TotalColoring, VertexColoring
from .constructions import (
    ConstructionResult,
    endline_extension_coloring,
    exception_name,
    exceptional_endline_coloring,
    lift_total_to_subdivision,
    restrict_subdivision_to_total,
    subdivision_lift_coloring,
    subdivision_proper_distinguishing,
)
from .errors import (
    ContractError,
    DegenerateCaseError,
    GraphFormatError,
    MalformedInputError,
    ResourceCapError,
    SymbreakError,
)
from .graph_core import (
    Graph,
    NamedGraphSpec,
    VertexLabel,
    bipartition,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    from_edge_list,
    graph_from_name,
    is_connected,
    is_cycle_graph,
    is_irreducible,
    max_degree,
    named_graph,
    neighborhood,
    parse_graph6,
    path_graph,
    read_graph6_file,
    star_graph,
    to_graph6,
    write_graph6_file,
)
from .harness import (
    CHECKS,
    CorpusSpec,
    TheoremCheck,
    VerificationReport,
    emit_report,
    enumerate_corpus,
    report_exit_code,
    report_to_dict,
    run_check,
)
from .invariants import (
    INVARIANT_FUNCTIONS,
    InvariantValue,
    chromatic_number,
    clear_invariant_cache,
    distinguishing_chromatic_index,
    distinguishing_chromatic_number,
    distinguishing_index,
    distinguishing_number,
    is_distinguishing,
    is_proper,
    total_distinguishing_number,
)
from .symmetry import (
    AutGroup,
    Permutation,
    automorphism_group,
    canonical_form,
    canonical_labeling,
    compose,
    edge_action,
    edge_index_action,
    identity_permutation,
    invert,
    is_automorphism,
    is_isomorphic,
    is_isomorphism,
    lift_to_endline,
    lift_to_subdivision,
    permute_graph,
    preserves,
    stabilizer,
)
from .transforms import (
    endline_edges,
    endline_graph,
    line_graph,
    middle_graph,
    original_vertices,
    subdivision_graph,
)

__version__ = "0.1.0"
