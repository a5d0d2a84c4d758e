"""Constructions and certified searches around Erdős–Rogers functions.

The package builds the sparse hypergraphs and blowup graphs used in
lower-bound constructions for f_{F,G}(n), runs the accompanying search
engines (independent sets, F-free subsets, dependent random choice,
sunflowers), and emits JSON certificates so every claimed property can be
re-audited from the artifact alone.
"""

from .blowup import (
    is_hom_free,
    random_blowup,
    square_clique_cover,
    theorem1_failure_bound,
)
from .certificates import Certificate, make_manifest, write_manifest
from .covers import Audit, CliqueCover
from .efr import (
    EFRInstance,
    density_floor,
    efr_certificate,
    efr_hypergraph,
    sphere_points,
)
from .errors import FormatError, InputError, SelfCheckError
from .graphs import (
    Graph,
    VertexSet,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    graph_from_text,
    graph_to_text,
    induced_subgraph,
    named_graph,
    path_graph,
    petersen_graph,
    read_graph,
    write_graph,
)
from .hypergraphs import (
    Hypergraph,
    find_loose_cycles,
    hypergraph_girth_at_least,
    hypergraph_is_linear,
    hypergraph_is_triangle_free,
    line_intersection_graph,
    read_hypergraph,
    vertex_clique_cover,
    write_hypergraph,
)
from .pipelines import (
    brute_force_f,
    ckfree_subset,
    clone_graph,
    gfree_graph_reps,
    ksfree_recursion,
    ramsey_witness_check,
    random_girth_hypergraph,
    theorem1_build,
    theorem4_part1_build,
    theorem4_part2_build,
)
from .rng import SeededRng
from .search import (
    ckprop_dense_pair,
    dependent_random_choice,
    erdos_rado_sunflower,
    greedy_independent_set,
    hypergraph_independence_violation,
    list_k_cycles,
    max_f_free_subset,
    max_independent_set,
    spencer_independent_set,
    validate_sunflower,
)
from .subgraph import contains_subgraph

__all__ = [
    "Audit",
    "Certificate",
    "CliqueCover",
    "EFRInstance",
    "FormatError",
    "Graph",
    "Hypergraph",
    "InputError",
    "SeededRng",
    "SelfCheckError",
    "VertexSet",
    "brute_force_f",
    "ckfree_subset",
    "ckprop_dense_pair",
    "clone_graph",
    "complete_bipartite",
    "complete_graph",
    "contains_subgraph",
    "cycle_graph",
    "density_floor",
    "dependent_random_choice",
    "efr_certificate",
    "efr_hypergraph",
    "erdos_rado_sunflower",
    "find_loose_cycles",
    "gfree_graph_reps",
    "graph_from_text",
    "graph_to_text",
    "greedy_independent_set",
    "hypergraph_girth_at_least",
    "hypergraph_independence_violation",
    "hypergraph_is_linear",
    "hypergraph_is_triangle_free",
    "induced_subgraph",
    "is_hom_free",
    "ksfree_recursion",
    "line_intersection_graph",
    "list_k_cycles",
    "make_manifest",
    "max_f_free_subset",
    "max_independent_set",
    "named_graph",
    "path_graph",
    "petersen_graph",
    "ramsey_witness_check",
    "random_blowup",
    "random_girth_hypergraph",
    "read_graph",
    "read_hypergraph",
    "spencer_independent_set",
    "sphere_points",
    "square_clique_cover",
    "theorem1_build",
    "theorem1_failure_bound",
    "theorem4_part1_build",
    "theorem4_part2_build",
    "validate_sunflower",
    "vertex_clique_cover",
    "write_graph",
    "write_hypergraph",
    "write_manifest",
]
