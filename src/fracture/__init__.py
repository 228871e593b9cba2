"""Colorings of complete uniform hypergraphs that keep every color class
in many connected pieces, with exact bounds and exhaustive searches.

Two quantities drive everything: f, the minimum component count over the
nonempty color classes of a coloring (maximized over colorings), and z,
the largest fraction of vertices any single color touches (minimized
over colorings).  The package builds explicit colorings, proves two-sided
bounds with exact arithmetic, and settles small cases by search.
"""

from .core import (
    BipartiteShape,
    Coloring,
    ColorClassStats,
    FractureError,
    HypergraphShape,
    class_stats,
    coloring_from_dict,
    coloring_to_dict,
    edge_array,
    edge_ranks,
    f_value,
    fraction_str,
    report_dict,
    z_value,
)
from .designs import (
    Design,
    FiniteField,
    MatchingDecomposition,
    affine_plane,
    baranyai,
    boolean_sqs,
    disjoint_max_matchings,
    gf,
    hamiltonian_decomposition,
    inversive_plane,
    k4minus_decomposition,
    near_one_factorization,
    one_factorization,
    projective_plane,
)
from .constructions import (
    BaseColoring,
    base_registry,
    base_registry_names,
    bipartite_blow_up,
    bipartite_from_clique,
    bipartite_report_dict,
    blow_up,
    coloring_baranyai_split,
    coloring_equitable,
    coloring_n,
    coloring_nminus1,
    coloring_tk2,
    design_coloring,
    diamond_coloring,
    equitable_parts,
    trivial_coloring,
)
from .bounds import (
    BoundRecord,
    GrowthRateRow,
    RootValue,
    SqrtRate,
    decimal_ceil,
    decimal_floor,
    f_upper_best,
    f_upper_counting,
    f_upper_trivial,
    growth_rate_table,
    root_value,
    z_lower_best,
    z_lower_recursive,
    z_upper_constructions,
)
from .search import (
    ExhaustiveCheck,
    SearchBudgetError,
    SearchOptions,
    SearchResult,
    bulk_eval,
    exact_f,
    exact_z,
    verify_k_le_r,
)

__version__ = "0.1.0"
