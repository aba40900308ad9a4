"""Analysis toolkit for 3-uniform hypergraphs and Berge 4-cycles.

Provides the core hypergraph/shadow machinery, Berge cycle detection,
block decomposition, the 3-path / rare-4-cycle census, the exact
inequality chain with its edge-count bound, dense BC4-free constructions,
and exact extremal search at desk scale.
"""

from bergec4.hypergraph import (
    DegreeProfile,
    Hypergraph,
    HypergraphError,
    ParseError,
    count_three_paths,
    degree_profile,
    pair_to_edges,
    shadow,
)
from bergec4.berge import (
    Bc4FreeBuilder,
    BergeCycleWitness,
    find_berge_cycle,
    is_bc4_free,
)
from bergec4.blocks import (
    Block,
    BlockType,
    block_degrees,
    decompose,
)
from bergec4.census import (
    CensusReport,
    FourCycleRecord,
)
from bergec4.bounds import (
    BoundReport,
    EdgeBound,
    HypothesisError,
    InequalityCheck,
    binom2,
    check_inequality,
    edge_ratio,
    upper_bound,
    verify_chain,
)
from bergec4.construct import (
    BipartiteGraph,
    expand_to_hypergraph,
    is_c4_free,
    lower_bound_construction,
    projective_plane_incidence,
    random_bc4free,
)
from bergec4.search import (
    SearchResult,
    branch_and_bound_ex,
    brute_force_ex,
    ex_table,
    format_ex_table,
)

__version__ = "0.1.0"
