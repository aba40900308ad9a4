"""Analysis toolkit for 3-uniform hypergraphs and Berge 4-cycles.

Provides the core hypergraph/shadow machinery, Berge cycle detection,
block decomposition, the 3-path / rare-4-cycle census, the exact
inequality chain with its edge-count bound, dense BC4-free constructions,
and exact extremal search at desk scale.

Importing the package loads none of its modules. Each public name below is
resolved on access from the module that defines it (PEP 562), and is not
cached here, so a name rebound in its module is seen through the package.
"""

import importlib

__version__ = "0.1.0"

# each public name, listed under the module that defines it
_NAMES = {
    "hypergraph": (
        "DegreeProfile", "Hypergraph", "HypergraphError", "ParseError", "count_three_paths",
        "degree_profile", "pair_to_edges", "shadow",
    ),
    "berge": ("Bc4FreeBuilder", "BergeCycleWitness", "find_berge_cycle", "is_bc4_free"),
    "blocks": ("Block", "BlockType", "block_degrees", "decompose"),
    "census": ("CensusReport", "FourCycleRecord"),
    "bounds": (
        "BoundReport", "EdgeBound", "HypothesisError", "InequalityCheck", "binom2", "check_inequality",
        "edge_ratio", "upper_bound", "verify_chain",
    ),
    "construct": (
        "BipartiteGraph", "expand_to_hypergraph", "is_c4_free", "lower_bound_construction",
        "projective_plane_incidence", "random_bc4free",
    ),
    "search": ("SearchResult", "branch_and_bound_ex", "brute_force_ex", "ex_table", "format_ex_table"),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(globals().keys() | _MODULE_OF.keys())
