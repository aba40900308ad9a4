"""Census of shadow 3-paths, 4-cycles, representative edges, and rare cycles.

A hyperedge is representative of a shadow 4-cycle when its three vertices all
lie on the cycle. A 4-cycle is rare when no two hyperedges inside its vertex
set share one of its diagonal pairs; an alternative reading in which the two
hyperedges may reach outside the cycle is available behind diagonal_scope
("induced" is the default, "global" the alternative). A 3-path x1,x2,x3 is
good when its vertex set is not a hyperedge and no vertex x closes a rare
4-cycle x,x1,x2,x3.

The census sweeps the shadow 4-cycles once; the BC4 verdict comes from
is_bc4_free, the package's one production detector.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from bergec4.berge import _canonical_walks, is_bc4_free
from bergec4.blocks import block_degrees, decompose
from bergec4.bounds import InequalityCheck, check_inequality
from bergec4.hypergraph import (
    Hypergraph,
    ShadowGraph,
    count_three_paths,
    pair_to_edges,
    shadow,
)

_SCOPES = ("induced", "global")


@dataclass(frozen=True)
class FourCycleRecord:
    """One rare shadow 4-cycle in canonical cyclic order, with its representative edges."""

    vertices: tuple[int, int, int, int]
    representative_edges: tuple[int, ...]


@dataclass(frozen=True)
class CensusReport:
    """Counts and witnesses for the 3-path / 4-cycle census of one hypergraph.

    bc4_free is is_bc4_free(h). The four claims are "<=" InequalityChecks
    built by check_inequality, as in verify_chain; they are computed on every
    input, and their pass flags are only meaningful when bc4_free is True.
    rare_cycles are ordered by (v0, v1, v3, v2) of their canonical vertices.
    """

    n: int
    edge_count: int
    total_3paths: int
    good_3paths: int
    nongood_3paths: int
    rare_4cycles: int
    four_cycle_count: int
    representative_histogram: dict[int, int]
    per_pair_good: dict[tuple[int, int], int]
    rare_cycles: tuple[FourCycleRecord, ...]
    bc4_free: bool
    diagonal_scope: str
    per_pair_bound: InequalityCheck
    rare_bound: InequalityCheck
    good_bound: InequalityCheck
    nongood_bound: InequalityCheck

    def claims(self) -> tuple[InequalityCheck, ...]:
        return (self.per_pair_bound, self.rare_bound, self.good_bound, self.nongood_bound)


def _require_scope(scope: str) -> None:
    if scope not in _SCOPES:
        raise ValueError(f"diagonal scope must be one of {_SCOPES}, got {scope!r}")


def _validate_cycle(g: ShadowGraph, cycle: tuple[int, int, int, int]) -> None:
    if len(cycle) != 4 or len(set(cycle)) != 4:
        raise ValueError(f"{cycle} is not 4 distinct vertices")
    for v in cycle:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range [0, {g.n})")
    for i in range(4):
        if not g.has_edge(cycle[i], cycle[(i + 1) % 4]):
            raise ValueError(f"{cycle} is not a 4-cycle of the shadow")


def representative_edges(h: Hypergraph, cycle: tuple[int, int, int, int]) -> tuple[int, ...]:
    """Indices of hyperedges whose three vertices all lie on the cycle."""
    _validate_cycle(shadow(h), cycle)
    on_cycle = set(cycle)
    return tuple(i for i, e in enumerate(h.edges) if on_cycle.issuperset(e))


def _rare(
    h: Hypergraph,
    cycle: tuple[int, int, int, int],
    reps: tuple[int, ...],
    p2e: dict[tuple[int, int], list[int]],
    scope: str,
) -> bool:
    diagonals = (
        (min(cycle[0], cycle[2]), max(cycle[0], cycle[2])),
        (min(cycle[1], cycle[3]), max(cycle[1], cycle[3])),
    )
    for diag in diagonals:
        if scope == "induced":
            covering = [i for i in reps if diag[0] in h.edges[i] and diag[1] in h.edges[i]]
        else:
            covering = p2e.get(diag, [])
        if len(covering) >= 2:
            return False
    return True


def is_rare_cycle(h: Hypergraph, cycle: tuple[int, int, int, int], diagonal_scope: str = "induced") -> bool:
    """True iff no two hyperedges (per the scope) share a diagonal pair of the cycle."""
    _require_scope(diagonal_scope)
    return _rare(h, cycle, representative_edges(h, cycle), pair_to_edges(h), diagonal_scope)


def is_good_path(h: Hypergraph, x1: int, x2: int, x3: int, diagonal_scope: str = "induced") -> bool:
    """True iff {x1,x2,x3} is not a hyperedge and no x closes a rare cycle x,x1,x2,x3."""
    _require_scope(diagonal_scope)
    g = shadow(h)
    for v in (x1, x2, x3):
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range [0, {g.n})")
    if x1 == x3 or not (g.has_edge(x1, x2) and g.has_edge(x2, x3)):
        raise ValueError(f"({x1}, {x2}, {x3}) is not a 3-path of the shadow")
    if tuple(sorted((x1, x2, x3))) in h.edge_set:
        return False
    p2e = pair_to_edges(h)
    for x in sorted(g.adj[x1] & g.adj[x3]):
        if x in (x1, x2, x3):
            continue
        cycle = (x, x1, x2, x3)
        if _rare(h, cycle, representative_edges(h, cycle), p2e, diagonal_scope):
            return False
    return True


def census(h: Hypergraph, diagonal_scope: str = "induced") -> CensusReport:
    """Full 3-path and 4-cycle census with the four claims as InequalityChecks.

    3-paths are enumerated once each (unordered), 4-cycles once each up to
    rotation and reflection, recording only the rare ones; the 3-path total
    is cross-checked against the middle-vertex degree identity.
    """
    _require_scope(diagonal_scope)
    g = shadow(h)
    p2e = pair_to_edges(h)
    free = is_bc4_free(h)
    m = h.edge_count
    edge_index = {e: i for i, e in enumerate(h.edges)}

    rep_histogram: dict[int, int] = {}
    rare_records: list[FourCycleRecord] = []
    rare_paths: set[tuple[int, int, int]] = set()
    four_cycles = 0
    for cycle in _canonical_walks(g.adj, 4, True):
        four_cycles += 1
        reps = tuple(
            i
            for t in combinations(sorted(cycle), 3)
            if (i := edge_index.get(t)) is not None
        )
        k = len(reps)
        rep_histogram[k] = rep_histogram.get(k, 0) + 1
        if _rare(h, cycle, reps, p2e, diagonal_scope):
            rare_records.append(FourCycleRecord(cycle, reps))
            a, b, c, d = cycle
            for x1, x2, x3 in ((a, b, c), (b, c, d), (c, d, a), (d, a, b)):
                rare_paths.add((min(x1, x3), x2, max(x1, x3)))
    unrepresented = sum(c for k, c in rep_histogram.items() if not 1 <= k <= 3)
    if free and unrepresented:
        # a cycle with no representative edge would itself yield a Berge C4,
        # and four representative edges form a K4^(3), which contains one
        raise RuntimeError(
            f"{unrepresented} shadow 4-cycles have 0 or 4 representative edges"
            " in a BC4-free hypergraph"
        )
    rare_records.sort(key=lambda r: (r.vertices[0], r.vertices[1], r.vertices[3], r.vertices[2]))

    total = 0
    good = 0
    per_pair: dict[tuple[int, int], int] = {}
    for x2 in range(g.n):
        nbrs = g.neighbors(x2)
        for i, x1 in enumerate(nbrs):
            for x3 in nbrs[i + 1 :]:
                total += 1
                if tuple(sorted((x1, x2, x3))) in h.edge_set:
                    continue
                if (x1, x2, x3) in rare_paths:
                    continue
                good += 1
                per_pair[(x1, x3)] = per_pair.get((x1, x3), 0) + 1

    if total != count_three_paths(g):
        raise RuntimeError("3-path census disagrees with the degree identity")
    nongood = total - good
    rare_count = len(rare_records)

    db = block_degrees(h, decompose(h))
    good_rhs = 2 * (h.n * (h.n - 1) // 2) - 4 * sum(d * (d - 1) // 2 for d in db)
    max_per_pair = max(per_pair.values(), default=0)
    return CensusReport(
        n=h.n,
        edge_count=m,
        total_3paths=total,
        good_3paths=good,
        nongood_3paths=nongood,
        rare_4cycles=rare_count,
        four_cycle_count=four_cycles,
        representative_histogram=dict(sorted(rep_histogram.items())),
        per_pair_good=per_pair,
        rare_cycles=tuple(rare_records),
        bc4_free=free,
        diagonal_scope=diagonal_scope,
        per_pair_bound=check_inequality("good_paths_per_pair", max_per_pair, 2, "<="),
        rare_bound=check_inequality("rare_cycles", rare_count, 6 * m, "<="),
        good_bound=check_inequality("good_paths_total", good, good_rhs, "<="),
        nongood_bound=check_inequality("nongood_paths", nongood, 21 * m, "<="),
    )
