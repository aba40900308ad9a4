"""Census of shadow 3-paths, 4-cycles, representative edges, and rare cycles.

A hyperedge is representative of a shadow 4-cycle when its three vertices all
lie on the cycle. A 4-cycle is rare when no two hyperedges inside its vertex
set share one of its diagonal pairs; an alternative reading in which the two
hyperedges may reach outside the cycle is available behind diagonal_scope
("induced" is the default, "global" the alternative). A 3-path x1,x2,x3 is
good when its vertex set is not a hyperedge and no vertex x closes a rare
4-cycle x,x1,x2,x3.

The census counts rather than walks. Write c(x, z) = |N(x) & N(z)| for the
shadow codegree, S for the vertex set of a 4-cycle and k for its number of
representative edges; those are the hyperedges inside S, so k depends on S
alone.

- Codegree count. The 3-paths with ends x < z are the c(x, z) middles, so
  the shadow has (1/2) sum C(c(x, z), 2) 4-cycles, each met once from either
  diagonal. |p2e[xz]| of those middles close a hyperedge; the others are good
  unless the path lies on a rare cycle.
- Good-path histogram. The claims need each pair's good-path count only
  through pairs[k], the number of pairs with k good paths: the largest k
  and sum_k k pairs[k]. The codegree pass counts each pair's open middles,
  c(x, z) - |p2e[xz]|, into it. A pair that r non-edge paths on rare cycles
  touch has that count recomputed from adj and p2e and moves from k to
  k - r; pairs[0] is left out of the report.
- Shared-pair histogram. Two 3-subsets of a 4-set share exactly one pair, so
  an S holding the hyperedges {x,y,c} and {x,y,d} spans K4 or K4 minus cd in
  the shadow: 1 + 2[c ~ d] cycles, all with the same k >= 2. The pair loop
  meets S once per two of its edges and counts it from its two lowest-index
  edges.
- Rare classes. A cycle's diagonals are a perfect matching of S. With k = 2
  the diagonal {x, y} is covered twice, so only the other two cycles of a
  K4 set can be rare. With k >= 3 every perfect matching holds a pair
  covered twice, so no cycle is rare. A cycle with k = 1 is rare in the
  induced scope and checked in the global one.
- One-representative cycles. sum_k k hist[k] = sum over edges e of
  sum_{xy in e} (c(x, y) - 1): a fourth vertex next to two vertices of e
  closes one cycle on e, one next to all three closes three. Less the cycles
  of e's sets with k >= 2, that is e's count of k = 1 cycles, and only edges
  with a positive count are searched for them.
- hist[0] = four_cycles - sum_{k >= 1} hist[k]. A cycle without
  representatives is a Berge C4, so this is 0 on free inputs. Only when it is
  positive does the census read find_berge_cycle's walk at length 4,
  berge._cycle_candidates(h, p2e, 4), to list the unrepresented ones.

The BC4 verdict comes from is_bc4_free, the package's one production detector.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from operator import mul

from bergec4.berge import _cycle_candidates, is_bc4_free
from bergec4.blocks import block_degrees, decompose
from bergec4.bounds import InequalityCheck, check_inequality, good_paths_bound
from bergec4.hypergraph import Hypergraph, Shadow, count_three_paths, pair_to_edges, shadow

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
    per_pair_good_histogram maps k >= 1 to the number of pairs x1 < x3 with
    exactly k good 3-paths x1, x2, x3, sorted by k; per_pair_bound.lhs is
    its largest k (0 when empty) and sum_k k * pairs is good_3paths.
    """

    n: int
    edge_count: int
    total_3paths: int
    good_3paths: int
    nongood_3paths: int
    rare_4cycles: int
    four_cycle_count: int
    representative_histogram: dict[int, int]
    per_pair_good_histogram: dict[int, int]
    rare_cycles: tuple[FourCycleRecord, ...]
    bc4_free: bool
    diagonal_scope: str
    per_pair_bound: InequalityCheck
    rare_bound: InequalityCheck
    good_bound: InequalityCheck
    nongood_bound: InequalityCheck

    def claims(self) -> tuple[InequalityCheck, ...]:
        return (self.per_pair_bound, self.rare_bound, self.good_bound, self.nongood_bound)


def _representatives(h: Hypergraph, quad: tuple[int, int, int, int]) -> tuple[int, ...]:
    """Indices of the hyperedges inside the sorted 4-set quad, ascending."""
    # h.edges is sorted, so bisection finds each present triple's index
    return tuple(bisect_left(h.edges, t) for t in combinations(quad, 3) if t in h.edge_set)


def _rare(
    h: Hypergraph,
    cycle: tuple[int, ...],
    reps: tuple[int, ...],
    p2e: dict[tuple[int, int], list[int]],
    scope: str,
) -> bool:
    """No diagonal pair of the cycle lies in two edges: of reps (induced) or of h (global)."""
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


def _cycles_on(
    adj: tuple[frozenset[int], ...], quad: tuple[int, int, int, int]
) -> list[tuple[int, int, int, int]]:
    """The shadow 4-cycles on the sorted 4-set quad, canonical (v0 least, v1 < v3)."""
    v0, rest = quad[0], quad[1:]
    cycles = []
    for v2 in rest:
        v1, v3 = (v for v in rest if v != v2)
        if v1 in adj[v0] and v2 in adj[v1] and v3 in adj[v2] and v0 in adj[v3]:
            cycles.append((v0, v1, v2, v3))
    return cycles


def _codegree_pass(
    adj: Shadow, p2e: dict[tuple[int, int], list[int]], m: int
) -> tuple[Counter[int], list[int], int, int]:
    """Pairs x < z counted by their number k >= 1 of middles closing no hyperedge.

    Also returns, per edge index, the number of 4-cycles it represents, the
    3-path total sum c(x, z) and the 4-cycle count. Codegrees are counted one
    low end x at a time and only their values are kept, since the claims read
    the counts and never the pairs.
    """
    nbrs = [sorted(a) for a in adj]
    open_middles: Counter[int] = Counter()
    through = [0] * m  # per edge e: sum over pairs xy in e of c(x, y) - 1
    total = 0
    squares = 0
    for x, nx in enumerate(nbrs):
        codeg: Counter[int] = Counter()
        for y in nx:
            ny = nbrs[y]
            codeg.update(ny[bisect_right(ny, x) :])
        counts = codeg.values()
        total += sum(counts)
        squares += sum(map(mul, counts, counts))
        for z in nx[bisect_right(nx, x) :]:
            on_pair = p2e[(x, z)]
            c = codeg[z]
            for i in on_pair:
                through[i] += c - 1
            if c == len(on_pair):
                del codeg[z]
            else:
                codeg[z] = c - len(on_pair)
        open_middles.update(codeg.values())
    return open_middles, through, total, (squares - total) // 4


def _represented_sets(
    h: Hypergraph, adj: Shadow, p2e: dict[tuple[int, int], list[int]], through: list[int]
) -> tuple[Counter[int], list[tuple[tuple[int, int, int, int], tuple[int, ...]]]]:
    """The histogram for k >= 1, and the 4-sets whose cycles may be rare, with their edges."""
    edges = h.edges
    histogram: Counter[int] = Counter()
    inside = [0] * len(edges)  # per edge: cycles on its 4-sets holding two or more edges
    candidates = []
    for (x, y), on_pair in p2e.items():
        if len(on_pair) < 2:
            continue
        thirds = [sum(edges[i]) - x - y for i in on_pair]
        for (i, c), (j, d) in combinations(zip(on_pair, thirds), 2):
            if d not in adj[c]:
                # K4 minus cd: one cycle, its diagonal {x, y} covered twice
                histogram[2] += 1
                inside[i] += 1
                inside[j] += 1
                continue
            quad = tuple(sorted((x, y, c, d)))
            reps = _representatives(h, quad)
            if reps[:2] != (i, j):
                continue
            histogram[len(reps)] += 3
            for r in reps:
                inside[r] += 3
            if len(reps) == 2:
                candidates.append((quad, reps))
    for i, (a, b, c) in enumerate(edges):
        ones = through[i] - inside[i]
        if not ones:
            continue
        histogram[1] += ones
        for w in (adj[a] & adj[b] | adj[a] & adj[c] | adj[b] & adj[c]) - {a, b, c}:
            quad = tuple(sorted((a, b, c, w)))
            if len(reps := _representatives(h, quad)) == 1:
                candidates.append((quad, reps))
    return histogram, candidates


def census(h: Hypergraph, diagonal_scope: str = "induced") -> CensusReport:
    """Full 3-path and 4-cycle census with the four claims as InequalityChecks.

    Counts come from shadow codegrees and the shared-pair histogram (see the
    module docstring); only the cycles that can be rare are listed. The
    3-path total is cross-checked against the middle-vertex degree identity.
    """
    if diagonal_scope not in _SCOPES:
        raise ValueError(f"diagonal scope must be one of {_SCOPES}, got {diagonal_scope!r}")
    adj = shadow(h)
    p2e = pair_to_edges(h)
    free = is_bc4_free(h)
    m = h.edge_count

    pair_hist, through, total, four_cycles = _codegree_pass(adj, p2e, m)
    if total != count_three_paths(adj):
        raise RuntimeError("3-path census disagrees with the degree identity")
    histogram, candidates = _represented_sets(h, adj, p2e, through)
    rare_records = [
        FourCycleRecord(cycle, reps)
        for quad, reps in candidates
        for cycle in _cycles_on(adj, quad)
        if _rare(h, cycle, reps, p2e, diagonal_scope)
    ]
    histogram[0] = four_cycles - sum(histogram.values())
    if histogram[0]:
        # the walk skips only represented cycles, so it yields every unrepresented one
        for cycle, _ in _cycle_candidates(h, p2e, 4):
            if not _representatives(h, tuple(sorted(cycle))) and _rare(h, cycle, (), p2e, diagonal_scope):
                rare_records.append(FourCycleRecord(cycle, ()))
    unrepresented = histogram[0] + histogram[4]
    if free and unrepresented:
        # a cycle with no representative edge would itself yield a Berge C4,
        # and four representative edges form a K4^(3), which contains one
        raise RuntimeError(
            f"{unrepresented} shadow 4-cycles have 0 or 4 representative edges"
            " in a BC4-free hypergraph"
        )
    rare_records.sort(key=lambda r: (r.vertices[0], r.vertices[1], r.vertices[3], r.vertices[2]))

    # a non-edge 3-path on a rare cycle is not good, but pair_hist still
    # counts it: recompute each touched pair's count and move the pair down
    rare_paths = set()
    for a, b, c, d in (r.vertices for r in rare_records):
        for x1, x2, x3 in ((a, b, c), (b, c, d), (c, d, a), (d, a, b)):
            rare_paths.add((min(x1, x3), x2, max(x1, x3)))
    rare_open = Counter((p[0], p[2]) for p in rare_paths if tuple(sorted(p)) not in h.edge_set)
    for (x1, x3), r in rare_open.items():
        before = len(adj[x1] & adj[x3]) - len(p2e.get((x1, x3), ()))
        pair_hist[before] -= 1
        pair_hist[before - r] += 1
    good = total - 3 * m - rare_open.total()
    nongood = total - good
    rare_count = len(rare_records)

    good_hist = {k: pairs for k, pairs in sorted(pair_hist.items()) if k and pairs}

    good_rhs = good_paths_bound(h.n, block_degrees(h, decompose(h)))
    return CensusReport(
        n=h.n,
        edge_count=m,
        total_3paths=total,
        good_3paths=good,
        nongood_3paths=nongood,
        rare_4cycles=rare_count,
        four_cycle_count=four_cycles,
        representative_histogram={k: v for k, v in sorted(histogram.items()) if v},
        per_pair_good_histogram=good_hist,
        rare_cycles=tuple(rare_records),
        bc4_free=free,
        diagonal_scope=diagonal_scope,
        per_pair_bound=check_inequality("good_paths_per_pair", max(good_hist, default=0), 2, "<="),
        rare_bound=check_inequality("rare_cycles", rare_count, 6 * m, "<="),
        good_bound=check_inequality("good_paths_total", good, good_rhs, "<="),
        nongood_bound=check_inequality("nongood_paths", nongood, 21 * m, "<="),
    )
