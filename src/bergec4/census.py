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
  unless the path lies on a rare cycle. The codegrees are counted
  bit-parallel: the neighbourhoods are int bitsets, and for each low end x
  the values c(x, z) of all z > x sit bit-sliced in a few int planes, to
  which each neighbour's bitset is added by a ripple carry (the carry-save
  counter of Harley-Seal popcounts). Only the histogram of the values
  c(x, z) >= 1 is kept; the 3-path total, sum c^2 and the 4-cycle count are
  read off it.
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
  edges. A bucket p2e[xy] of b edges whose apexes (third vertices) are
  pairwise non-adjacent spans C(b, 2) K4-minus sets, b - 1 on each of its
  edges, and is counted in one step; every bucket of the constructions is
  of this kind.
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
- hist[0] = four_cycles - sum_{k >= 1} hist[k]. Only when it is positive
  does the census read find_berge_cycle's walk at length 4,
  berge._cycle_candidates(h, p2e, 4), to list the unrepresented cycles.

The BC4 verdict comes from the same classes. A 4-cycle is a Berge C4 iff its
four pairs have distinct representatives, so h is BC4-free iff no cycle of
any class has them. Edges outside S meet S in at most two vertices, so each
lies on at most one pair of a cycle on S; only an edge inside S can serve
two positions.

- k = 0: every candidate edge lies on one pair, so the four nonempty lists
  are disjoint, and the cycle is a Berge C4.
- k = 4: S carries K4^(3), and every cycle on S is a Berge C4.
- k = 1, edge e inside S and w the fourth vertex: the cycle is w, p, v, r
  with v the vertex of e opposite w, and it is a Berge C4 unless e is the
  only edge on both vp and vr (the sole-edge lemma of
  berge._cycle_candidates). Such a cycle exists iff w ~ p and w ~ r, and
  the k = 1 sets are the ones the census lists for rarity anyway.
- k = 2 with apexes c, d not adjacent (K4 minus cd, the edges {x, y, c} and
  {x, y, d}): the one cycle x, c, y, d is a Berge C4 iff c is flagged and
  d is flagged, where c is flagged when xc or yc lies on two or more edges.
  So a bucket p2e[xy] whose apexes are pairwise non-adjacent holds such a
  cycle iff two of them are flagged. A bucket with two adjacent apexes
  c ~ d and a third edge {x, y, g} needs no flags: x, c, d, y is a Berge C4
  on {x, y, c, d}, with {x, y, g} on yx and any edge on cd, which the K4
  rule below finds.
- k = 2 with c ~ d, and k = 3: S spans K4 in the shadow, and each of its
  three cycles is matched by berge._distinct_representatives.

So bc4_free needs no builder and no second pair index. is_bc4_free stays the
detector of check, verify and construct, and the tests hold the two equal.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import mul, or_

from bergec4.berge import _cycle_candidates, _distinct_representatives
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

    bc4_free is True iff h has no Berge C4, read off the census's 4-cycle
    classes (module docstring); it equals is_bc4_free(h). The four claims
    are "<=" InequalityChecks built by check_inequality, as in
    verify_chain; they are computed on every input, and their pass flags
    are only meaningful when bc4_free is True.
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
    """Pairs x < z counted by their number k of middles closing no hyperedge.

    Also returns, per edge index, the number of 4-cycles it represents, the
    3-path total sum c(x, z) and the 4-cycle count. The neighbourhoods are
    int bitsets, and each low end x holds the codegrees c(x, z) of all
    z > x bit-sliced in a short list of planes: bit z - x - 1 of planes[j]
    is bit j of c(x, z). Each neighbour y of x adds bits[y] >> (x + 1) by
    a ripple carry, and splitting the planes' union by each plane in turn
    gives the pairs at each value, one bit_count per group. Only the values
    are kept, in one histogram over all pairs: the 3-path total and sum c^2
    are read off it, and so is the open-middle histogram, once each shadow
    pair's c(x, z), the bit_count of bits[x] & bits[z], moves to
    c(x, z) - |p2e[xz]|. Its count at k = 0 leaves out the pairs with no
    common neighbour. Against a Counter of middles per low end, in-process
    on a 2-vCPU VM (best of 15, 5 and 1 runs), the pass went from 31 to
    13 ms on the q = 16 construction, 0.36-0.39 s to 0.13 s on q = 32 and
    6.8-7.0 s to 2.1-2.2 s on q = 64.
    """
    bits = [sum(1 << u for u in a) for a in adj]
    values: Counter[int] = Counter()  # c -> pairs x < z with c(x, z) = c >= 1
    for x, nx in enumerate(adj):
        shift = x + 1
        planes: list[int] = []
        for y in nx:
            carry = bits[y] >> shift
            j = 0  # an index of its own: enumerate measured slower here
            for plane in planes:
                planes[j] = plane ^ carry
                carry &= plane
                if not carry:
                    break
                j += 1
            else:
                if carry:
                    planes.append(carry)
        if not planes:
            continue
        groups = [(reduce(or_, planes), 0)]  # (mask of z, the c they share so far)
        for j, plane in enumerate(planes):
            split = []
            for mask, c in groups:
                if on := mask & plane:
                    split.append((on, c | 1 << j))
                if off := mask ^ on:
                    split.append((off, c))
            groups = split
        for mask, c in groups:
            values[c] += mask.bit_count()
    through = [0] * m  # per edge e: sum over pairs xy in e of c(x, y) - 1
    closed = []  # per shadow pair x < z: c(x, z)
    opened = []  # and its count of open middles, c(x, z) - |p2e[xz]|
    for (x, z), on_pair in p2e.items():
        c = (bits[x] & bits[z]).bit_count()
        for i in on_pair:
            through[i] += c - 1
        closed.append(c)
        opened.append(c - len(on_pair))
    total = sum(map(mul, values.keys(), values.values()))
    squares = sum(c * c * pairs for c, pairs in values.items())
    values.subtract(closed)
    values.update(opened)
    return values, through, total, (squares - total) // 4


def _is_berge(cycle: tuple[int, ...], p2e: dict[tuple[int, int], list[int]]) -> bool:
    """Do the cycle's consecutive pairs have distinct representative edges?"""
    pairs = zip(cycle, cycle[1:] + cycle[:1])
    return _distinct_representatives([p2e[(u, v) if u < v else (v, u)] for u, v in pairs]) is not None


def _represented_sets(
    h: Hypergraph, adj: Shadow, p2e: dict[tuple[int, int], list[int]], through: list[int]
) -> tuple[Counter[int], list[tuple[tuple[int, int, int, int], tuple[int, ...]]], bool]:
    """The histogram for k >= 1, and the 4-sets whose cycles may be rare, with their edges.

    Also returns whether no cycle with k = 1, 2 or 3 is a Berge C4, by the
    rules of the module docstring; the checks stop once one is found.
    """
    edges = h.edges
    histogram: Counter[int] = Counter()
    inside = [0] * len(edges)  # per edge: cycles on its 4-sets holding two or more edges
    candidates = []
    free = True

    def shared(u: int, v: int) -> bool:
        return len(p2e[(u, v) if u < v else (v, u)]) > 1

    for (x, y), on_pair in p2e.items():
        size = len(on_pair)
        if size < 2:
            continue
        thirds = [sum(edges[i]) - x - y for i in on_pair]
        apexes = set(thirds)
        if all(apexes.isdisjoint(adj[c]) for c in thirds):
            # every two edges of the bucket span a K4 minus cd, one cycle each
            histogram[2] += size * (size - 1) // 2
            for i in on_pair:
                inside[i] += size - 1
            if free:
                free = sum(1 for c in thirds if shared(x, c) or shared(y, c)) < 2
            continue
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
            if free and len(reps) < 4 and any(_is_berge(cycle, p2e) for cycle in _cycles_on(adj, quad)):
                free = False
    for i, (a, b, c) in enumerate(edges):
        ones = through[i] - inside[i]
        if not ones:
            continue
        histogram[1] += ones
        ab, ac, bc = shared(a, b), shared(a, c), shared(b, c)
        # the cycles w, p, v, r on e and w that are Berge C4s, by their ends
        # p, r: those with vp or vr on a second edge
        berge_ends = [ends for ends, yes in (((b, c), ab or ac), ((a, c), ab or bc), ((a, b), ac or bc)) if yes]
        for w in (adj[a] & adj[b] | adj[a] & adj[c] | adj[b] & adj[c]) - {a, b, c}:
            quad = tuple(sorted((a, b, c, w)))
            if len(reps := _representatives(h, quad)) == 1:
                candidates.append((quad, reps))
                if free and any(p in adj[w] and r in adj[w] for p, r in berge_ends):
                    free = False
    return histogram, candidates, free


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
    m = h.edge_count

    pair_hist, through, total, four_cycles = _codegree_pass(adj, p2e, m)
    if total != count_three_paths(adj):
        raise RuntimeError("3-path census disagrees with the degree identity")
    histogram, candidates, free = _represented_sets(h, adj, p2e, through)
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
    free = free and not histogram[0] and not histogram[4]
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
