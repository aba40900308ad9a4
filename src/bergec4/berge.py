"""Berge cycle detection via shadow walks and distinct representatives.

A Berge cycle of length L is L distinct vertices and L distinct hyperedges
with each consecutive vertex pair (cyclically) inside the corresponding
hyperedge. find_berge_cycle, the one entry point for every length, returns
the first Berge cycle of a length in a fixed canonical order of the
2-shadow's vertex cycles, with distinct representative hyperedges decided by
bipartite maximum matching, so the witness is reproducible. At length 4 the
verdict comes first, from is_bc4_free, and only a cycle-carrying input is
walked. Every length walks the one generator _cycle_candidates, which skips,
before any matching, the cycles on which two consecutive positions have the
same sole edge; from length 4 up that is the only two-position failure of
Hall's condition. The census lists its unrepresented 4-cycles from the same
walk at length 4. is_bc4_free, the verdict of check, construct and verify,
comes from Bc4FreeBuilder's pinned-edge check, which needs no cycle
enumeration and no generic matching; the census reads its own verdict off
the 4-cycle classes it counts. The builder keeps
each neighbourhood twice, as a list and as an int bitset: the list to iterate
the first inner vertex, the bitset to intersect two neighbourhoods in one
big-integer AND. The walk reads the shadow as bitsets the same way. The
bitsets assume small vertex ids, which Hypergraph.from_text bounds by
MAX_VERTICES.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from bergec4.hypergraph import (
    Edge,
    Hypergraph,
    Pair,
    canonical_edge,
    pair_to_edges,
    shadow,
)


@dataclass(frozen=True)
class BergeCycleWitness:
    """Cyclic vertex sequence plus, per position, the covering edge index."""

    vertices: tuple[int, ...]
    edge_indices: tuple[int, ...]


def _distinct_representatives(candidates: Sequence[Sequence[int]]) -> list[int] | None:
    """Assign a distinct edge index to each position, or None if impossible.

    Kuhn's augmenting-path matching; candidate lists are scanned in order,
    so the assignment is deterministic for sorted inputs. The augmenting
    search keeps an explicit stack, so a long cycle cannot exhaust the
    interpreter's recursion limit.
    """
    union: set[int] = set()
    for c in candidates:
        union.update(c)
    if len(union) < len(candidates):
        return None
    owner: dict[int, int] = {}
    for root in range(len(candidates)):
        blocked: set[int] = set()
        # one frame per position on the augmenting path: the position and its
        # scan of candidates; tried[i] is the edge that frame i is trying
        frames = [(root, iter(candidates[root]))]
        tried: list[int] = []
        while True:
            for e in frames[-1][1]:
                if e not in blocked:
                    blocked.add(e)
                    break
            else:
                frames.pop()
                if not frames:
                    return None
                tried.pop()
                continue
            tried.append(e)
            if e not in owner:
                for (pos, _), edge in zip(frames, tried):
                    owner[edge] = pos
                break
            frames.append((owner[e], iter(candidates[owner[e]])))
    out: list[int] = [-1] * len(candidates)
    for e, pos in owner.items():
        out[pos] = e
    return out


def find_berge_cycle(h: Hypergraph, length: int) -> BergeCycleWitness | None:
    """First Berge cycle of the given length under canonical enumeration.

    Returns None when none exists. A hypergraph with fewer than `length`
    edges or fewer than `length` vertices has no Berge cycle of that length.
    At length 4 the verdict is is_bc4_free's, taken before the pair index is
    built, so a free input returns None without a walk. One loop matches
    each cycle that _cycle_candidates yields, at every length, so the
    witness is the first Berge cycle in the canonical order, with the edges
    that _distinct_representatives assigns to it. A length-4 walk that finds
    nothing after is_bc4_free said "not free" raises RuntimeError rather
    than report a free input.
    """
    if length < 2:
        raise ValueError(f"cycle length must be >= 2, got {length}")
    if h.edge_count < length or h.n < length:
        return None
    if length == 4 and is_bc4_free(h):
        return None
    for cycle, cands in _cycle_candidates(h, pair_to_edges(h), length):
        assignment = _distinct_representatives(cands)
        if assignment is not None:
            return BergeCycleWitness(cycle, tuple(assignment))
    if length == 4:
        raise RuntimeError("is_bc4_free found a Berge C4 that the length-4 walk did not")
    return None


def _cycle_candidates(
    h: Hypergraph, p2e: dict[Pair, list[int]], k: int
) -> Iterator[tuple[tuple[int, ...], tuple[list[int], ...]]]:
    """The shadow cycles on k distinct vertices that may be Berge, each with its candidate lists.

    p2e is pair_to_edges(h). The cycles seq = (v0, v1, ..., w) come in
    lexicographic order: v0 is the least vertex and the reflection is fixed
    by v1 < w. Position i covers the pair seq[i] seq[i + 1], cyclically, and
    its candidate list is that pair's edge indices. k = 2 gives the pairs
    (a, b), a < b, that have two or more edges, in sorted order.

    Sole-edge rules: two positions with the same sole edge cannot both be
    represented, so the cycle fails Hall's condition on them. The walk
    drops, before any matching, the cycles on which two consecutive
    positions have the same sole edge, which then holds the three vertices
    of the two pairs:

    1. skip a middle vertex seq[d], 2 <= d <= k - 2, when positions d - 2
       and d - 1 have the same sole edge;
    2. build the closing set of w as bits[v0] above v1, less the third
       vertex t of v0v1's sole edge when that edge is also the only one on
       {v0, t} (positions k - 1 and 0); and skip w when positions k - 3 and
       k - 2, the two at seq[k - 2], have the same sole edge;
    3. skip w when positions k - 2 and k - 1, the two at w, have the same
       sole edge.

    For k >= 4 two positions that are not consecutive have disjoint
    candidate lists, since an edge on both pairs would hold four cycle
    vertices, so these rules drop exactly the cycles that fail Hall's
    condition on two positions. For k = 3 every two positions are
    consecutive, and each rule is still sound. A cycle that survives may
    still fail on more positions, so find_berge_cycle still matches each
    one it reads. On the q = 16 construction plus a point triple through
    point 91, matching every cycle refused about 20k 4-cycles before the
    witness; this walk yields one.

    Census lemma, k = 4: every dropped cycle has a representative edge,
    since the sole edge a rule names holds three cycle vertices and so
    lies inside the cycle's 4-set. So every shadow 4-cycle with no
    representative edge is yielded, which is what lets the census list
    those cycles from this walk.

    v0 and v1 are two plain loops; seq[2] .. seq[k - 2] are chosen on an
    explicit stack, so a long cycle cannot exhaust the interpreter's
    recursion limit. The last middle vertex seq[k - 2] (v1 itself at
    k = 3) is tested against the closing set, one big-integer AND, before
    its pair is looked up, so most candidates there cost one AND and no
    dict lookup.

    The neighbourhoods are int bitsets read off shadow(h), as in
    Bc4FreeBuilder, so they take up to n^2/8 bytes; each is also sorted
    once per walk into nbrs, which the walk iterates, at one list per
    vertex and a pointer per neighbour. At k = 4 find_berge_cycle builds
    them only after is_bc4_free has returned and its builder is released,
    so the peak stays near the builder's. census runs no builder but
    builds the same bitsets for its codegree pass and drops them when the
    pass returns, before it walks, which it does only when some 4-cycle
    has no representative edge. Traced peaks were 26.6 MB for
    find_berge_cycle(h, 4) against is_bc4_free's 25.5 MB on
    n = MAX_VERTICES with disjoint triples and a K4^(3) on the top four
    ids, and 2.0 MB for the whole walk, pair index included, against
    3.05 MB on the q = 16 construction. At every other length no builder
    runs, and the bitsets set the walk's peak: find_berge_cycle(h, 5) on
    MAX_VERTICES // 3 disjoint triples (2i, 2i+1, n-1-i) peaked at
    32.7 MB traced.
    """
    if k == 2:
        yield from ((pair, (es, es)) for pair, es in sorted(p2e.items()) if len(es) > 1)
        return
    edges = h.edges
    adj = shadow(h)
    bits = [sum(1 << u for u in a) for a in adj]
    nbrs = [sorted(a) for a in adj]
    last = k - 2  # the last middle vertex is seq[last]
    seq = [0] * k
    cands: list[list[int]] = [[]] * k
    # soles[i] is position i's sole edge, or -1; soles[k - 1] stays -1, so
    # rule 1 at k = 3, which reads soles[-1], never fires
    soles = [-1] * k
    in_use = [False] * len(adj)  # the vertices seq[1:d]
    for v0 in range(len(adj)):
        seq[0] = v0
        for v1 in nbrs[v0]:
            if v1 < v0:
                continue
            A = p2e[(v0, v1)]
            # w ranges over the common neighbours of v0 and seq[last] above v1
            close0 = bits[v0] >> (v1 + 1) << (v1 + 1)
            if len(A) == 1:
                t = sum(edges[A[0]]) - v0 - v1
                if len(p2e[(v0, t) if v0 < t else (t, v0)]) == 1:
                    close0 &= ~(1 << t)  # rule 2, positions wv0 and v0v1
            if not close0:
                continue
            # stack[-1] scans the candidates for seq[d]; at k = 3, seq[last] is v1
            if k == 3:
                d, stack = 1, [iter((v1,))]
            else:
                seq[1], cands[0], soles[0], in_use[v1] = v1, A, A[0] if len(A) == 1 else -1, True
                d, stack = 2, [iter(nbrs[v1])]
            while stack:
                u, closing = seq[d - 1], d == last
                for v in stack[-1]:
                    # at the last middle vertex the closing set decides before the pair index
                    if v <= v0 or closing and not (common := close0 & bits[v]) or in_use[v]:
                        continue
                    P = p2e[(u, v) if u < v else (v, u)]
                    s = P[0] if len(P) == 1 else -1
                    if s != -1 and s == soles[d - 2]:
                        continue  # rule 1
                    seq[d], cands[d - 1], soles[d - 1] = v, P, s
                    if not closing:
                        break
                    while common:
                        low = common & -common
                        common ^= low
                        w = low.bit_length() - 1
                        C = p2e[(v, w) if v < w else (w, v)]
                        D = p2e[(v0, w)]
                        if in_use[w] or len(C) == 1 and (C[0] == s or len(D) == 1 and C[0] == D[0]):
                            continue  # rules 2 and 3
                        seq[-1], cands[-2], cands[-1] = w, C, D
                        yield tuple(seq), tuple(cands)
                else:
                    stack.pop()
                    in_use[u] = False
                    d -= 1
                    continue
                in_use[v] = True
                stack.append(iter(nbrs[v]))
                d += 1


def is_bc4_free(h: Hypergraph) -> bool:
    """True iff the hypergraph has no Berge cycle of length 4.

    This is the incremental check of Bc4FreeBuilder: the edges are inserted
    one at a time and the first rejection decides, since a hypergraph is
    BC4-free iff every prefix insertion is accepted. It returns no witness;
    find_berge_cycle(h, 4) gives the canonical one.

    The edges go in through closing_pair and add, which trust their
    caller: a Hypergraph's edges are sorted triples a < b < c in [0, n), no
    two equal, so each is a valid triple that is not yet an edge of the
    builder when it goes in, which is all that try_add's validation
    establishes. The verdict is try_add's, edge for edge.
    """
    builder = Bc4FreeBuilder(h.n)
    closing_pair, add = builder.closing_pair, builder.add
    for e in h.edges:
        if closing_pair(e) is not None:
            return False
        add(e)
    return True


class Bc4FreeBuilder:
    """Edge set grown one triple at a time while staying BC4-free.

    Removal is last-in-first-out, which is exactly what a depth-first search
    needs.

    Pinned-edge lemma: if the current edges carry no Berge C4, then a Berge
    C4 of the edges plus a new triple e must assign e to one of its
    positions, and the consecutive cycle vertices x, y there are a pair of
    e. The other three positions form a Berge 3-path y -> w -> z -> x over
    the existing edges, on vertices distinct from x and y. So try_add scans,
    for each of the three pairs {x, y} of e, every w in adj[y] - {x} and z in
    (adj[x] & adj[w]) - {y}; one orientation per pair suffices, since the
    other one only swaps w and z.

    Three-position Hall condition: the candidate lists A, B, C (edges on
    yw, wz and zx) are nonempty, so distinct representatives exist iff no
    two of them are the same single edge and |A | B | C| >= 3. A and C are
    disjoint, since no triple holds all four cycle vertices, so this is
    equivalent to: some b in B differs from the only edge of A when |A| = 1
    and from the only edge of C when |C| = 1 (then a in A - {b} and
    c in C - {b} exist and differ). A candidate is rejected before anything
    is mutated; only a kept edge is added.

    try_add(triple) is the only method that validates: it raises
    ValueError unless the triple is 3 distinct int vertex ids in [0, n)
    that are not already an edge, then asks closing_pair and adds a kept
    triple. The others trust their caller and check nothing: closes(x, y)
    is the verdict on one pair; closing_pair(e) names the first pair of a
    sorted new triple e that closes a C4, or None; add(e) adds a sorted new
    triple that closes none; pop removes the last edge. Callers:
    - random_bc4free asks closing_pair and adds a triple it passes. It only
      adds edges, so it remembers each closing pair as one byte of a 64 KiB
      bytearray indexed by x << 8 | y and skips later triples through it;
    - the search's greedy seed (search._greedy) keeps the same memo as a
      set of pairs; it asks try_add, and closing_pair for the pair to
      remember when try_add rejects;
    - the search's candidate filter asks closes once per vertex pair that
      still has a candidate, and drops every candidate through a pair that
      closes; it pins the two root edges and includes a candidate with add,
      and removes it with pop;
    - is_bc4_free asks closing_pair and then add.
    The dead-pair memos live in the callers, not here: a builder-wide
    dead-pair set, cleared on pop, slowed branch_and_bound_ex(8) from
    0.11-0.12 to 0.14-0.16 s and is_bc4_free on the q = 16 construction
    from 0.046-0.057 to 0.064-0.065 s (2-vCPU VM).

    Neighbourhoods are kept twice: _adj[v] as a list and _bits[v] as an int
    with bit u set iff {u, v} is a shadow pair, both updated where a pair's
    edge bucket is created or deleted, so each list holds each neighbour
    once. The scan walks w over the list, which is cheaper than peeling bits
    from an int, and finds the z candidates as the bitset _bits[x] & _bits[w],
    which is usually 0 and then skips w without a set allocation. Dropping
    either representation measured slower on a 2-vCPU VM: bits alone (w
    peeled from _bits[y]) took is_bc4_free on the q=16 construction from
    0.036 s to 0.063 s, and sets alone, with an isdisjoint pre-test, to
    0.093 s. Lists in place of sets took it from 28.3-28.5 ms to
    21.1-22.0 ms, and ex_table(8) from 12.8-13.5 ms to 10.6 ms (best of 25
    and of 9, one process, same VM). Every caller but the search only
    appends; pop's list.remove is O(deg), and a search degree is at most
    SEARCH_MAX_N - 1 = 12. No verdict and no closing_pair answer depends
    on the order of a list.

    The bitsets pay off for small vertex ids, not for few edges: an int
    whose top bit is u takes about u/30 machine words, so every AND costs
    O(n) and the bitsets take up to n^2/8 bytes, where a set intersection
    costs O(min degree). Against sets alone, is_bc4_free on the q = 27, 49
    and 64 constructions (n = 2,271, 7,353, 12,483) went from 1.16, 17.9
    and 57.3 s to 0.27, 3.7 and 15.0 s; on n // 3 disjoint triples
    (2i, 2i+1, n-1-i) it went from 0.017 s / 28 MB to 0.052 s / 52 MB peak
    at n = 16,384 and from 0.21 s / 73 MB to 1.8 s / 967 MB at n = 100,000,
    which is why Hypergraph.from_text refuses n above MAX_VERTICES.
    """

    def __init__(self, n: int):
        self.n = n
        self.edges: list[Edge] = []
        self._adj: list[list[int]] = [[] for _ in range(n)]
        self._bits: list[int] = [0] * n
        self._pair_edges: dict[Pair, list[int]] = {}

    def __len__(self) -> int:
        return len(self.edges)

    def add(self, e: Edge) -> None:
        """Add e, a sorted triple in range that is not an edge and closes no Berge C4.

        Nothing is checked: a caller that passes anything else leaves the
        builder in a state whose verdicts mean nothing.
        """
        idx = len(self.edges)
        self.edges.append(e)
        a, b, c = e
        p2e, adj, bits = self._pair_edges, self._adj, self._bits
        for u, v in ((a, b), (a, c), (b, c)):
            bucket = p2e.get((u, v))
            if bucket is None:
                p2e[(u, v)] = [idx]
                adj[u].append(v)
                adj[v].append(u)
                bits[u] |= 1 << v
                bits[v] |= 1 << u
            else:
                bucket.append(idx)

    def pop(self) -> None:
        """Remove the most recently added edge."""
        e = self.edges.pop()
        idx = len(self.edges)
        a, b, c = e
        for p in ((a, b), (a, c), (b, c)):
            bucket = self._pair_edges[p]
            if bucket[-1] != idx:
                raise RuntimeError(f"pair {p} does not end with edge {idx}: pop out of order")
            bucket.pop()
            if not bucket:
                del self._pair_edges[p]
                u, v = p
                self._adj[u].remove(v)
                self._adj[v].remove(u)
                self._bits[u] &= ~(1 << v)
                self._bits[v] &= ~(1 << u)

    def closes(self, x: int, y: int) -> bool:
        """Is there a Berge 3-path y -> w -> z -> x over the current edges?

        Then a new edge through the pair {x, y} closes a Berge C4, whatever
        its third vertex. x and y must be distinct vertex ids in [0, n);
        nothing is checked.
        """
        bits = self._bits
        p2e = self._pair_edges
        # z ranges over the common neighbours of x and w other than y
        bits_x = bits[x] & ~(1 << y)
        for w in self._adj[y]:
            if w == x:
                continue
            common = bits_x & bits[w]
            if not common:
                continue
            A = p2e[(y, w) if y < w else (w, y)]
            forced_a = A[0] if len(A) == 1 else -1
            while common:
                low = common & -common
                common ^= low
                z = low.bit_length() - 1
                C = p2e[(z, x) if z < x else (x, z)]
                forced_c = C[0] if len(C) == 1 else -1
                for b in p2e[(w, z) if w < z else (z, w)]:
                    if b != forced_a and b != forced_c:
                        return True
        return False

    def try_add(self, triple: Sequence[int]) -> bool:
        """Add the edge iff the result stays BC4-free; report whether it was kept.

        Only Berge C4s through the new edge are looked for, so the verdict
        assumes the current edges are BC4-free, as they are when every edge
        came through try_add. Raises ValueError unless the triple is 3
        distinct int vertex ids in [0, n) that are not already an edge (see
        canonical_edge).
        """
        e = canonical_edge(triple, self.n)
        for i in self._pair_edges.get(e[:2], ()):
            if self.edges[i] == e:
                raise ValueError(f"duplicate edge {e}")
        if self.closing_pair(e) is not None:
            return False
        self.add(e)
        return True

    def closing_pair(self, e: Edge) -> Pair | None:
        """The first of ab, ac, bc that closes a Berge C4; None when try_add would keep e.

        e must be a sorted triple a < b < c in [0, n) that is not an edge;
        nothing is checked or mutated. The verdict on a pair does not depend
        on the triple's third vertex, and a closing pair stays closing while
        edges are only added (see random_bc4free). The three tests are
        written out, not looped over a tuple of pairs, so that the call
        costs what a plain verdict costs.
        """
        a, b, c = e
        if self.closes(a, b):
            return a, b
        if self.closes(a, c):
            return a, c
        if self.closes(b, c):
            return b, c
        return None

    def to_hypergraph(self) -> Hypergraph:
        return Hypergraph(self.n, self.edges)
