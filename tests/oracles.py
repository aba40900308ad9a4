"""Independent brute-force oracles used to validate the library.

Everything here but walker_census recomputes results straight from the
definitions with no shared machinery: Berge cycles by exhaustive ordered-tuple
search, 3-paths by triple loops, codegrees one middle at a time, rare
4-cycles from scratch, type-1 blocks by pairwise intersections, the edge
bound by bisection of the exact inequality, and the best edge set of each
search root class by exhaustive extension with a four-edge cycle test of
its own. walker_census is the census that walks every 4-cycle and 3-path;
it shares the block degrees with the package, and checks the census's
counting against listing at sizes the naive oracles cannot reach. Its bc4_free is is_bc4_free(h), the
builder's verdict, so it is also an independent check of the census's
verdict, which the census reads off its own 4-cycle classes.
memo_free_greedy likewise shares the builder: it is random_bc4free without
the dead-pair memo and over tuples, not packed codes, so it checks the memo
and the encoding, not the builder's verdict.
canonical_cycles is the plain shadow walk, kept here as the reference
implementation: it yields every shadow cycle in the canonical order, with
no sole-edge rule and no bitset, and shares no code with the package's walk,
berge._cycle_candidates. walker_census and walker_berge_cycle walk it.
walker_berge_cycle is find_berge_cycle without the builder's length-4
verdict and without the sole-edge rules: it matches every cycle of the
plain walk, so it shares only the matching, and checks at every length both
the verdict and the rules that let the package's walk skip cycles. The tests
call berge._cycle_candidates directly on free inputs, which find_berge_cycle
does not walk at length 4.

The reference helpers that only the tests need live here too, each from its
definition: verify_cycle_witness (with WitnessError) checks a Berge cycle
witness, excess_degree_within is the excess degree inside one block,
combined_inequality_holds is the chain's combined inequality as an expanded
quadratic, without_isolated_vertices compacts a hypergraph's vertex ids, and
adjacency builds a graph's adjacency tuple, in the form shadow returns, from
its vertex pairs. all_pairs_incidence is PG(2, q)'s incidence graph by a test
of every point/line pair, and pairwise_c4_free is the C4 test by the
neighbourhood intersection of every two left vertices: the definitions that
projective_plane_incidence and is_c4_free are held equal to.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
import random
from typing import Iterator, Sequence

from bergec4.berge import Bc4FreeBuilder, BergeCycleWitness, _distinct_representatives, is_bc4_free
from bergec4.blocks import Block, block_degrees, decompose
from bergec4.bounds import check_inequality
from bergec4.census import CensusReport, FourCycleRecord
from bergec4.construct import BipartiteGraph, _field_tables
from bergec4.hypergraph import Hypergraph, Shadow, pair_to_edges, shadow


class WitnessError(ValueError):
    """A witness refers to vertex or edge ids outside the hypergraph."""


def verify_cycle_witness(h: Hypergraph, witness: BergeCycleWitness) -> bool:
    """True iff the witness is a valid Berge cycle of h.

    Out-of-range vertex or edge ids raise WitnessError; any other violation
    (repeats, a pair not inside its edge, length < 2) returns False.
    """
    vs, es = witness.vertices, witness.edge_indices
    for v in vs:
        if not 0 <= v < h.n:
            raise WitnessError(f"vertex id {v} out of range [0, {h.n})")
    for i in es:
        if not 0 <= i < h.edge_count:
            raise WitnessError(f"edge index {i} out of range [0, {h.edge_count})")
    k = len(es)
    if k < 2 or len(vs) != k:
        return False
    if len(set(vs)) != k or len(set(es)) != k:
        return False
    for i in range(k):
        edge = h.edges[es[i]]
        if vs[i] not in edge or vs[(i + 1) % k] not in edge:
            return False
    return True


def excess_degree_within(h: Hypergraph, block: Block, v: int) -> int:
    """Excess degree of v in the subhypergraph induced by the block's edges."""
    if v not in block.vertex_set:
        raise ValueError(f"vertex {v} is not in the block")
    deg = 0
    partners: set[int] = set()
    for i in block.edge_indices:
        e = h.edges[i]
        if v in e:
            deg += 1
            partners.update(u for u in e if u != v)
    return len(partners) - deg


def combined_inequality_holds(n: int, m: Fraction | int) -> bool:
    """The combined inequality, via the expanded quadratic (exact)."""
    m = Fraction(m)
    return 10 * m * m <= 25 * n * m + Fraction(n * n * (n - 1))


def adjacency(n: int, pairs) -> Shadow:
    """The graph on 0..n-1 with the given vertex pairs, as a tuple of neighbour sets."""
    adj = [set() for _ in range(n)]
    for x, y in pairs:
        adj[x].add(y)
        adj[y].add(x)
    return tuple(frozenset(a) for a in adj)


def without_isolated_vertices(h: Hypergraph) -> Hypergraph:
    """Copy of h with isolated vertices dropped and ids compacted in order; h itself when none."""
    isolated = set(h.isolated_vertices())
    if not isolated:
        return h
    relabel: dict[int, int] = {}
    for v in range(h.n):
        if v not in isolated:
            relabel[v] = len(relabel)
    return Hypergraph(len(relabel), [tuple(relabel[v] for v in e) for e in h.edges])


def naive_berge_cycle_exists(h: Hypergraph, length: int = 4) -> bool:
    """Exhaustive search over ordered vertex tuples and injective edge picks."""
    vertices = range(h.n)
    edges = [set(e) for e in h.edges]

    def assign(seq, pos, used):
        if pos == length:
            return True
        a, b = seq[pos], seq[(pos + 1) % length]
        for i, e in enumerate(edges):
            if i not in used and a in e and b in e:
                if assign(seq, pos + 1, used | {i}):
                    return True
        return False

    for seq in permutations(vertices, length):
        if assign(seq, 0, frozenset()):
            return True
    return False


def canonical_cycles(adj: Sequence[frozenset[int]], k: int) -> Iterator[tuple[int, ...]]:
    """Yield the shadow cycles on k distinct vertices, in lexicographic order.

    v_0 is the least vertex and the reflection is fixed by v_1 < v_last;
    k = 2 gives a doubled pair (a, b), a < b. The walk keeps an explicit
    stack, so a long cycle cannot exhaust the interpreter's recursion limit.
    """
    n = len(adj)
    if k == 2:
        yield from ((a, b) for a in range(n) for b in sorted(adj[a]) if b > a)
        return
    last = k - 1
    seq = [0] * k
    in_use = [False] * n
    for v0 in range(n):
        seq[0] = v0
        in_use[v0] = True
        # stack[d - 1] scans the candidates for seq[d], d < last
        stack = [iter(sorted(adj[v0]))]
        while stack:
            depth = len(stack)
            for v in stack[-1]:
                if v > v0 and not in_use[v]:
                    break
            else:
                stack.pop()
                in_use[seq[depth - 1]] = False
                continue
            seq[depth] = v
            if depth + 1 < last:
                in_use[v] = True
                stack.append(iter(sorted(adj[v])))
                continue
            # the last vertex closes the cycle: a common neighbour of v and v0
            low = seq[1]
            for w in sorted(adj[v] & adj[v0]):
                if w > low and not in_use[w]:
                    seq[last] = w
                    yield tuple(seq)


def walker_berge_cycle(h: Hypergraph, length: int) -> BergeCycleWitness | None:
    """The first canonical shadow cycle of the given length with distinct
    representatives, matching every cycle the plain walk yields."""
    if h.edge_count < length or h.n < length:
        return None
    p2e = pair_to_edges(h)
    for cycle in canonical_cycles(shadow(h), length):
        pairs = zip(cycle, cycle[1:] + cycle[:1])
        assignment = _distinct_representatives([p2e[tuple(sorted(p))] for p in pairs])
        if assignment is not None:
            return BergeCycleWitness(cycle, tuple(assignment))
    return None


def naive_count_three_paths(adj: Shadow) -> int:
    n = len(adj)
    count = 0
    for u in range(n):
        for x in range(n):
            for y in range(x + 1, n):
                if x != u != y and u in adj[x] and y in adj[u]:
                    count += 1
    return count


def naive_codegrees(adj: Shadow) -> dict[tuple[int, int], int]:
    """c(x, z) = |N(x) & N(z)| for each pair x < z with c >= 1, counted one middle at a time.

    adj is symmetric, so y is a common neighbour of x and z iff both lie in adj[y].
    """
    counts: Counter[tuple[int, int]] = Counter()
    for y, nbrs in enumerate(adj):
        for x, z in combinations(sorted(nbrs), 2):
            counts[(x, z)] += 1
    return dict(counts)


def naive_four_cycles(adj: Shadow) -> list[tuple[int, int, int, int]]:
    """All shadow 4-cycles, one canonical tuple per rotation/reflection class."""
    cycles = []
    for quad in combinations(range(len(adj)), 4):
        a = quad[0]
        for b, d in ((quad[1], quad[2]), (quad[1], quad[3]), (quad[2], quad[3])):
            c = next(v for v in quad[1:] if v not in (b, d))
            first, last = min(b, d), max(b, d)
            cyc = (a, first, c, last)
            if all(cyc[(i + 1) % 4] in adj[cyc[i]] for i in range(4)):
                cycles.append(cyc)
    return cycles


def naive_is_rare(h: Hypergraph, cycle, scope: str = "induced") -> bool:
    on_cycle = set(cycle)
    diagonals = ({cycle[0], cycle[2]}, {cycle[1], cycle[3]})
    for diag in diagonals:
        if scope == "induced":
            covering = [e for e in h.edges if diag <= set(e) and set(e) <= on_cycle]
        else:
            covering = [e for e in h.edges if diag <= set(e)]
        if len(covering) >= 2:
            return False
    return True


def naive_rare_cycles(h: Hypergraph, adj: Shadow, scope: str = "induced"):
    return [c for c in naive_four_cycles(adj) if naive_is_rare(h, c, scope)]


def naive_is_good(h: Hypergraph, adj: Shadow, x1: int, x2: int, x3: int, scope: str = "induced") -> bool:
    if tuple(sorted((x1, x2, x3))) in h.edge_set:
        return False
    for x in range(h.n):
        if x in (x1, x2, x3):
            continue
        cycle = (x, x1, x2, x3)
        if all(cycle[(i + 1) % 4] in adj[cycle[i]] for i in range(4)):
            if naive_is_rare(h, cycle, scope):
                return False
    return True


def naive_is_type1(edges) -> bool:
    """Some edge meets every other edge in a pair and contains every pairwise
    intersection of the others."""
    sets = [frozenset(e) for e in edges]
    for anchor in sets:
        others = [f for f in sets if f != anchor]
        if any(len(anchor & f) != 2 for f in others):
            continue
        if all(f1 & f2 <= anchor for f1, f2 in combinations(others, 2)):
            return True
    return False


def memo_free_greedy(n: int, target_m: int, seed: int) -> Hypergraph:
    """random_bc4free's greedy with no memo: the same shuffle, then try_add
    on every triple until target_m edges are kept.

    It shuffles the triples as tuples with the standard library's
    random.Random(seed).shuffle, where random_bc4free shuffles packed
    integer codes with its own loop, construct._shuffle. So it also checks
    that encoding, its decoding and that loop's draws, and it must keep
    random.shuffle to stay an independent route."""
    triples = list(combinations(range(n), 3))
    random.Random(seed).shuffle(triples)
    builder = Bc4FreeBuilder(n)
    for t in triples:
        if len(builder) >= target_m:
            break
        builder.try_add(t)
    return builder.to_hypergraph()


def all_pairs_incidence(q: int) -> BipartiteGraph:
    """PG(2, q)'s point/line incidence graph by testing all (q^2+q+1)^2 pairs.

    Points and lines are the canonical triples (1, 0, 0), (x, 1, 0),
    (x, y, 1) in that order, and point (x, y, z) lies on line (a, b, c)
    when ax + by + cz = 0 over the add and mul tables of _field_tables.
    """
    add, mul, _, _ = _field_tables(q)
    triples = [(1, 0, 0), *((x, 1, 0) for x in range(q)), *((x, y, 1) for x in range(q) for y in range(q))]
    edges = []
    for li, (a, b, c) in enumerate(triples):
        ma, mb, mc = mul[a], mul[b], mul[c]
        for pi, (x, y, z) in enumerate(triples):
            if add[add[ma[x]][mb[y]]][mc[z]] == 0:
                edges.append((pi, li))
    return BipartiteGraph(len(triples), len(triples), tuple(sorted(edges)))


def pairwise_c4_free(g: BipartiteGraph) -> bool:
    """No two left vertices share two right neighbours, by every pair's intersection."""
    nbrs: list[set[int]] = [set() for _ in range(g.left_count)]
    for u, v in g.edges:
        nbrs[u].add(v)
    return all(len(nbrs[a] & nbrs[b]) < 2 for a, b in combinations(range(g.left_count), 2))


def four_edges_carry_c4(quad) -> bool:
    """Some cyclic order of the four edges with distinct vertices in consecutive meets."""
    for a, b, c, d in permutations([set(e) for e in quad]):
        for picks in product(a & b, b & c, c & d, d & a):
            if len(set(picks)) == 4:
                return True
    return False


def naive_class_best(n: int, second, limit: int) -> int:
    """Largest BC4-free edge set on n vertices holding (0, 1, 2) and second,
    with every two of its edges sharing at most limit vertices.

    Exhaustive: sets grow by triples of increasing index, and a triple joins
    only if it meets every kept edge in at most limit vertices and no three
    kept edges carry a Berge C4 with it.
    """
    root = (0, 1, 2)
    allowed = [t for t in combinations(range(n), 3) if t not in (root, second)]
    best = 0

    def extend(chosen, start):
        nonlocal best
        best = max(best, len(chosen))
        for j in range(start, len(allowed)):
            t = allowed[j]
            if all(len(set(t) & set(e)) <= limit for e in chosen) and not any(
                four_edges_carry_c4((*three, t)) for three in combinations(chosen, 3)
            ):
                extend(chosen + [t], j + 1)

    extend([root, second], 0)
    return best


def _combined_sides(n: int, e: Fraction) -> tuple[Fraction, Fraction]:
    x = 4 * e / n
    y = e / Fraction(n)
    lhs = n * x * (x - 1) / 2 + 4 * n * y * (y - 1) / 2
    rhs = Fraction(n * (n - 1)) + 21 * e
    return lhs, rhs


def bisect_upper_bound(n: int, width: Fraction = Fraction(1, 10**9)) -> tuple[Fraction, Fraction]:
    """Bracket the largest feasible edge count by bisection of the inequality."""
    lo = Fraction(0)
    hi = Fraction(max(4 * n * n, 100))
    lhs, rhs = _combined_sides(n, hi)
    assert lhs > rhs, "upper bracket must violate the inequality"
    while hi - lo > width:
        mid = (lo + hi) / 2
        lhs, rhs = _combined_sides(n, mid)
        if lhs <= rhs:
            lo = mid
        else:
            hi = mid
    return lo, hi


def walker_census(h: Hypergraph, diagonal_scope: str = "induced") -> CensusReport:
    """The census by walking every shadow 4-cycle and every 3-path.

    This is the census before it counted codegrees: it lists each 4-cycle
    with the plain walk, finds its representative edges and rarity
    directly, and marks each 3-path good or not one at a time.
    """
    adj = shadow(h)
    p2e = pair_to_edges(h)
    m = h.edge_count
    edge_index = {e: i for i, e in enumerate(h.edges)}

    def rare(cycle, reps) -> bool:
        for u, v in ((cycle[0], cycle[2]), (cycle[1], cycle[3])):
            diag = (min(u, v), max(u, v))
            if diagonal_scope == "induced":
                covering = [i for i in reps if set(diag) <= set(h.edges[i])]
            else:
                covering = p2e.get(diag, [])
            if len(covering) >= 2:
                return False
        return True

    histogram: dict[int, int] = {}
    records: list[FourCycleRecord] = []
    rare_paths: set[tuple[int, int, int]] = set()
    four_cycles = 0
    for cycle in canonical_cycles(adj, 4):
        four_cycles += 1
        reps = tuple(i for t in combinations(sorted(cycle), 3) if (i := edge_index.get(t)) is not None)
        histogram[len(reps)] = histogram.get(len(reps), 0) + 1
        if rare(cycle, reps):
            records.append(FourCycleRecord(cycle, reps))
            a, b, c, d = cycle
            for x1, x2, x3 in ((a, b, c), (b, c, d), (c, d, a), (d, a, b)):
                rare_paths.add((min(x1, x3), x2, max(x1, x3)))
    records.sort(key=lambda r: (r.vertices[0], r.vertices[1], r.vertices[3], r.vertices[2]))

    total = 0
    good = 0
    per_pair: dict[tuple[int, int], int] = {}
    for x2 in range(h.n):
        nbrs = sorted(adj[x2])
        for i, x1 in enumerate(nbrs):
            for x3 in nbrs[i + 1 :]:
                total += 1
                if tuple(sorted((x1, x2, x3))) in h.edge_set or (x1, x2, x3) in rare_paths:
                    continue
                good += 1
                per_pair[(x1, x3)] = per_pair.get((x1, x3), 0) + 1
    nongood = total - good

    db = block_degrees(h, decompose(h))
    good_rhs = 2 * (h.n * (h.n - 1) // 2) - 4 * sum(d * (d - 1) // 2 for d in db)
    return CensusReport(
        n=h.n,
        edge_count=m,
        total_3paths=total,
        good_3paths=good,
        nongood_3paths=nongood,
        rare_4cycles=len(records),
        four_cycle_count=four_cycles,
        representative_histogram=dict(sorted(histogram.items())),
        per_pair_good_histogram=dict(sorted(Counter(per_pair.values()).items())),
        rare_cycles=tuple(records),
        bc4_free=is_bc4_free(h),
        diagonal_scope=diagonal_scope,
        per_pair_bound=check_inequality("good_paths_per_pair", max(per_pair.values(), default=0), 2, "<="),
        rare_bound=check_inequality("rare_cycles", len(records), 6 * m, "<="),
        good_bound=check_inequality("good_paths_total", good, good_rhs, "<="),
        nongood_bound=check_inequality("nongood_paths", nongood, 21 * m, "<="),
    )


def free_completion_above(s_edges, candidates, best: int) -> bool:
    """Is some BC4-free F with S <= F <= S + C larger than best?

    S is s_edges, assumed free, and C the candidates. Exhaustive: F grows by
    candidates of increasing index, a candidate joining only if no three
    edges already in F carry a Berge C4 with it, and a branch stops once the
    candidates left cannot lift F above best.
    """
    cands = list(candidates)
    need = best + 1 - len(s_edges)

    def extend(chosen, start, added):
        if added >= need:
            return True
        for j in range(start, len(cands)):
            if added + len(cands) - j < need:
                return False
            t = cands[j]
            if not any(four_edges_carry_c4((*three, t)) for three in combinations(chosen, 3)):
                if extend(chosen + [t], j + 1, added + 1):
                    return True
        return False

    return extend(list(s_edges), 0, 0)
