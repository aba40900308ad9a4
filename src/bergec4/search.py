"""Exact extremal edge counts for BC4-free hypergraphs at desk scale.

Two independent routes. The production route, behind ex_table and the
search command, is a depth-first branch-and-bound on Bc4FreeBuilder,
walked as one loop over an explicit stack. It pins two edges of largest
intersection as the root of each of three root classes, keeps per node
the triples that can still join the current set, and branches on a whole
orbit of them under the permutations of the untouched vertices: one
child includes the first candidate, the other excludes its orbit. Edge
sets and candidate sets are int bitmasks over the indices of
combinations(range(n), 3), with the masks of the triples through each
vertex and each vertex pair built once per n (_TripleMasks), so an
orbit, a meet filter or a deletion count is a few big-integer ANDs and
popcounts. The C4 filter after an include asks the builder once per
vertex pair that still has a candidate (the dead-pair lemma of
random_bc4free: a pair's verdict does not depend on the third vertex). It
prunes a node whose size plus candidate count cannot beat the
incumbent and, given the proven table of ex(m) for m < n, a node where
deleting some vertex set K would leave too few edges: ex(n - k) plus the
edges that can still meet K is no more than the incumbent (the
set-deletion prune; with one vertex it is the degree prune). ex_table
hands the table so far, and the witness of the row before as a seed, to
each next n. The root classes are searched one after another on one
thread. The exhaustive route (brute_force_ex, n <= 6)
enumerates every BC4-free edge set, extending free sets one triple at a
time with only the four-edge definition check below; it never visits an
edge subset that contains a Berge C4. It is the second route the tests
hold the first to. Correctness never depends on pruning; every prune rule
carries its justifying lemma (branch_and_bound_ex) and is covered by
oracle-equivalence tests against brute force.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Callable, Sequence

from bergec4.berge import Bc4FreeBuilder, is_bc4_free
from bergec4.bounds import decimal_str, edge_ratio, upper_bound
from bergec4.hypergraph import Edge, Hypergraph, Pair

# every n from 7 up builds all C(n, 3) triples, their masks and the greedy
# seed over them before any node budget applies, so ex_table and
# branch_and_bound_ex refuse larger n before any of it runs; ex_table proves
# every row through n = 13 at the default 200,000-node budget (row 13 visits
# 123,423 nodes, and ex_table(13) takes about 3 s on a 2-vCPU Xeon VM),
# while row 14 needs about two million
SEARCH_MAX_N = 13


@dataclass(frozen=True)
class ClassStats:
    """Counts from the subtree of one root class of branch_and_bound_ex.

    limit is the class's intersection limit i and best the largest size it
    saw, the seed included. nodes = 1 + includes + excludes, the root
    counted once. A visited node that is not expanded is a bound prune, a
    degree prune (the set-deletion prune with one vertex deleted) or a
    set-deletion prune with two or more; cap_stop says the class stopped
    because its best reached the cap, and completed is False when the node
    budget cut it.
    """

    limit: int
    best: int
    nodes: int
    includes: int
    excludes: int
    bound_prunes: int
    degree_prunes: int
    set_deletion_prunes: int
    cap_stop: bool
    completed: bool


@dataclass(frozen=True)
class SearchResult:
    """Outcome for one n; optimal is False when a node budget cut the search.

    nodes_explored counts the BC4-free edge sets for brute_force_ex (the
    empty set included). For branch_and_bound_ex it counts the nodes the
    search visits: the pinned pair at the root of each root class, and
    every include child (one more edge) and exclude child (one orbit of
    candidates fewer), whether it is then expanded or pruned. A run cut by
    a node budget also counts the node that hit the budget, so it reports
    budget + 1 nodes, or budget when it ran out exactly between two root
    classes. classes holds the counts of each root class searched (empty
    for brute_force_ex).
    """

    n: int
    max_edges: int
    witness: Hypergraph
    optimal: bool
    nodes_explored: int
    classes: tuple[ClassStats, ...] = ()


def _four_edges_support_c4(edges: tuple[Edge, Edge, Edge, Edge]) -> bool:
    """Do these four distinct edges carry a Berge C4 using all of them?

    Direct from the definition: fix the first edge at cycle position 0, try
    every order of the rest, and pick each cycle vertex from the intersection
    of consecutive edges. Intentionally independent of the matching-based
    detector so the two search routes stay separate oracles.
    """
    sets = [set(e) for e in edges]
    for order in permutations((1, 2, 3)):
        ring = [sets[0], sets[order[0]], sets[order[1]], sets[order[2]]]
        choices = [ring[i - 1] & ring[i] for i in range(4)]
        if any(not c for c in choices):
            continue
        for v0 in choices[0]:
            for v1 in choices[1]:
                if v1 == v0:
                    continue
                for v2 in choices[2]:
                    if v2 in (v0, v1):
                        continue
                    for v3 in choices[3]:
                        if v3 not in (v0, v1, v2):
                            return True
    return False


def brute_force_ex(n: int) -> SearchResult:
    """Exhaustive enumeration of the BC4-free edge sets; exact for 3 <= n <= 6.

    Depth-first from the empty set, extending the current set S only by
    triples of larger index than its last one, and keeping a triple t iff no
    three edges of S together with t pass _four_edges_support_c4. This visits
    every BC4-free edge set and nothing else, because:
    - every subset of a BC4-free set is BC4-free, so each free set is
      reached through its free prefixes;
    - a Berge C4 uses exactly four distinct edges, so if S is free, a Berge
      C4 in S + {t} is t plus three edges of S.
    Trying inclusions in increasing index order visits each free set once,
    in lexicographic order of its edge-index tuple, so the first largest set
    found is the lexicographically least maximizer. nodes_explored is the
    number of free sets, the empty set included.
    """
    if not 3 <= n <= 6:
        raise ValueError(f"brute force supports 3 <= n <= 6, got {n}")
    triples = list(combinations(range(n), 3))
    chosen: list[Edge] = []
    best: list[Edge] = []
    free_sets = 0

    def extend(i: int) -> None:
        nonlocal best, free_sets
        free_sets += 1
        if len(chosen) > len(best):
            best = list(chosen)
        for j in range(i, len(triples)):
            t = triples[j]
            if not any(_four_edges_support_c4((*three, t)) for three in combinations(chosen, 3)):
                chosen.append(t)
                extend(j + 1)
                chosen.pop()

    extend(0)
    witness = Hypergraph(n, best)
    return SearchResult(n, len(best), witness, True, free_sets)


def _greedy(n: int, triples: Sequence[Edge]) -> list[Edge]:
    """The triples kept in order while the set stays BC4-free.

    triples are sorted and distinct, as combinations gives them. With the
    dead-pair lemma of random_bc4free, a pair that closes a Berge C4 is
    remembered and every later triple through it is skipped without a
    builder call; the kept edges are those of try_add on every triple.
    A triple goes to try_add first, and closing_pair names the pair to
    remember only when try_add rejects it, so a trace of try_add still
    sees the greedy's rejections (at n = 13 it keeps 11 triples and
    rejects 55). Asking closing_pair first, then add, as random_bc4free
    does, would skip try_add's validation: 0.96 against 1.9 ms at n = 13
    on a 2-vCPU Xeon VM, about 1% of a search row from n = 9 up.
    """
    builder = Bc4FreeBuilder(n)
    dead: set[Pair] = set()
    for t in triples:
        a, b, c = t
        if (a, b) in dead or (a, c) in dead or (b, c) in dead:
            continue
        if not builder.try_add(t):
            # t was rejected against these same edges, so some pair closes
            dead.add(builder.closing_pair(t))
    return list(builder.edges)


# the pinned pair of every root class: _ROOT_EDGE and a second edge meeting
# it in exactly i vertices, for the largest intersection i of the class
_ROOT_EDGE: Edge = (0, 1, 2)
_SECOND_EDGES: tuple[tuple[int, Edge], ...] = ((2, (0, 1, 3)), (1, (0, 3, 4)), (0, (3, 4, 5)))


def _root_classes(n: int) -> list[tuple[int, Edge]]:
    """(i, f_i) for each root class whose second pinned edge fits in n vertices."""
    return [(i, f) for i, f in _SECOND_EDGES if f[2] < n]


@dataclass(frozen=True)
class _TripleMasks:
    """Triple sets on n vertices as ints: bit j stands for triples[j].

    triples is combinations(range(n), 3), so the lowest set bit of a mask
    is its least triple. contain[v] holds the triples through vertex v and
    pairs lists (mask, x, y) for every vertex pair x < y, the mask holding
    the triples through both. over[i][j] holds the triples that meet
    triples[j] in more than i vertices, triples[j] itself included.
    """

    triples: list[Edge]
    contain: list[int]
    pairs: list[tuple[int, int, int]]
    over: tuple[list[int], list[int], list[int]]


def _triple_masks(n: int) -> _TripleMasks:
    triples = list(combinations(range(n), 3))
    contain = [0] * n
    for j, (a, b, c) in enumerate(triples):
        bit = 1 << j
        contain[a] |= bit
        contain[b] |= bit
        contain[c] |= bit
    pair = {(x, y): contain[x] & contain[y] for x, y in combinations(range(n), 2)}
    over = (
        [contain[a] | contain[b] | contain[c] for a, b, c in triples],
        [pair[a, b] | pair[a, c] | pair[b, c] for a, b, c in triples],
        [1 << j for j in range(len(triples))],
    )
    return _TripleMasks(triples, contain, [(m, x, y) for (x, y), m in pair.items()], over)


def _explore_class(
    n: int,
    masks: _TripleMasks,
    limit: int,
    second: Edge,
    seed_best: int,
    cap: int,
    budget: int | None,
    proven: Sequence[int] | None = None,
) -> tuple[list[Edge] | None, ClassStats]:
    """Orbital include/exclude DFS over the edge sets of one root class.

    The class holds _ROOT_EDGE and `second`, and every two of its edges meet
    in at most `limit` vertices. A node is an edge set S with its
    candidates C: triples that the builder would keep next to S (no pair of
    theirs closes a Berge C4), that meet each edge of S in at most `limit`
    vertices, and that no exclusion on the path removed. Both filter
    conditions are monotone (a triple blocked by S is blocked by every
    superset of S), so the node stands for the largest class member F with
    S <= F <= S + C, and a node with size + |C| <= best cannot beat the
    incumbent.

    S and C are int masks over the triple indices of `masks` (bit j is
    masks.triples[j]), so |C| is a popcount and the first candidate is the
    lowest set bit. The builder holds the edges of S only to answer closes.
    S touches vertex v iff S AND contain[v] is not 0, and with T the
    touched vertices, the orbit of a candidate t under the permutations of
    the other vertices is {u in C : u & T = t & T}: C AND contain[v] for
    each v in t & T, less contain[v] for each v in T - t. A node branches
    on the orbit O of its first candidate t: the include child adds t and
    keeps C less over[limit][t], filtered against t; the exclude child
    keeps C - O. The include filter rests on the dead-pair lemma of
    random_bc4free: whether a pair closes a Berge C4 does not depend on the
    third vertex of the triple, and a pair that closes one at a node closes
    one at every descendant. So the filter asks the builder once about each
    pair that still has a candidate (C AND its pair mask is not 0), and a
    pair that closes drops all its triples at once; a pair with no
    candidate left is not asked again below this node. Each pair of a
    candidate was asked and passed against S, so the include adds t with
    the builder's unchecked add; two edges carry no Berge C4, so the pinned
    pair goes in the same way. The include child is visited first, and the
    exclude child waits on a stack with its S and C; returning to it pops
    the builder down to |S| edges. With `proven` (ex(m), or a proven upper
    bound on it, for every m < n), a node is also dead when _deletion_dead
    names a vertex set K whose deletion leaves too few edges. The search
    stops once best reaches `cap`.

    Returns (witness when it beats seed_best, counts with the best size). The
    incumbent is local to the class (seeded with seed_best), never shared
    with sibling classes, so the visited node set is a pure function of the
    arguments and does not depend on the classes searched before it.
    """
    triples, contain, pairs, over = masks.triples, masks.contain, masks.pairs, masks.over[limit]
    builder = Bc4FreeBuilder(n)
    closes = builder.closes
    edges, candidates = 0, (1 << len(triples)) - 1
    for e in (_ROOT_EDGE, second):
        builder.add(e)
        j = triples.index(e)
        edges |= 1 << j
        # a pinned edge meets itself in 3 > limit vertices, so neither is a candidate
        candidates &= ~over[j]
    candidates = _drop_closing(candidates, pairs, closes)
    best = seed_best
    best_edges: list[Edge] | None = None
    nodes = includes = excludes = bound_prunes = degree_prunes = set_deletion_prunes = 0
    cap_stop = False
    # the exclude children still to visit: their edge mask and their candidates
    pending: list[tuple[int, int]] = []
    while True:
        # visit the node whose masks are edges and candidates; the builder holds the edges
        nodes += 1
        if budget is not None and nodes > budget:
            break
        size = len(builder)
        if size > best:
            best, best_edges = size, list(builder.edges)
        if best >= cap:
            cap_stop = True
            break
        if size + candidates.bit_count() <= best:
            bound_prunes += 1
        elif proven is not None and (k := _deletion_dead(edges, candidates, contain, proven, best)):
            if k == 1:
                degree_prunes += 1
            else:
                set_deletion_prunes += 1
        else:
            low = candidates & -candidates
            j = low.bit_length() - 1
            t = triples[j]
            orbit = candidates
            for v, mask in enumerate(contain):
                if edges & mask:
                    orbit &= mask if v in t else ~mask
            pending.append((edges, candidates & ~orbit))
            builder.add(t)
            edges |= low
            candidates = _drop_closing(candidates & ~over[j], pairs, closes)
            includes += 1
            continue
        if not pending:
            break
        edges, candidates = pending.pop()
        for _ in range(len(builder) - edges.bit_count()):
            builder.pop()
        excludes += 1
    completed = budget is None or nodes <= budget
    stats = ClassStats(
        limit, best, nodes, includes, excludes, bound_prunes, degree_prunes, set_deletion_prunes, cap_stop, completed
    )
    return best_edges, stats


def _drop_closing(candidates: int, pairs: list[tuple[int, int, int]], closes: Callable[[int, int], bool]) -> int:
    """candidates less the triples through every pair (x, y) that closes a Berge C4.

    Each pair that still has a candidate is asked once, in the order of
    pairs; a pair whose triples an earlier pair dropped is not asked.
    """
    for mask, x, y in pairs:
        if candidates & mask and closes(x, y):
            candidates &= ~mask
    return candidates


def _deletion_dead(edges: int, candidates: int, contain: Sequence[int], proven: Sequence[int], best: int) -> int:
    """The least k for which deleting K kills the node, or 0 when no k does.

    edges and candidates are the masks of S and C, and contain[v] the mask
    of the triples through v (see _TripleMasks). reach(v) counts the edges
    of S + C at v: the popcount of (S | C) AND contain[v]. K is the k
    vertices of least reach, ties broken by vertex id, for k = 1..n - 3.
    The node is dead when proven[n - k] + #{e in S + C : e meets K} <=
    best; the edges that meet K are (S | C) AND the union of contain[v]
    over K, grown one vertex at a time.
    """
    n = len(contain)
    live = edges | candidates
    reach = [(live & m).bit_count() for m in contain]
    met = 0
    for k, v in enumerate(sorted(range(n), key=reach.__getitem__)[: n - 3], 1):
        met |= contain[v]
        if proven[n - k] + (live & met).bit_count() <= best:
            return k
    return 0


def _check_budget(node_budget: int | None) -> None:
    if node_budget is not None and (type(node_budget) is not int or node_budget < 0):
        raise ValueError(f"node budget must be None or an int >= 0, got {node_budget!r}")


def _check_proven(n: int, proven: Sequence[int]) -> tuple[int, ...]:
    """proven as a tuple; ValueError unless it holds one admissible value per m < n."""
    try:
        values = tuple(proven)
    except TypeError:
        raise ValueError(f"proven must be a sequence of ints, got {proven!r}") from None
    if len(values) != n:
        raise ValueError(f"proven must hold ex(m) for m = 0..{n - 1}, got {len(values)} entries")
    for m, x in enumerate(values):
        top = upper_bound(m).floor() if m >= 3 else 0
        if type(x) is not int or not 0 <= x <= top:
            raise ValueError(f"proven[{m}] must be an int in [0, {top}], got {x!r}")
    return values


def branch_and_bound_ex(
    n: int,
    node_budget: int | None = None,
    threads: int = 1,
    *,
    proven: Sequence[int] | None = None,
    seed: Hypergraph | None = None,
) -> SearchResult:
    """Orbital depth-first search, one subtree per root class.

    ValueError unless n is an int (not a bool) in [3, SEARCH_MAX_N], before
    the triple masks are built. The search adds each candidate to its
    builder unchecked, on the word of its own filter, so the witness it
    returns is checked whole by is_bc4_free, and a witness that carries a
    Berge C4 raises RuntimeError instead of being returned.

    proven holds, for every m < n, ex(m) or a proven upper bound on it,
    such as floor(upper_bound(m)) for a row the budget cut. It turns on the
    averaging cap and the set-deletion prune; None leaves them off.
    ValueError unless it has n entries, each an int (not a bool) in
    [0, floor(upper_bound(m))], and 0 for m < 3. seed is a BC4-free
    hypergraph on at most n vertices, such as the witness of row n - 1;
    each class starts from it when it has more edges than the greedy set.
    ValueError unless it is free and fits. threads must be >= 1 and
    changes nothing: the search never fans out. The parameter stays only
    for the benchmark harness, which still times threads=2 against
    threads=1; it goes with the benchmark change of ROADMAP item 2.

    Prune rules, each with its lemma:
    - root classes (max-intersection pinning): take any maximizer with at
      least 2 edges, let i be the largest number of vertices two of its
      edges share, and relabel the vertices so that two such edges become
      (0,1,2) and f_i, where f_2 = (0,1,3), f_1 = (0,3,4) and
      f_0 = (3,4,5). The result is an isomorphic maximizer holding both,
      with every two edges meeting in at most i vertices. So the search
      runs one subtree per i, with that pair pinned and that intersection
      limit, and skips a class whose f_i does not fit in n vertices. A
      maximizer with 0 or 1 edges is matched by the greedy seed;
    - candidate bound: a node's candidates are the only triples that can
      still join it, because a triple the builder rejects next to S, or
      that meets an edge of S in more than i vertices, is rejected next to
      every superset of S. So a node with size + |candidates| <= the
      incumbent is dead (_explore_class);
    - orbital branching (Ostrowski, Linderoth, Rossi, Smriglio): let U be
      the vertices no edge of S touches. Every permutation of U fixes S,
      the pinned pair and the intersection limit, so it maps the filtered
      triples onto themselves; it maps the candidates onto themselves too,
      as long as every exclusion so far removed a whole orbit, which holds
      because an include only shrinks U, and an orbit of the larger group
      is a union of orbits of the smaller one. The orbit of t is fixed by
      t & T for the touched set T = V - U (which also fixes |t & U|). So if
      the best completion of a node holds a member of the orbit O of t,
      some permutation maps it to one holding t: the include child (t) and
      the exclude child (no member of O) cover every completion;
    - analytic cap: every BC4-free hypergraph on n vertices satisfies the
      combined chain inequality (bounds module), so no branch can exceed
      floor(upper_bound(n)) and the search may stop at the cap;
    - averaging cap (Katona, Nemetz, Simonovits): deleting a vertex v of a
      free set F leaves a free set of |F| - deg(v) edges on n - 1
      vertices, and each edge misses n - 3 vertices, so summing over v
      gives (n - 3)|F| <= n ex(n - 1). The cap is the smaller of the two;
    - set-deletion prune (the same deletion, for a set of vertices): for
      any set K of k vertices and any free F on n vertices, the edges of F
      that miss K form a free set on the other n - k vertices, so
      |F| <= ex(n - k) + #{e in F : e meets K}. A completion F of S lies
      in S + C, so a node where proven[n - k] + #{e in S + C : e meets K}
      <= best for some K holds no better set. _deletion_dead tries, for
      each k = 1..n - 3, the k vertices that the fewest edges of S + C
      reach (at k = n - 2 every edge meets K and ex(2) = 0, which is the
      candidate bound). With k = 1 this is the degree prune: every free F
      has deg_F(v) >= |F| - ex(n - 1), and deg_F(v) is at most the reach
      of v. Any proven upper bound on ex(n - k) keeps the rule sound.

    The root classes run one after another in one loop, in the order of
    _root_classes, and each starts from the size of the larger of the
    greedy set and seed rather than from the best of the classes before
    it. A node budget is shared: each class gets what the classes before
    it left, and a class that finds it spent is not started.
    """
    if type(n) is not int or not 3 <= n <= SEARCH_MAX_N:
        raise ValueError(f"branch and bound requires an int 3 <= n <= {SEARCH_MAX_N}, got {n!r}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    _check_budget(node_budget)
    cap = upper_bound(n).floor()
    if proven is not None:
        proven = _check_proven(n, proven)
        if n >= 4:
            cap = min(cap, n * proven[n - 1] // (n - 3))
    masks = _triple_masks(n)
    best_edges = _greedy(n, masks.triples)
    if seed is not None:
        if not isinstance(seed, Hypergraph) or seed.n > n or not is_bc4_free(seed):
            raise ValueError(f"seed must be a BC4-free Hypergraph on at most {n} vertices")
        if seed.edge_count > len(best_edges):
            best_edges = list(seed.edges)
    start = best_size = len(best_edges)
    completed = True

    classes: list[ClassStats] = []
    remaining = node_budget
    for limit, second in _root_classes(n):
        if remaining is not None and remaining <= 0:
            completed = False
            break
        edges, stats = _explore_class(n, masks, limit, second, start, cap, remaining, proven)
        classes.append(stats)
        if remaining is not None:
            remaining -= stats.nodes
        if not stats.completed:
            completed = False
        if edges is not None and stats.best > best_size:
            best_size, best_edges = stats.best, edges
    witness = Hypergraph(n, best_edges)
    if not is_bc4_free(witness):
        raise RuntimeError(f"the n = {n} search returned a witness that carries a Berge C4")
    nodes = sum(c.nodes for c in classes)
    return SearchResult(n, best_size, witness, completed, nodes, tuple(classes))


def check_table_args(n_max: int, budget: int | None) -> None:
    """ValueError unless ex_table(n_max, budget) accepts its arguments.

    n_max must be an int (not a bool) in [3, SEARCH_MAX_N] and budget None
    or an int >= 0; a caller can check them before it starts anything else.
    """
    if type(n_max) is not int or not 3 <= n_max <= SEARCH_MAX_N:
        raise ValueError(f"n_max must be in [3, {SEARCH_MAX_N}] and an int, got {n_max!r}")
    _check_budget(budget)


def ex_table(n_max: int, budget: int | None = 200_000) -> list[SearchResult]:
    """Extremal values for n = 3..n_max, all by branch_and_bound_ex.

    Rows n <= 6 run with no node budget: they take at most 49 nodes, so
    they are proven optimal at every budget, including 0. The budget
    applies from n = 7 on. Every row gets the table so far as proven, which
    turns on the averaging cap and the set-deletion prune: ex(m) for each
    row m that is optimal, floor(upper_bound(m)) for a row the budget cut,
    and 0 for m < 3. Every row from n = 4 on also gets the witness of row
    n - 1 as its seed; that witness is free whether or not its row was
    proven. brute_force_ex is not called here; it stays the independent
    second route that the tests check the n <= 6 rows with.
    branch_and_bound_ex is looked up by its module-global name on every row.
    Raises ValueError as check_table_args does.
    """
    check_table_args(n_max, budget)
    rows: list[SearchResult] = []
    proven: tuple[int, ...] = (0, 0, 0)
    for n in range(3, n_max + 1):
        seed = rows[-1].witness if rows else None
        row = branch_and_bound_ex(n, node_budget=None if n <= 6 else budget, proven=proven, seed=seed)
        rows.append(row)
        proven += (row.max_edges if row.optimal else upper_bound(n).floor(),)
    return rows


def format_ex_table(results: list[SearchResult]) -> str:
    """Tab-separated table: n, max_edges, optimal, upper_bound (6 decimals), ratio."""
    lines = ["n\tmax_edges\toptimal\tupper_bound\tratio"]
    for r in results:
        bound = upper_bound(r.n).decimal(6)
        ratio = decimal_str(edge_ratio(r.n, r.max_edges))
        flag = "true" if r.optimal else "false"
        lines.append(f"{r.n}\t{r.max_edges}\t{flag}\t{bound}\t{ratio}")
    return "\n".join(lines) + "\n"


def format_stats(results: list[SearchResult]) -> str:
    """One JSON object per row: node counts, prunes per rule, per-class counts, budget hit.

    Counts only, no timings, so equal searches write equal text.
    """
    lines = []
    for r in results:
        row = {
            "n": r.n,
            "nodes": r.nodes_explored,
            "includes": sum(c.includes for c in r.classes),
            "excludes": sum(c.excludes for c in r.classes),
            "prunes": {
                "candidate_bound": sum(c.bound_prunes for c in r.classes),
                "degree": sum(c.degree_prunes for c in r.classes),
                "set_deletion": sum(c.set_deletion_prunes for c in r.classes),
                "cap_stop": sum(c.cap_stop for c in r.classes),
            },
            "classes": [{"limit": c.limit, "nodes": c.nodes, "best": c.best} for c in r.classes],
            "budget_hit": not r.optimal,
        }
        lines.append(json.dumps(row))
    return "\n".join(lines) + "\n"
