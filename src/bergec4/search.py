"""Exact extremal edge counts for BC4-free hypergraphs at desk scale.

Two independent routes. The production route, behind ex_table and the
search command, is a depth-first branch-and-bound on Bc4FreeBuilder,
walked as one loop over an explicit stack. It pins two edges of largest
intersection as the root of each of three root classes, keeps per node
the list of triples that can still join the current set, and branches on
a whole orbit of that list under the permutations of the untouched
vertices: one child includes the first candidate, the other excludes its
orbit. It prunes a node whose size plus candidate count cannot beat the
incumbent and, given the proven ex(n - 1), a node with a vertex that can
no longer reach the degree a better set needs. ex_table hands each proven
row to the next n. The root classes are searched one after another on
one thread. The exhaustive route (brute_force_ex, n <= 6)
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

from bergec4.berge import Bc4FreeBuilder
from bergec4.bounds import decimal_str, edge_ratio, upper_bound
from bergec4.hypergraph import Edge, Hypergraph

# every n from 7 up builds all C(n, 3) triples and runs the greedy seed over
# them before any node budget applies, so larger n is refused before any
# search runs; ex_table proves n = 11 at the default 200,000-node budget,
# and n = 12 needs a budget of 250,000
SEARCH_MAX_N = 12


@dataclass(frozen=True)
class ClassStats:
    """Counts from the subtree of one root class of branch_and_bound_ex.

    limit is the class's intersection limit i and best the largest size it
    saw, the greedy seed included. nodes = 1 + includes + excludes, the
    root counted once. A visited node that is not expanded is a bound prune
    or a degree prune; cap_stop says the class stopped because its best
    reached the cap, and completed is False when the node budget cut it.
    """

    limit: int
    best: int
    nodes: int
    includes: int
    excludes: int
    bound_prunes: int
    degree_prunes: int
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


def _greedy(n: int, triples: list[Edge]) -> list[Edge]:
    builder = Bc4FreeBuilder(n)
    for t in triples:
        builder.try_add(t)
    return list(builder.edges)


# the pinned pair of every root class: _ROOT_EDGE and a second edge meeting
# it in exactly i vertices, for the largest intersection i of the class
_ROOT_EDGE: Edge = (0, 1, 2)
_SECOND_EDGES: tuple[tuple[int, Edge], ...] = ((2, (0, 1, 3)), (1, (0, 3, 4)), (0, (3, 4, 5)))


def _root_classes(n: int) -> list[tuple[int, Edge]]:
    """(i, f_i) for each root class whose second pinned edge fits in n vertices."""
    return [(i, f) for i, f in _SECOND_EDGES if f[2] < n]


def _meet(u: Edge, t: Edge) -> int:
    """How many vertices the triples u and t share."""
    return (u[0] in t) + (u[1] in t) + (u[2] in t)


def _explore_class(
    n: int,
    triples: list[Edge],
    limit: int,
    second: Edge,
    seed_best: int,
    cap: int,
    budget: int | None,
    prev_ex: int | None = None,
) -> tuple[list[Edge] | None, ClassStats]:
    """Orbital include/exclude DFS over the edge sets of one root class.

    The class holds _ROOT_EDGE and `second`, and every two of its edges meet
    in at most `limit` vertices. A node is an edge set S, held by the
    builder, with its candidates C: triples that the builder would keep
    next to S (closing_pair is None), that meet each edge of S in at most
    `limit` vertices, and that no exclusion on the path removed. Both
    filter conditions are monotone (a triple blocked by S is blocked by
    every superset of S), so the node stands for the largest class member
    F with S <= F <= S + C, and a node with size + len(C) <= best cannot
    beat the incumbent.

    With T the vertices that S touches, the orbit of a candidate t under
    the permutations of the other vertices is {u in C : u & T = t & T}. A
    node branches on the orbit O of its first candidate t: the include
    child adds t and keeps C minus t, filtered against t; the exclude child
    keeps C minus O. The include child is visited first, and the exclude
    child waits on a stack with the builder size to return to. With
    `prev_ex` (the proven ex(n - 1)), a node is also dead when some vertex
    cannot reach degree best + 1 - prev_ex even with every candidate added;
    deg holds the degree of each vertex in S. The search stops once best
    reaches `cap`.

    Returns (witness when it beats seed_best, counts with the best size). The
    incumbent is local to the class (seeded with seed_best), never shared
    with sibling classes, so the visited node set is a pure function of the
    arguments and does not depend on the classes searched before it.
    """
    builder = Bc4FreeBuilder(n)
    deg = [0] * n
    for e in (_ROOT_EDGE, second):
        if not builder.try_add(e):
            raise RuntimeError(f"root class edge {e} is not BC4-free")
        for v in e:
            deg[v] += 1
    # a pinned edge meets itself in 3 > limit vertices, so neither is a candidate
    candidates = [
        t
        for t in triples
        if _meet(t, _ROOT_EDGE) <= limit and _meet(t, second) <= limit and builder.closing_pair(t) is None
    ]
    best = seed_best
    best_edges: list[Edge] | None = None
    nodes = includes = excludes = bound_prunes = degree_prunes = 0
    cap_stop = False
    # the exclude children still to visit: the builder size to return to and
    # their candidates
    pending: list[tuple[int, list[Edge]]] = []
    while True:
        # visit the node the builder holds, whose candidates are `candidates`
        nodes += 1
        if budget is not None and nodes > budget:
            break
        size = len(builder)
        if size > best:
            best, best_edges = size, list(builder.edges)
        if best >= cap:
            cap_stop = True
            break
        if size + len(candidates) <= best:
            bound_prunes += 1
        elif prev_ex is not None and _degree_dead(deg, candidates, best + 1 - prev_ex):
            degree_prunes += 1
        else:
            t = candidates[0]
            key = [v for v in t if deg[v]]
            pending.append((size, [u for u in candidates if [v for v in u if deg[v]] != key]))
            # t had no closing pair against this same set, so try_add keeps it
            builder.try_add(t)
            for v in t:
                deg[v] += 1
            candidates = [
                u for u in candidates[1:] if _meet(u, t) <= limit and builder.closing_pair(u) is None
            ]
            includes += 1
            continue
        if not pending:
            break
        size, candidates = pending.pop()
        while len(builder) > size:
            for v in builder.edges[-1]:
                deg[v] -= 1
            builder.pop()
        excludes += 1
    completed = budget is None or nodes <= budget
    stats = ClassStats(limit, best, nodes, includes, excludes, bound_prunes, degree_prunes, cap_stop, completed)
    return best_edges, stats


def _degree_dead(deg: list[int], candidates: list[Edge], need: int) -> bool:
    """Can some vertex no longer reach degree `need` with every candidate added?"""
    if need <= 0:
        return False
    reach = list(deg)
    for a, b, c in candidates:
        reach[a] += 1
        reach[b] += 1
        reach[c] += 1
    return min(reach) < need


def _check_budget(node_budget: int | None) -> None:
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"node budget must be >= 0, got {node_budget}")


def branch_and_bound_ex(
    n: int, node_budget: int | None = None, threads: int = 1, *, prev_ex: int | None = None
) -> SearchResult:
    """Orbital depth-first search, one subtree per root class.

    prev_ex is the proven ex(n - 1), which turns on the averaging cap and
    the degree prune; None leaves them off. ValueError unless it lies in
    [0, floor(upper_bound(n - 1))] with n >= 4. threads must be >= 1 and
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
      every superset of S. So a node with size + len(candidates) <= the
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
    - degree prune: by the same deletion, every free F has
      deg_F(v) >= |F| - ex(n - 1) at every vertex v. A completion F of S
      with |F| > best has deg_F(v) <= deg_S(v) + #{c in C : v in c}, so a
      node where that sum is below best + 1 - ex(n - 1) for some v holds
      no better set.

    The root classes run one after another in one loop, in the order of
    _root_classes, and each starts from the greedy size rather than from
    the best of the classes before it. A node budget is shared: each class
    gets what the classes before it left, and a class that finds it spent
    is not started.
    """
    if n < 3:
        raise ValueError(f"branch and bound requires n >= 3, got {n}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    _check_budget(node_budget)
    cap = upper_bound(n).floor()
    if prev_ex is not None:
        if n < 4:
            raise ValueError(f"prev_ex needs n >= 4, got n = {n}")
        if not 0 <= prev_ex <= upper_bound(n - 1).floor():
            raise ValueError(f"prev_ex must be in [0, {upper_bound(n - 1).floor()}], got {prev_ex}")
        cap = min(cap, n * prev_ex // (n - 3))
    triples = list(combinations(range(n), 3))
    best_edges = _greedy(n, triples)
    seed = best_size = len(best_edges)
    completed = True

    classes: list[ClassStats] = []
    remaining = node_budget
    for limit, second in _root_classes(n):
        if remaining is not None and remaining <= 0:
            completed = False
            break
        edges, stats = _explore_class(n, triples, limit, second, seed, cap, remaining, prev_ex)
        classes.append(stats)
        if remaining is not None:
            remaining -= stats.nodes
        if not stats.completed:
            completed = False
        if edges is not None and stats.best > best_size:
            best_size, best_edges = stats.best, edges
    nodes = sum(c.nodes for c in classes)
    return SearchResult(n, best_size, Hypergraph(n, best_edges), completed, nodes, tuple(classes))


def ex_table(n_max: int, budget: int | None = 200_000) -> list[SearchResult]:
    """Extremal values for n = 3..n_max, all by branch_and_bound_ex.

    Rows n <= 6 run with no node budget: they take at most 49 nodes, so
    they are proven optimal at every budget, including 0. The budget
    applies from n = 7 on. Each row that is optimal hands its value to the
    next n as prev_ex, which turns on the averaging cap and the degree
    prune there; a row cut by the budget hands nothing on. brute_force_ex
    is not called here; it stays the independent second route that the
    tests check the n <= 6 rows with. branch_and_bound_ex is looked up by
    its module-global name on every row.
    Raises ValueError for n_max outside [3, SEARCH_MAX_N].
    """
    if not 3 <= n_max <= SEARCH_MAX_N:
        raise ValueError(f"n_max must be in [3, {SEARCH_MAX_N}], got {n_max}")
    _check_budget(budget)
    rows: list[SearchResult] = []
    prev_ex = None
    for n in range(3, n_max + 1):
        row = branch_and_bound_ex(n, node_budget=None if n <= 6 else budget, prev_ex=prev_ex)
        rows.append(row)
        prev_ex = row.max_edges if row.optimal else None
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
                "cap_stop": sum(c.cap_stop for c in r.classes),
            },
            "classes": [{"limit": c.limit, "nodes": c.nodes, "best": c.best} for c in r.classes],
            "budget_hit": not r.optimal,
        }
        lines.append(json.dumps(row))
    return "\n".join(lines) + "\n"
