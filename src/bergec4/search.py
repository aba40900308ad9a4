"""Exact extremal edge counts for BC4-free hypergraphs at desk scale.

Two independent routes. The production route, behind ex_table and the
search command, is a depth-first branch-and-bound on Bc4FreeBuilder,
walked as one loop over an explicit stack. It pins two edges of largest
intersection as the root of each of three root classes, keeps per node
the list of triples that can still join the current set, and prunes a
node whose size plus candidate count cannot beat the incumbent. The
exhaustive route (brute_force_ex, n <= 6) enumerates every BC4-free edge
set, extending free sets one triple at a time with only the four-edge
definition check below; it never visits an edge subset that contains a
Berge C4. It is the second route the tests hold the first to. Correctness
never depends on pruning; every prune rule carries its justifying lemma
(branch_and_bound_ex) and is covered by oracle-equivalence tests against
brute force.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations, permutations

from bergec4.berge import Bc4FreeBuilder
from bergec4.bounds import decimal_str, edge_ratio, upper_bound
from bergec4.hypergraph import Edge, Hypergraph

# every n from 7 up builds all C(n, 3) triples and runs the greedy seed over
# them before any node budget applies, so larger n is refused before any
# search runs; 12 is one past the n = 11 stretch target in ROADMAP.md
SEARCH_MAX_N = 12


@dataclass(frozen=True)
class SearchResult:
    """Outcome for one n; optimal is False when a node budget cut the search.

    nodes_explored counts the BC4-free edge sets for brute_force_ex (the
    empty set included). For branch_and_bound_ex it counts the edge sets
    the search visits: the pinned pair at the root of each root class, and
    every set reached by including one candidate, whether it is then
    expanded or pruned. A run cut by a node budget also counts the node
    that hit the budget, so it reports budget + 1 nodes, or budget when it
    ran out exactly between two root classes.
    """

    n: int
    max_edges: int
    witness: Hypergraph
    optimal: bool
    nodes_explored: int


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
) -> tuple[int, list[Edge] | None, int, bool]:
    """Candidate-filtered DFS over the edge sets of one root class.

    The class holds _ROOT_EDGE and `second`, and every two of its edges meet
    in at most `limit` vertices. A node is an edge set S, held by the
    builder, with its candidates: the triples that the builder would keep
    next to S (closing_pair is None), that meet each edge of S in at most
    `limit` vertices and, below the root, that come after the last
    candidate included. The children of S include one candidate each, in
    list order, and a child's candidates are the parent's candidates after
    the included one, filtered against it. Both filter conditions are
    monotone (a triple blocked by S is blocked by every superset of S), so
    the filtered list holds every triple that can still join S, and a node
    with size + len(candidates) <= best cannot beat the incumbent. The DFS
    is one loop over an explicit stack of (candidates, next position)
    frames.

    Returns (best size found, witness when it beats seed_best, nodes,
    completed). The incumbent is local to the class (seeded with
    seed_best), never shared with sibling classes, so the visited node set
    is a pure function of the arguments and thread counts cannot change it.
    """
    builder = Bc4FreeBuilder(n)
    for e in (_ROOT_EDGE, second):
        if not builder.try_add(e):
            raise RuntimeError(f"root class edge {e} is not BC4-free")
    # a pinned edge meets itself in 3 > limit vertices, so neither is a candidate
    candidates = [
        t
        for t in triples
        if _meet(t, _ROOT_EDGE) <= limit and _meet(t, second) <= limit and builder.closing_pair(t) is None
    ]
    best = seed_best
    best_edges: list[Edge] | None = None
    nodes = 0
    # one frame per edge set on the current path: its candidates and the
    # position of the next one to include
    frames: list[list[Edge]] = []
    positions: list[int] = []
    while True:
        # visit the node the builder holds, whose candidates are `candidates`
        nodes += 1
        if budget is not None and nodes > budget:
            return best, best_edges, nodes, False
        size = len(builder)
        if size > best:
            best, best_edges = size, list(builder.edges)
        if size + len(candidates) > best:
            frames.append(candidates)
            positions.append(0)
        elif frames:
            # a pruned node below the root: undo the include that made it
            builder.pop()
        # backtrack to the deepest frame with a child still worth visiting
        while frames:
            candidates, k = frames[-1], positions[-1]
            if best < cap and len(builder) + len(candidates) - k > best:
                break
            frames.pop()
            positions.pop()
            if frames:
                builder.pop()
        else:
            return best, best_edges, nodes, True
        t = candidates[k]
        positions[-1] = k + 1
        # t had no closing pair against this same set, so try_add keeps it
        builder.try_add(t)
        candidates = [
            u for u in candidates[k + 1:] if _meet(u, t) <= limit and builder.closing_pair(u) is None
        ]


def _check_budget(node_budget: int | None) -> None:
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"node budget must be >= 0, got {node_budget}")


def branch_and_bound_ex(n: int, node_budget: int | None = None, threads: int = 1) -> SearchResult:
    """Candidate-filtered depth-first search, one subtree per root class.

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
    - analytic cap: every BC4-free hypergraph on n vertices satisfies the
      combined chain inequality (bounds module), so no branch can exceed
      floor(upper_bound(n)) and the search may stop at the cap.

    Exploration is canonical and incumbents are never shared across root
    classes (each starts from the greedy size), so the result (witness and
    node count) is identical for any thread count; a finite node budget
    forces sequential execution so that nodes are charged in canonical
    order.
    """
    if n < 3:
        raise ValueError(f"branch and bound requires n >= 3, got {n}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    _check_budget(node_budget)
    triples = list(combinations(range(n), 3))
    cap = upper_bound(n).floor()
    greedy_edges = _greedy(n, triples)
    best_size = len(greedy_edges)
    best_edges = greedy_edges
    nodes_total = 0
    completed = True

    classes = _root_classes(n)
    run_parallel = threads > 1 and node_budget is None

    if run_parallel:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(_explore_class, n, triples, limit, second, best_size, cap, None)
                for limit, second in classes
            ]
            outcomes = [f.result() for f in futures]
    else:
        outcomes = []
        remaining = node_budget
        for limit, second in classes:
            if remaining is not None and remaining <= 0:
                completed = False
                break
            out = _explore_class(n, triples, limit, second, best_size, cap, remaining)
            outcomes.append(out)
            if remaining is not None:
                remaining -= out[2]

    for size, edges, nodes, done in outcomes:
        nodes_total += nodes
        if not done:
            completed = False
        if edges is not None and size > best_size:
            best_size, best_edges = size, edges
    witness = Hypergraph(n, best_edges)
    return SearchResult(n, best_size, witness, completed, nodes_total)


def ex_table(n_max: int, budget: int | None = 200_000) -> list[SearchResult]:
    """Extremal values for n = 3..n_max, all by branch_and_bound_ex.

    Rows n <= 6 run with no node budget: they take at most 40 nodes, so
    they are proven optimal at every budget, including 0. The budget
    applies from n = 7 on. brute_force_ex is not called here; it stays the
    independent second route that the tests check the n <= 6 rows with.
    Raises ValueError for n_max outside [3, SEARCH_MAX_N].
    """
    if not 3 <= n_max <= SEARCH_MAX_N:
        raise ValueError(f"n_max must be in [3, {SEARCH_MAX_N}], got {n_max}")
    _check_budget(budget)
    return [branch_and_bound_ex(n, node_budget=None if n <= 6 else budget) for n in range(3, n_max + 1)]


def format_ex_table(results: list[SearchResult]) -> str:
    """Tab-separated table: n, max_edges, optimal, upper_bound (6 decimals), ratio."""
    lines = ["n\tmax_edges\toptimal\tupper_bound\tratio"]
    for r in results:
        bound = upper_bound(r.n).decimal(6)
        ratio = decimal_str(edge_ratio(r.n, r.max_edges))
        flag = "true" if r.optimal else "false"
        lines.append(f"{r.n}\t{r.max_edges}\t{flag}\t{bound}\t{ratio}")
    return "\n".join(lines) + "\n"
