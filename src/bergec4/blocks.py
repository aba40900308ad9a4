"""Block decomposition: maximal edge groups chained by shared vertex pairs.

Two edges are chained when they share exactly two vertices; blocks are the
connected components of that relation and partition the edge set. Blocks of
a BC4-free hypergraph are either "type 1" (one distinguished edge meets every
other edge in a pair and absorbs all pairwise intersections) or "type 2"
(the 4-vertex complete 3-graph minus one edge); arbitrary inputs may also
produce OTHER. decompose returns the blocks as a plain tuple, and
block_degrees(h, decompose(h)) is the one route to the block degrees.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

from bergec4.hypergraph import Hypergraph


class BlockType(enum.Enum):
    TYPE1 = "TYPE1"
    TYPE2 = "TYPE2"
    OTHER = "OTHER"


@dataclass(frozen=True)
class Block:
    """One block: member edge indices, covered vertices, shape, leaf edges.

    classification is TYPE2 for 3 edges on 4 vertices and TYPE1 by the
    vertex-count lemma of decompose, which no 3 edges on 4 vertices meet;
    leaf_edges are the member edges owning a vertex that no other member
    edge meets.
    """

    edge_indices: tuple[int, ...]
    vertex_set: frozenset[int]
    classification: BlockType
    leaf_edges: tuple[int, ...]


def decompose(h: Hypergraph) -> tuple[Block, ...]:
    """Partition the edges into blocks, classified and with leaf edges marked.

    The blocks come in order of their least edge index.

    Union-find over edges keyed by their vertex pairs: edges sharing a pair
    share exactly two vertices, which is the chain relation. Per block, one
    vertex count gives the vertex set (its keys), the leaf edges (holding a
    vertex counted once), the TYPE2 test (3 edges on 4 vertices) and the
    TYPE1 test, by this lemma.

    Lemma. A block of b edges is TYPE1 iff it has b + 2 vertices and some
    edge's three vertex counts sum to 2b + 1. The counts of an edge e sum
    to 3 + sum over the other edges f of |e & f|, and |e & f| <= 2. If e is
    the distinguished edge, each f meets it in a pair and so adds one
    vertex outside e, distinct from every other f's since the pairwise
    intersections lie in e: b + 2 vertices and a sum of 3 + 2(b - 1).
    Conversely a sum of 2b + 1 forces |e & f| = 2 for all b - 1 edges f,
    each f has one vertex outside e, and b + 2 vertices make those b - 1
    vertices distinct, so two edges f, f' meet inside e. The test is
    O(b) per block.
    """
    parent = list(range(h.edge_count))
    first_owner: dict[tuple[int, int], int] = {}
    for i, (a, b, c) in enumerate(h.edges):
        for p in ((a, b), (a, c), (b, c)):
            j = first_owner.setdefault(p, i)
            if j == i:
                continue
            # root walks that halve their paths; a root is the least edge of
            # its tree, since a union hangs the larger root under the smaller
            while parent[j] != j:
                parent[j] = j = parent[parent[j]]
            r = i
            while parent[r] != r:
                parent[r] = r = parent[parent[r]]
            if r != j:
                parent[max(r, j)] = min(r, j)
    groups: dict[int, list[int]] = {}
    for i in range(h.edge_count):
        # parent[i] < i unless i is a root, and parent[i] already points at its root
        parent[i] = root = parent[parent[i]]
        groups.setdefault(root, []).append(i)
    blocks: list[Block] = []
    # groups was filled in increasing i: its keys come in order of each
    # block's least edge, and each list is already sorted
    for members in groups.values():
        indices = tuple(members)
        member_edges = [h.edges[i] for i in indices]
        count = Counter(chain.from_iterable(member_edges))
        leaves = tuple(
            i for i, (a, b, c) in zip(indices, member_edges) if count[a] == 1 or count[b] == 1 or count[c] == 1
        )
        size = len(indices)
        if size == 3 and len(count) == 4:
            kind = BlockType.TYPE2
        elif len(count) == size + 2 and any(count[a] + count[b] + count[c] == 2 * size + 1 for a, b, c in member_edges):
            kind = BlockType.TYPE1
        else:
            kind = BlockType.OTHER
        blocks.append(Block(indices, frozenset(count), kind, leaves))
    return tuple(blocks)


def block_degrees(h: Hypergraph, blocks: Sequence[Block]) -> tuple[int, ...]:
    """Per-vertex count of blocks having some edge through the vertex."""
    out = [0] * h.n
    for block in blocks:
        for v in block.vertex_set:
            out[v] += 1
    return tuple(out)
