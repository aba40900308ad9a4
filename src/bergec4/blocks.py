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
from typing import Sequence

from bergec4.hypergraph import Edge, Hypergraph


class BlockType(enum.Enum):
    TYPE1 = "TYPE1"
    TYPE2 = "TYPE2"
    OTHER = "OTHER"


@dataclass(frozen=True)
class Block:
    """One block: member edge indices, covered vertices, shape, leaf edges.

    classification tests the type definitions directly (TYPE2 wins if both
    hold); leaf_edges are the member edges owning a vertex that no other
    member edge meets.
    """

    edge_indices: tuple[int, ...]
    vertex_set: frozenset[int]
    classification: BlockType
    leaf_edges: tuple[int, ...]


def _is_type1(edges: Sequence[Edge]) -> bool:
    # an edge meeting the anchor in a pair has one vertex outside it, and two
    # such edges meet outside the anchor iff those vertices coincide
    sets = [frozenset(e) for e in edges]
    for anchor in sets:
        outside = [f - anchor for f in sets if f != anchor]
        if all(len(o) == 1 for o in outside) and len(set(outside)) == len(outside):
            return True
    return False


def decompose(h: Hypergraph) -> tuple[Block, ...]:
    """Partition the edges into blocks, classified and with leaf edges marked.

    The blocks come in order of their least edge index.

    Union-find over edges keyed by their vertex pairs: edges sharing a pair
    share exactly two vertices, which is the chain relation. Per block, one
    vertex count gives the vertex set (its keys), the leaf edges (holding a
    vertex counted once) and the TYPE2 test (3 edges on 4 vertices).
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
        count = Counter(v for e in member_edges for v in e)
        leaves = tuple(
            i for i, (a, b, c) in zip(indices, member_edges) if count[a] == 1 or count[b] == 1 or count[c] == 1
        )
        if len(indices) == 3 and len(count) == 4:
            kind = BlockType.TYPE2
        else:
            kind = BlockType.TYPE1 if _is_type1(member_edges) else BlockType.OTHER
        blocks.append(Block(indices, frozenset(count), kind, leaves))
    return tuple(blocks)


def block_degrees(h: Hypergraph, blocks: Sequence[Block]) -> tuple[int, ...]:
    """Per-vertex count of blocks having some edge through the vertex."""
    out = [0] * h.n
    for block in blocks:
        for v in block.vertex_set:
            out[v] += 1
    return tuple(out)
