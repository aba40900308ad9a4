"""Dense BC4-free constructions and a seeded random instance generator.

The dense family clones the right side of a C4-free bipartite incidence
graph: for every right vertex v a fresh v' is created and every graph edge
uv becomes the hyperedge {u, v, v'}. With the point/line incidence graph of
PG(2, q) this gives n = 3(q^2+q+1) vertices and (q+1)(q^2+q+1) edges.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import combinations, product
from math import isqrt
import random

from bergec4.berge import Bc4FreeBuilder, is_bc4_free
from bergec4.hypergraph import Hypergraph

# random_bc4free shuffles all C(n, 3) triples as 4-byte codes, so memory
# grows as n^3 but stays small (6.0 MB traced and 26 MB CLI max RSS at
# n = 200). The cap is set by time: the shuffle is n^3 work, and
# `random --n 200` takes about 1.4 s on a 2-vCPU VM. The codes hold 8 bits
# per vertex id, 24 bits per entry, so the cap may not pass 256. Larger n
# is refused before anything is built.
RANDOM_MAX_N = 200

# projective_plane_incidence builds q x q field tables and tests all
# (q^2+q+1)^2 point/line pairs, so work grows as q^4 (q = 64: 2.2 s and a
# 50.5 MB traced peak in-process, and CLI `construct --q 64` 3.2 s and
# 119 MB max RSS, on a 2-vCPU Xeon VM); larger q is refused before the
# field is built.
CONSTRUCT_MAX_Q = 64


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph with 0-based ids on each side and no duplicate pairs."""

    left_count: int
    right_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < self.left_count and 0 <= v < self.right_count):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def is_c4_free(g: BipartiteGraph) -> bool:
    """True iff no two left vertices share two right neighbors."""
    nbrs: list[set[int]] = [set() for _ in range(g.left_count)]
    for u, v in g.edges:
        nbrs[u].add(v)
    for a, b in combinations(range(g.left_count), 2):
        if len(nbrs[a] & nbrs[b]) >= 2:
            return False
    return True


def _prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k and p prime, found by trial division."""
    if q < 2:
        raise ValueError(f"q={q} is not a prime power")
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    k, rest = 0, q
    while rest % p == 0:
        rest //= p
        k += 1
    if rest != 1:
        raise ValueError(f"q={q} is not a prime power")
    return p, k


def _poly_mod(f: list[int], g: list[int], p: int) -> list[int]:
    """Remainder of f modulo the monic g over GF(p); coefficients low to high."""
    r = list(f)
    dg = len(g) - 1
    for d in range(len(r) - 1, dg - 1, -1):
        c = r[d] % p
        if c:
            for i in range(dg + 1):
                r[d - dg + i] -= c * g[i]
    return [c % p for c in r[:dg]]


def _monic_polys(p: int, k: int):
    """Monic degree-k polynomials over GF(p), low to high, in search order.

    The order is lexicographic in (c_{k-1}, ..., c_1, r) with c_0 = -r mod p
    and r = 1..p-1, so the first irreducible one for q = 4, 8, 16 is
    x^2+x+1, x^3+x+1, x^4+x+1, and for q = p^2 it is x^2 - (least
    non-residue mod p).
    """
    for high in product(range(p), repeat=k - 1):
        for r in range(1, p):
            yield [(-r) % p, *reversed(high), 1]


def _is_irreducible(f: list[int], p: int) -> bool:
    """No monic factor of degree 1..deg(f)/2 divides f (trial division)."""
    k = len(f) - 1
    for d in range(1, k // 2 + 1):
        for low in product(range(p), repeat=d):
            if not any(_poly_mod(f, [*low, 1], p)):
                return False
    return True


def _field_tables(q: int) -> tuple[list[list[int]], list[list[int]]]:
    """Addition and multiplication tables (add[a][b], mul[a][b]) of GF(q), q = p^k.

    Element x stands for the polynomial whose coefficients, low to high, are
    the base-p digits of x; products are reduced modulo the first monic
    irreducible polynomial of degree k in _monic_polys order.
    """
    p, k = _prime_power(q)
    modulus = next(f for f in _monic_polys(p, k) if _is_irreducible(f, p))
    digits = [[(x // p**i) % p for i in range(k)] for x in range(q)]

    def value(coeffs: list[int]) -> int:
        return sum(c * p**i for i, c in enumerate(coeffs))

    def times(da: list[int], db: list[int]) -> int:
        prod = [0] * (2 * k - 1)
        for i, u in enumerate(da):
            for j, v in enumerate(db):
                prod[i + j] += u * v
        return value(_poly_mod(prod, modulus, p))

    add = [[value([(u + v) % p for u, v in zip(da, db)]) for db in digits] for da in digits]
    mul = [[times(da, db) for db in digits] for da in digits]
    return add, mul


def projective_plane_incidence(q: int) -> BipartiteGraph:
    """Point/line incidence graph of PG(2, q): (q^2+q+1) + (q^2+q+1) vertices.

    Both points and lines are the canonical projective triples over GF(q);
    a point (x, y, z) lies on line (a, b, c) when ax + by + cz = 0. Two
    points share exactly one line, so the graph is C4-free (girth 6); this
    is confirmed by a direct neighborhood check for q <= 16. Raises
    ValueError for q above CONSTRUCT_MAX_Q.
    """
    if q > CONSTRUCT_MAX_Q:
        raise ValueError(f"q must be at most {CONSTRUCT_MAX_Q}, got {q}")
    add, mul = _field_tables(q)
    triples: list[tuple[int, int, int]] = [(1, 0, 0)]
    triples.extend((x, 1, 0) for x in range(q))
    triples.extend((x, y, 1) for x in range(q) for y in range(q))
    count = len(triples)
    if count != q * q + q + 1:
        raise RuntimeError(f"PG(2, {q}) has {count} points, expected {q * q + q + 1}")
    edges = []
    for li, (a, b, c) in enumerate(triples):
        ma, mb, mc = mul[a], mul[b], mul[c]
        for pi, (x, y, z) in enumerate(triples):
            if add[add[ma[x]][mb[y]]][mc[z]] == 0:
                edges.append((pi, li))
    g = BipartiteGraph(count, count, tuple(sorted(edges)))
    if g.edge_count != (q + 1) * count:
        raise RuntimeError(f"PG(2, {q}) has {g.edge_count} incidences, expected {(q + 1) * count}")
    if q <= 16 and not is_c4_free(g):
        raise RuntimeError(f"incidence graph for q={q} is not C4-free")
    return g


def expand_to_hypergraph(g: BipartiteGraph) -> Hypergraph:
    """Clone the right side: every graph edge uv becomes the hyperedge {u, v, v'}.

    Vertex layout: the L left vertices keep ids 0..L-1, the R right
    originals take L..L+R-1 and their clones L+R..L+2R-1 in the same order.
    The result has L + 2R vertices and |E(g)| edges.
    """
    left, right = g.left_count, g.right_count
    edges = [(u, left + v, left + right + v) for u, v in g.edges]
    return Hypergraph(left + 2 * right, edges)


def lower_bound_construction(q: int) -> Hypergraph:
    """Cloned projective-plane incidence hypergraph: dense and BC4-free.

    n = 3(q^2+q+1), |E| = (q+1)(q^2+q+1); BC4-freeness is detector-checked
    at generation time for q <= 16.
    """
    g = projective_plane_incidence(q)
    h = expand_to_hypergraph(g)
    count = q * q + q + 1
    if h.n != 3 * count or h.edge_count != (q + 1) * count:
        raise RuntimeError(f"construction for q={q} has n={h.n}, m={h.edge_count}")
    if q <= 16 and not is_bc4_free(h):
        raise RuntimeError(f"construction for q={q} is not BC4-free")
    return h


def random_bc4free(n: int, target_m: int, seed: int) -> Hypergraph:
    """Greedy random BC4-free hypergraph, reproducible for a fixed seed.

    All C(n, 3) triples are shuffled with random.Random(seed) (Mersenne
    Twister, platform independent) and added greedily while the result stays
    BC4-free, stopping at target_m or exhaustion. The sample is biased by the
    greedy order; it is a falsification-test generator, not a uniform one.
    Raises ValueError for n outside [3, RANDOM_MAX_N].

    Dead-pair lemma: whether a pair {x, y} closes a Berge C4 depends only on
    the pair and the current edges, through a Berge 3-path y -> w -> z -> x
    with distinct representatives (Bc4FreeBuilder). Such a path is still
    one after more edges are added, so once a pair closes a C4 it closes
    one for as long as edges are only added. The greedy never pops, so it
    remembers each pair that Bc4FreeBuilder.closing_pair names and skips
    every later triple through a remembered pair with three lookups; the
    kept edges are the same as with try_add on every triple.

    Layout: triple a < b < c is the code a << 16 | b << 8 | c in one
    array("I"), filled in combinations(range(n), 3) order, and the memo is
    a bytearray indexed by x << 8 | y, so a candidate costs 4 bytes and a
    tuple is built only for a code that gets past the memo. The order is
    the tuple order: shuffle draws the same random numbers for any sequence
    of the same length and only swaps positions.
    """
    if not 3 <= n <= RANDOM_MAX_N:
        raise ValueError(f"n must be in [3, {RANDOM_MAX_N}], got {n}")
    if target_m < 0:
        raise ValueError(f"target_m must be >= 0, got {target_m}")
    builder = Bc4FreeBuilder(n)
    if target_m == 0:
        return builder.to_hypergraph()
    codes = array("I")
    for a in range(n - 2):
        for b in range(a + 1, n - 1):
            ab = a << 16 | b << 8
            codes.extend(range(ab + b + 1, ab + n))
    random.Random(seed).shuffle(codes)
    dead = bytearray(1 << 16)
    for code in codes:
        # the pairs ab, ac and bc
        if dead[code >> 8] or dead[code >> 8 & 0xFF00 | code & 0xFF] or dead[code & 0xFFFF]:
            continue
        t = (code >> 16, code >> 8 & 0xFF, code & 0xFF)
        pair = builder.closing_pair(t)
        if pair is not None:
            x, y = pair
            dead[x << 8 | y] = 1
            continue
        # closing_pair found no closing pair against these same edges, so
        # try_add keeps t
        builder.try_add(t)
        if len(builder) >= target_m:
            break
    return builder.to_hypergraph()
