"""Dense BC4-free constructions and a seeded random instance generator.

The dense family clones the right side of a C4-free bipartite incidence
graph: for every right vertex v a fresh v' is created and every graph edge
uv becomes the hyperedge {u, v, v'}. With the point/line incidence graph of
PG(2, q) this gives n = 3(q^2+q+1) vertices and (q+1)(q^2+q+1) edges.

Clone lemma: expand_to_hypergraph(g) is BC4-free iff g is C4-free. Two
distinct clone edges {u, v, v'} and {w, x, x'} meet, if at all, in their
left vertex (u = w) or in their right pair (v = x), never in both. Take a
Berge C4: distinct vertices p_1..p_4 and distinct edges e_1..e_4 with p_i
in e_(i-1) and e_i (indices mod 4), and call e_(i-1) & e_i the i-th
meeting. Two consecutive meetings are not both at a left vertex: both would
be the one left vertex of e_i, so p_i = p_(i+1). Two consecutive meetings
at right pairs are both at the one right pair of e_i, so three consecutive
ones would put p_i, p_(i+1), p_(i+2) in a set of two. So the meetings
alternate, and e_1..e_4 are the clone edges of uv, u'v, u'v', uv' for left
u != u' and right v != v': a C4 u v u' v' of g. Conversely, a C4 u v u' v'
of g lifts to the Berge C4 with vertices u, v, u', v' on the clone edges of
uv, u'v, u'v', uv'. So lower_bound_construction takes the BC4-freeness of
its output from is_c4_free on the incidence graph and does not run the
hypergraph detector.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import reduce
from itertools import product, repeat
from math import isqrt
from operator import or_
import random

from bergec4.berge import Bc4FreeBuilder
from bergec4.hypergraph import Hypergraph

# random_bc4free shuffles all C(n, 3) triples as 4-byte codes, so memory
# grows as n^3 but stays small (6.0 MB traced and 26 MB CLI max RSS at
# n = 200). The cap is set by time: the shuffle is n^3 work, and
# `random --n 200` takes about 0.5 s on a 2-vCPU VM (0.42 s of it in
# random_bc4free). The codes hold 8 bits per vertex id, 24 bits per entry,
# so the cap may not pass 256. Larger n is refused before anything is built.
RANDOM_MAX_N = 200

# projective_plane_incidence solves one linear equation per line over q x q
# field tables, so work grows as q^3, and is_c4_free's (q+1)(q^2+q+1) unions
# of (q^2+q+1)-bit sets make the C4 check about q^5 / 30 digit operations
# (q = 64: lower_bound_construction 0.45-0.7 s and a 75 MB traced peak
# in-process, and CLI `construct --q 64` 0.60-1.05 s and 109 MB max RSS, on
# a 2-vCPU Xeon VM); larger q is refused before the field is built.
CONSTRUCT_MAX_Q = 64


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph with 0-based ids on each side and no duplicate pairs."""

    left_count: int
    right_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        # bulk checks by column bounds and set size, which pass exactly when
        # the loop below does; the loop runs only to name the first bad pair
        edges = self.edges
        if edges:
            us, vs = zip(*edges)
            if (
                0 <= min(us)
                and max(us) < self.left_count
                and 0 <= min(vs)
                and max(vs) < self.right_count
                and len(set(edges)) == len(edges)
            ):
                return
        seen = set()
        for u, v in edges:
            if not (0 <= u < self.left_count and 0 <= v < self.right_count):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def is_c4_free(g: BipartiteGraph) -> bool:
    """True iff no two left vertices share two right neighbors.

    Left vertices a and b share right neighbors v and w iff b lies in both
    N(v) - {a} and N(w) - {a}. So g is C4-free iff, for every left a, the
    sets N(v) - {a} over the right neighbors v of a are pairwise disjoint,
    that is, iff the union of the N(v), which holds a once, has
    1 + sum(|N(v)| - 1) members. Each N(v) is a bitset of left vertices, so
    the test is E unions and one popcount per left vertex.
    """
    right = [0] * g.right_count
    left: list[list[int]] = [[] for _ in range(g.left_count)]
    for u, v in g.edges:
        right[v] |= 1 << u
        left[u].append(v)
    others = [m.bit_count() - 1 for m in right]  # |N(v)| - 1
    for a, vs in enumerate(left):
        union = reduce(or_, map(right.__getitem__, vs), 1 << a)
        if union.bit_count() - 1 != sum(map(others.__getitem__, vs)):
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


def _field_tables(q: int) -> tuple[list[list[int]], list[list[int]], list[int], list[int]]:
    """Tables (add, mul, neg, inv) of GF(q), q = p^k: add[a][b], mul[a][b], -a, 1/a.

    Element x stands for the polynomial whose coefficients, low to high, are
    the base-p digits of x; products are reduced modulo the first monic
    irreducible polynomial of degree k in _monic_polys order. inv[0] is 0,
    which has no inverse.
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
    neg = [row.index(0) for row in add]
    inv = [0] + [mul[x].index(1) for x in range(1, q)]
    return add, mul, neg, inv


def projective_plane_incidence(q: int) -> BipartiteGraph:
    """Point/line incidence graph of PG(2, q): (q^2+q+1) + (q^2+q+1) vertices.

    Both points and lines are the canonical projective triples over GF(q),
    (1, 0, 0), (x, 1, 0) and (x, y, 1) in that order; a point (x, y, z)
    lies on line (a, b, c) when ax + by + cz = 0. Each line's q + 1 points
    are solved for, one point form at a time, with the negation and inverse
    tables: q^3 work, not a test of every point/line pair. The relation is
    symmetric, so the points on line i are also the lines through point i;
    read that way the pairs come out in order, and sorting them is one
    linear pass. Two points share exactly one line, so the graph is C4-free
    (girth 6); is_c4_free confirms it for every q. Raises ValueError for a
    q that is not an int or above CONSTRUCT_MAX_Q.
    """
    if type(q) is not int:
        raise ValueError(f"q must be an int prime power, got {q!r}")
    if q > CONSTRUCT_MAX_Q:
        raise ValueError(f"q must be at most {CONSTRUCT_MAX_Q}, got {q}")
    add, mul, neg, inv = _field_tables(q)
    triples: list[tuple[int, int, int]] = [(1, 0, 0)]
    triples.extend((x, 1, 0) for x in range(q))
    triples.extend((x, y, 1) for x in range(q) for y in range(q))
    count = len(triples)
    if count != q * q + q + 1:
        raise RuntimeError(f"PG(2, {q}) has {count} points, expected {q * q + q + 1}")
    minus_inv = [neg[x] for x in inv]  # -1/x
    base = q + 1  # (x, y, 1) has index base + q*x + y, (x, 1, 0) has 1 + x
    edges = []
    for i, (a, b, c) in enumerate(triples):
        if a == 0:
            on = [0]  # (1, 0, 0)
            if b == 0:  # c = 1: every (x, 1, 0) and no (x, y, 1)
                on.extend(range(1, base))
            else:  # (x, y, 1) with y = -c/b, for every x
                on.extend(range(base + mul[c][minus_inv[b]], count, q))
        else:
            r = minus_inv[a]
            on = [1 + mul[b][r]]  # (x, 1, 0) with x = -b/a
            if b == 0:  # (x, y, 1) with x = -c/a, for every y
                start = base + q * mul[c][r]
                on.extend(range(start, start + q))
            else:  # (x, y, 1) with y = -(ax + c)/b, for every x
                ys = map(mul[minus_inv[b]].__getitem__, map(add[c].__getitem__, mul[a]))
                on.extend(map(int.__add__, range(base, count, q), ys))
        edges.extend(zip(repeat(i), on))
    g = BipartiteGraph(count, count, tuple(sorted(edges)))
    if g.edge_count != (q + 1) * count:
        raise RuntimeError(f"PG(2, {q}) has {g.edge_count} incidences, expected {(q + 1) * count}")
    if not is_c4_free(g):
        raise RuntimeError(f"incidence graph for q={q} is not C4-free")
    return g


def expand_to_hypergraph(g: BipartiteGraph) -> Hypergraph:
    """Clone the right side: every graph edge uv becomes the hyperedge {u, v, v'}.

    Vertex layout: the L left vertices keep ids 0..L-1, the R right
    originals take L..L+R-1 and their clones L+R..L+2R-1 in the same order.
    The result has L + 2R vertices and |E(g)| edges. Each triple is
    u < L + v < L + R + v, and the triples are distinct because g has no
    duplicate pair, so the Hypergraph is built without a second check.
    """
    left, right = g.left_count, g.right_count
    edges = tuple(sorted((u, left + v, left + right + v) for u, v in g.edges))
    return Hypergraph._trusted(left + 2 * right, edges, frozenset(edges))


def lower_bound_construction(q: int) -> Hypergraph:
    """Cloned projective-plane incidence hypergraph: dense and BC4-free.

    n = 3(q^2+q+1), |E| = (q+1)(q^2+q+1). BC4-freeness follows by the clone
    lemma (module docstring) from the C4 check that
    projective_plane_incidence runs for every q.
    """
    g = projective_plane_incidence(q)
    h = expand_to_hypergraph(g)
    count = q * q + q + 1
    if h.n != 3 * count or h.edge_count != (q + 1) * count:
        raise RuntimeError(f"construction for q={q} has n={h.n}, m={h.edge_count}")
    return h


def _shuffle(codes: array, seed: int) -> None:
    """Shuffle codes in place exactly as random.Random(seed).shuffle(codes) does.

    CPython's shuffle (Fisher-Yates, Knuth's Algorithm P) swaps each
    position i, from the top down to 1, with j = _randbelow(i + 1), which
    draws getrandbits(k), k = (i + 1).bit_length(), until a draw is at most
    i. This loop makes the same draws in the same order, so it gives the
    same permutation, but it binds getrandbits once and walks the positions
    in segments of constant k: there is no _randbelow call and no
    bit_length call per position.
    """
    getrandbits = random.Random(seed).getrandbits
    top = len(codes) - 1
    while top > 0:
        k = (top + 1).bit_length()
        low = (1 << (k - 1)) - 1  # the least i with (i + 1).bit_length() == k
        for i in range(top, low - 1, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            codes[i], codes[j] = codes[j], codes[i]
        top = low - 1


def random_bc4free(n: int, target_m: int, seed: int) -> Hypergraph:
    """Greedy random BC4-free hypergraph, reproducible for a fixed seed.

    All C(n, 3) triples are shuffled by _shuffle, a local Fisher-Yates loop
    on random.Random(seed) (Mersenne Twister, platform independent) that
    gives exactly the order random.Random(seed).shuffle gives, and added
    greedily while the result stays BC4-free, stopping at target_m or
    exhaustion. The sample is biased by the greedy order; it is a
    falsification-test generator, not a uniform one. Raises ValueError for
    n outside [3, RANDOM_MAX_N], a negative target_m, and any of the three
    that is not an int (a bool or a float included).

    Dead-pair lemma: whether a pair {x, y} closes a Berge C4 depends only on
    the pair and the current edges, through a Berge 3-path y -> w -> z -> x
    with distinct representatives (Bc4FreeBuilder). Such a path is still
    one after more edges are added, so once a pair closes a C4 it closes
    one for as long as edges are only added. The greedy never pops, so it
    remembers each pair that Bc4FreeBuilder.closing_pair names and skips
    every later triple through a remembered pair with three lookups; the
    kept edges are the same as with try_add on every triple. Each code
    decodes to a sorted triple that is not yet an edge, since every triple
    comes once, so a triple that closing_pair passes goes in with add,
    without a second check.

    Layout: triple a < b < c is the code a << 16 | b << 8 | c in one
    array("I"), filled in combinations(range(n), 3) order, and the memo is
    a bytearray indexed by x << 8 | y, so a candidate costs 4 bytes and a
    tuple is built only for a code that gets past the memo. The order is
    the tuple order: _shuffle draws the same random numbers as
    random.shuffle for any sequence of the same length and only swaps
    positions. That equality is what keeps every pinned output. The loop
    still takes about half of random_bc4free(80, C(80, 3), 1): 0.016 of
    0.030-0.035 s on a 2-vCPU Xeon VM, where random.shuffle took 0.029 s.
    """
    if type(n) is not int or not 3 <= n <= RANDOM_MAX_N:
        raise ValueError(f"n must be in [3, {RANDOM_MAX_N}] and an int, got {n!r}")
    if type(target_m) is not int or target_m < 0:
        raise ValueError(f"target_m must be >= 0 and an int, got {target_m!r}")
    if type(seed) is not int:
        raise ValueError(f"seed must be an int, got {seed!r}")
    builder = Bc4FreeBuilder(n)
    if target_m == 0:
        return builder.to_hypergraph()
    codes = array("I")
    for a in range(n - 2):
        for b in range(a + 1, n - 1):
            ab = a << 16 | b << 8
            codes.extend(range(ab + b + 1, ab + n))
    _shuffle(codes, seed)
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
        builder.add(t)
        if len(builder) >= target_m:
            break
    return builder.to_hypergraph()
