"""Exact verification of the six-inequality chain and the implied edge bound.

All sides are evaluated in exact integer/rational arithmetic; the fractional
binomial convention is C(x, 2) = x(x-1)/2 so that averages can be plugged in.
Combining the chain gives the quadratic 10E^2 - 25nE - n^2(n-1) <= 0 in the
edge count E, whose largest root n(25 + sqrt(40n + 585))/20 is carried
exactly by EdgeBound, which gives it out only as its integer floor, a
rational enclosure or a rounded decimal string.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Sequence

from bergec4.berge import BergeCycleWitness, find_berge_cycle
from bergec4.blocks import block_degrees, decompose
from bergec4.hypergraph import Hypergraph, count_three_paths, shadow


class HypothesisError(ValueError):
    """Input violates a standing hypothesis (Berge C4 present, isolated vertex)."""

    def __init__(self, reason: str, message: str, witness: BergeCycleWitness | None = None):
        super().__init__(message)
        self.reason = reason
        self.witness = witness


def binom2(x: Fraction | int) -> Fraction:
    """C(x, 2) = x(x-1)/2, defined for fractional x."""
    x = Fraction(x)
    return x * (x - 1) / 2


@dataclass(frozen=True)
class InequalityCheck:
    label: str
    lhs: Fraction
    rhs: Fraction
    relation: str  # "<=" or ">="
    passed: bool


def good_paths_bound(n: int, db: Sequence[int]) -> int:
    """2*C(n, 2) - 4 * sum over v of C(d_B(v), 2): the bound on good 3-paths.

    db holds the block degree d_B(v) of every vertex. The census checks its
    good 3-path total against this; the chain's three_path_bound adds 21m.
    """
    return n * (n - 1) - 2 * sum(d * (d - 1) for d in db)


def check_inequality(label: str, lhs, rhs, relation: str) -> InequalityCheck:
    lhs, rhs = Fraction(lhs), Fraction(rhs)
    ok = lhs <= rhs if relation == "<=" else lhs >= rhs
    return InequalityCheck(label, lhs, rhs, relation, ok)


@dataclass(frozen=True)
class EdgeBound:
    """Largest E with n*C(4E/n,2) + 4n*C(E/n,2) <= 2*C(n,2) + 21E, kept exact.

    The value is n(25 + sqrt(D))/20 with D = 40n + 585. The integer floor,
    the enclosure and the decimal rendering all go through _scaled_floor
    (floor(value * s) by an integer square root), so no floating point is
    involved. Equality and hashing come from the dataclass, by n.
    """

    n: int

    def __post_init__(self):
        if type(self.n) is not int or self.n < 3:
            raise ValueError(f"edge bound requires an int n >= 3, got {self.n!r}")

    def _scaled_floor(self, scale: int) -> int:
        # floor(value * scale) via floor((25*n*scale + sqrt(D*(n*scale)^2)) / 20)
        t = self.n * scale
        return (25 * t + isqrt((40 * self.n + 585) * t * t)) // 20

    def floor(self) -> int:
        return self._scaled_floor(1)

    def enclosure(self, places: int = 12) -> tuple[Fraction, Fraction]:
        """Rational lo <= value <= hi with hi - lo = 10**-places."""
        scale = _decimal_scale(places)
        lo = Fraction(self._scaled_floor(scale), scale)
        return lo, lo + Fraction(1, scale)

    def decimal(self, places: int) -> str:
        """Decimal rendering, round-to-nearest (ties, only possible for
        rational values, round half up)."""
        scale = _decimal_scale(places)
        # floor((floor(10*v*scale) + 5) / 10) = floor(v*scale + 1/2), exactly
        rounded = (self._scaled_floor(10 * scale) + 5) // 10
        return decimal_str(Fraction(rounded, scale), places)


def _decimal_scale(places: int) -> int:
    """10**places, refusing what is not an int >= 0 (10**-1 would be a float)."""
    if type(places) is not int or places < 0:
        raise ValueError(f"places must be an int >= 0, got {places!r}")
    return 10**places


def upper_bound(n: int) -> EdgeBound:
    """Exact largest edge count satisfying the combined chain inequality."""
    return EdgeBound(n)


def combined_inequality_sides(n: int, m: Fraction | int) -> tuple[Fraction, Fraction]:
    """Both sides of the combined inequality in its original binomial form."""
    m = Fraction(m)
    lhs = n * binom2(4 * m / n) + 4 * n * binom2(Fraction(m, n))
    rhs = 2 * binom2(n) + 21 * m
    return lhs, rhs


def decimal_str(x: Fraction, places: int | None = None) -> str:
    """Exact decimal string of a fraction whose denominator divides a power of 10.

    With places given, pads/uses exactly that many digits after the point.
    """
    sign = "-" if x < 0 else ""
    x = abs(x)
    den = x.denominator
    # 2^k * 5^j divides 10^max(k, j), and max(k, j) is below its bit length
    digits = next((d for d in range(den.bit_length()) if 10**d % den == 0), None)
    if digits is None:
        raise ValueError(f"{x} has no finite decimal expansion")
    if places is not None:
        if places < digits:
            raise ValueError(f"{x} needs {digits} decimal places, got {places}")
        digits = places
    scaled = x * 10**digits
    if scaled.denominator != 1:
        raise RuntimeError(f"{x} scaled by 10**{digits} is not an integer")
    text = str(scaled.numerator).rjust(digits + 1, "0")
    if digits == 0:
        return sign + text
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def edge_ratio(n: int, m: int) -> Fraction:
    """m / n^(3/2) rounded to nearest at 12 significant digits (ties round up).

    Exact: the value is sqrt(m^2 n)/n^2, its decimal exponent is found by
    integer comparisons (exact for any n >= 1 and m >= 0), and the rounding
    goes through an integer square root.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if m == 0:
        return Fraction(0)
    # decimal exponent k of a/b = m^2/n^3 = value^2: 10^k <= a/b < 10^(k+1)
    a, b = m * m, n**3
    k = (a.bit_length() - b.bit_length()) * 30103 // 100000  # log10(2) ~ 0.30103
    while a * 10 ** max(-k, 0) < b * 10 ** max(k, 0):
        k -= 1
    while a * 10 ** max(-k - 1, 0) >= b * 10 ** max(k + 1, 0):
        k += 1
    shift = k // 2 - 11  # 12 significant digits
    up, down = 10 ** max(-shift, 0), n * n * 10 ** max(shift, 0)
    # round half up on sqrt(m^2 n) * up / down
    mantissa = (isqrt(4 * m * m * n * up * up) + down) // (2 * down)
    return mantissa * Fraction(10) ** shift


@dataclass(frozen=True)
class BoundReport:
    """Both sides of every inequality in the chain, plus the edge bound for n."""

    n: int
    edge_count: int
    three_path_bound: InequalityCheck
    excess_total: InequalityCheck
    block_total: InequalityCheck
    jensen_shadow: InequalityCheck
    jensen_block: InequalityCheck
    combined: InequalityCheck
    upper_bound_n: EdgeBound

    def checks(self) -> tuple[InequalityCheck, ...]:
        return (
            self.three_path_bound,
            self.excess_total,
            self.block_total,
            self.jensen_shadow,
            self.jensen_block,
            self.combined,
        )

    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks())


def verify_chain(h: Hypergraph) -> BoundReport:
    """Evaluate the full inequality chain on a BC4-free hypergraph.

    Refuses (HypothesisError) when the input has an isolated vertex or
    contains a Berge C4; the chain is only claimed under those hypotheses.
    The isolated-vertex message names at most ten ids.
    find_berge_cycle(h, 4) decides, with is_bc4_free's verdict (the
    builder's pinned-edge check), and walks only a refused input, for the
    canonical witness carried by the error.
    """
    if h.n < 3:
        raise ValueError(f"chain verification requires n >= 3, got {h.n}")
    isolated = h.isolated_vertices()
    if isolated:
        # name at most ten ids, so the refusal stays small on any input
        many = len(isolated) > 10
        what = f"{len(isolated)} isolated vertices, the first 10" if many else "isolated vertices"
        raise HypothesisError("isolated_vertices", f"hypergraph has {what} {list(isolated[:10])}")
    witness = find_berge_cycle(h, 4)
    if witness is not None:
        raise HypothesisError(
            "berge_c4_present",
            f"hypergraph contains a Berge C4 on vertices {witness.vertices}",
            witness,
        )
    n, m = h.n, h.edge_count
    adj = shadow(h)
    db = block_degrees(h, decompose(h))
    three_paths = count_three_paths(adj)
    # sum of C(d, 2) as one integer, then one Fraction: not one Fraction per vertex
    db_binom = Fraction(sum(d * (d - 1) for d in db), 2)
    return BoundReport(
        n=n,
        edge_count=m,
        three_path_bound=check_inequality(
            "three_path_bound", three_paths, good_paths_bound(n, db) + 21 * m, "<="
        ),
        # the excess degrees sum to the shadow degrees less 3 per edge
        excess_total=check_inequality("excess_total", sum(map(len, adj)) - 3 * m, m, ">="),
        block_total=check_inequality("block_total", sum(db), m, ">="),
        jensen_shadow=check_inequality(
            "jensen_shadow", n * binom2(Fraction(4 * m, n)), three_paths, "<="
        ),
        jensen_block=check_inequality("jensen_block", n * binom2(Fraction(m, n)), db_binom, "<="),
        combined=check_inequality("combined", *combined_inequality_sides(n, m), "<="),
        upper_bound_n=EdgeBound(n),
    )
