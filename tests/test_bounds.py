import random
from fractions import Fraction
from math import floor, isqrt

import pytest

from oracles import bisect_upper_bound, combined_inequality_holds, without_isolated_vertices

from bergec4 import berge, bounds
from bergec4.berge import find_berge_cycle
from bergec4.bounds import (
    EdgeBound,
    HypothesisError,
    binom2,
    combined_inequality_sides,
    decimal_str,
    edge_ratio,
    upper_bound,
    verify_chain,
)
from bergec4.construct import lower_bound_construction, random_bc4free
from bergec4.hypergraph import Hypergraph


class TestBinom2:
    def test_integers(self):
        assert [binom2(k) for k in range(5)] == [0, 0, 1, 3, 6]

    def test_fractional_convention(self):
        assert binom2(Fraction(3, 2)) == Fraction(3, 8)
        assert binom2(Fraction(1, 2)) == Fraction(-1, 8)


class TestUpperBound:
    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            upper_bound(2)

    def test_rejects_non_int_n(self):
        for n in (3.5, 5.0, Fraction(5), True, "5"):
            with pytest.raises(ValueError, match="int n"):
                EdgeBound(n)

    def test_rejects_bad_places(self):
        bound = upper_bound(5)
        for places in (-1, -2, True, 2.0):
            with pytest.raises(ValueError, match="places"):
                bound.decimal(places)
            with pytest.raises(ValueError, match="places"):
                bound.enclosure(places)

    def test_equal_and_hashed_by_n(self):
        assert upper_bound(17) == EdgeBound(17) and upper_bound(17) != upper_bound(18)
        assert upper_bound(17) in {EdgeBound(17)} and upper_bound(17) not in {upper_bound(18)}

    def test_root_is_boundary_of_feasibility(self):
        for n in (3, 4, 5, 6, 7, 10, 16, 21, 50, 137):
            bound = upper_bound(n)
            f = bound.floor()
            assert combined_inequality_holds(n, f)
            assert not combined_inequality_holds(n, f + 1)
            lo, hi = bound.enclosure(9)
            assert combined_inequality_holds(n, lo)
            assert not combined_inequality_holds(n, hi + Fraction(1, 10**9))

    def test_agrees_with_bisection_oracle(self):
        for n in (3, 4, 7, 16, 33, 100):
            lo, hi = bisect_upper_bound(n)
            low, high = upper_bound(n).enclosure(12)
            assert low <= hi and lo <= high, n

    def test_expansion_matches_original_form(self):
        for n in range(3, 40):
            for m in list(range(0, 60, 3)) + [n, 4 * n]:
                lhs, rhs = combined_inequality_sides(n, m)
                assert (lhs <= rhs) == combined_inequality_holds(n, m)

    def test_rational_case(self):
        bound = upper_bound(16)  # exactly 48
        assert bound.floor() == 48
        assert bound.decimal(6) == "48.000000"
        assert bound.enclosure(6)[0] == 48

    def test_decimal_matches_float(self):
        # the rounded decimal lies within half a unit in its last place of
        # the value, which the enclosure pins down exactly
        half = Fraction(1, 2 * 10**6)
        for n in (3, 4, 5, 21, 100, 12345):
            lo, hi = upper_bound(n).enclosure(12)
            got = Fraction(upper_bound(n).decimal(6))
            assert lo - half <= got <= hi + half, n

    def test_decimal_ties_round_half_up(self):
        # rational bounds can sit exactly half way between two renderings;
        # compare with round-half-up of the exact value, formatted here
        ties = 0
        for n in range(3, 20_001):
            s = isqrt(40 * n + 585)
            if s * s != 40 * n + 585:
                continue
            value = Fraction(n * (25 + s), 20)
            for places in range(4):
                scale = 10**places
                scaled = value * scale
                ties += scaled.denominator == 2
                q = floor(scaled + Fraction(1, 2))
                want = str(q // scale) + (f".{q % scale:0{places}d}" if places else "")
                assert upper_bound(n).decimal(places) == want, (n, places)
        assert ties == 21
        assert upper_bound(91).enclosure(12)[0] == Fraction(819, 2)
        assert upper_bound(91).decimal(0) == "410"

    def test_ordering_matches_expanded_quadratic(self):
        # the floor and the enclosure's low end satisfy the combined
        # inequality (m >= 0); floor + 1 and the high end, both above the
        # bound, do not
        for n in range(3, 2_001):
            bound = upper_bound(n)
            f = bound.floor()
            lo, hi = bound.enclosure(12)
            assert combined_inequality_holds(n, f) and combined_inequality_holds(n, lo), n
            assert not combined_inequality_holds(n, f + 1) and not combined_inequality_holds(n, hi), n

    def test_strictly_monotone(self):
        # consecutive bounds differ by more than 1, so coarse enclosures decide
        prev_hi = None
        for n in range(3, 101):
            lo, hi = upper_bound(n).enclosure(6)
            if prev_hi is not None:
                assert lo > prev_hi
            prev_hi = hi

    def test_normalized_limit_one_sided(self):
        # value * sqrt(10) / n^1.5 stays above 1 and decreases toward it;
        # compared squared, as 10 * value^2 / n^3, on the enclosure's low end
        prev = None
        for n in (10, 100, 1000, 10**4, 10**5, 10**6):
            lo = upper_bound(n).enclosure(12)[0]
            ratio = 10 * lo * lo / n**3
            assert ratio > 1
            if prev is not None:
                assert ratio < prev
            prev = ratio
        assert ratio < Fraction(102, 100) ** 2


class TestEdgeRatio:
    def test_examples(self):
        assert edge_ratio(21, 21) == Fraction(218217890236, 10**12)
        assert edge_ratio(5, 0) == 0
        assert edge_ratio(1, 1) == 1

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            edge_ratio(0, 1)
        with pytest.raises(ValueError):
            edge_ratio(3, -1)

    def test_rounding_against_float(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 10**6)
            m = rng.randint(0, 4 * n)
            got = edge_ratio(n, m)
            want = m / n**1.5
            assert abs(float(got) - want) <= 1e-11 * max(want, 1e-12)

    def test_twelve_significant_digits(self):
        r = edge_ratio(3, 1)  # 1/sqrt(27) = 0.19245008972987...
        assert r == Fraction(19245008973, 10**11)

    def test_half_way_tie_rounds_up(self):
        # 1234567890125 / 10^6 = 1234567.890125 exactly, 13 significant digits
        assert edge_ratio(10**4, 1234567890125) == Fraction(123456789013, 10**5)

    def test_rounds_above_twelve_digits(self):
        # value 12345678901250 has 14 digits, so the last two are rounded away
        assert edge_ratio(1, 12345678901250) == 12345678901300

    def test_tiny_values_keep_twelve_digits(self):
        # 1/sqrt(10^63) = 3.16227766016837...e-32
        assert edge_ratio(10**21, 1) == Fraction(316227766017, 10**43)
        assert edge_ratio(10**20, 1) == Fraction(1, 10**30)


class TestDecimalStr:
    def test_plain(self):
        assert decimal_str(Fraction(3, 8)) == "0.375"
        assert decimal_str(Fraction(-3, 8)) == "-0.375"
        assert decimal_str(Fraction(5)) == "5"
        assert decimal_str(Fraction(0)) == "0"

    def test_fixed_places(self):
        assert decimal_str(Fraction(3, 8), 6) == "0.375000"
        assert decimal_str(Fraction(48), 6) == "48.000000"

    def test_rejects_non_decimal(self):
        with pytest.raises(ValueError):
            decimal_str(Fraction(1, 3))

    def test_too_few_places(self):
        with pytest.raises(ValueError, match="^3/8 needs 3 decimal places, got 1$"):
            decimal_str(Fraction(3, 8), 1)

    def test_long_power_denominators(self):
        assert decimal_str(Fraction(1, 2**40)) == f"0.{5**40:040d}"
        assert decimal_str(Fraction(1, 5**17)) == f"0.{2**17:017d}"

    def test_rejects_mixed_denominator(self):
        with pytest.raises(ValueError, match="no finite decimal expansion"):
            decimal_str(Fraction(1, 3 * 2**10))


class TestJensenSteps:
    def test_mean_binomial_below_average_binomial(self):
        # pure convexity, no hypergraph hypothesis needed
        rng = random.Random(11)
        for _ in range(200):
            k = rng.randint(1, 12)
            values = [Fraction(rng.randint(0, 30), rng.randint(1, 4)) for _ in range(k)]
            mean = sum(values) / k
            assert k * binom2(mean) <= sum(binom2(x) for x in values)


class TestVerifyChain:
    def test_k4_minus_values(self, k4_minus):
        report = verify_chain(k4_minus)
        assert report.all_pass()
        assert report.three_path_bound.lhs == 12
        assert report.three_path_bound.rhs == 75
        assert report.excess_total.lhs == 3 and report.excess_total.rhs == 3
        assert report.jensen_shadow.lhs == 12

    def test_single_edge_block_total(self, single_edge):
        report = verify_chain(single_edge)
        assert report.block_total.lhs == 3 and report.block_total.rhs == 1
        assert report.all_pass()

    def test_refuses_berge_c4(self, k4_full):
        with pytest.raises(HypothesisError) as info:
            verify_chain(k4_full)
        assert info.value.reason == "berge_c4_present"
        assert info.value.witness is not None

    def test_verify_chain_decides_with_builder(self, k4_minus, k4_full, monkeypatch):
        # the verdict is is_bc4_free's; the length-4 walk only builds the refusal witness
        def no_walk(h, p2e, k):
            raise AssertionError("length-4 walk entered on a BC4-free input")

        with monkeypatch.context() as patch:
            patch.setattr(berge, "_cycle_candidates", no_walk)
            assert verify_chain(k4_minus).all_pass()
        with pytest.raises(HypothesisError) as info:
            verify_chain(k4_full)
        assert info.value.witness == find_berge_cycle(k4_full, 4)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError, match="n >= 3"):
            verify_chain(Hypergraph(2, []))

    def test_refuses_isolated_vertices(self):
        with pytest.raises(HypothesisError) as info:
            verify_chain(Hypergraph(5, [(0, 1, 2)]))
        assert info.value.reason == "isolated_vertices"

    def test_refusals_skip_chain_structures(self, k4_full, monkeypatch):
        def not_built(h):
            raise AssertionError("chain structure built for a refused input")

        monkeypatch.setattr(bounds, "shadow", not_built)
        monkeypatch.setattr(bounds, "decompose", not_built)
        for h in (k4_full, Hypergraph(5, [(0, 1, 2)])):
            with pytest.raises(HypothesisError):
                verify_chain(h)

    def test_passes_on_generated_instances(self):
        for seed in range(15):
            h = without_isolated_vertices(random_bc4free(12, 14, seed))
            if h.n < 3 or h.edge_count == 0:
                continue
            assert verify_chain(h).all_pass()

    def test_passes_on_small_constructions(self):
        for q in (2, 3):
            assert verify_chain(lower_bound_construction(q)).all_pass()
