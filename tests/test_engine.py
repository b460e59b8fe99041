import itertools
import random
import tracemalloc

import pytest

from sumsetlab.engine import (
    MAX_FOLD,
    ORACLE_COST_CAP,
    TABLE_BITS_CAP,
    SumsetVariant,
    compute_dp,
    compute_oracle,
    count_dp,
    oracle_cost,
)
from sumsetlab.errors import BadParams, CostCapExceeded
from sumsetlab.intset import IntegerSet

ALL_VARIANTS = list(SumsetVariant)
RESTRICTED_VARIANTS = (SumsetVariant.RESTRICTED, SumsetVariant.RESTRICTED_SIGNED)


class TestVariantNames:
    def test_from_name(self):
        assert SumsetVariant.from_name("rss") is SumsetVariant.RESTRICTED_SIGNED
        assert SumsetVariant.from_name("plain") is SumsetVariant.PLAIN
        with pytest.raises(BadParams):
            SumsetVariant.from_name("bogus")


class TestFoldValidation:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_fold_below_one(self, variant):
        with pytest.raises(BadParams):
            compute_dp(IntegerSet((1, 2)), variant, 0)

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_fold_cap(self, variant):
        big = IntegerSet(tuple(range(1, MAX_FOLD + 2)))
        with pytest.raises(BadParams, match="exceeds supported cap 64"):
            compute_dp(big, variant, MAX_FOLD + 1)

    @pytest.mark.parametrize("variant", RESTRICTED_VARIANTS)
    def test_restricted_needs_enough_elements(self, variant):
        with pytest.raises(BadParams, match=r"needs h <= \|A\|"):
            compute_dp(IntegerSet((1, 2)), variant, 3)

    @pytest.mark.parametrize("variant", (SumsetVariant.PLAIN, SumsetVariant.SIGNED))
    def test_unrestricted_allows_h_over_k(self, variant):
        assert compute_dp(IntegerSet((1, 2)), variant, 3).cardinality > 0

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_table_budget(self, variant):
        # (h+1) * (2h * max|a| + 1) bits: 2^46 at h = 64 on {1, 2^40}, and
        # just over the budget at h = 1 on {1, 2^29}.
        with pytest.raises(CostCapExceeded):
            compute_dp(IntegerSet((1, 2**40)), variant, 2 if variant in RESTRICTED_VARIANTS else 64)
        with pytest.raises(CostCapExceeded):
            compute_dp(IntegerSet((-(2**29), 1)), variant, 1)
        assert 2 * (2 * 2**29 + 1) > TABLE_BITS_CAP >= 2 * (2 * (2**29 - 1) + 1)
        # Checked after the fold count, which is reported first.
        with pytest.raises(BadParams, match="exceeds supported cap 64"):
            compute_dp(IntegerSet((1, 2**40)), variant, MAX_FOLD + 1)


class TestKnownValues:
    def test_restricted_signed_extremal(self):
        # k=4, h=3 on the odd progression: 2hk - h^2 + 1 = 16.
        r = compute_dp(IntegerSet((1, 3, 5, 7)), SumsetVariant.RESTRICTED_SIGNED, 3)
        assert r.cardinality == 16

    def test_two_element_rss(self):
        r = compute_dp(IntegerSet((1, 2)), SumsetVariant.RESTRICTED_SIGNED, 2)
        assert r.values == (-3, -1, 1, 3)

    def test_plain_interval(self):
        # h{0,1,2} = [0, 2h]
        r = compute_dp(IntegerSet((0, 1, 2)), SumsetVariant.PLAIN, 4)
        assert r.values == tuple(range(9))

    def test_restricted_all_elements(self):
        r = compute_dp(IntegerSet((1, 4, 9)), SumsetVariant.RESTRICTED, 3)
        assert r.values == (14,)

    def test_signed_one_sign_per_element(self):
        # {1,2} at h=2: +-2, +-4, +-(1+2), +-(2-1); never 0 because +1 and
        # -1 cannot both be used for the same element.
        r = compute_dp(IntegerSet((1, 2)), SumsetVariant.SIGNED, 2)
        assert r.values == (-4, -3, -2, -1, 1, 2, 3, 4)

    def test_signed_symmetric(self):
        r = compute_dp(IntegerSet((2, 5, 6)), SumsetVariant.SIGNED, 3)
        assert r.values == tuple(-v for v in reversed(r.values))


class TestOracleCost:
    def test_formulas(self):
        import math

        assert oracle_cost(5, SumsetVariant.PLAIN, 3) == math.comb(7, 3)
        assert oracle_cost(5, SumsetVariant.RESTRICTED, 3) == math.comb(5, 3)
        assert oracle_cost(5, SumsetVariant.RESTRICTED_SIGNED, 3) == math.comb(5, 3) * 8
        # SIGNED k=2, h=2: (2,0) signs 2, (0,2) signs 2, (1,1) signs 4.
        assert oracle_cost(2, SumsetVariant.SIGNED, 2) == 8

    def test_cost_matches_signed_enumeration(self):
        # The closed form must count exactly the vectors the oracle visits.
        k, h = 3, 4
        count = 0
        for mags in itertools.product(range(h + 1), repeat=k):
            if sum(mags) != h:
                continue
            nonzero = sum(1 for m in mags if m)
            count += 2**nonzero
        assert count == oracle_cost(k, SumsetVariant.SIGNED, h)

    def test_cap_enforced(self):
        big = IntegerSet(tuple(range(1, 41)))
        assert oracle_cost(40, SumsetVariant.RESTRICTED_SIGNED, 30) > ORACLE_COST_CAP
        with pytest.raises(CostCapExceeded):
            compute_oracle(big, SumsetVariant.RESTRICTED_SIGNED, 30)


class TestDualRoutes:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_routes_agree_on_seeded_random_sets(self, variant):
        rng = random.Random(99)
        for _ in range(60):
            k = rng.randint(1, 5)
            elements = tuple(sorted(rng.sample(range(-9, 10), k)))
            A = IntegerSet(elements)
            h_hi = k if variant in RESTRICTED_VARIANTS else 5
            for h in range(1, h_hi + 1):
                assert compute_oracle(A, variant, h).values == (
                    compute_dp(A, variant, h).values
                ), (elements, variant, h)

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_routes_agree_on_wide_sets(self, variant):
        # Tables up to 30,000 bits wide: the values fall in several 4096-bit
        # decoding chunks, and some sit next to a chunk boundary.
        rng = random.Random(4096)
        cases = [(1, 2047, 2048), (-4096, -1, 4095)]
        cases += [tuple(sorted(rng.sample(range(-5000, 5001), 4))) for _ in range(20)]
        for elements in cases:
            A = IntegerSet(elements)
            for h in range(1, 4):
                expected = compute_oracle(A, variant, h)
                assert expected.values == compute_dp(A, variant, h).values, (
                    elements, variant, h,
                )
                assert expected.cardinality == count_dp(A, variant, h), (
                    elements, variant, h,
                )

    def test_routes_agree_with_zero_element(self):
        A = IntegerSet((-4, 0, 3))
        for variant in ALL_VARIANTS:
            for h in range(1, 4):
                assert (
                    compute_oracle(A, variant, h).values
                    == compute_dp(A, variant, h).values
                )


class TestFoldMemory:
    def test_count_peak_within_table_widths(self):
        # The restricted fold skips the layers no remaining element can lift
        # to the top and frees each layer once no later fold reads it, so a
        # count near 2^22 at h = 3 peaks under 4.5 widths of one layer table
        # (2h * max|a| + 1 bits); folding and keeping every layer took 5.4.
        A = IntegerSet((3, 2**21, 2**22 - 7, 2**22 - 1))
        h = 3
        width_bits = 2 * h * A.elements[-1] + 1
        tracemalloc.start()
        try:
            count_dp(A, SumsetVariant.RESTRICTED_SIGNED, h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 2 * 8 * peak <= 9 * width_bits, peak * 8 / width_bits
