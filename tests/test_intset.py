import pickle
import tracemalloc

import pytest

from sumsetlab.errors import BadParams, CostCapExceeded
from sumsetlab.intset import (
    MAX_ELEMENT,
    SUBSUMS_WORK_CAP,
    ArithmeticProgression,
    DiffClosure4,
    DilatedOddProgression,
    IntegerSet,
    Other,
    SumClosure4,
    SumsetResult,
    classify_structure,
    subsums,
)
from sumsetlab.search import SearchSpace


class TestIntegerSet:
    def test_basic_construction(self):
        A = IntegerSet((-3, 0, 5))
        assert len(A) == 3 and A.min == -3
        assert list(A) == [-3, 0, 5]
        assert 0 in A and 1 not in A
        assert str(A) == "{-3,0,5}"

    def test_empty_rejected(self):
        with pytest.raises(BadParams, match="needs at least one element"):
            IntegerSet(())

    def test_unsorted_rejected(self):
        with pytest.raises(BadParams):
            IntegerSet((3, 1))

    def test_duplicates_rejected(self):
        with pytest.raises(BadParams):
            IntegerSet((1, 1, 2))

    def test_non_integer_rejected(self):
        with pytest.raises(BadParams):
            IntegerSet((1, True))

    def test_overflow(self):
        IntegerSet((MAX_ELEMENT,))
        with pytest.raises(BadParams, match=r"outside supported range \[-2\^40, 2\^40\]"):
            IntegerSet((MAX_ELEMENT + 1,))
        with pytest.raises(BadParams, match="outside supported range"):
            IntegerSet((-MAX_ELEMENT - 1, 0))

    def test_predicates(self):
        assert IntegerSet((1, 3, 9)).all_odd()
        assert not IntegerSet((1, 4)).all_odd()

    def test_remove(self):
        assert IntegerSet((1, 3, 9)).remove(3).elements == (1, 9)
        with pytest.raises(BadParams):
            IntegerSet((1, 3)).remove(2)
        with pytest.raises(BadParams, match="leaves an empty set"):
            IntegerSet((7,)).remove(7)


class TestSumsetResult:
    def test_from_values_dedupes_and_sorts(self):
        r = SumsetResult.from_values([3, -1, 3, 0])
        assert r.values == (-1, 0, 3) and r.cardinality == 3
        assert r.max == 3

    def test_validation(self):
        with pytest.raises(BadParams):
            SumsetResult((1, 2), 3)
        with pytest.raises(BadParams):
            SumsetResult((2, 1), 2)

    def test_contains_binary_search(self):
        r = SumsetResult.from_values(range(-10, 11, 2))
        assert all(v in r for v in range(-10, 11, 2))
        assert all(v not in r for v in range(-9, 10, 2))
        assert -11 not in r and 12 not in r


class TestHelpers:
    def test_subsums_exact(self):
        r = subsums(IntegerSet((1, 3, 5)))
        assert r.values == (0, 1, 3, 4, 5, 6, 8, 9)

    def test_subsums_with_negatives(self):
        r = subsums(IntegerSet((-2, 1)))
        assert r.values == (-2, -1, 0, 1)

    def test_subsums_cap(self):
        # k * min(2^k, sum|a| + 1) insertions: 255 * 32641 for 1..255 fits
        # the cap and 256 * 32897 for 1..256 does not.
        assert 255 * 32641 <= SUBSUMS_WORK_CAP < 256 * 32897
        assert subsums(IntegerSet(tuple(range(1, 256)))).cardinality == 32641
        with pytest.raises(CostCapExceeded, match="set insertions"):
            subsums(IntegerSet(tuple(range(1, 257))))
        # 30 powers of two: 2^30 sums, refused before any is built.
        with pytest.raises(CostCapExceeded, match="set insertions"):
            subsums(IntegerSet(tuple(1 << i for i in range(30))))

    def test_subsums_holds_no_copy_of_its_sums(self):
        # 18 powers of two: 2^18 distinct sums.  The sum set and the sorted
        # result alone peak near 20.4 MiB (Python 3.11); a deduplicating
        # copy of the set on the way out peaked at 34.0 MiB.
        A = IntegerSet(tuple(1 << i for i in range(18)))
        tracemalloc.start()
        try:
            assert subsums(A).cardinality == 1 << 18
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20


class TestClassification:
    def test_dilated_odd_progression(self):
        got = classify_structure(IntegerSet((3, 9, 15, 21)))
        assert got == DilatedOddProgression(3)
        assert got.reconstruct(4).elements == (3, 9, 15, 21)
        assert str(got) == "DilatedOddProgression(d=3)"

    def test_arithmetic_progression(self):
        got = classify_structure(IntegerSet((4, 7, 10)))
        assert got == ArithmeticProgression(4, 3)
        assert got.reconstruct(3).elements == (4, 7, 10)
        assert classify_structure(IntegerSet((0, 2, 4))) == ArithmeticProgression(0, 2)

    def test_sum_closure(self):
        got = classify_structure(IntegerSet((1, 3, 5, 9)))
        assert got == SumClosure4(1, 3, 5)

    def test_diff_closure(self):
        got = classify_structure(IntegerSet((1, 3, 7, 9)))
        assert got == DiffClosure4(1, 3, 7)

    @pytest.mark.parametrize(
        "member,k",
        [
            (DilatedOddProgression(3), 4),
            (ArithmeticProgression(0, 2), 5),
        ],
    )
    def test_match_inverts_reconstruct(self, member, k):
        family = type(member)
        assert family.match(member.reconstruct(k).elements) == member
        assert family.match((1, 2, 4, 8, 16)[:k]) is None
        assert Other.match((1, 2, 4, 8, 16)[:k]) == Other()

    def test_other(self):
        assert classify_structure(IntegerSet((1, 2, 7, 11))) == Other()

    def test_priority_odd_progression_over_closures(self):
        # {1,3,5,7} is also a difference closure (7 = 5+3-1) and an AP.
        assert classify_structure(IntegerSet((1, 3, 5, 7))) == DilatedOddProgression(1)

    def test_priority_ap_over_dilated_interval(self):
        # The dilated interval 2*{1,2,3,4} classifies as an AP.
        assert classify_structure(IntegerSet((2, 4, 6, 8))) == ArithmeticProgression(2, 2)

    def test_pairs_classify_as_progressions(self):
        assert classify_structure(IntegerSet((1, 3))) == DilatedOddProgression(1)
        assert classify_structure(IntegerSet((5, 9))) == ArithmeticProgression(5, 4)

    def test_too_small(self):
        with pytest.raises(BadParams, match="needs at least 2 elements"):
            classify_structure(IntegerSet((7,)))


class TestValueSemantics:
    """Each value class is a tuple of its fields, yet equals only its own
    class, is truthy, immutable and picklable: a plain NamedTuple would
    fail here."""

    VALUES = [
        IntegerSet((1, 3, 5)),
        SumsetResult((-2, 0, 2), 3),
        SearchSpace(4, 3, 9),
        DilatedOddProgression(1),
        ArithmeticProgression(0, 2),
        SumClosure4(1, 3, 5),
        DiffClosure4(1, 3, 7),
        Other(),
    ]

    def test_families_with_equal_fields_differ(self):
        # {0,1,2,3} is both a sum closure (3 = 0+1+2) and a difference
        # closure (3 = 2+1-0), with the same three fields.
        sums, diffs = SumClosure4.match((0, 1, 2, 3)), DiffClosure4.match((0, 1, 2, 3))
        assert sums == SumClosure4(0, 1, 2) and diffs == DiffClosure4(0, 1, 2)
        assert sums != diffs and not sums == diffs
        assert len({sums, diffs}) == 2

    def test_equal_only_to_its_own_class(self):
        A = IntegerSet((1, 3, 5))
        assert A == IntegerSet((1, 3, 5)) and hash(A) == hash(IntegerSet((1, 3, 5)))
        assert A != ((1, 3, 5),) and A != (1, 3, 5)
        assert ((1, 3, 5),) != A
        assert SearchSpace(4, 3, 9) == SearchSpace(k=4, h=3, max_element=9)
        assert SearchSpace(4, 3, 9) != (4, 3, 9, "positive", True, False)

    def test_other_is_truthy(self):
        assert bool(Other())
        assert all(self.VALUES)

    @pytest.mark.parametrize("value, name", [
        (IntegerSet((1, 3, 5)), "elements"),
        (SumsetResult((-2, 0, 2), 3), "cardinality"),
        (SearchSpace(4, 3, 9), "k"),
        (SumClosure4(1, 3, 5), "a1"),
        (Other(), "d"),
    ], ids=["IntegerSet", "SumsetResult", "SearchSpace", "SumClosure4", "Other"])
    def test_attributes_cannot_be_set(self, value, name):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            value.extra = 1

    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
    def test_pickle_round_trip(self, value):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and type(copy) is type(value)
