import pytest

from sumsetlab.errors import (
    BadParams,
    EmptyInput,
    Overflow,
    SizeCapExceeded,
    TooSmall,
    ZeroDilation,
)
from sumsetlab.intset import (
    MAX_ELEMENT,
    ArithmeticProgression,
    DiffClosure4,
    DilatedOddProgression,
    IntegerSet,
    Other,
    SumClosure4,
    SumsetResult,
    abs_set,
    canonicalize,
    classify_structure,
    dilate,
    subsums,
)


class TestIntegerSet:
    def test_basic_construction(self):
        A = IntegerSet((-3, 0, 5))
        assert len(A) == 3 and A.min == -3 and A.max == 5
        assert list(A) == [-3, 0, 5]
        assert 0 in A and 1 not in A
        assert str(A) == "{-3,0,5}"

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
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
        with pytest.raises(Overflow):
            IntegerSet((MAX_ELEMENT + 1,))
        with pytest.raises(Overflow):
            IntegerSet((-MAX_ELEMENT - 1, 0))

    def test_predicates(self):
        assert IntegerSet((1, 3, 9)).all_odd()
        assert not IntegerSet((1, 4)).all_odd()

    def test_remove(self):
        assert IntegerSet((1, 3, 9)).remove(3).elements == (1, 9)
        with pytest.raises(BadParams):
            IntegerSet((1, 3)).remove(2)
        with pytest.raises(EmptyInput):
            IntegerSet((7,)).remove(7)


class TestSumsetResult:
    def test_from_values_dedupes_and_sorts(self):
        r = SumsetResult.from_values([3, -1, 3, 0])
        assert r.values == (-1, 0, 3) and r.cardinality == 3
        assert r.min == -1 and r.max == 3

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
    def test_canonicalize(self):
        assert canonicalize([5, -2, 5, 0]).elements == (-2, 0, 5)
        with pytest.raises(EmptyInput):
            canonicalize([])

    def test_dilate(self):
        A = IntegerSet((1, 3, 5))
        assert dilate(A, 2).elements == (2, 6, 10)
        assert dilate(A, -1).elements == (-5, -3, -1)
        with pytest.raises(ZeroDilation):
            dilate(A, 0)

    def test_abs_set(self):
        assert abs_set(IntegerSet((-3, -1, 2))).elements == (1, 2, 3)
        assert abs_set(IntegerSet((-2, 2))).elements == (2,)

    def test_subsums_exact(self):
        r = subsums(IntegerSet((1, 3, 5)))
        assert r.values == (0, 1, 3, 4, 5, 6, 8, 9)

    def test_subsums_with_negatives(self):
        r = subsums(IntegerSet((-2, 1)))
        assert r.values == (-2, -1, 0, 1)

    def test_subsums_cap(self):
        subsums(IntegerSet(tuple(range(1, 31))))
        with pytest.raises(SizeCapExceeded):
            subsums(IntegerSet(tuple(range(1, 32))))


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
        with pytest.raises(TooSmall):
            classify_structure(IntegerSet((7,)))
