"""Property-based checks of the algebraic identities the engine must obey."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sumsetlab.engine import SumsetVariant, compute_dp, compute_oracle
from sumsetlab.intset import (
    ArithmeticProgression,
    DilatedOddProgression,
    IntegerSet,
    abs_set,
    canonicalize,
    classify_structure,
    dilate,
    subsums,
)

ALL_VARIANTS = (
    SumsetVariant.PLAIN,
    SumsetVariant.RESTRICTED,
    SumsetVariant.SIGNED,
    SumsetVariant.RESTRICTED_SIGNED,
)

int_sets = st.lists(
    st.integers(-30, 30), min_size=1, max_size=6, unique=True
).map(lambda v: IntegerSet(tuple(sorted(v))))

positive_sets = st.lists(
    st.integers(1, 40), min_size=1, max_size=6, unique=True
).map(lambda v: IntegerSet(tuple(sorted(v))))

folds = st.integers(1, 5)

variants = st.sampled_from(ALL_VARIANTS)


def admissible(variant, A, h):
    if variant in (SumsetVariant.RESTRICTED, SumsetVariant.RESTRICTED_SIGNED):
        return h <= len(A)
    return True


@settings(max_examples=150, deadline=None)
@given(int_sets, folds, variants)
def test_oracle_equals_dp(A, h, variant):
    assume(admissible(variant, A, h))
    assert compute_oracle(A, variant, h).values == compute_dp(A, variant, h).values


@settings(max_examples=150, deadline=None)
@given(int_sets, folds, variants, st.sampled_from((-3, -2, -1, 2, 3)))
def test_dilation_equivariance(A, h, variant, c):
    assume(admissible(variant, A, h))
    direct = compute_dp(dilate(A, c), variant, h).values
    scaled = tuple(sorted(c * x for x in compute_dp(A, variant, h).values))
    assert direct == scaled


@settings(max_examples=150, deadline=None)
@given(int_sets, folds, st.sampled_from((SumsetVariant.SIGNED, SumsetVariant.RESTRICTED_SIGNED)))
def test_signed_folds_are_symmetric(A, h, variant):
    assume(admissible(variant, A, h))
    values = compute_dp(A, variant, h).values
    assert values == tuple(sorted(-x for x in values))


@settings(max_examples=150, deadline=None)
@given(int_sets, folds)
def test_abs_identity(A, h):
    assume(h <= len(A))
    assume(not any(-x in A for x in A if x != 0))
    B = abs_set(A)
    assume(len(B) == len(A))
    lhs = compute_dp(A, SumsetVariant.RESTRICTED_SIGNED, h).values
    rhs = compute_dp(B, SumsetVariant.RESTRICTED_SIGNED, h).values
    assert lhs == rhs


@settings(max_examples=150, deadline=None)
@given(int_sets, folds)
def test_containment_chain(A, h):
    assume(h <= len(A))
    negA = IntegerSet(tuple(sorted(-x for x in A)))
    plus = set(compute_dp(A, SumsetVariant.RESTRICTED, h).values)
    minus = set(compute_dp(negA, SumsetVariant.RESTRICTED, h).values)
    rss = set(compute_dp(A, SumsetVariant.RESTRICTED_SIGNED, h).values)
    signed = set(compute_dp(A, SumsetVariant.SIGNED, h).values)
    assert plus | minus <= rss <= signed


@settings(max_examples=150, deadline=None)
@given(int_sets)
def test_full_fold_identity(A):
    # Folding every element reduces to a signed choice per element, i.e. the
    # subset-sum lattice shifted to be symmetric about zero.
    h = len(A)
    total = sum(A.elements)
    expected = tuple(sorted(2 * s - total for s in subsums(A).values))
    assert compute_dp(A, SumsetVariant.RESTRICTED_SIGNED, h).values == expected


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.integers(0, 20).map(lambda i: 2 * i + 1), min_size=1, max_size=6, unique=True
    ).map(lambda v: IntegerSet(tuple(sorted(v)))),
    folds,
)
def test_all_odd_parity(A, h):
    assume(h <= len(A))
    values = compute_dp(A, SumsetVariant.RESTRICTED_SIGNED, h).values
    assert all((x - h) % 2 == 0 for x in values)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=8))
def test_canonicalize_idempotent(values):
    A = canonicalize(values)
    assert A.elements == tuple(sorted(set(values)))
    assert canonicalize(A.elements).elements == A.elements


@settings(max_examples=150, deadline=None)
@given(int_sets, st.sampled_from((-3, -1, 2, 5)))
def test_dilate_round_trip(A, c):
    assert dilate(dilate(A, c), 1).elements == tuple(sorted(c * x for x in A))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-40, 40), min_size=2, max_size=6, unique=True))
def test_classification_reconstructs_to_the_same_set(values):
    A = IntegerSet(tuple(sorted(values)))
    cls = classify_structure(A)
    if isinstance(cls, (DilatedOddProgression, ArithmeticProgression)):
        assert cls.reconstruct(len(A)).elements == A.elements


@settings(max_examples=100, deadline=None)
@given(positive_sets, folds)
def test_restricted_fold_lives_inside_subsums(A, h):
    # Every h-subset sum is in particular a subset sum.
    assume(h <= len(A))
    plus = set(compute_dp(A, SumsetVariant.RESTRICTED, h).values)
    assert plus <= set(subsums(A).values)
