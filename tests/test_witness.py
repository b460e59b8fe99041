import dataclasses
import itertools
import random

import pytest

from conftest import (
    random_all_odd_instance,
    random_mixed_a2_instance,
    random_mixed_a3_instance,
    random_odd_subsums_instance,
    random_parity_split_instance,
)
from sumsetlab.bounds import bound_catalogue
from sumsetlab.errors import BadParams, HypothesisViolated
from sumsetlab.intset import IntegerSet
from sumsetlab.witness import (
    ALL_LEMMAS,
    WitnessFamily,
    WitnessPart,
    generate,
    ordering_guards_hold,
    witness_all_odd_extension,
    witness_mixed_parity_a2,
    witness_mixed_parity_a3,
    witness_odd_subsums,
    witness_parity_split,
)


def assert_family_valid(family):
    checks = family.verify()
    assert checks.disjoint, family.lemma
    assert checks.contained, family.lemma
    assert checks.total_matches, family.lemma
    assert ordering_guards_hold(family), family.lemma


class TestParitySplit:
    def test_reference_instance(self):
        fam = witness_parity_split(IntegerSet((2, 4, 5, 6, 8)), 4, 3)
        assert fam.claimed_total == 19  # h(h+1)/2 + 2h + 1 at h=4
        assert fam.baseline_set.elements == (2, 4, 6, 8)
        assert_family_valid(fam)

    def test_part_inventory(self):
        fam = witness_parity_split(IntegerSet((2, 4, 5, 6, 8)), 4, 3)
        names = [p.name for p in fam.parts]
        assert names[:5] == ["block-0", "block-1", "block-2", "block-3", "block-4"]
        assert names[5:] == ["pair-1", "pair-2", "pair-3", "pair-4"]
        assert all(len(p.values) == 2 for p in fam.parts[5:])

    def test_removable_index_matters(self):
        # r must name an element whose parity differs from the first.
        A = IntegerSet((2, 4, 5, 6, 8))
        witness_parity_split(A, 4, 3)
        with pytest.raises(HypothesisViolated):
            witness_parity_split(A, 4, 4)  # 6 shares parity with 2

    def test_hypothesis_checks(self):
        with pytest.raises(HypothesisViolated):
            witness_parity_split(IntegerSet((1, 3, 5, 7, 9)), 4, 3)  # all odd
        with pytest.raises(HypothesisViolated):
            witness_parity_split(IntegerSet((1, 2, 4, 6, 8)), 4, 3)  # first two differ
        with pytest.raises(HypothesisViolated):
            witness_parity_split(IntegerSet((2, 4, 5, 6)), 4, 3)  # k != h+1
        with pytest.raises(HypothesisViolated):
            witness_parity_split(IntegerSet((0, 2, 5, 6, 8)), 4, 3)  # not positive

    def test_random_instances(self):
        rng = random.Random(7)
        for _ in range(60):
            A, h, r = random_parity_split_instance(rng)
            assert_family_valid(witness_parity_split(A, h, r))


class TestOddSubsums:
    def test_h3_explicit(self):
        fam = witness_odd_subsums(IntegerSet((1, 3, 5)))
        assert fam.claimed_total == 8
        assert fam.parts[0].branch == "explicit-h3"
        assert fam.target_kind == "subsums"
        assert_family_valid(fam)

    def test_reference_instance(self):
        fam = witness_odd_subsums(IntegerSet((1, 3, 5, 7)))
        assert fam.claimed_total == 15  # h^2 - 1 at h=4
        assert_family_valid(fam)

    def test_both_filler_branches_occur(self):
        # Large top gap: the filler fits inside it; small gap: it goes above.
        fam = witness_odd_subsums(IntegerSet((1, 3, 5, 7, 19)))
        branches = {p.branch for p in fam.parts if p.name.startswith("gap-filler")}
        assert branches == {"inside-gap", "above-run"}
        assert_family_valid(fam)

    def test_hypothesis_checks(self):
        with pytest.raises(HypothesisViolated):
            witness_odd_subsums(IntegerSet((1, 3, 4)))
        with pytest.raises(HypothesisViolated):
            witness_odd_subsums(IntegerSet((1, 3)))
        with pytest.raises(HypothesisViolated):
            witness_odd_subsums(IntegerSet((-3, 1, 5)))

    def test_random_instances(self):
        rng = random.Random(8)
        for _ in range(60):
            A = random_odd_subsums_instance(rng)
            fam = witness_odd_subsums(A)
            assert fam.claimed_total == len(A) ** 2 - 1
            assert_family_valid(fam)


class TestMixedParityA3:
    def test_tied_branch(self):
        fam = witness_mixed_parity_a3(IntegerSet((1, 2, 4, 6)), 3)
        assert fam.claimed_total == 3 * 4 // 2 + 2 * 3 - 1  # 11
        branches = {p.branch for p in fam.parts if p.branch}
        assert branches == {"third-tied"}
        assert_family_valid(fam)

    def test_free_branch(self):
        fam = witness_mixed_parity_a3(IntegerSet((1, 2, 6, 8)), 3)
        assert fam.claimed_total == 3 * 4 // 2 + 3 * 3 - 2  # 13
        branches = {p.branch for p in fam.parts if p.branch}
        assert branches == {"third-free"}
        assert_family_valid(fam)

    def test_baseline_omits_first_element(self):
        fam = witness_mixed_parity_a3(IntegerSet((1, 2, 4, 6)), 3)
        assert fam.baseline_set.elements == (2, 4, 6)

    def test_hypothesis_checks(self):
        with pytest.raises(HypothesisViolated):
            witness_mixed_parity_a3(IntegerSet((1, 2, 5, 6)), 3)  # 3rd matches 1st
        with pytest.raises(HypothesisViolated):
            witness_mixed_parity_a3(IntegerSet((1, 3, 5, 7)), 3)  # 2nd matches 1st
        with pytest.raises(HypothesisViolated):
            witness_mixed_parity_a3(IntegerSet((1, 2, 4, 6)), 4)  # k != h+1

    def test_random_instances(self):
        rng = random.Random(9)
        for _ in range(60):
            A, h = random_mixed_a3_instance(rng)
            assert_family_valid(witness_mixed_parity_a3(A, h))


class TestMixedParityA2:
    def test_reference_instance(self):
        fam = witness_mixed_parity_a2(IntegerSet((1, 2, 3, 5, 7)), 4)
        assert fam.claimed_total == 4 * 5 // 2 + 4  # 14
        assert fam.baseline_set.elements == (1, 3, 5, 7)
        assert_family_valid(fam)

    def test_needs_four_folds(self):
        with pytest.raises(HypothesisViolated):
            witness_mixed_parity_a2(IntegerSet((1, 2, 3, 5)), 3)

    def test_hypothesis_checks(self):
        with pytest.raises(HypothesisViolated):
            witness_mixed_parity_a2(IntegerSet((1, 2, 4, 6, 8)), 4)  # 3rd differs too
        with pytest.raises(HypothesisViolated):
            witness_mixed_parity_a2(IntegerSet((1, 3, 5, 7, 9)), 4)  # 2nd matches

    def test_random_instances(self):
        rng = random.Random(10)
        for _ in range(60):
            A, h = random_mixed_a2_instance(rng)
            assert_family_valid(witness_mixed_parity_a2(A, h))


class TestAllOddExtension:
    def test_lower_candidate(self):
        fam = witness_all_odd_extension(IntegerSet((1, 3, 5, 7)), 3)
        assert fam.parts[-1].branch == "lower-candidate"
        # 8 inner values + 2*(4-1) trimmed fold copies + the extra pair
        assert fam.claimed_total == 8 + 6 + 2
        assert_family_valid(fam)

    def test_upper_candidate(self):
        fam = witness_all_odd_extension(IntegerSet((1, 3, 5, 9)), 3)
        assert fam.parts[-1].branch == "upper-candidate"
        assert_family_valid(fam)

    def test_no_baseline_set(self):
        fam = witness_all_odd_extension(IntegerSet((1, 3, 5, 7)), 3)
        assert fam.baseline_set is None and fam.baseline_values() is None

    def test_hypothesis_checks(self):
        with pytest.raises(HypothesisViolated):
            witness_all_odd_extension(IntegerSet((1, 3, 5, 8)), 3)  # even element
        with pytest.raises(HypothesisViolated):
            witness_all_odd_extension(IntegerSet((1, 3, 5)), 3)  # k != h+1

    def test_random_instances(self):
        rng = random.Random(11)
        for _ in range(60):
            A, h = random_all_odd_instance(rng)
            assert_family_valid(witness_all_odd_extension(A, h))


class TestVerifyCatchesTampering:
    """verify() is the machine check; it must flag every broken family."""

    def _base(self):
        return witness_odd_subsums(IntegerSet((1, 3, 5, 7)))

    def test_duplicate_across_parts(self):
        fam = self._base()
        first = fam.parts[1]
        doubled = fam.parts[:1] + (WitnessPart("rogue", first.values),) + fam.parts[1:]
        broken = WitnessFamily(
            fam.lemma, fam.base_set, fam.fold, fam.target_kind,
            doubled, fam.claimed_total + len(first.values),
        )
        checks = broken.verify()
        assert not checks.disjoint and checks.contained and checks.total_matches

    def test_foreign_value(self):
        fam = self._base()
        rogue = (WitnessPart("rogue", (10**6,)),)
        broken = WitnessFamily(
            fam.lemma, fam.base_set, fam.fold, fam.target_kind,
            fam.parts + rogue, fam.claimed_total + 1,
        )
        checks = broken.verify()
        assert checks.disjoint and not checks.contained and checks.total_matches

    def test_wrong_total(self):
        fam = self._base()
        broken = WitnessFamily(
            fam.lemma, fam.base_set, fam.fold, fam.target_kind,
            fam.parts, fam.claimed_total + 1,
        )
        checks = broken.verify()
        assert checks.disjoint and checks.contained and not checks.total_matches

    def test_baseline_overlap(self):
        # Re-point a parity-split family's baseline at the full set: every
        # part lies inside the full fold, so overlap is forced.
        fam = witness_parity_split(IntegerSet((2, 4, 5, 6, 8)), 4, 3)
        broken = WitnessFamily(
            fam.lemma, fam.base_set, fam.fold, fam.target_kind,
            fam.parts, fam.claimed_total, baseline_set=fam.base_set,
        )
        assert not broken.verify().disjoint

    def test_duplicate_within_part(self):
        fam = self._base()
        rogue = (WitnessPart("rogue", (77, 77)),)
        broken = WitnessFamily(
            fam.lemma, fam.base_set, fam.fold, fam.target_kind,
            fam.parts + rogue, fam.claimed_total + 2,
        )
        assert not broken.verify().disjoint


class TestOrderingGuards:
    """Each lemma's guard rejects a family with one part moved out of order."""

    @staticmethod
    def shifted(family, name, delta):
        parts = tuple(
            dataclasses.replace(p, values=tuple(v + delta for v in p.values))
            if p.name == name else p
            for p in family.parts
        )
        return dataclasses.replace(family, parts=parts)

    @pytest.mark.parametrize("family, name, delta", [
        (witness_parity_split(IntegerSet((2, 4, 5, 6, 8)), 4, 3), "block-0", 10**6),
        (witness_mixed_parity_a3(IntegerSet((1, 2, 6, 8)), 3), "block-0", 10**6),
        (witness_mixed_parity_a2(IntegerSet((1, 2, 3, 5, 7)), 4), "block-0", 10**6),
        (witness_odd_subsums(IntegerSet((1, 3, 5, 7, 11))), "run-1", 10**6),
        (witness_all_odd_extension(IntegerSet((1, 3, 5, 9)), 3), "upper-sums", -10**6),
    ], ids=lambda v: v.lemma if isinstance(v, WitnessFamily) else None)
    def test_moved_part_fails(self, family, name, delta):
        assert ordering_guards_hold(family)
        assert not ordering_guards_hold(self.shifted(family, name, delta))


class TestDispatchAndSerialization:
    def test_generate_all_lemmas(self):
        cases = {
            "parity-split": dict(A=IntegerSet((2, 4, 5, 6, 8)), h=4, r=3),
            "odd-subsums": dict(A=IntegerSet((1, 3, 5, 7))),
            "mixed-parity-a3": dict(A=IntegerSet((1, 2, 6, 8)), h=3),
            "mixed-parity-a2": dict(A=IntegerSet((1, 2, 3, 5, 7)), h=4),
            "all-odd-extension": dict(A=IntegerSet((1, 3, 5, 7)), h=3),
        }
        assert set(cases) == set(ALL_LEMMAS)
        for lemma, kwargs in cases.items():
            fam = generate(lemma, **kwargs)
            assert fam.lemma == lemma
            assert_family_valid(fam)

    def test_generate_requires_fold(self):
        with pytest.raises(HypothesisViolated):
            generate("parity-split", IntegerSet((2, 4, 5, 6, 8)))

    def test_generate_requires_r_for_parity_split(self):
        with pytest.raises(HypothesisViolated):
            generate("parity-split", IntegerSet((2, 4, 5, 6, 8)), h=4)

    def test_parity_split_requires_r_on_a_direct_call(self):
        # {2,4,5,6,8} meets MixedParity_case1 at h=4, so only r is missing.
        with pytest.raises(HypothesisViolated, match="needs the 1-based index r"):
            witness_parity_split(IntegerSet((2, 4, 5, 6, 8)), 4, None)

    def test_generate_rejects_fold_odd_subsums_does_not_read(self):
        A = IntegerSet((1, 3, 5, 7))
        with pytest.raises(BadParams, match="drop --h"):
            generate("odd-subsums", A, h=2)
        assert generate("odd-subsums", A, h=4).fold == 4

    @pytest.mark.parametrize("lemma", [x for x in ALL_LEMMAS if x != "parity-split"])
    def test_generate_rejects_r_outside_parity_split(self, lemma):
        with pytest.raises(BadParams, match="drop --r"):
            generate(lemma, IntegerSet((1, 3, 5, 7)), h=3, r=3)

    def test_hypothesis_error_names_lemma_and_hypotheses(self):
        with pytest.raises(HypothesisViolated) as exc:
            witness_mixed_parity_a2(IntegerSet((1, 2, 4, 6, 8)), 4)
        assert str(exc.value) == (
            "mixed-parity-a2 needs k = h+1, h >= 4, A positive, only the 2nd "
            "element differs in parity from the 1st; got A={1,2,4,6,8}, h=4"
        )

    def test_generate_unknown_lemma(self):
        with pytest.raises(HypothesisViolated):
            generate("no-such-lemma", IntegerSet((1, 3, 5)), h=3)

    def test_guards_reject_unknown_lemma(self):
        fam = witness_odd_subsums(IntegerSet((1, 3, 5)))
        bogus = WitnessFamily(
            "no-such-lemma", fam.base_set, fam.fold, fam.target_kind,
            fam.parts, fam.claimed_total,
        )
        with pytest.raises(HypothesisViolated):
            ordering_guards_hold(bogus)

    def test_to_dict_schema(self):
        fam = witness_odd_subsums(IntegerSet((1, 3, 5, 7)))
        doc = fam.to_dict(fam.verify())
        assert list(doc) == ["lemma", "parts", "total", "target_cardinality", "checks"]
        assert list(doc["parts"][0]) == ["name", "size", "branch"]
        assert list(doc["checks"]) == ["disjoint", "contained", "total_matches"]
        # 1+7 = 3+5 is the single collision among the 16 subset sums.
        assert doc["total"] == 15 and doc["target_cardinality"] == 15

    def test_lemma_certifies_lower_bound(self):
        # A passing family with a baseline certifies
        # |target| >= |baseline fold| + claimed_total.
        fam = witness_parity_split(IntegerSet((2, 4, 5, 6, 8)), 4, 3)
        target = fam.target_values().cardinality
        baseline = fam.baseline_values().cardinality
        assert target >= baseline + fam.claimed_total


def _violates(make) -> bool:
    try:
        make()
    except HypothesisViolated:
        return True
    return False


def test_generators_accept_exactly_their_catalogue_hypotheses():
    # Each generator must raise HypothesisViolated exactly when the catalogue
    # predicates its lemma rests on fail: the union of the MixedParity_case2
    # (case3) entries for mixed-parity-a3 (a2), RSS_base on all-odd sets for
    # all-odd-extension, Odd_k_eq_h at h = |A| for odd-subsums, and
    # MixedParity_case1 with an odd-one-out a_r, 3 <= r <= k, for parity-split.
    entries = {e.id: e for e in bound_catalogue()}

    def any_entry(prefix, A, h):
        return any(e.hypotheses(A, h) for i, e in entries.items() if i.startswith(prefix))

    checked = 0
    for k in range(1, 8):
        for combo in itertools.combinations(range(12), k):
            A = IntegerSet(combo)
            odd_ok = entries["Odd_k_eq_h"].hypotheses(A, k)
            assert _violates(lambda: witness_odd_subsums(A)) is not odd_ok, combo
            for h in range(1, 9):
                checked += 1
                case1 = entries["MixedParity_case1"].hypotheses(A, h)
                for r in range(1, k + 2):
                    ok = case1 and 3 <= r <= k and (combo[r - 1] - combo[0]) % 2 == 1
                    assert _violates(lambda: witness_parity_split(A, h, r)) is not ok, (combo, h, r)
                a3_ok = any_entry("MixedParity_case2", A, h)
                assert _violates(lambda: witness_mixed_parity_a3(A, h)) is not a3_ok, (combo, h)
                a2_ok = any_entry("MixedParity_case3", A, h)
                assert _violates(lambda: witness_mixed_parity_a2(A, h)) is not a2_ok, (combo, h)
                ext_ok = entries["RSS_base"].hypotheses(A, h) and A.all_odd()
                assert _violates(lambda: witness_all_odd_extension(A, h)) is not ext_ok, (combo, h)
    assert checked == 3301 * 8
