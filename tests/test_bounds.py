import ast
import json
import operator
from fractions import Fraction

import pytest

from sumsetlab.bounds import bound_catalogue, catalogue_entry, catalogue_to_json, check_bounds
from sumsetlab.engine import SumsetVariant, compute_dp
from sumsetlab.errors import BadParams, SumsetLabError, VariantMismatch
from sumsetlab.intset import ArithmeticProgression, DilatedOddProgression, IntegerSet

RSS = SumsetVariant.RESTRICTED_SIGNED
R = SumsetVariant.RESTRICTED


def entry(entry_id: str):
    matches = [e for e in bound_catalogue() if e.id == entry_id]
    assert len(matches) == 1, entry_id
    return matches[0]


def rss_reports(elements, h):
    A = IntegerSet(elements)
    return check_bounds(A, h, compute_dp(A, RSS, h).cardinality)


_BINARY_OPS = {ast.Add: operator.add, ast.Sub: operator.sub,
               ast.Mult: operator.mul, ast.Div: operator.truediv}


def evaluate_formula_text(text: str, k: int, h: int) -> Fraction:
    """Exact value of a catalogue formula_text: integers, k, h, + - * / and
    ^ with an integer exponent, nothing else."""

    def value(node):
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return Fraction(node.value)
        if isinstance(node, ast.Name) and node.id in ("k", "h"):
            return Fraction(k if node.id == "k" else h)
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
            return _BINARY_OPS[type(node.op)](value(node.left), value(node.right))
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                and isinstance(node.right, ast.Constant) and type(node.right.value) is int):
            return value(node.left) ** node.right.value
        raise AssertionError(f"unexpected {ast.dump(node)} in {text!r}")

    return value(ast.parse(text.replace("^", "**"), mode="eval").body)


class TestCatalogueShape:
    def test_size_and_ids_unique(self):
        cat = bound_catalogue()
        assert len(cat) == 14
        assert len({e.id for e in cat}) == 14

    def test_fields_populated(self):
        for e in bound_catalogue():
            assert e.status in ("proved", "conjecture")
            assert e.variant in (R, RSS)
            assert e.formula_text and e.hypotheses_text and e.source

    def test_formula_text_matches_formula(self):
        for e in bound_catalogue():
            for k in range(1, 15):
                for h in range(1, k + 1):
                    text_value = evaluate_formula_text(e.formula_text, k, h)
                    assert text_value.denominator == 1, (e.id, k, h)
                    assert text_value == e.formula(k, h), (e.id, k, h)

    def test_only_zero_conjecture_is_unproved(self):
        unproved = [e.id for e in bound_catalogue() if e.status == "conjecture"]
        assert unproved == ["RSS_conj2"]

    def test_json_dump_round_trips(self):
        text = catalogue_to_json()
        doc = json.loads(text)
        assert len(doc) == 14
        assert list(doc[0]) == ["id", "variant", "formula", "hypotheses", "source", "status"]
        assert json.dumps(doc, indent=2) == text

    def test_entry_lookup(self):
        for e in bound_catalogue():
            assert catalogue_entry(e.id) == e
        with pytest.raises(BadParams, match="'nope'") as exc:
            catalogue_entry("nope")
        assert isinstance(exc.value, SumsetLabError)


class TestApplicability:
    def test_direct_bound_window(self):
        e = entry("RSS_direct")
        A = IntegerSet((1, 3, 5, 7))
        assert e.hypotheses(A, 3)
        assert not e.hypotheses(A, 4)  # h = k
        assert not e.hypotheses(A, 2)
        assert not e.hypotheses(IntegerSet((0, 1, 3, 5)), 3)  # not positive
        assert e.formula(4, 3) == 16

    def test_base_needs_one_extra_element(self):
        e = entry("RSS_base")
        assert e.hypotheses(IntegerSet((1, 3, 5, 7)), 3)
        assert not e.hypotheses(IntegerSet((1, 3, 5, 7, 9)), 3)
        assert e.formula(4, 3) == 16

    def test_weak_bounds_cover_all_folds(self):
        pos = entry("RSS_weak_pos")
        zero = entry("RSS_weak_zero")
        A = IntegerSet((1, 4, 7))
        Z = IntegerSet((0, 4, 7))
        for h in (1, 2, 3):
            assert pos.hypotheses(A, h) and not pos.hypotheses(Z, h)
            assert zero.hypotheses(Z, h) and not zero.hypotheses(A, h)

    def test_conjecture_needs_five_elements(self):
        e = entry("RSS_conj2")
        assert e.hypotheses(IntegerSet((0, 1, 2, 3, 4)), 3)
        assert not e.hypotheses(IntegerSet((0, 1, 2, 3)), 3)
        assert e.status == "conjecture"

    def test_odd_full_fold(self):
        e = entry("Odd_k_eq_h")
        assert e.hypotheses(IntegerSet((1, 3, 5)), 3)
        assert not e.hypotheses(IntegerSet((1, 3, 5)), 2)
        assert not e.hypotheses(IntegerSet((1, 3, 6)), 3)
        assert e.formula(3, 3) == 8

    def test_mixed_parity_partition(self):
        # 2nd+3rd both differ in parity from the 1st: exactly one of the
        # tied/free entries applies.
        tied = IntegerSet((1, 2, 4, 6))
        free = IntegerSet((1, 2, 6, 8))
        a, b = entry("MixedParity_case2a"), entry("MixedParity_case2b")
        assert a.hypotheses(tied, 3) and not b.hypotheses(tied, 3)
        assert b.hypotheses(free, 3) and not a.hypotheses(free, 3)
        assert a.formula(4, 3) == 18 and b.formula(4, 3) == 20

    def test_mixed_parity_case3_partition(self):
        not_ap = IntegerSet((1, 2, 3, 7, 9))
        ap_odd = IntegerSet((2, 3, 4, 6, 8))
        ap_even_h4 = IntegerSet((1, 2, 3, 5, 7))
        ap_even_h5 = IntegerSet((1, 2, 3, 5, 7, 9))
        cases = {
            "MixedParity_case3_notAP": (not_ap, 4, 26),
            "MixedParity_case3_ap_odd": (ap_odd, 4, 26),
            "MixedParity_case3_ap_even_h4": (ap_even_h4, 4, 26),
            "MixedParity_case3_ap_even": (ap_even_h5, 5, 40),
        }
        for eid, (A, h, bound) in cases.items():
            e = entry(eid)
            assert e.hypotheses(A, h), eid
            assert e.formula(len(A), h) == bound, eid
            for other_id in cases:
                if other_id != eid:
                    assert not entry(other_id).hypotheses(A, h), (eid, other_id)

    def test_case1_needs_shared_parity_prefix(self):
        e = entry("MixedParity_case1")
        assert e.hypotheses(IntegerSet((2, 4, 5, 6, 8)), 4)
        assert not e.hypotheses(IntegerSet((1, 2, 4, 6, 8)), 4)  # first two differ
        assert not e.hypotheses(IntegerSet((2, 4, 6, 8, 10)), 4)  # no odd-one-out
        assert e.formula(5, 4) == 30


class TestCheckBounds:
    def test_variant_gate(self):
        A = IntegerSet((1, 2, 3))
        res = compute_dp(A, SumsetVariant.PLAIN, 2)
        with pytest.raises(VariantMismatch):
            check_bounds(A, 2, res.cardinality, SumsetVariant.PLAIN)
        with pytest.raises(VariantMismatch):
            check_bounds(A, 2, res.cardinality, SumsetVariant.SIGNED)

    def test_reports_only_applicable_entries(self):
        reports = rss_reports((1, 3, 5, 7), 3)
        ids = [r.id for r in reports]
        assert ids == ["RSS_direct", "RSS_base", "RSS_weak_pos"]
        for r in reports:
            assert r.met and r.observed == 16
            assert r.slack == r.observed - r.bound

    def test_report_dict_key_order(self):
        r = rss_reports((1, 3, 5, 7), 3)[0]
        assert list(r.to_dict()) == ["id", "k", "h", "bound", "observed", "slack", "met"]

    def test_restricted_catalogue(self):
        A = IntegerSet((1, 2, 3, 4))
        res = compute_dp(A, R, 2)
        reports = check_bounds(A, 2, res.cardinality, R)
        assert [r.id for r in reports] == ["R_plain"]
        assert reports[0].bound == 5 and reports[0].observed == 5 and reports[0].met


class TestTightness:
    """Each named extremal family attains its bound exactly."""

    def test_odd_progression_attains_direct_bound(self):
        for d in (1, 3):
            for k, h in ((4, 3), (5, 3), (5, 4)):
                A = DilatedOddProgression(d).reconstruct(k)
                got = compute_dp(A, RSS, h).cardinality
                assert got == 2 * h * k - h * h + 1

    def test_interval_attains_weak_positive_bound_at_full_fold(self):
        A = ArithmeticProgression(1, 1).reconstruct(4)
        got = compute_dp(A, RSS, 4).cardinality
        assert got == entry("RSS_weak_pos").formula(4, 4) == 11

    def test_zero_interval_attains_weak_zero_bound_at_full_fold(self):
        A = ArithmeticProgression(0, 1).reconstruct(4)
        got = compute_dp(A, RSS, 4).cardinality
        assert got == entry("RSS_weak_zero").formula(4, 4) == 7

    def test_zero_interval_attains_conjecture_bound(self):
        A = IntegerSet((0, 1, 2, 3, 4))
        got = compute_dp(A, RSS, 3).cardinality
        assert got == entry("RSS_conj2").formula(5, 3) == 19

    def test_ap_attains_restricted_bound(self):
        A = IntegerSet((3, 5, 7, 9, 11))
        got = compute_dp(A, R, 2).cardinality
        assert got == entry("R_plain").formula(5, 2) == 7


class TestApHelper:
    def test_is_arithmetic_progression(self):
        # The MixedParity case-3 entries test "A minus its 2nd element is an
        # AP" with the structure family's own predicate.
        assert ArithmeticProgression.match((3, 8)) == ArithmeticProgression(3, 5)
        assert ArithmeticProgression.match((1, 4, 7, 10)) == ArithmeticProgression(1, 3)
        assert ArithmeticProgression.match((1, 4, 8)) is None
