import pytest

import sumsetlab.inverse as inverse_module
from sumsetlab.errors import RegimeUnsupported
from sumsetlab.intset import IntegerSet
from sumsetlab.inverse import (
    BOUND_VIOLATED,
    EQUALITY_PREDICTED,
    EQUALITY_UNEXPECTED,
    STRICT_INEQUALITY,
    inverse_verdict,
)


def verdict(elements, h):
    return inverse_verdict(IntegerSet(elements), h)


class TestDirectRegime:
    def test_extremal_progression(self):
        v = verdict((1, 3, 5, 7), 3)
        assert v.verdict == EQUALITY_PREDICTED
        assert v.regime == "direct"
        assert (v.bound, v.observed) == (16, 16)
        assert v.prediction_holds

    def test_dilated_extremal(self):
        v = verdict((2, 6, 10, 14), 3)
        assert v.verdict == EQUALITY_PREDICTED
        assert str(v.classification) == "DilatedOddProgression(d=2)"

    def test_strict_inequality(self):
        v = verdict((1, 2, 3, 4), 3)
        assert v.verdict == STRICT_INEQUALITY
        assert (v.bound, v.observed) == (16, 19)

    def test_larger_extremal(self):
        v = verdict((1, 3, 5, 7, 9, 11), 4)
        assert v.verdict == EQUALITY_PREDICTED
        assert v.bound == 2 * 4 * 6 - 16 + 1


class TestFullFoldOddRegime:
    def test_h3_equality_is_universal(self):
        # Every all-odd positive triple attains 8; the prediction is vacuous.
        for elems in ((1, 3, 5), (1, 3, 9), (3, 7, 11), (1, 9, 23)):
            v = verdict(elems, 3)
            assert v.regime == "full-fold-odd"
            assert v.verdict == EQUALITY_PREDICTED
            assert (v.bound, v.observed) == (8, 8)

    def test_h4_sum_closure(self):
        v = verdict((1, 3, 5, 9), 4)
        assert v.verdict == EQUALITY_PREDICTED
        assert str(v.classification) == "SumClosure4(a1=1,a2=3,a3=5)"

    def test_h4_diff_closure(self):
        v = verdict((1, 3, 7, 9), 4)
        assert v.verdict == EQUALITY_PREDICTED

    def test_h4_closure_masked_by_progression_classification(self):
        # {1,3,5,7} satisfies 7 = 5+3-1 but classifies as a progression;
        # the prediction must still count it as a closure form.
        v = verdict((1, 3, 5, 7), 4)
        assert v.verdict == EQUALITY_PREDICTED
        assert str(v.classification) == "DilatedOddProgression(d=1)"

    def test_h4_strict(self):
        v = verdict((1, 3, 7, 13), 4)
        assert v.verdict == STRICT_INEQUALITY
        assert (v.bound, v.observed) == (15, 16)

    def test_h5_progression(self):
        v = verdict((1, 3, 5, 7, 9), 5)
        assert v.verdict == EQUALITY_PREDICTED
        assert (v.bound, v.observed) == (24, 24)

    def test_h5_strict(self):
        v = verdict((1, 3, 5, 7, 11), 5)
        assert v.verdict == STRICT_INEQUALITY
        assert (v.bound, v.observed) == (24, 26)


class TestFullFoldPositiveRegime:
    def test_h3_pair_closure(self):
        v = verdict((1, 2, 3), 3)
        assert v.regime == "full-fold-positive"
        assert v.verdict == EQUALITY_PREDICTED
        assert (v.bound, v.observed) == (7, 7)

    def test_h3_strict(self):
        v = verdict((1, 2, 4), 3)
        assert v.verdict == STRICT_INEQUALITY

    def test_h4_dilated_interval(self):
        for elems in ((1, 2, 3, 4), (2, 4, 6, 8)):
            v = verdict(elems, 4)
            assert v.verdict == EQUALITY_PREDICTED
            assert (v.bound, v.observed) == (11, 11)

    def test_h4_strict(self):
        v = verdict((1, 2, 3, 5), 4)
        assert v.verdict == STRICT_INEQUALITY


class TestFullFoldZeroRegime:
    def test_h4_zero_pair_closure(self):
        v = verdict((0, 1, 2, 3), 4)
        assert v.regime == "full-fold-zero"
        assert v.verdict == EQUALITY_PREDICTED
        assert (v.bound, v.observed) == (7, 7)

    def test_h4_strict(self):
        v = verdict((0, 1, 2, 4), 4)
        assert v.verdict == STRICT_INEQUALITY

    def test_h5_dilated_zero_interval(self):
        for elems in ((0, 1, 2, 3, 4), (0, 2, 4, 6, 8)):
            v = verdict(elems, 5)
            assert v.verdict == EQUALITY_PREDICTED
            assert (v.bound, v.observed) == (11, 11)

    def test_h5_strict(self):
        v = verdict((0, 1, 2, 3, 5), 5)
        assert v.verdict == STRICT_INEQUALITY


class TestUnsupportedRegimes:
    @pytest.mark.parametrize(
        "elements,h",
        [
            ((1, 3, 5, 7), 2),     # fold below the direct window
            ((1, 3), 2),           # full fold but k = 2
            ((-1, 3, 5, 7), 3),    # negative minimum
            ((0, 1, 2, 3), 3),     # zero regime only covers h = k
            ((0, 1, 2), 3),        # zero full fold needs h >= 4
        ],
    )
    def test_raises(self, elements, h):
        with pytest.raises(RegimeUnsupported):
            verdict(elements, h)


class TestRegimeTable:
    """One set per inverse branch, pinning everything the verdict reports."""

    @pytest.mark.parametrize(
        "elements,h,regime,bound,predicted,classification",
        [
            ((1, 3, 5, 7), 3, "direct", 16,
             "dilated odd progression d*{1,3,...,2k-1}", "DilatedOddProgression(d=1)"),
            ((1, 3, 9), 3, "full-fold-odd", 8,
             "any odd positive 3-element set", "Other"),
            ((1, 3, 5, 9), 4, "full-fold-odd", 15,
             "{a1,a2,a3,a1+a2+a3} or {a1,a2,a3,a3+a2-a1}",
             "SumClosure4(a1=1,a2=3,a3=5)"),
            ((1, 3, 5, 7, 9), 5, "full-fold-odd", 24,
             "dilated odd progression d*{1,3,...,2h-1}", "DilatedOddProgression(d=1)"),
            ((1, 2, 3), 3, "full-fold-positive", 7,
             "{a1,a2,a1+a2}", "ArithmeticProgression(first=1,diff=1)"),
            ((2, 4, 6, 8), 4, "full-fold-positive", 11,
             "dilated interval d*[1,h]", "ArithmeticProgression(first=2,diff=2)"),
            ((0, 1, 2, 3), 4, "full-fold-zero", 7,
             "{0,a1,a2,a1+a2}", "ArithmeticProgression(first=0,diff=1)"),
            ((0, 2, 4, 6, 8), 5, "full-fold-zero", 11,
             "dilated interval d*[0,h-1]", "ArithmeticProgression(first=0,diff=2)"),
        ],
    )
    def test_supported(self, elements, h, regime, bound, predicted, classification):
        v = verdict(elements, h)
        assert (v.regime, v.bound, v.predicted) == (regime, bound, predicted)
        assert str(v.classification) == classification
        assert v.verdict == EQUALITY_PREDICTED and v.prediction_holds

    @pytest.mark.parametrize(
        "elements,h",
        [
            ((1, 3, 7, 13), 4),     # full-fold-odd, h = 4
            ((1, 3, 5, 7, 11), 5),  # full-fold-odd, h >= 5
            ((1, 2, 4), 3),         # full-fold-positive, h = 3
            ((1, 2, 3, 5), 4),      # full-fold-positive, h >= 4
            ((0, 1, 2, 4), 4),      # full-fold-zero, h = 4
            ((0, 1, 2, 3, 5), 5),   # full-fold-zero, h >= 5
            ((1, 2, 3, 4), 3),      # direct
        ],
    )
    def test_prediction_rejects_off_structure_sets(self, elements, h):
        assert not verdict(elements, h).prediction_holds

    @pytest.mark.parametrize(
        "elements,h,message",
        [
            ((1, 3, 5, 7), 2, "no inverse theorem covers |A|=4, h=2, min=1"),
            ((0, 1, 2, 3), 3, "no inverse theorem covers |A|=4, h=3, min=0"),
        ],
    )
    def test_unsupported(self, elements, h, message):
        with pytest.raises(RegimeUnsupported) as exc:
            verdict(elements, h)
        assert str(exc.value) == message


class TestDefensiveVerdicts:
    """The two remaining verdicts cannot arise from honest inputs at desk
    scale (that is the theorem); exercise them by stubbing the engine."""

    def _patched(self, monkeypatch, elements, h, fake_cardinality):
        def fake_count_dp(A, variant, fold):
            return fake_cardinality

        monkeypatch.setattr(inverse_module, "count_dp", fake_count_dp)
        return verdict(elements, h)

    def test_equality_without_predicted_structure(self, monkeypatch):
        v = self._patched(monkeypatch, (1, 2, 3, 4, 5), 3, 22)
        assert v.verdict == EQUALITY_UNEXPECTED
        assert not v.prediction_holds

    def test_bound_violated(self, monkeypatch):
        v = self._patched(monkeypatch, (1, 2, 3, 4, 5), 3, 21)
        assert v.verdict == BOUND_VIOLATED


class TestVerdictSerialization:
    def test_to_dict_key_order(self):
        v = verdict((1, 3, 5, 7), 3)
        assert list(v.to_dict()) == [
            "verdict",
            "regime",
            "k",
            "h",
            "bound",
            "observed",
            "predicted",
            "classification",
            "prediction_holds",
        ]
        assert v.to_dict()["classification"] == "DilatedOddProgression(d=1)"
