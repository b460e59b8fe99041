"""Inverse verdicts: does attaining a tight bound force the known structure?

For each supported regime the tight lower bound comes with a structure that
equality is proven (or, for the always-tight odd triple case, known) to
force; both live on the bound's catalogue entry.  inverse_verdict computes
the sumset, compares against the bound and reports one of:

  EqualityAndPredictedStructure  bound attained, structure as predicted
  EqualityButUnexpectedStructure bound attained by an unpredicted set: a
                                 falsification event callers must escalate
  StrictInequality               bound not attained
  BoundViolated                  observed below the bound (impossible if the
                                 catalogue is sound; reported defensively)
"""

from __future__ import annotations

from typing import NamedTuple

from .bounds import BoundCatalogEntry, bound_catalogue
from .engine import SumsetVariant, count_dp
from .errors import RegimeUnsupported
from .intset import IntegerSet, StructureClass, classify_structure

EQUALITY_PREDICTED = "EqualityAndPredictedStructure"
EQUALITY_UNEXPECTED = "EqualityButUnexpectedStructure"
STRICT_INEQUALITY = "StrictInequality"
BOUND_VIOLATED = "BoundViolated"


class InverseVerdict(NamedTuple):
    verdict: str
    regime: str
    k: int
    h: int
    bound: int
    observed: int
    predicted: str
    classification: StructureClass
    prediction_holds: bool

    def to_dict(self) -> dict:
        return {**self._asdict(), "classification": str(self.classification)}


def _resolve_regime(A: IntegerSet, h: int) -> BoundCatalogEntry:
    """The catalogue entry whose inverse theorem covers (A, h).

    Candidates are the proved entries with a regime whose hypotheses and
    guard hold.  Where two hold (odd positive sets at h = k), equality is
    possible only at the larger bound, so the sharpest one is taken.
    """
    k = len(A)
    covering = [
        entry
        for entry in bound_catalogue()
        if entry.regime is not None
        and entry.status == "proved"
        and entry.guard(k, h)
        and entry.hypotheses(A, h)
    ]
    if not covering:
        raise RegimeUnsupported(
            f"no inverse theorem covers |A|={k}, h={h}, min={A.min}"
        )
    return max(covering, key=lambda entry: entry.formula(k, h))


def inverse_verdict(A: IntegerSet, h: int) -> InverseVerdict:
    """Check A against the tight bound and predicted structure for its regime."""
    entry = _resolve_regime(A, h)
    bound = entry.formula(len(A), h)
    prediction = entry.prediction(h)
    observed = count_dp(A, SumsetVariant.RESTRICTED_SIGNED, h)
    classification = classify_structure(A)
    holds = prediction.holds(A.elements)
    if observed < bound:
        verdict = BOUND_VIOLATED
    elif observed > bound:
        verdict = STRICT_INEQUALITY
    elif holds:
        verdict = EQUALITY_PREDICTED
    else:
        verdict = EQUALITY_UNEXPECTED
    return InverseVerdict(
        verdict=verdict,
        regime=entry.regime,
        k=len(A),
        h=h,
        bound=bound,
        observed=observed,
        predicted=prediction.text,
        classification=classification,
        prediction_holds=holds,
    )
