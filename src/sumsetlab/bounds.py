"""Direct lower-bound catalogue.

Each catalogue entry pairs a closed-form lower bound on a sumset cardinality
with a strict hypothesis predicate: the bound is claimed exactly when the
predicate holds, never by silent extension.  Entries tagged conjecture are
reported but excluded from hard verification gates.  An entry backed by an
inverse theorem also names its regime and the structure equality forces;
the inverse verdicts and the search read both from here, and the witness
generators read their lemmas' hypotheses from the same predicates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional

from .engine import SumsetVariant
from .errors import BadParams, VariantMismatch
from .intset import (
    ArithmeticProgression,
    DiffClosure4,
    DilatedOddProgression,
    IntegerSet,
    Other,
    SumClosure4,
)


@dataclass(frozen=True)
class Prediction:
    """The structure equality at a bound forces, in words and as a predicate.

    The forced sets are the members of `family` (a structure class of
    intset, Other meaning any set) whose sorted elements satisfy `narrow`.
    """

    text: str
    family: type = Other
    narrow: Callable[[tuple[int, ...]], bool] = lambda elements: True

    def holds(self, elements: tuple[int, ...]) -> bool:
        return self.family.match(elements) is not None and self.narrow(elements)


@dataclass(frozen=True)
class BoundCatalogEntry:
    """One direct bound: formula in (k, h) guarded by a hypothesis predicate.

    Entries with an inverse theorem name its `regime`; that theorem covers
    the (A, h) pairs meeting both the hypotheses and `guard(k, h)`.
    `equality` holds (h, prediction) rows, most specific first, with h None
    for every other fold count.
    """

    id: str
    variant: SumsetVariant
    formula: Callable[[int, int], int]
    hypotheses: Callable[[IntegerSet, int], bool]
    formula_text: str
    hypotheses_text: str
    source: str
    status: str  # "proved" | "conjecture"
    regime: Optional[str] = None
    guard: Callable[[int, int], bool] = lambda k, h: True
    equality: tuple[tuple[Optional[int], Prediction], ...] = ()

    def prediction(self, h: int) -> Prediction:
        """The structure equality at fold count h forces."""
        return next(p for at, p in self.equality if at is None or at == h)


@dataclass(frozen=True)
class BoundReport:
    """Outcome of checking one catalogue entry against an observed sumset."""

    id: str
    k: int
    h: int
    bound: int
    observed: int
    slack: int
    met: bool

    def to_dict(self) -> dict:
        # The fields in declaration order; asdict would deep-copy each one.
        return dict(vars(self))


def direct_window(k: int, h: int) -> bool:
    """The fold window 3 <= h <= k-1 of the paper's direct theorem."""
    return 3 <= h <= k - 1


MIXED_CASE2_TEXT = "k = h+1, h >= 3, A positive, 2nd and 3rd elements differ in parity from the 1st"
MIXED_CASE3_TEXT = "k = h+1, h >= 4, A positive, only the 2nd element differs in parity from the 1st"


def mixed_case2_base(A: IntegerSet, h: int) -> bool:
    """MIXED_CASE2_TEXT: the union of the two MixedParity_case2 entries."""
    e = A.elements
    return (
        len(A) == h + 1
        and h >= 3
        and A.min >= 1
        and (e[1] - e[0]) % 2 == 1
        and (e[2] - e[0]) % 2 == 1
    )


def mixed_case3_base(A: IntegerSet, h: int) -> bool:
    """MIXED_CASE3_TEXT: the union of the four MixedParity_case3 entries."""
    e = A.elements
    return (
        len(A) == h + 1
        and h >= 4
        and A.min >= 1
        and (e[1] - e[0]) % 2 == 1
        and (e[2] - e[0]) % 2 == 0
    )


def _without_second(A: IntegerSet) -> tuple[int, ...]:
    return A.elements[:1] + A.elements[2:]


def _is_ap(elements: tuple[int, ...]) -> bool:
    return ArithmeticProgression.match(elements) is not None


def _from_zero(elements: tuple[int, ...]) -> bool:
    return elements[0] == 0


_ENTRIES: list[BoundCatalogEntry] = [
    BoundCatalogEntry(
        id="RSS_direct",
        variant=SumsetVariant.RESTRICTED_SIGNED,
        formula=lambda k, h: 2 * h * k - h * h + 1,
        hypotheses=lambda A, h: A.min >= 1 and direct_window(len(A), h),
        formula_text="2*h*k - h^2 + 1",
        hypotheses_text="A positive, 3 <= h <= k-1",
        source="restricted signed fold of any k positive integers; tight on dilated odd progressions",
        status="proved",
        regime="direct",
        equality=(
            (None, Prediction("dilated odd progression d*{1,3,...,2k-1}", DilatedOddProgression)),
        ),
    ),
    BoundCatalogEntry(
        id="RSS_base",
        variant=SumsetVariant.RESTRICTED_SIGNED,
        formula=lambda k, h: h * h + 2 * h + 1,
        hypotheses=lambda A, h: A.min >= 1 and h >= 3 and len(A) == h + 1,
        formula_text="h^2 + 2*h + 1",
        hypotheses_text="A positive, k = h+1, h >= 3",
        source="base case of the direct bound, one element more than the fold count",
        status="proved",
    ),
    BoundCatalogEntry(
        id="RSS_weak_pos",
        variant=SumsetVariant.RESTRICTED_SIGNED,
        formula=lambda k, h: 2 * (h * k - h * h) + h * (h + 1) // 2 + 1,
        hypotheses=lambda A, h: A.min >= 1 and 1 <= h <= len(A),
        formula_text="2*(h*k - h^2) + h*(h+1)/2 + 1",
        hypotheses_text="A positive, 1 <= h <= k",
        source="weaker all-fold bound for positive sets; tight on dilated intervals",
        status="proved",
        regime="full-fold-positive",
        guard=lambda k, h: h == k >= 3,
        equality=(
            # {a1,a2,a1+a2} is the difference closure {0,a1,a2,a1+a2} without its 0.
            (3, Prediction(
                "{a1,a2,a1+a2}",
                narrow=lambda e: DiffClosure4.match((0,) + e) is not None,
            )),
            # d*[1,h] is an arithmetic progression whose first element equals
            # its difference.
            (None, Prediction(
                "dilated interval d*[1,h]", ArithmeticProgression, lambda e: e[0] == e[1] - e[0]
            )),
        ),
    ),
    BoundCatalogEntry(
        id="RSS_weak_zero",
        variant=SumsetVariant.RESTRICTED_SIGNED,
        formula=lambda k, h: 2 * (h * k - h * h) + h * (h - 1) // 2 + 1,
        hypotheses=lambda A, h: A.min == 0 and 1 <= h <= len(A),
        formula_text="2*(h*k - h^2) + h*(h-1)/2 + 1",
        hypotheses_text="0 in A, A nonnegative, 1 <= h <= k",
        source="weaker all-fold bound for sets containing 0; tight on dilated 0-based intervals",
        status="proved",
        regime="full-fold-zero",
        guard=lambda k, h: h == k >= 4,
        equality=(
            (4, Prediction("{0,a1,a2,a1+a2}", DiffClosure4, _from_zero)),
            (None, Prediction("dilated interval d*[0,h-1]", ArithmeticProgression, _from_zero)),
        ),
    ),
    BoundCatalogEntry(
        id="RSS_conj2",
        variant=SumsetVariant.RESTRICTED_SIGNED,
        formula=lambda k, h: 2 * h * k - h * (h + 1) + 1,
        hypotheses=lambda A, h: A.min == 0 and len(A) >= 5 and direct_window(len(A), h),
        formula_text="2*h*k - h*(h+1) + 1",
        hypotheses_text="0 in A, A nonnegative, k >= 5, 3 <= h <= k-1",
        source="conjectured sharp bound for sets containing 0",
        status="conjecture",
        # No inverse regime: only the search tests this prediction, through
        # Prediction.holds.  d*[0,k-1] starts at 0, so it is no dilated odd
        # progression and classifies as an arithmetic progression; in the
        # zero regime every arithmetic progression is such a set.
        equality=(
            (None, Prediction("dilated interval d*[0,k-1]", ArithmeticProgression, _from_zero)),
        ),
    ),
    BoundCatalogEntry(
        id="R_plain",
        variant=SumsetVariant.RESTRICTED,
        formula=lambda k, h: h * k - h * h + 1,
        hypotheses=lambda A, h: 1 <= h <= len(A),
        formula_text="h*k - h^2 + 1",
        hypotheses_text="any integers, 1 <= h <= k",
        source="unsigned restricted fold of any k integers; tight on arithmetic progressions",
        status="proved",
    ),
    BoundCatalogEntry(
        id="Odd_k_eq_h",
        variant=SumsetVariant.RESTRICTED_SIGNED,
        formula=lambda k, h: h * h - 1,
        hypotheses=lambda A, h: A.all_odd()
        and A.min >= 1
        and len(A) == h
        and h >= 3,
        formula_text="h^2 - 1",
        hypotheses_text="A odd positive, k = h, h >= 3",
        source="full fold of an all-odd set; counts its distinct subset sums",
        status="proved",
        regime="full-fold-odd",
        equality=(
            # Every odd positive triple attains 8 = h^2 - 1; no structure is forced.
            (3, Prediction("any odd positive 3-element set")),
            # Both closure forms count, whatever the set classifies as:
            # {1,3,5,7} is a difference closure but a dilated odd progression first.
            (4, Prediction(
                "{a1,a2,a3,a1+a2+a3} or {a1,a2,a3,a3+a2-a1}",
                narrow=lambda e: SumClosure4.match(e) is not None
                or DiffClosure4.match(e) is not None,
            )),
            (None, Prediction("dilated odd progression d*{1,3,...,2h-1}", DilatedOddProgression)),
        ),
    ),
    BoundCatalogEntry(
        id="MixedParity_case1",
        variant=SumsetVariant.RESTRICTED_SIGNED,
        formula=lambda k, h: h * h + 3 * h + 2,
        hypotheses=lambda A, h: len(A) == h + 1
        and h >= 3
        and A.min >= 1
        and (A.elements[1] - A.elements[0]) % 2 == 0
        and any((a - A.elements[0]) % 2 == 1 for a in A.elements[2:]),
        formula_text="h^2 + 3*h + 2",
        hypotheses_text="k = h+1, h >= 3, A positive, first two elements share parity, some later element differs",
        status="proved",
        source="parity-split family: two full-fold subsums interleave",
    ),
    BoundCatalogEntry(
        id="MixedParity_case2a",
        variant=SumsetVariant.RESTRICTED_SIGNED,
        formula=lambda k, h: h * h + 3 * h,
        hypotheses=lambda A, h: mixed_case2_base(A, h)
        and A.elements[2] == 2 * A.elements[0] + A.elements[1],
        formula_text="h^2 + 3*h",
        hypotheses_text=MIXED_CASE2_TEXT + ", a3 = 2*a1 + a2",
        status="proved",
        source="mixed parity with the third element tied to the first two",
    ),
    BoundCatalogEntry(
        id="MixedParity_case2b",
        variant=SumsetVariant.RESTRICTED_SIGNED,
        formula=lambda k, h: h * h + 4 * h - 1,
        hypotheses=lambda A, h: mixed_case2_base(A, h)
        and A.elements[2] != 2 * A.elements[0] + A.elements[1],
        formula_text="h^2 + 4*h - 1",
        hypotheses_text=MIXED_CASE2_TEXT + ", a3 != 2*a1 + a2",
        status="proved",
        source="mixed parity with the third element free of the first two",
    ),
    BoundCatalogEntry(
        id="MixedParity_case3_notAP",
        variant=SumsetVariant.RESTRICTED_SIGNED,
        formula=lambda k, h: h * h + 2 * h + 2,
        hypotheses=lambda A, h: mixed_case3_base(A, h)
        and not _is_ap(_without_second(A)),
        formula_text="h^2 + 2*h + 2",
        hypotheses_text=MIXED_CASE3_TEXT + ", A minus its 2nd element is not an AP",
        status="proved",
        source="odd second element over a non-progression remainder",
    ),
    BoundCatalogEntry(
        id="MixedParity_case3_ap_odd",
        variant=SumsetVariant.RESTRICTED_SIGNED,
        formula=lambda k, h: h * (3 * h - 1) // 2 + 4,
        hypotheses=lambda A, h: mixed_case3_base(A, h)
        and _is_ap(_without_second(A))
        and A.elements[1] % 2 == 1,
        formula_text="h*(3*h - 1)/2 + 4",
        hypotheses_text=MIXED_CASE3_TEXT + ", A minus its 2nd element is an AP, 2nd element odd",
        status="proved",
        source="odd second element over an even progression remainder",
    ),
    BoundCatalogEntry(
        id="MixedParity_case3_ap_even_h4",
        variant=SumsetVariant.RESTRICTED_SIGNED,
        formula=lambda k, h: 26,
        hypotheses=lambda A, h: mixed_case3_base(A, h)
        and h == 4
        and _is_ap(_without_second(A))
        and A.elements[1] % 2 == 0,
        formula_text="26",
        hypotheses_text="k = 5, h = 4, A positive, only the 2nd element differs in parity from the 1st, A minus its 2nd element is an AP, 2nd element even",
        status="proved",
        source="even second element over an odd progression remainder, four folds",
    ),
    BoundCatalogEntry(
        id="MixedParity_case3_ap_even",
        variant=SumsetVariant.RESTRICTED_SIGNED,
        formula=lambda k, h: 2 * h * (h - 1),
        hypotheses=lambda A, h: mixed_case3_base(A, h)
        and h >= 5
        and _is_ap(_without_second(A))
        and A.elements[1] % 2 == 0,
        formula_text="2*h*(h - 1)",
        hypotheses_text="k = h+1, h >= 5, A positive, only the 2nd element differs in parity from the 1st, A minus its 2nd element is an AP, 2nd element even",
        status="proved",
        source="even second element over an odd progression remainder, five or more folds",
    ),
]


def bound_catalogue() -> list[BoundCatalogEntry]:
    """All registered bounds, in stable order."""
    return list(_ENTRIES)


def catalogue_entry(entry_id: str) -> BoundCatalogEntry:
    """The catalogue entry with this id."""
    for entry in _ENTRIES:
        if entry.id == entry_id:
            return entry
    raise BadParams(f"no catalogue entry {entry_id!r}")


def catalogue_to_json() -> str:
    """Render the catalogue as a canonical JSON document."""
    doc = [
        {
            "id": entry.id,
            "variant": entry.variant.value,
            "formula": entry.formula_text,
            "hypotheses": entry.hypotheses_text,
            "source": entry.source,
            "status": entry.status,
        }
        for entry in _ENTRIES
    ]
    return json.dumps(doc, indent=2)


def check_bounds(
    A: IntegerSet,
    h: int,
    observed: int,
    variant: SumsetVariant = SumsetVariant.RESTRICTED_SIGNED,
) -> list[BoundReport]:
    """Reports for every catalogue entry whose hypotheses hold for (A, h).

    `observed` is the cardinality of A's h-fold sumset of `variant`, as the
    caller computed it; only entries of that variant are checked.
    """
    if not any(entry.variant is variant for entry in _ENTRIES):
        raise VariantMismatch(f"no catalogue bounds govern variant {variant.value!r}")
    k = len(A)
    reports = []
    for entry in _ENTRIES:
        if entry.variant is variant and entry.hypotheses(A, h):
            bound = entry.formula(k, h)
            reports.append(
                BoundReport(
                    id=entry.id,
                    k=k,
                    h=h,
                    bound=bound,
                    observed=observed,
                    slack=observed - bound,
                    met=observed >= bound,
                )
            )
    return reports
