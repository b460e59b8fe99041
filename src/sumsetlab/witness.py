"""Machine-checkable witness families for the lemma-level lower bounds.

Each generator takes a set satisfying one lemma's hypotheses and constructs
the explicit family of disjoint blocks that the lemma's proof exhibits inside
the target sumset.  The construction is recomputed from scratch on every
call; verify() then folds the target (and the baseline, when there is one)
once and checks the three claims every family makes:

  disjoint       parts are pairwise disjoint (and avoid the baseline sumset
                 the lemma counts separately, when there is one)
  contained      every part lies inside the target sumset
  total_matches  the part sizes add up to the claimed total

A verified family certifies |target| >= claimed_total (+ |baseline| when a
baseline is present) with no trust in the sumset engine's counting, only in
its membership answers.  Each lemma's hypotheses are predicates of the
bound catalogue; a generator raises HypothesisViolated naming the lemma and
its hypotheses when they fail.  A generated family whose checks fail is a
falsification event to report, never an exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .bounds import (
    MIXED_CASE2_TEXT,
    MIXED_CASE3_TEXT,
    catalogue_entry,
    mixed_case2_base,
    mixed_case3_base,
)
from .engine import SumsetVariant, compute_dp
from .errors import BadParams, HypothesisViolated
from .intset import IntegerSet, SumsetResult, subsums

LEMMA_PARITY_SPLIT = "parity-split"
LEMMA_ODD_SUBSUMS = "odd-subsums"
LEMMA_MIXED_PARITY_A3 = "mixed-parity-a3"
LEMMA_MIXED_PARITY_A2 = "mixed-parity-a2"
LEMMA_ALL_ODD_EXTENSION = "all-odd-extension"

ALL_LEMMAS = (
    LEMMA_PARITY_SPLIT,
    LEMMA_ODD_SUBSUMS,
    LEMMA_MIXED_PARITY_A3,
    LEMMA_MIXED_PARITY_A2,
    LEMMA_ALL_ODD_EXTENSION,
)

TARGET_RSS = "rss"
TARGET_SUBSUMS = "subsums"


@dataclass(frozen=True)
class WitnessPart:
    name: str
    values: tuple[int, ...]
    branch: Optional[str] = None


@dataclass(frozen=True)
class WitnessChecks:
    disjoint: bool
    contained: bool
    total_matches: bool
    target_cardinality: int

    def all_pass(self) -> bool:
        return self.disjoint and self.contained and self.total_matches


@dataclass(frozen=True)
class WitnessFamily:
    lemma: str
    base_set: IntegerSet
    fold: int
    target_kind: str
    parts: tuple[WitnessPart, ...]
    claimed_total: int
    # Sumset the family must additionally avoid: the lemma counts its
    # cardinality separately, so overlap would double-count.
    baseline_set: Optional[IntegerSet] = None

    def target_values(self) -> SumsetResult:
        if self.target_kind == TARGET_SUBSUMS:
            return subsums(self.base_set)
        return compute_dp(self.base_set, SumsetVariant.RESTRICTED_SIGNED, self.fold)

    def baseline_values(self) -> Optional[SumsetResult]:
        if self.baseline_set is None:
            return None
        return compute_dp(self.baseline_set, SumsetVariant.RESTRICTED_SIGNED, self.fold)

    def verify(self) -> WitnessChecks:
        """Check the family, folding the target and the baseline once each."""
        seen: set[int] = set()
        disjoint = True
        for part in self.parts:
            vals = set(part.values)
            if len(vals) != len(part.values) or vals & seen:
                disjoint = False
            seen |= vals
        baseline = self.baseline_values()
        if disjoint and baseline is not None and seen & set(baseline.values):
            disjoint = False
        target = self.target_values()
        contained = seen <= set(target.values)
        total_matches = sum(len(p.values) for p in self.parts) == self.claimed_total
        return WitnessChecks(disjoint, contained, total_matches, target.cardinality)

    def to_dict(self, checks: WitnessChecks) -> dict:
        """The family with the checks verify() returned for it."""
        return {
            "lemma": self.lemma,
            "parts": [
                {"name": p.name, "size": len(p.values), "branch": p.branch}
                for p in self.parts
            ],
            "total": self.claimed_total,
            "target_cardinality": checks.target_cardinality,
            "checks": {
                "disjoint": checks.disjoint,
                "contained": checks.contained,
                "total_matches": checks.total_matches,
            },
        }


def _require(lemma: str, holds: bool, hypotheses: str, given: str) -> None:
    if not holds:
        raise HypothesisViolated(f"{lemma} needs {hypotheses}; got {given}")


def _part(name: str, values, branch: Optional[str] = None) -> WitnessPart:
    return WitnessPart(name, tuple(sorted(values)), branch)


def witness_parity_split(A: IntegerSet, h: int, r: Optional[int]) -> WitnessFamily:
    """Family for: k = h+1 positive, first two elements share parity, the
    r-th (1-based, r >= 3) differs.

    Blocks walk from the minimal full-fold sum over A minus its smallest
    element by flipping signs pairwise; sign pairs on the smallest element
    interleave between consecutive blocks.  Exhibits h(h+1)/2 + 2h + 1
    elements disjoint from the full fold of A minus its r-th element.
    """
    if r is None:
        raise HypothesisViolated("parity-split needs the 1-based index r of an odd-one-out element")
    e = A.elements
    case1 = catalogue_entry("MixedParity_case1")
    _require(
        LEMMA_PARITY_SPLIT,
        # case 1 fixes |A| = h+1, so element #r exists once r is in range.
        case1.hypotheses(A, h) and 3 <= r <= h + 1 and (e[r - 1] - e[0]) % 2 == 1,
        case1.hypotheses_text + ", 3 <= r <= k, element #r differs in parity from the 1st",
        f"A={A}, h={h}, r={r}",
    )

    u = -sum(e[1:])
    v = -sum(e[2:])
    parts = [_part("block-0", [u])]
    for j in range(1, h + 1):
        tail = sum(e[h - j + 2 : h + 1])
        parts.append(
            _part(f"block-{j}", [u + 2 * (tail + e[m]) for m in range(1, h - j + 2)])
        )
    for j in range(1, h + 1):
        tail = sum(e[h - j + 2 : h + 1])
        parts.append(_part(f"pair-{j}", [v + 2 * tail + e[0], v + 2 * tail - e[0]]))

    return WitnessFamily(
        lemma=LEMMA_PARITY_SPLIT,
        base_set=A,
        fold=h,
        target_kind=TARGET_RSS,
        parts=tuple(parts),
        claimed_total=h * (h + 1) // 2 + 2 * h + 1,
        baseline_set=A.remove(e[r - 1]),
    )


def witness_odd_subsums(A: IntegerSet) -> WitnessFamily:
    """Family of h^2 - 1 distinct subset sums of an all-odd positive h-set.

    Runs of sums share a fixed top-tail and vary one remaining element;
    shifted runs add the smallest element on top.  Each gap between a run's
    two largest sums admits one extra filler whose placement depends on how
    the gap compares to the two smallest elements.  h = 3 is explicit: all
    eight subset sums are distinct by parity.
    """
    e = A.elements
    h = len(e)
    odd = catalogue_entry("Odd_k_eq_h")
    _require(LEMMA_ODD_SUBSUMS, odd.hypotheses(A, h), odd.hypotheses_text, f"A={A}")

    if h == 3:
        sums = [0, e[0], e[1], e[2], e[0] + e[1], e[0] + e[2], e[1] + e[2], sum(e)]
        return WitnessFamily(
            lemma=LEMMA_ODD_SUBSUMS,
            base_set=A,
            fold=h,
            target_kind=TARGET_SUBSUMS,
            parts=(_part("all-subsums", sums, branch="explicit-h3"),),
            claimed_total=8,
        )

    parts = [_part("run-0", [0])]
    tails = [None] + [sum(e[h - j + 1 : h]) for j in range(1, h + 1)]
    for j in range(1, h + 1):
        parts.append(_part(f"run-{j}", [e[m] + tails[j] for m in range(h - j + 1)]))
    for j in range(1, h - 1):
        parts.append(
            _part(
                f"shifted-run-{j}",
                [e[0] + e[m] + tails[j] for m in range(1, h - j)],
            )
        )
    for j in range(1, h - 2):
        second_max = e[h - j - 1] + tails[j]
        delta = e[h - j] - e[h - j - 1]
        if delta >= e[0] + e[1]:
            parts.append(
                _part(f"gap-filler-{j}", [second_max + e[1]], branch="inside-gap")
            )
        else:
            parts.append(
                _part(
                    f"gap-filler-{j}",
                    [second_max + e[0] + e[1]],
                    branch="above-run",
                )
            )

    return WitnessFamily(
        lemma=LEMMA_ODD_SUBSUMS,
        base_set=A,
        fold=h,
        target_kind=TARGET_SUBSUMS,
        parts=tuple(parts),
        claimed_total=h * h - 1,
    )


def _mixed_parity_family(
    A: IntegerSet, h: int, lemma: str, u: int, v: int, cluster0: list[int],
    removed: int, claimed_total: int, branch: Optional[str],
) -> WitnessFamily:
    """Shared block/cluster layout of the two mixed-parity lemmas."""
    e = A.elements
    parts = [_part("block-0", [u])]
    for j in range(1, h):
        tail = sum(e[h + 2 - j : h + 1])
        parts.append(
            _part(
                f"block-{j}",
                [u + 2 * (e[m] + tail) for m in range(2, h + 2 - j)],
            )
        )
    parts.append(_part(f"block-{h}", [-u]))
    parts.append(_part("cluster-0", cluster0, branch))
    for j in range(1, h - 1):
        shift = 2 * sum(e[h + 1 - j : h + 1])
        parts.append(_part(f"cluster-{j}", [shift + c for c in cluster0], branch))
    return WitnessFamily(
        lemma=lemma,
        base_set=A,
        fold=h,
        target_kind=TARGET_RSS,
        parts=tuple(parts),
        claimed_total=claimed_total,
        baseline_set=A.remove(removed),
    )


def witness_mixed_parity_a3(A: IntegerSet, h: int) -> WitnessFamily:
    """Family for: k = h+1 positive, 2nd and 3rd elements both differ in
    parity from the 1st.

    Blocks live in the full fold omitting the 2nd element; clusters collect
    the sign flips of the 1st element around the full fold omitting the 3rd.
    The cluster shrinks from 4 to 3 points exactly when a3 = 2*a1 + a2 makes
    two of them coincide, which decides the claimed total.  The family is
    disjoint from the full fold omitting the 1st element.
    """
    _require(LEMMA_MIXED_PARITY_A3, mixed_case2_base(A, h), MIXED_CASE2_TEXT, f"A={A}, h={h}")
    e = A.elements

    u = -(e[0] + sum(e[2:]))
    v = -(e[0] + e[1] + sum(e[3:]))
    cluster0 = sorted({u + 2 * e[0], v, v + 2 * e[0], v + 2 * e[1]})
    if e[2] == 2 * e[0] + e[1]:
        branch, extra = "third-tied", 2 * h - 1
    else:
        branch, extra = "third-free", 3 * h - 2
    return _mixed_parity_family(
        A, h, LEMMA_MIXED_PARITY_A3, u, v, cluster0,
        removed=e[0], claimed_total=h * (h + 1) // 2 + extra, branch=branch,
    )


def witness_mixed_parity_a2(A: IntegerSet, h: int) -> WitnessFamily:
    """Family for: k = h+1 positive, only the 2nd element differs in parity
    from the 1st (3rd matches the 1st).

    Same block/cluster layout as the 3rd-element case, but anchored at the
    full fold omitting the 2nd element, with 2-point clusters.  Exhibits
    h(h+1)/2 + h elements disjoint from that full fold.
    """
    _require(LEMMA_MIXED_PARITY_A2, mixed_case3_base(A, h), MIXED_CASE3_TEXT, f"A={A}, h={h}")
    e = A.elements

    u = -sum(e[1:])
    v = -(e[0] + e[1] + sum(e[3:]))
    cluster0 = [v, v + 2 * e[0]]
    return _mixed_parity_family(
        A, h, LEMMA_MIXED_PARITY_A2, u, v, cluster0,
        removed=e[1], claimed_total=h * (h + 1) // 2 + h, branch=None,
    )


def witness_all_odd_extension(A: IntegerSet, h: int) -> WitnessFamily:
    """Family for: k = h+1 all odd positive, extending the full fold of the
    first h elements.

    The full fold of A minus its largest element, both signed copies of the
    unsigned fold of A (trimmed where they touch the full fold at its
    extremes), and one extra symmetric pair.  Of the two candidate extra
    values only one can already be covered, so the realized pair is chosen
    by membership and recorded as the branch.
    """
    base = catalogue_entry("RSS_base")
    _require(
        LEMMA_ALL_ODD_EXTENSION,
        base.hypotheses(A, h) and A.all_odd(),
        base.hypotheses_text + ", A all odd",
        f"A={A}, h={h}",
    )
    e = A.elements

    prefix = IntegerSet(e[:-1])
    inner = compute_dp(prefix, SumsetVariant.RESTRICTED_SIGNED, h)
    plus = compute_dp(A, SumsetVariant.RESTRICTED, h)
    z = inner.max
    covered = set(inner.values) | set(plus.values) | {-x for x in plus.values}
    alpha, beta = _extension_candidates(e, h, z)
    if alpha not in covered:
        extra, branch = alpha, "lower-candidate"
    else:
        extra, branch = beta, "upper-candidate"

    parts = (
        _part("inner-fold", inner.values),
        _part("upper-sums", [x for x in plus.values if x != z]),
        _part("lower-sums", [-x for x in plus.values if x != z]),
        _part("extra-pair", [extra, -extra], branch=branch),
    )
    return WitnessFamily(
        lemma=LEMMA_ALL_ODD_EXTENSION,
        base_set=A,
        fold=h,
        target_kind=TARGET_RSS,
        parts=tuple(parts),
        claimed_total=inner.cardinality + 2 * (plus.cardinality - 1) + 2,
    )


def _extension_candidates(e: tuple[int, ...], h: int, z: int) -> tuple[int, int]:
    """All-odd-extension's candidate extra values over the inner fold max z:
    alpha = z + a_{h+1} - a_h - 2*a_2 and beta = z + a_{h+1} - a_h - 2*a_1."""
    top = z + e[h] - e[h - 1]
    return top - 2 * e[1], top - 2 * e[0]


def ordering_guards_hold(family: WitnessFamily) -> bool:
    """Check the strict orderings each lemma's proof asserts for its blocks.

    Pairwise disjointness is already covered by verify(); this confirms the
    stronger interleaving claims per generated instance.
    """
    by_name = {p.name: p for p in family.parts}

    def lo(name: str) -> int:
        return by_name[name].values[0]

    def hi(name: str) -> int:
        return by_name[name].values[-1]

    h = family.fold
    if family.lemma == LEMMA_PARITY_SPLIT:
        return all(
            hi(f"block-{i}") < lo(f"pair-{i + 1}")
            and hi(f"pair-{i + 1}") < lo(f"block-{i + 1}")
            for i in range(h)
        )
    if family.lemma == LEMMA_ODD_SUBSUMS:
        if h == 3:
            return True
        ok = all(hi(f"run-{i}") < lo(f"run-{i + 1}") for i in range(h))
        ok = ok and all(
            hi(f"run-{i}") < lo(f"shifted-run-{i + 1}") for i in range(1, h - 2)
        )
        ok = ok and all(
            hi(f"shifted-run-{i}") < lo(f"run-{i + 1}") for i in range(1, h - 1)
        )
        ok = ok and hi(f"shifted-run-{h - 2}") < lo(f"run-{h}")
        for j in range(1, h - 2):
            part = by_name[f"gap-filler-{j}"]
            alpha = part.values[0]
            if part.branch == "inside-gap":
                run = by_name[f"run-{j}"].values
                ok = ok and run[-2] < alpha < run[-1]
            else:
                ok = ok and hi(f"run-{j}") < alpha < lo(f"shifted-run-{j + 1}")
        return ok
    if family.lemma in (LEMMA_MIXED_PARITY_A3, LEMMA_MIXED_PARITY_A2):
        ok = all(
            hi(f"block-{i}") < lo(f"cluster-{i}")
            and hi(f"cluster-{i}") < lo(f"block-{i + 1}")
            for i in range(h - 1)
        )
        return ok and hi(f"block-{h - 1}") < lo(f"block-{h}")
    if family.lemma == LEMMA_ALL_ODD_EXTENSION:
        e = family.base_set.elements
        inner = by_name["inner-fold"].values
        z = inner[-1]
        x, y = z - 2 * e[1], z - 2 * e[0]
        alpha, beta = _extension_candidates(e, h, z)
        upper = by_name["upper-sums"].values
        ok = x < y < z and 0 < alpha < beta and x < alpha and y < beta
        # upper-sums is the unsigned fold minus its minimum z, so upper[0]
        # is the fold's second-smallest sum, which must clear beta.
        return ok and (not upper or beta < upper[0])
    raise HypothesisViolated(f"unknown lemma {family.lemma!r}")


def generate(lemma: str, A: IntegerSet, h: Optional[int] = None,
             r: Optional[int] = None) -> WitnessFamily:
    """Dispatch a witness generator by lemma id.

    Only parity-split takes r, and odd-subsums takes no fold count other
    than |A|: a parameter a lemma does not read is rejected, not ignored.
    """
    if r is not None and lemma != LEMMA_PARITY_SPLIT:
        raise BadParams(f"{lemma} takes no odd-one-out index; drop --r")
    if lemma == LEMMA_ODD_SUBSUMS:
        if h is not None and h != len(A):
            raise BadParams(
                f"odd-subsums always folds all |A|={len(A)} elements; drop --h"
            )
        return witness_odd_subsums(A)
    if h is None:
        raise HypothesisViolated(f"lemma {lemma!r} needs a fold count")
    if lemma == LEMMA_PARITY_SPLIT:
        return witness_parity_split(A, h, r)
    if lemma == LEMMA_MIXED_PARITY_A3:
        return witness_mixed_parity_a3(A, h)
    if lemma == LEMMA_MIXED_PARITY_A2:
        return witness_mixed_parity_a2(A, h)
    if lemma == LEMMA_ALL_ODD_EXTENSION:
        return witness_all_odd_extension(A, h)
    raise HypothesisViolated(f"unknown lemma {lemma!r}; known: {list(ALL_LEMMAS)}")
