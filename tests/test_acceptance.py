"""Acceptance gate: nine end-to-end criteria, one visible pass/fail line each.

Every criterion recomputes everything it checks from scratch through the
public API and prints `criterion N: PASS/FAIL (detail)` on the real stdout
(capture suspended) before asserting, so a full run always shows one line
per criterion.
"""

import itertools
import random
import sys
import time

import pytest

from conftest import (
    random_all_odd_instance,
    random_mixed_a2_instance,
    random_mixed_a3_instance,
    random_odd_subsums_instance,
    random_parity_split_instance,
)
from sumsetlab.bounds import bound_catalogue, check_bounds
from sumsetlab.engine import SumsetVariant, compute_dp, compute_oracle, count_dp
from sumsetlab.intset import IntegerSet, subsums
from sumsetlab.search import SearchSpace, minimize
from sumsetlab.witness import (
    ordering_guards_hold,
    witness_all_odd_extension,
    witness_mixed_parity_a2,
    witness_mixed_parity_a3,
    witness_odd_subsums,
    witness_parity_split,
)

RSS = SumsetVariant.RESTRICTED_SIGNED


@pytest.fixture
def report(capfd):
    def _report(criterion: int, ok: bool, detail: str) -> None:
        line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})\n"
        with capfd.disabled():
            sys.stdout.write(line)
            sys.stdout.flush()

    return _report


def odd_progression(k: int) -> IntegerSet:
    return IntegerSet(tuple(2 * i + 1 for i in range(k)))


def test_criterion_1_direct_equality_table(report):
    t0 = time.perf_counter()
    failures = []
    pairs = 0
    for k in range(4, 10):
        A = odd_progression(k)
        for h in range(3, k):
            pairs += 1
            got = compute_dp(A, RSS, h).cardinality
            want = 2 * h * k - h * h + 1
            if got != want:
                failures.append((k, h, got, want))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1.0
    report(1, ok, f"{pairs} (k,h) pairs exact, {len(failures)} mismatches, {elapsed:.2f}s")
    assert not failures, failures
    assert elapsed < 1.0


def test_criterion_2_full_fold_odd_extremal(report):
    t0 = time.perf_counter()
    failures = []
    for h in range(3, 11):
        A = odd_progression(h)
        fold = compute_dp(A, RSS, h).cardinality
        sums = subsums(A).cardinality
        if not (fold == h * h - 1 == sums):
            failures.append((h, fold, sums))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1.0
    report(2, ok, f"h=3..10 exact, {len(failures)} mismatches, {elapsed:.2f}s")
    assert not failures, failures
    assert elapsed < 1.0


def test_criterion_3_reference_cardinalities(report):
    t0 = time.perf_counter()
    card = lambda elems, h: compute_dp(IntegerSet(elems), RSS, h).cardinality
    checks = [
        (card((1, 3, 5, 9), 4), "==", 15),
        (card((1, 3, 5, 7), 4), "==", 15),
        (card((1, 3, 5, 7, 9), 4), "==", 25),
        (card((1, 3, 5, 7, 11), 4), ">=", 26),
    ]
    failures = [
        c for c in checks
        if not (c[0] == c[2] if c[1] == "==" else c[0] >= c[2])
    ]
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1.0
    report(3, ok, f"4 reference values, {len(failures)} mismatches, {elapsed:.2f}s")
    assert not failures, failures
    assert elapsed < 1.0


def test_criterion_4_oracle_dp_equivalence_sweep(report):
    t0 = time.perf_counter()
    discrepancies = 0
    comparisons = 0
    first_bad = None
    for size in range(1, 6):
        for combo in itertools.combinations(range(-8, 9), size):
            A = IntegerSet(combo)
            for variant in SumsetVariant:
                if variant in (SumsetVariant.RESTRICTED, RSS):
                    h_max = min(5, size)
                else:
                    h_max = 5
                for h in range(1, h_max + 1):
                    comparisons += 1
                    expected = compute_oracle(A, variant, h)
                    if (
                        expected.values != compute_dp(A, variant, h).values
                        or expected.cardinality != count_dp(A, variant, h)
                    ):
                        discrepancies += 1
                        first_bad = first_bad or (combo, variant.value, h)
    elapsed = time.perf_counter() - t0
    ok = discrepancies == 0 and elapsed < 300.0
    report(4, ok, f"{comparisons} oracle-vs-DP comparisons, {discrepancies} discrepancies, {elapsed:.1f}s")
    assert discrepancies == 0, first_bad
    assert elapsed < 300.0


def test_criterion_5_direct_theorem_exhaustive(report):
    t0 = time.perf_counter()
    failures = []
    grid = [(k, h) for k in range(4, 11) for h in range(3, k)]
    for k, h in grid:
        rep = minimize(SearchSpace(k, h, 2 * k + 5), shards=4)
        want = 2 * h * k - h * h + 1
        if (
            rep.minimum != want
            or rep.falsified
            or set(rep.classes) != {"DilatedOddProgression"}
            or sum(rep.classes.values()) != rep.minimizer_count
        ):
            failures.append((k, h, rep.to_dict()))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 600.0
    report(5, ok, f"{len(grid)} spaces exhausted, {len(failures)} failures, {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 600.0


def test_criterion_6_witness_suites(report):
    t0 = time.perf_counter()
    rng = random.Random(618)
    per_family = 500
    failures = []

    def run(name, make):
        for i in range(per_family):
            fam = make()
            if not (fam.verify().all_pass() and ordering_guards_hold(fam)):
                failures.append((name, i, fam.base_set.elements, fam.fold))

    run("parity-split", lambda: witness_parity_split(*random_parity_split_instance(rng)))
    run("odd-subsums", lambda: witness_odd_subsums(random_odd_subsums_instance(rng)))
    run("mixed-parity-a3", lambda: witness_mixed_parity_a3(*random_mixed_a3_instance(rng)))
    run("mixed-parity-a2", lambda: witness_mixed_parity_a2(*random_mixed_a2_instance(rng)))
    run("all-odd-extension", lambda: witness_all_odd_extension(*random_all_odd_instance(rng)))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300.0
    report(6, ok, f"5 families x {per_family} instances, {len(failures)} failures, {elapsed:.1f}s")
    assert not failures, failures[:5]
    assert elapsed < 300.0


# Criterion 7's sweep, every subset of [0, 13] with 1 <= k <= 6 and every
# h <= k: for each proved entry and (k, h) its hypotheses admit, the smallest
# count observed and the entry's bound, as (minimum, bound).  A formula edited
# either way moves a bound; a fold or a predicate edited moves a minimum.
# Where the two differ the sweep never attains the bound, which is all a
# lemma-level lower bound claims.
CATALOGUE_MINIMA = {
    "RSS_direct": {(4, 3): (16, 16), (5, 3): (22, 22), (5, 4): (25, 25), (6, 3): (28, 28),
        (6, 4): (33, 33), (6, 5): (36, 36)},
    "RSS_base": {(4, 3): (16, 16), (5, 4): (25, 25), (6, 5): (36, 36)},
    "RSS_weak_pos": {(1, 1): (2, 2), (2, 1): (4, 4), (2, 2): (4, 4), (3, 1): (6, 6),
        (3, 2): (8, 8), (3, 3): (7, 7), (4, 1): (8, 8), (4, 2): (12, 12), (4, 3): (16, 13),
        (4, 4): (11, 11), (5, 1): (10, 10), (5, 2): (16, 16), (5, 3): (22, 19),
        (5, 4): (25, 19), (5, 5): (16, 16), (6, 1): (12, 12), (6, 2): (20, 20),
        (6, 3): (28, 25), (6, 4): (33, 27), (6, 5): (36, 26), (6, 6): (22, 22)},
    "RSS_weak_zero": {(1, 1): (1, 1), (2, 1): (3, 3), (2, 2): (2, 2), (3, 1): (5, 5),
        (3, 2): (6, 6), (3, 3): (4, 4), (4, 1): (7, 7), (4, 2): (10, 10), (4, 3): (12, 10),
        (4, 4): (7, 7), (5, 1): (9, 9), (5, 2): (14, 14), (5, 3): (19, 16),
        (5, 4): (21, 15), (5, 5): (11, 11), (6, 1): (11, 11), (6, 2): (18, 18),
        (6, 3): (25, 22), (6, 4): (29, 23), (6, 5): (31, 21), (6, 6): (16, 16)},
    "R_plain": {(1, 1): (1, 1), (2, 1): (2, 2), (2, 2): (1, 1), (3, 1): (3, 3),
        (3, 2): (3, 3), (3, 3): (1, 1), (4, 1): (4, 4), (4, 2): (5, 5), (4, 3): (4, 4),
        (4, 4): (1, 1), (5, 1): (5, 5), (5, 2): (7, 7), (5, 3): (7, 7), (5, 4): (5, 5),
        (5, 5): (1, 1), (6, 1): (6, 6), (6, 2): (9, 9), (6, 3): (10, 10), (6, 4): (9, 9),
        (6, 5): (6, 6), (6, 6): (1, 1)},
    "Odd_k_eq_h": {(3, 3): (8, 8), (4, 4): (15, 15), (5, 5): (24, 24), (6, 6): (35, 35)},
    "MixedParity_case1": {(4, 3): (21, 20), (5, 4): (35, 30), (6, 5): (49, 42)},
    "MixedParity_case2a": {(4, 3): (19, 18), (5, 4): (31, 28), (6, 5): (46, 40)},
    "MixedParity_case2b": {(4, 3): (23, 20), (5, 4): (38, 31), (6, 5): (56, 44)},
    "MixedParity_case3_notAP": {(5, 4): (29, 26), (6, 5): (41, 37)},
    "MixedParity_case3_ap_odd": {(5, 4): (33, 26), (6, 5): (48, 39)},
    "MixedParity_case3_ap_even_h4": {(5, 4): (33, 26)},
    "MixedParity_case3_ap_even": {(6, 5): (51, 40)},
}


def test_criterion_7_bound_catalogue_soundness(report):
    t0 = time.perf_counter()
    status = {entry.id: entry.status for entry in bound_catalogue()}
    sets = reports = 0
    violations = []
    minima: dict = {}
    for k in range(1, 7):
        for combo in itertools.combinations(range(0, 14), k):
            sets += 1
            A = IntegerSet(combo)
            for h in range(1, k + 1):
                rss = compute_dp(A, RSS, h).cardinality
                plus = compute_dp(A, SumsetVariant.RESTRICTED, h).cardinality
                for rep in check_bounds(A, h, rss, RSS) + check_bounds(
                    A, h, plus, SumsetVariant.RESTRICTED
                ):
                    reports += 1
                    if status[rep.id] != "proved":
                        continue
                    if not rep.met:
                        violations.append((combo, h, rep.to_dict()))
                    cell = (rep.id, k, h)
                    seen = minima.get(cell, (rep.observed,))[0]
                    minima[cell] = (min(seen, rep.observed), rep.bound)
    pinned = {
        (entry_id, k, h): pair
        for entry_id, cells in CATALOGUE_MINIMA.items()
        for (k, h), pair in cells.items()
    }
    moved = sorted(
        (cell, minima.get(cell), pinned.get(cell))
        for cell in minima.keys() | pinned.keys()
        if minima.get(cell) != pinned.get(cell)
    )
    elapsed = time.perf_counter() - t0
    ok = not violations and not moved and elapsed < 600.0
    report(7, ok, f"{sets} sets, {reports} bound checks, {len(violations)} violations, "
                  f"{len(minima)} minima, {len(moved)} moved from the table, {elapsed:.1f}s")
    assert not violations, violations[:5]
    assert not moved, moved[:5]
    assert elapsed < 600.0


def test_criterion_8_shard_determinism(report, pooled_splits):
    t0 = time.perf_counter()
    # Large enough that pruning fires across shard boundaries.  Only a pool
    # splits the space; pooled_splits runs each split's shards in-process.
    space = SearchSpace(9, 7, 28)
    texts = {s: minimize(space, shards=s, workers=s).to_json() for s in (1, 2, 7, 16)}
    distinct = len(set(texts.values()))
    elapsed = time.perf_counter() - t0
    ok = distinct == 1
    report(8, ok, f"shards 1/2/7/16 over {space.total_sets} sets, {distinct} distinct reports, {elapsed:.1f}s")
    assert distinct == 1
    assert pooled_splits == [2, 6, 7]  # the ranges 2, 7 and 16 shards split into


def test_criterion_9_identity_properties(report):
    t0 = time.perf_counter()
    rng = random.Random(816)
    cases = 0
    failures = []

    def check(name, cond, ctx):
        nonlocal cases
        cases += 1
        if not cond:
            failures.append((name, ctx))

    for _ in range(2100):
        k = rng.randint(1, 5)
        magnitudes = rng.sample(range(0, 21), k)
        # one sign per magnitude, so A and -A meet only possibly at 0
        elems = tuple(sorted(m if rng.random() < 0.5 else -m for m in magnitudes))
        A = IntegerSet(elems)
        h = rng.randint(1, k)
        c = rng.choice((-3, -2, -1, 2, 3))

        rss = compute_dp(A, RSS, h)
        check(
            "dilation",
            compute_dp(IntegerSet(tuple(sorted(c * x for x in elems))), RSS, h).values
            == tuple(sorted(c * x for x in rss.values)),
            (elems, h, c),
        )
        check(
            "symmetry",
            rss.values == tuple(sorted(-x for x in rss.values)),
            (elems, h),
        )
        B = IntegerSet(tuple(sorted({abs(x) for x in elems})))
        check(
            "abs-identity",
            len(B) == len(A)
            and compute_dp(B, RSS, h).values == rss.values,
            (elems, h),
        )
        negA = IntegerSet(tuple(sorted(-x for x in elems)))
        plus = set(compute_dp(A, SumsetVariant.RESTRICTED, h).values)
        minus = set(compute_dp(negA, SumsetVariant.RESTRICTED, h).values)
        signed = set(compute_dp(A, SumsetVariant.SIGNED, h).values)
        check(
            "containment-chain",
            plus | minus <= set(rss.values) <= signed,
            (elems, h),
        )
        total = sum(A.elements)
        check(
            "full-fold",
            compute_dp(A, RSS, k).values
            == tuple(sorted(2 * s - total for s in subsums(A).values)),
            (elems,),
        )
    elapsed = time.perf_counter() - t0
    ok = cases >= 10_000 and not failures
    report(9, ok, f"{cases} identity cases, {len(failures)} failures, {elapsed:.1f}s")
    assert cases >= 10_000
    assert not failures, failures[:5]
