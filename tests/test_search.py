import itertools
import json
import math
import time
from collections import Counter

import pytest

from sumsetlab.bounds import Prediction
from sumsetlab.engine import SumsetVariant, compute_dp
from sumsetlab.errors import BadParams, FoldTooLarge, SpaceTooLarge
from sumsetlab.intset import IntegerSet, classify_structure
from sumsetlab import search
from sumsetlab.search import (
    MINIMIZER_CAP,
    SETS_PER_WORKER,
    TABLE_BITS_CAP,
    SearchSpace,
    _scan_shard,
    _shard_ranges,
    minimize,
)


def lex_sets(space):
    """Every set of the space in lexicographic element order, gcd filter
    not applied: an enumeration independent of the search's colex one."""
    for combo in itertools.combinations(range(space.max_element), space.choose_k):
        yield IntegerSet(space.materialize(combo))


def brute_report(space):
    """Independent route: a lexicographic scan over compute_dp with no
    sharding machinery, ties sorted into colex order afterwards.  Returns
    (minimum, minimizer_count, first minimizers, class tally)."""
    cards = []
    for A in lex_sets(space):
        if (
            space.gcd_reduce
            and space.regime == "positive"
            and math.gcd(*A.elements) > 1
        ):
            continue
        result = compute_dp(A, SumsetVariant.RESTRICTED_SIGNED, space.h)
        cards.append((A, result.cardinality))
    minimum = min(card for _, card in cards)
    tied = sorted(
        (A.elements for A, card in cards if card == minimum),
        key=lambda elems: elems[::-1],
    )
    classes = Counter(type(classify_structure(IntegerSet(e))).__name__ for e in tied)
    return minimum, len(tied), tuple(tied[:MINIMIZER_CAP]), dict(classes)


def one_free(max_element):
    """A space whose largest free element is its only one: C(t, 1) = t sets
    have a largest element <= t."""
    return SearchSpace(2, 2, max_element, "zero", allow_any_fold=True)


class TestPartitionWork:
    def test_even_split_with_remainder(self):
        # Shares of 52.5, 105 and 157.5 sets end at 52, 105 and 157.
        assert _shard_ranges(one_free(210), 4) == [
            (1, 52), (53, 105), (106, 157), (158, 210),
        ]
        # C(t, 3) <= i * 120 / 3 cuts at t = 7 (35 sets) and t = 8 (56).
        assert _shard_ranges(SearchSpace(3, 2, 10, allow_any_fold=True), 3) == [
            (3, 7), (8, 8), (9, 10),
        ]

    def test_single_shard(self):
        assert _shard_ranges(one_free(10), 1) == [(1, 10)]
        assert _shard_ranges(SearchSpace(5, 3, 9, regime="zero"), 1) == [(4, 9)]

    def test_more_shards_than_work(self):
        # No more ranges than values of the largest element, none empty.
        assert _shard_ranges(one_free(3), 5) == [(1, 1), (2, 2), (3, 3)]
        assert _shard_ranges(SearchSpace(4, 3, 4), 10**9) == [(4, 4)]

    def test_ranges_are_contiguous(self):
        for space in (
            one_free(1),
            one_free(99),
            SearchSpace(4, 3, 11),
            SearchSpace(5, 3, 12, regime="zero"),
            SearchSpace(8, 5, 24),
        ):
            values = list(range(space.choose_k, space.max_element + 1))
            for shards in (1, 2, 3, 7, 100, 10**9):
                ranges = _shard_ranges(space, shards)
                assert len(ranges) <= min(shards, len(values))
                covered = [v for lo, hi in ranges for v in range(lo, hi + 1)]
                assert covered == values, (space, shards)

    def test_rejects_zero_shards(self):
        for shards in (0, -1):
            with pytest.raises(BadParams):
                _shard_ranges(one_free(10), shards)


class TestShardSplit:
    def test_split_at_every_largest_element_matches_one_shard(self):
        # Any cut between two values of the largest element must merge back
        # to the one-shard result.
        spaces = [
            SearchSpace(k, h, max_element, regime, gcd_reduce, allow_any_fold=True)
            for k, h, max_element, regime in (
                (2, 2, 200, "zero"),  # one free element
                (2, 1, 20, "positive"),  # two
                (3, 2, 20, "zero"),
                (3, 2, 11, "positive"),  # three
                (4, 3, 11, "zero"),
                (4, 3, 10, "positive"),  # four
                (5, 3, 10, "zero"),
                # These two prune subtrees on both sides of every cut.
                (8, 5, 11, "positive"),
                (7, 4, 10, "zero"),
            )
            for gcd_reduce in (True, False)
        ]
        for space in spaces:
            first, last = space.choose_k, space.max_element
            assert 150 <= space.total_sets <= 210, space
            whole = _scan_shard(space, first, last)
            expected = (
                whole.minimum,
                whole.minimizer_count,
                whole.minimizers,
                whole.classes,
            )
            assert expected == brute_report(space), space
            for c in range(first, last):
                head = _scan_shard(space, first, c)
                tail = _scan_shard(space, c + 1, last)
                parts = [r for r in (head, tail) if r.minimum == whole.minimum]
                got = (
                    min(r.minimum for r in (head, tail) if r.minimum is not None),
                    sum(r.minimizer_count for r in parts),
                    tuple(m for r in parts for m in r.minimizers)[:MINIMIZER_CAP],
                    dict(sum((Counter(r.classes) for r in parts), Counter())),
                )
                assert got == expected, (space, c)


class TestSearchSpaceValidation:
    def test_unknown_regime(self):
        with pytest.raises(BadParams):
            SearchSpace(4, 3, 9, regime="negative")

    def test_k_too_small(self):
        with pytest.raises(BadParams):
            SearchSpace(1, 1, 9, allow_any_fold=True)

    def test_max_element_range(self):
        with pytest.raises(BadParams):
            SearchSpace(4, 3, 0)
        with pytest.raises(BadParams):
            SearchSpace(4, 3, 3)  # no 4-subset of [1,3]

    def test_fold_window(self):
        with pytest.raises(BadParams):
            SearchSpace(4, 5, 9)  # h > k
        with pytest.raises(BadParams):
            SearchSpace(4, 2, 9)  # outside stated window...
        SearchSpace(4, 2, 9, allow_any_fold=True)  # ...unless opted in
        with pytest.raises(FoldTooLarge):
            SearchSpace(65, 65, 65, allow_any_fold=True)  # h over MAX_FOLD

    def test_space_cap(self):
        with pytest.raises(SpaceTooLarge):
            SearchSpace(10, 3, 200, allow_any_fold=True)

    def test_table_memory_cap(self):
        # One set, but k levels of tables 2 * h * max bits wide: about
        # 10 GiB, refused before anything is allocated.
        t0 = time.perf_counter()
        with pytest.raises(SpaceTooLarge):
            SearchSpace(60000, 3, 60000)
        assert time.perf_counter() - t0 < 0.05
        space = SearchSpace(4000, 3, 4000)
        assert space.table_bits <= TABLE_BITS_CAP
        assert minimize(space).minimizers == (tuple(range(1, 4001)),)

    def test_zero_regime_population(self):
        space = SearchSpace(5, 3, 9, regime="zero")
        assert space.choose_k == 4
        assert space.total_sets == math.comb(9, 4)
        sets = list(lex_sets(space))
        assert len(sets) == space.total_sets
        assert all(A.min == 0 and len(A) == 5 for A in sets)

    def test_positive_regime_population(self):
        space = SearchSpace(4, 3, 9)
        sets = list(lex_sets(space))
        assert len(sets) == math.comb(9, 4)
        assert all(A.min >= 1 and A.max <= 9 for A in sets)

    def test_labels_and_bounds(self):
        pos = SearchSpace(4, 3, 9)
        assert pos.bound == 2 * 3 * 4 - 9 + 1 == 16
        assert pos.bound_status == "theorem"
        assert pos.regime_label == "positive"
        zero = SearchSpace(5, 3, 9, regime="zero")
        assert zero.bound == 2 * 3 * 5 - 3 * 4 + 1 == 19
        assert zero.bound_status == "conjecture"
        assert zero.regime_label == "zero"


class TestMinimize:
    def test_smallest_direct_case(self):
        report = minimize(SearchSpace(4, 3, 9))
        assert report.minimum == 16
        assert report.bound == 16 and report.slack == 0
        assert report.minimizers == ((1, 3, 5, 7),)
        assert report.minimizer_count == 1
        assert report.classes == {"DilatedOddProgression": 1}
        assert report.falsified is False

    def test_matches_brute_force(self):
        spaces = [
            SearchSpace(k, h, max_element, regime, gcd_reduce, allow_any_fold=True)
            for k, h, max_element, regime in (
                (4, 3, 12, "positive"),
                (4, 1, 9, "positive"),  # every set ties, so the cap binds
                (4, 4, 9, "positive"),
                (5, 3, 9, "zero"),
                (4, 1, 8, "zero"),
                (4, 4, 8, "zero"),
                (2, 1, 7, "zero"),  # one free position
                (2, 2, 7, "zero"),
                (8, 5, 11, "positive"),  # subtrees pruned
                (7, 4, 10, "zero"),
                # A second minimizer, {0, 2, ..., 12}, two thirds of the way
                # through the colex order: a pruned subtree or a resumed
                # shard that loses track of its sets misses it.
                (7, 2, 12, "zero"),
            )
            for gcd_reduce in (True, False)
        ]
        for space in spaces:
            expected = brute_report(space)
            # Later shards start partway through shared suffixes.
            for shards in (1, 3, 7, 16):
                report = minimize(space, shards=shards)
                got = (
                    report.minimum,
                    report.minimizer_count,
                    report.minimizers,
                    report.classes,
                )
                assert got == expected, (space, shards)

    def test_gcd_filter_collapses_dilates(self):
        plain = minimize(SearchSpace(4, 3, 14, gcd_reduce=False))
        reduced = minimize(SearchSpace(4, 3, 14, gcd_reduce=True))
        assert plain.minimum == reduced.minimum == 16
        assert plain.minimizers == ((1, 3, 5, 7), (2, 6, 10, 14))
        assert plain.classes == {"DilatedOddProgression": 2}
        assert reduced.minimizers == ((1, 3, 5, 7),)
        assert plain.falsified is False and reduced.falsified is False

    def test_zero_regime_within_hypotheses(self):
        report = minimize(SearchSpace(5, 3, 9, regime="zero"))
        assert report.minimum == report.bound == 19
        assert report.regime == "zero"
        assert report.minimizers == ((0, 1, 2, 3, 4), (0, 2, 4, 6, 8))
        assert report.classes == {"ArithmeticProgression": 2}
        assert report.falsified is False

    def test_zero_regime_small_k_is_flagged_not_falsified(self):
        # At k=4 the zero-regime minimum genuinely undercuts the k>=5
        # conjecture formula; the report must say "outside hypotheses"
        # rather than claim a falsification.
        report = minimize(SearchSpace(4, 3, 8, regime="zero"))
        assert report.minimum == 12
        assert report.bound == 13
        assert report.regime == "zero/outside-stated-hypotheses"
        assert report.falsified is False

    def test_full_fold_outside_hypotheses(self):
        report = minimize(SearchSpace(4, 4, 9, allow_any_fold=True))
        assert report.regime == "positive/outside-stated-hypotheses"
        assert report.falsified is False

    def test_falsified_reads_the_equality_prediction(self, monkeypatch):
        # At the bound, a minimizer the catalogue's prediction misses
        # falsifies the report.
        monkeypatch.setattr(Prediction, "holds", lambda self, elements: False)
        report = minimize(SearchSpace(4, 3, 9))
        assert report.minimum == report.bound
        assert report.falsified is True

    def test_rejects_fewer_than_one_worker(self):
        for workers in (0, -2):
            with pytest.raises(BadParams):
                minimize(SearchSpace(4, 3, 9), workers=workers)

    def test_minimizer_list_is_capped(self):
        report = minimize(SearchSpace(4, 3, 9))
        assert len(report.minimizers) <= MINIMIZER_CAP
        assert report.minimizer_count >= len(report.minimizers)


class TestDeterminism:
    def test_shard_count_never_changes_the_report(self):
        space = SearchSpace(5, 4, 11)
        baseline = minimize(space, shards=1).to_json()
        for shards in (2, 7, 16):
            assert minimize(space, shards=shards).to_json() == baseline

    def test_workers_never_change_the_report(self):
        space = SearchSpace(5, 4, 11)
        sequential = minimize(space, shards=4, workers=1).to_json()
        parallel = minimize(space, shards=4, workers=2).to_json()
        assert parallel == sequential

    def test_more_shards_than_sets(self):
        space = SearchSpace(4, 3, 9)
        assert space.total_sets < 200
        assert minimize(space, shards=200).to_json() == minimize(space).to_json()

    def test_huge_shard_count_is_capped_at_the_value_count(self, monkeypatch):
        # One task per requested shard would exhaust memory long before
        # the scan; the split never asks for more shards than values of
        # the largest element.
        space = SearchSpace(4, 3, 7)
        scanned = []
        real = search._scan_shard

        def spy(space, lo, hi):
            scanned.append((lo, hi))
            return real(space, lo, hi)

        monkeypatch.setattr(search, "_scan_shard", spy)
        report = minimize(space, shards=10**9, workers=2)
        # Four values of the largest element; the first two share a range,
        # as C(5, 4) = 5 sets fit in the first quarter of 35.
        assert scanned == [(4, 5), (6, 6), (7, 7)]
        assert report.to_json() == minimize(space, shards=1).to_json()


class TestPoolSizing:
    def test_large_space_starts_a_pool(self, monkeypatch):
        # 66,045 sets: two workers' worth, so shards >= 2 start a pool.
        space = SearchSpace(4, 3, 37)
        assert space.total_sets // SETS_PER_WORKER == 2
        pools = []
        real = search.ProcessPoolExecutor

        def counting(max_workers):
            pools.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(search, "ProcessPoolExecutor", counting)
        monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
        for shards in (1, 2, 7):
            serial = minimize(space, shards=shards, workers=1).to_json()
            assert minimize(space, shards=shards, workers=2).to_json() == serial
        # shards=1 leaves one task, which is scanned in-process.
        assert pools == [2, 2]

    def test_pool_is_capped_at_the_cpu_count(self, monkeypatch, in_process_pool):
        # 170,544 sets are five workers' worth, but three CPUs get three.
        space = SearchSpace(7, 5, 22)
        assert space.total_sets // SETS_PER_WORKER == 5
        pools = in_process_pool
        monkeypatch.setattr(search.os, "cpu_count", lambda: 3)
        pooled = minimize(space, shards=8, workers=8).to_json()
        assert pools == [3]
        monkeypatch.setattr(search.os, "cpu_count", lambda: None)
        assert minimize(space, shards=8, workers=8).to_json() == pooled
        assert pools == [3]  # an unknown CPU count scans in-process
        assert minimize(space, shards=1, workers=1).to_json() == pooled

    def test_small_space_never_starts_a_pool(self, monkeypatch):
        space = SearchSpace(5, 4, 11)
        assert space.total_sets < 2 * SETS_PER_WORKER

        def refuse(max_workers):
            raise AssertionError(f"pool of {max_workers} started for a small space")

        monkeypatch.setattr(search, "ProcessPoolExecutor", refuse)
        serial = minimize(space, shards=1, workers=1).to_json()
        for shards in (1, 2, 8):
            assert minimize(space, shards=shards, workers=8).to_json() == serial


class TestReportSerialization:
    def test_json_key_order_and_round_trip(self):
        report = minimize(SearchSpace(4, 3, 9))
        text = report.to_json()
        doc = json.loads(text)
        assert list(doc) == [
            "k", "h", "max", "regime", "min", "bound", "slack",
            "minimizer_count", "minimizers", "classes", "falsified",
        ]
        assert json.dumps(doc, indent=2) == text
        assert doc["min"] == 16 and doc["minimizers"] == [[1, 3, 5, 7]]

    def test_csv_shape(self):
        report = minimize(SearchSpace(4, 3, 9))
        lines = report.to_csv().splitlines()
        assert lines[0] == "k,h,N,regime,min,bound,slack,minimizer_count,falsified"
        assert lines[1] == "4,3,9,positive,16,16,0,1,false"
