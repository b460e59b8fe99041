import concurrent.futures
import itertools
import json
import math
import os
import pickle
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumsetlab.bounds import Prediction, catalogue_entry
from sumsetlab.engine import SumsetVariant, compute_dp, compute_oracle, count_dp
from sumsetlab.errors import BadParams, CostCapExceeded, PoolFailed
from sumsetlab.intset import ArithmeticProgression, IntegerSet, classify_structure
from sumsetlab import search
from sumsetlab.search import (
    MINIMIZER_CAP,
    SETS_PER_WORKER,
    TABLE_BITS_CAP,
    SearchSpace,
    _scan_shard,
    _ShardResult,
    _shard_ranges,
    minimize,
)


def lex_sets(space):
    """Every set of the space in lexicographic element order, gcd filter
    not applied: an enumeration independent of the search's colex one."""
    pinned = (0,) if space.regime == "zero" else ()
    for combo in itertools.combinations(range(1, space.max_element + 1), space.choose_k):
        yield IntegerSet(pinned + combo)


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


def signed_layers(elements):
    """L_0 .. L_n of the n elements as Python sets: L_j holds the sums of j
    distinct elements, each with a sign."""
    layers = [{0}]
    for a in elements:
        layers.append(set())
        layers = [layers[0]] + [
            layers[j] | {s + a for s in layers[j - 1]} | {s - a for s in layers[j - 1]}
            for j in range(1, len(layers))
        ]
    return layers


def one_free(max_element):
    """A space whose largest free element is its only one: C(t, 1) = t sets
    have a largest element <= t."""
    return SearchSpace(2, 2, max_element, "zero")


class TestPruneFloors:
    """Every completion A of a suffix B by p >= 2 elements C counts at least
    |L_{h-j}(B)| + layer_floor(j, p) for each non-empty exact layer
    L_{h-j}(B), j <= min(p, h); the walk prunes only on these floors.

    C is distinct positive integers below B's positive elements (B may hold
    the zero regime's pinned 0), so A's fold holds X + Y for X = L_{h-j}(B)
    and Y = L_j^+-(C), the sums of j distinct elements of C, each with a
    sign; and |X + Y| >= |X| + |Y| - 1 for finite non-empty integer sets.
    - j = 0: Y = {0}, floor 0.
    - j = 1: Y = {+-c : c in C}, 2p values, so |X| + 2p - 1.  That is never
      attained, so the floor is 2p: if B's h largest elements are positive,
      L_h(B) has a sum above max X + max C, outside X + Y.  Otherwise
      X = {0} (B = {0}, h = 2; then A's fold also holds max C + min C,
      outside Y), or X's two largest sums differ by b or 2b for
      b = min(B - {0}).  |X + Y| = |X| + |Y| - 1 would need X and Y to be
      progressions of one difference (the equality case of the sumset
      inequality), 2 * min C for the symmetric Y; but b > max C >= 3 * min C.
    - j >= 2: let c_1 < ... < c_p be C and S = c_1 + ... + c_j.  The
      positive part of Y holds the restricted j-fold sums j^C, each >= S,
      and |j^C| >= j(p - j) + 1: from the j smallest elements, moving one
      summand at a time up to the next unused element, the largest summand
      first, takes j(p - j) steps, and each raises the sum.  It also holds
      the j - 1 values S - 2c_i for i < j: distinct, below S, and positive,
      since S - 2c_i >= c_j - c_i.  Y = -Y, so |Y| >= 2j(p - j + 1), and the
      floor is 2j(p - j + 1) - 1, with no strictness step; at j = p = 2 that
      is 3, the four values +-(c_1 + c_2) and +-(c_2 - c_1).
    """

    # The smallest slack, count - |L_{h-j}(B)| - layer_floor(j, p), that
    # test_floor_slack_is_pinned finds for each (j, p).  A 0 marks a floor
    # that some completion attains: one more would be unsound.
    SLACK = {
        (0, 2): 2, (0, 3): 6, (0, 4): 8, (0, 5): 10, (0, 6): 12,
        (1, 2): 0, (1, 3): 0, (1, 4): 0, (1, 5): 0, (1, 6): 0,
        (2, 2): 0, (2, 3): 2, (2, 4): 2, (2, 5): 2, (2, 6): 2,
        (3, 3): 1, (3, 4): 7, (3, 5): 7, (3, 6): 7,
        (4, 4): 3, (4, 5): 13, (4, 6): 13,
        (5, 5): 6, (5, 6): 21,
        (6, 6): 10,
    }

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_floors_are_sound_and_strict(self, data):
        zero = data.draw(st.booleans(), label="zero")
        positives = data.draw(st.lists(st.integers(3, 30), min_size=0 if zero else 1,
                                       max_size=4, unique=True), label="B")
        below = min(positives, default=31)
        p = data.draw(st.integers(2, min(6, below - 1)), label="p")
        C = data.draw(st.lists(st.integers(1, below - 1), min_size=p, max_size=p,
                               unique=True), label="C")
        B = IntegerSet(tuple(sorted([0] * zero + positives)))
        h = data.draw(st.integers(1, len(B) + p), label="h")
        # B's layers straight from the oracle, one call per layer, not from
        # the walk's own lift.
        layers = [{0}] + [
            set(compute_oracle(B, SumsetVariant.RESTRICTED_SIGNED, i).values)
            if i <= len(B) else set()
            for i in range(1, h + 1)
        ]
        A = IntegerSet(tuple(sorted(B.elements + tuple(C))))
        count = compute_oracle(A, SumsetVariant.RESTRICTED_SIGNED, h).cardinality
        for j in range(min(p, h) + 1):
            if layers[h - j]:
                assert len(layers[h - j]) + search.layer_floor(j, p) <= count, j

    def test_floor_slack_is_pinned(self):
        # Every suffix B of [0, 10] with at most three positive elements, 0
        # optional; every C of 2 <= p <= 6 elements below min B+ (below 11
        # when B = {0}); every h and every non-empty layer j <= min(p, h).
        slack = {}
        for n in range(4):
            for positives in itertools.combinations(range(1, 11), n):
                for B in {(0, *positives), positives} - {()}:
                    below = positives[0] if positives else 11
                    layers_B = signed_layers(B)
                    for p in range(2, min(6, below - 1) + 1):
                        for C in itertools.combinations(range(1, below), p):
                            layers_A = signed_layers(C + B)
                            for h in range(1, len(B) + p + 1):
                                for j in range(min(p, h) + 1):
                                    if h - j <= len(B) and layers_B[h - j]:
                                        gap = (len(layers_A[h]) - len(layers_B[h - j])
                                               - search.layer_floor(j, p))
                                        assert gap >= 0, (B, C, h, j)
                                        slack[j, p] = min(gap, slack.get((j, p), gap))
        assert slack == self.SLACK

    def test_deep_floors_change_no_report(self, monkeypatch):
        # The floors on layers h - 3 and below cut most of this space's
        # level >= 3 visits, each before it lifts the next layer.  With them
        # at 0 the report bytes must not move.
        space = SearchSpace(10, 8, 25)
        report = minimize(space, workers=1).to_json()
        floor = search.layer_floor
        monkeypatch.setattr(search, "layer_floor", lambda j, p: floor(j, p) if j < 3 else 0)
        assert minimize(space, workers=1).to_json() == report

    @pytest.mark.parametrize("raised", [(1,), (2,), range(3, 9)], ids=["j=1", "j=2", "j>=3"])
    def test_each_floor_prunes(self, monkeypatch, raised):
        # Each set of this space reaches level 2 with layers h - 1 and h - 2
        # non-empty, and its deep lift with layer h - 3 non-empty; a floor
        # raised above any count must then cut every set, so the walk reads
        # and prunes on it.
        floor = search.layer_floor
        monkeypatch.setattr(search, "layer_floor",
                            lambda j, p: 10**9 if j in raised else floor(j, p))
        with pytest.raises(BadParams, match="empty"):
            minimize(SearchSpace(10, 8, 25), workers=1)


class TestPartitionWork:
    def test_even_split_with_remainder(self):
        # Shares of 52.5, 105 and 157.5 sets end at 52, 105 and 157.
        assert _shard_ranges(one_free(210), 4) == [
            (1, 52), (53, 105), (106, 157), (158, 210),
        ]
        # C(t, 3) <= i * 120 / 3 cuts at t = 7 (35 sets) and t = 8 (56).
        assert _shard_ranges(SearchSpace(3, 2, 10), 3) == [
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


class TestShardSplit:
    def test_split_at_every_largest_element_matches_one_shard(self):
        # Any cut between two values of the largest element must merge back
        # to the one-shard result.
        spaces = [
            SearchSpace(k, h, max_element, regime, gcd_reduce)
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
                sum(whole.classes.values()),
                whole.minimizers,
                whole.classes,
            )
            assert expected == brute_report(space), space
            for c in range(first, last):
                head = _scan_shard(space, first, c)
                tail = _scan_shard(space, c + 1, last)
                # A shard reports a minimum only when it holds a tie.
                assert [r.minimum is None for r in (head, tail)] == [
                    not r.classes for r in (head, tail)
                ], (space, c)
                parts = [r for r in (head, tail) if r.minimum == whole.minimum]
                got = (
                    min(r.minimum for r in (head, tail) if r.minimum is not None),
                    sum(sum(r.classes.values()) for r in parts),
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
            SearchSpace(1, 1, 9)

    def test_max_element_range(self):
        with pytest.raises(BadParams):
            SearchSpace(4, 3, 0)
        with pytest.raises(BadParams):
            SearchSpace(4, 3, 3)  # no 4-subset of [1,3]

    def test_fold_window(self):
        with pytest.raises(BadParams, match="need 1 <= h <= k = 4, got h = 5"):
            SearchSpace(4, 5, 9)  # h > k
        with pytest.raises(BadParams, match="need 1 <= h <= k = 4, got h = 0"):
            SearchSpace(4, 0, 9)
        # Outside the stated window 3 <= h <= k-1 the space is accepted and
        # its report labelled, never falsified.
        assert minimize(SearchSpace(4, 2, 9)).regime == "positive/outside-stated-hypotheses"
        with pytest.raises(BadParams, match="fold count 65 exceeds supported cap 64"):
            SearchSpace(65, 65, 65)  # h over MAX_FOLD

    def test_space_cap(self):
        with pytest.raises(CostCapExceeded,
                           match="space has 22451004309013280 sets, over the cap 1000000000"):
            SearchSpace(10, 3, 200)

    def test_table_memory_cap(self):
        # One set, but k levels of tables 2 * h * max bits wide: about
        # 10 GiB, refused before anything is allocated.
        t0 = time.perf_counter()
        with pytest.raises(CostCapExceeded, match="search tables need about"):
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
        assert all(A.min >= 1 and A.elements[-1] <= 9 for A in sets)

    def test_labels_and_bounds(self):
        pos = SearchSpace(4, 3, 9)
        report = minimize(pos)
        assert report.bound == 2 * 3 * 4 - 9 + 1 == 16
        assert pos.bound_status == "theorem"
        assert report.regime == "positive"
        zero = SearchSpace(5, 3, 9, regime="zero")
        report = minimize(zero)
        assert report.bound == 2 * 3 * 5 - 3 * 4 + 1 == 19
        assert zero.bound_status == "conjecture"
        assert report.regime == "zero"


class TestMinimize:
    def test_smallest_direct_case(self):
        report = minimize(SearchSpace(4, 3, 9))
        assert report.minimum == 16
        assert report.bound == 16 and report.slack == 0
        assert report.minimizers == ((1, 3, 5, 7),)
        assert report.minimizer_count == 1
        assert report.classes == {"DilatedOddProgression": 1}
        assert report.falsified is False

    def test_matches_brute_force(self, pooled_splits):
        spaces = [
            SearchSpace(k, h, max_element, regime, gcd_reduce)
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
                # Level 2 is the top level, or the pinned 0 above level 1.
                (3, 2, 9, "positive"),
                (3, 3, 9, "positive"),
                (3, 1, 8, "zero"),
                (3, 2, 8, "zero"),
                (3, 3, 8, "zero"),
                (6, 2, 12, "positive"),  # no layer h - 3
                (9, 7, 13, "positive"),  # deep floors prune before each lift
                # The seed, {0,1,2,3}, counts 13 and the minimum is 12: a
                # shard that holds only the seed ties at 13, and the merge
                # must drop it.
                (4, 3, 8, "zero"),
            )
            for gcd_reduce in (True, False)
        ]
        for space in spaces:
            expected = brute_report(space)
            # One walk, then pooled shards: later shards start partway
            # through shared suffixes.
            for shards in (1, 3, 7, 16):
                report = minimize(space, shards=shards, workers=shards)
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
        report = minimize(SearchSpace(4, 4, 9))
        assert report.regime == "positive/outside-stated-hypotheses"
        assert report.falsified is False

    def test_falsified_reads_the_equality_prediction(self, monkeypatch):
        # At the bound, a minimizer the catalogue's prediction misses
        # falsifies the report: here the entry predicts another family.
        entry = catalogue_entry("RSS_direct")
        other = entry._replace(equality=((None, Prediction("an AP", ArithmeticProgression)),))
        monkeypatch.setattr(search, "catalogue_entry", lambda entry_id: other)
        report = minimize(SearchSpace(4, 3, 9))
        assert report.classes == {"DilatedOddProgression": 1}
        assert report.minimum == report.bound
        assert report.falsified is True

    def test_prediction_is_the_first_matching_family(self):
        # minimize reads the equality verdict off the class tally, so in
        # each regime's space the entry's prediction must hold on exactly
        # the sets classify_structure puts in the predicted family.
        for regime in ("positive", "zero"):
            for k in range(2, 8):
                spaces = [SearchSpace(k, h, 14, regime) for h in range(1, k + 1)]
                for A in lex_sets(spaces[0]):
                    first = type(classify_structure(A))
                    for space in spaces:
                        prediction = space.entry.prediction(space.h)
                        assert prediction.holds(A.elements) == (first is prediction.family), (
                            A, space,
                        )

    def test_rejects_fewer_than_one_worker(self):
        for workers in (0, -2):
            with pytest.raises(BadParams):
                minimize(SearchSpace(4, 3, 9), workers=workers)

    def test_minimizer_list_is_capped(self):
        report = minimize(SearchSpace(4, 3, 9))
        assert len(report.minimizers) <= MINIMIZER_CAP
        assert report.minimizer_count >= len(report.minimizers)


class TestDeterminism:
    """Only a pool splits the space, so each split here runs in the pool
    path, its shards in-process (the pooled_splits fixture)."""

    def test_shard_count_never_changes_the_report(self, pooled_splits):
        space = SearchSpace(5, 4, 11)
        baseline = minimize(space, shards=1).to_json()
        for shards in (2, 7, 16):
            assert minimize(space, shards=shards, workers=shards).to_json() == baseline
        # 7 and 16 shards of these 462 sets both split into 4 ranges.
        assert pooled_splits == [2, 4, 4]

    def test_workers_never_change_the_report(self, pooled_splits):
        space = SearchSpace(5, 4, 11)
        sequential = minimize(space, shards=4, workers=1).to_json()
        parallel = minimize(space, shards=4, workers=2).to_json()
        assert parallel == sequential
        assert pooled_splits == [2]

    def test_more_shards_than_sets(self, pooled_splits):
        space = SearchSpace(4, 3, 9)
        assert space.total_sets < 200
        assert minimize(space, shards=200, workers=200).to_json() == minimize(space).to_json()
        # Six values of the largest element, whose set counts fill four ranges.
        assert pooled_splits == [4]

    def test_huge_shard_count_is_capped_at_the_value_count(self, monkeypatch, pooled_splits):
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
        # 296,010 sets: two workers' worth, so shards >= 2 start a pool.
        space = SearchSpace(6, 4, 27)
        assert space.total_sets // SETS_PER_WORKER == 2
        pools = []
        real = concurrent.futures.ProcessPoolExecutor

        def counting(max_workers):
            pools.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting)
        monkeypatch.setattr(search, "usable_cpus", lambda: 2)
        for shards in (1, 2, 7):
            serial = minimize(space, shards=shards, workers=1).to_json()
            assert minimize(space, shards=shards, workers=2).to_json() == serial
        # shards=1 leaves one task, which is scanned in-process.
        assert pools == [2, 2]

    def test_pool_is_capped_at_the_cpu_count(self, monkeypatch, in_process_pool):
        # 593,775 sets are five workers' worth, but three CPUs get three.
        space = SearchSpace(6, 4, 30)
        assert space.total_sets // SETS_PER_WORKER == 5
        pools = in_process_pool
        helper = search.usable_cpus
        monkeypatch.setattr(search, "usable_cpus", lambda: 3)
        pooled = minimize(space, shards=8, workers=8).to_json()
        assert pools == [3]
        monkeypatch.setattr(search, "usable_cpus", helper)
        monkeypatch.delattr(os, "process_cpu_count", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert minimize(space, shards=8, workers=8).to_json() == pooled
        assert pools == [3]  # an unknown CPU count scans in-process
        assert minimize(space, shards=1, workers=1).to_json() == pooled

    def test_pool_is_capped_at_the_affinity_mask(self, monkeypatch, broken_pool):
        # The host has 8 CPUs, but the process may run on only 2 of them.
        # The broken pool records the size asked for and scans nothing.
        monkeypatch.delattr(os, "process_cpu_count", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert search.usable_cpus() == 2
        with pytest.raises(PoolFailed):
            minimize(SearchSpace(6, 4, 30), shards=8, workers=8)
        assert broken_pool.pools == [2]

    def test_broken_pool_is_a_typed_error(self, monkeypatch, broken_pool):
        # A killed worker, or a spawned one re-running an unguarded script,
        # breaks the pool; the caller sees a SumsetLabError.
        monkeypatch.setattr(search, "usable_cpus", lambda: 2)
        with pytest.raises(PoolFailed, match="search pool of 2 workers broke") as caught:
            minimize(SearchSpace(6, 4, 27), shards=2, workers=2)
        assert caught.value.__cause__ is broken_pool.error

    def test_small_space_never_starts_a_pool(self, monkeypatch):
        space = SearchSpace(5, 4, 11)
        assert space.total_sets < 2 * SETS_PER_WORKER

        def refuse(*args, **kwargs):
            raise AssertionError(f"pool, split or CPU probe for a small space: {args}")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(search, "_shard_ranges", refuse)
        monkeypatch.setattr(search, "usable_cpus", refuse)
        serial = minimize(space, shards=1, workers=1).to_json()
        # Under one worker's worth of sets, then exactly one.
        for sets_per_worker in (SETS_PER_WORKER, space.total_sets):
            monkeypatch.setattr(search, "SETS_PER_WORKER", sets_per_worker)
            for shards in (1, 2, 8):
                assert minimize(space, shards=shards, workers=8).to_json() == serial

    def test_no_pool_walks_the_space_once(self, monkeypatch):
        # One set is a worker's worth, so only one worker or one shard keeps
        # the pool from starting.  The space is then walked once, over every
        # value of its largest free element, and never split.
        def refuse(*args):
            raise AssertionError("split or CPU probe without a pool")

        walks = []
        real = search._scan_shard

        def spy(space, lo, hi):
            walks.append((lo, hi))
            return real(space, lo, hi)

        monkeypatch.setattr(search, "SETS_PER_WORKER", 1)
        monkeypatch.setattr(search, "_shard_ranges", refuse)
        monkeypatch.setattr(search, "usable_cpus", refuse)
        monkeypatch.setattr(search, "_scan_shard", spy)
        for space in (SearchSpace(5, 4, 11), SearchSpace(5, 3, 9, regime="zero")):
            for shards, workers in ((1, None), (1, 8), (8, 1), (8, None)):
                walks.clear()
                minimize(space, shards=shards, workers=workers)
                assert walks == [(space.choose_k, space.max_element)], (space, shards)
        for shards in (0, -1):
            with pytest.raises(BadParams, match=f"need at least 1 shard, got {shards}"):
                minimize(SearchSpace(5, 4, 11), shards=shards)


class TestUsableCpus:
    def test_process_cpu_count_comes_first(self, monkeypatch):
        monkeypatch.setattr(os, "process_cpu_count", lambda: 3, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert search.usable_cpus() == 3

    def test_cpu_count_is_the_last_resort(self, monkeypatch):
        # The affinity mask and an unknown count are covered by TestPoolSizing.
        monkeypatch.delattr(os, "process_cpu_count", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert search.usable_cpus() == 5


class TestSeedSet:
    def test_odd_progression_never_seeds_above_the_first_set(self):
        # Every shard starts from the seed's count, so it must be a set of
        # the space and, to prune at least as hard, count no more.
        for k in range(2, 13):
            for h in range(1, k):
                space = SearchSpace(k, h, 2 * k - 1)
                assert space.seed_set.elements == tuple(range(1, 2 * k, 2))
                seed, first = (
                    count_dp(s, SumsetVariant.RESTRICTED_SIGNED, h)
                    for s in (space.seed_set, space.first_set)
                )
                assert seed <= first, (k, h)

    def test_every_shard_starts_from_the_seed_set(self, monkeypatch, pooled_splits):
        seeds = []
        real = search.count_dp

        def recording(A, variant, h):
            seeds.append(A.elements)
            return real(A, variant, h)

        monkeypatch.setattr(search, "count_dp", recording)
        minimize(SearchSpace(6, 4, 14), shards=3, workers=3)
        assert pooled_splits == [3]
        assert seeds == [(1, 3, 5, 7, 9, 11)] * 3

    @pytest.mark.parametrize("space", [
        SearchSpace(5, 3, 8),  # max < 2k - 1: no odd progression
        SearchSpace(5, 5, 12),  # h = k
        SearchSpace(6, 3, 15, regime="zero"),
    ], ids=["small-max", "h-equals-k", "zero"])
    def test_otherwise_the_first_set_seeds(self, space):
        assert space.seed_set == space.first_set

    def test_first_set_is_the_first_in_colex_order(self):
        assert SearchSpace(5, 3, 8).first_set.elements == (1, 2, 3, 4, 5)
        assert SearchSpace(6, 3, 15, regime="zero").first_set.elements == (0, 1, 2, 3, 4, 5)


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

    def test_pickle_round_trip(self):
        # Both cross the process boundary of a pooled search.
        space = SearchSpace(5, 3, 12, regime="zero")
        shard = _scan_shard(space, 4, 12)
        assert pickle.loads(pickle.dumps(space)) == space
        assert pickle.loads(pickle.dumps(shard)) == shard
        assert isinstance(shard, _ShardResult) and sum(shard.classes.values()) > 0
