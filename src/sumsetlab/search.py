"""Exhaustive minimum-cardinality search over small spaces of integer sets.

A SearchSpace fixes a set size k, a fold count h, a maximum element, and a
regime ("positive": k-subsets of [1, max]; "zero": {0} plus a (k-1)-subset
of [1, max]).  minimize() scans every set in the space, records the minimum
restricted-signed h-fold cardinality, tallies the structure classes of all
minimum-achieving sets, and compares against the regime's catalogue bound
(RSS_direct, or the conjectured RSS_conj2 in the zero regime).  A report is
falsified only when the bound's hypotheses hold and either the minimum
undercuts the bound or some minimizer fails the bound's equality
prediction.

A search that starts no pool walks the whole space once.  Only a pool
splits it, into contiguous ranges of the set's largest free element, so any
shard count (and any worker count) produces a byte-identical report: each
shard returns its minimum, the exact count of minimum-achieving sets, the
first 64 of them in colex order, and a structure-class tally; shards merge
in order of their ranges, which is colex order.

A shard counts each set's sumset without building it.  Colex order is the
order of nested loops with the largest element outermost, so a shard walks
its subtrees depth first.  The restricted-signed fold does not depend on
element order, so each element from the largest down to the fourth-smallest
lifts the exact layers of the tables above it by one into its level's
table, which the shard allocates once.  It tests each lifted layer's floor
before it lifts the next, and stops at the first floor above the running
minimum: its subtree is then skipped, and the layers not yet lifted never
are.  The strongest floor goes first: layer h - 1, then h, then h - 2, all
three plain ints, then h - 3 on down.  The third-smallest element stops at
those three, and the two smallest share one double loop over them: the
second-smallest reduces them to two ints, layer h - 1 before h, and each
smallest element then costs three shifts, two ors and a bit count.  The
zero regime's pinned 0 sits above the largest free element, so every
space, down to one free element, takes the same walk.  Tables are offset by
h * max, so a right shift never drops a set bit.  The gcd filter, an
IntegerSet and a classification cost something only for a set that ties or
undercuts the shard's running minimum.

The walk is a branch and bound.  Once the elements from the largest down
to level p are lifted, the tables hold the exact layers L_{h-j}(B),
j <= p, of that suffix B.  The p elements still to come, C, are distinct
positive integers outside B, so every completion A has h^_+-(A) containing
X + L_j^+-(C) for X = L_{h-j}(B), where L_j^+-(C) holds the sums of j
distinct elements of C, each with a sign.  Since |X + Y| >= |X| + |Y| - 1
for finite non-empty integer sets, each completion counts at least
|X| + |L_j^+-(C)| - 1 whenever X is non-empty.  layer_floor(j, p) is that
excess over |X|:
- j = 0: 0, from A's fold containing L_h(B).
- j = 1: L_1^+-(C) = {+-c} has 2p values, so 2p - 1.  For p >= 2 that is
  never attained (the docstring of tests/test_search.py::TestPruneFloors
  has the proof), so the floor is 2p.
- j >= 2: with S the sum of C's j smallest elements c_1 < ... < c_j, the
  positive part of L_j^+-(C) holds the restricted j-fold sums j^C, at
  least j(p - j) + 1 values, each >= S, and the j - 1 values S - 2c_i,
  i < j, distinct, below S and positive.  L_j^+-(C) is symmetric, so it
  has at least 2j(p - j + 1) values, and the floor is 2j(p - j + 1) - 1
  (3 at j = p = 2).
A subtree whose floor is above the shard's running minimum is skipped
whole.  The prune is strict, so every tie is still visited, counted and
classified, and the report does not change.

Every shard starts its running minimum at engine.count_dp of one set of
the space (SearchSpace.seed_set), which the space's minimum can only tie or
undercut: the odd progression {1, 3, ..., 2k - 1} where the positive regime
holds it and h < k, else the first colex set, {1..k} or {0..k-1}.  The seed
always comes from a real set of the space, never from the catalogue bound
the search tests.  A shard whose range holds no set that low would
otherwise prune against a higher count than a serial scan, which reaches
the progression within its first C(2k - 1, k) sets.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from typing import NamedTuple, Optional

from .bounds import (
    REGIME_POSITIVE,
    REGIME_ZERO,
    BoundCatalogEntry,
    catalogue_entry,
    dump_json,
)
from .engine import MAX_FOLD, TABLE_BITS_CAP, SumsetVariant, count_dp, fold_bits
from .errors import BadParams, CostCapExceeded, PoolFailed
from .intset import (
    MAX_ELEMENT,
    ArithmeticProgression,
    DilatedOddProgression,
    IntegerSet,
    Value,
    classify_structure,
    field,
)

OUTSIDE_HYPOTHESES = "outside-stated-hypotheses"

SPACE_CAP = 10**9
MINIMIZER_CAP = 64

# Fewest sets worth a pool worker: 2 * SETS_PER_WORKER is the smallest set
# count from which a 2-worker pool was not slower than the serial scan on
# any measured space.  Measured through cli.main (search --format json,
# --workers 1 against 2 with every 2-worker run pooled, reports equal),
# three series of 9 alternated pairs, medians of 27 (Python 3.11, 2 CPUs,
# fork).  The serial scan costs 0.02-0.41 us per set, depending on how much
# it prunes:
#
#   space                   sets  us/set  serial ms  pool ms
#   k=4 h=3 max=37        66,045   0.41       27.4     32.7
#   zero k=7 h=4 max=22   74,613   0.17       12.7     19.4
#   k=7 h=5 max=20        77,520   0.32       25.0     26.8
#   k=6 h=5 max=24       134,596   0.28       37.9     34.6
#   k=5 h=3 max=30       142,506   0.14       19.6     24.7
#   k=4 h=3 max=45       148,995   0.36       53.9     47.0
#   k=7 h=5 max=22       170,544   0.24       41.0     35.9
#   k=6 h=4 max=26       230,230   0.16       36.6     34.5
#   zero k=7 h=4 max=26  230,230   0.10       23.9     25.0  (the last loss)
#   k=4 h=3 max=50       230,300   0.40       91.8     65.6
#   k=7 h=5 max=24       346,104   0.18       61.5     51.4
#   zero k=7 h=4 max=30  593,775   0.069      40.7     28.5
#   k=8 h=5 max=24       735,471   0.078      57.2     48.1
#   k=5 h=3 max=44     1,086,008   0.056      61.0     59.9
#   k=8 h=5 max=30     5,852,925   0.021     120.9     95.6
#
# 34 more spaces, from 376,740 to 5,245,786 sets, were all faster pooled;
# BENCH_23.json has the full table of 49.  Under a start method other than
# fork each worker starts slower, so its crossover is higher.
SETS_PER_WORKER = 115_150


def layer_floor(j: int, p: int) -> int:
    """The fewest sums that p >= 2 elements still to come add to a non-empty
    exact layer L_{h-j}(B), 0 <= j <= p: every completion of B counts at
    least |L_{h-j}(B)| + layer_floor(j, p) (see the module docstring)."""
    if j == 0:
        return 0
    if j == 1:
        return 2 * p
    return 2 * j * (p - j + 1) - 1


def usable_cpus() -> int:
    """The CPUs this process may run on: os.process_cpu_count() (Python
    3.13+), else the scheduler affinity mask, else os.cpu_count(); 1 when
    none of them knows."""
    if hasattr(os, "process_cpu_count"):
        count = os.process_cpu_count()
    elif hasattr(os, "sched_getaffinity"):
        count = len(os.sched_getaffinity(0))
    else:
        count = os.cpu_count()
    return count or 1


class SearchSpace(Value):
    """All k-element sets of a regime with elements bounded by max_element."""

    __slots__ = ()
    k, h, max_element, regime, gcd_reduce = map(field, range(5))

    def __new__(
        cls,
        k: int,
        h: int,
        max_element: int,
        regime: str = REGIME_POSITIVE,
        gcd_reduce: bool = True,
    ) -> "SearchSpace":
        return super().__new__(cls, k, h, max_element, regime, gcd_reduce)

    def __post_init__(self) -> None:
        if self.regime not in (REGIME_POSITIVE, REGIME_ZERO):
            raise BadParams(f"unknown regime {self.regime!r}")
        if self.k < 2:
            raise BadParams(f"need k >= 2, got {self.k}")
        if not 1 <= self.max_element <= MAX_ELEMENT:
            raise BadParams(f"max_element out of range: {self.max_element}")
        if self.max_element < self.choose_k:
            raise BadParams(
                f"no {self.regime} sets of size {self.k} with elements <= {self.max_element}"
            )
        if not 1 <= self.h <= self.k:
            raise BadParams(f"need 1 <= h <= k = {self.k}, got h = {self.h}")
        if self.table_bits > TABLE_BITS_CAP:
            raise CostCapExceeded(
                f"search tables need about {self.table_bits} bits, over the cap "
                f"{TABLE_BITS_CAP}"
            )
        if self.total_sets > SPACE_CAP:
            raise CostCapExceeded(
                f"space has {self.total_sets} sets, over the cap {SPACE_CAP}"
            )
        if self.h > MAX_FOLD:
            raise BadParams(f"fold count {self.h} exceeds supported cap {MAX_FOLD}")

    @property
    def choose_k(self) -> int:
        """Free positions per set: k, or k-1 once 0 is pinned."""
        return self.k - 1 if self.regime == REGIME_ZERO else self.k

    @property
    def table_bits(self) -> int:
        """Bits a shard's walk holds: one fold's tables, offset h * max, for
        each of the k levels."""
        return self.k * fold_bits(self.h, self.h * self.max_element)

    @property
    def total_sets(self) -> int:
        return math.comb(self.max_element, self.choose_k)

    @property
    def entry(self) -> BoundCatalogEntry:
        """The catalogue bound the space's minimum is compared against.

        Looked up on each access, never stored: the space is pickled into
        pool workers, and catalogue entries hold lambdas.
        """
        entry_id = "RSS_conj2" if self.regime == REGIME_ZERO else "RSS_direct"
        return catalogue_entry(entry_id)

    @property
    def first_set(self) -> IntegerSet:
        """The space's first set in colex order: {1..k}, or {0..k-1}."""
        first = 0 if self.regime == REGIME_ZERO else 1
        return ArithmeticProgression(first, 1).reconstruct(self.k)

    @property
    def seed_set(self) -> IntegerSet:
        """The set whose count starts every shard's running minimum.

        In the positive regime with h < k and max >= 2k - 1 that is the odd
        progression {1, 3, ..., 2k - 1}, whose count is never above
        first_set's, so a shard whose range holds neither set still prunes
        as hard as a serial scan that has passed them.  Otherwise it is
        first_set.
        """
        k = self.k
        if self.regime == REGIME_POSITIVE and self.h < k and 2 * k - 1 <= self.max_element:
            return DilatedOddProgression(1).reconstruct(k)
        return self.first_set

    @property
    def bound_status(self) -> str:
        return "theorem" if self.entry.status == "proved" else self.entry.status


def _shard_ranges(space: SearchSpace, shards: int) -> list[tuple[int, int]]:
    """Split the largest free element's values, choose_k to max, into at most
    `shards` contiguous (lo, hi) ranges of about equal set counts.

    Share i ends at the last value t whose C(t, choose_k) sets with largest
    element at most t fit in i * total / shards, so the split is a pure
    function of (space, shards) and never holds more ranges than values.
    """
    if shards < 1:
        raise BadParams(f"need at least 1 shard, got {shards}")
    n, top = space.choose_k, space.max_element
    values = range(n, top + 1)
    shards = min(shards, len(values))
    total = space.total_sets
    cuts = [n - 1]
    for i in range(1, shards):
        fits = bisect_right(values, i * total, key=lambda t: math.comb(t, n) * shards)
        cuts.append(n - 1 + fits)
    cuts.append(top)
    return [(a + 1, b) for a, b in zip(cuts, cuts[1:]) if a < b]


class _ShardResult(NamedTuple):
    minimum: Optional[int]
    minimizer_count: int
    minimizers: tuple[tuple[int, ...], ...]
    classes: dict[str, int]
    unpredicted: int  # minimizers the bound's equality prediction misses


def _scan_shard(space: SearchSpace, lo: int, hi: int) -> _ShardResult:
    """Scan every set whose largest free element lies in [lo, hi]."""
    h, k = space.h, space.k
    skip_imprimitive = space.gcd_reduce and space.regime == REGIME_POSITIVE
    prediction = space.entry.prediction(h)
    # Level p holds the set's (p+1)-th smallest free element, which runs
    # from p + 1 up to the element at level p + 1.  The zero regime's
    # pinned 0 is the top level, k - 1.  The level of the largest free
    # element runs over the shard's [lo, hi]: it is the top level, or the
    # one below the pinned 0, the only level whose parent element is 0.
    pinned = (0,) if space.regime == REGIME_ZERO else ()
    # tables[p]: rss layer tables of the elements at levels p and up, folded
    # top level first; tables[p][-1 - i] is layer h - i.  Only layers
    # h - i, i <= p, are exact: the p smaller elements still to come lift a
    # sum by at most p layers, so level p writes only those and level p - 1
    # reads only those.  Each level's table is allocated once per shard and
    # overwritten by each of its elements.  The offset h * max keeps every
    # sum inside the table, so a right shift never drops a set bit.  Three
    # zero layers pad each table below layer 0, so layers h - 1 to h - 3
    # exist for every h; a zero layer lifts to zero, so the pad stays zero.
    tables = [[0] * (h + 4) for _ in range(k)]
    tables.append([0, 0, 0, 1 << h * space.max_element] + [0] * h)
    # floors[p][i] = layer_floor(i, p) for each layer h - i that level
    # p >= 2 lifts: the top three, then the exact ones down to h - min(p, h).
    floors = [[], []] + [
        [layer_floor(i, p) for i in range(max(2, min(p, h)) + 1)] for p in range(2, k)
    ]
    # Every shard starts its minimum at the count of the space's seed set.
    best = count_dp(space.seed_set, SumsetVariant.RESTRICTED_SIGNED, h)
    # The walk keeps its own stack rather than recursing: SPACE_CAP admits
    # k in the thousands (k = max), past Python's recursion limit.
    vals = [0] * k  # the current element at each level >= 2
    levels: list = [None] * k  # the values each open level has still to visit
    levels[k - 1] = iter(pinned or range(lo, hi + 1))
    n_best = 0
    unpredicted = 0
    minimizers: list[tuple[int, ...]] = []
    classes: dict[str, int] = {}
    p = k - 1
    while p < k:
        if p > 1:
            a = next(levels[p], None)
            if a is None:
                p += 1
                continue
            # Level p's element lifts the layers of the tables above it by
            # one, and each lifted layer's floor is tested before the next
            # is lifted (see the module docstring).  Ties are kept, so only
            # a floor above best skips the subtree.  The top three layers
            # are lifted inline, strongest floor first: h - 1, whose 2p
            # cuts most subtrees, then h, then h - 2.  Level 2 needs no more.
            above = tables[p + 1]
            floor = floors[p]
            x, y = above[-2], above[-3]
            u = x | y << a | y >> a
            if u and u.bit_count() + floor[1] > best:
                continue
            t = above[-1] | x << a | x >> a
            if t.bit_count() > best:
                continue
            z = above[-4]
            v = y | z << a | z >> a
            if v and v.bit_count() + floor[2] > best:
                continue
            vals[p] = a
            opened = range(p, a) if a else range(lo, hi + 1)
            if p > 2:
                # Lift the rest of the exact layers, h - 3 down to h - p.
                layer = tables[p]
                for i in range(3, len(floor)):
                    low = above[-2 - i]
                    lifted = above[-1 - i] | low << a | low >> a
                    if lifted and lifted.bit_count() + floor[i] > best:
                        break
                    layer[-1 - i] = lifted
                else:
                    # The subtree survives: open the level below.
                    layer[-1], layer[-2], layer[-3] = t, u, v
                    p -= 1
                    levels[p] = iter(opened)
                continue
            # Level 2's three exact layers are all levels 1 and 0 read.
            a1s = opened
        else:
            # k = 2: level 1 is the top level, walked once; p = k then ends
            # the walk.
            t, u, v = tables[2][-1], tables[2][-2], tables[2][-3]
            a1s = levels[1]
            p = 2
        # Levels 1 and 0, fused.  After the second-smallest element a1 the
        # smallest one needs only two ints: the top layer and the one below.
        for a1 in a1s:
            # Each set of the range counts at least |below| + 1 and |top|:
            # at p = 1 the j = 1 floor is the sumset inequality's 2p - 1.
            # It cuts nearly every a1, so top is lifted only past it.
            below = u | v << a1 | v >> a1
            if below.bit_count() >= best:
                continue
            top = t | u << a1 | u >> a1
            if top.bit_count() > best:
                continue
            for a in range(1, a1) if a1 else range(lo, hi + 1):
                card = (top | below << a | below >> a).bit_count()
                if card <= best:
                    # Few sets tie or undercut, so the gcd filter runs here.
                    elems = tuple(sorted([a, a1, *vals[2:]]))
                    if skip_imprimitive and math.gcd(*elems) > 1:
                        continue
                    name = type(classify_structure(IntegerSet(elems))).__name__
                    if card < best:
                        best = card
                        n_best = 0
                        unpredicted = 0
                        minimizers = []
                        classes = {}
                    n_best += 1
                    if len(minimizers) < MINIMIZER_CAP:
                        minimizers.append(elems)
                    classes[name] = classes.get(name, 0) + 1
                    unpredicted += not prediction.holds(elems)
    return _ShardResult(
        best if n_best else None, n_best, tuple(minimizers), classes, unpredicted
    )


class SearchReport(NamedTuple):
    k: int
    h: int
    max_element: int
    regime: str
    minimum: int
    bound: int
    minimizer_count: int
    minimizers: tuple[tuple[int, ...], ...]
    classes: dict[str, int]
    falsified: bool

    @property
    def slack(self) -> int:
        return self.minimum - self.bound

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "h": self.h,
            "max": self.max_element,
            "regime": self.regime,
            "min": self.minimum,
            "bound": self.bound,
            "slack": self.slack,
            "minimizer_count": self.minimizer_count,
            "minimizers": [list(m) for m in self.minimizers],
            "classes": {name: self.classes[name] for name in sorted(self.classes)},
            "falsified": self.falsified,
        }

    def to_json(self) -> str:
        return dump_json(self.to_dict())

    def to_csv(self) -> str:
        row = (
            self.k,
            self.h,
            self.max_element,
            self.regime,
            self.minimum,
            self.bound,
            self.slack,
            self.minimizer_count,
            "true" if self.falsified else "false",
        )
        header = "k,h,N,regime,min,bound,slack,minimizer_count,falsified"
        return f"{header}\n{','.join(map(str, row))}\n"


def minimize(
    space: SearchSpace, shards: int = 1, workers: Optional[int] = None
) -> SearchReport:
    """Scan the whole space and report the minimum fold cardinality.

    The report is a pure function of the space: shard and worker counts
    change only how the scan is split, never its outcome.  `workers` is an
    upper bound: a pool gets at most one worker per shard, per
    SETS_PER_WORKER sets and per usable CPU (usable_cpus()).  Only a pool
    splits the space into shards; a space too small for two workers, or a
    call with one worker or one shard, is walked once in-process, where it
    finishes sooner.

    A script that runs a pooled minimize must call it under
    `if __name__ == "__main__":`.  Under the spawn and forkserver start
    methods (the defaults on macOS and, from Python 3.14, on Linux) each
    worker re-imports the script's main module, and without the guard the
    pool breaks.  A broken pool, for that or because a worker was killed,
    raises PoolFailed with the BrokenProcessPool as its __cause__.
    """
    if workers is not None and workers < 1:
        raise BadParams(f"need at least 1 worker, got {workers}")
    if shards < 1:
        raise BadParams(f"need at least 1 shard, got {shards}")
    # The space is split and the CPUs probed only once the workers, the
    # shards and the set count all leave room for two workers.
    pool_size = min(workers or 1, shards, space.total_sets // SETS_PER_WORKER)
    if pool_size > 1:
        ranges = _shard_ranges(space, shards)
        # The fork start method starts every worker at the first submit, so
        # the pool never asks for more processes than the CPUs it may run on.
        pool_size = min(pool_size, len(ranges), usable_cpus())
    if pool_size > 1:
        # Imported here, so a serial scan never loads the pool.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=pool_size) as pool:
                results = list(pool.map(_scan_shard, [space] * len(ranges), *zip(*ranges)))
        except BrokenProcessPool as ex:
            raise PoolFailed(f"search pool of {pool_size} workers broke: {ex}") from ex
    else:
        results = [_scan_shard(space, space.choose_k, space.max_element)]

    candidates = [r.minimum for r in results if r.minimum is not None]
    if not candidates:
        raise BadParams("search population is empty")
    minimum = min(candidates)
    minimizer_count = 0
    unpredicted = 0
    minimizers: list[tuple[int, ...]] = []
    classes: dict[str, int] = {}
    for r in results:
        if r.minimum != minimum:
            continue
        minimizer_count += r.minimizer_count
        unpredicted += r.unpredicted
        for m in r.minimizers:
            if len(minimizers) < MINIMIZER_CAP:
                minimizers.append(m)
        for name, cnt in r.classes.items():
            classes[name] = classes.get(name, 0) + cnt

    entry = space.entry
    # Both regimes' entries read only |A| and the sign of min A, so the
    # first colex member stands for the whole space.
    hypotheses_hold = entry.hypotheses(space.first_set, space.h)
    bound = entry.formula(space.k, space.h)
    falsified = hypotheses_hold and (
        minimum < bound or (minimum == bound and unpredicted > 0)
    )
    return SearchReport(
        k=space.k,
        h=space.h,
        max_element=space.max_element,
        regime=space.regime if hypotheses_hold else f"{space.regime}/{OUTSIDE_HYPOTHESES}",
        minimum=minimum,
        bound=bound,
        minimizer_count=minimizer_count,
        minimizers=tuple(minimizers),
        classes=classes,
        falsified=falsified,
    )
