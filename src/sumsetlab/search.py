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

Work is split into contiguous ranges of the set's largest free element, so
any shard count (and any worker count) produces a byte-identical report:
each shard returns its minimum, the exact count of minimum-achieving sets,
the first 64 of them in colex order, and a structure-class tally; shards
merge in order of their ranges, which is colex order.

A shard counts each set's sumset without building it.  Colex order is the
order of nested loops with the largest element outermost, so a shard walks
its subtrees depth first.  The restricted-signed fold does not depend on
element order, so each element from the largest down to the third-smallest
is folded once into a copy of the tables above it.  The two smallest
elements share one double loop: the second-smallest reduces the tables to
two ints, and each smallest element then costs three shifts, two ors and a
bit count.  The zero regime's pinned 0 sits above the largest free element,
so every space, down to one free element, takes the same walk.  Tables are
offset by h * max, so a right shift never drops a set bit.  The gcd filter,
an IntegerSet and a classification cost something only for a set that ties
or undercuts the shard's running minimum.

The walk is a branch and bound.  Once the elements from the largest down
to level p are folded, the tables hold the exact layers L_j(B), j >= h - p,
of that suffix B.  The p elements still to come are distinct positive
integers outside B, so every completion A has h^_+-(A) containing X + T for
X = L_{h-1}(B), T = {+-x_i} (2p values), and for X = L_{h-2}(B), T = {+-s}
with s the sum of two of them.  Since |X + T| >= |X| + |T| - 1 for finite
integer sets, each completion counts at least |L_h(B)|, |L_{h-1}(B)| + 2p - 1
and |L_{h-2}(B)| + 1, the last two only when their layer is non-empty.  A
subtree whose floor is above the shard's running minimum is skipped whole.
The prune is strict, so every tie is still visited, counted and classified,
and the report does not change.  Every shard starts its running minimum at
the count of the space's first colex set, {1..k} or {0..k-1}, which the
space's minimum can only tie or undercut: the seed always comes from a real
set of the space, never from the catalogue bound the search tests.
"""

from __future__ import annotations

import json
import math
import os
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

from .bounds import BoundCatalogEntry, catalogue_entry, direct_window
from .engine import MAX_FOLD, fold_restricted
from .errors import BadParams, FoldTooLarge, SpaceTooLarge
from .intset import MAX_ELEMENT, IntegerSet, classify_structure

REGIME_POSITIVE = "positive"
REGIME_ZERO = "zero"
OUTSIDE_HYPOTHESES = "outside-stated-hypotheses"

SPACE_CAP = 10**9
# Most bits a shard's layer tables may hold (256 MiB); see SearchSpace.table_bits.
TABLE_BITS_CAP = 2**31
MINIMIZER_CAP = 64

# Fewest sets worth a pool worker.  Measured with minimize at shards=2,
# serial and 2-worker runs alternating, median of 15 (Python 3.11, 2 CPUs,
# fork): the pruned serial scan costs 0.14-0.7 us per set, depending on how
# much it prunes, and a 2-worker pool adds 10-15 ms of start-up, so pooling
# loses below about 50k sets (40,920 sets at k=4: 11.4 ms serial, 20.3 ms
# pooled; 54,264 at k=6: 15.1 vs 25.0 ms), breaks even between 50k and 75k,
# later the more a space prunes (50,388 at k=7 h=5: 30.0 vs 28.9 ms; 65,780
# at k=5 h=3: 9.4 vs 14.2 ms; 66,045 at k=4: 26.8 vs 23.4 ms), and wins from
# there (74,613 at k=6: 33.6 vs 28.5 ms; 170,544 at k=7: 65.0 vs 51.0 ms).
SETS_PER_WORKER = 30_000


@dataclass(frozen=True)
class SearchSpace:
    """All k-element sets of a regime with elements bounded by max_element."""

    k: int
    h: int
    max_element: int
    regime: str = REGIME_POSITIVE
    gcd_reduce: bool = True
    allow_any_fold: bool = False

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
        if not self.allow_any_fold and not direct_window(self.k, self.h):
            raise BadParams(
                f"stated hypotheses need 3 <= h <= k-1 = {self.k - 1}, got "
                f"h = {self.h}; pass --allow-any-fold to search outside them"
            )
        if self.table_bits > TABLE_BITS_CAP:
            raise SpaceTooLarge(
                f"search tables need about {self.table_bits} bits, over the cap "
                f"{TABLE_BITS_CAP}"
            )
        if self.total_sets > SPACE_CAP:
            raise SpaceTooLarge(
                f"space has {self.total_sets} sets, over the cap {SPACE_CAP}"
            )
        if self.h > MAX_FOLD:
            raise FoldTooLarge(f"fold count {self.h} exceeds supported cap {MAX_FOLD}")

    @property
    def choose_k(self) -> int:
        """Free positions per set: k, or k-1 once 0 is pinned."""
        return self.k - 1 if self.regime == REGIME_ZERO else self.k

    @property
    def table_bits(self) -> int:
        """Bits a shard's walk holds: h + 1 layer tables, each 2 * h * max + 1
        bits wide, for each of the k levels."""
        return self.k * (self.h + 1) * (2 * self.h * self.max_element + 1)

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
    def hypotheses_hold(self) -> bool:
        # Both entries' hypotheses read only |A| and the sign of min A, so
        # the first colex member stands for the whole space.
        first = IntegerSet(self.materialize(tuple(range(self.choose_k))))
        return self.entry.hypotheses(first, self.h)

    @property
    def bound(self) -> int:
        return self.entry.formula(self.k, self.h)

    @property
    def bound_status(self) -> str:
        return "theorem" if self.entry.status == "proved" else self.entry.status

    @property
    def regime_label(self) -> str:
        if self.hypotheses_hold:
            return self.regime
        return f"{self.regime}/{OUTSIDE_HYPOTHESES}"

    def materialize(self, combo: tuple[int, ...]) -> tuple[int, ...]:
        """Turn a 0-based free-position combo into the actual element tuple."""
        elems = tuple(v + 1 for v in combo)
        if self.regime == REGIME_ZERO:
            return (0,) + elems
        return elems


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


@dataclass(frozen=True)
class _ShardResult:
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
    pinned = space.materialize(())
    # tables[p]: rss layer tables of the elements at levels p and up, folded
    # top level first.  Only layers j >= h - p are exact: the p smaller
    # elements still to come lift a sum by at most p layers.  The offset
    # h * max keeps every sum inside the table, so a right shift never
    # drops a set bit.
    tables: list[list[int]] = [[] for _ in range(k)]
    tables.append([1 << h * space.max_element] + [0] * h)
    # Every shard starts its minimum at the count of the space's first set.
    seed = tables[k][:]
    for a in space.materialize(tuple(range(space.choose_k))):
        fold_restricted(seed, a, True)
    best = seed[h].bit_count()
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
            # Fold level p's next element once into a copy of the tables
            # above it, and open the level below.
            a = next(levels[p], None)
            if a is None:
                p += 1
                continue
            vals[p] = a
            layer = tables[p + 1][:]
            fold_restricted(layer, a, True, max(1, h - p))
            tables[p] = layer
            # The p elements still to come add at least 2p - 1 sums to the
            # exact layer h - 1 and one to layer h - 2 (see the module
            # docstring).  Ties are kept, so only a floor above best skips
            # the subtree.
            mid = layer[h - 1]
            low = layer[h - 2] if h > 1 else 0
            if (
                layer[h].bit_count() > best
                or mid and mid.bit_count() + 2 * p - 1 > best
                or low and low.bit_count() + 1 > best
            ):
                continue
            p -= 1
            levels[p] = iter(range(p + 1, a) if a else range(lo, hi + 1))
            continue
        # Levels 1 and 0, fused.  After the fold of the second-smallest
        # element a1 the smallest one needs only two ints: the top layer
        # and the one below it.
        layer = tables[2]
        t, u = layer[h], layer[h - 1]
        v = layer[h - 2] if h > 1 else 0
        for a1 in levels[1]:
            top = t | u << a1 | u >> a1
            below = u | v << a1 | v >> a1
            # Each set of the range counts at least |top| and |below| + 1.
            if top.bit_count() > best or below.bit_count() >= best:
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
        p = 2
    return _ShardResult(
        best if n_best else None, n_best, tuple(minimizers), classes, unpredicted
    )


@dataclass(frozen=True)
class SearchReport:
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
        return json.dumps(self.to_dict(), indent=2)

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
    SETS_PER_WORKER sets and per CPU, and a space too small for two is
    scanned in-process.
    """
    if workers is not None and workers < 1:
        raise BadParams(f"need at least 1 worker, got {workers}")
    ranges = _shard_ranges(space, shards)
    # The fork start method starts every worker at the first submit, so the
    # pool never asks for more processes than there are CPUs.
    pool_size = min(
        workers or 1, len(ranges), space.total_sets // SETS_PER_WORKER, os.cpu_count() or 1
    )
    args = ([space] * len(ranges), *zip(*ranges))
    if pool_size > 1:
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            results = list(pool.map(_scan_shard, *args))
    else:
        results = list(map(_scan_shard, *args))

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

    falsified = space.hypotheses_hold and (
        minimum < space.bound or (minimum == space.bound and unpredicted > 0)
    )
    return SearchReport(
        k=space.k,
        h=space.h,
        max_element=space.max_element,
        regime=space.regime_label,
        minimum=minimum,
        bound=space.bound,
        minimizer_count=minimizer_count,
        minimizers=tuple(minimizers),
        classes=classes,
        falsified=falsified,
    )
