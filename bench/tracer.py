"""Span recorder for the benchmark's traced runs.

The recorder patches sumsetlab's public functions from outside: each one is
replaced, in every module namespace that bound it (`from .engine import
compute_dp` gives `search`, `cli`, `witness` and `inverse` their own
reference), by a wrapper that records a span.  Dataclass validation is
timed by wrapping each class's `__post_init__`.  Spans live in memory as
(name, start, end, parent) and are written out when the run ends.

A layer's self time is its spans' duration minus the time their child spans
cover.  Work done in forked pool workers is invisible here: their spans die
with the worker, so a traced `search --workers 2` records the parent side
(cli handler and `minimize` waiting on the pool) only.

Kernel counts that follow from the inputs alone are computed, not timed:
table bits (h+1)*(2h*max|a|+1), shift-or steps of the layered DP, and values
decoded.  They repeat exactly for a given seed.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import defaultdict
from typing import Callable

import sumsetlab
from sumsetlab import bounds, cli, engine, intset, inverse, search, witness

MODULES = (sumsetlab, cli, search, engine, intset, bounds, inverse, witness)

_now = time.perf_counter


def dp_shift_or_steps(k: int, variant: str, h: int) -> int:
    """Big-integer shifts (each OR-ed into a layer) compute_dp does for a k-set.

    Restricted variants fold element i into layers j <= min(i, h); PLAIN
    touches every layer per element; SIGNED pairs every magnitude m with
    every layer j >= m once an element is in (only m = j for the first).
    The signed variants shift both ways.
    """
    if variant in ("restricted", "rss"):
        steps = sum(min(i, h) for i in range(1, k + 1))
        return 2 * steps if variant == "rss" else steps
    if variant == "plain":
        return k * h
    return 2 * (h + (k - 1) * h * (h + 1) // 2)


class Recorder:
    """In-memory spans plus counters; installed around each traced round."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.stack: list[int] = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        # (elements, variant, h, cardinality, root span) per compute_dp call.
        self.dp_calls: list[tuple] = []
        self._undo: list[tuple[object, str, object]] = []

    # --- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(_now())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _now()
        self.stack.pop()

    def root(self) -> int:
        """The outermost open span (the CLI handler), or -1."""
        return self.stack[1] if len(self.stack) > 1 else -1

    def root_name(self) -> str:
        root = self.root()
        return self.names[root] if root >= 0 else ""

    def call(self, name: str, fn: Callable, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    # --- patching ------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_function(self, original, wrapper) -> None:
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def _simple(self, name: str, original):
        def traced(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)

        return traced

    def install(self) -> None:
        rec = self
        compute_dp = engine.compute_dp
        dp_names = {v: "engine.compute_dp." + v.value for v in engine.SumsetVariant}

        def traced_compute_dp(A, variant, h):
            idx = rec.open(dp_names[variant])
            try:
                result = compute_dp(A, variant, h)
            finally:
                rec.close(idx)
            # Counts are derived after the round, so the wrapper stays cheap.
            rec.dp_calls.append((A.elements, variant.value, h, result.cardinality, rec.root()))
            return result

        self._patch_function(compute_dp, traced_compute_dp)

        check_bounds = bounds.check_bounds
        entries_per_variant: dict = defaultdict(int)
        for entry in bounds.bound_catalogue():
            entries_per_variant[entry.variant] += 1

        def traced_check_bounds(A, h, result, variant=engine.SumsetVariant.RESTRICTED_SIGNED):
            reports = rec.call("bounds.check_bounds", check_bounds, A, h, result, variant)
            rec.counts["bounds.entries_checked"] += entries_per_variant[variant]
            rec.counts["bounds.entries_applicable"] += len(reports)
            return reports

        self._patch_function(check_bounds, traced_check_bounds)

        inverse_verdict = inverse.inverse_verdict

        def traced_inverse_verdict(A, h):
            try:
                return rec.call("inverse.inverse_verdict", inverse_verdict, A, h)
            except inverse.RegimeUnsupported:
                rec.counts["inverse.unsupported"] += 1
                raise

        self._patch_function(inverse_verdict, traced_inverse_verdict)

        classify = intset.classify_structure

        def traced_classify(A):
            if rec.root_name() == "cli.search":
                rec.counts["search.classify_calls"] += 1
            return rec.call("intset.classify_structure", classify, A)

        self._patch_function(classify, traced_classify)

        minimize = search.minimize

        def traced_minimize(space, shards=1, workers=None):
            report = rec.call("search.minimize", minimize, space, shards, workers)
            rec.counts["search.minimizers"] += report.minimizer_count
            rec.counts["search.sets_scanned"] += space.total_sets
            return report

        self._patch_function(minimize, traced_minimize)

        for name, original in (
            ("intset.subsums", intset.subsums),
            ("witness.generate", witness.generate),
            ("witness.ordering_guards_hold", witness.ordering_guards_hold),
        ):
            self._patch_function(original, self._simple(name, original))

        for owner, attr, name in (
            (intset.IntegerSet, "__post_init__", "intset.IntegerSet.validate"),
            (intset.SumsetResult, "__post_init__", "intset.SumsetResult.validate"),
            (witness.WitnessFamily, "verify", "witness.WitnessFamily.verify"),
        ):
            self._set(owner, attr, self._simple(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # --- results -------------------------------------------------------------

    def dp_counts(self) -> dict:
        """Computed kernel counts over every compute_dp call, plus the
        calls made under witness and search requests."""
        c = defaultdict(int)
        keys = set()
        for elems, variant, h, card, root in self.dp_calls:
            bits = (h + 1) * (2 * h * max(abs(elems[0]), abs(elems[-1])) + 1)
            c["table_bits"] += bits
            c["max_table_bits"] = max(c["max_table_bits"], bits)
            c["values_out"] += card
            c["shift_or_steps"] += dp_shift_or_steps(len(elems), variant, h)
            c["under." + (self.names[root] if root >= 0 else "")] += 1
            keys.add((elems, variant, h))
        c["distinct"] = len(keys)
        return c

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total duration and self time, in seconds."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i in range(n):
            dur = self.end[i] - self.start[i]
            t = totals[self.names[i]]
            t["calls"] += 1
            t["total_s"] += dur
            t["self_s"] += dur - child[i]
        return dict(totals)

    def write(self, path) -> int:
        """Write every span as a TSV row (gzip); returns the span count."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id\tname\tstart_s\tend_s\tparent\n")
            for i, name in enumerate(self.names):
                f.write(f"{i}\t{name}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.parent[i]}\n")
        return len(self.names)
