"""Shared random-instance generators for lemma hypotheses, and stand-ins
for the search's process pool.

Each generator draws a set satisfying one witness lemma's preconditions,
uniformly-ish over small element ranges, for the randomized suites.
"""

from __future__ import annotations

import concurrent.futures
import random
import types

import pytest

from sumsetlab.intset import IntegerSet


@pytest.fixture
def in_process_pool(monkeypatch):
    """Make the search run its pool's tasks in-process; returns the list of
    pool sizes the search asks for."""
    pools = []

    class InProcess:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    # The search imports the pool class when it starts a pool.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcess)
    return pools


@pytest.fixture
def pooled_splits(in_process_pool, monkeypatch):
    """Make every search whose workers and shards both exceed 1 split the
    space and run its shards through the pool, in-process: one set is a
    worker's worth and 64 CPUs are usable.  A search with one worker or one
    shard still walks the space once.  Returns the pool sizes asked for."""
    from sumsetlab import search

    monkeypatch.setattr(search, "SETS_PER_WORKER", 1)
    monkeypatch.setattr(search, "usable_cpus", lambda: 64)
    return in_process_pool


@pytest.fixture
def broken_pool(in_process_pool, monkeypatch):
    """Make every pool the search starts break, as a killed worker breaks
    it, without starting a process or scanning a shard.  Returns the pool
    sizes asked for (.pools) and the BrokenProcessPool raised (.error)."""
    from concurrent.futures.process import BrokenProcessPool

    error = BrokenProcessPool("a process in the pool was terminated abruptly")

    def map_broken(self, fn, *iterables):
        raise error

    monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "map", map_broken)
    return types.SimpleNamespace(pools=in_process_pool, error=error)


def _sample(rng: random.Random, population: range, k: int, pred, tries: int = 20000):
    for _ in range(tries):
        s = tuple(sorted(rng.sample(population, k)))
        if pred(s):
            return s
    raise RuntimeError(f"no admissible {k}-set found in {tries} draws")


def random_parity_split_instance(
    rng: random.Random, max_element: int = 50, h_lo: int = 3, h_hi: int = 6
):
    """(A, h, r): |A| = h+1 positive, first two share parity, #r differs."""
    h = rng.randint(h_lo, h_hi)
    k = h + 1

    def ok(s):
        if (s[1] - s[0]) % 2:
            return False
        return any((s[i] - s[0]) % 2 for i in range(2, k))

    s = _sample(rng, range(1, max_element + 1), k, ok)
    r = rng.choice([i + 1 for i in range(2, k) if (s[i] - s[0]) % 2])
    return IntegerSet(s), h, r


def random_odd_subsums_instance(
    rng: random.Random, max_element: int = 50, h_lo: int = 3, h_hi: int = 8
) -> IntegerSet:
    """An all-odd positive set of size h."""
    h = rng.randint(h_lo, h_hi)
    s = tuple(sorted(rng.sample(range(1, max_element + 1, 2), h)))
    return IntegerSet(s)


def random_mixed_a3_instance(
    rng: random.Random, max_element: int = 50, h_lo: int = 3, h_hi: int = 6
):
    """(A, h): |A| = h+1 positive, 2nd and 3rd differ in parity from the 1st."""
    h = rng.randint(h_lo, h_hi)
    k = h + 1

    def ok(s):
        return (s[1] - s[0]) % 2 == 1 and (s[2] - s[0]) % 2 == 1

    return IntegerSet(_sample(rng, range(1, max_element + 1), k, ok)), h


def random_mixed_a2_instance(
    rng: random.Random, max_element: int = 50, h_lo: int = 4, h_hi: int = 6
):
    """(A, h): |A| = h+1 positive, 2nd differs in parity, 3rd matches."""
    h = rng.randint(h_lo, h_hi)
    k = h + 1

    def ok(s):
        return (s[1] - s[0]) % 2 == 1 and (s[2] - s[0]) % 2 == 0

    return IntegerSet(_sample(rng, range(1, max_element + 1), k, ok)), h


def random_all_odd_instance(
    rng: random.Random, max_element: int = 50, h_lo: int = 3, h_hi: int = 6
):
    """(A, h): |A| = h+1, all odd positive."""
    h = rng.randint(h_lo, h_hi)
    s = tuple(sorted(rng.sample(range(1, max_element + 1, 2), h + 1)))
    return IntegerSet(s), h
