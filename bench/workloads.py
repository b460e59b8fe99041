"""Seeded inputs and output checks for the three benchmark workloads.

Every workload is a closed loop with one caller: a fixed list of CLI argv
lists (one "round") that the runner replays until its time is up.  The list
is a pure function of the workload name and the seed, so two runs with the
same seed measure the same work; `inputs_digest` proves it.  `--workers` is
always explicit, so neither the host's CPU count nor SUMSETLAB_THREADS can
change the work.

search-serial   the three ROADMAP search spaces plus 40 small spaces, all at
                --workers 1: the exhaustive-search kernel with no pool.
search-pool     the k=7 h=5 max=20 space plus the same 40 small spaces at
                --workers 2 (default shard count): pool start-up and shard
                balance on top of the same kernel.
requests        single-set compute / verify / witness requests, text and
                JSON mixed; 2 % carry elements near 2^22, and a quarter
                reuse an earlier set under another subcommand, variant or h.

Checks run outside the timed region and use the library's independent
routes (compute_oracle, and subsums through the full rss fold).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

# Search spaces named by the ROADMAP: (regime, k, h, max).  The zero-regime
# space skips the gcd filter and has tied minimizers.
SERIAL_BIG = (("positive", 6, 5, 20), ("positive", 7, 5, 20), ("zero", 7, 4, 20))
POOL_BIG = (("positive", 7, 5, 20),)
SMALL_SPACES_PER_ROUND = 40

REQUESTS_PER_ROUND = 500
BIG_REQUEST_SHARE = 0.02
REUSE_SHARE = 0.25
BIG_TOP = 1 << 22

# Tail percentile each workload reports; the runner repeats the round often
# enough that at least ten latency samples lie beyond it.
TAIL_PERCENTILE = {"search-serial": 90.0, "search-pool": 95.0, "requests": 99.0}

WORKLOADS = tuple(TAIL_PERCENTILE)


@dataclass
class Op:
    """One CLI invocation of a round."""

    argv: list[str]
    # Counts toward items_per_s with this many items (0: not a throughput op).
    items: int
    # Counts toward latency_p50_ms / latency_tail_ms.
    latency: bool
    # Returns None when the output is right, else a reason.
    check: Callable[[str], Optional[str]] = field(repr=False)
    # Search ops only: argv of the same search at the other worker count.
    cross_argv: Optional[list[str]] = None


# --- search -----------------------------------------------------------------


def _search_argv(space: tuple, workers: int, fmt: str, gcd: bool = True) -> list[str]:
    regime, k, h, mx = space
    argv = ["search", "--k", str(k), "--h", str(h), "--max", str(mx),
            "--regime", regime, "--workers", str(workers), "--format", fmt]
    if not gcd:
        argv.append("--no-gcd-reduce")
    return argv


def _parse_search(text: str, fmt: str) -> tuple[int, int, bool]:
    """(min, bound, falsified) from a search report in any format."""
    if fmt == "json":
        doc = json.loads(text)
        return doc["min"], doc["bound"], doc["falsified"]
    if fmt == "csv":
        row = next(csv.DictReader(io.StringIO(text)))
        return int(row["min"]), int(row["bound"]), row["falsified"] == "true"
    fields = {}
    for line in text.splitlines():
        for token in line.split():
            key, _, value = token.partition("=")
            fields.setdefault(key, value)
    return int(fields["min"]), int(fields["bound"]), fields["falsified"] == "true"


def _search_check(space: tuple, fmt: str) -> Callable[[str], Optional[str]]:
    regime, k, h, mx = space
    # The extremal sets lie in the space: 1,3,...,2k-1 (positive) or
    # 0,1,...,k-1 (zero); the zero bound is stated for k >= 5 only.
    attains = (regime == "positive" and mx >= 2 * k - 1) or (regime == "zero" and k >= 5)

    def check(text: str) -> Optional[str]:
        minimum, bound, falsified = _parse_search(text, fmt)
        if falsified:
            return "falsified=true"
        if attains and minimum != bound:
            return f"min {minimum} != bound {bound}"
        return None

    return check


def _small_space_pool() -> list[tuple[tuple, bool]]:
    """Small spaces (k in {4,5}, max <= k+11) on which every search exits 0.

    Zero-regime k=5 h=4 is left out: its minimizers include {0,1,2,4,6}, so
    the structure conjecture is reported falsified (exit 1) there.
    """
    pool = []
    for regime, k, h, lo in (("positive", 4, 3, 7), ("positive", 5, 3, 9),
                             ("positive", 5, 4, 9)):
        for mx in range(lo, k + 12):
            pool.append(((regime, k, h, mx), True))
            pool.append(((regime, k, h, mx), False))
    for k, h in ((5, 3), (4, 3)):
        for mx in range(k - 1, k + 12):
            pool.append((("zero", k, h, mx), True))
    return pool


def _population(space: tuple) -> int:
    regime, k, _, mx = space
    return math.comb(mx, k - 1 if regime == "zero" else k)


def _small_spaces(rng: random.Random) -> list[tuple[tuple, bool]]:
    """One space from each of 40 strata of the pool sorted by population.

    Stratifying keeps the latency quantiles of a round steady across seeds
    while the seed still picks which spaces run.
    """
    pool = sorted(_small_space_pool(), key=lambda s: (_population(s[0]), s))
    n = SMALL_SPACES_PER_ROUND
    picked = []
    for i in range(n):
        stratum = pool[i * len(pool) // n:(i + 1) * len(pool) // n]
        picked.append(rng.choice(stratum))
    return picked


def search_ops(workload: str, rng: random.Random, small_rng: random.Random) -> list[Op]:
    """The big spaces plus the small ones; both search workloads draw the
    small spaces from `small_rng`, so one seed gives them the same ones."""
    workers = 1 if workload == "search-serial" else 2
    big = SERIAL_BIG if workload == "search-serial" else POOL_BIG
    entries = [(space, True, True) for space in big]
    entries += [(space, gcd, False) for space, gcd in _small_spaces(small_rng)]
    rng.shuffle(entries)
    ops = []
    for space, gcd, is_big in entries:
        fmt = rng.choice(("text", "json", "csv"))
        ops.append(Op(
            argv=_search_argv(space, workers, fmt, gcd),
            items=_population(space) if is_big else 0,
            latency=not is_big,
            check=_search_check(space, fmt),
            cross_argv=_search_argv(space, 3 - workers, fmt, gcd),
        ))
    return ops


# --- requests -----------------------------------------------------------------

_COMPUTE_VARIANTS = ("plain", "restricted", "signed", "rss", "subsums")
_LEMMAS = ("parity-split", "odd-subsums", "mixed-parity-a3", "mixed-parity-a2",
           "all-odd-extension")


def _literal(elems) -> str:
    return ",".join(str(a) for a in elems)


def _oracle_values(elems: tuple[int, ...], variant: str, h: Optional[int]) -> tuple:
    # Imported here: the runner puts src/ on the path after importing this.
    from sumsetlab import IntegerSet, SumsetVariant, compute_oracle

    A = IntegerSet(elems)
    if variant == "subsums":
        # The full rss fold is {2s - sum(A) : s a subset sum}.
        full = compute_oracle(A, SumsetVariant.RESTRICTED_SIGNED, len(elems))
        total = sum(elems)
        return tuple((v + total) // 2 for v in full.values)
    return compute_oracle(A, SumsetVariant.from_name(variant), h).values


def _compute_check(elems, variant, h, fmt, with_values):
    def check(text: str) -> Optional[str]:
        want = _oracle_values(elems, variant, h)
        if fmt == "json":
            doc = json.loads(text)
            card, values = doc["cardinality"], tuple(doc["values"])
        else:
            lines = dict(line.split("=", 1) for line in text.splitlines())
            card = int(lines["cardinality"])
            values = (tuple(int(v) for v in lines["values"].split(","))
                      if with_values else None)
        if card != len(want):
            return f"cardinality {card} != oracle {len(want)}"
        if values is not None and values != want:
            return "values differ from the oracle"
        return None

    return check


def _verify_check(elems, h, fmt):
    def check(text: str) -> Optional[str]:
        rss = len(_oracle_values(elems, "rss", h))
        restricted = len(_oracle_values(elems, "restricted", h))
        if fmt == "json":
            doc = json.loads(text)
            got = (doc["rss_cardinality"], doc["restricted_cardinality"])
            ok = doc["falsified"] is False
        else:
            lines = text.splitlines()
            fields = dict(line.split("=", 1) for line in lines[1:3])
            got = (int(fields["rss_cardinality"]), int(fields["restricted_cardinality"]))
            ok = lines[-1] == "result=ok"
        if got != (rss, restricted):
            return f"cardinalities {got} != oracle {(rss, restricted)}"
        if not ok:
            return "verify reported falsified"
        return None

    return check


def _witness_check(fmt):
    def check(text: str) -> Optional[str]:
        if fmt == "json":
            checks = json.loads(text)["checks"]
            ok = all(checks.values())
        else:
            ok = text.splitlines()[-1] == "result=pass"
        return None if ok else "witness family failed its checks"

    return check


def _draw(rng: random.Random, k: int, pool: range, pred=lambda s: True) -> tuple:
    while True:
        s = tuple(sorted(rng.sample(pool, k)))
        if pred(s):
            return s


def _small_set(rng: random.Random) -> tuple[int, ...]:
    k = rng.randint(4, 8)
    lo = 0 if rng.random() < 0.15 else 1
    return _draw(rng, k, range(lo, 129))


def _compute_op(rng, elems, fmt) -> Op:
    variant = rng.choice(_COMPUTE_VARIANTS)
    argv = ["compute", "--set", _literal(elems), "--variant", variant]
    h = None
    if variant != "subsums":
        top = len(elems) if variant in ("restricted", "rss") else min(len(elems), 5)
        h = rng.randint(2, top)
        argv += ["--h", str(h)]
    with_values = fmt == "text" and rng.random() < 0.5
    if with_values:
        argv.append("--values")
    argv += ["--format", fmt]
    return Op(argv, 1, True, _compute_check(elems, variant, h, fmt, with_values))


def _verify_op(rng, elems, fmt, h=None) -> Op:
    h = h if h is not None else rng.randint(2, len(elems))
    argv = ["verify", "--set", _literal(elems), "--h", str(h), "--format", fmt]
    return Op(argv, 1, True, _verify_check(elems, h, fmt))


def _witness_op(rng, fmt) -> tuple[Op, tuple]:
    """A witness request whose set meets its lemma's hypotheses."""
    lemma = rng.choice(_LEMMAS)
    odd = range(1, 128, 2)
    every = range(1, 129)
    r = None
    if lemma == "odd-subsums":
        elems = _draw(rng, rng.randint(4, 8), odd)
        h = None
    elif lemma == "all-odd-extension":
        h = rng.randint(3, 7)
        elems = _draw(rng, h + 1, odd)
    elif lemma == "parity-split":
        h = rng.randint(3, 7)
        elems = _draw(rng, h + 1, every, lambda s: (s[1] - s[0]) % 2 == 0
                      and any((a - s[0]) % 2 for a in s[2:]))
        r = rng.choice([i + 1 for i in range(2, h + 1) if (elems[i] - elems[0]) % 2])
    elif lemma == "mixed-parity-a3":
        h = rng.randint(3, 7)
        elems = _draw(rng, h + 1, every,
                      lambda s: (s[1] - s[0]) % 2 == 1 and (s[2] - s[0]) % 2 == 1)
    else:
        h = rng.randint(4, 7)
        elems = _draw(rng, h + 1, every,
                      lambda s: (s[1] - s[0]) % 2 == 1 and (s[2] - s[0]) % 2 == 0)
    argv = ["witness", "--lemma", lemma, "--set", _literal(elems)]
    if h is not None:
        argv += ["--h", str(h)]
    if r is not None:
        argv += ["--r", str(r)]
    argv += ["--format", fmt]
    return Op(argv, 1, True, _witness_check(fmt)), elems


def _big_op(rng, fmt) -> Op:
    """verify, k=4 h=3, elements up to 2^22 with the largest within 2^10 of it.

    Fixing k, h and the top magnitude keeps the cost of these requests, and
    so the tail they set, the same from seed to seed.
    """
    rest = rng.sample(range(1, BIG_TOP - (1 << 10)), 3)
    elems = tuple(sorted(rest + [BIG_TOP - rng.randrange(1 << 10)]))
    return _verify_op(rng, elems, fmt, h=3)


def request_ops(rng: random.Random) -> tuple[list[Op], float]:
    """The request stream and the measured share of requests reusing a set."""
    n = REQUESTS_PER_ROUND
    positions = rng.sample(range(1, n), int(n * BIG_REQUEST_SHARE) + int(n * REUSE_SHARE))
    big = set(positions[:int(n * BIG_REQUEST_SHARE)])
    reuse = set(positions[int(n * BIG_REQUEST_SHARE):])
    ops: list[Op] = []
    small_sets: list[tuple] = []
    seen: set[tuple] = set()
    reused = 0
    for i in range(n):
        fmt = rng.choice(("text", "json"))
        if i in big:
            ops.append(_big_op(rng, fmt))
            continue
        if i in reuse and small_sets:
            elems = rng.choice(small_sets)
            previous = {tuple(op.argv) for op in ops}
            op = _compute_op(rng, elems, fmt) if rng.random() < 0.5 else _verify_op(rng, elems, fmt)
            while tuple(op.argv) in previous:
                op = _compute_op(rng, elems, fmt)
        elif rng.random() < 0.3:
            op, elems = _witness_op(rng, fmt)
        else:
            elems = _small_set(rng)
            op = _compute_op(rng, elems, fmt) if rng.random() < 0.5 else _verify_op(rng, elems, fmt)
        reused += elems in seen
        seen.add(elems)
        small_sets.append(elems)
        ops.append(op)
    return ops, reused / n


# --- entry ------------------------------------------------------------------


def make_ops(workload: str, seed: int) -> tuple[list[Op], dict]:
    """The round's ops and a description of the inputs (digest, shares)."""
    rng = random.Random(f"{workload}:{seed}")
    info: dict = {}
    if workload == "requests":
        ops, info["reuse_share"] = request_ops(rng)
    else:
        ops = search_ops(workload, rng, random.Random(f"small-spaces:{seed}"))
    digest = hashlib.sha256(json.dumps([op.argv for op in ops]).encode()).hexdigest()
    info["inputs_digest"] = digest[:16]
    info["ops_per_round"] = len(ops)
    return ops, info


def warmup_argv(workload: str) -> list[str]:
    """The one op a fresh process runs during set-up."""
    if workload == "requests":
        return ["verify", "--set", "1,3,5,9", "--h", "3"]
    workers = "1" if workload == "search-serial" else "2"
    return ["search", "--k", "4", "--h", "3", "--max", "7", "--workers", workers]
