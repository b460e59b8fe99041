"""The four h-fold sumset operators over finite integer sets.

Variants for a set A = {a_1 < ... < a_k} and a fold count h, as coefficient
vectors (l_1, ..., l_k) applied to the elements:

  PLAIN             l_i in [0, h],   sum l_i   = h   (repetition allowed)
  RESTRICTED        l_i in {0, 1},   sum l_i   = h   (h distinct elements)
  SIGNED            l_i in [-h, h],  sum |l_i| = h
  RESTRICTED_SIGNED l_i in {-1,0,1}, sum |l_i| = h   (h distinct, signed)

Two independent routes compute each value set: compute_oracle enumerates
admissible coefficient vectors directly, compute_dp runs a layered dynamic
program over bit tables.  They must agree exactly; tests and the acceptance
suite sweep both.

The DP has one fold and two readers: compute_dp decodes the top layer into
values, and count_dp returns its bit count without decoding, for callers
that read only a cardinality (verify, the inverse verdicts, a text compute
without --values, the search's starting minimum).  The restricted fold skips
the layers that the elements still to come cannot lift to the top, and frees
each layer once no later fold reads it.  It is private to the DP: the
search's walk lifts its own layers one at a time, so that it can test a
floor on each before it lifts the next.  fold_bits gives the size of one
fold's tables; compute_dp's cap and the search's both read it.
"""

from __future__ import annotations

import enum
import math
from itertools import combinations, combinations_with_replacement

from .errors import BadParams, CostCapExceeded
from .intset import IntegerSet, SumsetResult

# Fold counts beyond this are rejected; with |a| <= 2^40 it keeps every
# internal sum inside signed 64-bit range.
MAX_FOLD = 64

# Hard ceiling on admissible coefficient vectors for the oracle route.
ORACLE_COST_CAP = 10**8

# Most bits a dense DP's layer tables may hold (256 MiB): compute_dp's, and
# a search shard's (see search.SearchSpace.table_bits).
TABLE_BITS_CAP = 2**31


def fold_bits(h: int, offset: int) -> int:
    """Bits in one fold's h + 1 layer tables, each over [-offset, offset]."""
    return (h + 1) * (2 * offset + 1)


class SumsetVariant(enum.Enum):
    PLAIN = "plain"
    RESTRICTED = "restricted"
    SIGNED = "signed"
    RESTRICTED_SIGNED = "rss"

    @classmethod
    def from_name(cls, name: str) -> "SumsetVariant":
        for variant in cls:
            if variant.value == name:
                return variant
        raise BadParams(f"unknown variant {name!r}")


def _check_fold(A: IntegerSet, variant: SumsetVariant, h: int) -> None:
    if h < 1:
        raise BadParams(f"fold count must be >= 1, got {h}")
    if h > MAX_FOLD:
        raise BadParams(f"fold count {h} exceeds supported cap {MAX_FOLD}")
    restricted = variant in (SumsetVariant.RESTRICTED, SumsetVariant.RESTRICTED_SIGNED)
    if restricted and h > len(A):
        raise BadParams(
            f"{variant.value} needs h <= |A|; got h={h} for a {len(A)}-element set"
        )


def oracle_cost(k: int, variant: SumsetVariant, h: int) -> int:
    """Number of admissible coefficient vectors the oracle would enumerate."""
    if variant is SumsetVariant.PLAIN:
        return math.comb(k + h - 1, h)
    if variant is SumsetVariant.RESTRICTED:
        return math.comb(k, h)
    if variant is SumsetVariant.RESTRICTED_SIGNED:
        return math.comb(k, h) * 2**h
    # SIGNED: choose s nonzero positions, a sign for each, and a composition
    # of h into s positive magnitudes.
    return sum(
        math.comb(k, s) * 2**s * math.comb(h - 1, s - 1)
        for s in range(1, min(k, h) + 1)
    )


def _signed_sums(elements: tuple[int, ...], h: int) -> set[int]:
    """All sums with per-element magnitudes summing to h, one sign each."""
    k = len(elements)
    out: set[int] = set()

    def rec(idx: int, remaining: int, acc: int) -> None:
        if idx == k - 1:
            if remaining == 0:
                out.add(acc)
            else:
                term = remaining * elements[idx]
                out.add(acc + term)
                out.add(acc - term)
            return
        rec(idx + 1, remaining, acc)
        for m in range(1, remaining + 1):
            term = m * elements[idx]
            rec(idx + 1, remaining - m, acc + term)
            rec(idx + 1, remaining - m, acc - term)

    rec(0, h, 0)
    return out


def compute_oracle(A: IntegerSet, variant: SumsetVariant, h: int) -> SumsetResult:
    """Brute-force route: enumerate every admissible coefficient vector."""
    _check_fold(A, variant, h)
    cost = oracle_cost(len(A), variant, h)
    if cost > ORACLE_COST_CAP:
        raise CostCapExceeded(
            f"oracle would enumerate {cost} vectors (cap {ORACLE_COST_CAP})"
        )
    e = A.elements
    if variant is SumsetVariant.PLAIN:
        values = {sum(c) for c in combinations_with_replacement(e, h)}
    elif variant is SumsetVariant.RESTRICTED:
        values = {sum(c) for c in combinations(e, h)}
    elif variant is SumsetVariant.RESTRICTED_SIGNED:
        values = set()
        for combo in combinations(e, h):
            sums = {0}
            for a in combo:
                sums = {s + a for s in sums} | {s - a for s in sums}
            values |= sums
    else:
        values = _signed_sums(e, h)
    return SumsetResult.from_values(values)


_CHUNK = 512  # bytes
_ZERO_CHUNK = bytes(_CHUNK)


def _bits_to_values(bits: int, offset: int) -> tuple[int, ...]:
    # Decode the table a 4096-bit chunk at a time: an all-zero chunk costs
    # one comparison, and each set bit three operations on its chunk rather
    # than on the whole table.
    data = bits.to_bytes((bits.bit_length() + 7) // 8, "little")
    values = []
    for start in range(0, len(data), _CHUNK):
        piece = data[start : start + _CHUNK]
        if piece == _ZERO_CHUNK:
            continue
        chunk = int.from_bytes(piece, "little")
        base = 8 * start - 1 - offset
        while chunk:
            low = chunk & -chunk
            values.append(base + low.bit_length())
            chunk ^= low
    return tuple(values)


def _shift(bits: int, delta: int) -> int:
    return bits << delta if delta >= 0 else bits >> (-delta)


def _fold_restricted(dp: list[int], a: int, signed: bool, rest: int) -> None:
    """Fold one element into restricted layer tables, in place.

    dp[j] gains dp[j-1] moved by a (and by -a when signed), for j from the
    top layer h = len(dp) - 1 down to the floor max(1, h - rest), so each
    element is used at most once.  rest is the number of elements still to
    fold after this one: they lift a sum by at most rest layers, so only
    the layers from h - rest up can still reach the top, and only those are
    kept exact.  Layers below the floor are left as they were.
    """
    h = len(dp) - 1
    for j in range(h, max(1, h - rest) - 1, -1):
        prev = dp[j - 1]
        if prev:
            add = _shift(prev, a)
            if signed:
                add |= _shift(prev, -a)
            # The first fold to reach layer j stores add rather than copy it.
            cur = dp[j]
            dp[j] = cur | add if cur else add


def _fold(A: IntegerSet, variant: SumsetVariant, h: int) -> tuple[int, int]:
    """Dynamic-programming route: layered bit tables indexed by used weight.

    dp[j] is the set of sums reachable with total weight j, encoded as a bit
    table over [-h*max|a|, h*max|a|] (bit position = value + offset).
    Elements are folded in one at a time; restricted variants consume weight
    1 per element, PLAIN and SIGNED spend weight equal to the multiplicity.
    A restricted fold keeps only the layers the remaining elements can still
    lift to the top (see _fold_restricted), and frees each layer no later
    fold reads.  Tables over TABLE_BITS_CAP bits in all raise
    CostCapExceeded before anything is allocated.  Returns the top layer
    dp[h] and the offset.
    """
    _check_fold(A, variant, h)
    e = A.elements
    offset = h * max(abs(e[0]), abs(e[-1]))
    bits = fold_bits(h, offset)
    if bits > TABLE_BITS_CAP:
        raise CostCapExceeded(
            f"DP tables would hold {bits} bits (cap {TABLE_BITS_CAP})"
        )
    dp = [0] * (h + 1)
    dp[0] = 1 << offset

    if variant in (SumsetVariant.RESTRICTED, SumsetVariant.RESTRICTED_SIGNED):
        signed = variant is SumsetVariant.RESTRICTED_SIGNED
        for rest, a in zip(range(len(e) - 1, -1, -1), e):
            # This fold and every later one read only layers h - rest - 1
            # and up, so layer h - rest - 2 is dead.
            if rest <= h - 2:
                dp[h - rest - 2] = 0
            _fold_restricted(dp, a, signed, rest)
    elif variant is SumsetVariant.PLAIN:
        # Ascending weight lets one element repeat within its own pass.
        for a in e:
            for j in range(1, h + 1):
                prev = dp[j - 1]
                if prev:
                    dp[j] |= _shift(prev, a)
    else:
        # SIGNED: a snapshot per element keeps one sign per element; mixing
        # +a and -a would fake a lower total weight.
        for a in e:
            prev = dp[:]
            for m in range(1, h + 1):
                delta = m * a
                for j in range(m, h + 1):
                    base = prev[j - m]
                    if base:
                        dp[j] |= _shift(base, delta) | _shift(base, -delta)

    return dp[h], offset


def compute_dp(A: IntegerSet, variant: SumsetVariant, h: int) -> SumsetResult:
    """The DP route's value set: the top layer of the fold, decoded."""
    top, offset = _fold(A, variant, h)
    return SumsetResult(_bits_to_values(top, offset), top.bit_count())


def count_dp(A: IntegerSet, variant: SumsetVariant, h: int) -> int:
    """|h-fold sumset| from the same fold, counted without decoding."""
    return _fold(A, variant, h)[0].bit_count()
