"""Exception taxonomy shared by all sumsetlab modules.

Every refusal raises a subclass of SumsetLabError, so callers (and the CLI,
which maps them to exit code 2) can catch one type.  Each cause has one
type, whichever entry point meets it:

  BadParams          the input is malformed, names something unknown, misses
                     or adds a parameter, breaks a formula's or a lemma's
                     preconditions, or leaves the accepted ranges |a| <= 2^40
                     and h <= 64
  CostCapExceeded    the input is accepted, but the work it asks for (DP
                     tables, oracle vectors, subset sums, search sets or
                     search tables) is over budget
  RegimeUnsupported  no inverse theorem covers the set
  PoolFailed         the search's worker pool broke
"""


class SumsetLabError(Exception):
    """Base class for all sumsetlab errors."""


class BadParams(SumsetLabError):
    """The input or a parameter is malformed, unknown, out of range, or
    outside the preconditions of the requested formula or lemma."""


class CostCapExceeded(SumsetLabError):
    """The input is accepted, but the work it needs is over budget; raised
    before anything is allocated."""


class RegimeUnsupported(SumsetLabError):
    """No theorem in the catalogue covers this (size, fold, sign) regime."""


class PoolFailed(SumsetLabError):
    """A search worker process died, or could not start, before its shard
    finished; the original BrokenProcessPool is the __cause__."""
