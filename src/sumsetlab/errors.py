"""Exception taxonomy shared by all sumsetlab modules.

Every precondition violation raises a subclass of SumsetLabError, so callers
(and the CLI, which maps them to exit code 2) can catch one type.
"""


class SumsetLabError(Exception):
    """Base class for all sumsetlab errors."""


class EmptyInput(SumsetLabError):
    """An integer set was constructed from no elements."""


class Overflow(SumsetLabError):
    """An element or product left the supported magnitude range."""


class SizeCapExceeded(SumsetLabError):
    """Subset-sum enumeration was requested beyond the supported set size."""


class TooSmall(SumsetLabError):
    """An operation needs more elements than the set has."""


class FoldTooLarge(SumsetLabError):
    """The fold count h is not admissible for this variant or exceeds the cap."""


class CostCapExceeded(SumsetLabError):
    """The oracle would enumerate too many coefficient vectors, or the DP
    would allocate tables over the bit budget."""


class VariantMismatch(SumsetLabError):
    """No bound in the catalogue governs the requested sumset variant."""


class BadParams(SumsetLabError):
    """Constructor or operation parameters are out of range."""


class HypothesisViolated(SumsetLabError):
    """The input set does not satisfy the hypotheses of the requested lemma."""


class RegimeUnsupported(SumsetLabError):
    """No theorem in the catalogue covers this (size, fold, sign) regime."""


class SpaceTooLarge(SumsetLabError):
    """The requested search space exceeds the enumeration ceiling."""


class PoolFailed(SumsetLabError):
    """A search worker process died, or could not start, before its shard
    finished; the original BrokenProcessPool is the __cause__."""
