"""Canonical finite integer sets and their structural classification.

An IntegerSet is an immutable strictly increasing tuple of integers.  All
other modules consume this type, so deduplication, ordering and the supported
magnitude range are enforced in exactly one place.  IntegerSet, SumsetResult,
the structure families and the search's SearchSpace are Values: tuples of
their fields that compare equal only within their own class.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Union

from .errors import BadParams, CostCapExceeded

# Accepted element magnitude.  Together with the fold cap of 64 this keeps
# every internal sum strictly inside signed 64-bit range.
MAX_ELEMENT = 1 << 40

# Most set insertions subsums may make (see its docstring).  Near the cap a
# call took at most 0.46 s and a 66 MiB tracemalloc peak, over ranges 1..n,
# powers of two, and negative powers of two followed by 1..m (Python 3.11,
# one Xeon core).  At 1.9 times the cap one took 0.95 s, and at 2.6 times
# one peaked at 256 MiB, the DP tables' budget.
SUBSUMS_WORK_CAP = 2**23


class Value(tuple):
    """Base of the immutable value classes.

    An instance is the tuple of its fields, which a subclass names with
    `field`.  Every subclass sets `__slots__ = ()`, so an instance has no
    attribute dict and assigning to it raises AttributeError.  Unlike a
    plain tuple, a Value equals only an instance of its own class with equal
    fields, and it is always truthy.  Construction, unpickling included,
    calls `__post_init__`, the subclass's validation; bench/tracer.py times
    validation by wrapping that method on each class.
    """

    __slots__ = ()

    def __new__(cls, *fields):
        self = tuple.__new__(cls, fields)
        self.__post_init__()
        return self

    def __post_init__(self) -> None:
        """Validate the fields; the base accepts any."""

    def __getnewargs__(self) -> tuple:
        return self[:]

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    def __bool__(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self[:]))})"


def field(index: int) -> property:
    """The read-only attribute of a Value's field at `index`."""
    return property(itemgetter(index))


def _check_element(value: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise BadParams(f"set elements must be integers, got {value!r}")
    if abs(value) > MAX_ELEMENT:
        raise BadParams(f"element {value} outside supported range [-2^40, 2^40]")
    return value


class IntegerSet(Value):
    """A finite set of integers kept as a strictly increasing tuple."""

    __slots__ = ()
    elements = field(0)

    def __post_init__(self) -> None:
        if not self.elements:
            raise BadParams("an integer set needs at least one element")
        prev = None
        for a in self.elements:
            _check_element(a)
            if prev is not None and a <= prev:
                raise BadParams("elements must be strictly increasing and distinct")
            prev = a

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, value: int) -> bool:
        return value in self.elements

    @property
    def min(self) -> int:
        return self.elements[0]

    def all_odd(self) -> bool:
        return all(a % 2 == 1 for a in self.elements)

    def remove(self, value: int) -> "IntegerSet":
        """The set without one element."""
        if value not in self.elements:
            raise BadParams(f"{value} is not in the set")
        if len(self.elements) == 1:
            raise BadParams("removing the only element leaves an empty set")
        return IntegerSet(tuple(a for a in self.elements if a != value))

    def __str__(self) -> str:
        return "{" + ",".join(str(a) for a in self.elements) + "}"


class SumsetResult(Value):
    """Value set of a sumset computation: sorted values plus cardinality."""

    __slots__ = ()
    values, cardinality = field(0), field(1)

    def __post_init__(self) -> None:
        values = self.values
        if self.cardinality != len(values):
            raise BadParams("cardinality must equal the number of values")
        if any(a >= b for a, b in zip(values, values[1:])):
            raise BadParams("values must be strictly increasing")

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "SumsetResult":
        ordered = tuple(sorted(set(values)))
        return cls(ordered, len(ordered))

    @property
    def max(self) -> int:
        return self.values[-1]

    def __contains__(self, value: int) -> bool:
        i = bisect_left(self.values, value)
        return i < len(self.values) and self.values[i] == value


def subsums(A: IntegerSet) -> SumsetResult:
    """All subset sums of A, including 0 for the empty subset.

    Each of the k elements inserts a shifted copy of the sums so far, which
    never number more than 2^k, nor more than the sum(|a|) + 1 integers
    from the sum of the negative elements to that of the positive ones.  So
    k times the smaller bounds the insertions, the time and the sums held;
    over SUBSUMS_WORK_CAP it raises CostCapExceeded before building any.
    """
    k = len(A)
    work = k * min(1 << k, sum(map(abs, A.elements)) + 1)
    if work > SUBSUMS_WORK_CAP:
        raise CostCapExceeded(
            f"subset sums would take {work} set insertions (cap {SUBSUMS_WORK_CAP})"
        )
    sums = {0}
    for a in A.elements:
        sums |= {s + a for s in sums}
    # sums is a set already: sort it once, with no deduplicating copy.
    return SumsetResult(tuple(sorted(sums)), len(sums))


# --- structure classification ---------------------------------------------


class DilatedOddProgression(Value):
    """d*{1, 3, ..., 2k-1} for a positive integer d."""

    __slots__ = ()
    d = field(0)

    @classmethod
    def match(cls, elements: tuple[int, ...]) -> Optional["DilatedOddProgression"]:
        d = elements[0]
        if d >= 1 and all(a == d * (2 * i + 1) for i, a in enumerate(elements)):
            return cls(d)
        return None

    def reconstruct(self, k: int) -> IntegerSet:
        return IntegerSet(tuple(self.d * (2 * i + 1) for i in range(k)))

    def __str__(self) -> str:
        return f"DilatedOddProgression(d={self.d})"


class ArithmeticProgression(Value):
    """first, first+diff, ... with diff > 0."""

    __slots__ = ()
    first, diff = field(0), field(1)

    @classmethod
    def match(cls, elements: tuple[int, ...]) -> Optional["ArithmeticProgression"]:
        first, diff = elements[0], elements[1] - elements[0]
        if diff > 0 and all(a == first + i * diff for i, a in enumerate(elements)):
            return cls(first, diff)
        return None

    def reconstruct(self, k: int) -> IntegerSet:
        return IntegerSet(tuple(self.first + i * self.diff for i in range(k)))

    def __str__(self) -> str:
        return f"ArithmeticProgression(first={self.first},diff={self.diff})"


class SumClosure4(Value):
    """{a1, a2, a3, a1+a2+a3}."""

    __slots__ = ()
    a1, a2, a3 = map(field, range(3))

    @classmethod
    def match(cls, elements: tuple[int, ...]) -> Optional["SumClosure4"]:
        if len(elements) == 4 and elements[3] == sum(elements[:3]):
            return cls(*elements[:3])
        return None

    def __str__(self) -> str:
        return f"SumClosure4(a1={self.a1},a2={self.a2},a3={self.a3})"


class DiffClosure4(Value):
    """{a1, a2, a3, a3+a2-a1}."""

    __slots__ = ()
    a1, a2, a3 = map(field, range(3))

    @classmethod
    def match(cls, elements: tuple[int, ...]) -> Optional["DiffClosure4"]:
        if len(elements) == 4 and elements[3] == elements[2] + elements[1] - elements[0]:
            return cls(*elements[:3])
        return None

    def __str__(self) -> str:
        return f"DiffClosure4(a1={self.a1},a2={self.a2},a3={self.a3})"


class Other(Value):
    """No recognized structure; matches every set."""

    __slots__ = ()

    @classmethod
    def match(cls, elements: tuple[int, ...]) -> "Other":
        return cls()

    def __str__(self) -> str:
        return "Other"


StructureClass = Union[
    DilatedOddProgression,
    ArithmeticProgression,
    SumClosure4,
    DiffClosure4,
    Other,
]

# Classification priority: the first family that matches wins.
_FAMILIES = (DilatedOddProgression, ArithmeticProgression, SumClosure4, DiffClosure4, Other)


def classify_structure(A: IntegerSet) -> StructureClass:
    """Match A against the recognized structural families.

    Checks run in a fixed priority order and the first match wins:
    DilatedOddProgression, ArithmeticProgression, SumClosure4, DiffClosure4,
    Other.  So a dilated interval d*[s, s+k-1] classifies as an arithmetic
    progression, and {1,3,5,7} as a dilated odd progression although it is
    also a difference closure.
    """
    if len(A) < 2:
        raise BadParams("classification needs at least 2 elements")
    for family in _FAMILIES:
        found = family.match(A.elements)
        if found is not None:
            return found
