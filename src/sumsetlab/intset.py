"""Canonical finite integer sets and their structural classification.

An IntegerSet is an immutable strictly increasing tuple of integers.  All
other modules consume this type, so deduplication, ordering and the supported
magnitude range are enforced in exactly one place.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

from .errors import (
    BadParams,
    EmptyInput,
    Overflow,
    SizeCapExceeded,
    TooSmall,
    ZeroDilation,
)

# Accepted element magnitude.  Together with the fold cap of 64 this keeps
# every internal sum strictly inside signed 64-bit range.
MAX_ELEMENT = 1 << 40

# Practical ceiling for subset-sum enumeration.
SUBSUMS_SIZE_CAP = 30


def _check_element(value: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise BadParams(f"set elements must be integers, got {value!r}")
    if abs(value) > MAX_ELEMENT:
        raise Overflow(f"element {value} outside supported range [-2^40, 2^40]")
    return value


@dataclass(frozen=True)
class IntegerSet:
    """A finite set of integers kept as a strictly increasing tuple."""

    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.elements:
            raise EmptyInput("an integer set needs at least one element")
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
    def size(self) -> int:
        return len(self.elements)

    @property
    def min(self) -> int:
        return self.elements[0]

    @property
    def max(self) -> int:
        return self.elements[-1]

    def all_odd(self) -> bool:
        return all(a % 2 == 1 for a in self.elements)

    def total(self) -> int:
        return sum(self.elements)

    def remove(self, value: int) -> "IntegerSet":
        """The set without one element."""
        if value not in self.elements:
            raise BadParams(f"{value} is not in the set")
        if len(self.elements) == 1:
            raise EmptyInput("removing the only element leaves an empty set")
        return IntegerSet(tuple(a for a in self.elements if a != value))

    def __str__(self) -> str:
        return "{" + ",".join(str(a) for a in self.elements) + "}"


@dataclass(frozen=True)
class SumsetResult:
    """Value set of a sumset computation: sorted values plus cardinality."""

    values: tuple[int, ...]
    cardinality: int

    def __post_init__(self) -> None:
        if self.cardinality != len(self.values):
            raise BadParams("cardinality must equal the number of values")
        if any(self.values[i] >= self.values[i + 1] for i in range(len(self.values) - 1)):
            raise BadParams("values must be strictly increasing")

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "SumsetResult":
        ordered = tuple(sorted(set(values)))
        return cls(ordered, len(ordered))

    @property
    def min(self) -> int:
        return self.values[0]

    @property
    def max(self) -> int:
        return self.values[-1]

    def __contains__(self, value: int) -> bool:
        i = bisect_left(self.values, value)
        return i < len(self.values) and self.values[i] == value


def canonicalize(raw: Iterable[int]) -> IntegerSet:
    """Sort, deduplicate and validate raw integers into an IntegerSet."""
    ordered = tuple(sorted(set(raw)))
    if not ordered:
        raise EmptyInput("an integer set needs at least one element")
    return IntegerSet(ordered)


def dilate(A: IntegerSet, c: int) -> IntegerSet:
    """Multiply every element by c (c != 0)."""
    if c == 0:
        raise ZeroDilation("dilation factor must be nonzero")
    return canonicalize(c * a for a in A.elements)


def abs_set(A: IntegerSet) -> IntegerSet:
    """Elementwise absolute value, deduplicated."""
    return canonicalize(abs(a) for a in A.elements)


def subsums(A: IntegerSet) -> SumsetResult:
    """All subset sums of A, including 0 for the empty subset."""
    if len(A) > SUBSUMS_SIZE_CAP:
        raise SizeCapExceeded(
            f"subset sums supported up to {SUBSUMS_SIZE_CAP} elements, got {len(A)}"
        )
    sums = {0}
    for a in A.elements:
        sums |= {s + a for s in sums}
    return SumsetResult.from_values(sums)


# --- structure classification ---------------------------------------------


@dataclass(frozen=True)
class DilatedOddProgression:
    """d*{1, 3, ..., 2k-1} for a positive integer d."""

    d: int

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


@dataclass(frozen=True)
class ArithmeticProgression:
    """first, first+diff, ... with diff > 0."""

    first: int
    diff: int

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


@dataclass(frozen=True)
class SumClosure4:
    """{a1, a2, a3, a1+a2+a3}."""

    a1: int
    a2: int
    a3: int

    @classmethod
    def match(cls, elements: tuple[int, ...]) -> Optional["SumClosure4"]:
        if len(elements) == 4 and elements[3] == sum(elements[:3]):
            return cls(*elements[:3])
        return None

    def reconstruct(self, k: int = 4) -> IntegerSet:
        return IntegerSet((self.a1, self.a2, self.a3, self.a1 + self.a2 + self.a3))

    def __str__(self) -> str:
        return f"SumClosure4(a1={self.a1},a2={self.a2},a3={self.a3})"


@dataclass(frozen=True)
class DiffClosure4:
    """{a1, a2, a3, a3+a2-a1}."""

    a1: int
    a2: int
    a3: int

    @classmethod
    def match(cls, elements: tuple[int, ...]) -> Optional["DiffClosure4"]:
        if len(elements) == 4 and elements[3] == elements[2] + elements[1] - elements[0]:
            return cls(*elements[:3])
        return None

    def reconstruct(self, k: int = 4) -> IntegerSet:
        return IntegerSet((self.a1, self.a2, self.a3, self.a3 + self.a2 - self.a1))

    def __str__(self) -> str:
        return f"DiffClosure4(a1={self.a1},a2={self.a2},a3={self.a3})"


@dataclass(frozen=True)
class Other:
    """No recognized structure; matches every set."""

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


def class_name(cls: StructureClass) -> str:
    return type(cls).__name__


def classify_structure(A: IntegerSet) -> StructureClass:
    """Match A against the recognized structural families.

    Checks run in a fixed priority order and the first match wins:
    DilatedOddProgression, ArithmeticProgression, SumClosure4, DiffClosure4,
    Other.  So a dilated interval d*[s, s+k-1] classifies as an arithmetic
    progression, and {1,3,5,7} as a dilated odd progression although it is
    also a difference closure.
    """
    if len(A) < 2:
        raise TooSmall("classification needs at least 2 elements")
    for family in _FAMILIES:
        found = family.match(A.elements)
        if found is not None:
            return found
