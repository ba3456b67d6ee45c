"""Finite integer sets and half-open intervals.

The basic objects everything else operates on: an ``Interval`` is a
half-open integer range ``(lo, hi]`` (open on the left, closed on the
right), and an ``IntegerSet`` is a finite, sorted, duplicate-free set of
integers with a provenance string describing how it was built.

The half-open-left convention makes the length of ``(lo, hi]`` exactly
``hi - lo``, the number of integers it contains, which keeps counting
arguments clean: chopping ``(a, c]`` at ``b`` gives ``(a, b]`` and
``(b, c]`` with lengths adding up.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

_INT64_LIMIT = 1 << 62  # stay clear of int64 edges in intermediate sums


class ZsetFormatError(ValueError):
    """Malformed .zset input; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Interval:
    """Half-open integer interval (lo, hi]. Requires lo < hi."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo >= self.hi:
            raise ValueError(f"empty interval ({self.lo}, {self.hi}]")

    @property
    def length(self) -> int:
        return self.hi - self.lo

    def contains(self, x: int) -> bool:
        return self.lo < x <= self.hi

    __contains__ = contains

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo >= hi:
            return None
        return Interval(lo, hi)

    def __str__(self) -> str:
        return f"({self.lo}, {self.hi}]"


class IntegerSet:
    """Finite sorted set of integers with provenance.

    Storage is a plain tuple of Python ints, so arbitrarily large
    elements work.  When all elements fit comfortably in int64 a numpy
    view is built lazily for the vectorized routes; the window scans
    read an object array of the Python ints otherwise.
    """

    __slots__ = ("elements", "provenance", "_np")

    def __init__(self, elements: Iterable[int], provenance: str = "unspecified"):
        xs = sorted(set(int(x) for x in elements))
        self.elements: tuple[int, ...] = tuple(xs)
        self.provenance = provenance
        self._np: Optional[np.ndarray] = None

    @classmethod
    def from_sorted(cls, elements: tuple[int, ...], provenance: str) -> "IntegerSet":
        """Trusted constructor: elements must already be sorted and unique."""
        obj = cls.__new__(cls)
        obj.elements = elements
        obj.provenance = provenance
        obj._np = None
        return obj

    @classmethod
    def from_sorted_array(cls, values: np.ndarray, provenance: str) -> "IntegerSet":
        """Trusted constructor from a sorted, duplicate-free array.

        An int64 array within the view's range is kept as the int64
        view, so the vectorized scans need not convert the elements back.
        """
        obj = cls.from_sorted(tuple(values.tolist()), provenance)
        if (
            values.dtype == np.int64
            and len(values)
            and -_INT64_LIMIT < values[0]
            and values[-1] < _INT64_LIMIT
        ):
            obj._np = values
        return obj

    def _np_view(self) -> Optional[np.ndarray]:
        """int64 view of the elements, or None if they don't fit."""
        if self._np is None and self.elements:
            if -_INT64_LIMIT < self.elements[0] and self.elements[-1] < _INT64_LIMIT:
                self._np = np.asarray(self.elements, dtype=np.int64)
        return self._np

    def _array(self) -> np.ndarray:
        """The elements as an array: the int64 view, else object dtype."""
        xs = self._np_view()
        return xs if xs is not None else np.array(self.elements, dtype=object)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, x: int) -> bool:
        i = bisect.bisect_left(self.elements, x)
        return i < len(self.elements) and self.elements[i] == x

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntegerSet):
            return NotImplemented
        return self.elements == other.elements

    def __hash__(self) -> int:
        return hash(self.elements)

    def __repr__(self) -> str:
        n = len(self.elements)
        if n <= 6:
            body = ", ".join(str(x) for x in self.elements)
        else:
            head = ", ".join(str(x) for x in self.elements[:3])
            tail = ", ".join(str(x) for x in self.elements[-2:])
            body = f"{head}, ..., {tail}"
        return f"IntegerSet({{{body}}}, n={n}, provenance={self.provenance!r})"

    def count_in(self, interval: Interval) -> int:
        """Number of elements in (lo, hi]."""
        j = bisect.bisect_right(self.elements, interval.hi)
        i = bisect.bisect_right(self.elements, interval.lo)
        return j - i

    def restrict(self, interval: Interval) -> "IntegerSet":
        i = bisect.bisect_right(self.elements, interval.lo)
        j = bisect.bisect_right(self.elements, interval.hi)
        return IntegerSet.from_sorted(
            self.elements[i:j], f"restrict({self.provenance}, {interval})"
        )

    def shift(self, c: int) -> "IntegerSet":
        return IntegerSet.from_sorted(
            tuple(x + c for x in self.elements), f"shift({self.provenance}, {c:+d})"
        )

    def reflect(self) -> "IntegerSet":
        return IntegerSet.from_sorted(
            tuple(-x for x in reversed(self.elements)), f"reflect({self.provenance})"
        )

    def hull(self) -> Interval:
        """Smallest (lo, hi] containing the set: (min - 1, max]."""
        if not self.elements:
            raise ValueError("empty set has no hull")
        return Interval(self.elements[0] - 1, self.elements[-1])


def write_zset(s: IntegerSet, path: str) -> None:
    """Write a set to the line-oriented .zset format."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("#zset v1\n")
        fh.write(f"#provenance {s.provenance}\n")
        for x in s.elements:
            fh.write(f"{x}\n")


def read_zset(path: str) -> IntegerSet:
    """Read a .zset file.

    Format: first line "#zset v1", then optional "#provenance ..." and
    comment lines starting with "#", then one decimal integer per line
    in strictly increasing order.  Violations raise ZsetFormatError with
    the offending line number.
    """
    elements: list[int] = []
    provenance = "unspecified"
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if first.strip() != "#zset v1":
            raise ZsetFormatError("missing '#zset v1' header", 1)
        prev: Optional[int] = None
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith("#provenance"):
                    provenance = line[len("#provenance"):].strip() or provenance
                continue
            try:
                x = int(line)
            except ValueError:
                raise ZsetFormatError(f"not an integer: {line!r}", lineno) from None
            if prev is not None and x <= prev:
                raise ZsetFormatError(
                    f"elements not strictly increasing ({x} after {prev})", lineno
                )
            prev = x
            elements.append(x)
    return IntegerSet.from_sorted(tuple(elements), provenance)
