"""Finite integer sets and half-open intervals.

The basic objects everything else operates on: an ``Interval`` is a
half-open integer range ``(lo, hi]`` (open on the left, closed on the
right), and an ``IntegerSet`` is a finite, sorted, duplicate-free set of
integers with a provenance string describing how it was built.

The half-open-left convention makes the length of ``(lo, hi]`` exactly
``hi - lo``, the number of integers it contains, which keeps counting
arguments clean: chopping ``(a, c]`` at ``b`` gives ``(a, b]`` and
``(b, c]`` with lengths adding up.

An ``IntegerSet`` stores one sorted numpy array: int64 while every
element lies strictly within +-``_INT64_LIMIT``, object dtype of Python
ints beyond, so the numpy routes and the big-integer routes read the
same storage.  The tuple ``elements`` is built on first access only.
``.zset`` files are written in blocks of lines.  numpy's C parser
(``np.loadtxt``) reads the body below the top comments; a line loop
reads any body it refuses and raises every format error.
"""

from __future__ import annotations

import warnings
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

    def __str__(self) -> str:
        return f"({self.lo}, {self.hi}]"


def _int_array(xs: list) -> np.ndarray:
    """Python ints as an int64 array, or object dtype when one leaves int64."""
    try:
        return np.array(xs, dtype=np.int64)
    except OverflowError:
        return np.array(xs, dtype=object)


def _run_starts(xs: np.ndarray) -> np.ndarray:
    """Mask of the elements of a sorted array unequal to the one before."""
    start = np.empty(len(xs), dtype=bool)
    start[:1] = True
    np.not_equal(xs[1:], xs[:-1], out=start[1:])
    return start


def _fit(xs: np.ndarray) -> np.ndarray:
    """A sorted array in its storage dtype, read-only.

    int64 when every element lies strictly within +-_INT64_LIMIT (the
    empty set included), object dtype of Python ints otherwise.
    """
    if len(xs) == 0:
        xs = np.empty(0, dtype=np.int64)
    else:
        fits = -_INT64_LIMIT < xs[0] and xs[-1] < _INT64_LIMIT
        dtype = np.dtype(np.int64) if fits else np.dtype(object)
        if xs.dtype != dtype:
            xs = xs.astype(dtype)
    xs.flags.writeable = False
    return xs


class IntegerSet:
    """Finite sorted set of integers with provenance.

    Storage is one sorted, duplicate-free, read-only numpy array: int64
    when every element lies strictly within +-_INT64_LIMIT, object dtype
    of Python ints otherwise, so arbitrarily large elements work and the
    vectorized routes read the int64 array as it is.  ``elements``, the
    tuple of Python ints, is built on first access only.
    """

    __slots__ = ("_xs", "_tuple", "provenance")

    def __init__(self, elements: Iterable[int], provenance: str = "unspecified"):
        if isinstance(elements, np.ndarray) and elements.dtype.kind == "i":
            xs = elements.astype(np.int64).ravel()
        else:
            xs = _int_array([int(x) for x in elements])
        xs.sort()
        xs = xs[_run_starts(xs)]  # sort-and-mask dedup, not np.unique's hash path
        self._xs = _fit(xs)
        self._tuple: Optional[tuple[int, ...]] = None
        self.provenance = provenance

    @classmethod
    def from_sorted_array(cls, values: np.ndarray, provenance: str) -> "IntegerSet":
        """Trusted constructor from a sorted, duplicate-free array.

        An int64 array within +-_INT64_LIMIT is kept as it is (and made
        read-only), so the vectorized scans need not convert it back.
        """
        obj = cls.__new__(cls)
        obj._xs = _fit(values)
        obj._tuple = None
        obj.provenance = provenance
        return obj

    @property
    def elements(self) -> tuple[int, ...]:
        """The elements as a tuple of Python ints, built on first access."""
        if self._tuple is None:
            self._tuple = tuple(self._xs.tolist())
        return self._tuple

    def _np_view(self) -> Optional[np.ndarray]:
        """The int64 element array, or None if empty or beyond int64.

        No zdim code calls it: callers read _array() and its dtype.  It
        stays while perfbench's tracer wraps it by name (the
        intset.np_view layer); drop both in one benchmark revision.
        """
        xs = self._xs
        return xs if len(xs) and xs.dtype != object else None

    def _array(self) -> np.ndarray:
        """The element array: int64, or object dtype beyond int64."""
        return self._xs

    def _rank(self, x: int, side: str = "right") -> int:
        """np.searchsorted of x in the elements, for any Python int x."""
        xs = self._xs
        if xs.dtype != object:
            # every element lies strictly inside, so clamping keeps the
            # rank, and the search in int64 (numpy would go to object dtype)
            x = min(max(x, -_INT64_LIMIT), _INT64_LIMIT)
        return int(np.searchsorted(xs, x, side=side))

    def __len__(self) -> int:
        return len(self._xs)

    def __iter__(self) -> Iterator[int]:
        return iter(self._xs.tolist())

    def __contains__(self, x: int) -> bool:
        i = self._rank(x, "left")
        return i < len(self._xs) and bool(self._xs[i] == x)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntegerSet):
            return NotImplemented
        # the storage dtype is a function of the elements
        return self._xs.dtype == other._xs.dtype and np.array_equal(self._xs, other._xs)

    def __hash__(self) -> int:
        if self._xs.dtype == object:
            return hash(self.elements)
        return hash(self._xs.tobytes())

    def __repr__(self) -> str:
        n = len(self._xs)
        if n <= 6:
            body = ", ".join(map(str, self._xs.tolist()))
        else:
            head = ", ".join(map(str, self._xs[:3].tolist()))
            tail = ", ".join(map(str, self._xs[-2:].tolist()))
            body = f"{head}, ..., {tail}"
        return f"IntegerSet({{{body}}}, n={n}, provenance={self.provenance!r})"

    def count_in(self, interval: Interval) -> int:
        """Number of elements in (lo, hi]."""
        return self._rank(interval.hi) - self._rank(interval.lo)

    def restrict(self, interval: Interval) -> "IntegerSet":
        i, j = self._rank(interval.lo), self._rank(interval.hi)
        return IntegerSet.from_sorted_array(
            self._xs[i:j], f"restrict({self.provenance}, {interval})"
        )

    def shift(self, c: int) -> "IntegerSet":
        xs = self._xs
        if len(xs) and xs.dtype != object and not (
            -_INT64_LIMIT < int(xs[0]) + c and int(xs[-1]) + c < _INT64_LIMIT
        ):
            xs = xs.astype(object)  # the result leaves int64
        return IntegerSet.from_sorted_array(
            xs + c if len(xs) else xs, f"shift({self.provenance}, {c:+d})"
        )

    def reflect(self) -> "IntegerSet":
        # -_INT64_LIMIT < x < _INT64_LIMIT is symmetric, so the dtype stays
        return IntegerSet.from_sorted_array(-self._xs[::-1], f"reflect({self.provenance})")

    def hull(self) -> Interval:
        """Smallest (lo, hi] containing the set: (min - 1, max]."""
        if not len(self._xs):
            raise ValueError("empty set has no hull")
        return Interval(int(self._xs[0]) - 1, int(self._xs[-1]))


_BLOCK_LINES = 1 << 16  # .zset lines per block written


def write_zset(s: IntegerSet, path: str) -> None:
    """Write a set to the line-oriented .zset format."""
    xs = s._array()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("#zset v1\n")
        fh.write(f"#provenance {s.provenance}\n")
        for i in range(0, len(xs), _BLOCK_LINES):
            block = xs[i : i + _BLOCK_LINES].tolist()
            fh.write(("%d\n" * len(block)) % tuple(block))


def _provenance(line: str, provenance: str) -> str:
    """The provenance after a stripped comment line: "#provenance ..." sets it."""
    if line.startswith("#provenance"):
        return line[len("#provenance"):].strip() or provenance
    return provenance


def _parse_lines(fh) -> tuple[np.ndarray, str]:
    """Parse the body of an open .zset file line by line, from line 2.

    Returns (elements as an array, provenance); raises ZsetFormatError
    with the offending line number.
    """
    elements: list[int] = []
    provenance, prev = "unspecified", None
    for lineno, raw in enumerate(fh, start=2):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            provenance = _provenance(line, provenance)
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
    return _int_array(elements), provenance


def _load_body(path: str, skip: int) -> Optional[np.ndarray]:
    """The elements after the first skip lines, parsed by numpy, or None.

    Only a body of one int64 per line, increasing strictly, is taken;
    None sends the file to the line loop.  With comments=None a "#"
    anywhere in the body fails the parse.  Any warning counts as a
    failure too: numpy < 2 parses "5.0" via float with a
    DeprecationWarning instead of raising.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            xs = np.loadtxt(
                path, dtype=np.int64, comments=None, skiprows=skip, ndmin=2,
                encoding="utf-8-sig",
            )
        except (ValueError, Warning):
            return None
    if xs.shape[1] != 1:
        return None
    xs = xs[:, 0]
    return xs if np.all(xs[1:] > xs[:-1]) else None


def read_zset(path: str) -> IntegerSet:
    """Read a .zset file.

    Format: first line "#zset v1", then optional "#provenance ..." and
    comment lines starting with "#", then one decimal integer per line
    in strictly increasing order.  A UTF-8 byte order mark, CRLF or CR
    line endings, a leading "+" and blank or whitespace-only lines are
    accepted.  Violations raise ZsetFormatError with the offending line
    number.

    The header and the comment and blank lines above the first element
    are read here; np.loadtxt parses the rest in C.  A body it refuses
    (a comment, a bad token, two tokens on a line, a value beyond int64,
    elements out of order) is read again by the line loop, which raises
    every format error and builds the big-integer arrays.
    """
    provenance = "unspecified"
    with open(path, "r", encoding="utf-8-sig") as fh:
        if fh.readline().strip() != "#zset v1":
            raise ZsetFormatError("missing '#zset v1' header", 1)
        skip = 1
        for raw in fh:
            line = raw.strip()
            if line and not line.startswith("#"):
                break
            provenance = _provenance(line, provenance)
            skip += 1
        else:  # no element line, so loadtxt would warn of no data
            return IntegerSet.from_sorted_array(np.empty(0, dtype=np.int64), provenance)
    xs = _load_body(path, skip)
    if xs is None:
        with open(path, "r", encoding="utf-8-sig") as fh:
            fh.readline()
            xs, provenance = _parse_lines(fh)
    return IntegerSet.from_sorted_array(xs, provenance)
