"""Floor scaling, sumsets, the grid histogram engine, the star product,
and asymptotic interleaving.

The scaling parameter is always an exact rational: floor(lambda * n) is
computed as p*n // q, never through floating point, so every identity
downstream (window measures, double counting) stays exact.

One engine, ``grid_histogram(E, F, lam)``, computes the histogram of the
grid ``a + floor(lam*b)`` over ``E x F``: the distinct values in
increasing order and the number of grid points on each.  ``sumset`` and
``sum_scaled`` are its values; ``marstrand.collision_stats`` and
``marstrand.sweep`` read its counts.  The route is chosen from the value
span and the pair count alone, and both routes keep their working
memory within one byte budget, ``_BYTE_BUDGET``:

- dense accumulation, when the value span is at most the number of
  pairs and its counters fit the budget: for each element of the shorter
  of E and the distinct floors of lam*F, the longer one is added by fancy
  index into the counters (both are duplicate-free, so no index repeats
  within one add);
- sorted outer sum: outer sums sorted and counted run by run, in chunks
  of the budget that a stable sort merges when the grid is larger.

The dtype only picks the array type.  E and the floors of lam*F are
int64 arrays, or object arrays of Python ints when they leave int64, and
both routes run on either.  When the span is below _INT64_LIMIT, the
routes work on the operands minus their first elements, which lie in
[0, span), so big-integer grids of a narrow span run in int64 too, and
the lowest value is added back at the end (in object dtype when an
operand was).

Two proven bounds keep the integer types exact.  Every count is at most
|F|, because for a fixed b the value fixes a; counts are stored in the
smallest unsigned dtype holding |F|.  The energy, the sum of the squared
counts, is at most total * max(count); ``grid_energy`` sums it in int64
only when that product is below 2**63, and in object dtype otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Optional

import numpy as np

from .intset import _INT64_LIMIT, IntegerSet, _run_starts

_BYTE_BUDGET = 150_000_000  # working memory of one array route, in bytes
_SORT_PAIR_BYTES = 40  # sums, run mask, order and gathered copies, per pair


class SizeGuardError(ValueError):
    """A pairwise operation would exceed its size guard."""


def _short(text: str, limit: int = 80) -> str:
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _positive(lam) -> Fraction:
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("lambda must be positive (negative and zero scalings are reduced away)")
    return lam


def _runs(vals: np.ndarray, weights: Optional[np.ndarray] = None):
    """(distinct values, run weights) of a sorted array.

    Without weights each element counts once.
    """
    idx = np.flatnonzero(_run_starts(vals))
    if weights is None:
        return vals[idx], np.diff(idx, append=len(vals))
    return vals[idx], np.add.reduceat(weights, idx)


def _sorted_runs(vals: np.ndarray, weights: Optional[np.ndarray] = None):
    """_runs of an unsorted array; sorts vals in place when unweighted."""
    if weights is None:
        vals.sort()
        return _runs(vals)
    order = np.argsort(vals, kind="stable")
    return _runs(vals[order], weights[order])


def _scales_in_int64(xs: np.ndarray, p: int) -> bool:
    """True when x*p lies strictly within +-_INT64_LIMIT for every x of sorted xs."""
    return not len(xs) or max(abs(int(xs[0])), abs(int(xs[-1]))) * p < _INT64_LIMIT


def _floors(F: IntegerSet, p: int, q: int):
    """floor(p*b/q) over F, as (distinct floors, multiplicities).

    The floors are int64, or object dtype (Python ints) when some b*p
    may leave int64.  Multiplicities are None when every floor is
    distinct.
    """
    xf = F._array()
    if not _scales_in_int64(xf, p):
        xf = xf.astype(object, copy=False)
    if p >= q:
        # gaps scale by at least 1, floors stay distinct and sorted
        return (xf if p == q else xf * p // q), None
    uf, mult = _runs(xf * p // q)
    return uf, (None if len(uf) == len(xf) else mult)


def grid_in_int64(E: IntegerSet, F: IntegerSet, lam) -> bool:
    """True when E and the floors of lam*F, grid_histogram's operands, are
    nonempty int64 arrays (not object dtype)."""
    return (
        len(E) > 0
        and len(F) > 0
        and E._array().dtype != object
        and _scales_in_int64(F._array(), Fraction(lam).numerator)
    )


def _dense_histogram(xe, uf, mult, span, cdtype):
    # operands start at 0, so every sum indexes the span
    acc = np.zeros(span, dtype=cdtype)
    if len(xe) <= len(uf):
        base, shifts = uf, xe.tolist()
        weights = repeat(1 if mult is None else mult)
    else:
        base, shifts = xe, uf.tolist()
        weights = repeat(1) if mult is None else mult.tolist()
    idx = np.empty_like(base)
    for shift, w in zip(shifts, weights):
        np.add(base, shift, out=idx)
        acc[idx] += w
    nz = np.flatnonzero(acc)
    return nz, acc[nz]


def _sorted_histogram(xe, uf, mult, cdtype):
    # rows from the longer array, so that a chunk of rows fits the budget
    chunk_pairs = _BYTE_BUDGET // _SORT_PAIR_BYTES
    rows, cols = (xe, uf) if len(xe) >= len(uf) else (uf, xe)
    step = max(1, chunk_pairs // len(cols))
    parts = []
    for i in range(0, len(rows), step):
        vals = (rows[i : i + step, None] + cols[None, :]).ravel()
        if mult is None:
            weights = None
        elif rows is uf:
            weights = np.repeat(mult[i : i + step], len(cols))
        else:
            weights = np.tile(mult, len(vals) // len(cols))
        values, counts = _sorted_runs(vals, weights)
        parts.append((values, counts.astype(cdtype, copy=False)))
    if len(parts) == 1:
        return parts[0]
    values = np.concatenate([v for v, _ in parts])
    counts = np.concatenate([c for _, c in parts])
    del parts
    return _sorted_runs(values, counts)


def grid_histogram(E: IntegerSet, F: IntegerSet, lam) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of a + floor(lam*b) over E x F: (values, counts).

    values are the distinct grid values in increasing order (int64, or
    object dtype when E or the floors leave int64); counts[i] is the number of pairs (a, b)
    landing on values[i], in the smallest unsigned dtype holding |F|.
    The route (dense or sorted) depends on the span and the pair count
    only; see the module docstring.  No size guard: callers check the
    grid size.
    """
    lam = _positive(lam)
    if len(E) == 0 or len(F) == 0:
        raise ValueError("grid_histogram needs nonempty sets")
    p, q = lam.numerator, lam.denominator
    cdtype = np.min_scalar_type(len(F))  # smallest unsigned dtype holding |F|
    xe = E._array()
    uf, mult = _floors(F, p, q)
    if mult is not None:
        mult = mult.astype(cdtype)  # multiplicities are at most |F| too
    lo = int(xe[0]) + int(uf[0])
    span = int(xe[-1]) + int(uf[-1]) - lo + 1
    if span >= _INT64_LIMIT:
        # sums of int64 operands stay in int64; object ones stay Python ints
        return _sorted_histogram(xe, uf, mult, cdtype)
    dtype = np.result_type(xe, uf)  # of the values: object when an operand is
    # relative to their first elements, operands and sums lie in [0, span)
    xe = (xe - xe[0]).astype(np.int64, copy=False)
    uf = (uf - uf[0]).astype(np.int64, copy=False)
    if span <= len(xe) * len(uf) and span * cdtype.itemsize <= _BYTE_BUDGET:
        values, counts = _dense_histogram(xe, uf, mult, span, cdtype)
    else:
        values, counts = _sorted_histogram(xe, uf, mult, cdtype)
    return values.astype(dtype, copy=False) + lo, counts


def grid_energy(counts: np.ndarray, total: int) -> int:
    """Sum of squared counts of a histogram of total grid points.

    The energy is at most total * max(count), so int64 is exact when
    that product is below 2**63; otherwise the sum runs on Python ints.
    """
    if len(counts) == 0:
        return 0
    if total * int(counts.max()) < 1 << 63:
        c = counts.astype(np.int64)
        return int(np.dot(c, c))
    c = counts.astype(object)
    return int((c * c).sum())


def floor_scale(E: IntegerSet, lam) -> IntegerSet:
    """{floor(lambda * n) : n in E} with exact rational floors."""
    lam = _positive(lam)
    p, q = lam.numerator, lam.denominator
    prov = f"scale({_short(E.provenance)}, {lam})"
    return IntegerSet.from_sorted_array(_floors(E, p, q)[0], prov)


def check_sum_pairs(E: IntegerSet, F: IntegerSet, max_pairs: int) -> None:
    """The size guard of sumset: refuse more than max_pairs pairs."""
    if len(E) * len(F) > max_pairs:
        raise SizeGuardError(
            f"sumset too large, restrict windows ({len(E)} x {len(F)} pairs)"
        )


def sumset(E: IntegerSet, F: IntegerSet, max_pairs: int = 100_000_000) -> IntegerSet:
    """{a + b : a in E, b in F}, deduplicated: the values of grid_histogram(E, F, 1).

    Refuses products above max_pairs.
    """
    if len(E) == 0 or len(F) == 0:
        raise ValueError("sumset needs nonempty sets")
    check_sum_pairs(E, F, max_pairs)
    values, _ = grid_histogram(E, F, 1)
    return IntegerSet.from_sorted_array(
        values, f"sum({_short(E.provenance)}, {_short(F.provenance)})"
    )


def sum_scaled(E: IntegerSet, F: IntegerSet, lam, max_pairs: int = 100_000_000) -> IntegerSet:
    """E + floor(lambda * F)."""
    return sumset(E, floor_scale(F, lam), max_pairs=max_pairs)


def star(E: IntegerSet, F: IntegerSet) -> IntegerSet:
    """Subsequence selection: the n-th smallest element of E for each
    index n in F, indexing E from 1.

    Out-of-range indices in F are skipped; the skipped count lands in
    the provenance.  All indices out of range is an error.
    """
    if len(E) == 0:
        raise ValueError("empty star product")
    # the indices within 1..|E| are one slice of sorted F
    xf = F._array()
    ranks = xf[F._rank(0) : F._rank(len(E))].astype(np.int64)
    skipped = len(F) - len(ranks)
    if not len(ranks):
        raise ValueError("empty star product")
    return IntegerSet.from_sorted_array(
        E._array()[ranks - 1],
        f"star({_short(E.provenance)}, {_short(F.provenance)}, skipped={skipped})",
    )


@dataclass(frozen=True)
class AsymptoticReport:
    ok: bool
    first_violation: Optional[int]
    offset: int
    n_start: int
    n_stop: int

    def __bool__(self) -> bool:
        return self.ok


def asymptotic_check(E: IntegerSet, F: IntegerSet, i: int, n0: int = 1) -> AsymptoticReport:
    """Interleaving test a_{n-i} <= b_n <= a_{n+i} over the shared index window.

    Indices are 1-based over the truncations; the window runs from
    max(n0, i+1) to min(|F|, |E|-i).  Certifies only the window, not
    the bi-infinite statement.
    """
    if i < 0:
        raise ValueError("offset must be >= 0")
    a, b = E.elements, F.elements
    n_start = max(n0, i + 1)
    n_stop = min(len(b), len(a) - i)
    if n_start > n_stop:
        raise ValueError("window too short for this offset")
    for n in range(n_start, n_stop + 1):
        if not (a[n - i - 1] <= b[n - 1] <= a[n + i - 1]):
            return AsymptoticReport(False, n, i, n_start, n_stop)
    return AsymptoticReport(True, None, i, n_start, n_stop)
