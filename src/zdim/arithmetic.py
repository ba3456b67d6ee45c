"""Floor scaling, sumsets, the grid histogram engine, the star product,
and asymptotic interleaving.

The scaling parameter is always an exact rational: floor(lambda * n) is
computed as p*n // q, never through floating point, so every identity
downstream (window measures, double counting) stays exact.

One engine, ``grid_histogram(E, F, lam)``, computes the histogram of the
grid ``a + floor(lam*b)`` over ``E x F``: the distinct values in
increasing order and the number of grid points on each.  ``sumset`` and
``sum_scaled`` are its values; ``marstrand.collision_stats``, which
``marstrand.sweep`` and ``zdim collide`` go through, keeps both arrays.
The route is chosen from the value span and the pair count alone:

- dense accumulation, when the value span is at most the number of
  pairs: E is first split into its arithmetic-progression factors,
  E = T + {0, d, ..., (k - 1)*d} + ..., each element one sum only; for
  each element ``shift`` of the shorter of T and the distinct floors of
  lam*F, the longer one is added by an unbuffered ``np.add.at`` into
  the counters from ``shift`` on, and each factor (d, k) is then folded
  in, ``acc[x] <- sum of acc[x - j*d] over j < k``, by about log2(k)
  passes over the span;
- sorted outer sum: the outer sums in one sort, counted run by run, on
  the narrowest unsigned offsets (below).

The factors are peeled from E's offsets while one of the 8 smallest
distinct gaps d gives k > 1, where k is the gcd of the lengths of the
maximal runs of step d in each residue class mod d and T every k-th
element of each run.  A step is first tested on a sample of E: a sampled
element with neither x - d nor x + d in E rules it out for certain, and
fewer than a quarter with x + d (a factor puts half of E there) rules it
out at the risk of a false rejection, which only costs speed.  So a set
with no factor costs a few searches per step, never a sort, and is
counted by the scatter alone.  The fold doubles along the bits of k, in
place from the top down; every pass leaves the histogram of the grid
over part of E, so no count passes |F| and the counters' dtype is exact.

Each route states its whole peak, working memory and result, to
``_refuse_over_budget``, the one check against the byte budget
``_BYTE_BUDGET`` (delta_exact's events use it too), which refuses with
SizeGuardError before a grid-sized array exists.  Below a span of 2**62
both are charged the operands' relative copies at 8 bytes per element
(int64, or the sorted route's unsigned offsets at their widest, uint64),
and a Python int more per element of an object operand; the
dense route also the factor peel, _FACTOR_BYTES per element of E (at
least of one sample), and ``8 + 2c`` bytes per value of the span for
c-byte counters, which the fold's copy of the counters fits within.

The dtype only picks the array type.  E and the floors of lam*F are
int64 arrays, or object arrays of Python ints when they leave int64, and
both routes run on either.  When the span is below _INT64_LIMIT, the
routes work on the operands minus their first elements, which lie in
[0, span), so big-integer grids of a narrow span run in fixed-width
integers too: int64 for the dense route's indices and factor keys, and
for the sorted route the smallest unsigned dtype holding span - 1, so
that its outer sum, sort and run mask run at the data's own width (the
cube sums of criterion 07 span below 2**32: uint32).  Its run lengths are
written straight into the counts' dtype.  The route's distinct values
are widened to int64 (object when an operand was) once, and the lowest
value is added back in place on that array.  From a span of 2**62 on,
the sorted route sums the operands themselves, in int64 or as Python ints.

Two proven bounds keep the integer types exact.  Every count is at most
|F|, because for a fixed b the value fixes a; counts are stored in the
smallest unsigned dtype holding |F|.  The energy, the sum of the squared
counts, is at most total * max(count); ``grid_energy`` sums it in int64
chunks only when that product is below 2**63, and in object dtype
otherwise.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Optional

import numpy as np

from .intset import _INT64_LIMIT, IntegerSet, _run_starts

_BYTE_BUDGET = 150_000_000  # working memory of one array route, in bytes
_ENERGY_CHUNK = 1 << 16  # counts squared per int64 copy in grid_energy
_FACTOR_STEPS = 8  # candidate steps of a progression factor: the smallest distinct gaps
_FACTOR_SAMPLE = 1024  # elements that test a step before its full test
_FACTOR_BYTES = 40  # per element of E (at least of one sample): the factor peel at its peak
_FOLD_BLOCK = 1 << 16  # counters per add of a doubling pass of the fold


class SizeGuardError(ValueError):
    """A pairwise operation would exceed its size guard."""


def _short(text: str, limit: int = 80) -> str:
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _positive(lam) -> Fraction:
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("lambda must be positive (negative and zero scalings are reduced away)")
    return lam


def _runs(vals: np.ndarray, weights: Optional[np.ndarray] = None, dtype=np.int64):
    """(distinct values, run weights) of a sorted array.

    Without weights each element counts once, and the run lengths are
    written straight into dtype, which must hold the longest run.
    """
    idx = np.flatnonzero(_run_starts(vals))
    if weights is None:
        lengths = np.empty(len(idx), dtype=dtype)
        np.subtract(idx[1:], idx[:-1], out=lengths[:-1], casting="unsafe")
        lengths[-1:] = len(vals) - idx[-1:]
        return vals[idx], lengths
    # in the weights' dtype: reduceat would widen small unsigned ones
    return vals[idx], np.add.reduceat(weights, idx, dtype=weights.dtype)


def _sorted_runs(vals: np.ndarray, weights: Optional[np.ndarray] = None, dtype=np.int64):
    """_runs of an unsorted array; sorts vals in place when unweighted."""
    if weights is None:
        vals.sort()
        return _runs(vals, dtype=dtype)
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


def _refuse_over_budget(
    what: str, count: int, unit: str, unit_bytes: int, hint: str, base: int = 0
) -> None:
    """Raise SizeGuardError when base bytes and count units of unit_bytes
    bytes pass _BYTE_BUDGET."""
    need = base + count * unit_bytes
    if need > _BYTE_BUDGET:
        raise SizeGuardError(f"{what} ({count} {unit}, {need} bytes > {_BYTE_BUDGET}), {hint}")


def _object_bytes(dtype, *ends: int) -> int:
    """Bytes an object-dtype value adds to its array slot: a pointer and
    its Python int, in 16-byte blocks, sized by the largest of ends (the
    values of largest magnitude); 0 for other dtypes."""
    if dtype != object:
        return 0
    return 8 + -(-max(sys.getsizeof(e) for e in ends) // 16) * 16


def _candidate_steps(x):
    """The _FACTOR_STEPS smallest distinct gaps of sorted, duplicate-free x."""
    gaps = np.diff(x)
    gaps.sort()
    steps, i = [], 0
    while i < len(gaps) and len(steps) < _FACTOR_STEPS:
        steps.append(int(gaps[i]))
        i = int(np.searchsorted(gaps, gaps[i], side="right"))
    return steps


def _members(x, v):
    """Whether each of v lies in sorted x."""
    i = np.searchsorted(x, v)
    np.minimum(i, len(x) - 1, out=i)
    return x[i] == v


def _sampled_out(x, sample, d):
    """True when sample (drawn from x) rules out a factor of step d.

    A factor (d, k), k >= 2, makes every maximal run of step d a multiple
    of k long: an element of the sample with neither x - d nor x + d in x
    rules it out for certain.  It also puts x + d in x for at least half
    of x: fewer than a quarter of the sample rules it out, a rejection
    that may be false and then only costs speed.
    """
    up = _members(x, sample + d)
    return not (up | _members(x, sample - d)).all() or 4 * int(up.sum()) < len(sample)


def _peel(x, d):
    """(T, k): sorted x as T + {0, d, ..., (k - 1)*d}, each element one sum only.

    k is the gcd of the lengths of the maximal runs of step d within the
    residue classes mod d, and T every k-th element of each run, so each
    run is a row of blocks of k; k = 1 means no factor of step d.  x lies
    in [0, span) of a dense grid, so the keys stay far inside int64.
    """
    m = int(x[-1]) // d + 2  # above every quotient + 1: no run crosses classes
    key = x % d
    key *= m
    key += x // d
    key.sort()  # by class, then quotient: runs of step d are runs of step 1
    # the gcd of the run lengths is that of their running sums: the ends
    ends = np.flatnonzero(np.diff(key) != 1)
    ends += 1
    k = math.gcd(len(key), int(np.gcd.reduce(ends)))
    del ends
    if k == 1:
        return x, 1
    # every run is a multiple of k long, so blocks start at every k-th key
    t = key[::k] % m
    t *= d
    t += key[::k] // m
    t.sort()
    return t, k


def _progression_factors(x):
    """(T, factors): sorted, duplicate-free x as T + {0, d, ..., (k - 1)*d} + ...
    over the factors (d, k), peeled while one of the _FACTOR_STEPS
    smallest gaps of what is left gives k > 1.

    Each element of x is one sum only.  A step is tested on a sample of
    _FACTOR_SAMPLE elements first, so a set with no factor costs a few
    searches per step rather than a sort.
    """
    factors = []
    while True:
        sample = x
        if len(x) > _FACTOR_SAMPLE:
            # spread by a golden-ratio stride, with no random state to import
            stride = int(len(x) * 0.6180339887) | 1
            sample = x[np.arange(_FACTOR_SAMPLE) * stride % len(x)]
            sample.sort()  # sorted, the searches run faster
        for d in _candidate_steps(x):
            if _sampled_out(x, sample, d):
                continue
            t, k = _peel(x, d)
            if k > 1:
                factors.append((d, k))
                x = t
                break
        else:
            return x, factors


def _fold(acc, factors):
    """acc[x] <- the sum of acc[x - j*d] over j < k, for each factor (d, k).

    By doubling, along the bits of k: the fold over j < 2m adds the fold
    over j < m shifted by m*d, and the fold over j < m + 1 adds the
    unfolded counters shifted by m*d; about log2(k) passes over the span,
    plus one per other set bit of k, which needs a copy of the unfolded
    counters.  A doubling pass runs in place, in blocks of _FOLD_BLOCK
    from the top down, so each block reads counters not yet added to.
    Each pass leaves the histogram of the grid over part of E, each
    element one sum, so no count passes |F|: the adds stay in the
    counters' dtype and never wrap.
    """
    span = len(acc)
    for d, k in factors:
        unfolded = acc.copy() if k & (k - 1) else None
        m = 1
        for bit in bin(k)[3:]:
            s = m * d  # m*d <= (k - 1)*d < span
            for top in range(span, s, -_FOLD_BLOCK):
                low = max(top - _FOLD_BLOCK, s)
                np.add(acc[low:top], acc[low - s : top - s], out=acc[low:top])
            m *= 2
            if bit == "1":
                np.add(acc[m * d :], unfolded[: span - m * d], out=acc[m * d :])
                m += 1


def _dense_histogram(xe, uf, mult, span, cdtype):
    # operands start at 0, so every sum indexes the span; E's progression
    # factors are folded in after the scatter of what is left of E
    xe, factors = _progression_factors(xe)
    acc = np.zeros(span, dtype=cdtype)
    one = cdtype.type(1)
    if len(xe) <= len(uf):
        base, shifts = uf, xe.tolist()
        weights = repeat(one if mult is None else mult)
    else:
        base, shifts = xe, uf.tolist()
        weights = repeat(one) if mult is None else mult
    for shift, w in zip(shifts, weights):
        # w must have the counters' dtype (iterating mult yields such
        # scalars): a Python int or a wider array takes numpy's generic
        # loop, 20-30x slower
        np.add.at(acc[shift:], base, w)
    if factors:
        _fold(acc, factors)  # its scratch copy is freed before the nonzero scan
    nz = np.flatnonzero(acc)
    return nz, acc[nz]


def _sorted_histogram(xe, uf, mult, cdtype):
    # the sums, their sort and run mask keep the operands' dtype; the
    # weights (mult) already have the counters' dtype
    vals = (xe[:, None] + uf[None, :]).ravel()
    weights = None if mult is None else np.tile(mult, len(xe))
    return _sorted_runs(vals, weights, cdtype)


def grid_histogram(E: IntegerSet, F: IntegerSet, lam) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of a + floor(lam*b) over E x F: (values, counts).

    values are the distinct grid values in increasing order (int64, or
    object dtype when E or the floors leave int64); counts[i] is the number of pairs (a, b)
    landing on values[i], in the smallest unsigned dtype holding |F|.
    The route (dense or sorted) depends on the span and the pair count
    only, and refuses a grid over the byte budget; see the module docstring.
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
    dtype = np.result_type(xe, uf)  # of the values: object when an operand is
    extra = _object_bytes(dtype, lo, lo + span - 1)
    pairs = len(xe) * len(uf)
    narrow = span < _INT64_LIMIT
    # below a span of 2**62 the routes run on int64 copies of the operands
    # relative to their first elements; an object operand's copy passes
    # through a Python int of up to span per element
    base = sum(len(a) * (8 + _object_bytes(a.dtype, span)) for a in (xe, uf)) if narrow else 0
    dense = narrow and span <= pairs
    hint = "restrict windows"
    if dense:
        # the factor peel's arrays, then the counters, at most span nonzero
        # indices, counts and values; the fold's copy of the counters and
        # its block temporaries come and go before the indices and counts
        per = 8 + 2 * cdtype.itemsize + extra
        base += _FACTOR_BYTES * max(len(xe), _FACTOR_SAMPLE)
        _refuse_over_budget("grid histogram too large", span, "counters", per, hint, base)
    else:
        # one sort of an entry (value and count) per pair: three copies of
        # each entry (sums, sorted gather, runs), the order and the run
        # starts; 8 bytes per value bounds the widest offsets, uint64
        per = 3 * (8 + cdtype.itemsize) + 16 + extra
        _refuse_over_budget("grid histogram too large", pairs, "pairs", per, hint, base)
    if not narrow:
        # sums of int64 operands stay in int64; object ones stay Python ints
        return _sorted_histogram(xe, uf, mult, cdtype)
    # relative to their first elements, operands and sums lie in [0, span):
    # int64 for the dense route's indices and keys, the smallest unsigned
    # dtype holding span - 1 for the sorted route's sums
    odtype = np.int64 if dense else np.min_scalar_type(span - 1)
    xe = (xe - xe[0]).astype(odtype, copy=False)
    uf = (uf - uf[0]).astype(odtype, copy=False)
    if dense:
        values, counts = _dense_histogram(xe, uf, mult, span, cdtype)
    else:
        values, counts = _sorted_histogram(xe, uf, mult, cdtype)
    # values is the route's own array (no operand's), widened to int64 or
    # object once: shift it in place
    values = values.astype(dtype, copy=False)
    values += lo
    return values, counts


def grid_energy(counts: np.ndarray, total: int) -> int:
    """Sum of squared counts of a histogram of total grid points.

    The energy is at most total * max(count), so int64 is exact when
    that product is below 2**63, and so is every partial sum; the counts
    are then squared in int64 chunks of _ENERGY_CHUNK, not copied whole.
    Otherwise the sum runs on Python ints.
    """
    if len(counts) == 0:
        return 0
    if total * int(counts.max()) < 1 << 63:
        energy = 0
        for k in range(0, len(counts), _ENERGY_CHUNK):
            c = counts[k : k + _ENERGY_CHUNK].astype(np.int64)
            energy += int(np.dot(c, c))
        return energy
    c = counts.astype(object)
    return int((c * c).sum())


def floor_scale(E: IntegerSet, lam) -> IntegerSet:
    """{floor(lambda * n) : n in E} with exact rational floors."""
    lam = _positive(lam)
    p, q = lam.numerator, lam.denominator
    prov = f"scale({_short(E.provenance)}, {lam})"
    return IntegerSet.from_sorted_array(_floors(E, p, q)[0], prov)


def sumset(E: IntegerSet, F: IntegerSet, max_pairs: int = 100_000_000) -> IntegerSet:
    """{a + b : a in E, b in F}, deduplicated: the values of grid_histogram(E, F, 1).

    Refuses products above max_pairs, then grids over the byte budget.
    """
    if len(E) == 0 or len(F) == 0:
        raise ValueError("sumset needs nonempty sets")
    if len(E) * len(F) > max_pairs:
        raise SizeGuardError(
            f"sumset too large, restrict windows ({len(E)} x {len(F)} pairs > {max_pairs})"
        )
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
