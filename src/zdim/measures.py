"""Empirical counting dimension, alpha-measure, and density.

For a finite set E = {x_0 < x_1 < ... < x_{n-1}} the estimators scan
intervals aligned to elements: I = (x_i - 1, x_j] contains exactly
j - i + 1 elements of E and has length x_j - x_i + 1.  Over these
intervals we maximize

    dimension:      log(count) / log(length)
    alpha-measure:  count / length**alpha
    density:        count / length         (alpha = 1)

One window scan serves all three; the caller passes the objective as
a score function with its near-tie threshold.  The scan runs on the
set's element array, int64 when the elements fit and object dtype
(Python ints) otherwise, so the dtype alone chooses the big-integer
path.  Lengths of either dtype become float64 with the same rounding;
lengths beyond float range score as infinitely long.  Windows d
endpoints apart hold one count and every objective falls as the length
grows, so one pass scores the shortest windows of each such diagonal
for the best score, and a second collects near-ties in row-major order
up to a cap, as arrays of (count, length, start, end).  One pick settles
the near-ties exactly, with exact.cmp_ratio or exact.cmp_log_ratio, and
reports the shortest, then lowest, window of the exact maximum.

The first pass reads each diagonal's gaps as differences of the offsets
x_i - x_0.  When their span is below 2**62 the offsets are int64, for
big-integer sets too, and the least gaps of whole blocks of diagonals
come from one window view of the offsets, in int32 when the span is
below 2**30, written into one buffer of about 2**17 entries per call,
so memory stays O(rows) plus that buffer.  A wider span, up to
2**63 - 2 for int64 arrays and unbounded for object ones, takes the
same pass on capped int64 offsets: each step between neighbours is
capped at cap = 2**62 // rows, so a window whose capped gap is below
cap holds no capped step and that gap is its own.  A diagonal whose least gap and the float-rounding band above it
stay below cap is scored from them.  The others are deferred: once the
rest have set the best score, each is scanned on Python ints only while
the score at an exact lower bound on its length, with a margin for
rounding, can still reach the near-tie threshold; one that cannot holds
no candidate and is left out.  The bound takes the larger of the capped
least gap and 2**sh * (g - 1), where g is the least gap of the offsets
shifted right by sh bits to fit below 2**62.

Sets whose full pair count exceeds the schedule budget are scanned on
an index stride.  First and last elements are always kept, so witnesses
spanning the full hull are never lost to subsampling.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import isqrt
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exact import cmp_log_ratio, cmp_ratio, exact_feasible, ratio_value, rational_log_ratio
from .intset import _INT64_LIMIT, IntegerSet, Interval

# scans of object arrays (elements beyond int64) get a tighter cap
_PY_BUDGET = 2_000_000
_MAX_CANDIDATES = 50_000
_SCAN_BLOCK = 1 << 17  # entries of the first pass's block of diagonals
_FLOAT_OVERFLOW = (1 << 1024) - (1 << 970)  # least int that float() rounds to 2**1024


class DegenerateSetError(ValueError):
    """Estimate requested for a set too small to carry one."""


@dataclass(frozen=True)
class ScanSchedule:
    """Controls how truncation intervals are enumerated.

    budget caps the number of (start, end) element pairs examined; sets
    whose full pair count exceeds it are scanned on an index stride with
    both endpoints always kept.  min_length discards intervals shorter
    than the given length; raising it above 2 filters out the trivial
    short witnesses that any set with a run of consecutive elements
    would otherwise produce.
    """

    budget: int = 50_000_000
    min_length: int = 2

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.min_length < 1:
            raise ValueError("min_length must be >= 1")


@dataclass(frozen=True)
class DimensionEstimate:
    """Best log(count)/log(length) found, as a rational.

    alpha_hat is exact when the witness satisfies count**q == length**p
    for a small-denominator p/q (prefixes of power sets do); otherwise
    it is the float ratio converted at 12-digit precision.
    """

    alpha_hat: Fraction
    witness: Interval
    count: int
    pairs_scanned: int
    subsampled: bool

    @property
    def length(self) -> int:
        return self.witness.length

    @property
    def alpha_float(self) -> float:
        return float(self.alpha_hat)


@dataclass(frozen=True)
class MeasureEstimate:
    value: Fraction
    alpha: Fraction
    witness: Optional[Interval]
    count: int
    pairs_scanned: int
    subsampled: bool

    @property
    def length(self) -> int:
        return self.witness.length if self.witness is not None else 0


def _as_fraction(alpha) -> Fraction:
    a = Fraction(alpha)
    if a < 0 or a > 1:
        raise ValueError("alpha must lie in [0, 1]")
    return a


def _scan_positions(n: int, budget: int) -> tuple[list[int], bool]:
    """Element indices to use as interval endpoints, and a subsampled flag."""
    if n * (n + 1) // 2 <= budget:
        return list(range(n)), False
    m = (isqrt(8 * budget + 1) - 1) // 2
    m = max(m, 2)
    step = -(-n // m)
    pos = list(range(0, n, step))
    if pos[-1] != n - 1:
        pos.append(n - 1)
    return pos, True


def _scan_array(E: IntegerSet, budget: int) -> tuple[np.ndarray, list[int], bool]:
    """E's element array, the endpoint indices to scan, and a subsampled flag."""
    xs = E._array()
    if xs.dtype == object:  # Python-int arithmetic gets a tighter pair budget
        budget = min(budget, _PY_BUDGET)
    pos, sub = _scan_positions(len(xs), budget)
    return xs, pos, sub


def _as_float(v: np.ndarray) -> np.ndarray:
    """float64 copy of integer lengths, rounded alike for both dtypes.

    Lengths that float() would round to 2**1024 or more, which only
    object arrays can hold, become inf.
    """
    if v.dtype != object:
        return v.astype(np.float64)
    huge = v >= _FLOAT_OVERFLOW
    out = np.where(huge, 0, v).astype(np.float64)
    out[huge] = np.inf
    return out


def _least_gaps(off: np.ndarray, first: int, step: int, min_length: int) -> np.ndarray:
    """Least gap of each diagonal d >= first of the int64 offsets off,
    which span less than 2**62, among its windows at least min_length
    long, as _window_scan counts them (diagonal d holds d * step + 1
    elements); -1 where none is that long, and for d < first.

    Blocks of diagonals d0 <= d < d1 are read at once from a window view
    of the offsets padded with a sentinel top: row d - d0 and column i of
    the block hold off[i + d] - off[i], or top - off[i] past the end of
    the offsets.  A pad exceeds every gap, which is at most the span,
    since top >= 2 * span + 1; spans below 2**30 run on int32, halving
    the memory traffic.  A block holds about _SCAN_BLOCK entries, at
    least one diagonal, and every block is written into one buffer made
    once per call.  A diagonal holding fewer than min_length elements
    keeps only the windows of float length at least min_length, the
    gaps of at least thr: its row is shifted down by thr, so in unsigned
    view the windows it drops lie above all the others, and a least
    entry past span - thr is a pad or a dropped window, so no window is
    that long.
    """
    u = len(off)
    g = np.full(u, -1, dtype=np.int64)
    span = int(off[-1])
    dt, udt = (np.int32, np.uint32) if span < 1 << 30 else (np.int64, np.uint64)
    top = np.iinfo(dt).max
    pad = np.full(2 * u, top, dtype=dt)
    pad[:u] = off
    short = -(-(min_length - 1) // step)  # diagonals below it hold fewer than min_length
    # the least gap whose float length reaches min_length: exact below 2**53
    thr = min_length - 1
    if short > first and min_length > 2**53:
        thr = bisect_left(
            range(span + 1), True, key=lambda v: bool(_as_float(np.array([v + 1])) >= min_length)
        )
    win = sliding_window_view(pad, u)  # row d: the offsets from d on, then pads
    buf = np.empty(max(u - first, min(_SCAN_BLOCK, (u - first) ** 2)), dtype=dt)
    d0 = first
    while d0 < u:
        n = u - d0
        d1 = min(u, d0 + max(1, _SCAN_BLOCK // n))
        blk = buf[: (d1 - d0) * n].reshape(d1 - d0, n)
        np.subtract(win[d0:d1, :n], pad[:n], out=blk)
        k = min(max(short - d0, 0), d1 - d0)  # the block's short diagonals
        if k and thr <= span:
            np.subtract(blk[:k], thr, out=blk[:k])
            m = blk[:k].view(udt).min(axis=1)
            g[d0 : d0 + k] = np.where(m <= udt(span - thr), m.astype(np.int64) + thr, -1)
        g[d0 + k : d1] = blk[k:].min(axis=1)
        d0 = d1
    return g


def _window_scan(
    xs: np.ndarray,
    pos: list[int],
    score: Callable[[np.ndarray, np.ndarray], np.ndarray],
    near: Callable[[float], float],
    min_count: int,
    min_length: int,
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], int]:
    """Two-pass scan of the windows [xs[i], xs[j]] for i <= j in pos.

    pos is k * step for k < u, as from _scan_positions, maybe with the
    last index appended.  score maps float64 (count, length) arrays to
    scores falling as the length grows; windows with fewer than min_count
    elements or shorter than min_length are left out.  Along a diagonal
    d = j - i < u the count is d * step + 1, so the first pass scores
    the shortest windows of each diagonal, those within float rounding
    of them and the column ending at an appended index.  It takes the
    least gap of whole blocks of diagonals at once (_least_gaps) from
    the offsets xs[i] - xs[pos[0]], with each step between neighbours
    capped at cap = 2**62 // u past a span of 2**62, and per diagonal
    only the gaps within float rounding of a least gap of band or more.
    A diagonal whose least capped gap or its band reaches cap, or that
    has none long enough, is deferred; after the rest, Python ints scan
    those whose exact lower bound on length can still reach near(best),
    the bound coming from the capped gaps and from the offsets shifted
    right to fit below 2**62.  The second scans the diagonals reaching
    near(best) by row blocks for the windows scoring at least near(best),
    row-major, up to _MAX_CANDIDATES.  Returns them as the arrays (counts,
    lengths, x_i, x_j), the first int64 and the others of xs's dtype, and
    the pair count.
    """
    idx = np.asarray(pos, dtype=np.int64)
    vals = xs[idx]
    rows = len(idx)
    pairs = rows * (rows + 1) // 2
    step = int(idx[1] - idx[0]) if rows > 1 else 1
    u = rows if idx[-1] == (rows - 1) * step else rows - 1
    assert np.array_equal(idx[:u], np.arange(u) * step), "pos is not k * step"

    def scored(counts, lens):
        counts, lens = counts.astype(np.float64), _as_float(lens)
        return np.where((counts >= min_count) & (lens >= min_length), score(counts, lens), -1.0)

    # pass 1: gaps within (g + 1) // band of the least, g, are scored too
    s = score(np.full(2, 2.0), np.array([2.0**1000, 2.0**1001]))  # band: a fall of ~2**-44
    band = max(1, int((1 - s[1] / s[0]) * 2**44)) if s[1] < s[0] else 2**62  # flat: constant

    def least(d, gaps):
        """(g, score) for the gaps of diagonal d: g the least gap of a window
        at least min_length long, score the best of the other gaps within
        (g + 1) // band of it, or -1.  None when no window is that long."""
        if d * step + 1 < min_length:
            gaps = gaps[_as_float(gaps + 1) >= min_length]
            if not len(gaps):
                return None
        g = int(gaps.min())  # a Python int: g + (g + 1) // band cannot wrap
        if g + 1 >= band and ((t := gaps[gaps <= g + (g + 1) // band]) != g).any():
            return g, score(np.full(len(t), d * step + 1.0), _as_float(t + 1)).max()
        return g, -1.0

    counts = np.arange(u) * step + 1
    first = -(-(min_count - 1) // step)  # shorter diagonals hold too few elements
    off = vals[:u] - vals[0]  # the gaps of the windows are differences of offsets
    span = int(off[-1])
    wide = span >= _INT64_LIMIT  # int64 arrays span up to 2**63 - 2
    if not wide:
        cut = off.astype(np.int64, copy=False)
    else:
        # each step between neighbours capped at cap keeps the offsets below
        # 2**62; a window whose capped gap is below cap holds no capped step,
        # so that gap is its own
        cap = _INT64_LIMIT // u
        cut = np.zeros(u, dtype=np.int64)
        np.cumsum(np.minimum(np.diff(off), cap).astype(np.int64), out=cut[1:])
    g = _least_gaps(cut, first, step, min_length)
    # the diagonals whose least gap or its band may reach cap wait for Python ints
    late = np.zeros(u, dtype=bool)
    if wide:
        late[first:] = ((g < 0) | (g + (g + 1) // band >= cap))[first:]
    gmin = np.maximum(g, 0).astype(object if wide else np.int64)  # gap 0 where skipped
    best_d = np.full(u, -1.0)
    # a band reaching past g may hold other gaps to score: per diagonal
    for d in np.flatnonzero((g + 1 >= band) & ~late).tolist():
        gmin[d], best_d[d] = least(d, cut[d:] - cut[: u - d])
    best_d = np.maximum(best_d, scored(counts, gmin + 1))
    dd = np.flatnonzero(late)
    best_d[dd] = -1.0  # their least gaps are not known yet
    lens = np.empty(0)
    if len(dd):
        # exact lower bounds on their least gaps.  One is the least capped
        # gap, but a window that only its capped gap leaves out as too short
        # has a capped gap of cap or more, so on a diagonal holding fewer than
        # min_length elements it stops at cap.  The other is 2**sh * (g2 - 1),
        # for g2 the least gap of the offsets shifted right by sh bits
        lo = np.where((counts < min_length) & ((g < 0) | (g > cap)), cap, g)[dd].tolist()
        sh = span.bit_length() - 62
        g2 = _least_gaps((off >> sh).astype(np.int64), int(dd[0]), step, 1)[dd]
        low = [max(a, 2**sh * (b - 1), d * step) for a, b, d in zip(lo, g2.tolist(), dd.tolist())]
        lens = _as_float(np.array(low, dtype=object) + 1)
    col = scored(idx[-1] - idx + 1, vals[-1] - vals + 1) if u < rows else np.empty(0)
    best = float(max(best_d.max(initial=-1.0), col.max(initial=-1.0)))
    # the deferred diagonals, best bound first, scanned exactly while the
    # score at the lower bound on length, with a margin for rounding, can
    # still reach near(best); the rest cannot, and stay at -1
    bound = score(counts[dd].astype(np.float64), lens) * (1 + 2.0**-30)
    for k in np.argsort(-bound, kind="stable").tolist():
        if best >= 0 and bound[k] < near(best):
            break
        d = int(dd[k])
        if (got := least(d, vals[d:u] - vals[: u - d])) is not None:
            gmin[d], best_d[d] = got
        best_d[d] = max(best_d[d], scored(counts[d : d + 1], gmin[d : d + 1] + 1)[0])
        best = max(best, float(best_d[d]))
    i = j = np.empty(0, dtype=np.int64)
    if best >= 0:
        thr = near(best)
        qual = np.flatnonzero(best_d >= thr)
        parts, found, a0 = [], 0, 0
        while a0 < rows and found < _MAX_CANDIDATES:
            q = qual[: np.searchsorted(qual, u - a0)]
            a = np.arange(a0, min(rows, a0 + max(1, _MAX_CANDIDATES // max(1, len(q)))))
            b = a[:, None] + q
            inside = b < u
            b = np.where(inside, b, a[:, None])
            hit = inside & (scored(idx[b] - idx[a, None] + 1, vals[b] - vals[a, None] + 1) >= thr)
            if u < rows:
                b = np.column_stack([b, np.full(len(a), rows - 1)])
                hit = np.column_stack([hit, col[a] >= thr])
            ai, bi = np.nonzero(hit)
            parts.append((a[ai], b[ai, bi]))
            found += len(ai)
            a0 = a[-1] + 1
        i, j = (np.concatenate(p)[:_MAX_CANDIDATES] for p in zip(*parts))
    xi, xj = vals[i], vals[j]
    return (idx[j] - idx[i] + 1, xj - xi + 1, xi, xj), pairs


def _pick_best(cands: tuple[np.ndarray, ...], cmp: Callable) -> tuple[int, int, int, int]:
    """The shortest, then lowest, candidate (count, length, start, end) of
    largest score; cmp(c1, l1, c2, l2) is the sign of the score difference
    or None (undecided), a tie.  Scores fall as the length grows at a fixed
    count, so the fold runs over each count's shortest, then lowest, window."""
    counts, lens, starts, _ = cands
    order = np.lexsort((starts, lens, counts))
    keep = order[np.unique(counts[order], return_index=True)[1]]
    rows = zip(*(a[keep].tolist() for a in cands))
    best = next(rows)
    for cand in rows:
        s = cmp(cand[0], cand[1], best[0], best[1])
        if s == 1 or (s != -1 and (cand[1], cand[2]) < (best[1], best[2])):
            best = cand
    return best


# ---------------------------------------------------------------------------
# ratio objective: count / length**alpha


def _ratio_to_fraction(count: int, length: int, alpha: Fraction, digits: int = 40) -> Fraction:
    if exact_feasible(length, alpha):
        return ratio_value(count, length, alpha, digits)
    with localcontext() as ctx:
        ctx.prec = digits + 20
        af = Decimal(alpha.numerator) / Decimal(alpha.denominator)
        d = Decimal(count) / (af * Decimal(length).ln()).exp()
        return Fraction(d)


def _ratio_scan(
    E: IntegerSet,
    alpha: Fraction,
    schedule: ScanSchedule,
    min_count: int,
) -> tuple[tuple[int, int, int, int], int, bool]:
    """Shared engine behind alpha-measure, density, and sup-ratio scans."""
    af = float(alpha)
    xs, pos, sub = _scan_array(E, schedule.budget)
    cands, pairs = _window_scan(
        xs,
        pos,
        lambda c, l: c * l ** (-af),
        lambda best: best - abs(best) * 1e-9,
        min_count,
        schedule.min_length,
    )
    if not len(cands[0]):
        raise DegenerateSetError(
            f"no interval with count >= {min_count} and length >= {schedule.min_length}"
        )
    return _pick_best(cands, lambda *cl: cmp_ratio(*cl, alpha)), pairs, sub


def alpha_measure_estimate(
    E: IntegerSet, alpha, schedule: ScanSchedule = ScanSchedule()
) -> MeasureEstimate:
    """Empirical alpha-measure: max of count / length**alpha over aligned intervals.

    Intervals must contain at least two elements, except that a
    one-element set is given measure 1 outright (its only interval is a
    single cell).
    """
    a = _as_fraction(alpha)
    if len(E) == 0:
        raise DegenerateSetError("empty set")
    if len(E) == 1:
        return MeasureEstimate(Fraction(1), a, E.hull(), 1, 1, False)
    (count, length, xi, xj), pairs, sub = _ratio_scan(E, a, schedule, min_count=2)
    return MeasureEstimate(
        _ratio_to_fraction(count, length, a),
        a,
        Interval(xi - 1, xj),
        count,
        pairs,
        sub,
    )


def density_estimate(E: IntegerSet, schedule: ScanSchedule = ScanSchedule()) -> MeasureEstimate:
    """Empirical upper Banach density: max of count / length, exact rational.

    The empty set gets the defined value 0 with no witness.
    """
    if len(E) == 0:
        return MeasureEstimate(Fraction(0), Fraction(1), None, 0, 0, False)
    return alpha_measure_estimate(E, Fraction(1), schedule)


# ---------------------------------------------------------------------------
# dimension objective: log(count) / log(length)


def _log_ratio_fraction(count: int, length: int) -> Fraction:
    """log(count)/log(length) as a Fraction, exact for true power relations."""
    r = math.log(count) / math.log(length)  # count >= 2, so an exact ratio is never 0
    return rational_log_ratio(count, length) or Fraction(r).limit_denominator(10**12)


def dimension_estimate(
    E: IntegerSet, schedule: ScanSchedule = ScanSchedule()
) -> DimensionEstimate:
    """Empirical counting dimension: max of log(count)/log(length).

    Only intervals holding at least two elements count; a set with
    fewer than two elements has no meaningful estimate and raises
    DegenerateSetError.
    """
    if len(E) < 2:
        raise DegenerateSetError("dimension needs at least 2 elements")
    xs, pos, sub = _scan_array(E, schedule.budget)
    cands, pairs = _window_scan(
        xs,
        pos,
        lambda c, l: np.log(c) / np.log(np.maximum(l, 2.0)),
        lambda best: best - 1e-12,
        2,
        max(2, schedule.min_length),
    )
    if xs.dtype == object:  # big-integer reports never counted the i == j pairs
        pairs -= len(pos)
    if not len(cands[0]):
        raise DegenerateSetError(
            f"no interval with count >= 2 and length >= {schedule.min_length}"
        )
    count, length, xi, xj = _pick_best(cands, cmp_log_ratio)
    return DimensionEstimate(
        _log_ratio_fraction(count, length),
        Interval(xi - 1, xj),
        count,
        pairs,
        sub,
    )


# ---------------------------------------------------------------------------


def monotonicity_check(
    E: IntegerSet, F: IntegerSet, schedule: ScanSchedule = ScanSchedule()
) -> bool:
    """Dimension monotonicity under inclusion: E subset of F implies
    estimate(E) <= estimate(F).

    Sets with fewer than two elements are treated as estimate 0.  F's
    estimate is floored by F's own ratio on E's witness interval (F has
    at least as many points there), so the comparison holds under any
    subsampling; an undecided cmp_log_ratio counts as holding.
    """
    for x in E:
        if x not in F:
            raise ValueError("not a subset")
    try:
        dE = dimension_estimate(E, schedule)
    except DegenerateSetError:
        return True
    dF = dimension_estimate(F, schedule)
    w = dE.witness
    pairs = ((dF.count, dF.length), (F.count_in(w), w.length))
    return any(cmp_log_ratio(c, l, dE.count, dE.length) != -1 for c, l in pairs)
