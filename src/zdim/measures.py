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
lengths beyond float range score as infinitely long.  The float scan
finds the best score, then every near-tie at the top is re-compared
exactly (integer cross-powers for rational alpha with small
denominator, high-precision decimal otherwise), so witnesses landing
exactly on a boundary are resolved correctly and the reported witness
is deterministic.

Sets whose full pair count exceeds the schedule budget are scanned on
an index stride.  First and last elements are always kept, so witnesses
spanning the full hull are never lost to subsampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import isqrt
from typing import Callable, Optional

import numpy as np

from .exact import EXACT_DEN_LIMIT, cmp_ratio, exact_feasible, ratio_value
from .intset import IntegerSet, Interval

# scans of object arrays (elements beyond int64) get a tighter cap
_PY_BUDGET = 2_000_000
_MAX_CANDIDATES = 50_000
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


def _window_scan(
    xs: np.ndarray,
    pos: list[int],
    score: Callable[[np.ndarray, np.ndarray], np.ndarray],
    near: Callable[[float], float],
    min_count: int,
    min_length: int,
) -> tuple[list[tuple[int, int, int, int]], int]:
    """Two-pass scan of the windows [xs[i], xs[j]] for i <= j in pos.

    score maps float64 (count, length) arrays to scores; windows with
    fewer than min_count elements or shorter than min_length are left
    out.  The first pass finds the best score, the second collects the
    windows scoring at least near(best) as (count, length, x_i, x_j),
    in scan order and at most _MAX_CANDIDATES of them.  Returns the
    candidates and the number of (i, j) pairs examined.
    """
    idx = np.asarray(pos, dtype=np.int64)
    vals = xs[idx]
    rows = len(idx)

    def row(a: int) -> tuple[np.ndarray, np.ndarray]:
        counts = (idx[a:] - idx[a] + 1).astype(np.float64)
        lens = _as_float(vals[a:] - vals[a] + 1)
        ok = (counts >= min_count) & (lens >= min_length)
        return counts, np.where(ok, score(counts, lens), -1.0)

    row_best = np.array([row(a)[1].max() for a in range(rows)])
    pairs = rows * (rows + 1) // 2
    best = float(row_best.max())
    if best < 0:
        return [], pairs
    thr = near(best)
    cands: list[tuple[int, int, int, int]] = []
    for a in np.nonzero(row_best >= thr)[0]:
        counts, r = row(a)
        xi = int(vals[a])
        for b in np.nonzero(r >= thr)[0]:
            xj = int(vals[a + b])
            cands.append((int(counts[b]), xj - xi + 1, xi, xj))
            if len(cands) >= _MAX_CANDIDATES:
                return cands, pairs
    return cands, pairs


# ---------------------------------------------------------------------------
# ratio objective: count / length**alpha


def _cmp_ratio_any(c1: int, l1: int, c2: int, l2: int, alpha: Fraction) -> int:
    """Sign of c1/l1**alpha - c2/l2**alpha, exact when feasible."""
    if exact_feasible(max(l1, l2), alpha):
        return cmp_ratio(c1, l1, c2, l2, alpha)
    with localcontext() as ctx:
        ctx.prec = 60
        af = Decimal(alpha.numerator) / Decimal(alpha.denominator)
        r1 = Decimal(c1) / (af * Decimal(l1).ln()).exp()
        r2 = Decimal(c2) / (af * Decimal(l2).ln()).exp()
        diff = r1 - r2
        if abs(diff) < (r1 + r2) * Decimal(10) ** -50:
            return 0
        return 1 if diff > 0 else -1


def _pick_best_ratio(
    cands: list[tuple[int, int, int, int]], alpha: Fraction
) -> tuple[int, int, int, int]:
    """Exact max over candidates; ties broken by shorter length, then lower start."""
    best = cands[0]
    for cand in cands[1:]:
        s = _cmp_ratio_any(cand[0], cand[1], best[0], best[1], alpha)
        if s > 0 or (s == 0 and (cand[1], cand[2]) < (best[1], best[2])):
            best = cand
    return best


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
    if not cands:
        raise DegenerateSetError(
            f"no interval with count >= {min_count} and length >= {schedule.min_length}"
        )
    return _pick_best_ratio(cands, alpha), pairs, sub


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
    r = math.log(count) / math.log(length)
    guess = Fraction(r).limit_denominator(EXACT_DEN_LIMIT)
    if 0 <= guess <= 1 and count**guess.denominator == length**guess.numerator:
        return guess
    return Fraction(r).limit_denominator(10**12)


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
    if not cands:
        raise DegenerateSetError(
            f"no interval with count >= 2 and length >= {schedule.min_length}"
        )
    best = cands[0]
    best_r = math.log(best[0]) / math.log(best[1])
    for cand in cands[1:]:
        r = math.log(cand[0]) / math.log(cand[1])
        if r > best_r + 1e-12 or (
            abs(r - best_r) <= 1e-12 and (cand[1], cand[2]) < (best[1], best[2])
        ):
            best, best_r = cand, max(r, best_r)
    count, length, xi, xj = best
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
    subsampling.
    """
    for x in E:
        if x not in F:
            raise ValueError("not a subset")
    try:
        dE = dimension_estimate(E, schedule)
    except DegenerateSetError:
        return True
    dF = dimension_estimate(F, schedule)
    best_f = float(dF.alpha_hat)
    w = dE.witness
    c = F.count_in(w)
    if c >= 2 and w.length >= 2:
        best_f = max(best_f, math.log(c) / math.log(w.length))
    return best_f >= float(dE.alpha_hat) - 1e-12
