"""Sup-ratio maximization, dyadic thinning, and regularity diagnostics.

The central quantity is s(I) = sup over element-aligned subintervals J
of I of count(J) / length(J)**alpha.  Thinning repeatedly discards
alternate interior elements, which provably takes s below 2 while
keeping it above 1/2; stitching thinned blocks over well-separated
witness intervals extracts a subset whose counting rate matches a
prescribed exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .arithmetic import _short
from .exact import ceil_pow, cmp_ratio, exact_feasible, pow_bracket
from .intset import _INT64_LIMIT, IntegerSet, Interval
from .measures import (
    DegenerateSetError,
    DimensionEstimate,
    MeasureEstimate,
    ScanSchedule,
    _as_float,
    _ratio_scan,
    _ratio_to_fraction,
    dimension_estimate,
)

_SUP_CAP = 5000  # exact O(k^2) maximization up to this many elements


@dataclass(frozen=True)
class SupRatio:
    """Maximum of count/length**alpha with its witness.

    value is a high-precision rational stand-in (exact when the power
    is rational); count and witness carry the exact integers every
    exact comparison should be done from.
    """

    value: Fraction
    witness: Interval
    alpha: Fraction
    count: int
    subsampled: bool

    @property
    def length(self) -> int:
        return self.witness.length


def _cmp_ratio_vs(count: int, length: int, alpha: Fraction, target: Fraction) -> int:
    """Exact sign of count/length**alpha - target for small alpha denominators."""
    if exact_feasible(length, alpha):
        return cmp_ratio(count * target.denominator, length, target.numerator, 1, alpha)
    lo, hi = pow_bracket(length, alpha, 60)
    if Fraction(count) / lo < target:
        return -1
    if Fraction(count) / hi > target:
        return 1
    return 0


def ratio_le_half_step(
    prev_count: int, prev_len: int, next_count: int, next_len: int, alpha: Fraction
) -> bool:
    """Whether next_count/next_len**a <= prev_count/(2*prev_len**a) + 1/2.

    Bracket refinement; equality (attainable) counts as holding.
    """
    for digits in (40, 80, 160):
        plo, phi = pow_bracket(prev_len, alpha, digits)
        nlo, nhi = pow_bracket(next_len, alpha, digits)
        lhs_lo, lhs_hi = Fraction(next_count) / nhi, Fraction(next_count) / nlo
        rhs_lo = Fraction(prev_count, 2) / phi + Fraction(1, 2)
        rhs_hi = Fraction(prev_count, 2) / plo + Fraction(1, 2)
        if lhs_hi <= rhs_lo:
            return True
        if lhs_lo > rhs_hi:
            return False
    return lhs_lo <= rhs_hi + Fraction(1, 10**150)


def sup_ratio(F: IntegerSet, I: Interval, alpha, min_length: int = 1) -> SupRatio:
    """Exact max of count/length**alpha over element-aligned J inside I.

    Exact for up to _SUP_CAP elements in the restriction; beyond that the
    scan falls back to a deterministic stride (flagged subsampled), so
    the result is a certified lower bound only.
    """
    a = Fraction(alpha)
    R = F.restrict(I)
    if len(R) == 0:
        raise ValueError(f"no elements of the set inside {I}")
    schedule = ScanSchedule(budget=_SUP_CAP * (_SUP_CAP + 1) // 2, min_length=min_length)
    (count, length, xi, xj), _, sub = _ratio_scan(R, a, schedule, min_count=1)
    return SupRatio(
        _ratio_to_fraction(count, length, a, digits=50),
        Interval(xi - 1, xj),
        a,
        count,
        sub,
    )


@dataclass(frozen=True)
class ThinningTrace:
    initial: SupRatio
    steps: tuple[tuple[int, SupRatio], ...]
    final_set: IntegerSet
    stalled: bool

    @property
    def final_s(self) -> SupRatio:
        return self.steps[-1][1] if self.steps else self.initial


def _dyadic_once(xs: np.ndarray) -> np.ndarray:
    """Keep the first element, every second interior one, and the last."""
    k = len(xs)
    if k <= 2:
        return xs
    # 0-based: the first, the odd positions before the last, and the last
    kept = np.append(np.arange(-1, k - 1, 2), k - 1)
    kept[0] = 0
    return xs[kept]


def dyadic_thin(F: IntegerSet, I: Interval, alpha) -> ThinningTrace:
    """Thin F inside I until 1/2 < s <= 2.

    Each pass keeps the first, last, and every second interior element.
    A pass at least nearly halves s (s' <= s/2 + 1/2, asserted), so the
    number of passes is at most ceil(log2 s) + 1.  The sup always
    admits the single-cell witness, so s never drops to 1/2 or below.
    """
    a = Fraction(alpha)
    current = F.restrict(I)
    s = sup_ratio(current, I, a)
    initial = s
    steps: list[tuple[int, SupRatio]] = []
    stalled = False
    while _cmp_ratio_vs(s.count, s.length, a, Fraction(2)) > 0:
        thinned = _dyadic_once(current._array())
        if len(thinned) == len(current):
            # fewer than four points and a tiny alpha: the rule is the
            # identity here and s cannot shrink further
            stalled = True
            break
        current = IntegerSet.from_sorted_array(thinned, f"thin({F.provenance})")
        prev = s
        s = sup_ratio(current, I, a)
        assert ratio_le_half_step(prev.count, prev.length, s.count, s.length, a)
        steps.append((len(current), s))
        assert len(steps) <= 200, "thinning failed to terminate"
    return ThinningTrace(initial, tuple(steps), current, stalled)


@dataclass(frozen=True)
class ExtractedSubset:
    subset: IntegerSet
    traces: tuple[ThinningTrace, ...]
    witnesses: tuple[Interval, ...]
    exhausted: bool


def extract_regular_subset(E: IntegerSet, alpha, n_blocks: int) -> ExtractedSubset:
    """Stitch thinned blocks with prescribed separation.

    Block n takes the best sup-ratio witness of length >= n in the
    unexplored tail, thins it into s in (1/2, 2], then jumps ahead by
    length**(1/alpha) before searching again.  Runs until n_blocks
    blocks exist or the truncation is exhausted (flagged).
    """
    a = Fraction(alpha)
    if not 0 < a <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    if n_blocks < 1:
        raise ValueError("n_blocks must be >= 1")
    if len(E) == 0:
        raise ValueError("empty set")
    hull = E.hull()
    cursor, top = hull.lo, hull.hi
    blocks: list[IntegerSet] = []
    traces: list[ThinningTrace] = []
    witnesses: list[Interval] = []
    exhausted = False
    for n in range(1, n_blocks + 1):
        if cursor >= top:
            exhausted = True
            break
        tail = Interval(cursor, top)
        try:
            w = sup_ratio(E, tail, a, min_length=n)
        except (ValueError, DegenerateSetError):
            exhausted = True
            break
        trace = dyadic_thin(E, w.witness, a)
        blocks.append(trace.final_set)
        traces.append(trace)
        witnesses.append(w.witness)
        # separation: next block starts at least length**(1/alpha) further on
        gap = ceil_pow(w.witness.length, a.denominator, a.numerator)
        cursor = w.witness.hi + gap
    subset = IntegerSet.from_sorted_array(
        np.concatenate([blk._array() for blk in blocks] or [np.empty(0, np.int64)]),
        f"regular-subset({_short(E.provenance, 60)}, alpha={a}, blocks={len(blocks)}"
        + (", truncation-exhausted)" if exhausted else ")"),
    )
    return ExtractedSubset(subset, tuple(traces), tuple(witnesses), exhausted)


# ---------------------------------------------------------------------------
# ladder diagnostics


@dataclass(frozen=True)
class LadderRung:
    scale: int
    witness: Optional[Interval]
    count: int
    ratio: float
    ok: bool


# a ladder over more than _STRIDE_ABOVE elements scans every
# (n // _STRIDE_TARGET)-th element only; its rung counts are then counts
# of the strided array, not of the set
_STRIDE_ABOVE = 400_000
_STRIDE_TARGET = 200_000
_LADDER_BLOCK = 1 << 16  # starts a rung weighs per block


def _ladder_scales(top: int) -> list[int]:
    """The rungs 4, 8, 16, ... up to top, or [top] when 4 > top."""
    if top < 1:
        raise ValueError(f"the top ladder scale must be >= 1, got {top}")
    scales = []
    s = 4
    while s <= top:
        scales.append(s)
        s *= 2
    return scales or [top]


def _ladder(
    E: IntegerSet, top: int, alpha_f: float
) -> list[tuple[int, Optional[tuple[int, int, int, int]]]]:
    """Each rung's scale with its best (count, length, lo, hi), length in
    [scale, 2*scale), or None when no window of that length exists.

    For each start it weighs the longest window ending at most at
    start + 2*scale - 1 and the shortest one of length at least scale,
    keeping windows of length below 2*scale.  The rung 2*scale looks for
    its shortest windows at the target where rung scale's longest end,
    so one binary search per rung serves both: they differ only when an
    element sits exactly at the target.

    A rung reads its targets, searches and lengths from offsets, not
    from the elements.  Its windows are shorter than 2*scale, so they
    cross no gap of 2*scale or more, and offsets whose gaps are capped
    at min(gap, 2*scale) give the same indices, the same kept windows
    and the same lengths below 2*scale as the elements.  A rung whose
    span plus 4*scale stays below _INT64_LIMIT runs on the int64 offsets
    xs - xs[0], made once; another runs on its own capped int64 offsets
    when their total plus 4*scale stays below it too, and on xs - xs[0]
    in Python ints otherwise.  Witness endpoints come from the elements.

    A rung weighs the starts _LADDER_BLOCK at a time, so besides the
    offsets only the shortest-window indices span the set: each block
    overwrites its own with the next rung's.  The first largest ratio
    wins, within each kind of window and then longest over shortest.
    """
    scales = _ladder_scales(top)
    xs = E._array()
    n = len(xs)
    if n == 0:
        return [(s, None) for s in scales]
    if n > _STRIDE_ABOVE:
        # contiguous, so that searchsorted does not copy it on every call
        xs = np.ascontiguousarray(xs[:: n // _STRIDE_TARGET])
        n = len(xs)
    span = int(xs[-1]) - int(xs[0])
    whole = gaps = wide = lo_idx = None
    rungs: list[tuple[int, Optional[tuple[int, int, int, int]]]] = []
    for scale in scales:
        cap = 2 * scale
        if span + 2 * cap < _INT64_LIMIT:
            if whole is None:
                whole = (xs - xs[0]).astype(np.int64, copy=False)
            offs = whole
        else:
            if gaps is None:
                gaps = np.minimum(np.diff(xs), _INT64_LIMIT).astype(np.int64)
            # every gap is at most _INT64_LIMIT, so the int64 sums cannot
            # jump over [2**63, 2**64): a sum that wraps leaves a negative
            offs = np.zeros(n, dtype=np.int64)
            np.cumsum(np.minimum(gaps, min(cap, _INT64_LIMIT)), out=offs[1:])
            if offs.min() < 0 or int(offs[-1]) + 2 * cap >= _INT64_LIMIT:
                if wide is None:
                    wide = xs.astype(object) - int(xs[0])
                offs = wide
        if lo_idx is None:
            lo_idx = np.searchsorted(offs, offs + (scales[0] - 1), side="left")
        found: list[Optional[tuple[float, int, int]]] = [None, None]
        for a in range(0, n, _LADDER_BLOCK):
            o = offs[a : a + _LADDER_BLOCK]
            lo_blk = lo_idx[a : a + len(o)]
            target = o + (cap - 1)
            hi_blk = np.searchsorted(offs, target, side="right") - 1
            for k, j_idx in enumerate((hi_blk, lo_blk)):
                found[k] = _first_best(found[k], _best_window(offs, a, j_idx, scale, alpha_f))
            # hi_blk >= start, so the gather stays in range
            lo_blk[:] = hi_blk + (offs[hi_blk] != target)
        best = _first_best(*found)
        if best is None:
            rungs.append((scale, None))
        else:
            _, i, j = best
            lo, hi = int(xs[i]), int(xs[j])
            rungs.append((scale, (j - i + 1, hi - lo + 1, lo, hi)))
    return rungs


def _first_best(x, y):
    """Whichever of two (ratio, ...) tuples or None has the larger ratio, x on a tie."""
    return y if y is not None and (x is None or y[0] > x[0]) else x


def _best_window(
    offs: np.ndarray, a: int, j_idx: np.ndarray, scale: int, alpha_f: float
) -> Optional[tuple[float, int, int]]:
    """(ratio, start, end) of the best window from the starts a, a+1, ...
    to the ends j_idx, length in [scale, 2*scale), or None when none is.

    An end at len(offs) stands for no window; the first largest ratio wins.
    """
    n = len(offs)
    valid = j_idx < n
    j = np.where(valid, j_idx, n - 1)
    counts = (j - np.arange(a, a + len(j)) + 1).astype(np.float64)
    lengths = offs[j] - offs[a : a + len(j)] + 1
    ok = valid & (lengths >= scale) & (lengths < 2 * scale)
    if not ok.any():
        return None
    r = np.where(ok, counts * _as_float(lengths) ** (-alpha_f), -1.0)
    i = int(r.argmax())
    return float(r[i]), a + i, int(j[i])


def _length_pow(length: int, alpha: float) -> float:
    """length**alpha for a window length.

    A length that float() cannot hold (it rounds to 2**1024 or more)
    counts as inf, as in the window scans.
    """
    try:
        return length**alpha
    except OverflowError:
        return math.inf**alpha


def _rung_ratio(count: int, length: int, alpha: float) -> float:
    """count * length**-alpha of a ladder rung."""
    return count * _length_pow(length, -alpha)


@dataclass(frozen=True)
class RegularityReport:
    dimension: DimensionEstimate
    measure: MeasureEstimate
    ladder: tuple[LadderRung, ...]
    trend: str  # "bounded" or "growing"

    def __bool__(self) -> bool:
        return self.trend == "bounded"


def regularity_diagnostic(
    E: IntegerSet, schedule: ScanSchedule = ScanSchedule()
) -> RegularityReport:
    """Scan the alpha-measure ratio at the set's own dimension estimate
    across geometric length scales.

    Bounded ratios across the ladder are the truncation-scale signal of
    regularity (the measure at the critical exponent stays finite);
    ratios that keep climbing get flagged "growing".
    """
    dim = dimension_estimate(E, schedule)
    a = dim.alpha_hat
    af = float(a)
    rungs: list[LadderRung] = []
    best: Optional[tuple[int, int, int, int]] = None
    best_r = -1.0
    for scale, got in _ladder(E, E.hull().length, af):
        if got is None:
            rungs.append(LadderRung(scale, None, 0, 0.0, False))
            continue
        count, length, lo, hi = got
        r = _rung_ratio(count, length, af)
        rungs.append(LadderRung(scale, Interval(lo - 1, hi), count, r, True))
        if r > best_r:
            best_r = r
            best = got
    assert best is not None
    count, length, lo, hi = best
    measure = MeasureEstimate(
        _ratio_to_fraction(count, length, a),
        a,
        Interval(lo - 1, hi),
        count,
        0,
        False,
    )
    trend = _trend([r.ratio for r in rungs if r.ok])
    return RegularityReport(dim, measure, rungs, trend)


def _trend(ratios: list[float]) -> str:
    if len(ratios) < 4:
        return "bounded"
    half = len(ratios) // 2
    xs = np.arange(len(ratios), dtype=np.float64)[half:]
    ys = np.log(np.maximum(ratios, 1e-300))[half:]
    slope = float(np.polyfit(xs, ys, 1)[0])
    return "growing" if slope > 0.05 else "bounded"


@dataclass(frozen=True)
class CompatRung:
    scale: int
    window_a: Optional[Interval]
    count_a: int
    window_b: Optional[Interval]
    count_b: int
    ok: bool


@dataclass(frozen=True)
class CompatibilityReport:
    rungs: tuple[CompatRung, ...]
    alpha_a: float
    alpha_b: float
    ratio_band: Fraction
    c_min: Fraction

    def __bool__(self) -> bool:
        return all(r.ok for r in self.rungs)

    @property
    def witnesses(self) -> list[CompatRung]:
        return [r for r in self.rungs if r.ok]


def compatibility_check(
    E: IntegerSet,
    F: IntegerSet,
    ratio_band=Fraction(4),
    c_min=Fraction(1, 2),
    max_scale: Optional[int] = None,
) -> CompatibilityReport:
    """Hunt for comparable-length interval pairs where both sets meet
    their dimension-driven counting rate.

    Per geometric rung, the best window of that length scale is taken
    for each set; the rung passes when both counts reach
    c_min * length**dimension and the two lengths stay within the band.
    """
    band = Fraction(ratio_band)
    c = Fraction(c_min)
    if band < 1 or c <= 0:
        raise ValueError("ratio_band must be >= 1 and c_min positive")
    da = float(dimension_estimate(E).alpha_hat)
    db = float(dimension_estimate(F).alpha_hat)
    top = min(E.hull().length, F.hull().length) if max_scale is None else max_scale
    rungs: list[CompatRung] = []
    for (scale, ga), (_, gb) in zip(_ladder(E, top, da), _ladder(F, top, db)):
        ok = False
        wa = wb = None
        ca = cb = 0
        if ga is not None and gb is not None:
            ca, la, alo, ahi = ga
            cb, lb, blo, bhi = gb
            wa = Interval(alo - 1, ahi)
            wb = Interval(blo - 1, bhi)
            lengths_ok = la * band.denominator <= lb * band.numerator and (
                lb * band.denominator <= la * band.numerator
            )
            ok = (
                lengths_ok
                and ca >= float(c) * _length_pow(la, da) - 1e-9
                and cb >= float(c) * _length_pow(lb, db) - 1e-9
            )
        rungs.append(CompatRung(scale, wa, ca, wb, cb, ok))
    return CompatibilityReport(tuple(rungs), da, db, band, c)


@dataclass(frozen=True)
class UniversalityReport:
    rungs: tuple[LadderRung, ...]
    alpha: float
    c_min: Fraction

    def __bool__(self) -> bool:
        return all(r.ok for r in self.rungs)


def universality_check(
    E: IntegerSet, c_min=Fraction(1, 2), max_scale: Optional[int] = None
) -> UniversalityReport:
    """Check the dimension-driven counting rate at every length scale.

    A rung passes when some window of that scale holds at least
    c_min * length**dimension elements; passing every rung is the
    truncation-scale universality signal.
    """
    c = Fraction(c_min)
    da = float(dimension_estimate(E).alpha_hat)
    rungs: list[LadderRung] = []
    top = E.hull().length if max_scale is None else max_scale
    for scale, got in _ladder(E, top, da):
        if got is None:
            rungs.append(LadderRung(scale, None, 0, 0.0, False))
            continue
        count, length, lo, hi = got
        r = _rung_ratio(count, length, da)
        rungs.append(
            LadderRung(scale, Interval(lo - 1, hi), count, r, r >= float(c) - 1e-9)
        )
    return UniversalityReport(tuple(rungs), da, c)
