"""Counting dimension, alpha-measure, and density estimators.

Small-case values are checked against a brute-force scan over every
element-aligned interval, keeping the fast path honest.
"""

import math
import tracemalloc
from fractions import Fraction as Fr
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from zdim import measures
from zdim.exact import ratio_value
from zdim.intset import IntegerSet, Interval
from zdim.measures import (
    DegenerateSetError,
    ScanSchedule,
    _as_float,
    _window_scan,
    alpha_measure_estimate,
    density_estimate,
    dimension_estimate,
    monotonicity_check,
)
from zdim.regularity import _ladder, sup_ratio


def brute_dimension(E, min_length=2):
    xs = E.elements
    best = 0.0
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            c, l = j - i + 1, xs[j] - xs[i] + 1
            if l >= min_length:
                best = max(best, math.log(c) / math.log(l))
    return best


def brute_measure(E, alpha, min_length=2):
    xs = E.elements
    best = 0.0
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            c, l = j - i + 1, xs[j] - xs[i] + 1
            if l >= min_length:
                best = max(best, c / l**alpha)
    return best


def test_squares_dimension_is_half():
    E = IntegerSet([n * n for n in range(1, 101)], "squares")
    d = dimension_estimate(E)
    assert d.alpha_hat == Fr(1, 2)  # witness (0,4]: 2 points in length 4
    assert d.witness == Interval(0, 4)


def test_squares_half_measure_is_one():
    E = IntegerSet([n * n for n in range(1, 101)], "squares")
    m = alpha_measure_estimate(E, Fr(1, 2))
    assert m.value == 1


def test_dimension_matches_brute_force():
    E = IntegerSet([1, 2, 3, 10, 100, 101, 102, 103, 500], "mixed")
    d = dimension_estimate(E)
    assert abs(d.alpha_float - brute_dimension(E)) < 1e-12


def test_measure_matches_brute_force():
    E = IntegerSet([1, 4, 6, 7, 30, 33, 900], "mixed2")
    for alpha in (Fr(1, 3), Fr(1, 2), Fr(2, 3), Fr(1)):
        m = alpha_measure_estimate(E, alpha)
        assert abs(float(m.value) - brute_measure(E, float(alpha))) < 1e-9


def test_density_of_evens():
    E = IntegerSet(range(0, 200, 2), "evens")
    d = density_estimate(E)
    # two adjacent evens in a window of length 3 beat the global 1/2
    assert d.value == Fr(2, 3)


def test_density_full_interval_is_one():
    E = IntegerSet(range(50), "block")
    assert density_estimate(E).value == 1


def test_alpha_zero_counts_elements():
    E = IntegerSet([3, 7, 20], "three")
    m = alpha_measure_estimate(E, 0)
    assert m.value == 3


def test_empty_and_singleton_conventions():
    assert density_estimate(IntegerSet([], "e")).value == 0
    m = alpha_measure_estimate(IntegerSet([5], "s"), Fr(1, 2))
    assert m.value == 1
    assert m.witness == Interval(4, 5)
    with pytest.raises(DegenerateSetError):
        dimension_estimate(IntegerSet([5], "s"))


def test_alpha_range_validated():
    E = IntegerSet([1, 2], "t")
    with pytest.raises(ValueError):
        alpha_measure_estimate(E, Fr(3, 2))
    with pytest.raises(ValueError):
        alpha_measure_estimate(E, -1)


def test_min_length_filters_trivial_runs():
    # a tight pair pins the plain estimate at 1; longer witnesses are sparser
    E = IntegerSet([10, 11] + [100 * k for k in range(1, 60)], "clump")
    plain = dimension_estimate(E)
    assert plain.alpha_hat == 1
    filtered = dimension_estimate(E, ScanSchedule(min_length=50))
    assert filtered.alpha_float < 0.75
    assert filtered.witness.length >= 50


def test_budget_subsampling_flags_and_bounds():
    E = IntegerSet(range(1, 5001), "big-block")
    d = dimension_estimate(E, ScanSchedule(budget=1000))
    assert d.subsampled
    assert d.alpha_hat == 1  # endpoints kept, full block still found


def test_monotone_under_inclusion():
    F = IntegerSet([n * n for n in range(1, 200)], "sq")
    E = IntegerSet([n * n for n in range(1, 200, 3)], "sub")
    assert monotonicity_check(E, F)
    with pytest.raises(ValueError, match="not a subset"):
        monotonicity_check(IntegerSet([7], "x"), IntegerSet([8], "y"))


def test_schedule_validation():
    with pytest.raises(ValueError):
        ScanSchedule(budget=0)
    with pytest.raises(ValueError):
        ScanSchedule(min_length=0)


_SHIFT = 10**30  # moves every element beyond int64, onto the object-array path


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.one_of(st.integers(-40, 40), st.integers(-5000, 5000)),
        min_size=2,
        max_size=40,
        unique=True,
    ),
    st.sampled_from([1, 2, 5, 30]),
    st.sampled_from([Fr(0), Fr(1, 3), Fr(1, 2), Fr(1)]),
)
def test_bigint_path_agrees_with_numpy(xs, min_length, alpha):
    small = IntegerSet(xs, "sm")
    big = small.shift(_SHIFT)
    schedule = ScanSchedule(min_length=min_length)

    def agree(estimate, value):
        """estimate's result on small (None if degenerate), checked against big."""
        out = []
        for E in (small, big):
            try:
                out.append(estimate(E))
            except DegenerateSetError:
                out.append(None)
        a, b = out
        if a is None:
            assert b is None
            return None
        assert (value(b), b.count, b.length) == (value(a), a.count, a.length)
        assert b.witness == Interval(a.witness.lo + _SHIFT, a.witness.hi + _SHIFT)
        return value(a)

    d = agree(lambda E: dimension_estimate(E, schedule), lambda r: r.alpha_hat)
    brute = brute_dimension(small, min_length)
    assert (brute == 0.0) if d is None else abs(float(d) - brute) < 1e-11
    for a, estimate in (
        (alpha, lambda E: alpha_measure_estimate(E, alpha, schedule)),
        (1, lambda E: density_estimate(E, schedule)),
    ):
        m = agree(estimate, lambda r: r.value)
        brute = brute_measure(small, float(a), min_length)
        assert (brute == 0.0) if m is None else abs(float(m) - brute) <= 1e-9 * brute
    agree(lambda E: sup_ratio(E, E.hull(), alpha, min_length=min_length), lambda r: r.value)

    top = 2 * small.hull().length
    ladders = zip(_ladder(small, top, float(alpha)), _ladder(big, top, float(alpha)))
    for (scale, a), (scale_big, b) in ladders:
        assert scale_big == scale
        if a is None:
            assert b is None
        else:
            count, length, lo, hi = a
            assert scale <= length < 2 * scale
            assert b == (count, length, lo + _SHIFT, hi + _SHIFT)


def test_lengths_beyond_float_range():
    # the long windows have lengths near 10**400, beyond float64
    E = IntegerSet([0, 1, 10**400, 10**400 + 5], "huge")
    d = dimension_estimate(E)
    assert d.alpha_hat == 1 and d.witness == Interval(-1, 1)
    m = alpha_measure_estimate(E, Fr(1, 2))
    assert (m.count, m.witness) == (2, Interval(-1, 1))
    assert m.value == ratio_value(2, 2, Fr(1, 2))


def row_scan(xs, pos, score, near, min_count, min_length, cap):
    """The row-by-row window scan: every pair (i, j) of one row scored at
    once, the best of each row kept, then the qualifying rows rescanned in
    row-major order for the windows scoring at least near(best)."""
    idx = np.asarray(pos, dtype=np.int64)
    vals = xs[idx]
    rows = len(idx)

    def row(a):
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
    cands = []
    for a in np.nonzero(row_best >= thr)[0]:
        counts, r = row(a)
        xi = int(vals[a])
        for b in np.nonzero(r >= thr)[0]:
            xj = int(vals[a + b])
            cands.append((int(counts[b]), xj - xi + 1, xi, xj))
            if len(cands) >= cap:
                return cands, pairs
    return cands, pairs


def as_tuples(scan):
    """_window_scan's (candidate arrays, pairs) as row_scan's (tuples, pairs)."""
    cands, pairs = scan
    assert cands[0].dtype == np.int64 and all(a.dtype == cands[1].dtype for a in cands[2:])
    return list(zip(*(a.tolist() for a in cands))), pairs


def _objective(alpha):
    """The (score, near) pair of dimension_estimate (alpha None) or of the
    count / length**alpha scans."""
    if alpha is None:
        return lambda c, l: np.log(c) / np.log(np.maximum(l, 2.0)), lambda b: b - 1e-12
    af = float(alpha)
    return lambda c, l: c * l ** (-af), lambda b: b - abs(b) * 1e-9


_BIG = 10**12  # gaps this wide put window lengths past 10**9

# object sets wider than 2**62: gaps within a few units of 2**62, 2**63 and
# 2**64; powers of two up to 2**200, whose longest windows win at small
# alpha, so a diagonal left to the exact pass must be rescanned; and values
# near 10**400, where the float offsets overflow
_WIDE = st.one_of(
    st.lists(
        st.tuples(st.integers(0, 4), st.sampled_from([2**62, 2**63, 2**64]), st.integers(-3, 3)),
        min_size=1,
        max_size=30,
    ).map(lambda ps: sorted({k * g + r for k, g, r in ps})),
    st.lists(
        st.tuples(st.integers(0, 200), st.integers(0, 3)), min_size=1, max_size=30
    ).map(lambda ps: sorted({2**k + r for k, r in ps})),
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(-3, 3)), min_size=1, max_size=20
    ).map(lambda ps: sorted({k * 10**400 + r for k, r in ps})),
)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.lists(st.integers(-5000, 5000), min_size=1, max_size=40, unique=True),
        st.lists(st.integers(-150, 150), min_size=1, max_size=40, unique=True),
        st.lists(st.integers(-20, 20), min_size=1, max_size=13, unique=True),
        # runs of near-equal long gaps: ties and lengths within float rounding
        st.lists(
            st.tuples(st.integers(0, 12), st.sampled_from([0, 1, 2, 1000, _BIG // 10**9])),
            min_size=1,
            max_size=30,
        ).map(lambda ps: sorted({k * _BIG + r for k, r in ps})),
        _WIDE,
    ),
    st.booleans(),
    st.integers(1, 12),
    st.booleans(),
    st.sampled_from([1, 2]),
    st.sampled_from([1, 2, 5, 30]),
    st.sampled_from([None, Fr(0), Fr(1, 10**9), Fr(1, 3), Fr(1, 2), Fr(1)]),
    st.integers(1, 7),
)
# density ties 3/9 and 2/6, the latter on a diagonal whose shortest window
# (length 4) is below min_length
@example([2, 5, 10], False, 1, False, 1, 5, Fr(1), 3)
# every window of diagonal 1 may pass 2**62: its least gap is unknown in the
# first pass and must not score as a window of length 1
@example([0, 2**63, 2**64], False, 1, False, 1, 1, Fr(1), 1)
# the least gap of diagonal 1 lies below 2**62, but its float-rounding band
# reaches the flagged window 2**62 + 5
@example([0, 2**62 - 2**20, 2**63 - 2**20 + 5], False, 1, False, 2, 2, None, 2)
# offset spans just below, at and above 2**30, where the blocks of
# diagonals leave int32: their pads must stay above every gap
@example([0, 1, 2**29, 2**30 - 2, 2**30 - 1], False, 1, False, 1, 2, Fr(1, 2), 2)
@example([0, 3, 2**29 + 1, 2**30], False, 1, False, 2, 2, None, 3)
@example([0, 2, 2**30 - 7, 2**30 + 1], False, 1, True, 1, 30, Fr(1), 5)
# diagonals 1 to 7 hold fewer than min_length elements and every one of
# their windows is too short, so no pad may pass for a gap of theirs
@example([0, 1, 2, 3, 4, 5, 6, 7, 30], False, 1, False, 1, 30, Fr(1), 4)
@example(list(range(10)), False, 1, False, 1, 30, Fr(1), 7)
# int64 gaps of about 2 * 10**10, past the dimension's float-rounding band
# (about 1.8 * 10**10): those diagonals are scored one at a time
@example([0, 2 * 10**10, 4 * 10**10 + 1, 6 * 10**10 + 3, 6 * 10**10 + 4], False, 1, False, 2,
         2, None, 2)
def test_window_scan_matches_row_scan(xs, big, step, append, min_count, min_length, alpha, block):
    E = IntegerSet(xs, "w")
    if big:
        E = E.shift(_SHIFT)
    arr = E._array()
    n = len(arr)
    pos = list(range(0, n, min(step, max(1, n - 1))))
    if append and pos[-1] != n - 1:
        pos.append(n - 1)
    score, near = _objective(alpha)
    args = (arr, pos, score, near, min_count, min_length)
    oracle = row_scan(*args, cap=measures._MAX_CANDIDATES)
    assert as_tuples(_window_scan(*args)) == oracle
    with mock.patch.object(measures, "_MAX_CANDIDATES", 3):
        assert as_tuples(_window_scan(*args)) == (oracle[0][:3], oracle[1])
    # blocks of 1 to 7 entries: a set crosses many blocks, the last ones
    # holding several short diagonals and their pads
    with mock.patch.object(measures, "_SCAN_BLOCK", block):
        assert as_tuples(_window_scan(*args)) == oracle


def test_wide_band_reaching_flagged_windows_is_deferred():
    # diagonal 1 has gaps 2**62 - 2**16, below 2**62, and 2**62 + 2**10,
    # flagged; the second lies within the first's float-rounding band (about
    # 2**19 at alpha 1), which passes floor = 2**62 - 2**14 + 1.  A score
    # lifted by 2**-40 from length 2**62 on rises inside that band, so the
    # flagged window is the best one, and a first pass that trusted the
    # unflagged gap alone would miss it and pick diagonal 2 instead
    xs = np.array([0, 2**62 - 2**16, 2**63 - 2**16 + 2**10], dtype=object)

    def score(c, l):
        return c / l * np.where(l >= 2.0**62, 1 + 2.0**-40, 1.0)

    args = (xs, [0, 1, 2], score, lambda b: b, 2, 1)
    oracle = row_scan(*args, cap=measures._MAX_CANDIDATES)
    assert oracle == ([(2, 2**62 + 2**10 + 1, 2**62 - 2**16, 2**63 - 2**16 + 2**10)], 6)
    assert as_tuples(_window_scan(*args)) == oracle


def test_all_ties_stop_early():
    # every window of a block ties at density 1 and dimension 1; the
    # candidate pass stops at the cap instead of collecting 1.25e7 ties
    E = IntegerSet(range(10_000), "block")
    tracemalloc.start()
    try:
        d = density_estimate(E)
        a0 = alpha_measure_estimate(E, 0)
        dim = dimension_estimate(E)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (d.value, d.witness, d.count, d.pairs_scanned) == (1, Interval(-1, 2), 3, 12_507_501)
    assert (a0.value, a0.witness, a0.pairs_scanned) == (10_000, Interval(-1, 9999), 12_507_501)
    assert (dim.alpha_hat, dim.witness, dim.pairs_scanned) == (1, Interval(-1, 2), 12_507_501)
    assert d.subsampled and a0.subsampled and dim.subsampled
    assert peak < 64 * 2**20


def test_long_jittered_gaps_stay_small():
    # gaps near k * 10**15 with distinct jitter below 10**6: on most diagonals
    # most gaps lie within float rounding of the least for the dimension and
    # for a tiny alpha, so the first pass scores nearly whole diagonals and
    # must not hold them all at once
    rng = np.random.default_rng(1)
    xs = np.arange(2000, dtype=np.int64) * 10**15 + rng.integers(0, 10**6, 2000)
    for alpha in (None, Fr(1, 10**9), Fr(1)):
        args = (xs, list(range(len(xs))), *_objective(alpha), 2, 2)
        tracemalloc.start()
        try:
            got = _window_scan(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert as_tuples(got) == row_scan(*args, cap=measures._MAX_CANDIDATES)
        assert peak < 16 * 2**20


@pytest.mark.parametrize("span, dtype", [(10**9, np.int32), (10**12, np.int64)])
@pytest.mark.parametrize("min_length", [2, 10**6])
def test_least_gaps_peak_within_one_block(span, dtype, min_length):
    # 4000 rows, about 8 * 10**6 gaps: the first pass holds one block
    # buffer of _SCAN_BLOCK entries and arrays of a few entries per row,
    # never a second block's worth; numpy's ufunc iterator adds its own
    # buffers of np.getbufsize() entries, at most one per operand of the
    # shorter diagonals' subtraction.  min_length 10**6 makes diagonals
    # short and drops some of their windows
    rng = np.random.default_rng(2)
    off = np.unique(rng.integers(1, span, 4000))
    off[0] = 0
    itemsize = np.dtype(dtype).itemsize
    buffer = measures._SCAN_BLOCK * itemsize
    tracemalloc.start()
    try:
        g = measures._least_gaps(off, 1, 1, min_length)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ufunc = 3 * np.getbufsize() * itemsize
    assert buffer < peak <= buffer + ufunc + 40 * len(off), (peak, buffer)
    # the row-by-row least gaps
    for d in range(1, len(off), 397):
        gaps = off[d:] - off[: len(off) - d]
        gaps = gaps[gaps + 1 >= min_length]
        assert g[d] == (gaps.min() if len(gaps) else -1)


def fold_oracle(cands):
    """The dimension pick over candidate tuples in row-major order: a ratio
    more than 1e-12 above the best so far takes over, and one within 1e-12
    of it takes over when its (length, start) is less."""
    best = cands[0]
    best_r = math.log(best[0]) / math.log(best[1])
    for cand in cands[1:]:
        r = math.log(cand[0]) / math.log(cand[1])
        if r > best_r + 1e-12 or (
            abs(r - best_r) <= 1e-12 and (cand[1], cand[2]) < (best[1], best[2])
        ):
            best, best_r = cand, max(r, best_r)
    return best


# two candidates: (0, L - 1] holds 3 elements and scores best, the shorter
# (L - 10**30, L - 1] holds 2 and scores just more than 1e-12 below it yet
# within the scan's near-tie threshold, so the pick must keep the longer one
_L = 353895480888091612097155443644316720523202527231
_STRADDLE = [0, _L - 10**30, _L - 1]


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        st.lists(st.integers(-5000, 5000), min_size=2, max_size=40, unique=True),
        st.lists(st.integers(-30, 30), min_size=2, max_size=30, unique=True),
        # runs of consecutive integers: every window of a run scores exactly 1
        st.lists(st.tuples(st.integers(-200, 200), st.integers(1, 80)), min_size=1, max_size=4)
        .map(lambda runs: sorted({a + k for a, n in runs for k in range(n)}))
        .filter(lambda xs: len(xs) >= 2),
    ),
    st.sampled_from([0, 2**70]),
    st.sampled_from([1, 2, 5, 30]),
    st.sampled_from([50_000_000, 300]),  # 300: scanned on a stride
)
@example(_STRADDLE, 0, 2, 50_000_000)
# lengths beyond float range score 0 in the scan, so every window is a candidate
@example([0, 10**400, 3 * 10**400], 0, 2, 50_000_000)
def test_dimension_pick_matches_fold(xs, shift, min_length, budget):
    E = IntegerSet(xs, "d").shift(shift)
    arr, pos, _ = measures._scan_array(E, budget)
    cands, _ = row_scan(
        arr, pos, *_objective(None), 2, max(2, min_length), cap=measures._MAX_CANDIDATES
    )
    try:
        d = dimension_estimate(E, ScanSchedule(budget=budget, min_length=min_length))
    except DegenerateSetError:
        assert not cands
        return
    count, length, xi, xj = fold_oracle(cands)
    assert (d.count, d.length, d.witness) == (count, length, Interval(xi - 1, xj))
