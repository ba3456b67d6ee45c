"""Collision windows, exact double counting, and dimension sweeps.

pair_window and delta_exact both get brute-force cross-checks on small
random instances; the two delta routes must agree exactly, always, and
each equals the pure-Python oracle below.
"""

import math
import random
import tracemalloc
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import zdim.arithmetic as arithmetic
import zdim.marstrand as marstrand
from zdim.intset import IntegerSet, Interval
from zdim.marstrand import (
    LambdaWindow,
    collision_stats,
    delta_exact,
    multi_sweep,
    pair_window,
    sweep,
)
from zdim.arithmetic import SizeGuardError, sum_scaled


def brute_delta(E, F, window, grid=40_000):
    """Riemann-style count of ordered collisions on a fine lambda grid.

    Not exact (used only as a sanity corridor); exactness is checked
    by the quadrature route inside delta_exact itself.
    """
    total = Fr(0)
    width = window.hi - window.lo
    for k in range(grid):
        lam = window.lo + width * Fr(2 * k + 1, 2 * grid)
        hist: dict[int, int] = {}
        for a in E.elements:
            for b in F.elements:
                v = a + (b * lam.numerator) // lam.denominator
                hist[v] = hist.get(v, 0) + 1
        total += sum(c * c for c in hist.values())
    return float(total) / grid * float(width)


def oracle_delta(E, F, window):
    """Delta by a per-breakpoint walk and a Fraction quadrature.

    Returns (exact, quadrature, positive pairs, breakpoints) as
    delta_exact reports them.  Route one walks the sorted breakpoints of
    each slope pair one piece at a time and weights piece lengths by the
    number of differences a' - a equal to the floor gap; route two
    integrates the collision energy between the sorted events k/|b|,
    updating a dict histogram one element at a time.
    """
    lo, hi = window.lo, window.hi
    diffs = {}
    for a in E.elements:
        for a2 in E.elements:
            diffs[a2 - a] = diffs.get(a2 - a, 0) + 1
    pairs = len(E) * len(F)
    total = Fr(pairs) * window.measure
    positive = pairs
    breakpoints = 0
    fvals = F.elements
    for i in range(len(fvals)):
        for j in range(i + 1, len(fvals)):
            b2, b = fvals[i], fvals[j]
            grid = math.lcm(abs(b) or 1, abs(b2) or 1, lo.denominator, hi.denominator)
            nlo = lo.numerator * (grid // lo.denominator)
            nhi = hi.numerator * (grid // hi.denominator)
            cuts = {nlo, nhi}
            for m in (abs(b), abs(b2)):
                if m:
                    step = grid // m
                    cuts.update(range((nlo // step + 1) * step, nhi, step))
            marks = sorted(cuts)
            breakpoints += len(marks) - 2
            lengths = {}
            for left, right in zip(marks, marks[1:]):
                two_mid = left + right
                g = (two_mid * b) // (2 * grid) - (two_mid * b2) // (2 * grid)
                if g in diffs:
                    lengths[g] = lengths.get(g, 0) + (right - left)
            total += 2 * Fr(sum(diffs[g] * n for g, n in lengths.items()), grid)
            positive += 2 * sum(diffs[g] for g in lengths)

    events = {}
    for b in fvals:
        for k in range(math.floor(lo * abs(b)) + 1, math.ceil(hi * abs(b))):
            events.setdefault(Fr(k, abs(b)), []).append(b)
    marks = sorted(events)
    mid = (lo + (marks[0] if marks else hi)) / 2
    floors = {b: (mid.numerator * b) // mid.denominator for b in fvals}
    hist = {}
    for b in fvals:
        for a in E.elements:
            hist[a + floors[b]] = hist.get(a + floors[b], 0) + 1
    energy = sum(c * c for c in hist.values())
    quad, prev = Fr(0), lo
    for t in marks:
        quad += (t - prev) * energy
        for b in events[t]:
            old = floors[b]
            floors[b] = old + (1 if b > 0 else -1)
            for a in E.elements:
                c = hist.pop(a + old)
                energy -= 2 * c - 1
                if c > 1:
                    hist[a + old] = c - 1
                c = hist.get(a + floors[b], 0)
                energy += 2 * c + 1
                hist[a + floors[b]] = c + 1
        prev = t
    quad += (hi - prev) * energy
    return total, quad, positive, breakpoints


def test_lambda_window_validation():
    w = LambdaWindow(Fr(1, 2), Fr(5, 2))
    assert w.measure == 2
    assert Fr(1) in w and Fr(3) not in w
    with pytest.raises(ValueError):
        LambdaWindow(Fr(0), Fr(1))
    with pytest.raises(ValueError):
        LambdaWindow(Fr(2), Fr(1))
    with pytest.raises(ValueError):
        LambdaWindow(Fr(1), Fr(1))


def test_pair_window_identical_and_parallel():
    w = LambdaWindow(Fr(1), Fr(2))
    same = pair_window((3, 5), (3, 5), w)
    assert same.flag == "identical"
    assert same.measure == 1
    par = pair_window((3, 5), (4, 5), w)
    assert par.flag == "parallel"
    assert par.measure == 0


def test_pair_window_hand_case():
    # floor(2*lam) = floor(lam) + 1 between 1/2 and 1 and again at 1..3/2
    w = LambdaWindow(Fr(1, 4), Fr(3, 2))
    pw = pair_window((0, 2), (1, 1), w)
    assert pw.flag == ""
    # solution set inside (1/4, 3/2): lam in [1/2, 1) gives (1,0)+1=1;
    # lam in [1, 3/2) gives floors (2,1), also delta 1
    assert pw.measure == Fr(1)
    lo = min(p[0] for p in pw.exact)
    hi = max(p[1] for p in pw.exact)
    assert lo == Fr(1, 2) and hi == Fr(3, 2)


def test_pair_window_brute_force_random():
    rng = random.Random(7)
    w = LambdaWindow(Fr(1, 3), Fr(7, 3))
    for _ in range(300):
        z = (rng.randrange(-50, 50), rng.randrange(-50, 50))
        z2 = (rng.randrange(-50, 50), rng.randrange(-50, 50))
        pw = pair_window(z, z2, w)
        if pw.flag:
            continue
        delta = z2[0] - z[0]
        # sample many rationals; membership must match the piece list
        for k in range(1, 200):
            lam = w.lo + (w.hi - w.lo) * Fr(k, 200)
            on_grid = any(lo <= lam < hi for lo, hi in pw.exact)
            hit = (
                math.floor(lam * z[1]) - math.floor(lam * z2[1]) == delta
            )
            # piece boundaries are the only place open/closed conventions
            # differ; skip exact endpoints
            if any(lam == lo or lam == hi for lo, hi in pw.exact):
                continue
            assert on_grid == hit, (z, z2, lam)


def test_pair_window_outer_bound():
    w = LambdaWindow(Fr(1), Fr(3))
    pw = pair_window((0, 9), (5, 2), w)
    if pw.exact:
        olo, ohi = pw.outer
        assert all(olo <= lo and hi <= ohi for lo, hi in pw.exact)
        assert pw.measure <= Fr(2, abs(9 - 2))


def test_collision_stats_oracle():
    E = IntegerSet([0, 1, 2], "e")
    F = IntegerSet([0, 1, 2], "f")
    rep = collision_stats(E, F, Fr(1))
    # sums 0..4 with multiplicities 1,2,3,2,1
    assert rep.total == 9
    assert rep.distinct_count == 5
    assert rep.energy == 1 + 4 + 9 + 4 + 1
    assert rep.cs_bound == Fr(81, 19)
    assert rep.histogram == {0: 1, 1: 2, 2: 3, 3: 2, 4: 1}


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 300), min_size=1, max_size=25),
    st.lists(st.integers(0, 300), min_size=1, max_size=25),
    st.fractions(min_value=Fr(1, 100), max_value=5),
)
def test_collision_cauchy_schwarz(xs, ys, lam):
    E = IntegerSet(xs, "e")
    F = IntegerSet(ys, "f")
    rep = collision_stats(E, F, lam)
    assert rep.cs_bound <= rep.distinct_count
    assert rep.total == len(E) * len(F)
    assert sum(rep.counts) == rep.total


def test_collision_report_keeps_arrays_not_tuples():
    # about 290k distinct values; tuples of Python ints would keep ~48 B each
    rng = np.random.default_rng(5)
    E = IntegerSet(rng.integers(0, 10**7, 1000).tolist(), "e")
    F = IntegerSet(rng.integers(0, 10**7, 300).tolist(), "f")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rep = collision_stats(E, F, Fr(7, 4))
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert rep.distinct_count >= 200_000
    assert kept < 16 * rep.distinct_count
    assert not rep._values.flags.writeable and not rep._counts.flags.writeable


def test_delta_two_routes_agree_small():
    E = IntegerSet([0, 1, 5], "e")
    F = IntegerSet([0, 2, 3], "f")
    w = LambdaWindow(Fr(1), Fr(2))
    rep = delta_exact(E, F, w)
    assert rep.agreement
    assert rep.exact_value == rep.quadrature_value
    assert rep.exact_value > 0
    # diagonal alone contributes |E||F| * measure = 9
    assert rep.exact_value >= 9


def test_delta_riemann_corridor():
    rng = random.Random(12)
    E = IntegerSet(rng.sample(range(0, 80), 6), "e")
    F = IntegerSet(rng.sample(range(0, 60), 5), "f")
    w = LambdaWindow(Fr(1, 2), Fr(3, 2))
    rep = delta_exact(E, F, w)
    assert rep.agreement
    approx = brute_delta(E, F, w)
    # the grid midpoints miss only measure-zero breakpoints
    assert abs(approx - float(rep.exact_value)) < 0.05 * max(1.0, approx)


_WINDOW_ENDS = st.fractions(min_value=Fr(1, 10), max_value=3, max_denominator=12)
# for E = {0, 1, 2, far, far + 1, far + 2}, F = {1, 2} and windows (hi - 1, hi]
# route one runs in int64 exactly when 2 * hi * 2**2 * |E| < 2**62
_INT64_HI = ((1 << 62) - 1) // 48


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-60, 60), min_size=1, max_size=10),
    st.lists(st.integers(-40, 40), min_size=1, max_size=8),
    st.booleans(),
    st.sampled_from([0, 10**30]),
    st.sampled_from([0, 10**15]),
    _WINDOW_ENDS,
    _WINDOW_ENDS,
)
@example([27], [-24, -25], False, 0, 10**15, Fr(1), Fr(1))  # float keys order it wrong
# 600 squares: 360000 differences, of which route one reads |g| <= 13
@example([n * n for n in range(1, 601)], [1, 2, 3], False, 0, 0, Fr(1), Fr(1))
# slope 40 fires 40 times between two events of slope 1: repeated rows share a block
@example([0, 1, 3, 7, 20], [1, 40], False, 0, 0, Fr(1, 2), Fr(3))
# near 10**18 a slope's sum of k*dN passes 2**63 (route two must add it in
# Python ints) and route one's int64 bound fails, so it runs in object dtype
@example([0, 1, 2, 3, 4, 5], [1, 2, 3], False, 0, 10**18, Fr(1, 2), Fr(3))
# equal slopes of opposite signs cut together: every gap 2k + 1 is hit and
# every even gap skipped, though E has differences there
@example(list(range(9)), [-3, 3], False, 0, 0, Fr(1, 2), Fr(3))
# a zero slope: one cell per pair, window ends on multiples of 1/7
@example([0, 2, 5, 11], [0, 7], False, 0, 0, Fr(3, 7), Fr(10, 7))
# slopes 2 and 3 over (4/9, 5/9]: the gap falls from 1 to 0 at the coarse
# cut 1/2, so the greatest gap lies in the first cell and the least in the last
@example([0, 1], [2, 3], False, 0, 0, Fr(4, 9), Fr(1, 9))
# both slopes negative
@example([0, 1, 4, 9], [-5, -2], False, 0, 0, Fr(1, 3), Fr(5, 2))
# the last window for which route one's bound admits int64, and the first
# beyond it (test_delta_exact_int64_boundary)
@example([0, 1, 2], [1, 2], False, 0, _INT64_HI - 2, Fr(1), Fr(1))
@example([0, 1, 2], [1, 2], False, 0, _INT64_HI - 1, Fr(1), Fr(1))
# slopes 7 and 9 walk the cells of slope 2, and the window ends at 3/7 and
# 10/7 lie off that cell grid
@example([0, 1, 3, 4, 9], [7, 9], False, 0, 0, Fr(3, 7), Fr(1))
# |b| = 2|b'|: the slopes differ by the smaller, so the pair keeps coarse cells
@example([0, 1, 3, 4, 9], [5, 10], False, 0, 0, Fr(1, 3), Fr(2))
# row 6 has difference cells for 7 and 8 and coarse cells for 13
@example([0, 2, 3, 7], [6, 7, 8, 13], False, 0, 0, Fr(1, 2), Fr(5, 2))
# both slopes negative, walked on the cells of their difference 2
@example([0, 1, 4, 9], [-9, -7], False, 0, 0, Fr(2, 3), Fr(7, 4))
# a zero slope beside the difference pair (5, 6)
@example([0, 2, 5, 11], [5, 6], True, 0, 0, Fr(1, 4), Fr(9, 4))
# one chunk of route one holds several rows of mixed signs
@example([0, 2, 3, 7, 12], [-5, -2, 0, 3, 7], False, 0, 0, Fr(1, 3), Fr(5, 2))
def test_delta_routes_match_oracle(xs, ys, zero, shift, far, lo, width):
    # E + 10**30 leaves int64.  far = 10**15 puts the window where the
    # float keys k/|b| of distinct events tie, and makes E span far so that
    # slopes one apart collide there: route two must sort its events
    # exactly; route one runs in object dtype
    E = IntegerSet([x + shift + d for x in xs for d in {0, far}], "e")
    F = IntegerSet(ys + [0] * zero, "f")
    w = LambdaWindow(far + lo, far + lo + width)
    want = oracle_delta(E, F, w)
    assert want[0] == want[1]
    # _QUAD_ROWS = 0 applies route two's events one at a time; a large one
    # applies them in blocks of _QUAD_BLOCK whatever |E| is
    names = ("_DELTA_CHUNK", "_BAND_BYTES", "_QUAD_BLOCK", "_QUAD_ROWS")
    defaults = tuple(getattr(marstrand, name) for name in names)
    many = 10**9
    two = arithmetic._BYTE_BUDGET // 2  # _BAND_BYTES for band chunks of 2 differences
    # _DELTA_CHUNK = 1 puts every cell of a pair in a chunk of its own
    for sizes in (
        defaults,
        (1, two, 1, many),
        (3, two, 1, many),
        (3, two, 2, many),
        (3, two, 3, many),
        (3, two, 1, 0),
    ):
        with pytest.MonkeyPatch.context() as mp:
            for name, size in zip(names, sizes):
                mp.setattr(marstrand, name, size)
            rep = delta_exact(E, F, w)
        got = (rep.exact_value, rep.quadrature_value, rep.positive_pairs, rep.breakpoint_count)
        assert got == want, sizes
        assert [type(v) for v in got] == [Fr, Fr, int, int]  # JSON-ready


@pytest.mark.parametrize("far, dtype", [(_INT64_HI - 2, np.int64), (_INT64_HI - 1, object)])
def test_delta_exact_int64_boundary(monkeypatch, far, dtype):
    seen = []
    slope_pairs = marstrand._slope_pairs

    def spy(*args):
        seen.append(args[-1].dtype)
        return slope_pairs(*args)

    monkeypatch.setattr(marstrand, "_slope_pairs", spy)
    E = IntegerSet([x + d for x in (0, 1, 2) for d in (0, far)], "e")
    rep = delta_exact(E, IntegerSet([1, 2], "f"), LambdaWindow(far + 1, far + 2))
    assert seen == [np.dtype(dtype)]
    assert rep.agreement


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_slope_row_walks_cells_not_fine_intervals(dtype):
    # slopes 1 and 10**7 over (1/2, 3/2]: 10**7 fine intervals, two cells
    # of the coarse slope.  Gap 10**7 - 1 holds on [1 - 10**-7, 1 + 10**-7)
    # and gap 10**7 + 1 on [1 + 2*10**-7, 1 + 3*10**-7); E has one
    # difference at each, so the pair spends 2 + 1 of 1/10**7 on them
    E = np.array([0, 10**7 - 1, 2 * 10**7])
    lo, hi = Fr(1, 2), Fr(3, 2)
    gap_bound = math.floor(2 * 10**7 * hi) + 1
    values, counts = marstrand._band_histogram(E, gap_bound)
    values = np.append(values.astype(dtype), gap_bound + 1)
    counts = np.append(counts.astype(dtype), 0)
    below = np.cumsum(counts) - counts
    b2, bs = np.array([1], dtype=dtype), np.array([10**7], dtype=dtype)
    grids, nums, weight, cuts = marstrand._slope_pairs(b2, bs, lo, hi, 2, values, counts, below)
    assert (grids.tolist(), nums.tolist(), weight) == ([10**7], [3], 2)
    # the fine cuts strictly inside, the coarse cut at 1 among them
    assert cuts == 10**7 - 1


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_slope_row_walks_difference_cells(monkeypatch, dtype):
    # slopes N = 10**9 and N + 1 over (1/2, 3/2]: about N coarse cells of
    # slope N, two cells of their difference 1.  On [j/N, (j + 1)/N), with
    # f = floor(lam), the gap is f + 1 from (j + 1 + f)/(N + 1) on and f
    # before, for a length of (j + 1 - f*N)/(N(N + 1)).  So gap 1 holds on
    # (1/2, 1) for the sum over m = N/2 + 1 .. N of m/(N(N + 1)), that is
    # mu = 1/2 - (N + 2)/(8(N + 1)), and gap 2 on [1, 3/2) for the sum over
    # m = 1 .. N/2, (N + 2)/(8(N + 1)).  E = {0, 1, 3} has 3, 1, 1
    # differences 0, 1, 2, so the pair spends 3(1/2 - mu) + mu + 1/2 =
    # 1 + (N + 2)/(4(N + 1)) of weighted window measure
    N = 10**9
    walked = []
    cells = marstrand._cells

    def spy(first, ncell):
        walked.append(int(np.sum(ncell)))
        return cells(first, ncell)

    monkeypatch.setattr(marstrand, "_cells", spy)
    E = np.array([0, 1, 3])
    lo, hi = Fr(1, 2), Fr(3, 2)
    gap_bound = math.floor(2 * (N + 1) * hi) + 1
    values, counts = marstrand._band_histogram(E, gap_bound)
    values = np.append(values.astype(dtype), gap_bound + 1)
    counts = np.append(counts.astype(dtype), 0)
    below = np.cumsum(counts) - counts
    b2, bs = np.array([N], dtype=dtype), np.array([N + 1], dtype=dtype)
    grids, nums, weight, cuts = marstrand._slope_pairs(b2, bs, lo, hi, 2, values, counts, below)
    assert walked == [2, 0]  # two difference cells, no coarse cell
    assert nums.dtype == np.dtype(dtype)
    measure = sum((Fr(int(n), int(g)) for g, n in zip(grids, nums)), Fr(0))
    assert measure == 1 + Fr(N + 2, 4 * (N + 1))
    # gaps 0, 1 and 2 are hit; the cuts of N + 1 and of N strictly inside,
    # less the shared cut at 1
    assert (weight, cuts) == (5, (N + 1) + (N - 1) - 1)


def _fixed_charge(cells, members):
    """delta_exact's charge for route one's chunk of int64 cells and
    route two's block of members."""
    return cells * marstrand._CELL_BYTES + members * marstrand._MEMBER_BYTES


def test_delta_refuses_wide_windows_before_allocating(monkeypatch):
    # F = {3, 4} over (1, 2]: route two has 2 + 3 = 5 events of 64 bytes,
    # and 10 counters of 8 bytes, as the values a + floor(lam*b) of E = {0,
    # 1, 5} run over [3, 12]; route one's chunk is charged at most
    # 3 * (2 - 1) + 2 = 5 cells, and route two's block its 5 events of
    # 2|E| = 6 members each
    calls = []
    for name in ("_band_histogram", "_delta_quadrature"):
        monkeypatch.setattr(marstrand, name, lambda *args, name=name: calls.append(name))
    E, F = IntegerSet([0, 1, 5], "e"), IntegerSet([3, 4], "f")
    w = LambdaWindow(Fr(1), Fr(2))
    charged = 5 * 64 + 10 * 8 + _fixed_charge(5, 30)
    monkeypatch.setattr(arithmetic, "_BYTE_BUDGET", charged - 1)
    message = rf"\(5 breakpoint events, {charged} bytes > {charged - 1}\)"
    with pytest.raises(SizeGuardError, match=message):
        delta_exact(E, F, w)
    assert calls == []
    monkeypatch.undo()
    monkeypatch.setattr(arithmetic, "_BYTE_BUDGET", charged)
    assert delta_exact(E, F, w).agreement


def test_delta_charges_route_two_counters(monkeypatch):
    # one slope of 1000 over (1, 2] moves 1000 sparse values over 1000
    # counters each: 8 MB of counters for 999 events, 64 kB at 64 bytes
    # an event; route two applies them one at a time (|E| > _QUAD_ROWS),
    # 2|E| members, and one slope leaves route one no cell
    E = IntegerSet(range(0, 1000 * 10**6, 10**6), "sparse")
    F, w = IntegerSet([1000], "f"), LambdaWindow(Fr(1), Fr(2))
    charged = 999 * 64 + 1000 * 1000 * 8 + _fixed_charge(0, 2000)
    tracemalloc.start()
    try:
        assert delta_exact(E, F, w).agreement
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert charged // 2 < peak < charged + (1 << 20)
    monkeypatch.setattr(arithmetic, "_BYTE_BUDGET", charged - 1)
    message = rf"\(999 breakpoint events, {charged} bytes > {charged - 1}\)"
    with pytest.raises(SizeGuardError, match=message):
        delta_exact(E, F, w)


def test_delta_charges_shared_counters(monkeypatch):
    # squares up to 40**2 over (1, 2]: 22,100 events, whose values
    # a + floor(lam*b) share 4796 counters, not |E| = 40 fresh ones per
    # event (8.5 MB at 64 + 8|E| bytes an event); a full chunk of cells,
    # and a full block of _QUAD_BLOCK events of 2|E| members each
    E, w = IntegerSet([k * k for k in range(1, 41)], "squares"), LambdaWindow(Fr(1), Fr(2))
    charged = 22_100 * 64 + 4796 * 8 + _fixed_charge(marstrand._DELTA_CHUNK, 128 * 80)
    monkeypatch.setattr(arithmetic, "_BYTE_BUDGET", charged)
    assert delta_exact(E, E, w).agreement
    monkeypatch.setattr(arithmetic, "_BYTE_BUDGET", charged - 1)
    message = rf"\(22100 breakpoint events, {charged} bytes > {charged - 1}\)"
    with pytest.raises(SizeGuardError, match=message):
        delta_exact(E, E, w)


def test_delta_refuses_huge_slopes():
    # about 2 * 10**20 events: refused before route one counts its cells
    F = IntegerSet([10**20, 10**20 + 1], "f")
    with pytest.raises(SizeGuardError, match="narrow the lambda window"):
        delta_exact(IntegerSet([0, 1, 2], "e"), F, LambdaWindow(Fr(1), Fr(2)))


@pytest.mark.parametrize("block, rows", [(1, None), (None, 0)])
def test_delta_quadrature_blocks_on_heavy_collisions(monkeypatch, block, rows):
    # shaped like the delta benchmark's largest op: 60 values v, 1000 - v
    # on each side, so rows collide heavily and slopes fire many times per
    # block of the default size; against block size 1 and the event loop
    assert 60 <= marstrand._QUAD_ROWS  # the default is the block update
    rng = random.Random(9)
    halves = [rng.sample(range(500), 30) for _ in range(2)]
    E, F = (IntegerSet(h + [1000 - v for v in h], "s") for h in halves)
    w = LambdaWindow(Fr(1), Fr(2))
    rep = delta_exact(E, F, w)
    assert rep.agreement
    if block is not None:
        monkeypatch.setattr(marstrand, "_QUAD_BLOCK", block)
    if rows is not None:
        monkeypatch.setattr(marstrand, "_QUAD_ROWS", rows)
    assert marstrand._delta_quadrature(E, F, w, marstrand._quad_rows(E, F, w)) == rep.exact_value


@pytest.mark.parametrize("block", [1, 2, 3, 128, 2**23])
def test_quad_blocks_match_quad_events(monkeypatch, block):
    # negative slopes, a zero slope, and slopes +-40 that fire 40 times
    # between two events of slope 1, so a row fires several times per block.
    # The keys are unsigned 32-bit while the counters fit in 32 - t bits, t
    # the bits of 2*_QUAD_BLOCK - 1: _QUAD_BLOCK = 2**23 gives t = 24, and
    # this histogram of more than 2**8 counters takes 64-bit keys
    E = IntegerSet([0, 1, 3, 7, 20, 21], "e")
    F = IntegerSet([-40, -3, 0, 1, 2, 40], "f")
    runs = []
    blocks = marstrand._quad_blocks

    def spy(cur, hist, owner, rank, steps, size):
        t = (2 * block - 1).bit_length()
        runs.append((size >= 1 << (32 - t), len(owner)))
        cur2, hist2 = cur.copy(), hist.copy()
        dn = blocks(cur, hist, owner, rank, steps, size)
        assert np.array_equal(dn, marstrand._quad_events(cur2, hist2, owner, steps))
        assert np.array_equal(hist, hist2)
        return dn

    monkeypatch.setattr(marstrand, "_QUAD_BLOCK", block)
    monkeypatch.setattr(marstrand, "_quad_blocks", spy)
    w = LambdaWindow(Fr(1, 2), Fr(3))
    quad = marstrand._delta_quadrature(E, F, w, marstrand._quad_rows(E, F, w))
    assert quad == oracle_delta(E, F, w)[0]
    # events k/|b| inside the window: 99 for each of +-40, 7, 2 and 4 for 3, 1 and 2
    assert runs == [(block == 2**23, 2 * 99 + 7 + 2 + 4)]


def test_delta_exact_calls_quadrature_through_module_global(monkeypatch):
    # perfbench/tracing.py wraps both names to split the two routes'
    # time; delta_exact must look _delta_quadrature up at call time
    calls = []
    quadrature = marstrand._delta_quadrature

    def spy(*args):
        calls.append(args)
        return quadrature(*args)

    monkeypatch.setattr(marstrand, "_delta_quadrature", spy)
    E, F = IntegerSet([0, 1, 5], "e"), IntegerSet([0, 2, 3], "f")
    rep = marstrand.delta_exact(E, F, LambdaWindow(Fr(1), Fr(2)))
    assert [args[:3] for args in calls] == [(E, F, rep.window)]
    assert rep.agreement


def test_delta_size_guard():
    E = IntegerSet(range(200), "e")
    w = LambdaWindow(Fr(1), Fr(2))
    with pytest.raises(SizeGuardError):
        delta_exact(E, E, w, max_pairs=100)


def test_sweep_deterministic():
    E = IntegerSet([n * n for n in range(1, 120)], "sq")
    F = IntegerSet([n * n for n in range(1, 100)], "sq2")
    w = LambdaWindow(Fr(1), Fr(2))
    a = sweep(E, F, w, samples=6, seed=99)
    b = sweep(E, F, w, samples=6, seed=99)
    assert [r.lam for r in a.records] == [r.lam for r in b.records]
    d = sweep(E, F, w, samples=6, seed=100)
    assert [r.lam for r in a.records] != [r.lam for r in d.records]


def test_sweep_record_consistency():
    E = IntegerSet([n * n for n in range(1, 80)], "sq")
    w = LambdaWindow(Fr(1), Fr(2))
    rep = sweep(E, E, w, samples=4, seed=5)
    assert len(rep.records) == 4
    for r in rep.records:
        assert r.lam in w
        assert 0.0 <= r.dimension <= 1.0
        assert r.distinct == r.sum_size  # same restriction, same lam
        assert r.sum_size <= r.span
        assert r.cs_bound <= r.distinct
    assert rep.dim_min <= rep.dim_median <= rep.dim_max


@settings(max_examples=15, deadline=None)
@given(
    st.lists(st.integers(-(10**5), 10**5), min_size=3, max_size=60, unique=True),
    st.lists(st.integers(-(10**5), 10**5), min_size=3, max_size=60, unique=True),
    st.integers(0, 10**6),
)
def test_sweep_records_match_sum_and_collision_stats(xs, ys, seed):
    E, F = IntegerSet(xs, "e"), IntegerSet(ys, "f")
    I = Interval(E.elements[0] - 1, E.elements[-1] - 1)  # drops E's maximum
    w = LambdaWindow(Fr(1, 3), Fr(7, 3))
    for schedule in (None, [(I, F.hull())]):
        rep = sweep(E, F, w, samples=3, seed=seed, schedule=schedule, min_length=2)
        Er = E if schedule is None else E.restrict(I)
        for r in rep.records:
            col = collision_stats(Er, F, r.lam)
            assert r.sum_size == len(sum_scaled(Er, F, r.lam))
            assert (r.distinct, r.energy, r.cs_bound) == (
                col.distinct_count, col.energy, col.cs_bound
            )


def test_sweep_size_guards_keep_their_messages():
    E = IntegerSet(range(0, 1000, 3), "e")
    F = IntegerSet(range(100), "f")  # 334 x 100 pairs; floor(F/4) has 25 values
    quarter = LambdaWindow(Fr(1, 5), Fr(1, 4))
    # the grid's pairs decide, however few distinct floors lam*F has
    for max_pairs in (334 * 25 - 1, 334 * 25, 334 * 100 - 1):
        message = rf"collision grid too large \(33400 pairs\), over max_pairs {max_pairs}:"
        with pytest.raises(SizeGuardError, match=message):
            sweep(E, F, quarter, samples=1, seed=0, max_pairs=max_pairs)
    sweep(E, F, quarter, samples=1, seed=0, max_pairs=334 * 100)
    # big integers of a narrow span: the grid runs in int64 after the
    # shift, and its histogram is the triangle of E + E
    big = IntegerSet([10**30 + k for k in range(2001)], "big")
    col = collision_stats(big, big, 1)
    assert col.values == tuple(2 * 10**30 + v for v in range(4001))
    assert col.counts == tuple(min(v, 4000 - v) + 1 for v in range(4001))
    (r,) = sweep(big, big, LambdaWindow(Fr(1), Fr(2)), samples=1, seed=0).records
    assert r.distinct == len(sum_scaled(big, big, r.lam))
    # big integers of a wide span: the sorted route's Python-int sums pass
    # the byte budget, refused whichever caller asks
    wide = IntegerSet([k * 10**30 for k in range(1500)], "wide")
    message = r"grid histogram too large \(2250000 pairs, \d+ bytes > 150000000\)"
    with pytest.raises(SizeGuardError, match=message):
        collision_stats(wide, wide, 1)
    with pytest.raises(SizeGuardError, match=message):
        sweep(wide, wide, LambdaWindow(Fr(1), Fr(2)), samples=1, seed=0)


def test_sweep_skip_integers():
    w = LambdaWindow(Fr(1), Fr(3))
    E = IntegerSet([n * n for n in range(1, 60)], "sq")
    rep = sweep(E, E, w, samples=20, seed=3, skip_integers=True)
    assert all(r.lam.denominator > 1 for r in rep.records)


def test_sweep_threshold_fraction():
    E = IntegerSet([n * n for n in range(1, 100)], "sq")
    w = LambdaWindow(Fr(1), Fr(2))
    rep = sweep(E, E, w, samples=5, seed=1, threshold=0.0)
    assert rep.fraction_above == 1.0
    rep2 = sweep(E, E, w, samples=5, seed=1, threshold=2.0)
    assert rep2.fraction_above == 0.0


def test_sweep_validates_input():
    E = IntegerSet([1, 2], "e")
    w = LambdaWindow(Fr(1), Fr(2))
    with pytest.raises(ValueError, match="empty"):
        sweep(E, IntegerSet([], "f"), w, samples=2, seed=0)
    with pytest.raises(ValueError, match="samples"):
        sweep(E, E, w, samples=0, seed=0)


def test_multi_sweep_shapes():
    E = IntegerSet([n * n for n in range(1, 60)], "sq")
    F = IntegerSet([n**3 for n in range(1, 25)], "cubes")
    w = LambdaWindow(Fr(1), Fr(2))
    rep = multi_sweep([E, F, E], w, samples=3, seed=11)
    assert len(rep.records) == 3
    assert all(len(r.lams) == 2 for r in rep.records)
    assert 0 < rep.target <= 1.0
    with pytest.raises(ValueError, match="2 and 4"):
        multi_sweep([E], w, samples=2, seed=0)
    with pytest.raises(ValueError, match="2 and 4"):
        multi_sweep([E] * 5, w, samples=2, seed=0)


def test_multi_sweep_matches_pairwise_composition():
    E = IntegerSet([n * n for n in range(1, 40)], "sq")
    w = LambdaWindow(Fr(1), Fr(2))
    rep = multi_sweep([E, E], w, samples=2, seed=21)
    for r in rep.records:
        S = sum_scaled(E, E, r.lams[0])
        assert r.sum_size == len(S)
