"""Collision windows, exact double counting, and dimension sweeps.

pair_window and delta_exact both get brute-force cross-checks on small
random instances; the two delta routes must agree exactly, always, and
each equals the pure-Python oracle below.
"""

import math
import random
from fractions import Fraction as Fr

import pytest
from hypothesis import example, given, settings, strategies as st

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
    for chunk, band in ((marstrand._DELTA_CHUNK, marstrand._BAND_CHUNK), (3, 2)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(marstrand, "_DELTA_CHUNK", chunk)
            mp.setattr(marstrand, "_BAND_CHUNK", band)
            rep = delta_exact(E, F, w)
        got = (rep.exact_value, rep.quadrature_value, rep.positive_pairs, rep.breakpoint_count)
        assert got == want, chunk
        assert [type(v) for v in got] == [Fr, Fr, int, int]  # JSON-ready


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
    assert calls == [(E, F, rep.window)]
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
    with pytest.raises(SizeGuardError, match=r"sumset too large, restrict windows \(334 x 25 pairs\)"):
        sweep(E, F, quarter, samples=1, seed=0, max_pairs=334 * 25 - 1)
    with pytest.raises(SizeGuardError, match=r"collision grid too large \(33400 pairs\)"):
        sweep(E, F, quarter, samples=1, seed=0, max_pairs=334 * 25)
    big = IntegerSet([10**30 + k for k in range(2001)], "big")
    with pytest.raises(SizeGuardError, match="big-integer handling"):
        collision_stats(big, big, 1)
    with pytest.raises(SizeGuardError, match="big-integer handling"):
        sweep(big, big, LambdaWindow(Fr(1), Fr(2)), samples=1, seed=0)


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
