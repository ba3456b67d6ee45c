"""Sup-ratio scans, dyadic thinning, regular-subset extraction, and the
ladder diagnostics (regularity, compatibility, universality)."""

import bisect
import itertools
import math
import tracemalloc
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from zdim import regularity
from zdim.generators import NoncompatibleParams, noncompatible_pair, power_set
from zdim.intset import IntegerSet, Interval
from zdim.regularity import (
    _ladder,
    compatibility_check,
    dyadic_thin,
    extract_regular_subset,
    ratio_le_half_step,
    regularity_diagnostic,
    sup_ratio,
    universality_check,
)


def test_sup_ratio_dense_block():
    E = IntegerSet(range(1, 9), "block8")
    I = Interval(0, 8)
    s = sup_ratio(E, I, Fr(1, 2))
    # the full block wins: 8 / sqrt(8)
    assert s.count == 8 and s.length == 8
    assert abs(float(s.value) - 8 / math.sqrt(8)) < 1e-12
    assert s.witness == Interval(0, 8)


def test_sup_ratio_restricts_to_interval():
    E = IntegerSet(list(range(1, 9)) + [100, 101, 102], "tail")
    s = sup_ratio(E, Interval(99, 102), Fr(1, 2))
    assert s.count == 3 and s.length == 3
    with pytest.raises(ValueError, match="no elements"):
        sup_ratio(E, Interval(50, 60), Fr(1, 2))


def test_half_step_certificate_is_exact():
    # 8/sqrt(8) -> 5/sqrt(8) is a valid contraction step (5 <= 8/2 + ...)
    assert ratio_le_half_step(8, 8, 5, 8, Fr(1, 2))
    # 8 -> 8 at the same length is not
    assert not ratio_le_half_step(8, 8, 8, 8, Fr(1, 2))


def test_dyadic_thin_dense_block():
    E = IntegerSet(range(1, 9), "block8")
    I = Interval(0, 8)
    tr = dyadic_thin(E, I, Fr(1, 2))
    assert not tr.stalled
    # one pass: keep 1-based positions {1, 2, 4, 6, 8}
    assert tr.final_set.elements == (1, 2, 4, 6, 8)
    s = tr.final_s
    assert abs(float(s.value) - 5 / math.sqrt(8)) < 1e-12
    # in range (1/2, 2]
    assert 0.5 < float(s.value) <= 2.0


def test_dyadic_thin_terminates_in_log_steps():
    E = IntegerSet(range(1, 1025), "block1024")
    tr = dyadic_thin(E, Interval(0, 1024), Fr(1, 2))
    s0 = float(tr.initial.value)  # 1024/32 = 32
    assert len(tr.steps) <= math.ceil(math.log2(s0)) + 1
    assert 0.5 < float(tr.final_s.value) <= 2.0


def test_dyadic_thin_already_regular_is_noop():
    E = IntegerSet([1, 10, 100], "sparse")
    tr = dyadic_thin(E, Interval(0, 100), Fr(1, 2))
    assert tr.steps == ()
    assert tr.final_set.elements == E.elements


def test_dyadic_thin_stall_zone():
    # three points, alpha small enough that even they exceed ratio 2,
    # but the rule cannot drop interior points below k=3
    E = IntegerSet([1, 2, 3], "tri")
    tr = dyadic_thin(E, Interval(0, 3), Fr(1, 100))
    assert tr.stalled
    assert len(tr.final_set) <= 3


def test_extract_regular_subset_blocks():
    # three dense clumps far apart: each block lands inside one clump
    clumps = list(range(100, 164)) + list(range(10**5, 10**5 + 64))
    clumps += list(range(10**10, 10**10 + 64))
    E = IntegerSet(clumps, "clumps")
    got = extract_regular_subset(E, Fr(1, 2), 3)
    assert not got.exhausted
    assert len(got.traces) == 3
    assert len(got.witnesses) == 3
    # blocks are separated by at least length**2
    for w, w2 in zip(got.witnesses, got.witnesses[1:]):
        assert w2.lo >= w.hi + w.length**2 - 1
    # every thinned block sits inside its witness
    for tr, w in zip(got.traces, got.witnesses):
        assert all(x in w for x in tr.final_set.elements)
    # final ratios all in the regular band
    for tr in got.traces:
        assert float(tr.final_s.value) <= 2.0


def test_extract_exhausts_short_truncations():
    E = IntegerSet([1, 2, 3, 4], "tiny")
    got = extract_regular_subset(E, Fr(1, 2), 10)
    assert got.exhausted
    assert len(got.traces) < 10
    assert "truncation-exhausted" in got.subset.provenance


def test_extract_validates_arguments():
    E = IntegerSet([1, 2], "t")
    with pytest.raises(ValueError):
        extract_regular_subset(E, Fr(3, 2), 1)
    with pytest.raises(ValueError):
        extract_regular_subset(E, Fr(1, 2), 0)
    with pytest.raises(ValueError, match="empty"):
        extract_regular_subset(IntegerSet([], "e"), Fr(1, 2), 1)


def test_regularity_diagnostic_squares():
    E = power_set(Fr(1, 2), 3000)
    rep = regularity_diagnostic(E)
    assert rep  # bounded
    assert rep.dimension.alpha_hat == Fr(1, 2)
    assert any(r.ok for r in rep.ladder)
    assert float(rep.measure.value) >= 1.0


def test_universality_squares_true():
    E = power_set(Fr(1, 2), 3000)
    rep = universality_check(E)
    assert rep
    assert all(r.ok for r in rep.rungs)


def test_ladders_beyond_float_range():
    # windows of length 2**1024 or more count as length inf, as in the
    # window scans, so their rung ratio is count * inf**-1 = 0
    E = IntegerSet([0, 1, 10**400, 10**400 + 5], "huge")
    reg = regularity_diagnostic(E)
    uni = universality_check(E)
    assert reg.dimension.alpha_hat == 1
    for rungs in (reg.ladder, uni.rungs):
        found = [r for r in rungs if r.witness is not None]
        assert found[0].count == 2 and found[0].ratio == 2 * 6 ** -1.0
        assert any(r.witness.length >= 2**1024 for r in found)
        for r in found:
            want = r.count * r.witness.length ** -1.0 if r.witness.length < 2**1024 else 0.0
            assert r.ratio == want
    assert reg.measure.count == 2 and reg.measure.witness.length == 6
    # no count reaches c_min * inf**alpha; finite rungs keep their floats
    compat = compatibility_check(E, E, c_min=Fr(1, 4))
    found = [r for r in compat.rungs if r.window_a is not None]
    assert found[0].ok and found[0].window_a.length == 6  # 2 >= 6/4
    assert found[-1].count_a == 4 and found[-1].window_a.length >= 2**1024
    assert not found[-1].ok


def test_universality_fails_beyond_hull():
    # one dense block then nothing: large scales have no full-rate window
    E = IntegerSet(range(100), "block")
    rep = universality_check(E, max_scale=10_000)
    assert not rep
    big = [r for r in rep.rungs if r.scale > 256]
    assert big and not any(r.ok for r in big)


def test_compatibility_squares_with_self():
    E = power_set(Fr(1, 2), 2000)
    F = power_set(Fr(1, 2), 1500)
    rep = compatibility_check(E, F)
    assert rep
    assert rep.witnesses


def test_noncompatible_pair_fails_check():
    E, F = noncompatible_pair(NoncompatibleParams(Fr(1, 2), Fr(2, 3), 2))
    rep = compatibility_check(E, F)
    assert not rep
    assert any(not r.ok for r in rep.rungs)


def test_compatibility_validates_band():
    E = IntegerSet([1, 2, 3], "e")
    with pytest.raises(ValueError):
        compatibility_check(E, E, ratio_band=Fr(1, 2))


def test_compatibility_below_the_first_doubling():
    # the smaller hull is 3 long, below the first doubling (4): the ladder
    # still has one rung, at the hull, so the report rests on evidence
    E, F = IntegerSet([0, 1, 3], "e"), IntegerSet([0, 2], "f")
    rep = compatibility_check(E, F)
    assert [r.scale for r in rep.rungs] == [3]
    (r,) = rep.rungs
    assert (r.window_a, r.count_a) == (Interval(-1, 3), 3)
    assert (r.window_b, r.count_b) == (Interval(-1, 2), 2)
    assert bool(rep) == r.ok


def test_ladders_stay_within_max_scale():
    E = IntegerSet(range(100), "block")
    rep = universality_check(E, max_scale=2)
    assert [r.scale for r in rep.rungs] == [2]
    assert rep.rungs[0].witness.length in (2, 3)
    assert [r.scale for r in compatibility_check(E, E, max_scale=3).rungs] == [3]
    # scales past int64 on an int64 set: the rungs run on Python ints
    assert [r.scale for r in universality_check(E, max_scale=2**66).rungs][-1] == 2**66
    for bad in (0, -4):
        with pytest.raises(ValueError, match="top ladder scale"):
            universality_check(E, max_scale=bad)


def oracle_rung(xs, scale, alpha):
    """Every window a rung weighs, each with its ratio, by bisect on a list.

    Per start: the window out to the last element within start + 2*scale - 1,
    kept when shorter than 2*scale (an element exactly there makes it
    2*scale long, and it is dropped), and the shortest window of length at
    least scale, kept when shorter than 2*scale.
    """
    found = {}
    for i, x in enumerate(xs):
        for j in (
            bisect.bisect_right(xs, x + 2 * scale - 1) - 1,
            bisect.bisect_left(xs, x + scale - 1),
        ):
            if j < len(xs) and scale <= xs[j] - x + 1 < 2 * scale:
                length = xs[j] - x + 1
                found[x, xs[j]] = (j - i + 1, length, (j - i + 1) * float(length) ** -alpha)
    return found


_MEMBERS = st.lists(st.integers(-3000, 3000), min_size=1, max_size=60, unique=True)


@st.composite
def _exact_hits(draw):
    """Progressions whose step divides 2*scale - 1 for some rung scale."""
    scale = 2 ** draw(st.integers(2, 7))
    odd = 2 * scale - 1
    step = draw(st.sampled_from([d for d in range(1, odd + 1) if odd % d == 0]))
    start = draw(st.integers(-500, 500))
    return [start + step * k for k in range(draw(st.integers(1, 40)))]


# runs of consecutive integers: a run's own window often wins a rung as
# the shortest one, while the window out to start + 2*scale - 1 reaches
# into the next run or stops at an element exactly there
_RUNS = st.lists(
    st.tuples(st.integers(-300, 300), st.integers(1, 40)), min_size=1, max_size=4
).map(lambda runs: sorted({a + k for a, n in runs for k in range(n)}))


@given(
    st.one_of(
        _MEMBERS, _RUNS, _exact_hits(), st.builds(lambda x: [x], st.integers(-9, 9))
    ),
    st.sampled_from([0.0, 1 / 3, 0.5, 0.96, 1.0]),
    st.sampled_from([0, 1 << 70]),
    st.booleans(),
    st.sampled_from([None, 1, 2, 3]),
)
# rung 8's best, (-1, 7], is a shortest window that ends at an exact hit of rung 4
@example([*range(8), 14], 1.0, 0, False, None)
def test_ladder_matches_bisect_oracle(xs, alpha, shift, stride, top):
    E = IntegerSet(xs, "e").shift(shift)
    assert (E._array().dtype == object) == bool(shift)
    top = E.hull().length if top is None else top
    with pytest.MonkeyPatch.context() as mp:
        if stride:  # stride sets of more than 8 elements to about 4
            mp.setattr(regularity, "_STRIDE_ABOVE", 8)
            mp.setattr(regularity, "_STRIDE_TARGET", 4)
        rungs = _ladder(E, top, alpha)
    members = list(E.elements)
    if stride and len(members) > 8:
        members = members[:: len(members) // 4]
    _check_rungs(members, top, alpha, rungs)


@given(
    st.one_of(_MEMBERS, _RUNS, _exact_hits()),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.sampled_from([0, 1 << 70]),
    st.sampled_from([1, 2, 5]),
)
def test_ladder_blocks_keep_the_first_best_window(xs, alpha, shift, block):
    # progressions and runs tie many windows: blocks of starts must
    # still pick the one a single block picks
    E = IntegerSet(xs, "e").shift(shift)
    whole = _ladder(E, E.hull().length, alpha)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regularity, "_LADDER_BLOCK", block)
        assert _ladder(E, E.hull().length, alpha) == whole


def test_ladder_peak_memory_is_a_few_arrays_of_the_set():
    # the offsets and the next rung's indices span the set, plus one
    # temporary while the first indices are made; the rest is per block
    xs = np.cumsum(np.random.default_rng(2).integers(1, 9, size=400_000))
    E = IntegerSet.from_sorted_array(xs, "e")
    tracemalloc.start()
    try:
        _ladder(E, E.hull().length, 0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * xs.nbytes, peak / xs.nbytes


def _check_rungs(members, top, alpha, rungs):
    scales = [s for s, _ in rungs]
    assert scales == ([4 * 2**k for k in range(top.bit_length() - 2)] or [top])
    for scale, got in rungs:
        found = oracle_rung(members, scale, alpha)
        if not found:
            assert got is None, scale
            continue
        count, length, lo, hi = got
        assert found[lo, hi][:2] == (count, length)
        best = max(r for _, _, r in found.values())
        assert math.isclose(found[lo, hi][2], best, rel_tol=1e-12), scale


# gaps that straddle 2**61..2**62, where a rung's cap 2*scale meets
# _INT64_LIMIT, after a run whose short windows fill the first rungs
_STRADDLE = st.lists(
    st.one_of(st.integers(1, 64), st.integers(2**61 - 3, 2**62 + 3)), min_size=1, max_size=30
).map(lambda gaps: [*range(10), *(9 + g for g in itertools.accumulate(gaps))])
# members times 8192**k, shifted by 2**70: at k = 4 (2**52) members 512
# to 1024 apart leave gaps that straddle 2**61..2**62
_SCALED = st.builds(lambda xs, k: [x * 8192**k for x in xs], _MEMBERS, st.integers(1, 5))
# int64 sets whose span passes 2**62: their targets would leave int64
_EDGES = st.lists(
    st.one_of(st.integers(2**62 - 5000, 2**62 - 1), st.integers(-(2**62) + 1, -(2**62) + 5000)),
    min_size=2,
    max_size=40,
    unique=True,
)


@given(
    st.one_of(
        st.tuples(_SCALED, st.just(1 << 70)),
        st.tuples(_STRADDLE, st.sampled_from([0, 1 << 70])),
        st.tuples(_EDGES, st.just(0)),
    ),
    st.sampled_from([0.0, 0.5, 1.0]),
)
# the Python-int rung 2**60 drops the window from 0 to 2**61 - 1 (before
# the shift), 2**61 long, as 2**61 - 1 sits exactly at start + 2*scale - 1
@example(([*range(6), 2**61 - 1], 1 << 70), 1.0)
def test_wide_span_ladder_matches_bisect_oracle(members_shift, alpha):
    xs, shift = members_shift
    E = IntegerSet(xs, "e").shift(shift)
    top = E.hull().length
    kinds = []

    def spy(lengths):
        kinds.append(lengths.dtype == object)
        return as_float(lengths)

    as_float = regularity._as_float
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regularity, "_as_float", spy)
        rungs = _ladder(E, top, alpha)
    _check_rungs(list(E.elements), top, alpha, rungs)
    # rungs take int64 offsets, then Python ints from some scale on: at
    # scale 4 the offsets (capped at 8) stay far below 2**62, and from
    # 2**60 on twice the cap alone reaches it
    assert kinds == sorted(kinds)
    if rungs[0][1] is not None:
        assert not kinds[0]
    if any(got is not None for s, got in rungs if s >= 2**60):
        assert kinds[-1]
