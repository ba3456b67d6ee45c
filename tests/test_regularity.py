"""Sup-ratio scans, dyadic thinning, regular-subset extraction, and the
ladder diagnostics (regularity, compatibility, universality)."""

import math
from fractions import Fraction as Fr

import pytest

from zdim.generators import NoncompatibleParams, noncompatible_pair, power_set
from zdim.intset import IntegerSet, Interval
from zdim.regularity import (
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
