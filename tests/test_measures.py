"""Counting dimension, alpha-measure, and density estimators.

Small-case values are checked against a brute-force scan over every
element-aligned interval, keeping the fast path honest.
"""

import math
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

from zdim.exact import ratio_value
from zdim.intset import IntegerSet, Interval
from zdim.measures import (
    DegenerateSetError,
    ScanSchedule,
    alpha_measure_estimate,
    density_estimate,
    dimension_estimate,
    monotonicity_check,
)
from zdim.regularity import _best_window_at_scale, sup_ratio


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

    scale = 1
    while scale <= 2 * small.hull().length:
        a = _best_window_at_scale(small, scale, float(alpha))
        b = _best_window_at_scale(big, scale, float(alpha))
        if a is None:
            assert b is None
        else:
            count, length, lo, hi = a
            assert scale <= length < 2 * scale
            assert b == (count, length, lo + _SHIFT, hi + _SHIFT)
        scale *= 2


def test_lengths_beyond_float_range():
    # the long windows have lengths near 10**400, beyond float64
    E = IntegerSet([0, 1, 10**400, 10**400 + 5], "huge")
    d = dimension_estimate(E)
    assert d.alpha_hat == 1 and d.witness == Interval(-1, 1)
    m = alpha_measure_estimate(E, Fr(1, 2))
    assert (m.count, m.witness) == (2, Interval(-1, 1))
    assert m.value == ratio_value(2, 2, Fr(1, 2))
