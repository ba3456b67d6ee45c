"""Arithmetic on integer sets: floor dilation, sumsets, star products."""

from contextlib import contextmanager
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zdim.arithmetic as arith
from zdim.arithmetic import (
    SizeGuardError,
    asymptotic_check,
    floor_scale,
    grid_energy,
    grid_histogram,
    star,
    sum_scaled,
    sumset,
)
from zdim.intset import IntegerSet


@given(
    st.lists(st.integers(min_value=-(10**12), max_value=10**12), min_size=1, max_size=40),
    st.integers(min_value=1, max_value=999),
    st.integers(min_value=1, max_value=999),
)
def test_floor_scale_matches_integer_division(xs, p, q):
    E = IntegerSet(xs, "h")
    got = floor_scale(E, Fr(p, q))
    assert got.elements == tuple(sorted({x * p // q for x in set(xs)}))


def test_floor_scale_rejects_nonpositive():
    E = IntegerSet([1, 2], "t")
    with pytest.raises(ValueError, match="positive"):
        floor_scale(E, 0)
    with pytest.raises(ValueError, match="positive"):
        floor_scale(E, Fr(-1, 2))


def test_floor_scale_bigint_route():
    E = IntegerSet([10**30, 10**30 + 7], "big")
    got = floor_scale(E, Fr(1, 3))
    assert got.elements == (10**30 // 3, (10**30 + 7) // 3)


def test_sumset_small_oracle():
    E = IntegerSet([0, 1, 2], "a")
    S = sumset(E, E)
    assert S.elements == (0, 1, 2, 3, 4)


def _dict_histogram(E, F, lam):
    lam = Fr(lam)
    hist = {}
    for a in E.elements:
        for b in F.elements:
            v = a + b * lam.numerator // lam.denominator
            hist[v] = hist.get(v, 0) + 1
    return dict(sorted(hist.items()))


@contextmanager
def _routes_taken(budget=None):
    """Record which engine routes run, optionally under a smaller byte budget."""
    taken = []
    saved = {name: getattr(arith, name) for name in
             ("_BYTE_BUDGET", "_dense_histogram", "_sorted_histogram")}

    def spy(name):
        def wrapper(*args):
            taken.append(name)
            return saved[name](*args)
        return wrapper

    arith._dense_histogram = spy("_dense_histogram")
    arith._sorted_histogram = spy("_sorted_histogram")
    if budget is not None:
        arith._BYTE_BUDGET = budget
    try:
        yield taken
    finally:
        for name, value in saved.items():
            setattr(arith, name, value)


def test_sumset_routes_agree():
    # force each engine route and compare it to the dict oracle
    dense = (IntegerSet(range(0, 900, 7), "e7"), IntegerSet(range(0, 500, 3), "f3"))
    sparse = (IntegerSet(range(0, 9_000_000, 70_001), "e"), dense[1])
    big = (dense[0].shift(10**40), dense[1])
    big_sparse = (sparse[0].shift(10**40), dense[1])
    cases = [
        (dense, None, ["_dense_histogram"]),  # span below the pair count
        (dense, 1000, ["_sorted_histogram"]),  # counters over budget: chunked sort
        (sparse, None, ["_sorted_histogram"]),  # span above the pair count: one sort
        # beyond int64, object dtype takes the same routes
        (big, None, ["_dense_histogram"]),
        (big_sparse, None, ["_sorted_histogram"]),
    ]
    for (E, F), budget, route in cases:
        for lam in (Fr(1), Fr(5, 2), Fr(1, 3)):  # 1/3: duplicate floors
            oracle = _dict_histogram(E, F, lam)
            with _routes_taken(budget) as taken:
                values, counts = grid_histogram(E, F, lam)
                assert sum_scaled(E, F, lam).elements == tuple(oracle)
            assert taken == route * 2
            assert dict(zip(values.tolist(), counts.tolist())) == oracle


_value = st.one_of(
    st.integers(-300, 300),
    st.integers(-(10**6), 10**6),
    st.integers(-(2**70), 2**70),  # big integers: beyond int64 from 2**62 on
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_value, min_size=1, max_size=30),
    st.lists(_value, min_size=1, max_size=30),
    st.one_of(
        st.fractions(min_value=Fr(1, 50), max_value=Fr(1)),  # duplicate floors
        st.fractions(min_value=Fr(1, 10**6), max_value=Fr(10**3), max_denominator=10**15),
    ),
    st.sampled_from([None, 400, 1]),  # byte budgets: default, chunked sort, one row per chunk
)
def test_grid_histogram_matches_dict(xs, ys, lam, budget):
    E, F = IntegerSet(xs, "e"), IntegerSet(ys, "f")
    with _routes_taken(budget):
        values, counts = grid_histogram(E, F, lam)
    oracle = _dict_histogram(E, F, lam)
    assert dict(zip(values.tolist(), counts.tolist())) == oracle
    assert list(values.tolist()) == list(oracle)
    assert counts.dtype.kind == "u" and int(counts.max()) <= len(F)
    total = len(E) * len(F)
    assert grid_energy(counts, total) == sum(c * c for c in oracle.values())


def test_grid_energy_object_fallback():
    counts = np.array([2**32 - 1, 3], dtype=np.uint32)
    total = 2**40  # total * max(count) reaches 2**63: summed on Python ints
    assert grid_energy(counts, total) == (2**32 - 1) ** 2 + 9
    assert grid_energy(np.array([], dtype=np.uint8), 0) == 0


def test_sumset_bigint_route():
    E = IntegerSet([10**40, 10**40 + 5], "be")
    F = IntegerSet([0, 3], "bf")
    S = sumset(E, F)
    assert S.elements == (10**40, 10**40 + 3, 10**40 + 5, 10**40 + 8)


def test_sumset_size_guard():
    E = IntegerSet(range(200), "e")
    with pytest.raises(SizeGuardError, match="200 x 200"):
        sumset(E, E, max_pairs=10_000)
    with pytest.raises(ValueError, match="nonempty"):
        sumset(E, IntegerSet([], "empty"))


def test_sum_scaled_identity_lambda():
    E = IntegerSet([1, 5, 9], "e")
    F = IntegerSet([0, 2, 11], "f")
    assert sum_scaled(E, F, 1).elements == sumset(E, F).elements


def test_sum_scaled_rational_lambda():
    E = IntegerSet([0], "zero")
    F = IntegerSet([1, 2, 3, 4], "f")
    S = sum_scaled(E, F, Fr(3, 2))
    assert S.elements == (1, 3, 4, 6)


def test_star_subsequence_selection():
    E = IntegerSet([n * n for n in range(1, 50)], "squares")
    F = IntegerSet([1, 4, 9, 16, 25, 36], "idx")
    S = star(E, F)
    assert S.elements == (1, 16, 81, 256, 625, 1296)  # fourth powers
    assert "skipped=0" in S.provenance


def test_star_skips_out_of_range():
    E = IntegerSet([10, 20, 30], "e")
    F = IntegerSet([2, 3, 7, 9], "f")
    S = star(E, F)
    assert S.elements == (20, 30)
    assert "skipped=2" in S.provenance


def test_star_all_out_of_range():
    E = IntegerSet([10, 20], "e")
    F = IntegerSet([5, 6], "f")
    with pytest.raises(ValueError, match="empty star product"):
        star(E, F)
    with pytest.raises(ValueError, match="empty star product"):
        star(IntegerSet([], "none"), F)


def test_asymptotic_check_interleaving():
    E = IntegerSet([n * n for n in range(1, 100)], "sq")
    F = IntegerSet([n * n + n for n in range(1, 80)], "shifted")
    rep = asymptotic_check(E, F, 1)
    assert rep  # n^2 <= n^2+n <= (n+1)^2
    assert rep.n_start == 2 and rep.n_stop == 79
    bad = asymptotic_check(E, F, 0)
    assert not bad
    assert bad.first_violation == 1  # b_1 = 2 > a_1 = 1


def test_asymptotic_check_window_errors():
    E = IntegerSet([1, 2, 3], "e")
    F = IntegerSet([1, 2, 3], "f")
    with pytest.raises(ValueError, match="window too short"):
        asymptotic_check(E, F, 5)
    with pytest.raises(ValueError, match="offset"):
        asymptotic_check(E, F, -1)
