"""Arithmetic on integer sets: floor dilation, sumsets, star products."""

import tracemalloc
from contextlib import contextmanager
from fractions import Fraction as Fr
from types import SimpleNamespace

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
def _routes_taken():
    """Record which engine routes run, how many sorts the sorted route
    makes, the progression factors and factor-free core the dense route
    peels from E, and how many full factor tests it runs."""
    taken = SimpleNamespace(routes=[], sorts=0, factors=[], cores=[], peels=0)
    saved = {name: getattr(arith, name) for name in
             ("_dense_histogram", "_sorted_histogram", "_sorted_runs",
              "_progression_factors", "_peel")}

    def spy(name):
        def wrapper(*args):
            taken.routes.append(name)
            return saved[name](*args)
        return wrapper

    def count_sort(*args):
        taken.sorts += 1
        return saved["_sorted_runs"](*args)

    def record_factors(x):
        core, factors = saved["_progression_factors"](x)
        taken.factors.append(factors)
        taken.cores.append(core)
        return core, factors

    def count_peel(*args):
        taken.peels += 1
        return saved["_peel"](*args)

    arith._dense_histogram = spy("_dense_histogram")
    arith._sorted_histogram = spy("_sorted_histogram")
    arith._sorted_runs = count_sort
    arith._progression_factors = record_factors
    arith._peel = count_peel
    try:
        yield taken
    finally:
        for name, value in saved.items():
            setattr(arith, name, value)


def _dense_charge(E, F, lam, c):
    """The dense route's charge: the operands' relative int64 copies, the
    factor peel, and 8 + 2c bytes per value of the span."""
    lam = Fr(lam)
    floors = {b * lam.numerator // lam.denominator for b in F.elements}
    span = max(E.elements) + max(floors) - min(E.elements) - min(floors) + 1
    base = 8 * (len(E) + len(floors)) + arith._FACTOR_BYTES * max(len(E), arith._FACTOR_SAMPLE)
    return span, base + span * (8 + 2 * c)


def test_sumset_routes_agree():
    # force each engine route and compare it to the dict oracle
    dense = (IntegerSet(range(0, 900, 7), "e7"), IntegerSet(range(0, 500, 3), "f3"))
    sparse = (IntegerSet(range(0, 9_000_000, 70_001), "e"), dense[1])
    big = (dense[0].shift(10**40), dense[1])
    big_sparse = (sparse[0].shift(10**40), dense[1])
    wide = (IntegerSet(range(0, 40 * 10**20, 10**20), "wide"), dense[1])
    cases = [
        (dense, ["_dense_histogram"]),  # span below the pair count
        (sparse, ["_sorted_histogram"]),  # span above the pair count
        # beyond int64, object dtype takes the same routes
        (big, ["_dense_histogram"]),
        (big_sparse, ["_sorted_histogram"]),
        # a span of 2**62 or more: Python-int sums
        (wide, ["_sorted_histogram"]),
    ]
    for (E, F), route in cases:
        for lam in (Fr(1), Fr(5, 2), Fr(1, 3)):  # 1/3: duplicate floors
            oracle = _dict_histogram(E, F, lam)
            operands = (E._array(), F._array())
            before = [a.copy() for a in operands]
            with _routes_taken() as taken:
                values, counts = grid_histogram(E, F, lam)
                assert sum_scaled(E, F, lam).elements == tuple(oracle)
            assert taken.routes == route * 2
            # the sorted route makes one sort per grid, the dense route none
            assert taken.sorts == 2 * (route == ["_sorted_histogram"])
            assert dict(zip(values.tolist(), counts.tolist())) == oracle
            assert counts.dtype == np.min_scalar_type(len(F))
            # the values are shifted in place: never in an operand's memory
            for a, b in zip(operands, before):
                assert np.array_equal(a, b) and not np.shares_memory(values, a)


def test_grid_histogram_refuses_counters_over_budget(monkeypatch):
    # the dense grid of test_sumset_routes_agree, whose uint8 counters,
    # nonzero indices and counts take 10 bytes per value of the span, on
    # top of the operands' copies and the factor peel
    E, F = IntegerSet(range(0, 900, 7), "e7"), IntegerSet(range(0, 500, 3), "f3")
    monkeypatch.setattr(arith, "_BYTE_BUDGET", 1000)
    for lam in (Fr(1), Fr(5, 2), Fr(1, 3)):
        span, charge = _dense_charge(E, F, lam, 1)
        message = rf"grid histogram too large \({span} counters, {charge} bytes > 1000\)"
        with _routes_taken() as taken, pytest.raises(SizeGuardError, match=message):
            grid_histogram(E, F, lam)
        assert taken.routes == [] and taken.factors == []  # refused before any allocates


_F_1200 = IntegerSet(range(1200), "f1200")  # 400 floors, each 3 times, at lam = 1/3


@pytest.mark.parametrize("E", [
    IntegerSet(range(0, 400 * 10**4, 10**4), "int64"),
    IntegerSet(range(10**30, 10**30 + 400 * 10**4, 10**4), "narrow"),  # object, int64 sums
    IntegerSet(range(0, 400 * 10**20, 10**20), "wide"),  # object sums: span past 2**62
], ids=lambda E: E.provenance)
def test_sorted_route_fits_its_charge(monkeypatch, E):
    # 160,000 distinct sums with weights, so every entry of the one sort
    # is live at its peak; the budget is the route's charge, to the byte
    lam = Fr(1, 3)
    oracle = _dict_histogram(E, _F_1200, lam)
    pairs, c = len(E) * 400, np.min_scalar_type(len(_F_1200)).itemsize
    dtype = E._array().dtype
    extra = arith._object_bytes(dtype, min(oracle), max(oracle))
    span = max(oracle) - min(oracle) + 1
    # below a span of 2**62, the operands' relative int64 copies; the
    # object one passes through a Python int per element
    copies = 0 if span >= 2**62 else 400 * (16 + arith._object_bytes(dtype, span))
    charge = copies + pairs * (3 * (8 + c) + 16 + extra)
    monkeypatch.setattr(arith, "_BYTE_BUDGET", charge - 1)
    with pytest.raises(SizeGuardError, match=rf"\({pairs} pairs, {charge} bytes > {charge - 1}\)"):
        grid_histogram(E, _F_1200, lam)
    monkeypatch.setattr(arith, "_BYTE_BUDGET", charge)
    with _routes_taken() as taken:
        tracemalloc.start()
        try:
            values, counts = grid_histogram(E, _F_1200, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert taken.routes == ["_sorted_histogram"] and taken.sorts == 1
    assert peak <= charge + (16 << 10), (charge, peak)
    assert dict(zip(values.tolist(), counts.tolist())) == oracle


_F_90 = IntegerSet(range(90), "f90")  # 30 floors, each 3 times, at lam = 1/3
_BASE8 = IntegerSet(  # {0} + the progressions 8**i * {0..3}, i < 6
    (np.arange(4096)[:, None] >> 2 * np.arange(6) & 3) @ 8 ** np.arange(6), "base8"
)


@pytest.mark.parametrize("E, factors", [
    (_BASE8, [(8**i, 4) for i in range(6)]),
    # as many elements in the same span, drawn at random: no factor
    (IntegerSet(np.random.default_rng(7).choice(112_348, 4096, replace=False), "random"), []),
], ids=lambda x: getattr(x, "provenance", ""))
def test_dense_route_fits_its_charge(monkeypatch, E, factors):
    # weighted floors over a span of about 112,000 uint8 counters; the
    # budget is the route's charge, to the byte
    lam = Fr(1, 3)
    oracle = _dict_histogram(E, _F_90, lam)
    span, charge = _dense_charge(E, _F_90, lam, 1)
    monkeypatch.setattr(arith, "_BYTE_BUDGET", charge - 1)
    with pytest.raises(SizeGuardError, match=rf"\({span} counters, {charge} bytes > {charge - 1}\)"):
        grid_histogram(E, _F_90, lam)
    monkeypatch.setattr(arith, "_BYTE_BUDGET", charge)
    with _routes_taken() as taken:
        tracemalloc.start()
        try:
            values, counts = grid_histogram(E, _F_90, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert taken.routes == ["_dense_histogram"] and taken.factors == [factors]
    assert peak <= charge + (16 << 10), (charge, peak)
    assert dict(zip(values.tolist(), counts.tolist())) == oracle


def test_sets_without_factors_run_no_full_test():
    # a million random elements at density 1/3: the sample rules out
    # every candidate step, so no step costs a sort of E
    rng = np.random.default_rng(11)
    E = IntegerSet(np.flatnonzero(rng.random(3 << 20) < 1 / 3), "random")
    F = IntegerSet(range(4), "f4")
    with _routes_taken() as taken:
        values, counts = grid_histogram(E, F, 1)
    assert taken.routes == ["_dense_histogram"] and taken.factors == [[]]
    assert taken.peels == 0
    assert int(counts.sum()) == 4 * len(E)


@st.composite
def _progression_sums(draw):
    """A small set T plus up to three progressions {0, d, ..., (k - 1)*d}:
    unique sums or overlapping ones, sometimes with one element added or
    removed (runs whose lengths have gcd 1), shifted anywhere from
    negative values to big integers of a narrow span."""
    xs = set(draw(st.lists(st.integers(0, 20), min_size=1, max_size=5)))
    for _ in range(draw(st.integers(1, 3))):
        d, k = draw(st.integers(1, 12)), draw(st.integers(2, 4))
        xs = {x + j * d for x in xs for j in range(k)}
    miss = draw(st.sampled_from([None, "add", "remove"]))
    if miss == "add":
        xs.add(draw(st.integers(0, max(xs) + 10)))
    elif miss == "remove" and len(xs) > 1:
        xs.discard(draw(st.sampled_from(sorted(xs))))
    shift = draw(st.sampled_from([0, -37, -(10**6), 10**30, -(2**70)]))
    return IntegerSet([x + shift for x in xs], "sums")


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(_progression_sums(), st.lists(st.integers(-200, 200), min_size=1, max_size=40).map(
        lambda xs: IntegerSet(xs, "plain"))),
    st.lists(st.integers(-8, 8), min_size=3, max_size=17).map(lambda ys: IntegerSet(ys, "f")),
    st.one_of(
        st.fractions(min_value=Fr(1, 20), max_value=Fr(1)),  # duplicate floors, weighted
        st.fractions(min_value=Fr(1), max_value=Fr(5), max_denominator=7),
    ),
    st.sampled_from([1, 2, 3, 7, 1 << 16]),  # blocks shorter than a shift, or not
)
def test_factored_grid_matches_dict_and_scatter(E, F, lam, block):
    with _routes_taken() as taken, pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "_FOLD_BLOCK", block)
        values, counts = grid_histogram(E, F, lam)
    with pytest.MonkeyPatch.context() as mp:  # the scatter of all of E
        mp.setattr(arith, "_progression_factors", lambda x: (x, []))
        plain = grid_histogram(E, F, lam)
    oracle = _dict_histogram(E, F, lam)
    assert dict(zip(values.tolist(), counts.tolist())) == oracle
    assert values.tolist() == plain[0].tolist() and counts.tolist() == plain[1].tolist()
    assert values.dtype == plain[0].dtype and counts.dtype == plain[1].dtype
    # the core and the factors rebuild E, each element one sum only
    for core, factors in zip(taken.cores, taken.factors):
        sums = core.tolist()
        for d, k in factors:
            sums = [x + j * d for x in sums for j in range(k)]
        assert sorted(sums) == [x - E.elements[0] for x in E.elements]


class _AddSpy:
    """np.add that records the dtype of every weight passed to np.add.at
    and of every operand and output of a plain add (the fold's)."""

    def __init__(self):
        self.weight_dtypes = set()
        self.fold_dtypes = set()

    def __getattr__(self, name):
        return getattr(np.add, name)

    def at(self, a, indices, b):
        self.weight_dtypes.add(np.asarray(b).dtype)
        np.add.at(a, indices, b)

    def __call__(self, a, b, out):
        self.fold_dtypes |= {a.dtype, b.dtype, out.dtype}
        return np.add(a, b, out=out)


_F_65535 = IntegerSet(range(65535), "f65535")  # every floor 0 at lam = 1/65536
_R255 = IntegerSet(range(255), "r255")


_PEELED = {"r255": [(1, 255)], "two runs": [(1, 255), (300, 2)], "01": [(1, 2)]}  # others: none


@pytest.mark.parametrize("E, F, lam, closed_form", [
    # uint8 counters: value 254 collects all 255 pairs, E = {0} + {0..254}
    (_R255, _R255, 1, None),
    # uint16, the floors as the base, array weights
    (IntegerSet([0], "zero"), _F_65535, Fr(1, 65536), {0: 65535}),
    # uint16, E = {0} + {0, 1}, the floors as the base, array weights, one fold
    (IntegerSet([0, 1], "01"), _F_65535, Fr(1, 65536), {0: 65535, 1: 65535}),
    # uint8, E = {0} + {0..254} + {0, 300}: the last fold lifts values
    # 254 and 554 to the maximum
    (IntegerSet([*range(255), *range(300, 555)], "two runs"), _R255, 1, None),
    # uint16, E (no factor) as the base, scalar weights: floors 0 and 1,
    # 32768 and 32767 times, meet on value 1
    (IntegerSet([0, 1, 3], "013"), _F_65535, Fr(1, 32768), None),
])
def test_dense_counters_reach_their_dtype_max(monkeypatch, E, F, lam, closed_form):
    factors = _PEELED.get(E.provenance, [])
    spy = _AddSpy()
    monkeypatch.setattr(arith, "np", SimpleNamespace(**{**vars(np), "add": spy}))
    with _routes_taken() as taken:
        values, counts = grid_histogram(E, F, lam)
    assert taken.routes == ["_dense_histogram"] and taken.factors == [factors]
    expected = closed_form or _dict_histogram(E, F, lam)
    assert dict(zip(values.tolist(), counts.tolist())) == expected
    assert int(counts.max()) == np.iinfo(counts.dtype).max
    assert counts.dtype == np.min_scalar_type(len(F))
    # a wider weight would take numpy's generic ufunc.at loop, and a
    # wider fold add would pass the counters' charge
    assert spy.weight_dtypes == {counts.dtype}
    assert spy.fold_dtypes == ({counts.dtype} if factors else set())
    total = len(E) * len(F)
    assert grid_energy(counts, total) == sum(c * c for c in expected.values())


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
)
def test_grid_histogram_matches_dict(xs, ys, lam):
    E, F = IntegerSet(xs, "e"), IntegerSet(ys, "f")
    with _routes_taken() as taken:
        values, counts = grid_histogram(E, F, lam)
    assert taken.sorts == (taken.routes == ["_sorted_histogram"])
    oracle = _dict_histogram(E, F, lam)
    assert dict(zip(values.tolist(), counts.tolist())) == oracle
    assert list(values.tolist()) == list(oracle)
    assert counts.dtype == np.min_scalar_type(len(F)) and int(counts.max()) <= len(F)
    total = len(E) * len(F)
    assert grid_energy(counts, total) == sum(c * c for c in oracle.values())


def test_grid_energy_object_fallback():
    counts = np.array([2**32 - 1, 3], dtype=np.uint32)
    total = 2**40  # total * max(count) reaches 2**63: summed on Python ints
    assert grid_energy(counts, total) == (2**32 - 1) ** 2 + 9
    assert grid_energy(np.array([], dtype=np.uint8), 0) == 0


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
@pytest.mark.parametrize("chunks, extra", [(1, -1), (1, 0), (1, 1), (2, 1)])
def test_grid_energy_chunk_boundaries(dtype, chunks, extra):
    # counts at the dtype's maximum, the last one in the last (partial) chunk;
    # uint32 counts that high take the Python-int sum
    n = chunks * arith._ENERGY_CHUNK + extra
    top = np.iinfo(dtype).max
    counts = np.full(n, top, dtype=dtype)
    counts[::3] = np.arange(0, n, 3) % 251
    total = int(counts.sum())
    assert grid_energy(counts, total) == sum(c * c for c in counts.tolist())


def test_grid_energy_squares_in_chunks():
    counts = np.full(2_000_000, 255, dtype=np.uint8)
    tracemalloc.start()
    try:
        energy = grid_energy(counts, 255 * len(counts))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert energy == len(counts) * 255**2
    assert peak < 4 * 2**20  # a whole int64 copy of the counts takes 16 MB


def test_sumset_bigint_route():
    E = IntegerSet([10**40, 10**40 + 5], "be")
    F = IntegerSet([0, 3], "bf")
    S = sumset(E, F)
    assert S.elements == (10**40, 10**40 + 3, 10**40 + 5, 10**40 + 8)


def test_sumset_size_guard():
    E = IntegerSet(range(200), "e")
    with pytest.raises(SizeGuardError, match=r"200 x 200 pairs > 10000\)"):
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
