"""The byte guard: a call refuses before it allocates, or stays in budget.

sumset, collision_stats and delta_exact run under a small _BYTE_BUDGET
with tracemalloc on.  Each call either raises SizeGuardError before its
grid or event arrays exist, or returns the oracle's answer with a traced
peak within the budget.  Both allow SLACK bytes for what no guard
charges: the copies of the operands, Python objects and small
temporaries.  An accepted delta_exact allows DELTA_SLACK bytes, for its
arrays of one entry per pair; its fixed working sets, route one's
chunk of cells and route two's block of events, are charged.  Route
one's band of differences is chunked to fit the budget plus SLACK
beside its running histogram, and refused when that histogram leaves
no room, on int64 and big-integer elements alike.  The inputs stay
small, so no example allocates more than a few MB even if a guard were
missing.
"""

import tracemalloc
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zdim.arithmetic as arithmetic
import zdim.marstrand as marstrand
from zdim.arithmetic import SizeGuardError, sumset
from zdim.intset import IntegerSet
from zdim.marstrand import LambdaWindow, collision_stats, delta_exact

SLACK = 16 << 10
DELTA_SLACK = 64 << 10

_value = st.one_of(
    st.integers(-300, 300),  # dense grids, duplicate floors
    st.integers(-(10**9), 10**9),  # sparse grids
    st.integers(-(2**70), 2**70),  # object dtype, of narrow or wide spans
)
_set = st.lists(_value, min_size=1, max_size=40).map(lambda xs: IntegerSet(xs, "e"))
_lam = st.one_of(
    st.fractions(min_value=Fr(1, 50), max_value=Fr(1)),  # lambda < 1, duplicate floors
    st.fractions(min_value=Fr(1, 10**3), max_value=Fr(10**3), max_denominator=10**6),
)
_budget = st.integers(1 << 8, 1 << 18)


def _traced(budget, call, *args, slack=SLACK):
    """call(*args) under the budget: its result, or its refusal, checked
    against its traced peak."""
    saved = arithmetic._BYTE_BUDGET
    arithmetic._BYTE_BUDGET = budget
    tracemalloc.start()
    try:
        try:
            result = call(*args)
        except SizeGuardError as refusal:
            result = refusal
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        arithmetic._BYTE_BUDGET = saved
    if isinstance(result, SizeGuardError):
        assert f"> {budget})" in str(result)  # the message names the limit
        assert peak < SLACK, (str(result), peak)
    else:
        assert peak <= budget + slack, (budget, peak)
    return result


def _histogram(E, F, lam):
    hist = {}
    for a in E.elements:
        for b in F.elements:
            v = a + b * lam.numerator // lam.denominator
            hist[v] = hist.get(v, 0) + 1
    return dict(sorted(hist.items()))


@settings(max_examples=200, deadline=None)
@given(_set, _set, _lam, _budget)
def test_grid_callers_refuse_or_fit_the_budget(E, F, lam, budget):
    hist = _histogram(E, F, lam)
    S = _traced(budget, sumset, E, F)
    if not isinstance(S, SizeGuardError):
        assert S.elements == tuple(sorted({a + b for a in E.elements for b in F.elements}))
    col = _traced(budget, collision_stats, E, F, lam)
    if not isinstance(col, SizeGuardError):
        assert col.histogram == hist
        assert col.energy == sum(c * c for c in hist.values())


_sparse = st.one_of(st.integers(-(10**6), 10**6), st.integers(-(2**70), 2**70))
_window = st.tuples(
    st.fractions(min_value=Fr(1, 12), max_value=Fr(3), max_denominator=12),
    st.fractions(min_value=Fr(1, 12), max_value=Fr(3), max_denominator=12),
).filter(lambda w: w[0] != w[1]).map(lambda w: LambdaWindow(min(w), max(w)))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(_sparse, min_size=1, max_size=40).map(lambda xs: IntegerSet(xs, "e")),
    st.lists(st.integers(-300, 300), min_size=1, max_size=3).map(lambda xs: IntegerSet(xs, "f")),
    _window,
    st.integers(1 << 8, 1 << 20),
)
def test_delta_refuses_or_fits_the_budget(E, F, window, budget):
    rep = _traced(budget, delta_exact, E, F, window, slack=DELTA_SLACK)
    if not isinstance(rep, SizeGuardError):
        assert rep.agreement  # the two routes share nothing but the input


_SPARSE_E = IntegerSet(np.random.default_rng(0).choice(10**6, 100, replace=False).tolist(), "e")


@pytest.mark.parametrize(
    "E, F, window",
    [
        # 10,000 coarse cells (chunks of _DELTA_CHUNK) and 50,000 events
        # (blocks of _QUAD_BLOCK): full-size working sets, int64 cells
        (_SPARSE_E, IntegerSet([5000, 20000], "f"), LambdaWindow(1, 3)),
        # difference cells of slopes 9000 < 15000
        (_SPARSE_E, IntegerSet([9000, 15000], "f"), LambdaWindow(1, 3)),
        # cell terms past int64: object cells
        (_SPARSE_E, IntegerSet([5 * 10**12, 2 * 10**13], "f"),
         LambdaWindow(1, Fr(10**9 + 1, 10**9))),
        # |E| > _QUAD_ROWS: route two applies one event at a time
        (IntegerSet(range(0, 4000, 20), "e"), IntegerSet([1, 997], "f"), LambdaWindow(1, 2)),
    ],
)
def test_delta_fits_its_charge(E, F, window, monkeypatch):
    # delta_exact charges its events, its counters and both routes' fixed
    # working sets: admitted at exactly that charge, it stays within it,
    # and one byte less is refused
    charges = []

    def spy(what, count, unit, unit_bytes, hint, base=0):
        if what == "delta window too wide":
            charges.append(base + count * unit_bytes)
        return refuse(what, count, unit, unit_bytes, hint, base)

    refuse = marstrand._refuse_over_budget
    monkeypatch.setattr(marstrand, "_refuse_over_budget", spy)
    want = delta_exact(E, F, window)
    charge = charges[-1]
    assert want.agreement
    assert _traced(charge, delta_exact, E, F, window, slack=DELTA_SLACK) == want
    monkeypatch.setattr(arithmetic, "_BYTE_BUDGET", charge - 1)
    with pytest.raises(SizeGuardError) as refusal:
        delta_exact(E, F, window)
    assert f"{charge} bytes > {charge - 1})" in str(refusal.value)


def test_band_histogram_fits_the_budget(monkeypatch):
    # a dense E and F = {0, 50} over (1, 2] put about 3000 * 101 differences
    # in route one's band, several chunks at this budget; one chunk of them
    # all would take about 19 MB
    E, F = IntegerSet(range(3000), "e"), IntegerSet([0, 50], "f")
    budget = 2 << 20
    band, peaks = marstrand._band_histogram, []

    def traced_band(xs, bound):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = band(xs, bound)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return out

    monkeypatch.setattr(marstrand, "_band_histogram", traced_band)
    monkeypatch.setattr(arithmetic, "_BYTE_BUDGET", budget)
    tracemalloc.start()
    try:
        rep = delta_exact(E, F, LambdaWindow(1, 2))
    finally:
        tracemalloc.stop()
    assert rep.agreement
    assert len(peaks) == 1 and peaks[0] <= budget + SLACK, peaks


def test_object_band_fits_the_budget(monkeypatch):
    # big-integer elements make every difference a new Python int, which
    # the chunks must be sized for as well as the array slots; the int64
    # copy of the same gaps peaks at about half the budget
    xs = IntegerSet([10**30 + 1000 * k for k in range(3000)], "e")._array()
    assert xs.dtype == object
    budget = 2 << 20
    monkeypatch.setattr(arithmetic, "_BYTE_BUDGET", budget)
    tracemalloc.start()
    try:
        values, counts = marstrand._band_histogram(xs, 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.tolist() == list(range(0, 10**5 + 1, 1000))
    assert counts.tolist() == [3000 - k for k in range(101)]
    assert peak <= budget + SLACK, peak


def test_band_running_histogram_fits_the_budget(monkeypatch):
    # about 500,000 differences of up to 1000 values, over many chunks at
    # this budget: the running histogram is charged beside each chunk
    # (each chunk's kept part passed the budget by about 100 KB before)
    budget = 1 << 20
    monkeypatch.setattr(arithmetic, "_BYTE_BUDGET", budget)
    tracemalloc.start()
    try:
        values, counts = marstrand._band_histogram(np.arange(1000), 999)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.tolist() == list(range(1000))
    assert counts.tolist() == [1000 - k for k in range(1000)]
    assert peak <= budget + SLACK, peak
    # a budget the running histogram of 1000 values fills is refused
    monkeypatch.setattr(arithmetic, "_BYTE_BUDGET", 1000 * marstrand._BAND_HELD_BYTES)
    with pytest.raises(SizeGuardError, match=r"difference band too large \(1000 kept differences"):
        marstrand._band_histogram(np.arange(1000), 999)
