"""IntegerSet container and .zset persistence."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zdim.intset as intset
from zdim.intset import IntegerSet, Interval, ZsetFormatError, read_zset, write_zset


def test_interval_basics():
    I = Interval(0, 10)
    assert I.length == 10
    assert 1 in I and 10 in I
    assert 0 not in I and 11 not in I
    assert str(I) == "(0, 10]"


def test_interval_rejects_empty():
    with pytest.raises(ValueError):
        Interval(5, 5)
    with pytest.raises(ValueError):
        Interval(5, 4)


def test_set_from_distinct_array_keeps_its_sorted_copy():
    # one int64 copy to sort and the run-start mask, no masked copy
    xs = np.random.default_rng(1).permutation(200_000).astype(np.int64)
    tracemalloc.start()
    try:
        E = IntegerSet(xs, "t")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(E._array(), np.arange(200_000))
    assert peak <= xs.nbytes + len(xs) + (16 << 10), peak


def test_set_dedups_and_sorts():
    E = IntegerSet([3, 1, 2, 3, 1], "t")
    assert E.elements == (1, 2, 3)
    assert len(E) == 3
    assert 2 in E and 4 not in E


def test_restrict_and_hull():
    E = IntegerSet(range(1, 101), "r")
    R = E.restrict(Interval(10, 20))
    assert R.elements == tuple(range(11, 21))
    assert E.hull() == Interval(0, 100)


def test_count_in_half_open():
    E = IntegerSet([1, 5, 10], "c")
    assert E.count_in(Interval(0, 10)) == 3
    assert E.count_in(Interval(1, 10)) == 2  # lo itself excluded
    assert E.count_in(Interval(5, 9)) == 0


@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=60), st.integers(-10**6, 10**6), st.integers(1, 10**6), st.integers(1, 10**6))
def test_count_in_additive_on_split(xs, lo, d1, d2):
    E = IntegerSet(xs, "h")
    mid, hi = lo + d1, lo + d1 + d2
    whole = E.count_in(Interval(lo, hi))
    assert whole == E.count_in(Interval(lo, mid)) + E.count_in(Interval(mid, hi))


def test_shift_reflect():
    E = IntegerSet([1, 4, 9], "s")
    assert E.shift(10).elements == (11, 14, 19)
    assert E.reflect().elements == (-9, -4, -1)


def test_zset_roundtrip(tmp_path):
    E = IntegerSet([-5, 0, 7, 10**40], "roundtrip demo")
    p = tmp_path / "a.zset"
    write_zset(E, str(p))
    F = read_zset(str(p))
    assert F.elements == E.elements
    assert F.provenance == "roundtrip demo"


_PROVENANCE = st.text(st.sampled_from("ab λ(),/+-_09"), min_size=1).map(str.strip).filter(bool)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(-(10**30), 10**30), max_size=30),
    _PROVENANCE,
    st.booleans(),
    st.booleans(),
    st.data(),
)
def test_zset_roundtrip_tolerant_reader(tmp_path_factory, xs, prov, bom, crlf, data):
    E = IntegerSet(xs, prov)
    p = tmp_path_factory.mktemp("z") / "a.zset"
    write_zset(E, str(p))
    lines = ["#zset v1", f"#provenance {prov}"] + [str(x) for x in E.elements]
    assert p.read_bytes() == "".join(f"{line}\n" for line in lines).encode("utf-8")
    # the same set as another tool may write it: a BOM, CRLF line
    # endings, "+5", blank and whitespace-only lines
    body = []
    for x in E.elements:
        body.append(f"+{x}" if x >= 0 and data.draw(st.booleans()) else str(x))
        body += data.draw(st.lists(st.sampled_from(["", " ", "\t", "  \t "]), max_size=2))
    eol = "\r\n" if crlf else "\n"
    text = "".join(f"{line}{eol}" for line in lines[:2] + body)
    p.write_bytes(("\ufeff" if bom else "").encode("utf-8") + text.encode("utf-8"))
    F = read_zset(str(p))
    assert F.elements == E.elements
    assert F.provenance == prov


def test_zset_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.zset"
    p.write_text("nope\n1\n2\n")
    with pytest.raises(ZsetFormatError) as ei:
        read_zset(str(p))
    assert ei.value.line == 1


def test_zset_rejects_nonincreasing(tmp_path):
    p = tmp_path / "dec.zset"
    p.write_text("#zset v1\n5\n5\n")
    with pytest.raises(ZsetFormatError) as ei:
        read_zset(str(p))
    assert ei.value.line == 3


def test_zset_rejects_garbage_line(tmp_path):
    p = tmp_path / "g.zset"
    p.write_text("#zset v1\n1\ntwo\n")
    with pytest.raises(ZsetFormatError) as ei:
        read_zset(str(p))
    assert ei.value.line == 3


def test_empty_set_behavior():
    E = IntegerSet([], "empty")
    assert len(E) == 0
    with pytest.raises(ValueError):
        E.hull()


# ---------------------------------------------------------------------------
# array storage against a tuple oracle

_LIMIT = 2**62  # elements strictly inside +-2**62 are stored as int64
_EDGES = [
    e + d
    for e in (0, _LIMIT, -_LIMIT, 2**63, -(2**63), 10**30, -(10**30))
    for d in (-2, -1, 0, 1)
]
_VALUES = st.one_of(
    st.integers(-50, 50), st.sampled_from(_EDGES), st.integers(-(2**70), 2**70)
)
_SHIFTS = st.one_of(
    st.integers(-5, 5),
    st.sampled_from([_LIMIT, -_LIMIT, 2**63, 10**30]).flatmap(
        lambda c: st.integers(-3, 3).map(lambda d: c + d)
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_VALUES, max_size=25),
    st.booleans(),
    st.lists(_VALUES, max_size=5),
    _VALUES,
    _VALUES,
    _SHIFTS,
)
def test_array_set_matches_tuple_oracle(xs, numpy_ints, probes, lo, hi, c):
    want = tuple(sorted(set(xs)))
    if numpy_ints:  # numpy ints where they fit, in an array when all do
        xs = [np.int64(x) if -(2**63) <= x < 2**63 else x for x in xs]
        if all(isinstance(x, np.int64) for x in xs):
            xs = np.array(xs, dtype=np.int64)
    E = IntegerSet(xs, "p")
    assert E.elements == want and all(type(x) is int for x in E.elements)
    assert len(E) == len(want) and list(E) == list(want)
    fits = all(-_LIMIT < x < _LIMIT for x in want)
    assert E._array().dtype == (np.int64 if fits else object)
    if want:
        assert E.hull() == Interval(want[0] - 1, want[-1])
    else:
        with pytest.raises(ValueError):
            E.hull()
    for x in probes + list(want) + [lo, hi]:
        assert (x in E) == (x in want)
    if lo < hi:
        inside = tuple(x for x in want if lo < x <= hi)
        assert E.count_in(Interval(lo, hi)) == len(inside)
        R = E.restrict(Interval(lo, hi))
        assert R.elements == inside
        assert R == IntegerSet(inside) and hash(R) == hash(IntegerSet(inside))
    S = E.shift(c)
    assert S.elements == tuple(x + c for x in want)
    assert S._array().dtype == (
        np.int64 if all(-_LIMIT < x + c < _LIMIT for x in want) else object
    )
    assert S.shift(-c) == E and hash(S.shift(-c)) == hash(E)
    assert (S == E) == (c == 0 or not want)
    assert E.reflect().elements == tuple(-x for x in reversed(want))
    assert E.reflect().reflect() == E
    F = IntegerSet(list(reversed(want)) * 2, "q")
    assert F == E and hash(F) == hash(E)
    assert F != IntegerSet(want + (max(want, default=0) + 1,))
    # the trusted constructor picks the storage dtype from the elements
    T = IntegerSet.from_sorted_array(np.array(want, dtype=object), "t")
    assert T == E and T._array().dtype == E._array().dtype
    with pytest.raises(AttributeError):
        E.elements = want


def test_storage_is_one_read_only_array():
    E = IntegerSet.from_sorted_array(np.arange(5, dtype=np.int64), "a")
    assert not hasattr(E, "__dict__") and E._array().dtype == np.int64
    with pytest.raises(ValueError):
        E._array()[0] = 7
    big = IntegerSet.from_sorted_array(np.array([0, 2**62], dtype=np.int64), "b")
    assert big._array().dtype == object
    assert big.elements == (0, 2**62) and type(big.elements[1]) is int
    assert IntegerSet([2**62, -3]).shift(-(2**62)).elements == (-(2**62) - 3, 0)


def _refuse_tuple(self):
    raise AssertionError("the element tuple was built")


def test_sweep_and_reader_build_no_tuple(tmp_path, monkeypatch):
    from zdim.arithmetic import floor_scale, star, sumset
    from zdim.generators import TransitionMatrix, cantor_set
    from zdim.marstrand import LambdaWindow, collision_stats, sweep

    E = IntegerSet([n * n for n in range(1, 300)], "sq")
    F = IntegerSet(range(0, 600, 3), "ap")
    p = tmp_path / "e.zset"
    write_zset(E, str(p))
    # big integers: a base-8192 Cantor set (sparse, the sorted route) and a
    # shifted progression (dense, the dense route), both object dtype
    C = cantor_set(TransitionMatrix.full(4), 5, base=8192)
    G = IntegerSet(range(0, 30, 3), "g")
    B = G.shift(10**30)
    I = IntegerSet([1, 7, len(C), len(C) + 1, 10**30], "idx")  # two out of range
    monkeypatch.setattr(IntegerSet, "elements", property(_refuse_tuple))
    rep = sweep(E, F, LambdaWindow(Fraction(1), Fraction(2)), samples=3, seed=5)
    assert len(rep.records) == 3
    write_zset(E, str(p))
    assert read_zset(str(p)) == E

    lam = Fraction(7, 3)
    for S in (C, B):
        assert S._array().dtype == object
        assert list(sumset(S, G)) == sorted({a + b for a in S for b in G})
        assert list(floor_scale(S, lam)) == sorted({x * 7 // 3 for x in S})
    cs = list(C)
    assert list(star(C, I)) == [cs[0], cs[6], cs[-1]]
    assert list(star(B, I)) == [10**30, 10**30 + 18]  # indices 1 and 7
    report = collision_stats(C, B, lam)
    assert report.values == tuple(sorted({a + b * 7 // 3 for a in C for b in B}))


# ---------------------------------------------------------------------------
# the reader against the line loop


def _loop_reader(path):
    """The line-by-line reader, as an oracle: (elements, provenance)."""
    with open(path, encoding="utf-8-sig") as fh:
        if fh.readline().strip() != "#zset v1":
            raise ZsetFormatError("missing '#zset v1' header", 1)
        elements, provenance, prev = [], "unspecified", None
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith("#provenance"):
                    provenance = line[len("#provenance"):].strip() or provenance
                continue
            try:
                x = int(line)
            except ValueError:
                raise ZsetFormatError(f"not an integer: {line!r}", lineno) from None
            if prev is not None and x <= prev:
                raise ZsetFormatError(
                    f"elements not strictly increasing ({x} after {prev})", lineno
                )
            prev = x
            elements.append(x)
    return tuple(elements), provenance


def _outcome(read, path):
    try:
        got = read(path)
    except ZsetFormatError as e:
        return "error", str(e), e.line
    if isinstance(got, IntegerSet):
        got = got.elements, got.provenance
    return got


_STEPS = st.one_of(
    st.integers(1, 9), st.sampled_from([2**62, 2**63, 10**30]), st.sampled_from([0, -4])
)
# how an element is written: plainly (twice as often), with digit groups,
# followed by a comment, or as a float (numpy < 2's loadtxt reads "5.0" as 5)
_FORMATS = st.sampled_from(["{}", "{}", "{:_}", "{} # c", "{}.0"])
_ODD_LINES = st.sampled_from(
    ["", "   ", "\t", "# note", "#provenance mid-body", "x7", "1.5", "-", "12 3", "1_000"]
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.tuples(_STEPS, _FORMATS), _ODD_LINES), max_size=40))
def test_chunked_reader_matches_line_loop(tmp_path_factory, body):
    # integers as steps from the previous one (0 and -4 break the order),
    # mixed with comments, blank lines and bad tokens
    lines, x = ["#zset v1", "#provenance top"], -20
    for item in body:
        if isinstance(item, tuple):
            x += item[0]
            item = item[1].format(x)
        lines.append(item)
    p = tmp_path_factory.mktemp("z") / "a.zset"
    p.write_text("".join(f"{line}\n" for line in lines))
    assert _outcome(read_zset, str(p)) == _outcome(_loop_reader, str(p))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "text, want",
    [
        ("#zset v1\r#provenance cr\r1\r\r 5 \r+9\r", ((1, 5, 9), "cr")),
        ("#zset v1\r1\rx\r", ("error", "line 3: not an integer: 'x'", 3)),
        (
            "\ufeff#zset v1\n# c\n\n#provenance p\n  \n#provenance q\n3\n4\n",
            ((3, 4), "q"),
        ),
        ("#zset v1\n", ((), "unspecified")),
        ("#zset v1", ((), "unspecified")),
        ("#zset v1\n#provenance e\n", ((), "e")),
        ("#zset v1\n\n  \n\t\n", ((), "unspecified")),
        ("#zset v1\n1 2\n", ("error", "line 2: not an integer: '1 2'", 2)),
    ],
    ids=["cr", "cr-error", "bom-top-block", "empty", "no-newline", "provenance-only",
         "blank-only", "two-tokens"],
)
def test_reader_file_cases_match_line_loop(tmp_path, text, want):
    p = tmp_path / "a.zset"
    p.write_bytes(text.encode("utf-8"))
    assert _outcome(_loop_reader, str(p)) == want
    assert _outcome(read_zset, str(p)) == want


def _refuse_line_loop(fh):
    raise AssertionError("the line loop read a plain body")


@pytest.mark.parametrize("chunk", [3, 1 << 16])
def test_reader_past_its_first_chunk(tmp_path, monkeypatch, chunk):
    # chunk scales the body: every case below sits past line 2 * chunk of
    # a 3 * chunk + 10 line body, so the large size puts it deep in a body
    # of about 200,000 lines, far past any buffer numpy's parser reads in
    n = 3 * chunk + 10
    at = 2 * chunk + 5
    base = [str(3 * i) for i in range(n)]

    def read_with(i, text):
        lines = ["#zset v1", "#provenance p"] + base[:i] + text + base[i:]
        path = tmp_path / "a.zset"
        path.write_text("".join(f"{line}\n" for line in lines))
        return read_zset(str(path))

    with monkeypatch.context() as mp:  # a plain body never takes the line loop
        mp.setattr(intset, "_parse_lines", _refuse_line_loop)
        E = read_with(n, [])
        assert E.elements == tuple(range(0, 3 * n, 3)) and E._array().dtype == np.int64
    with pytest.raises(ZsetFormatError) as ei:
        read_with(at, ["x7"])
    assert str(ei.value) == f"line {at + 3}: not an integer: 'x7'"
    with pytest.raises(ZsetFormatError) as ei:
        read_with(at, [str(3 * at - 3)])
    assert ei.value.line == at + 3
    assert str(ei.value) == (
        f"line {at + 3}: elements not strictly increasing ({3 * at - 3} after {3 * at - 3})"
    )
    E = read_with(at, ["# mid-body comment", "", "  \t "])
    assert E.elements == tuple(range(0, 3 * n, 3)) and E.provenance == "p"
    assert E._array().dtype == np.int64
    for big in (2**62, 2**63 - 1, 10**30):
        E = read_with(n, [str(big)])
        assert E.elements == tuple(range(0, 3 * n, 3)) + (big,)
        assert E._array().dtype == object
