"""IntegerSet container and .zset persistence."""

import pytest
from hypothesis import given, settings, strategies as st

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


def test_interval_intersect():
    assert Interval(0, 10).intersect(Interval(5, 20)) == Interval(5, 10)
    assert Interval(0, 5).intersect(Interval(5, 9)) is None


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
