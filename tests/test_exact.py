"""Integer root / power bracket primitives."""

from fractions import Fraction as Fr

import pytest
from hypothesis import given, strategies as st

from zdim.exact import ceil_pow, cmp_ratio, iroot, pow_bracket, ratio_value


def test_iroot_exact_cubes():
    assert iroot(27, 3) == 3
    assert iroot(26, 3) == 2
    assert iroot(28, 3) == 3
    assert iroot(0, 5) == 0
    assert iroot(1, 17) == 1


@given(st.integers(min_value=0, max_value=10**30), st.integers(min_value=1, max_value=12))
def test_iroot_is_floor_root(x, k):
    r = iroot(x, k)
    assert r**k <= x < (r + 1) ** k


def test_floor_ceil_pow():
    # x**(2/3) ceilings
    assert ceil_pow(8, 2, 3) == 4  # exact power stays exact
    assert ceil_pow(9, 2, 3) == 5  # 9**(2/3) = 4.326...
    assert ceil_pow(1000, 1, 2) == 32


def test_pow_bracket_exact_when_rational():
    lo, hi = pow_bracket(16, Fr(1, 2), 30)
    assert lo == hi == 4
    lo, hi = pow_bracket(16, Fr(3, 4), 30)
    assert lo == hi == 8


def test_pow_bracket_brackets_irrational():
    lo, hi = pow_bracket(2, Fr(1, 2), 30)
    assert lo < hi
    assert lo * lo <= 2 <= hi * hi
    assert hi - lo < Fr(1, 10**25)


def test_cmp_ratio_orders_exactly():
    # 3/4**(1/2) = 1.5 vs 2/2**(1/2) = sqrt 2
    assert cmp_ratio(3, 4, 2, 2, Fr(1, 2)) == 1
    assert cmp_ratio(2, 2, 3, 4, Fr(1, 2)) == -1
    # 2/4**(1/2) == 1 == 3/9**(1/2)
    assert cmp_ratio(2, 4, 3, 9, Fr(1, 2)) == 0


def test_ratio_value_matches_float():
    v = ratio_value(5, 30, Fr(1, 2))
    assert abs(float(v) - 5 / 30**0.5) < 1e-12


def test_iroot_rejects_bad_args():
    with pytest.raises(ValueError):
        iroot(-1, 2)
    with pytest.raises(ValueError):
        iroot(4, 0)
