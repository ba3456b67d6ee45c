"""Integer root / power bracket primitives and the window-score comparators."""

from decimal import Decimal, localcontext
from fractions import Fraction as Fr

import pytest
from hypothesis import example, given, strategies as st

from zdim.exact import cmp_log_ratio, cmp_ratio, ceil_pow, iroot, pow_bracket, ratio_value


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


def sign(x) -> int:
    return (x > 0) - (x < 0)


counts = st.integers(1, 10**6)
# denominators above EXACT_DEN_LIMIT (64) leave the integer cross powers
alphas = st.builds(Fr, st.integers(0, 300), st.integers(1, 300)).filter(lambda a: a <= 1)


@given(counts, counts, counts, counts, alphas)
@example(3, 4, 2, 2, Fr(1, 2))
@example(2, 4, 3, 9, Fr(1, 129))  # no tie: 2/3 is not a 129th power
# lengths past the cross powers' bit budget at alpha 1/2
@example(3, 2**200_001, 1, 2**199_999, Fr(1, 2))
@example(2, 2**200_001, 1, 2**199_999, Fr(1, 2))
def test_cmp_ratio_matches_cross_powers(c1, l1, c2, l2, alpha):
    p, q = alpha.numerator, alpha.denominator
    assert cmp_ratio(c1, l1, c2, l2, alpha) == sign(c1**q * l2**p - c2**q * l1**p)


@given(
    st.integers(2, 50),
    st.integers(1, 50),
    st.integers(1, 6),
    st.integers(1, 6),
    st.sampled_from([67, 101, 127, 199]),
    st.integers(1, 66),
    st.integers(-1, 1),
)
def test_cmp_ratio_settles_built_ties(k, m, a, b, q, p, nudge):
    # c1/c2 = (a/b)**p and l1/l2 = (a/b)**q tie at alpha = p/q, whose
    # prime denominator q > 64 leaves the cross powers; a count nudged by
    # one breaks the tie by far less than any float could tell
    alpha = Fr(p, q)
    c1, c2, l1, l2 = k * a**p + nudge, k * b**p, m * a**q, m * b**q
    want = sign(c1**q * l2**p - c2**q * l1**p)
    assert want == (0 if nudge == 0 else nudge)
    assert cmp_ratio(c1, l1, c2, l2, alpha) == want


def test_cmp_ratio_at_a_long_denominator_is_quick():
    # the diagnostic's own alpha-hat on E_c = resonance_sets(6)[2]: no
    # power of 10**60 to the 6.7 * 10**11 is ever formed
    alpha = Fr(660655392123, 672329544662)
    assert cmp_ratio(201, 40001, 2, 1, alpha) == -1  # 201 / 40001**alpha < 0.01
    assert cmp_ratio(2, 2, 1, 1, alpha) == 1  # 2**(1 - alpha) > 1
    assert cmp_ratio(3, 9, 3, 9, alpha) == 0
    assert cmp_ratio(2, 2, 3, 3, alpha) == -1  # 2**(1 - alpha) < 3**(1 - alpha)


def log_oracle(c1, l1, c2, l2) -> int:
    """Sign of log c1/log l1 - log c2/log l2 to 100 digits; within
    10**-80 is a tie."""
    with localcontext() as ctx:
        ctx.prec = 100
        d = Decimal(c1).ln() / Decimal(l1).ln() - Decimal(c2).ln() / Decimal(l2).ln()
        return 0 if abs(d) < Decimal(10) ** -80 else sign(d)


lengths = st.integers(2, 10**6)


@given(counts, lengths, counts, lengths)
@example(2, 3, 4, 9)  # lengths of a common base 3: the Cantor ties
@example(4, 9, 8, 27)
@example(2, 3, 8, 27)
@example(2, 4, 3, 9)  # both ratios 1/2
@example(5, 5, 7, 7)  # both ratios 1
@example(1, 2, 1, 3)  # both ratios 0
@example(2, 5, 4, 25)  # log 2 / log 5, lengths of a common base 5
def test_cmp_log_ratio_matches_oracle(c1, l1, c2, l2):
    assert cmp_log_ratio(c1, l1, c2, l2) == log_oracle(c1, l1, c2, l2)


@given(
    st.integers(2, 9), st.integers(2, 9), st.integers(1, 6), st.integers(1, 6), st.integers(2, 5)
)
def test_cmp_log_ratio_settles_power_ties(x, y, i, j, k):
    # (x**i, y**j) and (x**(i*k), y**(j*k)) share the ratio i log x / (j log y)
    c1, l1, c2, l2 = x**i, y**j, x ** (i * k), y ** (j * k)
    assert cmp_log_ratio(c1, l1, c2, l2) == 0
    assert cmp_log_ratio(c2, l2, c1, l1) == 0


@given(st.integers(1, 60), st.sampled_from([-1, 1]), st.booleans())
def test_cmp_log_ratio_near_cantor_ties(k, nudge, on_count):
    # (2**k +- 1, 3**k) or (2**k, 3**k -+ 1) against (2, 3): off the tie by
    # about 2**-k, past float precision from k = 50 on
    c, l = (2**k + nudge, 3**k) if on_count else (2**k, 3**k - nudge)
    assert cmp_log_ratio(c, l, 2, 3) == nudge == log_oracle(c, l, 2, 3)
    assert cmp_log_ratio(2, 3, c, l) == -nudge
