"""Exact integer and rational helpers.

Dimension and measure computations compare quantities of the form
count / length**alpha with rational alpha.  Floating point is fine for
scanning, but ties and near-ties must be settled exactly: several of
the quantities of interest (ratios at perfect powers, contraction
factors of thinning steps) land exactly on the comparison boundary.
Everything here works on Python ints and fractions.Fraction only.
"""

from __future__ import annotations

from fractions import Fraction

EXACT_DEN_LIMIT = 64  # largest alpha denominator for integer cross-powers
_EXACT_BITS = 200_000  # largest bit length of length**numerator worth computing


def iroot(x: int, k: int) -> int:
    """Floor of the k-th root of a nonnegative integer.

    Newton iteration seeded from the bit length, so it converges in a
    few dozen steps even for thousand-digit inputs.
    """
    if x < 0:
        raise ValueError("iroot requires x >= 0")
    if k <= 0:
        raise ValueError("iroot requires k >= 1")
    if x in (0, 1) or k == 1:
        return x
    # initial overestimate: 2**ceil(bits/k) >= x**(1/k)
    r = 1 << -(-x.bit_length() // k)
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    return r


def ceil_pow(x: int, num: int, den: int) -> int:
    """ceil(x ** (num/den)) for integer x >= 0 and num, den >= 1."""
    p = x**num
    r = iroot(p, den)
    return r if r**den == p else r + 1


def pow_bracket(x: int, alpha: Fraction, digits: int) -> tuple[Fraction, Fraction]:
    """Bracket x**alpha between two rationals no more than 10**-digits apart.

    Returns (lo, hi) with lo <= x**alpha <= hi.  When x**alpha is itself
    rational and hit exactly, lo == hi.
    """
    if x < 0:
        raise ValueError("pow_bracket requires x >= 0")
    if x == 0:
        return Fraction(0), Fraction(0)
    p, q = alpha.numerator, alpha.denominator
    if p < 0:
        raise ValueError("pow_bracket requires alpha >= 0")
    scale = 10**digits
    # floor((x**p * 10**(digits*q)) ** (1/q)) / 10**digits
    m = iroot(x**p * scale**q, q)
    lo = Fraction(m, scale)
    if m**q == x**p * scale**q:
        return lo, lo
    return lo, Fraction(m + 1, scale)


def exact_feasible(length: int, alpha: Fraction) -> bool:
    """Whether cmp_ratio and pow_bracket on length**alpha stay affordable.

    True for a small denominator and a power length**numerator of at
    most _EXACT_BITS bits; callers fall back to high-precision decimals.
    """
    return (
        alpha.denominator <= EXACT_DEN_LIMIT
        and length.bit_length() * alpha.numerator <= _EXACT_BITS
    )


def cmp_ratio(
    c1: int, l1: int, c2: int, l2: int, alpha: Fraction
) -> int:
    """Exact sign of c1/l1**alpha - c2/l2**alpha.

    Counts c and lengths l are positive integers; alpha = p/q rational.
    Cross-multiplying and raising to the q-th power removes the roots:
        c1/l1**(p/q) >= c2/l2**(p/q)  <=>  c1**q * l2**p >= c2**q * l1**p.
    Returns -1, 0, or 1.
    """
    p, q = alpha.numerator, alpha.denominator
    lhs = c1**q * l2**p
    rhs = c2**q * l1**p
    if lhs > rhs:
        return 1
    if lhs < rhs:
        return -1
    return 0


def ratio_value(count: int, length: int, alpha: Fraction, digits: int = 40) -> Fraction:
    """Rational approximation of count / length**alpha, accurate to ~10**-digits."""
    if length <= 0:
        raise ValueError("length must be positive")
    lo, hi = pow_bracket(length, alpha, digits)
    if lo == 0:
        raise ValueError("length**alpha rounded to zero; raise digits")
    return (Fraction(count) / lo + Fraction(count) / hi) / 2
