"""Exact integer and rational helpers, and the comparators of window scores.

Dimension and measure computations compare quantities of the form
count / length**alpha with rational alpha, and log(count)/log(length).
Floating point is fine for scanning, but ties and near-ties must be settled
exactly: several of the quantities of interest (ratios at perfect powers,
contraction factors of thinning steps) land exactly on the comparison
boundary.  Everything here works on Python ints and fractions.Fraction, and
on log brackets: Decimal.ln rounds correctly, so ln x lies within one unit
in its last place.
"""

from __future__ import annotations

import math
from decimal import Context
from fractions import Fraction
from typing import Optional

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
    """Whether integer powers of length**alpha stay affordable: a small
    denominator and length**numerator of at most _EXACT_BITS bits."""
    return (
        alpha.denominator <= EXACT_DEN_LIMIT
        and length.bit_length() * alpha.numerator <= _EXACT_BITS
    )


def _ln(x: int, digits: int) -> tuple[Fraction, Fraction]:
    """lo <= ln x <= hi, x >= 1: Decimal's ln to `digits` digits, +-1 in its last place."""
    if x == 1:
        return Fraction(0), Fraction(0)
    d = Context(prec=digits).ln(x)
    ulp = Fraction(10) ** d.as_tuple().exponent
    return Fraction(d) - ulp, Fraction(d) + ulp


def _log_form_sign(terms, max_digits: Optional[int] = None) -> Optional[int]:
    """Sign of the sum of k * ln x1 * ln x2 ... over terms (k, (x1, x2, ...)), from
    brackets of 20 digits, doubled each round; None if they hold 0 past max_digits."""
    digits = 20
    while max_digits is None or digits <= max_digits:
        lo = hi = 0
        for k, xs in terms:  # the brackets' ends are >= 0, so products bound products
            a, b = (k * math.prod(ends) for ends in zip(*(_ln(x, digits) for x in xs)))
            lo, hi = lo + min(a, b), hi + max(a, b)
        if lo > 0 or hi < 0:
            return 1 if lo > 0 else -1
        digits *= 2
    return None


def cmp_ratio(
    c1: int, l1: int, c2: int, l2: int, alpha: Fraction
) -> int:
    """Exact sign of c1/l1**alpha - c2/l2**alpha.

    Counts c and lengths l are positive integers; alpha = p/q rational.
    When exact_feasible allows, cross-multiplying and raising to the
    q-th power removes the roots:
        c1/l1**(p/q) >= c2/l2**(p/q)  <=>  c1**q * l2**p >= c2**q * l1**p.
    Otherwise, p and q being coprime, a tie holds exactly when c1/c2 = r**p
    and l1/l2 = r**q for one rational r, tested by integer roots; any other
    pair is separated by log brackets of rising precision.  Returns -1, 0, 1.
    """
    p, q = alpha.numerator, alpha.denominator
    if exact_feasible(max(l1, l2), alpha):
        lhs, rhs = c1**q * l2**p, c2**q * l1**p
        return (lhs > rhs) - (lhs < rhs)
    cr, lr = Fraction(c1, c2), Fraction(l1, l2)
    pairs = (cr.numerator, p), (cr.denominator, p), (lr.numerator, q), (lr.denominator, q)
    roots = [iroot(x, k) if k < x.bit_length() else 1 for x, k in pairs]  # r >= 2 needs x >= 2**k
    if roots[:2] == roots[2:] and all(r**k == x for r, (x, k) in zip(roots, pairs)):
        return 0
    return _log_form_sign([(q, (c1,)), (-q, (c2,)), (-p, (l1,)), (p, (l2,))])


def _power_sign(x: int, b: int, y: int, a: int) -> Optional[int]:
    """Sign of x**b - y**a, or None when a power passes _EXACT_BITS bits."""
    if max(x.bit_length() * b, y.bit_length() * a) > _EXACT_BITS:
        return None
    u, v = x**b, y**a
    return (u > v) - (u < v)


def rational_log_ratio(x: int, y: int) -> Optional[Fraction]:
    """log x / log y as a/b, b <= EXACT_DEN_LIMIT, when x**b == y**a,
    else None; x >= 1, y >= 2.  The float ratio only proposes a/b."""
    r = Fraction(math.log(x) / math.log(y)).limit_denominator(EXACT_DEN_LIMIT)
    return r if _power_sign(x, r.denominator, y, r.numerator) == 0 else None


def cmp_log_ratio(c1: int, l1: int, c2: int, l2: int) -> Optional[int]:
    """Sign of log c1/log l1 - log c2/log l2 for counts c >= 1 and lengths
    l >= 2, or None when undecided.  Integer tests come first: against a
    rational ratio a/b the other's difference has the sign of its c**b - l**a,
    and lengths l1 = g**a, l2 = g**b give the sign of c1**b - c2**a (the
    Cantor ties 2**k/3**k).  Log brackets of up to 320 significant digits
    decide the rest; a pair they do not separate, whose ratios agree to
    10**-318 relative, is undecided, never 0."""
    # log x / log y = a/b makes the sign that of sign * (u**b - v**a)
    for x, y, u, v, sign in ((c2, l2, c1, l1, 1), (c1, l1, c2, l2, -1), (l1, l2, c1, c2, 1)):
        if (r := rational_log_ratio(x, y)) is not None:
            if (s := _power_sign(u, r.denominator, v, r.numerator)) is not None:
                return sign * s
    return _log_form_sign([(1, (c1, l2)), (-1, (c2, l1))], 320)


def ratio_value(count: int, length: int, alpha: Fraction, digits: int = 40) -> Fraction:
    """Rational approximation of count / length**alpha, accurate to ~10**-digits."""
    if length <= 0:
        raise ValueError("length must be positive")
    lo, hi = pow_bracket(length, alpha, digits)
    if lo == 0:
        raise ValueError("length**alpha rounded to zero; raise digits")
    return (Fraction(count) / lo + Fraction(count) / hi) / 2
