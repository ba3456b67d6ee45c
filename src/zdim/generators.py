"""Constructors for the integer set families under study.

Power sets (integer parts of n**(1/alpha)), polynomial images, digit
Cantor sets driven by a binary transition matrix, generalized IP-sets,
random walk zero sets, the zero-density/full-dimension block union, a
noncompatible pair, and the resonant digit-block sets.

All constructors are deterministic given their parameters (plus seed
where one exists) and record what built them in the provenance string.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .exact import ceil_pow, iroot
from .intset import _INT64_LIMIT, IntegerSet, Interval


# ---------------------------------------------------------------------------
# transition matrices and word-count growth


@dataclass(frozen=True)
class TransitionMatrix:
    """Square binary matrix; rows[i][j] = 1 lets symbol j follow symbol i."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        a = len(self.rows)
        if a < 1:
            raise ValueError("matrix must have at least one row")
        for r in self.rows:
            if len(r) != a:
                raise ValueError("matrix must be square")
            if any(x not in (0, 1) for x in r):
                raise ValueError("entries must be 0 or 1")

    @property
    def size(self) -> int:
        return len(self.rows)

    @classmethod
    def full(cls, a: int) -> "TransitionMatrix":
        return cls(tuple((1,) * a for _ in range(a)))

    @classmethod
    def block(cls, a: int, support: Sequence[int]) -> "TransitionMatrix":
        """a x a matrix with 1s exactly on support x support (1-based indices)."""
        s = set(support)
        if not s or min(s) < 1 or max(s) > a:
            raise ValueError("support indices must lie in 1..a")
        return cls(
            tuple(
                tuple(1 if (i + 1 in s and j + 1 in s) else 0 for j in range(a))
                for i in range(a)
            )
        )

    @classmethod
    def from_text(cls, path: str) -> "TransitionMatrix":
        """Text format: first line the size a, then a rows of a 0/1 entries."""
        with open(path, "r", encoding="utf-8") as fh:
            tokens = fh.read().split()
        if not tokens:
            raise ValueError("empty matrix file")
        a = int(tokens[0])
        need = a * a
        if len(tokens) - 1 != need:
            raise ValueError(f"expected {need} entries after the size, got {len(tokens) - 1}")
        vals = [int(t) for t in tokens[1:]]
        return cls(tuple(tuple(vals[i * a : (i + 1) * a]) for i in range(a)))

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in r) for r in self.rows)

    def __str__(self) -> str:
        return ";".join("".join(str(x) for x in r) for r in self.rows)


@dataclass(frozen=True)
class PerronReport:
    eigenvalue: float
    word_counts: tuple[int, ...]
    ratio_bounds: tuple[float, float]
    method: str

    @property
    def bound_spread(self) -> float:
        lo, hi = self.ratio_bounds
        return hi / lo if lo > 0 else math.inf


def _end_counts(A: TransitionMatrix, first: Sequence[int], n_terms: int) -> list[list[int]]:
    """Admissible words of 1..n_terms symbols, counted by their last symbol.

    Row k-1 holds, for each symbol t, the number of words of k symbols
    ending in t; first is row 0, the one-symbol words.
    """
    a = A.size
    rows = [list(first)]
    for _ in range(n_terms - 1):
        v = rows[-1]
        rows.append([sum(v[s] for s in range(a) if A.rows[s][t]) for t in range(a)])
    return rows


def _word_counts(A: TransitionMatrix, n_terms: int) -> list[int]:
    # counts[k-1] = number of admissible words of length k = 1^T A^(k-1) 1
    return [sum(v) for v in _end_counts(A, [1] * A.size, n_terms)]


def perron(A: TransitionMatrix, n_terms: int = 40) -> PerronReport:
    """Largest-eigenvalue data: power iteration plus exact word counts.

    When power iteration fails to settle (periodic spectra tie), the
    eigenvalue falls back to the mean of the last five consecutive
    word-count ratios and the report is flagged "ratio-estimated".
    """
    if n_terms < 2:
        raise ValueError("n_terms must be >= 2")
    counts = _word_counts(A, n_terms + 1)
    M = np.asarray(A.rows, dtype=np.float64)
    v = np.ones(A.size)
    lam = 0.0
    method = "power-iteration"
    converged = False
    for _ in range(100_000):
        w = M @ v
        nrm = float(w.sum())
        if nrm == 0.0:
            lam = 0.0
            converged = True
            break
        new_lam = nrm / float(v.sum())
        # residual stop: the estimate alone oscillates under complex
        # subdominant pairs and can transiently repeat far from the limit
        residual = float(np.abs(w - new_lam * v).sum())
        v = w / nrm
        lam = new_lam
        if residual <= 1e-13 * nrm:
            converged = True
            break
    if not converged:
        tail = [counts[i + 1] / counts[i] for i in range(len(counts) - 6, len(counts) - 1)]
        lam = sum(tail) / len(tail)
        method = "ratio-estimated"
    word_counts = tuple(counts[:n_terms])
    if lam > 0:
        ratios = [c / lam**k for k, c in enumerate(word_counts, start=1)]
        bounds = (min(ratios), max(ratios))
    else:
        bounds = (0.0, 0.0)
    return PerronReport(lam, word_counts, bounds, method)


# ---------------------------------------------------------------------------
# power and polynomial sets


def power_set(alpha, n_max: int) -> IntegerSet:
    """{floor(n**(1/alpha)) : 1 <= n <= n_max} by exact integer roots."""
    a = Fraction(alpha)
    if not 0 < a <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    # 1/alpha = p/q
    p, q = a.denominator, a.numerator
    xs = [iroot(n**p, q) for n in range(1, n_max + 1)]
    return IntegerSet(xs, f"power(alpha={a}, n_max={n_max})")


def polynomial_set(coeffs: Sequence[int], n_range: tuple[int, int]) -> IntegerSet:
    """Image of p over the inclusive integer range; coeffs ascending
    (constant term first)."""
    cs = [int(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if len(cs) < 2:
        raise ValueError("degenerate: polynomial must have degree >= 1")
    lo, hi = n_range
    if lo > hi:
        raise ValueError("empty n_range")
    vals = set()
    for n in range(lo, hi + 1):
        acc = 0
        for c in reversed(cs):
            acc = acc * n + c
        vals.add(acc)
    return IntegerSet(vals, f"poly(coeffs={tuple(cs)}, n={lo}..{hi})")


# ---------------------------------------------------------------------------
# digit Cantor sets


def cantor_set(
    A: TransitionMatrix,
    depth: int,
    base: Optional[int] = None,
    digits: Optional[Sequence[int]] = None,
) -> IntegerSet:
    """Integers whose digit words are admissible paths of A.

    A word (d_0, ..., d_m) with m <= depth and every consecutive symbol
    pair allowed by A evaluates to sum(digit[d_i] * base**i); d_0 is
    the low-order digit.  Words of every length 1..depth+1 contribute,
    so with digit 0 admissible the shorter words are the zero-padded
    ones.  digits maps symbol index to digit value (default: symbol i
    to digit i, 0-based) and must be injective into [0, base).

    Symbols with no edge at all are excluded from the single-digit
    words; if the whole matrix is zero, the single digits are returned
    flagged "nilpotent".

    The values go into one buffer of exactly the set's size, each
    written once, and one in-place sort orders it.  Digits are injective
    and below the base, so two words share a value only when one is the
    other padded with the zero digit's symbol.  A word shorter than
    depth + 1 whose last symbol may be followed by that symbol is
    therefore left out, as its padded extension one level up has the
    same value; it is held only as the frontier of the next level.
    Transfer-matrix counts of the words by last symbol size the buffer.
    """
    a = A.size
    if depth < 1:
        raise ValueError("depth must be >= 1")
    dig = tuple(int(d) for d in digits) if digits is not None else tuple(range(a))
    if len(dig) != a:
        raise ValueError("digit alphabet size must match matrix size")
    b = int(base) if base is not None else max(dig) + 1
    if len(set(dig)) != a or min(dig) < 0 or max(dig) >= b:
        raise ValueError("digits must be distinct values in [0, base)")
    prov = f"cantor(matrix={A}, depth={depth}, base={b}, digits={dig})"
    if A.is_zero():
        return IntegerSet(dig, prov + ", nilpotent")

    # the one-symbol words: every symbol with an edge in or out
    usable = [int(any(A.rows[s]) or any(r[s] for r in A.rows)) for s in range(a)]
    pred = [[s for s in range(a) if A.rows[s][t]] for t in range(a)]
    zero = dig.index(0) if 0 in dig else None

    def kept(m: int, t: int) -> bool:
        # a word of m + 1 symbols ending in t has no zero-padded twin above
        return m == depth or zero is None or not A.rows[t][zero]

    counts = _end_counts(A, usable, depth + 1)
    size = sum(c for m, row in enumerate(counts) for t, c in enumerate(row) if kept(m, t))
    # words have at most depth + 1 digits, so every value is below b**(depth+1)
    dtype = np.int64 if b ** (depth + 1) < _INT64_LIMIT else object
    buf = np.empty(size, dtype=dtype)
    pos = 0
    frontier: dict[int, np.ndarray] = {}  # this level's words by last symbol
    for m, row in enumerate(counts):
        scale = b**m
        level: dict[int, np.ndarray] = {}
        for t in range(a):
            if not row[t]:
                continue
            if kept(m, t):
                dst = buf[pos : pos + row[t]]
                pos += row[t]
            else:
                dst = np.empty(row[t], dtype=dtype)
            if m == 0:
                dst[0] = dig[t]
            else:
                i = 0
                for s in pred[t]:
                    vals = frontier.get(s)
                    if vals is not None:
                        np.add(vals, dig[t] * scale, out=dst[i : i + len(vals)])
                        i += len(vals)
            level[t] = dst
        frontier = level
    buf.sort()
    return IntegerSet.from_sorted_array(buf, prov)


def resonance_sets(strings: int) -> tuple[IntegerSet, IntegerSet, IntegerSet]:
    """The base-12 digit-block pair (E_a on digits 0..3, E_b on digits
    {0,4,5,6,7}) and the combined set E_c on digits 0..10, truncated to
    digit strings of the given length.

    Sharing digit 0 and keeping the per-position digit sums below 12
    makes E_a + E_b = E_c hold exactly at matched truncations: every
    digit in 0..10 splits as one from {0..3} plus one from {0,4,5,6,7},
    and no sum of digit pairs carries.
    """
    if strings < 1:
        raise ValueError("strings must be >= 1")
    if strings == 1:
        # depth 0 is below the constructor's floor; single digits suffice
        ea = IntegerSet(range(4), "resonance-a(strings=1)")
        eb = IntegerSet((0, 4, 5, 6, 7), "resonance-b(strings=1)")
        ec = IntegerSet(range(11), "resonance-c(strings=1)")
        return ea, eb, ec
    depth = strings - 1
    ea = cantor_set(TransitionMatrix.block(12, range(1, 5)), depth, base=12)
    eb = cantor_set(TransitionMatrix.block(12, (1, 5, 6, 7, 8)), depth, base=12)
    ec = cantor_set(TransitionMatrix.block(12, range(1, 12)), depth, base=12)
    return ea, eb, ec


# ---------------------------------------------------------------------------
# generalized IP-sets


@dataclass(frozen=True)
class IPParameters:
    k_seq: tuple[int, ...]
    d_seq: tuple[int, ...]
    depth: int

    def __post_init__(self) -> None:
        if self.depth < 1 or self.depth > min(len(self.k_seq), len(self.d_seq)):
            raise ValueError("depth must be in 1..len(sequences)")
        if any(k < 1 for k in self.k_seq) or any(d < 1 for d in self.d_seq):
            raise ValueError("k and d entries must be positive")

    def validate_gaps(self) -> None:
        """Standing gap assumption d_n > sum_{i<n} k_i d_i, named on failure."""
        acc = 0
        for n in range(self.depth):
            if self.d_seq[n] <= acc:
                raise ValueError(
                    f"gap condition fails at n={n + 1}: "
                    f"d_{n + 1}={self.d_seq[n]} <= {acc}"
                )
            acc += self.k_seq[n] * self.d_seq[n]


def ip_set(params: IPParameters) -> IntegerSet:
    """All sums of x_i * d_i with 0 <= x_i < k_i over i <= depth.

    The gap condition puts every sum over i < n below d_n, so the
    coefficient map is injective and ordered with x_n most significant:
    the cardinality is exactly the product of the k_i, and the outer
    sums with x_n outermost come out sorted.
    """
    params.validate_gaps()
    ks = params.k_seq[: params.depth]
    ds = params.d_seq[: params.depth]
    top = sum((k - 1) * d for k, d in zip(ks, ds))
    dtype = np.int64 if top < _INT64_LIMIT else object
    vals = np.zeros(1, dtype=dtype)
    for k, d in zip(ks, ds):
        vals = ((np.arange(k, dtype=dtype) * d)[:, None] + vals[None, :]).ravel()
    return IntegerSet.from_sorted_array(
        vals, f"ip(k={ks}, d={ds}, depth={params.depth})"
    )


def integer_resonant_set(alpha, depth: int) -> IntegerSet:
    """IP-set with k_n = 2**n and d_n = floor(2**(n^2/(2 alpha))).

    Its dimension sits strictly between 1/2 and 1, and integer dilates
    recombine into the same digit structure, which is what makes it the
    integer-scaling counterexample family.
    """
    a = Fraction(alpha)
    if not Fraction(1, 2) < a < 1:
        raise ValueError("alpha must lie in (1/2, 1)")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    p, q = a.numerator, a.denominator
    ks = tuple(2**n for n in range(1, depth + 1))
    ds = tuple(iroot(2 ** (n * n * q), 2 * p) for n in range(1, depth + 1))
    E = ip_set(IPParameters(ks, ds, depth))
    return IntegerSet.from_sorted_array(
        E._array(), f"resonant(alpha={a}, depth={depth})"
    )


# ---------------------------------------------------------------------------
# random walk zeros


_WALK_CHUNK = 1 << 16  # steps drawn per call


def random_walk_zeros(seed: int, n_steps: int) -> IntegerSet:
    """Zero set {n <= n_steps : S_n = 0} of a seeded fair +-1 walk.

    The seed-to-stream mapping (numpy PCG64 via default_rng) is pinned
    by golden tests; all returned indices are even by parity.  Steps are
    drawn and summed _WALK_CHUNK at a time, each chunk starting from the
    walk's last value; consecutive draws continue one stream, so the
    walk is the one a single draw of n_steps would give.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    rng = np.random.default_rng(seed)
    zeros = []
    level = 0
    for done in range(0, n_steps, _WALK_CHUNK):
        walk = rng.integers(0, 2, size=min(_WALK_CHUNK, n_steps - done), dtype=np.int64)
        walk *= 2
        walk -= 1
        walk[0] += level
        np.cumsum(walk, out=walk)
        level = int(walk[-1])
        zeros.append(np.flatnonzero(walk == 0) + (done + 1))
    return IntegerSet.from_sorted_array(
        np.concatenate(zeros), f"walk(seed={seed}, steps={n_steps})"
    )


# ---------------------------------------------------------------------------
# zero density, full dimension


def zero_density_full_dim(depth: int) -> IntegerSet:
    """Union over 2 <= n <= depth of [n^n, (n+1)^n] cut from the
    power set at exponent 1 - 1/n.

    Block n holds about (n+1)^(n-1) - n^(n-1) elements, so the count
    inside each window is the window length to the power 1 - 1/n: the
    density of the union decays while the dimension climbs to 1.
    """
    if depth < 2:
        raise ValueError("depth must be >= 2")
    out: set[int] = set()
    for n in range(2, depth + 1):
        lo_val = n**n
        hi_val = (n + 1) ** n
        # elements are floor(m**(n/(n-1))); invert the window bounds exactly
        m_lo = ceil_pow(lo_val, n - 1, n)
        m_hi = iroot((hi_val + 1) ** (n - 1) - 1, n)
        for m in range(m_lo, m_hi + 1):
            x = iroot(m**n, n - 1)
            if lo_val <= x <= hi_val:
                out.add(x)
    return IntegerSet(out, f"zero-density-full-dim(depth={depth})")


# ---------------------------------------------------------------------------
# the noncompatible pair


@dataclass
class NoncompatibleParams:
    """Parameters of the alternating-block pair construction.

    The growth conditions are instantiated with an explicit growth
    factor g: each scale dominates the previous one by at least
    a factor g, and the scaling factors mu/nu dominate both the squared
    previous window and the mixed-exponent terms.  Values blow up
    doubly exponentially, hence the element-magnitude cap.
    """

    alpha: Fraction
    beta: Fraction
    depth: int
    growth_factor: int = 16
    magnitude_cap: int = 10**250
    mu: tuple[int, ...] = field(init=False)
    nu: tuple[int, ...] = field(init=False)
    A: tuple[int, ...] = field(init=False)
    B: tuple[int, ...] = field(init=False)
    C: tuple[int, ...] = field(init=False)
    D: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        self.alpha = Fraction(self.alpha)
        self.beta = Fraction(self.beta)
        if not (Fraction(1, 2) <= self.alpha < 1 and Fraction(1, 2) <= self.beta < 1):
            raise ValueError("alpha and beta must lie in [1/2, 1)")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.growth_factor < 2:
            raise ValueError("growth_factor must be >= 2")
        g = self.growth_factor
        mu, nu, As, Bs, Cs, Ds = [], [], [], [], [], []
        prev_D = 1
        prev_gap = 0  # D_{i-1} - C_{i-1}
        for i in range(1, self.depth + 1):
            m = g * max(1, self._mixed_bound(prev_gap, i - 1, self.alpha, self.beta))
            a_i = max(g * prev_D, m)
            b_i = (g + 1) * a_i
            n = g * max(1, self._mixed_bound(b_i - a_i, i - 1, self.beta, self.alpha))
            c_i = max(g * b_i, n)
            d_i = (g + 1) * c_i
            if d_i > self.magnitude_cap or m > self.magnitude_cap or n > self.magnitude_cap:
                raise ValueError(
                    f"depth {self.depth} exceeds the magnitude cap at block {i} "
                    f"(scale near 2**{max(d_i, m, n).bit_length()}); lower the "
                    "depth or raise magnitude_cap"
                )
            mu.append(m)
            nu.append(n)
            As.append(a_i)
            Bs.append(b_i)
            Cs.append(c_i)
            Ds.append(d_i)
            prev_D = d_i
            prev_gap = d_i - c_i
        self.mu = tuple(mu)
        self.nu = tuple(nu)
        self.A = tuple(As)
        self.B = tuple(Bs)
        self.C = tuple(Cs)
        self.D = tuple(Ds)

    @staticmethod
    def _mixed_bound(gap: int, idx: int, first: Fraction, second: Fraction) -> int:
        # max of gap^2 and idx^(2/(1-first)) * gap^(2*second/(1-first)),
        # rounded up through exact integer powers
        if gap <= 0:
            return 0
        sq = gap * gap
        if idx == 0:
            return sq
        one_minus = 1 - first
        e1 = Fraction(2) / one_minus
        e2 = 2 * second / one_minus
        t1 = ceil_pow(idx, e1.numerator, e1.denominator)
        t2 = ceil_pow(gap, e2.numerator, e2.denominator)
        return max(sq, t1 * t2)

    def validate(self) -> list[str]:
        """Growth-condition audit; empty list means all conditions hold."""
        g = self.growth_factor
        bad = []
        for i in range(self.depth):
            if self.B[i] < g * self.A[i]:
                bad.append(f"B_{i + 1} < {g} A_{i + 1}")
            if self.C[i] < g * self.B[i]:
                bad.append(f"C_{i + 1} < {g} B_{i + 1}")
            if self.D[i] < g * self.C[i]:
                bad.append(f"D_{i + 1} < {g} C_{i + 1}")
            if i + 1 < self.depth and self.A[i + 1] < g * self.D[i]:
                bad.append(f"A_{i + 2} < {g} D_{i + 1}")
            if i >= 1:
                gap = self.D[i - 1] - self.C[i - 1]
                if self.mu[i] <= self._mixed_bound(gap, i, self.alpha, self.beta):
                    bad.append(f"mu_{i + 1} too small for block gap {gap}")
            gap2 = self.B[i] - self.A[i]
            if self.nu[i] <= self._mixed_bound(gap2, i, self.beta, self.alpha):
                bad.append(f"nu_{i + 1} too small for window {gap2}")
        return bad


def _scaled_power_block(alpha: Fraction, scale: int, lo: int, hi: int) -> list[int]:
    # {scale * floor(n^(1/alpha))} cut to [lo, hi]
    p, q = alpha.denominator, alpha.numerator
    n_hi = ceil_pow(hi // scale + 1, q, p) + 1
    out = []
    for n in range(1, n_hi + 1):
        x = scale * iroot(n**p, q)
        if lo <= x <= hi:
            out.append(x)
        elif x > hi:
            break
    return out


def noncompatible_pair(params: NoncompatibleParams) -> tuple[IntegerSet, IntegerSet]:
    """Truncated pair (E, F) whose dense scales alternate.

    E lives on the windows [A_i, B_i] as a mu_i-scaled power set of
    exponent alpha; F lives on [C_i, D_i] as a nu_i-scaled power set of
    exponent beta.  The validated growth conditions keep each window
    far beyond the previous one, so no interval sequence sees both
    sets' counting rates at comparable lengths.
    """
    bad = params.validate()
    if bad:
        raise ValueError("growth conditions fail: " + "; ".join(bad))
    e_vals: list[int] = []
    f_vals: list[int] = []
    for i in range(params.depth):
        e_vals.extend(
            _scaled_power_block(params.alpha, params.mu[i], params.A[i], params.B[i])
        )
        f_vals.extend(
            _scaled_power_block(params.beta, params.nu[i], params.C[i], params.D[i])
        )
    tag = (
        f"alpha={params.alpha}, beta={params.beta}, depth={params.depth}, "
        f"growth={params.growth_factor}, measure-relaxed"
    )
    return (
        IntegerSet(e_vals, f"noncompatible-E({tag})"),
        IntegerSet(f_vals, f"noncompatible-F({tag})"),
    )
