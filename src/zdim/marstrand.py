"""Collision structure of a + floor(lam*b) as lam ranges over a window.

Central objects: the set of lam where two grid points (a,b), (a',b')
collide (a finite union of half-open intervals with rational
endpoints), the exact expected collision count Delta over a lambda
window (computed two independent ways), per-lambda collision
histograms with their Cauchy-Schwarz bound, and randomized sweeps
estimating the dimension of E + floor(lam*F) across a window.

Delta runs on integer arrays, exactly.  delta_exact walks every slope
pair one cell at a time, in chunks that hold the cells of many pairs
and rows, on the cells of its smaller slope or of the difference of two
slopes of one sign when that is smaller, and reads its weights from the
histogram of the differences of E within the band a floor gap can
reach; _delta_quadrature integrates the collision energy on its own
histogram of a + floor(lam*b), updated in blocks of breakpoints, one
sort of packed integer keys per block.  Rational values are carried as
integer numerators over known grids, and only a few Fractions are
built at the end.  The int64 paths run only where a bound proves that no product
leaves int64 (and the event order only where float keys are proven
exact); object dtype, or a Fraction sort, takes over otherwise, with
the same code.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import arithmetic
from .arithmetic import (
    SizeGuardError,
    _refuse_over_budget,
    _sorted_runs,
    grid_energy,
    grid_histogram,
    sum_scaled,
)
from .intset import _INT64_LIMIT, IntegerSet, Interval
from .measures import ScanSchedule, dimension_estimate

_DELTA_CHUNK = 4096  # route one: cells per chunk, and slope pairs per row group
# _band_histogram: per difference of a chunk (its indices, gathers and
# sort, 48 bytes, or as a distinct one, its merge), and per value of the
# running histogram (values and counts, 16 bytes, and the merge: the
# concatenation, the order and the sorted gather, 64 bytes)
_BAND_BYTES = 80
_BAND_HELD_BYTES = 80
_QUAD_BLOCK = 128  # events applied at once by _delta_quadrature's block update
# delta_exact's charges for the fixed working sets: per cell of route
# one's chunk (its int64 arrays; an object cell also holds Python ints),
# and per member of route two's block (its keys, sort order and runs)
_CELL_BYTES = 256
_MEMBER_BYTES = 128
_QUAD_ROWS = 128  # longer rows go one event at a time (_quad_events)


@dataclass(frozen=True)
class LambdaWindow:
    """Half-open rational window (lo, hi] of positive scaling factors.

    Negative scalings reduce to positive ones by reflecting the second
    set, so only 0 < lo < hi is admitted.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if not 0 < self.lo < self.hi:
            raise ValueError("lambda window must satisfy 0 < lo < hi")

    @property
    def measure(self) -> Fraction:
        return self.hi - self.lo

    def __contains__(self, lam) -> bool:
        return self.lo < Fraction(lam) <= self.hi

    def __str__(self) -> str:
        return f"({self.lo}, {self.hi}]"


@dataclass(frozen=True)
class PairWindow:
    """Collision window of two grid points inside a lambda window.

    exact lists disjoint (lo, hi) pieces where floor(lam*b) -
    floor(lam*b') equals a' - a.  outer is the open interval that must
    contain every piece (None when the points share a slope or are
    identical).  flag is "", "identical", or "parallel".
    """

    z: tuple[int, int]
    z2: tuple[int, int]
    outer: Optional[tuple[Fraction, Fraction]]
    exact: tuple[tuple[Fraction, Fraction], ...]
    flag: str

    @property
    def measure(self) -> Fraction:
        return sum((hi - lo for lo, hi in self.exact), Fraction(0))


def _lcm(*vals: int) -> int:
    out = 1
    for v in vals:
        if v:
            out = out * v // math.gcd(out, v)
    return out


def pair_window(
    z: tuple[int, int], z2: tuple[int, int], window: LambdaWindow
) -> PairWindow:
    """Exact solution set of floor(lam*b) - floor(lam*b') = a' - a.

    The identity forces lam*(b-b') within distance 1 of a'-a, giving an
    outer interval of length 2/|b-b'|; inside it the set is resolved
    piece by piece between consecutive integer crossings of lam*b and
    lam*b', evaluated at piece midpoints on a common integer grid.
    """
    a, b = z
    a2, b2 = z2
    if z == z2:
        return PairWindow(z, z2, None, ((window.lo, window.hi),), "identical")
    if b == b2:
        # parallel: floors agree for every lam exactly when a == a2,
        # but then z == z2, so the window is empty
        return PairWindow(z, z2, None, (), "parallel")
    if b < b2:
        a, a2 = a2, a
        b, b2 = b2, b
    delta = a2 - a
    den = b - b2
    outer = (Fraction(delta - 1, den), Fraction(delta + 1, den))
    slo = max(window.lo, outer[0])
    shi = min(window.hi, outer[1])
    if slo >= shi:
        return PairWindow(z, z2, outer, (), "")
    grid = _lcm(den, abs(b), abs(b2), slo.denominator, shi.denominator)
    nlo = slo.numerator * (grid // slo.denominator)
    nhi = shi.numerator * (grid // shi.denominator)
    cuts = {nlo, nhi}
    for m in (abs(b), abs(b2)):
        if m == 0:
            continue
        step = grid // m
        first = (nlo // step + 1) * step
        cuts.update(range(first, nhi, step))
    marks = sorted(cuts)
    pieces: list[list[int]] = []
    for left, right in zip(marks, marks[1:]):
        two_mid = left + right
        g = (two_mid * b) // (2 * grid) - (two_mid * b2) // (2 * grid)
        if g == delta:
            if pieces and pieces[-1][1] == left:
                pieces[-1][1] = right
            else:
                pieces.append([left, right])
    exact = tuple((Fraction(lo, grid), Fraction(hi, grid)) for lo, hi in pieces)
    return PairWindow(z, z2, outer, exact, "")


# ---------------------------------------------------------------------------
# per-lambda collision statistics


@dataclass(frozen=True, eq=False)
class CollisionReport:
    """Histogram of a + floor(lam*b) over E x F, its energy and bound.

    The report keeps the engine's value and count arrays, read-only and
    not copied; ``values``, ``counts`` and ``histogram`` build Python
    ints from them on each read.  Reports compare by identity.
    """

    lam: Fraction
    total: int  # |E|*|F|, all grid points counted with multiplicity
    distinct_count: int  # values of a + floor(lam*b) actually hit
    energy: int  # sum of squared multiplicities (= ordered collision pairs)
    cs_bound: Fraction  # total**2 / energy <= distinct_count
    _values: np.ndarray  # distinct values, increasing
    _counts: np.ndarray  # grid points on each value

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(self._values.tolist())

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(self._counts.tolist())

    @property
    def histogram(self) -> dict[int, int]:
        return dict(zip(self._values.tolist(), self._counts.tolist()))


def collision_stats(
    E: IntegerSet, F: IntegerSet, lam, max_pairs: int = 100_000_000
) -> CollisionReport:
    """Histogram of a + floor(lam*b) over the product grid.

    energy counts ordered colliding pairs; Cauchy-Schwarz gives
    distinct_count >= total**2 / energy, recorded exactly as cs_bound.
    sweep and ``zdim collide`` read their histograms from this report.
    Refuses grids above max_pairs, and grid_histogram those over the byte budget.
    """
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if len(E) == 0 or len(F) == 0:
        raise ValueError("empty set")
    pairs = len(E) * len(F)
    if pairs > max_pairs:
        raise SizeGuardError(
            f"collision grid too large ({pairs} pairs), over max_pairs {max_pairs}: "
            "restrict windows"
        )
    values, counts = grid_histogram(E, F, lam)
    values.flags.writeable = counts.flags.writeable = False
    energy = grid_energy(counts, pairs)
    return CollisionReport(
        lam, pairs, len(values), energy, Fraction(pairs * pairs, energy), values, counts
    )


# ---------------------------------------------------------------------------
# exact expected collision count over a window


@dataclass(frozen=True)
class DeltaReport:
    """Expected ordered collision count, integrated exactly over lam.

    Delta is the integral over the window of N(lam), the number of
    ordered pairs of grid points (a, b), (a', b') with a + floor(lam*b)
    = a' + floor(lam*b').  exact_value sums, over the slope pairs b' < b
    of F, the measure on which the floor gap floor(lam*b) -
    floor(lam*b') equals g, weighted by the number of differences
    a' - a = g in E; quadrature_value integrates N(lam) itself across
    every breakpoint of lam*F.  The two routes share nothing but the
    input and must agree exactly; both are kept so each checks the
    other (see delta_exact).
    """

    window: LambdaWindow
    exact_value: Fraction
    quadrature_value: Fraction
    positive_pairs: int  # ordered pairs whose collision window has positive measure
    breakpoint_count: int

    @property
    def agreement(self) -> bool:
        return self.exact_value == self.quadrature_value


def _band_histogram(xs: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Histogram (values, counts) of the differences a' - a in [0, bound].

    xs is E's sorted, duplicate-free element array.  Only the pairs
    inside the band are made: for each a, the a' >= a up to a + bound end
    at a searchsorted rank, and their differences are generated by
    ragged arange in chunks of whole rows and counted by sorting, so 0
    counts |E|.  Each chunk's histogram is merged into a running one.
    A chunk holds as many differences as arithmetic._BYTE_BUDGET, read
    at call time, leaves beside the running histogram, at _BAND_BYTES per
    difference and _BAND_HELD_BYTES per value held, plus, for object
    differences, what arithmetic._object_bytes charges a new Python int
    up to bound; the band is refused when the running histogram leaves
    no room.  A chunk always holds one whole row, at most |E|
    differences.  No negative difference is needed: for b' < b and
    lam > 0 the floor gap floor(lam*b) - floor(lam*b') is at least 0.
    """
    if xs.dtype != object and bound >= _INT64_LIMIT:
        xs = xs.astype(object)  # a + bound may leave int64
    lens = np.searchsorted(xs, xs + bound, side="right") - np.arange(len(xs))
    obj = arithmetic._object_bytes(xs.dtype, bound)
    per, held_per = _BAND_BYTES + obj, _BAND_HELD_BYTES + obj
    values, counts = xs[:0], None
    first = 0  # the first row left
    while first < len(lens):
        _refuse_over_budget(
            "difference band too large", len(values), "kept differences", held_per,
            "narrow the lambda window", base=per,
        )
        room = (arithmetic._BYTE_BUDGET - len(values) * held_per) // per
        rows, t = next(_row_groups(lens[first:], room))
        rows += first
        first = int(rows[-1]) + 1
        part = _sorted_runs(xs[rows + t] - xs[rows])
        del rows, t  # before the merge
        if len(values):
            part = _sorted_runs(np.concatenate((values, part[0])), np.concatenate((counts, part[1])))
        values, counts = part
    return values, counts


def _row_groups(lens, limit):
    """Groups of whole rows, row r holding lens[r] entries, in row order.

    A group adds rows while it holds at most limit entries, and always
    holds at least one row.  Yields (rows, t) per group: the row of each
    entry and its place in that row.
    """
    ends = np.cumsum(lens)
    start = 0
    while start < len(lens):
        base = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + limit, side="right")))
        rows = np.repeat(np.arange(start, stop), lens[start:stop])
        firsts = ends[start:stop] - lens[start:stop] - base  # first entry of each row
        yield rows, np.arange(len(rows)) - firsts[rows - start]
        start = stop


def _cells(first, ncell):
    """The walk over cells first[p], ..., first[p] + ncell[p] - 1 of each pair p.

    Yields (p, i) per chunk of _DELTA_CHUNK cells: p is each cell's pair
    and i its cell index.
    """
    ends = np.cumsum(ncell)
    first = first - (ends - ncell)  # the x-th cell walked is cell x + first[p] of its pair p
    cells = int(ends[-1]) if len(ends) else 0
    for start in range(0, cells, _DELTA_CHUNK):
        x = np.arange(start, min(start + _DELTA_CHUNK, cells))
        p = np.searchsorted(ends, x, side="right")
        yield p, x + first[p]


def _add_per_pair(num, p, terms):
    """Add the cell terms (last axis in walk order) to the entries of their pairs p."""
    at = np.flatnonzero(np.diff(p, prepend=-1))
    num[..., p[at]] += np.add.reduceat(terms, at, axis=-1)


def _difference_cells(big, small, lo, hi, den, values, counts):
    """Route one for the slope pairs (small[p], big[p]), 0 < small < big < 2*small.

    Returns (grids, numerators): the pairs spend sum(numerators[t] /
    grids[t]) of window measure on gaps g, each piece weighted by its
    number of a-differences g.  values and counts hold the histogram as
    in _slope_pairs.

    Two slopes of one sign reduce to slopes 0 < S < B, d = B - S < S,
    since the measure of a gap is the same for -b, -b' as for |b'|, |b|
    (floor(-x) = -ceil(x), which differ only at the cuts).  On cell k of
    slope d the gap floor(lam*B) - floor(lam*S) is k or k + 1, and the
    measure mu on which it is k + 1 is the integral of the gap minus k
    times the piece [x, y).  Shifted by the integer m = k // d below the
    cell, which moves every floor by a multiple of its slope, the piece
    lies in [0, 1], and with n_B(t) = floor(B*t) and c_B = n_B(y) - n_B(x),
        mu = e*(y - x) + (c_B - c_S)*y
             - c_B*(n_B(x) + n_B(y) + 1)/(2B) + c_S*(n_S(x) + n_S(y) + 1)/(2S),
    e = n_B(x) - n_S(x) - k % d the excess of the gap at x: each cut of
    B in (x, y] raises the gap for the rest of the piece and each cut of
    S lowers it.  The cell adds C(k)*(y - x) + (C(k + 1) - C(k))*mu, C
    read by one searchsorted, and its three parts go on the grids
    lcm(d, den), 2B and 2S.
    """
    d = big - small
    grid = np.lcm(d, den)
    step = grid // d
    nlo = lo.numerator * (grid // lo.denominator)
    nhi = hi.numerator * (grid // hi.denominator)
    k0 = nlo // step
    num = np.zeros((3, len(d)), dtype=big.dtype)
    for p, k in _cells(k0, ((nhi - 1) // step - k0 + 1).astype(np.int64)):
        g = grid[p]
        m = k // d[p]
        r = k - m * d[p]  # k % d
        m *= g  # the integer below the cell, on the grid
        y = k * step[p]
        x = np.maximum(y, nlo[p]) - m  # 0 <= x < y <= g
        y = np.minimum(y + step[p], nhi[p]) - m
        bx, by = big[p] * x // g, big[p] * y // g
        sx, sy = small[p] * x // g, small[p] * y // g
        j = np.searchsorted(values, k)
        c0 = np.where(values[j] == k, counts[j], 0)
        j += values[j] == k
        dc = np.where(values[j] == k + 1, counts[j], 0) - c0
        terms = np.empty((3, len(k)), dtype=num.dtype)
        terms[0] = (c0 + dc * (bx - sx - r)) * (y - x) + dc * (by - bx - sy + sx) * y
        terms[1] = -dc * (by - bx) * (bx + by + 1)
        terms[2] = dc * (sy - sx) * (sx + sy + 1)
        _add_per_pair(num, p, terms)
    return np.concatenate((grid, 2 * big, 2 * small)), num.ravel()


def _slope_pairs(b2, bs, lo, hi, den, values, counts, below):
    """Route one for the slope pairs (b2[p], bs[p]), every bs[p] > b2[p].

    Returns (grids, numerators, weight, breakpoints): the pairs spend
    sum(numerators[t] / grids[t]) of window measure on gaps g, each piece
    weighted by its number of a-differences g; weight adds those numbers
    over the distinct gaps each pair hits, and breakpoints counts the
    inner cuts of all pairs.  values (sorted, closed by a sentinel above
    every gap) and counts hold the histogram, below[j] = sum(counts[:j]).

    A pair is walked one cell at a time, in chunks of _DELTA_CHUNK cells
    that may hold cells of many pairs, on the cells of its smaller slope
    (coarse cells) or, for two slopes of one sign that differ by d less
    than the smaller, on the cells of slope d (difference cells).  A
    zero slope never cuts and gives one coarse cell, [0, nhi).  On fine
    interval k of coarse cell i the gap is k + sign*i + offset (sign -1
    for one sign, +1 for opposite signs, 0 with a zero slope), so a
    cell's gaps rise one per fine interval from g1 to g2: its end pieces
    are weighted by their lengths, the fine intervals between them by
    prefix sums.  For one sign the gap falls by at most one at a coarse
    cut and a full cell holds two gaps or more, so a pair hits every gap
    from its least (in its first two cells) to its greatest (in its last
    two).  For opposite signs it never falls and skips one where both
    slopes cut, so distinct cells hit distinct gaps.  The least and
    greatest gap, and the breakpoints, are closed forms on the coarse
    cells whichever cells a pair is walked on; only the cells of
    opposite signs, never walked on difference cells, add their gap
    weights in the walk.  Difference cells are walked by
    _difference_cells.
    """
    m_fine = np.maximum(np.abs(bs), np.abs(b2))
    m_coarse = np.minimum(np.abs(bs), np.abs(b2))
    grid = np.lcm(np.lcm(m_fine, np.maximum(m_coarse, 1)), den)
    nlo = lo.numerator * (grid // lo.denominator)
    nhi = hi.numerator * (grid // hi.denominator)
    fine = grid // m_fine
    zero = m_coarse == 0
    coarse = np.where(zero, nhi, grid // np.maximum(m_coarse, 1))
    both = np.where(zero, nhi, grid // np.gcd(m_fine, m_coarse))  # cuts of both slopes

    def inner(step):  # multiples of step strictly inside (nlo, nhi)
        return (nhi - 1) // step - nlo // step

    breakpoints = sum((inner(fine) + inner(coarse) - inner(both)).tolist())
    sign = ((bs < 0).astype(np.int64) - (bs > 0)) * ((b2 > 0).astype(np.int64) - (b2 < 0))
    offset = (b2 < 0).astype(np.int64) - (bs < 0)

    def gap_after(x):  # the gap on (x, x + 1), x a grid point
        return x // fine + sign * (x // coarse) + offset

    opposite = sign > 0  # gap weights read in the walk, not from least and most
    i0, i1 = nlo // coarse, (nhi - 1) // coarse  # the first and last cell of each pair
    least = np.minimum(gap_after(nlo), gap_after(np.minimum(i0 * coarse + coarse, nhi - 1)))
    most = np.maximum(gap_after(nhi - 1), gap_after(np.maximum(i1 * coarse - 1, nlo)))
    top = np.searchsorted(values, most, side="right")
    spans = below[top] - below[np.searchsorted(values, least)]
    weight = sum(spans[~opposite].tolist())
    by_diff = (sign < 0) & (m_fine < 2 * m_coarse)  # walked on difference cells
    # before the coarse walk, whose last chunk's arrays outlive its loop
    dgrids, dnums = _difference_cells(
        m_fine[by_diff], m_coarse[by_diff], lo, hi, den, values, counts
    )
    ncell = np.where(by_diff, 0, i1 - i0 + 1).astype(np.int64)
    num = np.zeros(len(bs), dtype=bs.dtype)
    for p, i in _cells(i0, ncell):
        f, c = fine[p], coarse[p]
        cut = i * c
        left = np.maximum(cut, nlo[p])
        right = np.minimum(cut + c, nhi[p])
        kl, kr = left // f, (right - 1) // f
        base = sign[p] * i + offset[p]
        g1, g2 = kl + base, kr + base
        j1, j2 = np.searchsorted(values, g1), np.searchsorted(values, g2)
        n1 = np.where(values[j1] == g1, counts[j1], 0)
        n2 = np.where(values[j2] == g2, counts[j2], 0)
        s1, s2 = below[j1], below[j2]
        # with g1 == g2 the last term takes back the overlap of the two ends
        cell = n1 * ((kl + 1) * f - left) + n2 * (right - kr * f) + f * (s2 - s1 - n1)
        _add_per_pair(num, p, cell)
        mask = opposite[p]
        if mask.any():
            weight += int((s2 - s1 + n2)[mask].sum())

    return np.concatenate((grid, dgrids)), np.concatenate((num, dnums)), weight, breakpoints


def delta_exact(
    E: IntegerSet, F: IntegerSet, window: LambdaWindow, max_pairs: int = 10_000
) -> DeltaReport:
    """Integrate the ordered collision count over the lambda window.

    The diagonal z == z' gives |E||F| times the window measure.  Route
    one adds twice the measure of every slope pair b' < b of F.  The
    pairs are taken in groups of whole rows (fixed b'), a group adding
    rows while it holds at most _DELTA_CHUNK pairs, and each group is
    walked in chunks of _DELTA_CHUNK cells (_slope_pairs).  A pair's
    cells are those of its smaller slope, or, for two slopes of one sign
    that differ by d less than the smaller, those of slope d.  On the
    integer grid lcm(|b|, |b'|, window denominators) the breakpoints of
    lam*b and lam*b' are the multiples of grid/|b| and grid/|b'|.
    Inside a cell of the smaller slope the floor gap g = floor(lam*b) -
    floor(lam*b') rises by one at each cut of the larger, so a cell's
    measure on each gap comes from its two end pieces and a prefix sum
    over the histogram of the differences a' - a in [0, gap_bound], the
    band every gap lies in (_band_histogram): one searchsorted per cell
    end, none per piece.  Inside a cell k of slope d the gap is k or
    k + 1, and the measure of k + 1 has a closed form in the floors of
    lam*b and lam*b' at the cell's ends: one searchsorted per cell.
    Cell numerators are summed per pair (int64 when a bound on every
    product, taken from F, |E| and the window, is below 2**62, object
    dtype otherwise), added in Python ints per distinct grid after one
    sort by grid per group, and divided by their grids over one common
    denominator.

    Route two, _delta_quadrature, integrates the collision energy
    across every breakpoint of lam*F on its own histogram of
    a + floor(lam*b).  Both are exact; the report carries both values.
    positive_pairs counts ordered pairs whose collision set has positive
    measure and breakpoint_count the inner cuts of route one, counted
    per pair in closed form.

    Route two holds arrays of one entry per breakpoint event k/|b| and
    its counters (_quad_rows), so a window whose events at 64 bytes each
    and counters at 8, with route one's chunk of cells at _CELL_BYTES
    each (plus Python ints for object cells) and route two's block at
    _MEMBER_BYTES per member, pass the byte budget is refused before
    either route allocates more than arrays of one entry per pair.
    """
    if len(E) == 0 or len(F) == 0:
        raise ValueError("empty set")
    pairs = len(E) * len(F)
    if pairs > max_pairs:
        raise SizeGuardError(
            f"delta grid too large ({pairs} pairs > {max_pairs}), "
            "restrict windows or raise max_pairs"
        )
    lo, hi = window.lo, window.hi
    fvals = F.elements
    n = len(E)
    bmax = max(abs(fvals[0]), abs(fvals[-1]))
    den = _lcm(lo.denominator, hi.denominator)
    # int64 cell terms when a bound on every product (see below) fits
    fits = (
        2 * max(hi, 1) * bmax**2 * den * n < _INT64_LIMIT
        and len(fvals) ** 2 // 4 * (n * (n + 1) // 2) < _INT64_LIMIT
    )
    # Route two keeps at most eight 8-byte entries per event alive (owner,
    # rank, k, its float key, the order, then dN and the factors of k*dN)
    # and an int64 counter per value a + floor(lam*b).  Both routes also
    # hold a working set of fixed size: route one a chunk of at most
    # _DELTA_CHUNK cells, fewer when the pairs of slopes have fewer (at
    # most min(|b|, |b'|)*(hi - lo) + 2 cells each), and route two a block
    # of 2|E| members per event it applies at once (_QUAD_BLOCK events, or
    # one past _QUAD_ROWS).  The events are charged first: past them the
    # counters' layout may not fit int64
    events = sum(math.ceil(hi * m) - math.floor(lo * m) - 1 for m in map(abs, fvals) if m)
    slopes = sorted(map(abs, fvals))
    k = len(slopes)
    most = math.ceil((hi - lo) * sum(m * (k - 1 - i) for i, m in enumerate(slopes)))
    cells = min(_DELTA_CHUNK, most + k * (k - 1))
    big = math.ceil(2 * max(hi, 1) * bmax**2 * den * n)  # bounds an object cell's ints
    cell_bytes = _CELL_BYTES + (0 if fits else 8 * arithmetic._object_bytes(object, big))
    block = min(_QUAD_BLOCK, events) if n <= _QUAD_ROWS else 1
    fixed = cells * cell_bytes + 2 * n * block * _MEMBER_BYTES
    what, unit, hint = "delta window too wide", "breakpoint events", "narrow the lambda window"
    _refuse_over_budget(what, events, unit, 64, hint, base=fixed)
    layout = _quad_rows(E, F, window)
    _refuse_over_budget(what, events, unit, 64, hint, base=fixed + 8 * layout[-1])
    total = Fraction(pairs) * window.measure  # z == z' diagonal
    positive = pairs
    breakpoints = 0
    if len(fvals) > 1:  # the differences are read per pair of slopes only
        gap_bound = math.floor(2 * bmax * hi) + 1  # 0 <= g < lam*(b - b') + 1
        # Coarse cells: grids are at most G = bmax**2 * den, steps at most
        # max(hi, 1)*G (a zero slope's cell is [0, nhi)), the ends i*c + c
        # and k*f + f at most nhi = hi*grid plus a step.  A cell's three
        # terms are each at most |E| steps, so their sum stays below
        # 1.5 * 2**62; prefix sums count at most |E|(|E| + 1)/2 differences
        # a' - a >= 0.  A chunk may hold cells of pairs from several rows,
        # and adds the gap weights of those of opposite signs, at most
        # |F|**2/4 pairs, whose distinct cells hit distinct gaps: at most
        # |E|(|E| + 1)/2 per pair over all its chunks.  Difference cells of
        # slopes S < B, d = B - S < S (so 2d + 1 <= B <= bmax and B >= 3):
        # the grid g = lcm(d, den) is at most d*den, the shifted ends
        # 0 <= x < y <= g, so B*y < bmax**2*den, and the counts C(k),
        # C(k + 1) and their difference are at most |E|.
        # With K = 2*max(hi, 1)*bmax**2*den*|E|, the product bounded below,
        # a pair's terms on grid g add up to at most
        # |E|*g*((2d + 1)*(hi - lo) + 4) < 0.6*K over its at most
        # d*(hi - lo) + 2 cells (|c_B - c_S| <= 2 and y <= g), and on grid 2B
        # to at most 2*|E|*B*(B*(hi - lo) + 1) < 1.4*K, as n_B(x) + n_B(y)
        # + 1 <= 2B and B has at most B*(hi - lo) + 1 cuts; so do 2S's.
        # The numerators of different pairs are added in Python ints.
        dtype = np.int64 if fits else object
        values, counts = _band_histogram(E._array(), gap_bound)
        values = np.append(values.astype(dtype), gap_bound + 1)  # the sentinel
        counts = np.append(counts.astype(dtype), 0)
        below = np.cumsum(counts) - counts
        f = np.array(fvals, dtype=dtype)
        by_grid: dict[int, int] = {}
        # row i holds the pairs (f[i], f[j]), j > i
        for rows, t in _row_groups(np.arange(len(fvals) - 1, 0, -1), _DELTA_CHUNK):
            grids, nums, weight, cuts = _slope_pairs(
                f[rows], f[rows + 1 + t], lo, hi, den, values, counts, below
            )
            positive += 2 * weight
            breakpoints += cuts
            order = np.argsort(grids)
            grids, nums = grids[order], nums[order].astype(object)
            at = np.flatnonzero(np.diff(grids, prepend=0))  # grids are positive
            for g, n in zip(grids[at].tolist(), np.add.reduceat(nums, at).tolist()):
                if n:
                    by_grid[g] = by_grid.get(g, 0) + n
        common = math.lcm(*by_grid)  # one division per grid, not a Fraction sum
        total += 2 * Fraction(sum(n * (common // g) for g, n in by_grid.items()), common)
    quad = _delta_quadrature(E, F, window, layout)
    return DeltaReport(window, total, quad, positive, breakpoints)


def _quad_events(cur: np.ndarray, hist: np.ndarray, owner: np.ndarray, steps) -> np.ndarray:
    """dN of every event of _delta_quadrature, one event at a time.

    The event moves row j = owner[e] of cur by steps[j]: its old counters
    lose one, then its new counters gain one.  Updates hist and cur.
    """
    two_e = 2 * cur.shape[1]
    dn = np.empty(len(owner), dtype=np.int64)
    for e, j in enumerate(owner.tolist()):
        old = cur[j]
        new = old + steps[j]
        h = hist[old]
        hist[old] = h - 1
        h2 = hist[new]
        hist[new] = h2 + 1
        dn[e] = 2 * int(np.add.reduce(h2 - h)) + two_e
        cur[j] = new
    return dn


def _quad_blocks(
    cur: np.ndarray, hist: np.ndarray, owner: np.ndarray, rank: np.ndarray, steps, size: int
) -> np.ndarray:
    """dN of every event of _delta_quadrature, _QUAD_BLOCK events at a time.

    Event e moves row owner[e] from offset rank[e]*step to (rank[e] + 1)*step,
    so a row may fire more than once in a block.  A member is one event's
    old row (side 0, sign -1) or new row (side 1, sign +1).  The value a
    member sees at a counter is the block-start histogram there plus the
    signs of the earlier members at that counter, earlier in event order
    and old before new.  Each member is one unique unsigned key,
    counter << t | event_in_block << 1 | side, so one sort of the keys
    gives that order exactly, and counter, sign and event are read back
    from the sorted keys; a cumsum per run of equal counters and one
    scatter of the run totals update hist, and one unbuffered add per
    block sums what each event's sides see.  Updates hist.
    """
    n_e = cur.shape[1]
    t = (2 * _QUAD_BLOCK - 1).bit_length()
    ktype = np.uint32 if size < 1 << (32 - t) else np.uint64
    tags = np.arange(2 * min(_QUAD_BLOCK, len(owner)), dtype=ktype).reshape(-1, 2, 1)
    steps = np.array(steps, dtype=np.int64)
    dn = np.empty(len(owner), dtype=np.int64)
    for s in range(0, len(owner), _QUAD_BLOCK):
        rows = owner[s : s + _QUAD_BLOCK]
        n = len(rows)
        step = steps[rows]
        old = cur[rows] + (rank[s : s + n] * step)[:, None]
        keys = np.empty((n, 2, n_e), dtype=ktype)
        np.left_shift(old, t, out=keys[:, 0], casting="unsafe")
        np.left_shift(old + step[:, None], t, out=keys[:, 1], casting="unsafe")
        keys |= tags[:n]
        keys = keys.ravel()
        keys.sort()
        counter = keys >> t
        tag = (keys & ((1 << t) - 1)).astype(np.int64)  # event_in_block << 1 | side
        signs = 2 * (tag & 1) - 1
        run = np.empty(len(keys), dtype=bool)
        run[0] = True
        np.not_equal(counter[1:], counter[:-1], out=run[1:])
        run_at = np.flatnonzero(run)
        run_end = np.append(run_at[1:], len(keys))
        tally = np.cumsum(signs)  # signed members up to here, through every run
        before = tally - signs
        at = counter[run_at]
        # a member sees the block-start count plus the signs before it in its run
        base = hist[at] - before[run_at]
        hist[at] = base + tally[run_end - 1]
        sums = np.zeros(2 * n, dtype=np.int64)
        np.add.at(sums, tag, before + np.repeat(base, run_end - run_at))
        sums = sums.reshape(n, 2)
        dn[s : s + n] = 2 * (sums[:, 1] - sums[:, 0]) + 2 * n_e
    return dn


def _quad_rows(E: IntegerSet, F: IntegerSet, window: LambdaWindow):
    """The events of _delta_quadrature and its counter rows before the first.

    Slope b fires at k/|b| for counts[b] values of k from firsts[b] on,
    where lam*b crosses an integer.  The histogram of a + floor(lam*b) is
    kept on int64 counters in compressed coordinates: the values of a
    stay in [a + fmin, a + fmax], and merging these intervals over sorted
    E numbers them contiguously however large E's elements are, so row j
    of cur (the counters of a + floor(lam*b_j), a in E) sits r steps of
    +-1 from its start at the r-th event of b_j.  Arrays of one entry per
    pair (a, b) only.  Returns (firsts, counts, cur, size), size the
    number of counters.
    """
    lo, hi = window.lo, window.hi
    fvals = F.elements
    slopes = [abs(b) for b in fvals]
    firsts = [math.floor(lo * m) + 1 for m in slopes]
    counts = [math.ceil(hi * m) - k if m else 0 for m, k in zip(slopes, firsts)]
    first = min((Fraction(k, m) for k, m, c in zip(firsts, slopes, counts) if c), default=hi)
    mid = (lo + first) / 2
    floors = [(mid.numerator * b) // mid.denominator for b in fvals]
    lasts = [f + (c if b > 0 else -c) for f, b, c in zip(floors, fvals, counts)]
    lows = [min(f, l) for f, l in zip(floors, lasts)]
    highs = [max(f, l) for f, l in zip(floors, lasts)]
    wide = E._array().dtype == object or max(-min(lows), max(highs)) >= _INT64_LIMIT
    dtype = object if wide else np.int64
    # the value intervals [a + low_b, a + high_b] of the pairs (a, b),
    # merged in order of their starts into blocks numbered contiguously
    col = E._array().astype(dtype)[:, None]
    starts = (col + np.array(lows, dtype)).ravel()
    order = np.argsort(starts, kind="stable")
    starts = starts[order]
    reach = np.maximum.accumulate((col + np.array(highs, dtype)).ravel()[order] + 1)
    new_block = np.ones(len(starts), dtype=bool)
    np.greater(starts[1:], reach[:-1], out=new_block[1:])
    heads = np.flatnonzero(new_block)
    sizes = (reach[np.append(heads[1:], len(starts)) - 1] - starts[heads]).astype(np.int64)
    block = np.cumsum(new_block) - 1
    at = np.empty(len(starts), dtype=np.int64)
    at[order] = (np.cumsum(sizes) - sizes)[block] + (starts - starts[heads][block]).astype(
        np.int64
    )
    shift = np.array([f - l for f, l in zip(floors, lows)], dtype=np.int64)
    cur = np.ascontiguousarray(at.reshape(len(E), len(fvals)).T) + shift[:, None]
    return firsts, counts, cur, int(sizes.sum())


def _delta_quadrature(E: IntegerSet, F: IntegerSet, window: LambdaWindow, layout) -> Fraction:
    """Route two of delta_exact: integrate the collision energy N(lam).

    N is constant between the events t = k/|b| (b in F, lo < t < hi),
    where lam*b crosses an integer.  Events are sorted on the float key
    k/|b| when hi * max|b|**2 < 2**52: distinct events then differ by at
    least 1/max|b|**2, more than twice the rounding error of a key, and
    equal events round alike, so the order is exact; otherwise they are
    sorted as Fractions.  layout is _quad_rows(E, F, window): the events
    per slope and the counter rows of the histogram of a + floor(lam*b),
    which the events move in place.  An event removes its row's old
    counters, then adds the new ones (each duplicate-free), which changes
    N by 2*(sum h_new - sum h_old) + 2|E|.

    Rows of up to _QUAD_ROWS counters are applied _QUAD_BLOCK events at a
    time by one sort of packed keys per block (_quad_blocks): on short
    rows numpy's per-call cost dominates a per-event update.  Longer rows are applied
    one event at a time (_quad_events): there the block's sort and
    gathers over 2*_QUAD_BLOCK*|E| members cost more than the calls they
    save, and its arrays would grow with |E|.

    By Abel summation the integral is hi*N_end - lo*N_start - sum over
    events of t*dN, and grouping t*dN = k*dN/|b| by b leaves one integer
    and one Fraction per slope: int64 when a bound on every slope's sum
    of |k*dN| is below 2**62, Python ints otherwise.
    """
    lo, hi = window.lo, window.hi
    fvals = F.elements
    firsts, counts, cur, size = layout
    slopes = [abs(b) for b in fvals]
    float_keys = hi * max(slopes) ** 2 < 1 << 52
    owner = np.repeat(np.arange(len(fvals)), counts)
    rank = np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]  # r of the r-th event
    ks = np.array(firsts, dtype=np.int64 if float_keys else object)[owner] + rank
    if float_keys:
        order = np.argsort(ks / np.array(slopes)[owner], kind="stable")
    else:
        order = sorted(range(len(ks)), key=lambda e: Fraction(ks[e], slopes[owner[e]]))
    ks, owner, rank = ks[order], owner[order], rank[order]
    del order
    steps = [1 if b > 0 else -1 for b in fvals]
    hist = np.bincount(cur.ravel(), minlength=size)
    start_energy = int(hist @ hist)
    if len(E) > _QUAD_ROWS:
        dn = _quad_events(cur, hist, owner, steps)
    else:
        dn = _quad_blocks(cur, hist, owner, rank, steps, size)
    # |dN| <= 2|E|(|F| + 1), as a counter meets each row at most once,
    # and a slope's k sum to at most its count times its last k
    k_sum = max((k + c - 1) * c for k, c in zip(firsts, counts))
    wide_sum = k_sum * 2 * len(E) * (len(fvals) + 1) >= _INT64_LIMIT
    kd_type = object if wide_sum else np.int64
    weighted = np.zeros(len(fvals), dtype=kd_type)  # sum of k * dN over the events of each b
    np.add.at(weighted, owner, ks.astype(kd_type) * dn.astype(kd_type))
    energy = start_energy + int(dn.sum())
    return hi * energy - lo * start_energy - sum(
        (Fraction(int(w), m) for w, m in zip(weighted, slopes) if w), Fraction(0)
    )


# ---------------------------------------------------------------------------
# randomized sweeps


@dataclass(frozen=True)
class SweepRecord:
    lam: Fraction
    dimension: float
    sum_size: int
    energy: int
    cs_bound: Fraction
    span: int  # length of the interval the sum is confined to

    @property
    def distinct(self) -> int:
        """Distinct values of the sum: its size."""
        return self.sum_size


@dataclass(frozen=True)
class SweepReport:
    records: tuple[SweepRecord, ...]
    window: LambdaWindow
    seed: int
    threshold: Optional[float]
    fraction_above: Optional[float]
    dim_min: float
    dim_median: float
    dim_max: float


def _draw_lambdas(
    window: LambdaWindow, samples: int, seed: int, skip_integers: bool
) -> list[Fraction]:
    rng = random.Random(seed)
    width = window.measure
    out: list[Fraction] = []
    while len(out) < samples:
        lam = window.lo + width * Fraction(rng.randrange(10**6 + 1), 10**6)
        if skip_integers and lam.denominator == 1:
            continue
        out.append(lam)
    return out


def _sweep_span(I: Interval, J: Interval, lam: Fraction) -> int:
    top = I.hi + math.floor(lam * J.hi)
    bot = I.lo + 1 + math.floor(lam * (J.lo + 1))
    return top - bot + 1


def sweep(
    E: IntegerSet,
    F: IntegerSet,
    window: LambdaWindow,
    samples: int,
    seed: int,
    schedule: Optional[Sequence[tuple[Interval, Interval]]] = None,
    threshold: Optional[float] = None,
    min_length: Optional[int] = None,
    dim_budget: int = 2_000_000,
    max_pairs: int = 100_000_000,
    skip_integers: bool = False,
) -> SweepReport:
    """Dimension of E + floor(lam*F) across random lambdas.

    Lambdas are lo + width*k/10**6 for uniform k (seeded, so the record
    list is reproducible).  Per lambda the
    best record over the window schedule is kept; dimension scans use a
    minimum witness length of sqrt(hull) unless overridden, which
    filters out single dense clumps that would pin the estimate at 1.
    """
    if len(E) == 0 or len(F) == 0:
        raise ValueError("empty set")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if schedule is None:
        schedule = [(E.hull(), F.hull())]
    lams = _draw_lambdas(window, samples, seed, skip_integers)
    parts = [(I, J, E.restrict(I), F.restrict(J)) for I, J in schedule]

    def one(lam: Fraction) -> SweepRecord:
        best: Optional[SweepRecord] = None
        for I, J, Er, Fr in parts:
            if len(Er) == 0 or len(Fr) == 0:
                continue
            col = collision_stats(Er, Fr, lam, max_pairs)
            S = IntegerSet.from_sorted_array(
                col._values, f"sum({Er.provenance}, scale({Fr.provenance}, {lam}))"
            )
            ml = min_length
            if ml is None:
                ml = max(2, math.isqrt(S.hull().length))
            dim = dimension_estimate(S, ScanSchedule(budget=dim_budget, min_length=ml))
            rec = SweepRecord(
                lam,
                dim.alpha_float,
                len(S),
                col.energy,
                col.cs_bound,
                _sweep_span(I, J, lam),
            )
            if best is None or rec.dimension > best.dimension:
                best = rec
        if best is None:
            raise ValueError("schedule left no elements to sum")
        return best

    records = tuple(one(lam) for lam in lams)
    dims = [r.dimension for r in records]
    frac = None
    if threshold is not None:
        frac = sum(1 for d in dims if d >= threshold) / len(dims)
    return SweepReport(
        records,
        window,
        seed,
        threshold,
        frac,
        min(dims),
        statistics.median(dims),
        max(dims),
    )


@dataclass(frozen=True)
class MultiSweepRecord:
    lams: tuple[Fraction, ...]
    dimension: float
    sum_size: int


@dataclass(frozen=True)
class MultiSweepReport:
    records: tuple[MultiSweepRecord, ...]
    target: float  # min(1, sum of the input dimension estimates)
    seed: int
    dim_min: float
    dim_median: float
    dim_max: float


def multi_sweep(
    sets: Sequence[IntegerSet],
    window: LambdaWindow,
    samples: int,
    seed: int,
    dim_budget: int = 2_000_000,
    max_pairs: int = 100_000_000,
) -> MultiSweepReport:
    """Iterated sums E_0 + floor(lam_1*E_1) + ... across random tuples.

    At most three scaled summands; the target dimension is the capped
    sum of the individual estimates, invariant under reordering.
    """
    if not 2 <= len(sets) <= 4:
        raise ValueError("need between 2 and 4 sets")
    for s in sets:
        if len(s) == 0:
            raise ValueError("empty set")
    k = len(sets) - 1
    lam_stream = _draw_lambdas(window, samples * k, seed, False)
    target = min(
        1.0, sum(dimension_estimate(s).alpha_float for s in sets)
    )
    records: list[MultiSweepRecord] = []
    for si in range(samples):
        lams = tuple(lam_stream[si * k : (si + 1) * k])
        acc = sets[0]
        for lam, nxt in zip(lams, sets[1:]):
            acc = sum_scaled(acc, nxt, lam, max_pairs=max_pairs)
        ml = max(2, math.isqrt(acc.hull().length))
        dim = dimension_estimate(acc, ScanSchedule(budget=dim_budget, min_length=ml))
        records.append(MultiSweepRecord(lams, dim.alpha_float, len(acc)))
    dims = [r.dimension for r in records]
    return MultiSweepReport(
        tuple(records),
        target,
        seed,
        min(dims),
        statistics.median(dims),
        max(dims),
    )
