"""Collision structure of a + floor(lam*b) as lam ranges over a window.

Central objects: the set of lam where two grid points (a,b), (a',b')
collide (a finite union of half-open intervals with rational
endpoints), the exact expected collision count Delta over a lambda
window (computed two independent ways), per-lambda collision
histograms with their Cauchy-Schwarz bound, and randomized sweeps
estimating the dimension of E + floor(lam*F) across a window.

Delta runs on integer arrays, exactly.  delta_exact walks every slope
pair one cell of its smaller slope at a time, in chunks, and reads its
weights from prefix sums over the histogram of the differences of E
within the band a floor gap can reach; _delta_quadrature integrates
the collision energy on its own histogram of a + floor(lam*b), updated
in blocks of breakpoints.  Rational values are carried as integer
numerators over known grids, and only a few Fractions are built at the
end.  The int64 paths run only where a bound proves that no product
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

from .arithmetic import (
    SizeGuardError,
    _sorted_runs,
    check_sum_pairs,
    floor_scale,
    grid_energy,
    grid_histogram,
    grid_in_int64,
    sum_scaled,
)
from .intset import _INT64_LIMIT, IntegerSet, Interval
from .measures import ScanSchedule, dimension_estimate

_OBJECT_GRID_PAIRS = 4_000_000  # largest grid histogrammed on Python ints
_DELTA_CHUNK = 4096  # coarse cells per chunk of the route-one walk
_BAND_CHUNK = 1 << 22  # differences made at once by _band_histogram
_QUAD_BLOCK = 128  # events applied at once by _delta_quadrature's block update
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


@dataclass(frozen=True)
class CollisionReport:
    lam: Fraction
    total: int  # |E|*|F|, all grid points counted with multiplicity
    distinct_count: int  # values of a + floor(lam*b) actually hit
    energy: int  # sum of squared multiplicities (= ordered collision pairs)
    cs_bound: Fraction  # total**2 / energy <= distinct_count
    values: tuple[int, ...]
    counts: tuple[int, ...]

    @property
    def histogram(self) -> dict[int, int]:
        return dict(zip(self.values, self.counts))


def _check_grid(E: IntegerSet, F: IntegerSet, lam: Fraction, max_pairs: int) -> int:
    """Size guards of a collision grid; returns its number of pairs."""
    pairs = len(E) * len(F)
    if pairs > max_pairs:
        raise SizeGuardError(
            f"collision grid too large ({pairs} pairs), restrict windows"
        )
    if pairs > _OBJECT_GRID_PAIRS and not grid_in_int64(E, F, lam):
        raise SizeGuardError(
            "collision grid needs big-integer handling at this size, "
            "restrict windows"
        )
    return pairs


def collision_stats(
    E: IntegerSet, F: IntegerSet, lam, max_pairs: int = 100_000_000
) -> CollisionReport:
    """Histogram of a + floor(lam*b) over the product grid.

    energy counts ordered colliding pairs; Cauchy-Schwarz gives
    distinct_count >= total**2 / energy, recorded exactly as cs_bound.
    """
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if len(E) == 0 or len(F) == 0:
        raise ValueError("empty set")
    pairs = _check_grid(E, F, lam, max_pairs)
    values, counts = grid_histogram(E, F, lam)
    energy = grid_energy(counts, pairs)
    return CollisionReport(
        lam,
        pairs,
        len(values),
        energy,
        Fraction(pairs * pairs, energy),
        tuple(values.tolist()),
        tuple(counts.tolist()),
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
    ragged arange in chunks of _BAND_CHUNK pairs and counted by sorting,
    so 0 counts |E|.  No negative difference is needed: for b' < b and
    lam > 0 the floor gap floor(lam*b) - floor(lam*b') is at least 0.
    """
    if xs.dtype != object and bound >= _INT64_LIMIT:
        xs = xs.astype(object)  # a + bound may leave int64
    n = len(xs)
    lens = np.searchsorted(xs, xs + bound, side="right") - np.arange(n)
    ends = np.cumsum(lens)
    parts = []
    start = 0
    while start < n:
        base = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + _BAND_CHUNK, side="right")))
        rows = np.repeat(np.arange(start, stop), lens[start:stop])
        # pair t of row r is (r, r + t - first pair of r)
        firsts = ends[start:stop] - lens[start:stop] - base
        cols = np.arange(len(rows)) - firsts[rows - start] + rows
        parts.append(_sorted_runs(xs[cols] - xs[rows]))
        start = stop
    if len(parts) == 1:
        return parts[0]
    return _sorted_runs(*(np.concatenate(p) for p in zip(*parts)))


def _slope_row(b2, bs, lo, hi, den, values, counts, below):
    """Route one for the slope pairs (b2, b), b in bs, every b > b2.

    Returns (grids, numerators, weight, breakpoints): pair p spends
    numerators[p] / grids[p] of window measure on gaps g, each piece
    weighted by its number of a-differences g; weight adds those numbers
    over the distinct gaps each pair hits, and breakpoints counts the
    inner cuts of all pairs.  values (sorted, closed by a sentinel above
    every gap) and counts hold the histogram, below[j] = sum(counts[:j]).

    A pair is walked one cell of its smaller slope at a time, in chunks
    of _DELTA_CHUNK cells; a zero slope never cuts and gives one cell,
    [0, nhi).  On fine interval k of cell i the gap is k + sign*i +
    offset (sign -1 for one sign, +1 for opposite signs, 0 with a zero
    slope), so a cell's gaps rise one per fine interval from g1 to g2:
    its end pieces are weighted by their lengths, the fine intervals
    between them by prefix sums.  For one sign the gap falls by at most
    one at a coarse cut and a full cell holds two gaps or more, so a pair
    hits every gap from its least (in its first two cells) to its
    greatest (in its last two).  For opposite signs it never falls and
    skips one where both slopes cut, so distinct cells hit distinct gaps.
    """
    m_fine = np.maximum(np.abs(bs), abs(b2))
    m_coarse = np.minimum(np.abs(bs), abs(b2))
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
    sign = ((bs < 0).astype(np.int64) - (bs > 0)) * ((b2 > 0) - (b2 < 0))
    offset = int(b2 < 0) - (bs < 0).astype(np.int64)

    def gap_after(x):  # the gap on (x, x + 1), x a grid point
        return x // fine + sign * (x // coarse) + offset

    # pairs of one sign or with a zero slope come first in the row
    rising = int(np.count_nonzero(sign <= 0))
    i0, i1 = nlo // coarse, (nhi - 1) // coarse  # the first and last cell of each pair
    least = np.minimum(gap_after(nlo), gap_after(np.minimum(i0 * coarse + coarse, nhi - 1)))
    most = np.maximum(gap_after(nhi - 1), gap_after(np.maximum(i1 * coarse - 1, nlo)))
    top = np.searchsorted(values, most, side="right")
    weight = sum((below[top] - below[np.searchsorted(values, least)])[:rising].tolist())
    ncell = (i1 - i0 + 1).astype(np.int64)
    ends = np.cumsum(ncell)
    i0 = i0 - (ends - ncell)  # the x-th cell walked is cell x + i0[p] of its pair p
    cells = int(ends[-1])
    skip = int(ends[rising - 1]) if rising else 0  # cells before those of opposite signs
    num = np.zeros(len(bs), dtype=bs.dtype)
    for start in range(0, cells, _DELTA_CHUNK):
        x = np.arange(start, min(start + _DELTA_CHUNK, cells))
        p = np.searchsorted(ends, x, side="right")
        i = x + i0[p]
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
        at = np.flatnonzero(np.diff(p, prepend=-1))
        num[p[at]] += np.add.reduceat(cell, at)
        o = max(skip - start, 0)
        if o < len(x):
            weight += int((s2[o:] + n2[o:] - s1[o:]).sum())
    return grid, num, weight, breakpoints


def delta_exact(
    E: IntegerSet, F: IntegerSet, window: LambdaWindow, max_pairs: int = 10_000
) -> DeltaReport:
    """Integrate the ordered collision count over the lambda window.

    The diagonal z == z' gives |E||F| times the window measure.  Route
    one adds twice the measure of every slope pair b' < b of F, walked
    one row (fixed b') at a time, in chunks of _DELTA_CHUNK cells of the
    coarse slope (_slope_row).  On the integer grid lcm(|b|, |b'|, window
    denominators) the breakpoints of lam*b and lam*b' are the multiples
    of grid/|b| and grid/|b'|.  Inside a cell of the smaller slope the
    floor gap g = floor(lam*b) - floor(lam*b') rises by one at each cut
    of the larger, so a cell's measure on each gap comes from its two
    end pieces and a prefix sum over the histogram of the differences
    a' - a in [0, gap_bound], the band every gap lies in
    (_band_histogram): one searchsorted per cell end, none per piece.
    Cell numerators are summed per pair (int64 when a bound on every
    product, taken from F, |E| and the window, is below 2**62, object
    dtype otherwise), grouped by grid and added as Fractions.

    Route two, _delta_quadrature, integrates the collision energy
    across every breakpoint of lam*F on its own histogram of
    a + floor(lam*b).  Both are exact; the report carries both values.
    positive_pairs counts ordered pairs whose collision set has positive
    measure and breakpoint_count the inner cuts of route one, counted
    per pair in closed form.
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
    total = Fraction(pairs) * window.measure  # z == z' diagonal
    positive = pairs
    breakpoints = 0
    if len(fvals) > 1:  # the differences are read per pair of slopes only
        bmax = max(abs(fvals[0]), abs(fvals[-1]))
        den = _lcm(lo.denominator, hi.denominator)
        gap_bound = math.floor(2 * bmax * hi) + 1  # 0 <= g < lam*(b - b') + 1
        # Grids are at most G = bmax**2 * den, steps at most max(hi, 1)*G
        # (a zero slope's cell is [0, nhi)), the ends i*c + c and k*f + f
        # at most nhi = hi*grid plus a step.  A cell's three terms are each
        # at most |E| steps, so their sum stays below 1.5 * 2**62; prefix
        # sums count at most |E|(|E| + 1)/2 differences a' - a >= 0, and a
        # chunk adds the gap weights of fewer than |F| pairs.
        n = len(E)
        fits = (
            2 * max(hi, 1) * bmax**2 * den * n < _INT64_LIMIT
            and len(fvals) * n * (n + 1) // 2 < _INT64_LIMIT
        )
        dtype = np.int64 if fits else object
        values, counts = _band_histogram(E._array(), gap_bound)
        values = np.append(values.astype(dtype), gap_bound + 1)  # the sentinel
        counts = np.append(counts.astype(dtype), 0)
        below = np.cumsum(counts) - counts
        f = np.array(fvals, dtype=dtype)
        by_grid: dict[int, int] = {}
        for i in range(len(fvals) - 1):
            grids, nums, weight, cuts = _slope_row(
                fvals[i], f[i + 1 :], lo, hi, den, values, counts, below
            )
            positive += 2 * weight
            breakpoints += cuts
            for g, n in zip(grids.tolist(), nums.tolist()):
                if n:
                    by_grid[g] = by_grid.get(g, 0) + n
        total += 2 * sum((Fraction(n, g) for g, n in by_grid.items()), Fraction(0))
    quad = _delta_quadrature(E, F, window)
    return DeltaReport(window, total, quad, positive, breakpoints)


def _radix_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of int64 keys in [0, bound), 16 bits per pass.

    numpy sorts 16-bit keys stably by radix sort, in linear time; least
    significant digit first, each pass keeps the order of the last.
    """
    order = np.argsort(keys.astype(np.uint16), kind="stable")  # wraps to the low bits
    shift = 16
    while bound > 1 << shift:
        digit = (keys[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


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
    old row (-1) or new row (+1), in event order.  The value a member sees
    at a counter is the block-start histogram there plus the signs of the
    earlier members at that counter, so one gather, one stable radix sort
    by counter, a cumsum per run of equal counters and one scatter of the
    run totals update hist and give every event's dN.  Updates hist.
    """
    n_e = cur.shape[1]
    step = np.array(steps, dtype=np.int64)[owner]
    offset = rank * step
    sign = np.ones((min(_QUAD_BLOCK, len(owner)), 2, n_e), dtype=np.int64)
    sign[:, 0] = -1
    sign = sign.ravel()
    dn = np.empty(len(owner), dtype=np.int64)
    for s in range(0, len(owner), _QUAD_BLOCK):
        rows = owner[s : s + _QUAD_BLOCK]
        n = len(rows)
        pos = np.empty((n, 2, n_e), dtype=np.int64)
        np.add(cur[rows], offset[s : s + n, None], out=pos[:, 0])
        np.add(pos[:, 0], step[s : s + n, None], out=pos[:, 1])
        pos = pos.ravel()
        by_pos = _radix_order(pos, size)
        at_pos, signs = pos[by_pos], sign[: len(pos)][by_pos]
        run = np.empty(len(pos), dtype=bool)
        run[0] = True
        np.not_equal(at_pos[1:], at_pos[:-1], out=run[1:])
        run_at = np.flatnonzero(run)
        run_end = np.append(run_at[1:], len(pos))
        tally = np.cumsum(signs)  # signed members up to here, through every run
        before = tally - signs
        counter = at_pos[run_at]
        # a member sees the block-start count plus the signs before it in its run
        base = hist[counter] - before[run_at]
        hist[counter] = base + tally[run_end - 1]
        seen = np.empty(len(pos), dtype=np.int64)
        seen[by_pos] = before + np.repeat(base, run_end - run_at)
        sums = seen.reshape(n, 2, n_e).sum(axis=2)
        dn[s : s + n] = 2 * (sums[:, 1] - sums[:, 0]) + 2 * n_e
    return dn


def _delta_quadrature(E: IntegerSet, F: IntegerSet, window: LambdaWindow) -> Fraction:
    """Route two of delta_exact: integrate the collision energy N(lam).

    N is constant between the events t = k/|b| (b in F, lo < t < hi),
    where lam*b crosses an integer.  Events are sorted on the float key
    k/|b| when hi * max|b|**2 < 2**52: distinct events then differ by at
    least 1/max|b|**2, more than twice the rounding error of a key, and
    equal events round alike, so the order is exact; otherwise they are
    sorted as Fractions.  The histogram of a + floor(lam*b) is kept on
    int64 counters in compressed coordinates: the values of a stay in
    [a + fmin, a + fmax], and merging these intervals over sorted E
    numbers them contiguously however large E's elements are, so row j
    (the counters of a + floor(lam*b_j), a in E) sits r steps of +-1
    from its start at the r-th event of b_j.  An event removes its row's
    old counters, then adds the new ones (each duplicate-free), which
    changes N by 2*(sum h_new - sum h_old) + 2|E|.

    Rows of up to _QUAD_ROWS counters are applied _QUAD_BLOCK events at a
    time by one radix sort per block (_quad_blocks): on short rows numpy's
    per-call cost dominates a per-event update.  Longer rows are applied
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
    slopes = [abs(b) for b in fvals]
    firsts = [math.floor(lo * m) + 1 for m in slopes]
    counts = [math.ceil(hi * m) - k if m else 0 for m, k in zip(slopes, firsts)]
    float_keys = hi * max(slopes) ** 2 < 1 << 52
    owner = np.repeat(np.arange(len(fvals)), counts)
    rank = np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]  # r of the r-th event
    ks = np.array(firsts, dtype=np.int64 if float_keys else object)[owner] + rank
    if float_keys:
        order = np.argsort(ks / np.array(slopes)[owner], kind="stable")
    else:
        order = sorted(range(len(ks)), key=lambda e: Fraction(ks[e], slopes[owner[e]]))
    ks, owner, rank = ks[order], owner[order], rank[order]
    first = Fraction(int(ks[0]), slopes[owner[0]]) if len(ks) else hi
    mid = (lo + first) / 2
    floors = [(mid.numerator * b) // mid.denominator for b in fvals]
    steps = [1 if b > 0 else -1 for b in fvals]
    lasts = [f + s * c for f, s, c in zip(floors, steps, counts)]
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
    # counter rows: row j holds the counters of a + floor(lam*b_j), a in E
    shift = np.array([f - l for f, l in zip(floors, lows)], dtype=np.int64)
    cur = np.ascontiguousarray(at.reshape(len(E), len(fvals)).T) + shift[:, None]
    size = int(sizes.sum())
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
    distinct: int
    energy: int
    cs_bound: Fraction
    span: int  # length of the interval the sum is confined to


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
            if len(Er) * len(Fr) > max_pairs:
                # the sum's guard fires first; it counts distinct floors
                check_sum_pairs(Er, floor_scale(Fr, lam), max_pairs)
            pairs = _check_grid(Er, Fr, lam, max_pairs)
            values, counts = grid_histogram(Er, Fr, lam)
            S = IntegerSet.from_sorted_array(
                values, f"sum({Er.provenance}, scale({Fr.provenance}, {lam}))"
            )
            ml = min_length
            if ml is None:
                ml = max(2, math.isqrt(S.hull().length))
            dim = dimension_estimate(S, ScanSchedule(budget=dim_budget, min_length=ml))
            energy = grid_energy(counts, pairs)
            rec = SweepRecord(
                lam,
                dim.alpha_float,
                len(S),
                len(S),
                energy,
                Fraction(pairs * pairs, energy),
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
