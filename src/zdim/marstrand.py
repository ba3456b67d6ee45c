"""Collision structure of a + floor(lam*b) as lam ranges over a window.

Central objects: the set of lam where two grid points (a,b), (a',b')
collide (a finite union of half-open intervals with rational
endpoints), the exact expected collision count Delta over a lambda
window (computed two independent ways), per-lambda collision
histograms with their Cauchy-Schwarz bound, and randomized sweeps
estimating the dimension of E + floor(lam*F) across a window.

Delta runs on integer arrays, exactly.  delta_exact walks the pieces of
every slope pair in chunks and reads its weights from the histogram of
the differences of E within the band a floor gap can reach;
_delta_quadrature integrates the collision energy on its own histogram
of a + floor(lam*b), one update per breakpoint.  Rational
values are carried as integer numerators over known grids, and only a
few Fractions are built at the end.  The int64 paths run only where a
bound proves that no product leaves int64 (and the event order only
where float keys are proven exact); object dtype, or a Fraction sort,
takes over otherwise, with the same code.
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
_DELTA_CHUNK = 4096  # fine intervals per chunk of the route-one piece walk
_BAND_CHUNK = 1 << 22  # differences made at once by _band_histogram


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
    def pair_count(self) -> int:
        return self.energy

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
    """Histogram (values, counts) of the differences a' - a, |a' - a| <= bound.

    xs is E's sorted, duplicate-free element array.  Only the pairs
    inside the band are made: for each a, the a' > a up to a + bound end
    at a searchsorted rank, and their differences are generated by
    ragged arange in chunks of _BAND_CHUNK pairs and counted by sorting.
    The negative side mirrors the positive one, and 0 counts |E|.
    """
    if xs.dtype != object and bound >= _INT64_LIMIT:
        xs = xs.astype(object)  # a + bound may leave int64
    n = len(xs)
    lens = np.searchsorted(xs, xs + bound, side="right") - np.arange(1, n + 1)
    ends = np.cumsum(lens)
    parts = []
    start = 0
    while start < n:
        base = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + _BAND_CHUNK, side="right")))
        rows = np.repeat(np.arange(start, stop), lens[start:stop])
        if len(rows):
            # pair t of row r is (r, r + 1 + t - first pair of r)
            firsts = ends[start:stop] - lens[start:stop] - base
            cols = np.arange(len(rows)) - firsts[rows - start] + rows + 1
            parts.append(_sorted_runs(xs[cols] - xs[rows]))
        start = stop
    if not parts:
        pos, mult = xs[:0], lens[:0]
    elif len(parts) == 1:
        pos, mult = parts[0]
    else:
        pos, mult = _sorted_runs(*(np.concatenate(p) for p in zip(*parts)))
    return (
        np.concatenate((-pos[::-1], np.zeros(1, pos.dtype), pos)),
        np.concatenate((mult[::-1], [n], mult)),
    )


def _gap_counts(values: np.ndarray, counts: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """counts[i] where values[i] == gap, else 0, for each gap; values sorted."""
    i = np.minimum(np.searchsorted(values, gaps), len(values) - 1)
    return np.where(values[i] == gaps, counts[i], 0)


def _slope_row(b2, bs, lo, hi, den, values, counts, gap_bound):
    """Route one for the slope pairs (b2, b), b in bs, every b > b2.

    Returns (grids, numerators, weight, breakpoints): pair p spends
    numerators[p] / grids[p] of window measure on gaps g, each piece
    weighted by its number of a-differences g; weight adds those numbers
    over the distinct gaps each pair hits, and breakpoints counts the
    inner cuts of all pairs.
    """
    m_fine = np.maximum(np.abs(bs), abs(b2))
    m_coarse = np.minimum(np.abs(bs), abs(b2))
    grid = np.lcm(np.lcm(m_fine, np.maximum(m_coarse, 1)), den)
    fine = grid // m_fine
    # a zero slope has no breakpoints: a coarse step equal to the fine one
    # never splits a fine interval
    coarse = np.where(m_coarse == 0, fine, grid // np.maximum(m_coarse, 1))
    nlo = lo.numerator * (grid // lo.denominator)
    nhi = hi.numerator * (grid // hi.denominator)
    k0 = nlo // fine
    nint = (-(-nhi // fine) - k0).astype(np.int64)  # fine intervals per pair
    ends = np.cumsum(nint)
    intervals = int(ends[-1])
    num = np.zeros(len(bs), dtype=bs.dtype)
    weight = splits = 0
    span = 2 * gap_bound + 1
    carry, carried = np.empty(0, bs.dtype), 0

    def hit_weight(keys):
        return int(_gap_counts(values, counts, keys % span - gap_bound).sum())

    for start in range(0, intervals, _DELTA_CHUNK):
        x = np.arange(start, min(start + _DELTA_CHUNK, intervals))
        p = np.searchsorted(ends, x, side="right")
        step = fine[p]
        cut = (k0[p] + x - (ends[p] - nint[p])) * step
        left = np.maximum(cut, nlo[p])
        right = np.minimum(cut + step, nhi[p])
        c = coarse[p]
        mid = np.minimum((left // c + 1) * c, right)  # the coarse cut, else right
        b, two_grid = bs[p], 2 * grid[p]
        ga = ((left + mid) * b) // two_grid - ((left + mid) * b2) // two_grid
        gb = ((mid + right) * b) // two_grid - ((mid + right) * b2) // two_grid
        la, lb = mid - left, right - mid
        ca = _gap_counts(values, counts, ga)
        cb = _gap_counts(values, counts, gb)
        first = np.flatnonzero(np.diff(p, prepend=-1))
        num[p[first]] += np.add.reduceat(ca * la + cb * lb, first)
        splits += int(np.count_nonzero(lb))
        # distinct (pair, gap) hits by sort-and-mask on the key
        # p*span + g + gap_bound; carried keys were counted in the last chunk
        key = p * span + gap_bound
        ha, hb = ca > 0, (cb > 0) & (lb > 0)
        keys = np.sort(np.concatenate((carry, key[ha] + ga[ha], key[hb] + gb[hb])))
        new = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
        keys = keys[new]
        weight += hit_weight(keys) - carried
        last = p[-1]
        if x[-1] + 1 < ends[last]:
            # the pair goes on past lam* = right/grid; every gap lies
            # strictly within 1 of lam*(b - b2), so only its hits of at
            # least floor(lam* (b - b2)) can recur
            floor_gap = right[-1] * (bs[last] - b2) // grid[last]
            carry = keys[keys >= last * span + floor_gap + gap_bound]
            carried = hit_weight(carry)
        else:
            carry, carried = carry[:0], 0
    return grid, num, weight, intervals - len(bs) + splits


def delta_exact(
    E: IntegerSet, F: IntegerSet, window: LambdaWindow, max_pairs: int = 10_000
) -> DeltaReport:
    """Integrate the ordered collision count over the lambda window.

    The diagonal z == z' gives |E||F| times the window measure.  Route
    one adds twice the measure of every slope pair b' < b of F, walked
    one row (fixed b') at a time and in chunks of _DELTA_CHUNK fine
    intervals.  On the integer grid lcm(|b|, |b'|, window denominators)
    the breakpoints of lam*b and lam*b' are the multiples of grid/|b|
    and grid/|b'|.  The larger slope gives the fine step; a fine
    interval is no longer than the coarse step, so it holds at most one
    coarse breakpoint, and the pieces are the fine intervals split at
    most once, built by arange arithmetic with no sort.  The floor gap
    g of a piece is evaluated in integers at its midpoint, and the
    number of ordered pairs with a' - a = g is looked up in the sorted
    histogram of the differences with |a' - a| <= gap_bound, the band
    every gap lies in (_band_histogram).  Piece lengths times
    counts are summed per pair (int64 when a bound on every grid
    product, taken from F, |E| and the window, is below 2**62, object
    dtype otherwise), grouped by grid and added as Fractions.

    Route two, _delta_quadrature, integrates the collision energy
    across every breakpoint of lam*F on its own histogram of
    a + floor(lam*b).  Both are exact; the report carries both values.
    positive_pairs counts ordered pairs whose collision set has positive
    measure and breakpoint_count the inner cuts of route one.
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
        gap_bound = math.floor(2 * bmax * hi) + 1  # |g| < lam*|b - b'| + 1
        # grids are at most bmax**2 * den: this bounds every product of
        # the walk, and the hit keys are below |F| * (2*gap_bound + 1)
        fits = (
            2 * max(hi, 1) * bmax**2 * den * max(bmax, len(E)) < _INT64_LIMIT
            and len(fvals) * (2 * gap_bound + 1) < _INT64_LIMIT
        )
        dtype = np.int64 if fits else object
        values, counts = _band_histogram(E._array(), gap_bound)
        values, counts = values.astype(dtype), counts.astype(dtype)
        f = np.array(fvals, dtype=dtype)
        by_grid: dict[int, int] = {}
        for i in range(len(fvals) - 1):
            grids, nums, weight, cuts = _slope_row(
                fvals[i], f[i + 1 :], lo, hi, den, values, counts, gap_bound
            )
            positive += 2 * weight
            breakpoints += cuts
            for g, n in zip(grids.tolist(), nums.tolist()):
                if n:
                    by_grid[g] = by_grid.get(g, 0) + n
        total += 2 * sum((Fraction(n, g) for g, n in by_grid.items()), Fraction(0))
    quad = _delta_quadrature(E, F, window)
    return DeltaReport(window, total, quad, positive, breakpoints)


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
    numbers them contiguously however large E's elements are.  An event
    moves the |E| values a + floor(lam*b) of one b by one; removing the
    old ones, then adding the new ones (each duplicate-free) changes N
    by 2*(sum h_new - sum h_old) + 2|E|.  By Abel summation the integral
    is hi*N_end - lo*N_start - sum over events of t*dN, and grouping
    t*dN = k*dN/|b| by b leaves one integer and one Fraction per slope.
    """
    lo, hi = window.lo, window.hi
    fvals = F.elements
    slopes = [abs(b) for b in fvals]
    firsts = [math.floor(lo * m) + 1 for m in slopes]
    counts = [math.ceil(hi * m) - k if m else 0 for m, k in zip(slopes, firsts)]
    float_keys = hi * max(slopes) ** 2 < 1 << 52
    owner = np.repeat(np.arange(len(fvals)), counts)
    ks = np.array(firsts, dtype=np.int64 if float_keys else object)[owner]
    ks += np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]
    if float_keys:
        order = np.argsort(ks / np.array(slopes)[owner], kind="stable")
    else:
        order = sorted(range(len(ks)), key=lambda e: Fraction(ks[e], slopes[owner[e]]))
    ks, owner = ks[order].tolist(), owner[order].tolist()
    first = Fraction(ks[0], slopes[owner[0]]) if ks else hi
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
    hist = np.bincount(cur.ravel(), minlength=int(sizes.sum()))
    start_energy = energy = int(hist @ hist)
    two_e = 2 * len(E)
    weighted = [0] * len(fvals)  # sum of k * dN over the events of each b
    for k, j in zip(ks, owner):
        old = cur[j]
        new = old + steps[j]
        h = hist[old]
        hist[old] = h - 1
        h2 = hist[new]
        hist[new] = h2 + 1
        d = 2 * int(np.add.reduce(h2 - h)) + two_e
        weighted[j] += k * d
        energy += d
        cur[j] = new
    return hi * energy - lo * start_energy - sum(
        (Fraction(w, m) for w, m in zip(weighted, slopes) if w), Fraction(0)
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
