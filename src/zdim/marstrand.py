"""Collision structure of a + floor(lam*b) as lam ranges over a window.

Central objects: the set of lam where two grid points (a,b), (a',b')
collide (a finite union of half-open intervals with rational
endpoints), the exact expected collision count Delta over a lambda
window (computed two independent ways), per-lambda collision
histograms with their Cauchy-Schwarz bound, and randomized sweeps
estimating the dimension of E + floor(lam*F) across a window.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .arithmetic import (
    SizeGuardError,
    check_sum_pairs,
    floor_scale,
    grid_energy,
    grid_histogram,
    grid_in_int64,
    sum_scaled,
)
from .intset import IntegerSet, Interval
from .measures import ScanSchedule, dimension_estimate

_OBJECT_GRID_PAIRS = 4_000_000  # largest grid histogrammed on Python ints


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

    exact_value comes from summing per-pair window measures grouped by
    slope pairs; quadrature_value re-derives it by integrating the
    collision energy N(lam) across every breakpoint.  The two must
    agree exactly; both are kept so each route checks the other.
    """

    window: LambdaWindow
    exact_value: Fraction
    quadrature_value: Fraction
    positive_pairs: int  # ordered pairs whose collision window has positive measure
    breakpoint_count: int

    @property
    def agreement(self) -> bool:
        return self.exact_value == self.quadrature_value


def _diff_histogram(E: IntegerSet) -> dict[int, int]:
    values, counts = grid_histogram(E, E.reflect(), 1)
    return dict(zip(values.tolist(), counts.tolist()))


def delta_exact(
    E: IntegerSet, F: IntegerSet, window: LambdaWindow, max_pairs: int = 10_000
) -> DeltaReport:
    """Integrate the ordered collision count over the lambda window.

    Route one: group ordered pairs by slopes (b, b'), walk the integer
    breakpoint grid of each group once, and weight piece lengths by the
    number of a-differences realizing each floor gap.  Route two:
    sweep all breakpoints of lam*b for b in F, maintaining the
    collision histogram and its energy N incrementally, and accumulate
    piecewise-constant N against piece lengths.  Exact rational
    arithmetic throughout; the report carries both values.
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
    diffs = _diff_histogram(E) if len(F) > 1 else {}  # read per pair of slopes only
    total = Fraction(pairs) * window.measure  # z == z' diagonal
    positive = pairs
    breakpoints = 0
    fvals = F.elements
    for i in range(len(fvals)):
        for j in range(i + 1, len(fvals)):
            b2, b = fvals[i], fvals[j]  # b > b2
            grid = _lcm(abs(b), abs(b2), lo.denominator, hi.denominator)
            nlo = lo.numerator * (grid // lo.denominator)
            nhi = hi.numerator * (grid // hi.denominator)
            cuts = {nlo, nhi}
            for m in (abs(b), abs(b2)):
                if m == 0:
                    continue
                step = grid // m
                first = (nlo // step + 1) * step
                cuts.update(range(first, nhi, step))
            marks = sorted(cuts)
            breakpoints += len(marks) - 2 if len(marks) > 2 else 0
            # walk pieces once, accumulating integer lengths per floor gap
            lengths: dict[int, int] = {}
            for left, right in zip(marks, marks[1:]):
                two_mid = left + right
                g = (two_mid * b) // (2 * grid) - (two_mid * b2) // (2 * grid)
                if g in diffs:
                    lengths[g] = lengths.get(g, 0) + (right - left)
            if lengths:
                num = sum(diffs[g] * L for g, L in lengths.items())
                total += 2 * Fraction(num, grid)
                positive += 2 * sum(diffs[g] for g in lengths)
    quad = _delta_quadrature(E, F, window)
    return DeltaReport(window, total, quad, positive, breakpoints)


def _delta_quadrature(E: IntegerSet, F: IntegerSet, window: LambdaWindow) -> Fraction:
    lo, hi = window.lo, window.hi
    events: dict[Fraction, list[int]] = {}
    for b in F.elements:
        if b == 0:
            continue
        ab = abs(b)
        k = math.floor(lo * ab) + 1
        top = hi * ab
        while k <= top:
            t = Fraction(k, ab)
            if lo < t < hi:
                events.setdefault(t, []).append(b)
            k += 1
    marks = sorted(events)
    first = marks[0] if marks else hi
    mid = (lo + first) / 2
    floors = {b: (mid.numerator * b) // mid.denominator for b in F.elements}
    hist: dict[int, int] = {}
    for b in F.elements:
        fb = floors[b]
        for a in E.elements:
            v = a + fb
            hist[v] = hist.get(v, 0) + 1
    energy = sum(c * c for c in hist.values())
    quad = Fraction(0)
    prev = lo
    for t in marks:
        quad += (t - prev) * energy
        for b in events[t]:
            stepv = 1 if b > 0 else -1
            old = floors[b]
            new = old + stepv
            floors[b] = new
            for a in E.elements:
                v = a + old
                c = hist[v]
                energy -= 2 * c - 1
                if c == 1:
                    del hist[v]
                else:
                    hist[v] = c - 1
                w = a + new
                c = hist.get(w, 0)
                energy += 2 * c + 1
                hist[w] = c + 1
        prev = t
    quad += (hi - prev) * energy
    return quad


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
