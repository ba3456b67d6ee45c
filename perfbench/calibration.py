"""The reference kernel: fixed work timed between ops.

The host this benchmark was written on changes speed by up to 1.9x over
tens of seconds, and even the fastest of many runs of an op moves with
it.  Dividing an op's time by the kernel's time measured next to it
cancels most of that drift.  The kernel does not call zdim, so a change
to zdim leaves it alone and shows in full in the ratio.

It comes in two parts, each like a kind of work the workloads do: array
work (outer sums, a histogram over a wide span, ``np.unique``) and
pure-Python work (dict counting, a set of arithmetic progressions and
its sort, ``Fraction`` sums).
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

_SPAN = 1 << 21
_rng = np.random.default_rng(1011_0672)
_A = np.sort(_rng.integers(0, _SPAN // 2, 512))
_B = np.sort(_rng.integers(0, _SPAN // 2, 1536))


def array_part() -> int:
    counts = np.zeros(_SPAN, dtype=np.int64)
    for i in range(0, len(_A), 128):
        counts += np.bincount((_A[i : i + 128, None] + _B[None, :]).ravel(), minlength=_SPAN)
    distinct = np.unique((_A[:96, None] + _B[None, :]).ravel())
    return int(np.flatnonzero(counts).size) + len(distinct)


def python_part() -> tuple[Fraction, int, int]:
    hist: dict[int, int] = {}
    for i in range(120_000):
        key = i * 7919 % 65521
        hist[key] = hist.get(key, 0) + 1
    cuts: set[int] = set()
    for m in range(7, 60):
        cuts.update(range(m, 40_000, m))
    marks = sorted(cuts)
    total = Fraction(0)
    for b in range(30, 60):
        for k in range(b + 1, 2 * b):
            total += Fraction(k, b)
    return total, len(hist), len(marks)


KERNELS = {
    "mixed": (array_part, python_part),
    "python": (python_part,),
}

# Seconds each kernel takes on a quiet core of the 2-core Intel Xeon VM
# the benchmark was written on; set-up times are scaled to this speed.
NOMINAL_S = {"mixed": 0.11, "python": 0.04}


def timed(kind: str) -> float:
    """Seconds taken by one run of the named kernel."""
    parts = KERNELS[kind]
    t0 = time.perf_counter()
    for part in parts:
        part()
    return time.perf_counter() - t0
