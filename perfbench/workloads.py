"""The four benchmark workloads: their inputs and their fixed op lists.

Each workload builds its inputs from the workload seed with
``zdim.generators``, and lists the CLI commands (ops) that one pass
runs on them.  Any seed is accepted; it is reduced modulo
``REFERENCE_SEEDS``, the number of seeds whose reports are frozen under
``reference/``.  Input file names carry every parameter their contents
depend on, so an op's argv identifies its report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

REFERENCE_SEEDS = 16


@dataclass(frozen=True)
class Op:
    """One CLI command."""

    argv: tuple[str, ...]

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable  # (zdim package, effective seed) -> {file name: IntegerSet}
    ops: Callable  # (effective seed) -> [Op]
    kernel: str  # the calibration kernel its op times are divided by


def effective_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


# ---------------------------------------------------------------------------
# sweep_sparse: criterion 07's inputs, sums that almost never collide


def _sparse_inputs(zdim, seed):
    return {"cubes.zset": zdim.generators.polynomial_set((0, 0, 0, 1), (1, 1000))}


def _sparse_ops(seed):
    return [
        Op(("sweep", "cubes.zset", "cubes.zset", "--lambda-min", "1",
            "--lambda-max", "2", "--samples", "1", "--seed", str(100 * seed + i)))
        for i in range(4)
    ]


# ---------------------------------------------------------------------------
# sweep_dense: resonance_sets(6) E_a, E_b, sums that are about 75% dense


def _dense_inputs(zdim, seed):
    # the same calls resonance_sets(6) makes for E_a and E_b; building its
    # third set (E_c, 1.77M elements) here would only slow set-up
    gen = zdim.generators
    block = gen.TransitionMatrix.block
    return {
        "ea.zset": gen.cantor_set(block(12, range(1, 5)), 5, base=12),
        "eb.zset": gen.cantor_set(block(12, (1, 5, 6, 7, 8)), 5, base=12),
    }


# Per-lambda time and memory grow with the span of the sum, so the ops
# draw one lambda each from four narrow windows spread over (1/2, 5/2]:
# every seed then does about the same work in a pass and peaks at about
# the same memory.
_DENSE_WINDOWS = (("7/10", "3/4"), ("6/5", "5/4"), ("17/10", "7/4"), ("11/5", "9/4"))


def _dense_ops(seed):
    return [
        Op(("sweep", "ea.zset", "eb.zset", "--lambda-min", lo, "--lambda-max", hi,
            "--samples", "1", "--seed", str(100 * seed + i)))
        for i, (lo, hi) in enumerate(_DENSE_WINDOWS)
    ]


# ---------------------------------------------------------------------------
# scan: measures, ladders and thinning, on int64 and big-integer inputs.
# Its inputs do not depend on the seed: a seeded walk would change the
# work of a pass from seed to seed.


def _scan_inputs(zdim, seed):
    gen = zdim.generators
    full = gen.TransitionMatrix.full
    ne, nf = gen.noncompatible_pair(
        gen.NoncompatibleParams(Fraction(1, 2), Fraction(2, 3), 2)
    )
    return {
        "ec.zset": gen.resonance_sets(6)[2],
        "c3.zset": gen.cantor_set(full(2), 11, base=3, digits=(0, 2)),
        "cbig.zset": gen.cantor_set(full(4), 5, base=8192, digits=(0, 1, 2, 3)),
        "walk.zset": gen.random_walk_zeros(7, 10**6),
        "squares.zset": gen.power_set(Fraction(1, 2), 1000),
        "nce.zset": ne,
        "ncf.zset": nf,
    }


def _scan_ops(seed):
    argvs = [("measure", "ec.zset", "--dim"), ("diagnose", "ec.zset")]
    for name in ("c3.zset", "walk.zset", "squares.zset", "cbig.zset"):
        argvs += [
            ("measure", name, "--dim"),
            ("measure", name, "--alpha", "1/2"),
            ("diagnose", name),
            ("thin", name, "--alpha", "1/2"),
        ]
        if name != "cbig.zset":  # 0.5 s on big integers, like --alpha
            argvs.append(("measure", name, "--density"))
    argvs += [
        ("measure", "nce.zset", "--dim"),
        ("measure", "ncf.zset", "--dim"),
        ("diagnose", "nce.zset", "ncf.zset"),
    ]
    return [Op(argv) for argv in argvs]


# ---------------------------------------------------------------------------
# delta: the exact expected-collision integral on small random sets

# (|E|, |F|) per op; fixed so that a pass does about the same work on
# every seed.  Two draws per size halve the spread that the random values
# still put into the work of a pass.
_DELTA_SIZES = ((30, 60), (45, 45), (60, 30), (60, 60)) * 2


def _balanced(rng, n):
    """n distinct random values in [0, 1000] that sum to 500 n.

    Both delta routes walk every multiple of 1/b in the lambda window
    for each b of F, so their work grows with the sum of F's values; a
    fixed sum keeps the work of a pass about the same on every seed.
    Values come in pairs v, 1000 - v, with 500 itself when n is odd.
    """
    half = rng.sample(range(500), n // 2)
    return [500] * (n % 2) + half + [1000 - v for v in half]


def _delta_inputs(zdim, seed):
    rng = random.Random(seed)
    IntegerSet = zdim.intset.IntegerSet
    out = {}
    for i, (ne, nf) in enumerate(_DELTA_SIZES):
        out[f"d{seed}_{i}a.zset"] = IntegerSet(_balanced(rng, ne), "delta-a")
        out[f"d{seed}_{i}b.zset"] = IntegerSet(_balanced(rng, nf), "delta-b")
    return out


def _delta_ops(seed):
    ops = []
    for i in range(len(_DELTA_SIZES)):
        a, b = f"d{seed}_{i}a.zset", f"d{seed}_{i}b.zset"
        ops.append(Op(("collide", a, b, "--lambda", "1",
                       "--delta-min", "1", "--delta-max", "2")))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep_sparse", _sparse_inputs, _sparse_ops, "mixed"),
        Workload("sweep_dense", _dense_inputs, _dense_ops, "mixed"),
        Workload("scan", _scan_inputs, _scan_ops, "mixed"),
        # pure-Python work; the array part would also lift its peak memory
        Workload("delta", _delta_inputs, _delta_ops, "python"),
    )
}
