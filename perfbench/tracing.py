"""Per-layer tracing from outside the program.

Each target names a zdim function by its defining module and attribute.
``patched`` replaces every reference to it across the loaded ``zdim``
modules (the names callers look it up by, such as ``zdim.cli.sweep`` and
``zdim.marstrand.sweep``) with a recording wrapper, and puts the
originals back on exit.  A layer's self time is its inclusive time minus
the inclusive time of the wrapped calls nested inside it.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

_BIG = 1 << 62  # zdim's int64 routes refuse values at or beyond this


def _big(s) -> bool:
    els = s.elements
    return bool(els) and (els[0] <= -_BIG or els[-1] >= _BIG)


def _pairs(args) -> int:
    return len(args[0]) * len(args[1])


def _sumset_counts(args, result, seconds):
    return {"pairs": _pairs(args), "out_elems": len(result)}


def _collision_counts(args, result, seconds):
    return {"pairs": _pairs(args), "distinct": result.distinct_count}


def _dimension_counts(args, result, seconds):
    n = len(args[0])
    return {
        "pairs_scanned": result.pairs_scanned,
        "full_pairs": n * (n + 1) // 2,
        "bigint_s": seconds if _big(args[0]) else 0.0,
    }


def _bigint_counts(args, result, seconds):
    return {"bigint_s": seconds if _big(args[0]) else 0.0}


_GENERATORS = (
    "power_set", "polynomial_set", "cantor_set", "resonance_sets", "ip_set",
    "integer_resonant_set", "random_walk_zeros", "zero_density_full_dim",
    "noncompatible_pair",
)

# (defining module, attribute, layer, counters(args, result, seconds) or None)
TARGETS = (
    ("zdim.cli", "main", "cli.main", None),
    ("zdim.intset", "read_zset", "intset.read_zset",
     lambda args, result, seconds: {"elems": len(result)}),
    ("zdim.intset", "write_zset", "intset.write_zset", None),
    ("zdim.intset", "IntegerSet._np_view", "intset.np_view", None),
    *(("zdim.generators", name, "generators", None) for name in _GENERATORS),
    ("zdim.arithmetic", "floor_scale", "arithmetic.floor_scale", None),
    ("zdim.arithmetic", "sumset", "arithmetic.sumset", _sumset_counts),
    ("zdim.marstrand", "collision_stats", "marstrand.collision_stats", _collision_counts),
    ("zdim.marstrand", "sweep", "marstrand.sweep", None),
    ("zdim.marstrand", "delta_exact", "marstrand.delta_exact",
     lambda args, result, seconds: {"breakpoints": result.breakpoint_count}),
    ("zdim.marstrand", "_delta_quadrature", "marstrand.delta_quadrature", None),
    ("zdim.measures", "dimension_estimate", "measures.dimension_estimate", _dimension_counts),
    ("zdim.measures", "alpha_measure_estimate", "measures.alpha_measure_estimate",
     _bigint_counts),
    ("zdim.regularity", "regularity_diagnostic", "regularity.regularity_diagnostic", None),
    ("zdim.regularity", "compatibility_check", "regularity.compatibility_check", None),
    ("zdim.regularity", "sup_ratio", "regularity.sup_ratio", None),
    ("zdim.regularity", "dyadic_thin", "regularity.dyadic_thin", None),
    ("zdim.exact", "cmp_ratio", "exact.cmp_ratio", None),
    ("zdim.exact", "pow_bracket", "exact.pow_bracket", None),
)

# metrics that are ratios of two recorded counters
RATIOS = {
    "arithmetic.sumset.distinct_per_pair": ("arithmetic.sumset.out_elems",
                                            "arithmetic.sumset.pairs"),
    "marstrand.collision_stats.distinct_per_pair": ("marstrand.collision_stats.distinct",
                                                    "marstrand.collision_stats.pairs"),
    "measures.dimension_estimate.coverage": ("measures.dimension_estimate.pairs_scanned",
                                             "measures.dimension_estimate.full_pairs"),
}


class Tracer:
    """Accumulates calls, inclusive and self seconds, and counters per layer.

    ``totals`` maps "<layer>.calls", "<layer>.s", "<layer>.self_s" and
    "<layer>.<counter>" to sums over every recorded call.
    """

    def __init__(self):
        self.totals: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [layer, seconds of nested wrapped calls]

    def wrap(self, layer, fn, counters):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if any(frame[0] == layer for frame in self._stack):
                return fn(*args, **kwargs)  # re-entry into a layer already timed
            frame = [layer, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += seconds
                self.totals[layer + ".calls"] += 1
                self.totals[layer + ".s"] += seconds
                self.totals[layer + ".self_s"] += seconds - frame[1]
            if counters is not None:
                for key, value in counters(args, result, seconds).items():
                    self.totals[f"{layer}.{key}"] += value
            return result

        return wrapper


def _resolve(module: str, attr: str):
    """(owner, name, function) for a target, or None if it no longer exists."""
    owner = sys.modules.get(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or name not in vars(owner):
        return None
    return owner, name, vars(owner)[name]


def _zdim_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "zdim" or n.startswith("zdim."))]


@contextmanager
def patched(tracer: Tracer, targets=TARGETS):
    """Wrap every reference to each target; yield the targets not found."""
    saved = []  # (owner, name, original)
    missing = []
    try:
        for module, attr, layer, counters in targets:
            found = _resolve(module, attr)
            if found is None:
                missing.append(f"{module}.{attr}")
                continue
            owner, name, fn = found
            wrapper = tracer.wrap(layer, fn, counters)
            if "." in attr:  # a method: its class is the only owner
                refs = [(owner, name)]
            else:
                refs = [(mod, key) for mod in _zdim_modules()
                        for key, value in list(vars(mod).items()) if value is fn]
            for ref_owner, ref_name in refs:
                saved.append((ref_owner, ref_name, fn))
                setattr(ref_owner, ref_name, wrapper)
        yield missing
    finally:
        for owner, name, fn in reversed(saved):
            setattr(owner, name, fn)


def layer_metrics(names, setup: Tracer, passes: Tracer, n_passes: int) -> dict:
    """Per-layer values for one set-up plus one pass (pass values averaged)."""
    total = defaultdict(float, setup.totals)
    for key, value in passes.totals.items():
        total[key] += value / n_passes
    out = {}
    for name in names:
        if name in RATIOS:
            num, den = RATIOS[name]
            out[name] = total[num] / total[den] if total[den] else 0.0
        else:
            out[name] = total[name]
    return out
