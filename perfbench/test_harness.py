"""Self-tests for the benchmark harness.

    python3 -m pytest perfbench/test_harness.py -q

They check that tracing leaves zdim exactly as found, that self time
never exceeds inclusive time, that a report differing from its
reference is counted as a failure, and that op times are divided by the
calibration kernel's times around them.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (pins threads before numpy loads)
from check import check_report, differences  # noqa: E402
from tracing import TARGETS, Tracer, layer_metrics, patched  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

zdim, _ = run.import_zdim()


def _snapshot():
    """Every attribute of every loaded zdim module and class, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "zdim" or name.startswith("zdim."):
            for key, value in vars(mod).items():
                out[(name, key)] = id(value)
                if isinstance(value, type) and value.__module__ == name:
                    for attr, member in vars(value).items():
                        out[(name, key, attr)] = id(member)
    return out


def _small_sweep():
    E = zdim.generators.polynomial_set((0, 0, 1), (1, 60))
    return zdim.marstrand.sweep(
        E, E, zdim.marstrand.LambdaWindow(Fraction(1), Fraction(2)), samples=2, seed=3
    )


def test_patched_wraps_every_lookup_name_and_restores_originals():
    before = _snapshot()
    originals = (zdim.marstrand.sweep, zdim.cli.sweep, zdim.intset.IntegerSet._np_view)
    with patched(Tracer()) as missing:
        assert missing == []
        assert zdim.marstrand.sweep is not originals[0]
        assert zdim.cli.sweep is not originals[1]
        assert zdim.intset.IntegerSet._np_view is not originals[2]
        _small_sweep()
    assert (zdim.marstrand.sweep, zdim.cli.sweep,
            zdim.intset.IntegerSet._np_view) == originals
    assert _snapshot() == before


def test_patched_restores_after_an_exception():
    before = _snapshot()
    try:
        with patched(Tracer()):
            zdim.arithmetic.sumset(zdim.intset.IntegerSet([]), zdim.intset.IntegerSet([1]))
    except ValueError:
        pass
    assert _snapshot() == before


def test_missing_target_is_reported_not_fatal():
    targets = TARGETS + (("zdim.arithmetic", "no_such_function", "x", None),)
    with patched(Tracer(), targets) as missing:
        _small_sweep()
    assert missing == ["zdim.arithmetic.no_such_function"]


def test_self_time_within_inclusive_time_and_counters():
    tracer = Tracer()
    with patched(tracer):
        rep = _small_sweep()
    totals = tracer.totals
    layers = {key.rsplit(".", 1)[0] for key in totals if key.endswith(".calls")}
    assert {"marstrand.sweep", "arithmetic.sumset", "marstrand.collision_stats",
            "measures.dimension_estimate"} <= layers
    for layer in layers:
        assert 0 <= totals[layer + ".self_s"] <= totals[layer + ".s"] + 1e-9
    assert totals["arithmetic.sumset.calls"] == 2
    assert totals["arithmetic.sumset.pairs"] == 2 * 60 * 60
    assert totals["marstrand.collision_stats.distinct"] == sum(r.distinct for r in rep.records)
    # the sweep's self time excludes the wrapped calls nested inside it
    nested = sum(totals[f"{layer}.s"] for layer in (
        "arithmetic.floor_scale", "arithmetic.sumset", "marstrand.collision_stats",
        "measures.dimension_estimate"))
    assert totals["marstrand.sweep.self_s"] <= totals["marstrand.sweep.s"] - nested + 1e-9
    metrics = layer_metrics(["arithmetic.sumset.distinct_per_pair", "arithmetic.sumset.s"],
                            Tracer(), tracer, 2)
    assert metrics["arithmetic.sumset.s"] == totals["arithmetic.sumset.s"] / 2
    assert metrics["arithmetic.sumset.distinct_per_pair"] == (
        totals["arithmetic.sumset.out_elems"] / totals["arithmetic.sumset.pairs"])


def test_differences_allow_added_fields_only():
    ref = {"a": 1, "b": [1.5, {"c": "1/2"}], "ok": True}
    assert differences(ref, {**ref, "new": 3}) == []
    assert differences(ref, {**ref, "a": 2})
    assert differences(ref, {**ref, "ok": 1})  # a bool is not an int
    assert differences(ref, {"a": 1, "ok": True})  # field dropped
    assert differences(ref, {**ref, "b": [1.5, {"c": "1/3"}]})
    assert differences(ref, {**ref, "b": [1.5]})


def test_perturbed_report_is_a_failed_op(tmp_path, monkeypatch):
    E = zdim.generators.power_set(Fraction(1, 2), 200)
    zdim.intset.write_zset(E, str(tmp_path / "sq.zset"))
    monkeypatch.chdir(tmp_path)
    op = Op(("measure", "sq.zset", "--dim"))
    _, text, problems = run.run_op(zdim, op, {op.key: {}})
    assert problems == []
    good = json.loads(text)
    assert run.run_op(zdim, op, {op.key: good})[2] == []
    bad = {**good, "count": good["count"] + 1}
    assert run.run_op(zdim, op, {op.key: bad})[2]
    assert run.run_op(zdim, op, {})[2] == [f"no reference for {op.key!r}"]
    log = run.Log([op])
    log.run(zdim, op, {op.key: bad})
    assert (log.attempted, len(log.failures)) == (1, 1)


def test_failing_op_and_disagreeing_delta_are_failures(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    op = Op(("measure", "absent.zset", "--dim"))
    assert run.run_op(zdim, op, {op.key: {}})[2][0].startswith("exit code 3")
    key = "collide a b --lambda 1 --delta-min 1 --delta-max 2"
    report = json.dumps({"delta": {"agreement": False}})
    assert check_report(key, report, {key: {}}) == [
        "delta routes disagree (agreement is not true)"]


def test_end_to_end_divides_op_times_by_the_kernel_around_them(tmp_path, monkeypatch):
    E = zdim.generators.power_set(Fraction(1, 2), 200)
    zdim.intset.write_zset(E, str(tmp_path / "sq.zset"))
    monkeypatch.chdir(tmp_path)
    ops = [Op(("measure", "sq.zset", flag)) for flag in ("--dim", "--density")]
    ops.append(Op(("measure", "sq.zset", "--alpha", "1/2")))
    references = {op.key: {} for op in ops}
    kernel = iter([1.0, 2.0, 4.0, 8.0])
    monkeypatch.setattr(run.calibration, "timed", lambda kind: next(kernel))
    monkeypatch.setattr(run, "CALIBRATE_EVERY_S", 0.0)  # after every op
    log = run.Log(ops)
    metrics, info = run.end_to_end(zdim, WORKLOADS["scan"], ops, references, 0, 1.5, log)
    # the warm-up runs and is checked, but only the one pass is timed
    assert (log.attempted, log.failures) == (4, [])
    (t0,), (t1,), (t2,) = (log.times[op.key] for op in ops)
    # each op's divisor: the median of up to two kernel runs before it and two after
    assert info == {"op_ref": {ops[0].key: [t0 / 2.0], ops[1].key: [t1 / 3.0],
                               ops[2].key: [t2 / 4.0]},
                    "kernel_s": [1.0, 2.0, 4.0, 8.0],
                    "samples": [(ops[0].key, t0, 1), (ops[1].key, t1, 2), (ops[2].key, t2, 3)]}
    assert metrics["wall_ref"] == t0 / 2.0 + t1 / 3.0 + t2 / 4.0
    assert (metrics["setup_measured_s"], metrics["wall_s"], metrics["kernel_s"]) == (
        1.5, t0 + t1 + t2, 3.0)
    assert metrics["setup_s"] == 1.5 * run.calibration.NOMINAL_S["mixed"] / 3.0
