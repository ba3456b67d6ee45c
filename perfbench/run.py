"""zdim benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The zdim under ``src/`` is imported in
process; each op is one ``zdim.cli.main(argv)`` call on frozen ``.zset``
inputs, issued only after the previous op returned, and its JSON report
is checked against ``perfbench/reference/``.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` reports the
per-layer metrics from a separate traced run.  The last line of standard
output is the result object; the full record, with the machine it ran
on, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP pools to one thread before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import calibration
from check import check_report, load_references
from tracing import Tracer, layer_metrics, patched
from workloads import WORKLOADS, effective_seed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
CALIBRATE_EVERY_S = 1.0  # op time between two runs of the calibration kernel


def import_zdim():
    """Import zdim from this checkout's src/, timed; exits with status 1 if absent."""
    if not (SRC / "zdim" / "__init__.py").is_file():
        sys.exit(f"error: no zdim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import zdim
    import zdim.cli
    seconds = time.perf_counter() - t0
    if SRC not in Path(zdim.__file__).resolve().parents:
        sys.exit(f"error: imported zdim from {zdim.__file__}, not from {SRC}")
    return zdim, seconds


def set_up(zdim, workload, seed, workdir: Path) -> tuple[float, dict]:
    """Build and write the inputs once; returns (seconds, {file name: size})."""
    t0 = time.perf_counter()
    sets = workload.inputs(zdim, seed)
    for name, s in sets.items():
        zdim.intset.write_zset(s, str(workdir / name))
    seconds = time.perf_counter() - t0
    sizes = {name: len(s) for name, s in sets.items()}
    del sets
    gc.collect()
    return seconds, sizes


def run_op(zdim, op, references) -> tuple[float, str, list[str]]:
    """Time one CLI call; returns (seconds, printed report, problems)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = zdim.cli.main(list(op.argv))
    except SystemExit as e:  # argparse refusals
        rc = e.code
    except Exception as e:  # an op that raises is a failed op, not a crash
        seconds = time.perf_counter() - t0
        return seconds, "", [f"raised {type(e).__name__}: {e}"]
    seconds = time.perf_counter() - t0
    text = out.getvalue()
    if rc != 0:
        return seconds, text, [f"exit code {rc}: {err.getvalue().strip()[:200]}"]
    return seconds, text, check_report(op.key, text, references)


class Log:
    """Op outcomes of one run."""

    def __init__(self, ops):
        self.times = {op.key: [] for op in ops}
        self.reports: dict[str, str] = {}  # last printed report per op
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, zdim, op, references) -> float:
        seconds, self.reports[op.key], problems = run_op(zdim, op, references)
        self.attempted += 1
        self.times[op.key].append(seconds)
        if problems:
            self.failures.append(f"{op.key}: {problems[0]}")
        return seconds

    def run_pass(self, zdim, ops, references) -> float:
        return sum(self.run(zdim, op, references) for op in ops)


def end_to_end(zdim, workload, ops, references, seconds, setup_s, log) -> tuple[dict, dict]:
    """Round-robin over the op list until the time is up (at least one pass).

    The calibration kernel runs before the first timed op and again each
    time the ops since its last run took CALIBRATE_EVERY_S.  Every op's
    time is divided by the median of the kernel times of the two runs
    before it and the two after it.  The set-up time is scaled by the
    kernel's nominal time over its median time in the run.
    """
    log.run(zdim, ops[0], references)
    log.times[ops[0].key].clear()  # warm-up: checked, not timed
    kernel_s = [calibration.timed(workload.kernel)]
    samples: list[tuple[str, float, int]] = []  # op, seconds, next kernel run
    since = 0.0
    start = time.perf_counter()
    i = 0
    while True:
        op = ops[i % len(ops)]
        op_s = log.run(zdim, op, references)
        samples.append((op.key, op_s, len(kernel_s)))
        since += op_s
        i += 1
        done = i >= len(ops) and time.perf_counter() - start >= seconds
        if done or since >= CALIBRATE_EVERY_S:
            kernel_s.append(calibration.timed(workload.kernel))
            since = 0.0
        if done:
            break
    rel = {op.key: [] for op in ops}
    for key, op_s, j in samples:
        rel[key].append(op_s / statistics.median(kernel_s[max(0, j - 2) : j + 2]))
    kernel_med = statistics.median(kernel_s)
    metrics = {
        "setup_s": setup_s * calibration.NOMINAL_S[workload.kernel] / kernel_med,
        "wall_ref": sum(statistics.median(rel[op.key]) for op in ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # as measured, recorded but not gated: they carry the host's drift
        "setup_measured_s": setup_s,
        "wall_s": sum(statistics.median(log.times[op.key]) for op in ops),
        "kernel_s": kernel_med,
    }
    return metrics, {"op_ref": rel, "kernel_s": kernel_s, "samples": samples}


def traced(zdim, ops, references, seconds, setup_tracer, names, log) -> tuple[dict, dict]:
    """Alternate untraced and traced passes while another pair fits in the time."""
    tracer = Tracer()
    plain, with_trace = [], []
    missing: list[str] = []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start + plain[-1] + with_trace[-1] <= seconds:
        plain.append(log.run_pass(zdim, ops, references))
        with patched(tracer) as missing:
            with_trace.append(log.run_pass(zdim, ops, references))
    metrics = layer_metrics(names, setup_tracer, tracer, len(with_trace))
    metrics["trace_overhead_s"] = statistics.median(with_trace) - statistics.median(plain)
    info = {"untraced_pass_s": plain, "traced_pass_s": with_trace,
            "missing_targets": missing}
    return metrics, info


def notes(workload, metrics, traced_pass_s, sizes, log) -> dict:
    """Figures the ROADMAP baseline is checked against."""
    out = {}
    if workload.name.startswith("sweep_"):
        sums = metrics["arithmetic.sumset.s"] + metrics["marstrand.collision_stats.s"]
        out["sumset_plus_collision_share_of_pass"] = sums / statistics.median(traced_pass_s)
        if metrics["arithmetic.sumset.s"]:
            out["collision_over_sumset"] = (
                metrics["marstrand.collision_stats.s"] / metrics["arithmetic.sumset.s"])
    report = log.reports.get("measure ec.zset --dim")
    if report:
        n = sizes["ec.zset"]
        out["ec_dimension_coverage"] = json.loads(report)["pairs_scanned"] / (n * (n + 1) // 2)
    return out


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "zdim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "zdim_sources_sha256": digest.hexdigest(),
    }


def git_commit():
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    zdim, import_s = import_zdim()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    workload = WORKLOADS[args.workload]
    seed = effective_seed(args.seed)
    references = load_references(workload.name)

    workdir = ROOT / ".perfbench" / f"work-{workload.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    here = os.getcwd()
    try:
        if args.trace:
            setup_tracer = Tracer()
            with patched(setup_tracer):
                _, sizes = set_up(zdim, workload, seed, workdir)
        else:
            builds = [set_up(zdim, workload, seed, workdir) for _ in range(SETUP_REPEATS)]
            sizes = builds[0][1]
            setup_s = import_s + statistics.median(s for s, _ in builds)
        ops = workload.ops(seed)
        log = Log(ops)
        os.chdir(workdir)  # reports name inputs by bare file name
        if args.trace:
            metrics, info = traced(zdim, ops, references, args.seconds,
                                   setup_tracer, list(units), log)
            info["notes"] = notes(workload, metrics, info["traced_pass_s"], sizes, log)
        else:
            metrics, info = end_to_end(zdim, workload, ops, references,
                                       args.seconds, setup_s, log)
    finally:
        os.chdir(here)
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(log.failures)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "effective_seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "metrics": metrics,
        "fail_ratio": failed / log.attempted,
        "attempted": log.attempted,
        "failures": log.failures[:20],
        "op_seconds": log.times,
        **info,
    }
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    out_path = results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"{workload.name} seed={args.seed} ops={log.attempted} "
          f"failed={failed} fail_ratio={record['fail_ratio']:.4f} (ratio)")
    for name, value in metrics.items():
        print(f"  {name:46s} {value:14.6g} {units.get(name, '')}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": log.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
