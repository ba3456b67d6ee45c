"""Command-line front end.

Subcommands construct sets, measure them, form sums, run the thinning
and regularity diagnostics, and drive collision experiments.  All
exact quantities are emitted as "p/q" strings; reports are
deterministic given identical inputs and seeds.  ``main`` builds the
subparser of the subcommand it runs alone, times each run, and
--manifest records its config (every option of the subcommand except
--json, --force and --manifest) with the config hash, the digests of
the files the run actually read and wrote, and the wall time.

Exit codes: 0 success (and assertions met), 1 assertion failed,
2 usage error, 3 data error.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import __version__
from .arithmetic import SizeGuardError, floor_scale, star, sum_scaled
from .generators import (
    IPParameters,
    NoncompatibleParams,
    TransitionMatrix,
    cantor_set,
    integer_resonant_set,
    ip_set,
    noncompatible_pair,
    polynomial_set,
    power_set,
    random_walk_zeros,
    zero_density_full_dim,
)
from .intset import IntegerSet, Interval, ZsetFormatError, read_zset, write_zset
from .marstrand import LambdaWindow, collision_stats, delta_exact, sweep
from .measures import (
    ScanSchedule,
    alpha_measure_estimate,
    density_estimate,
    dimension_estimate,
)
from .regularity import compatibility_check, dyadic_thin, regularity_diagnostic

SCHEMA = "zdim/1"
FLOAT_PRECISION = "1e-12"
# keys of the parsed arguments that are not part of a run's config: the
# subcommand and its handler, where the report and the manifest go, and
# whether outputs may be overwritten; "_"-prefixed keys are internal too
_NOT_CONFIG = {"command", "func", "json", "force", "manifest"}


class DataError(Exception):
    """File-level problem: missing, malformed, or refusing to overwrite."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Full parameter record of one subcommand invocation."""

    command: str
    params: dict

    def to_dict(self) -> dict:
        return {"schema": SCHEMA, "command": self.command, "params": self.params}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        extra = set(data) - {"schema", "command", "params"}
        if extra:
            raise ValueError(f"unknown config fields: {sorted(extra)}")
        if data.get("schema") != SCHEMA:
            raise ValueError(f"unsupported schema {data.get('schema')!r}")
        if not isinstance(data.get("command"), str):
            raise ValueError("config command must be a string")
        if not isinstance(data.get("params"), dict):
            raise ValueError("config params must be an object")
        return cls(data["command"], data["params"])

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))


def parse_frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(",") if t.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _witness_json(w: Optional[Interval]):
    if w is None:
        return None
    return {"lo": w.lo, "hi": w.hi}


# _emit, _save and _load record the files they write or read in
# args._outputs / args._inputs, which main hashes into the manifest
def _emit(args, report: dict) -> None:
    report = {"schema": SCHEMA, "kind": args.command, **report}
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text)
        args._outputs.append(args.json)
    else:
        sys.stdout.write(text)


def _load(args, path: str) -> IntegerSet:
    try:
        E = read_zset(path)
    except FileNotFoundError:
        raise DataError(f"no such file: {path}")
    except ZsetFormatError as e:
        raise DataError(f"{path}: {e}")
    args._inputs.append(path)
    return E


def _check_new(args, path: str) -> None:
    if os.path.exists(path) and not args.force:
        raise DataError(f"{path} exists, pass --force to overwrite")


def _save(args, E: IntegerSet, path: str) -> None:
    _check_new(args, path)
    write_zset(E, path)
    args._outputs.append(path)


def _save_out(args, S: IntegerSet) -> int:
    _save(args, S, args.out)
    print(f"wrote {args.out} ({len(S)} elements)")
    return 0


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(
    path: str, config: ExperimentConfig, inputs: list[str], outputs: list[str], t0: float
) -> None:
    cfg_json = json.dumps(config.to_dict(), sort_keys=True)
    manifest = {
        "schema": SCHEMA,
        "kind": "manifest",
        "tool_version": __version__,
        "config": config.to_dict(),
        "config_sha256": hashlib.sha256(cfg_json.encode()).hexdigest(),
        "inputs": {p: _sha256(p) for p in inputs},
        "outputs": {p: _sha256(p) for p in outputs},
        "wall_time_s": round(time.monotonic() - t0, 3),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _config_value(v):
    if isinstance(v, Fraction):
        return frac_str(v)
    if isinstance(v, tuple):
        return list(v)
    return v


# ---------------------------------------------------------------------------
# construct


def _require(args, parser, names: list[str]) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_"), None) is None]
    if missing:
        parser.error(
            f"kind {args.kind!r} requires " + ", ".join("--" + n for n in missing)
        )


def cmd_construct(args) -> int:
    parser = args._parser
    kind = args.kind
    second: Optional[IntegerSet] = None
    if kind == "power":
        _require(args, parser, ["alpha", "nmax"])
        E = power_set(args.alpha, args.nmax)
    elif kind == "polynomial":
        _require(args, parser, ["coeffs", "nmax"])
        E = polynomial_set(args.coeffs, (args.nmin, args.nmax))
    elif kind == "cantor":
        _require(args, parser, ["depth"])
        if args.depth < 1:
            parser.error("--depth must be >= 1 (digit string length)")
        if args.matrix == "full":
            if args.digits is not None:
                a = len(args.digits)
            elif args.base is not None:
                a = args.base
            else:
                parser.error("kind cantor with --matrix full needs --digits or --base")
            A = TransitionMatrix.full(a)
        else:
            A = TransitionMatrix.from_text(args.matrix)
            args._inputs.append(args.matrix)
        E = cantor_set(A, args.depth - 1, base=args.base, digits=args.digits)
    elif kind == "ip":
        _require(args, parser, ["ks", "ds"])
        if len(args.ks) != len(args.ds):
            parser.error("--ks and --ds must have equal length")
        params = IPParameters(args.ks, args.ds, len(args.ks))
        params.validate_gaps()
        E = ip_set(params)
    elif kind == "walk":
        _require(args, parser, ["seed", "steps"])
        E = random_walk_zeros(args.seed, args.steps)
    elif kind == "example2":
        _require(args, parser, ["depth"])
        E = zero_density_full_dim(args.depth)
    elif kind == "noncompatible":
        _require(args, parser, ["alpha", "beta", "depth", "out2"])
        params = NoncompatibleParams(
            args.alpha, args.beta, args.depth, growth_factor=args.growth
        )
        E, second = noncompatible_pair(params)
    elif kind == "resonant":
        _require(args, parser, ["alpha", "depth"])
        E = integer_resonant_set(args.alpha, args.depth)
    else:  # pragma: no cover - argparse choices guard this
        parser.error(f"unknown kind {kind!r}")
    if second is not None:  # refuse before the first write: no half of a pair
        _check_new(args, args.out2)
    _save(args, E, args.out)
    if second is not None:
        _save(args, second, args.out2)
    for path, s in ((args.out, E), (args.out2, second)):
        if s is not None:
            print(f"wrote {path} ({len(s)} elements)")
    return 0


# ---------------------------------------------------------------------------
# measure


def cmd_measure(args) -> int:
    E = _load(args, args.set)
    schedule = ScanSchedule(budget=args.budget, min_length=args.min_length)
    report: dict = {"input": args.set}
    if args.dim:
        m = dimension_estimate(E, schedule)
        report.update(
            mode="dimension", alpha_hat=frac_str(m.alpha_hat), alpha_float=m.alpha_float
        )
    else:
        if args.alpha is not None:
            m = alpha_measure_estimate(E, args.alpha, schedule)
            report.update(mode="alpha-measure", alpha=frac_str(m.alpha))
        else:
            m = density_estimate(E, schedule)
            report.update(mode="density")
        report.update(value=frac_str(m.value), value_float=float(m.value))
    report.update(
        witness=_witness_json(m.witness),
        count=m.count,
        pairs_scanned=m.pairs_scanned,
        subsampled=m.subsampled,
        precision=FLOAT_PRECISION,
    )
    _emit(args, report)
    return 0


# ---------------------------------------------------------------------------
# sum / scale / star


def cmd_sum(args) -> int:
    E, F = _load(args, args.a), _load(args, args.b)
    return _save_out(args, sum_scaled(E, F, args.lam))


def cmd_scale(args) -> int:
    return _save_out(args, floor_scale(_load(args, args.a), args.lam))


def cmd_star(args) -> int:
    return _save_out(args, star(_load(args, args.a), _load(args, args.b)))


# ---------------------------------------------------------------------------
# thin / diagnose


def cmd_thin(args) -> int:
    E = _load(args, args.set)
    lo, hi = args.lo, args.hi
    if lo is None or hi is None:
        hull = E.hull()  # the default window; an empty set has none (ValueError)
        lo = hull.lo if lo is None else lo
        hi = hull.hi if hi is None else hi
    trace = dyadic_thin(E, Interval(lo, hi), args.alpha)
    steps = [
        {"size": size, "s": frac_str(s.value), "s_float": float(s.value)}
        for size, s in trace.steps
    ]
    report = {
        "input": args.set,
        "alpha": frac_str(Fraction(args.alpha)),
        "interval": {"lo": lo, "hi": hi},
        "initial": {
            "s": frac_str(trace.initial.value),
            "s_float": float(trace.initial.value),
            "count": trace.initial.count,
            "witness": _witness_json(trace.initial.witness),
        },
        "steps": steps,
        "final_size": len(trace.final_set),
        "final_s": frac_str(trace.final_s.value),
        "stalled": trace.stalled,
        "precision": FLOAT_PRECISION,
    }
    if args.out:
        _save(args, trace.final_set, args.out)
    _emit(args, report)
    return 0


def cmd_diagnose(args) -> int:
    E = _load(args, args.a)
    if args.b is None:
        rep = regularity_diagnostic(E)
        report = {
            "mode": "regularity",
            "input": args.a,
            "alpha_hat": frac_str(rep.dimension.alpha_hat),
            "alpha_float": rep.dimension.alpha_float,
            "measure": frac_str(rep.measure.value),
            "measure_witness": _witness_json(rep.measure.witness),
            "trend": rep.trend,
            "ladder": [
                {
                    "scale": r.scale,
                    "count": r.count,
                    "ratio": r.ratio,
                    "witness": _witness_json(r.witness),
                    "ok": r.ok,
                }
                for r in rep.ladder
            ],
            "precision": FLOAT_PRECISION,
        }
    else:
        F = _load(args, args.b)
        rep = compatibility_check(
            E, F, ratio_band=args.ratio_band, c_min=args.c_min
        )
        report = {
            "mode": "compatibility",
            "input_a": args.a,
            "input_b": args.b,
            "alpha_a": rep.alpha_a,
            "alpha_b": rep.alpha_b,
            "ratio_band": frac_str(rep.ratio_band),
            "c_min": frac_str(rep.c_min),
            "all_pass": bool(rep),
            "rungs": [
                {
                    "scale": r.scale,
                    "count_a": r.count_a,
                    "window_a": _witness_json(r.window_a),
                    "count_b": r.count_b,
                    "window_b": _witness_json(r.window_b),
                    "ok": r.ok,
                }
                for r in rep.rungs
            ],
            "precision": FLOAT_PRECISION,
        }
    _emit(args, report)
    return 0


# ---------------------------------------------------------------------------
# collide / sweep


def cmd_collide(args) -> int:
    if (args.delta_min is None) != (args.delta_max is None):
        args._parser.error("--delta-min and --delta-max must be given together")
    E, F = _load(args, args.a), _load(args, args.b)
    rep = collision_stats(E, F, args.lam)
    report = {
        "input_a": args.a,
        "input_b": args.b,
        "lambda": frac_str(rep.lam),
        "total": rep.total,
        "distinct": rep.distinct_count,
        "energy": rep.energy,
        "cs_bound": frac_str(rep.cs_bound),
        "precision": FLOAT_PRECISION,
    }
    if args.histogram:
        report["histogram"] = {
            "values": rep._values.tolist(),
            "counts": rep._counts.tolist(),
        }
    if args.delta_min is not None:
        window = LambdaWindow(args.delta_min, args.delta_max)
        d = delta_exact(E, F, window)
        report["delta"] = {
            "window": {"lo": frac_str(window.lo), "hi": frac_str(window.hi)},
            "exact": frac_str(d.exact_value),
            "quadrature": frac_str(d.quadrature_value),
            "agreement": d.agreement,
            "positive_pairs": d.positive_pairs,
            "breakpoints": d.breakpoint_count,
        }
    _emit(args, report)
    return 0


def cmd_sweep(args) -> int:
    parser = args._parser
    if args.lambda_min <= 0:
        parser.error(
            "lambda window must be positive: sums with lambda < 0 reduce to the "
            "positive case by reflecting the second set, and lambda = 0 is a "
            "single translate"
        )
    if args.lambda_min == args.lambda_max:
        parser.error("degenerate window: --lambda-min equals --lambda-max")
    if args.lambda_min > args.lambda_max:
        parser.error("--lambda-min must be below --lambda-max")
    E, F = _load(args, args.a), _load(args, args.b)
    window = LambdaWindow(args.lambda_min, args.lambda_max)
    rep = sweep(
        E,
        F,
        window,
        samples=args.samples,
        seed=args.seed,
        threshold=args.assert_threshold,
        min_length=args.min_length,
        dim_budget=args.budget,
        skip_integers=args.skip_integers,
    )
    report = {
        "input_a": args.a,
        "input_b": args.b,
        "window": {"lo": frac_str(window.lo), "hi": frac_str(window.hi)},
        "samples": args.samples,
        "seed": args.seed,
        "records": [
            {
                "lambda": frac_str(r.lam),
                "dimension": r.dimension,
                "sum_size": r.sum_size,
                "distinct": r.distinct,
                "energy": r.energy,
                "cs_bound": frac_str(r.cs_bound),
                "span": r.span,
            }
            for r in rep.records
        ],
        "summary": {
            "dim_min": rep.dim_min,
            "dim_median": rep.dim_median,
            "dim_max": rep.dim_max,
            "threshold": rep.threshold,
            "fraction_above": rep.fraction_above,
            "precision": FLOAT_PRECISION,
        },
    }
    _emit(args, report)
    if args.assert_threshold is not None:
        assert rep.fraction_above is not None
        if rep.fraction_above < args.min_fraction:
            print(
                f"assertion failed: fraction {rep.fraction_above:.3f} above "
                f"threshold {args.assert_threshold} is below {args.min_fraction}",
                file=sys.stderr,
            )
            return 1
    return 0


# ---------------------------------------------------------------------------
# parser


def _construct_args(pc) -> None:
    pc.add_argument(
        "--kind",
        required=True,
        choices=[
            "power", "polynomial", "cantor", "ip", "walk",
            "example2", "noncompatible", "resonant",
        ],
    )
    pc.add_argument("--alpha", type=parse_frac)
    pc.add_argument("--beta", type=parse_frac)
    pc.add_argument("--nmin", type=int, default=1)
    pc.add_argument("--nmax", type=int)
    pc.add_argument("--coeffs", type=parse_int_list, help="ascending, e.g. 0,0,1")
    pc.add_argument("--matrix", default="full", help='"full" or a matrix file path')
    pc.add_argument("--base", type=int)
    pc.add_argument("--digits", type=parse_int_list)
    pc.add_argument("--depth", type=int, help="digit string length for cantor")
    pc.add_argument("--ks", type=parse_int_list)
    pc.add_argument("--ds", type=parse_int_list)
    pc.add_argument("--seed", type=int)
    pc.add_argument("--steps", type=int)
    pc.add_argument("--growth", type=int, default=16)
    pc.add_argument("--out", required=True)
    pc.add_argument("--out2", help="second output for kind noncompatible")
    pc.set_defaults(func=cmd_construct)


def _measure_args(pm) -> None:
    pm.add_argument("set")
    mode = pm.add_mutually_exclusive_group(required=True)
    mode.add_argument("--dim", action="store_true")
    mode.add_argument("--alpha", type=parse_frac)
    mode.add_argument("--density", action="store_true")
    pm.add_argument("--budget", type=int, default=ScanSchedule.budget)
    pm.add_argument("--min-length", type=int, default=ScanSchedule.min_length)
    pm.add_argument("--json", help="write the report here instead of stdout")
    pm.set_defaults(func=cmd_measure)


def _sum_args(ps) -> None:
    ps.add_argument("a")
    ps.add_argument("b")
    ps.add_argument("--lambda", dest="lam", type=parse_frac, default=Fraction(1))
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=cmd_sum)


def _scale_args(px) -> None:
    px.add_argument("a")
    px.add_argument("--lambda", dest="lam", type=parse_frac, required=True)
    px.add_argument("--out", required=True)
    px.set_defaults(func=cmd_scale)


def _star_args(pt) -> None:
    pt.add_argument("a")
    pt.add_argument("b")
    pt.add_argument("--out", required=True)
    pt.set_defaults(func=cmd_star)


def _thin_args(pth) -> None:
    pth.add_argument("set")
    pth.add_argument("--alpha", type=parse_frac, required=True)
    pth.add_argument("--lo", type=int)
    pth.add_argument("--hi", type=int)
    pth.add_argument("--out", help="write the thinned set here")
    pth.add_argument("--json")
    pth.set_defaults(func=cmd_thin)


def _diagnose_args(pd) -> None:
    pd.add_argument("a")
    pd.add_argument("b", nargs="?")
    pd.add_argument("--ratio-band", type=parse_frac, default=Fraction(4))
    pd.add_argument("--c-min", type=parse_frac, default=Fraction(1, 2))
    pd.add_argument("--json")
    pd.set_defaults(func=cmd_diagnose)


def _collide_args(pco) -> None:
    pco.add_argument("a")
    pco.add_argument("b")
    pco.add_argument("--lambda", dest="lam", type=parse_frac, required=True)
    pco.add_argument("--histogram", action="store_true")
    pco.add_argument("--delta-min", type=parse_frac)
    pco.add_argument("--delta-max", type=parse_frac)
    pco.add_argument("--json")
    pco.set_defaults(func=cmd_collide)


def _sweep_args(pw) -> None:
    pw.add_argument("a")
    pw.add_argument("b")
    pw.add_argument("--lambda-min", type=parse_frac, required=True)
    pw.add_argument("--lambda-max", type=parse_frac, required=True)
    pw.add_argument("--samples", type=int, default=100)
    pw.add_argument("--seed", type=int, default=0)
    pw.add_argument("--assert-threshold", type=float)
    pw.add_argument(
        "--min-fraction",
        type=float,
        default=0.9,
        help="fraction of records that must clear --assert-threshold",
    )
    pw.add_argument("--min-length", type=int)
    sweep_budget = inspect.signature(sweep).parameters["dim_budget"].default
    pw.add_argument("--budget", type=int, default=sweep_budget)
    pw.add_argument("--skip-integers", action="store_true")
    pw.add_argument("--json")
    pw.set_defaults(func=cmd_sweep)


# name: (help line, function that adds the subcommand's arguments)
_SUBCOMMANDS = {
    "construct": ("generate a set and write a .zset file", _construct_args),
    "measure": ("dimension / alpha-measure / density", _measure_args),
    "sum": ("E + floor(lambda*F)", _sum_args),
    "scale": ("floor(lambda*E)", _scale_args),
    "star": ("index-selected product set", _star_args),
    "thin": ("dyadic thinning trace", _thin_args),
    "diagnose": ("regularity / compatibility ladder", _diagnose_args),
    "collide": ("collision histogram at one lambda", _collide_args),
    "sweep": ("dimension of E + floor(lambda*F) across lambdas", _sweep_args),
}


def build_parser(only: Optional[str] = None) -> argparse.ArgumentParser:
    """The zdim parser, with every subcommand's arguments.

    Given the name of a subcommand as ``only``, that subcommand alone is
    built, with its arguments; given "" or another token, every
    subcommand is built with its help line and no arguments.  The list
    of subcommands in the usage line is the full one either way, so
    help, usage and error texts read the same.
    """
    top = argparse.ArgumentParser(
        prog="zdim",
        description="Integer-set dimension and arithmetic-sum experiments.",
    )
    top.add_argument("--version", action="version", version=f"zdim {__version__}")
    subs = top.add_subparsers(
        dest="command", required=True, metavar="{" + ",".join(_SUBCOMMANDS) + "}"
    )
    names = [only] if only in _SUBCOMMANDS else list(_SUBCOMMANDS)
    for name in names:
        help_line, add_args = _SUBCOMMANDS[name]
        sub = subs.add_parser(name, help=help_line)
        if only is None or only == name:
            add_args(sub)
            sub.add_argument("--force", action="store_true", help="overwrite outputs")
            sub.add_argument("--manifest", help="write a run manifest JSON here")
            sub.set_defaults(_parser=sub)
    return top


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the first token names the subcommand; only its subparser is built
    args = build_parser(argv[0] if argv else "").parse_args(argv)
    t0 = time.monotonic()
    args._inputs, args._outputs = [], []
    try:
        code = args.func(args)
        if args.manifest:
            params = {k: _config_value(v) for k, v in vars(args).items()
                      if k not in _NOT_CONFIG and not k.startswith("_")}
            config = ExperimentConfig(args.command, params)
            _write_manifest(args.manifest, config, args._inputs, args._outputs, t0)
        return code
    except (DataError, ZsetFormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValueError, SizeGuardError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
