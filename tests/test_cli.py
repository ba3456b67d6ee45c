"""End-to-end CLI runs through main(argv), exercising every subcommand,
the JSON report shapes, exit codes, and run manifests."""

import json
from collections import Counter
from fractions import Fraction as Fr

import pytest

from zdim.cli import _SUBCOMMANDS, ExperimentConfig, build_parser, main
from zdim.intset import IntegerSet, read_zset, write_zset
from zdim.marstrand import collision_stats


def run(capsys, *argv):
    # argparse usage errors leave through SystemExit(2); fold them in
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_power_and_measure(tmp_path, capsys):
    p = tmp_path / "squares.zset"
    code, _, _ = run(capsys, "construct", "--kind", "power", "--alpha", "1/2",
                     "--nmax", "100", "--out", str(p))
    assert code == 0
    E = read_zset(str(p))
    assert len(E) == 100 and E.elements[-1] == 10_000

    code, out, _ = run(capsys, "measure", str(p), "--dim")
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == "zdim/1"
    assert rep["kind"] == "measure" and rep["mode"] == "dimension"
    assert rep["alpha_hat"] == "1/2"
    assert rep["witness"] == {"lo": 0, "hi": 4}
    assert rep["count"] == 2


def test_construct_cantor_depth_convention(tmp_path, capsys):
    p = tmp_path / "cantor.zset"
    code, _, _ = run(capsys, "construct", "--kind", "cantor", "--base", "3",
                     "--digits", "0,2", "--depth", "3", "--out", str(p))
    assert code == 0
    E = read_zset(str(p))
    # depth = digit string length: words of length <= 3 over {0,2}
    assert len(E) == 8
    assert max(E.elements) == 2 + 6 + 18


def test_construct_requires_kind_arguments(tmp_path, capsys):
    p = tmp_path / "x.zset"
    code, _, err = run(capsys, "construct", "--kind", "cantor", "--base", "3", "--out", str(p))
    assert code == 2
    assert "depth" in err


def test_construct_walk_and_density(tmp_path, capsys):
    p = tmp_path / "walk.zset"
    code, _, _ = run(capsys, "construct", "--kind", "walk", "--seed", "5",
                     "--steps", "20000", "--out", str(p))
    assert code == 0
    code, out, _ = run(capsys, "measure", str(p), "--density")
    rep = json.loads(out)
    assert rep["mode"] == "density"
    num, den = rep["value"].split("/")
    assert 0 < int(num) <= int(den)


def test_construct_noncompatible_two_outputs(tmp_path, capsys):
    pa, pb = tmp_path / "e.zset", tmp_path / "f.zset"
    code, _, _ = run(capsys, "construct", "--kind", "noncompatible", "--alpha", "1/2",
                     "--beta", "2/3", "--depth", "2",
                     "--out", str(pa), "--out2", str(pb))
    assert code == 0
    assert read_zset(str(pa)).elements and read_zset(str(pb)).elements
    # missing --out2 is a usage error
    code, _, err = run(capsys, "construct", "--kind", "noncompatible", "--alpha", "1/2",
                       "--beta", "2/3", "--depth", "1", "--out", str(tmp_path / "y.zset"))
    assert code == 2
    assert "out2" in err


def test_construct_noncompatible_refuses_before_writing(tmp_path, capsys):
    # an existing --out2 without --force must not leave a new --out behind
    pa, pb = tmp_path / "e.zset", tmp_path / "f.zset"
    pb.write_text("#zset v1\n")
    code, _, err = run(capsys, "construct", "--kind", "noncompatible", "--alpha", "1/2",
                       "--beta", "2/3", "--depth", "2",
                       "--out", str(pa), "--out2", str(pb))
    assert code == 3
    assert "--force" in err
    assert not pa.exists()
    assert pb.read_text() == "#zset v1\n"


def test_sum_scale_star_roundtrip(tmp_path, capsys):
    a = tmp_path / "a.zset"
    b = tmp_path / "b.zset"
    run(capsys, "construct", "--kind", "power", "--alpha", "1/2", "--nmax", "50", "--out", str(a))
    run(capsys, "construct", "--kind", "polynomial", "--coeffs", "0,1", "--nmax", "10", "--out", str(b))

    s = tmp_path / "s.zset"
    code, _, _ = run(capsys, "sum", str(a), str(b), "--lambda", "3/2", "--out", str(s))
    assert code == 0
    S = read_zset(str(s))
    assert set(S.elements) == {
        x + (3 * y) // 2 for x in read_zset(str(a)).elements
        for y in read_zset(str(b)).elements
    }

    sc = tmp_path / "sc.zset"
    code, _, _ = run(capsys, "scale", str(a), "--lambda", "1/3", "--out", str(sc))
    assert code == 0
    assert read_zset(str(sc)).elements == tuple(
        sorted({x // 3 for x in read_zset(str(a)).elements})
    )

    st_p = tmp_path / "st.zset"
    code, _, _ = run(capsys, "star", str(a), str(b), "--out", str(st_p))
    assert code == 0
    assert read_zset(str(st_p)).elements == tuple(n * n for n in range(1, 11))


def test_output_overwrite_needs_force(tmp_path, capsys):
    p = tmp_path / "a.zset"
    run(capsys, "construct", "--kind", "power", "--alpha", "1/2", "--nmax", "10", "--out", str(p))
    code, _, err = run(capsys, "construct", "--kind", "power", "--alpha", "1/2",
                       "--nmax", "10", "--out", str(p))
    assert code == 3
    assert "--force" in err
    code, _, _ = run(capsys, "construct", "--kind", "power", "--alpha", "1/2",
                     "--nmax", "10", "--out", str(p), "--force")
    assert code == 0


def test_measure_missing_file_and_malformed(tmp_path, capsys):
    code, _, err = run(capsys, "measure", str(tmp_path / "nope.zset"), "--dim")
    assert code == 3
    bad = tmp_path / "bad.zset"
    bad.write_text("zset 1\n3\n5\n4\n")
    code, _, err = run(capsys, "measure", str(bad), "--dim")
    assert code == 3
    assert "line" in err


def test_thin_json_trace(tmp_path, capsys):
    p = tmp_path / "block.zset"
    run(capsys, "construct", "--kind", "polynomial", "--coeffs", "0,1",
        "--nmax", "64", "--out", str(p))
    out_p = tmp_path / "thin.zset"
    code, out, _ = run(capsys, "thin", str(p), "--alpha", "1/2", "--out", str(out_p))
    assert code == 0
    rep = json.loads(out)
    assert rep["kind"] == "thin"
    assert rep["final_size"] < 64
    assert rep["stalled"] is False
    assert float(Fr(rep["final_s"])) <= 2.0
    assert rep["initial"]["s"] == "8/1"
    thinned = read_zset(str(out_p))
    assert len(thinned) == rep["final_size"]


# at 1/2 the pass to {0, 1, 3, 4} breaks s' <= s/2 + 1/2: thin must not
# assert it; at E_c's alpha-hat, of denominator 6.7 * 10**11, comparing s
# with 2 must not raise anything to that power
@pytest.mark.parametrize("alpha, size", [("1/2", 4), ("660655392123/672329544662", 5)])
def test_thin_five_element_block(tmp_path, capsys, alpha, size):
    p = tmp_path / "b5.zset"
    p.write_text("#zset v1\n0\n1\n2\n3\n4\n")
    code, out, _ = run(capsys, "thin", str(p), "--alpha", alpha)
    assert code == 0
    rep = json.loads(out)
    assert (rep["final_size"], rep["stalled"]) == (size, False)


def test_thin_empty_set_is_a_usage_error(tmp_path, capsys):
    p = tmp_path / "empty.zset"
    p.write_text("#zset v1\n#provenance nothing\n")  # header only, no elements
    code, out, err = run(capsys, "thin", str(p), "--alpha", "1/2")
    assert code == 2 and out == ""
    assert err == "error: empty set has no hull\n"


def test_diagnose_modes(tmp_path, capsys):
    a = tmp_path / "a.zset"
    run(capsys, "construct", "--kind", "power", "--alpha", "1/2", "--nmax", "400", "--out", str(a))
    code, out, _ = run(capsys, "diagnose", str(a))
    assert code == 0
    rep = json.loads(out)
    assert rep["kind"] == "diagnose" and rep["mode"] == "regularity"
    assert rep["trend"] == "bounded"
    assert any(r["ok"] for r in rep["ladder"])

    b = tmp_path / "b.zset"
    run(capsys, "construct", "--kind", "power", "--alpha", "2/3", "--nmax", "400", "--out", str(b))
    code, out, _ = run(capsys, "diagnose", str(a), str(b))
    rep = json.loads(out)
    assert rep["kind"] == "diagnose" and rep["mode"] == "compatibility"
    assert rep["rungs"]
    assert isinstance(rep["all_pass"], bool)

    huge = tmp_path / "huge.zset"  # ladder windows beyond the float range
    huge.write_text("#zset v1\n0\n1\n" + f"{10**400}\n{10**400 + 5}\n")
    code, out, _ = run(capsys, "diagnose", str(huge))
    assert code == 0
    assert json.loads(out)["ladder"][-1]["ratio"] == 0.0
    code, out, _ = run(capsys, "diagnose", str(huge), str(huge))
    assert code == 0
    assert json.loads(out)["all_pass"] is False


def test_collide_histogram_and_delta(tmp_path, capsys):
    a = tmp_path / "a.zset"
    run(capsys, "construct", "--kind", "polynomial", "--coeffs", "0,1", "--nmax", "3", "--out", str(a))
    code, out, _ = run(capsys, "collide", str(a), str(a), "--lambda", "1", "--histogram")
    assert code == 0
    rep = json.loads(out)
    assert rep["kind"] == "collide"
    assert rep["lambda"] == "1/1"
    assert rep["energy"] == 19  # {1,2,3}+{1,2,3}: multiplicities 1,2,3,2,1
    assert rep["cs_bound"] == "81/19"
    hist = dict(zip(rep["histogram"]["values"], rep["histogram"]["counts"]))
    assert hist[4] == 3

    code, out, _ = run(capsys, "collide", str(a), str(a), "--lambda", "1",
                       "--delta-min", "1/2", "--delta-max", "3/2")
    rep = json.loads(out)
    assert rep["delta"]["agreement"] is True
    assert Fr(rep["delta"]["exact"]) == Fr(rep["delta"]["quadrature"]) == 19


@pytest.mark.parametrize("a, b", [
    ([n * n for n in range(1, 101)], [n * n for n in range(1, 101)]),
    # object dtype, with a span beyond int64
    ([-(2**70)] + [10**20 + k for k in range(0, 60, 3)], [10**20 + k for k in range(40)] + [2**80]),
])
def test_collide_histogram_from_the_report_arrays(tmp_path, capsys, a, b):
    write_zset(IntegerSet(a, "a"), str(tmp_path / "a.zset"))
    write_zset(IntegerSet(b, "b"), str(tmp_path / "b.zset"))
    argv = ("collide", str(tmp_path / "a.zset"), str(tmp_path / "b.zset"), "--lambda", "3/2")
    code, plain, _ = run(capsys, *argv)
    assert code == 0
    code, out, _ = run(capsys, *argv, "--histogram")
    assert code == 0
    rep = json.loads(out)
    hist = rep.pop("histogram")
    assert rep == json.loads(plain)
    oracle = dict(sorted(Counter(x + y * 3 // 2 for x in a for y in b).items()))
    assert hist == {"values": list(oracle), "counts": list(oracle.values())}
    col = collision_stats(IntegerSet(a, "a"), IntegerSet(b, "b"), Fr(3, 2))
    values, counts, hist = col.values, col.counts, col.histogram
    assert (type(values), type(counts), type(hist)) == (tuple, tuple, dict)
    assert hist == oracle
    assert all(type(v) is int for v in (*values, *counts, *hist, *hist.values()))


def test_collide_delta_refuses_a_window_of_too_many_events(tmp_path, capsys):
    big = tmp_path / "big.zset"
    write_zset(IntegerSet([-3, 10**20], "big"), str(big))
    code, out, err = run(capsys, "collide", str(big), str(big), "--lambda", "1",
                         "--delta-min", "1", "--delta-max", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: delta window too wide") and "Traceback" not in err


def test_collide_unpaired_delta_flag_is_a_usage_error(tmp_path, capsys):
    # checked before the sets are read: the files need not exist
    missing = str(tmp_path / "nope.zset")
    for flag in ("--delta-min", "--delta-max"):
        code, out, err = run(capsys, "collide", missing, missing, "--lambda", "1",
                             flag, "1")
        assert code == 2 and out == ""
        assert err.startswith("usage: zdim collide")
        assert "--delta-min and --delta-max must be given together" in err


def test_sweep_reports_and_exit_codes(tmp_path, capsys):
    a = tmp_path / "a.zset"
    run(capsys, "construct", "--kind", "power", "--alpha", "1/2", "--nmax", "300", "--out", str(a))
    code, out, _ = run(capsys, "sweep", str(a), str(a), "--lambda-min", "1",
                       "--lambda-max", "2", "--samples", "5", "--seed", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["kind"] == "sweep"
    assert len(rep["records"]) == 5
    first = rep["records"][0]
    assert set(first) >= {"lambda", "dimension", "sum_size", "energy"}
    assert set(rep["summary"]) >= {"dim_min", "dim_median", "dim_max"}

    # byte-identical reruns
    code2, out2, _ = run(capsys, "sweep", str(a), str(a), "--lambda-min", "1",
                         "--lambda-max", "2", "--samples", "5", "--seed", "3")
    assert out2 == out

    # threshold gate: impossible bar fails with exit 1
    code, out, _ = run(capsys, "sweep", str(a), str(a), "--lambda-min", "1",
                       "--lambda-max", "2", "--samples", "3", "--seed", "3",
                       "--assert-threshold", "1.5")
    assert code == 1

    # nonpositive window is rejected up front with a note about the
    # positive-lambda reduction
    code, _, err = run(capsys, "sweep", str(a), str(a), "--lambda-min", "-1",
                       "--lambda-max", "2", "--samples", "2", "--seed", "0")
    assert code == 2
    assert "positive" in err
    code, _, err = run(capsys, "sweep", str(a), str(a), "--lambda-min", "1",
                       "--lambda-max", "1", "--samples", "2", "--seed", "0")
    assert code == 2
    assert "degenerate" in err


def test_sweep_records_say_when_their_scan_was_subsampled(tmp_path, capsys):
    a = tmp_path / "a.zset"
    run(capsys, "construct", "--kind", "power", "--alpha", "1/2", "--nmax", "60", "--out", str(a))
    sweep = ("sweep", str(a), str(a), "--lambda-min", "1", "--lambda-max", "2",
             "--samples", "3", "--seed", "3")
    # at most 3600 sums, so a budget of 10**7 window pairs covers every scan
    for budget, subsampled in (("1", True), (str(10**7), False)):
        code, out, _ = run(capsys, *sweep, "--budget", budget)
        assert code == 0
        records = json.loads(out)["records"]
        # one new field beside the others
        assert [set(r) for r in records] == [{
            "lambda", "dimension", "sum_size", "distinct", "energy", "cs_bound", "span",
            "subsampled"}] * 3
        assert [r["subsampled"] for r in records] == [subsampled] * 3


def test_manifest_records_digests(tmp_path, capsys):
    a = tmp_path / "a.zset"
    man = tmp_path / "run.json"
    code, _, _ = run(capsys, "construct", "--kind", "power", "--alpha", "1/2",
                     "--nmax", "20", "--out", str(a), "--manifest", str(man))
    assert code == 0
    m = json.loads(man.read_text())
    assert m["schema"] == "zdim/1"
    assert m["kind"] == "manifest"
    assert m["config"]["command"] == "construct"
    assert len(m["config_sha256"]) == 64
    assert len(m["outputs"][str(a)]) == 64
    assert m["wall_time_s"] >= 0


def _subparsers(parser=None) -> dict:
    parser = build_parser() if parser is None else parser
    return next(a for a in parser._actions if a.dest == "command").choices


def test_manifest_config_and_files_for_every_subcommand(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mat.txt").write_text("2\n1 1\n1 0\n")
    # (argv, files read, files written); each run adds --manifest
    runs = [
        ("construct --kind power --alpha 1/2 --nmax 30 --out a.zset", [], ["a.zset"]),
        ("construct --kind noncompatible --alpha 1/2 --beta 2/3 --depth 2 "
         "--out e.zset --out2 f.zset", [], ["e.zset", "f.zset"]),
        ("construct --kind cantor --matrix mat.txt --base 2 --depth 4 --out c.zset",
         ["mat.txt"], ["c.zset"]),
        ("measure a.zset --dim", ["a.zset"], []),
        ("measure a.zset --alpha 1/2 --json m.json", ["a.zset"], ["m.json"]),
        ("sum a.zset c.zset --lambda 3/2 --out s.zset", ["a.zset", "c.zset"], ["s.zset"]),
        ("scale a.zset --lambda 1/3 --out x.zset", ["a.zset"], ["x.zset"]),
        ("star a.zset c.zset --out t.zset", ["a.zset", "c.zset"], ["t.zset"]),
        ("thin s.zset --alpha 1/2 --out th.zset --json th.json", ["s.zset"],
         ["th.zset", "th.json"]),
        ("diagnose a.zset", ["a.zset"], []),
        ("diagnose e.zset f.zset --json d.json", ["e.zset", "f.zset"], ["d.json"]),
        ("collide c.zset c.zset --lambda 1 --histogram", ["c.zset"], []),
        ("sweep a.zset c.zset --lambda-min 1 --lambda-max 2 --samples 2 --json w.json",
         ["a.zset", "c.zset"], ["w.json"]),
    ]
    commands = set()
    for argv, read, written in runs:
        code, _, _ = run(capsys, *argv.split(), "--manifest", "run.json")
        assert code == 0, argv
        m = json.loads((tmp_path / "run.json").read_text())
        command = m["config"]["command"]
        commands.add(command)
        options = {a.dest for a in _subparsers()[command]._actions}
        want = options - {"help", "json", "force", "manifest"}
        assert set(m["config"]["params"]) == want, argv
        assert set(m["inputs"]) == set(read), argv
        assert set(m["outputs"]) == set(written), argv
    assert commands == set(_subparsers())


def test_experiment_config_roundtrip():
    cfg = ExperimentConfig("sweep", {"samples": 5, "seed": 3})
    again = ExperimentConfig.from_json(cfg.to_json())
    assert again == cfg
    with pytest.raises(ValueError, match="unknown"):
        ExperimentConfig.from_dict(
            {"schema": "zdim/1", "command": "x", "params": {}, "extra": 1}
        )
    with pytest.raises(ValueError, match="schema"):
        ExperimentConfig.from_dict({"schema": "other/9", "command": "x", "params": {}})


def test_version_and_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--kind", "bogus-kind", "--out", "x.zset"])
    assert exc.value.code == 2


def _parse_output(capsys, parse, argv):
    """(exit code, stdout, stderr) of one parse that ends in SystemExit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def test_lazy_parser_output_matches_full_build(capsys, monkeypatch):
    # main builds only the subcommand named by the first token; its help
    # and usage errors must read as if every subcommand were built
    full = build_parser().parse_args
    cases = [["--help"], ["-h"], [], ["bogus"], ["--version"], ["--bogus"]]
    for command in _subparsers():
        cases += [[command, "--help"], [command, "--no-such-option"], [command]]
    # a valid subcommand line with an extra option: the top-level parser
    # refuses it, with its own usage line naming every subcommand
    cases.append(["scale", "a.zset", "--lambda", "2", "--out", "b.zset", "--bogus"])
    for argv in cases:
        want = _parse_output(capsys, full, argv)
        assert want[0] in (0, 2), argv
        assert _parse_output(capsys, main, argv) == want, argv
    # main() with no argument reads sys.argv[1:], as the console script calls it
    monkeypatch.setattr("sys.argv", ["zdim", "measure", "--help"])
    assert _parse_output(capsys, lambda _: main(), None) == _parse_output(
        capsys, full, ["measure", "--help"]
    )


def test_lazy_parser_builds_one_subcommand():
    def built(parser):
        # a subparser that got its arguments has more than its -h
        return {name for name, sub in _subparsers(parser).items() if len(sub._actions) > 1}

    assert built(build_parser()) == set(_SUBCOMMANDS)
    # a subcommand's name builds that subparser alone; any other token
    # builds every subparser, for the top-level help, without arguments
    assert set(_subparsers(build_parser("diagnose"))) == {"diagnose"}
    assert built(build_parser("diagnose")) == {"diagnose"}
    for token in ("", "bogus", "-h", "--version"):
        assert set(_subparsers(build_parser(token))) == set(_SUBCOMMANDS)
        assert built(build_parser(token)) == set()
