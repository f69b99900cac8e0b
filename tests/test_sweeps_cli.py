"""Sweep harness determinism and the command-line surface."""

from __future__ import annotations

import contextlib
import io

import pytest

from dirmax.cli import _apply_config, build_parser, cli_main
from dirmax.dyadic import DyadicRational as D
from dirmax.grids import parse_field, parse_grid
from dirmax.sweeps import ExperimentConfig, kakeya_point, sweep_delta, sweep_lp


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli_main(argv)
    return rc, out.getvalue(), err.getvalue()


def test_sweep_delta_rows_and_fit():
    cfg = ExperimentConfig(deltas=(D(1, 3), D(1, 4), D(1, 5)), random_count=0)
    sweep = sweep_delta(cfg)
    csv = sweep.to_csv()
    lines = csv.splitlines()
    assert lines[0] == "delta,best_ratio,ref_log32"
    assert len(lines) == 4  # header + one row per delta
    # single-point reproducibility: the first row equals a single invocation
    solo = sweep_delta(ExperimentConfig(deltas=(D(1, 3),), random_count=0))
    assert solo.to_csv().splitlines()[1] == lines[1]
    assert solo.fit_b == 0.0  # degenerate fit flagged as zero exponent
    assert solo.best[0][1] == kakeya_point(D(1, 3), ascent_iters=1)


def test_sweep_delta_random_rows_recorded():
    cfg = ExperimentConfig(deltas=(D(1, 3),), random_count=1)
    sweep = sweep_delta(cfg)
    kinds = {row.kind for row in sweep.rows}
    assert kinds == {"kakeya", "random0"}
    # the fitted series stays the compression series
    assert sweep.best[0][1] == next(
        row.ratio for row in sweep.rows if row.kind == "kakeya"
    )


def test_sweep_delta_csv_records_the_spot_checks(tmp_path):
    cfg = ExperimentConfig(deltas=(D(1, 3), D(1, 4)), random_count=2)
    sweep = sweep_delta(cfg)
    spots = [row for row in sweep.rows if row.kind != "kakeya"]
    assert spots
    lines = sweep.to_csv().splitlines()
    assert lines[3] == "delta,kind,ratio"
    assert lines[4:] == [f"{r.delta.render()},{r.kind},{format(r.ratio, '.12g')}" for r in spots]
    # the fitted block is the one without spot checks
    bare = sweep_delta(ExperimentConfig(deltas=cfg.deltas, random_count=0)).to_csv()
    assert bare.splitlines() == lines[:3]
    # the seed reaches the CSV through the spot checks
    csvs = []
    for seed in ("1", "2"):
        out = tmp_path / f"s{seed}.csv"
        argv = ["sweep", "delta", "--delta", "1/8,1/16", "--iters", "0", "--seed", seed]
        rc, _, _ = _run(argv + ["--out", str(out)])
        assert rc == 0
        csvs.append(out.read_text())
    assert csvs[0] != csvs[1]
    assert csvs[0].split("delta,kind,ratio")[0] == csvs[1].split("delta,kind,ratio")[0]


def test_sweep_lp_rows():
    cfg = ExperimentConfig(deltas=(D(1, 3),))
    sweep = sweep_lp(cfg)
    assert len(sweep.rows) == 3
    csv = sweep.to_csv()
    assert csv.splitlines()[0] == "delta,p,ratio,reference"


def test_cli_usage_errors():
    with pytest.raises(SystemExit) as exc:
        _run(["--definitely-not-a-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        _run(["enumerate", "--bogus"])
    assert exc.value.code == 2


def test_cli_enumerate_and_roundtrip(tmp_path):
    out = tmp_path / "fam.txt"
    rc, _, _ = _run(
        ["enumerate", "--m", "4", "--delta", "1/2^3", "--field", "identity",
         "--out", str(out)]
    )
    assert rc == 0
    text = out.read_text()
    assert text.splitlines()[0].startswith("# members")
    from dirmax.family import RectangleFamily

    fam = RectangleFamily.from_lines(text.splitlines()[1:])
    assert len(fam) > 0


def test_cli_kakeya_and_maximal(tmp_path):
    base = tmp_path / "kk"
    rc, out, _ = _run(["kakeya", "--delta", "1/2^3", "--out", str(base)])
    assert rc == 0 and out.startswith("support ")
    field = parse_field((tmp_path / "kk.field").read_text())
    grid = parse_grid((tmp_path / "kk.grid").read_text())
    assert field.spec == grid.spec
    mx = tmp_path / "kk.max"
    rc, _, _ = _run(
        ["maximal", "--grid", str(tmp_path / "kk.grid"),
         "--field-file", str(tmp_path / "kk.field"),
         "--delta", "1/2^3", "--out", str(mx)]
    )
    assert rc == 0
    parse_grid(mx.read_text())


def test_cli_decompose_json(tmp_path):
    out = tmp_path / "dec.json"
    rc, _, _ = _run(
        ["decompose", "--m", "4", "--delta", "1/2^3", "--field", "random",
         "--seed", "5", "--out", str(out)]
    )
    assert rc == 0
    import json

    payload = json.loads(out.read_text())
    assert "generations" in payload
    rc2, _, _ = _run(
        ["decompose", "--m", "4", "--delta", "1/2^3", "--field", "random",
         "--seed", "5", "--out", str(tmp_path / "dec2.json")]
    )
    assert (tmp_path / "dec2.json").read_text() == out.read_text()
    # the cascade field drives a second generation through a stopping interval
    rc, _, _ = _run(
        ["decompose", "--m", "5", "--mw", "3", "--delta", "1/2^1",
         "--field", "cascade", "--seed", "1", "--out", str(tmp_path / "casc.json")]
    )
    assert rc == 0
    casc = json.loads((tmp_path / "casc.json").read_text())
    assert len(casc["generations"]) == 2
    assert casc["generations"][0]["records"][0]["stops"] == [[2, 0]]


def test_cli_badness_csv(tmp_path):
    out = tmp_path / "bad.csv"
    rc, _, _ = _run(
        ["badness", "--m", "4", "--delta", "1/2^3", "--field", "random",
         "--seed", "3", "--out", str(out)]
    )
    assert rc == 0
    text = out.read_text()
    assert text.splitlines()[0] == "member,nu,badness"
    assert "step,measure" in text


def test_cli_sweep_delta_csv_deterministic(tmp_path):
    argv = ["sweep", "delta", "--delta", "1/8,1/16,1/32", "--iters", "0",
            "--out", str(tmp_path / "s.csv")]
    rc, _, err1 = _run(argv)
    assert rc == 0
    first = (tmp_path / "s.csv").read_text()
    assert len(first.split("delta,kind,ratio")[0].splitlines()) == 4  # header + 3 data rows
    rc, _, err2 = _run(["sweep", "delta", "--delta", "1/8,1/16,1/32",
                        "--iters", "0", "--out", str(tmp_path / "s2.csv")])
    assert (tmp_path / "s2.csv").read_text() == first
    assert err1 == err2 and err1.startswith("fit ")


def test_cli_sweep_logn_csv(tmp_path):
    out = tmp_path / "g.csv"
    rc, _, _ = _run(["sweep", "logn", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,best_ratio,fit_residual"
    assert len(lines) == 7  # header + N in {2,4,...,64}


def test_cli_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m = 4\ndelta = 1/2^3  # density\nfield = identity\n")
    out1 = tmp_path / "a.txt"
    rc, _, _ = _run(["enumerate", "--config", str(cfg), "--out", str(out1)])
    assert rc == 0
    out2 = tmp_path / "b.txt"
    rc, _, _ = _run(
        ["enumerate", "--m", "4", "--delta", "1/2^3", "--field", "identity",
         "--out", str(out2)]
    )
    assert out1.read_text() == out2.read_text()
    # flags override the config file
    out3 = tmp_path / "c.txt"
    rc, _, _ = _run(
        ["enumerate", "--config", str(cfg), "--delta", "1/2^1", "--out", str(out3)]
    )
    assert out3.read_text() != out1.read_text()
    bad = tmp_path / "bad.cfg"
    bad.write_text("no equals sign here\n")
    rc, _, err = _run(["enumerate", "--config", str(bad)])
    assert rc == 2 and "config error" in err
    bad.write_text("m = four\n")
    rc, _, err = _run(["enumerate", "--config", str(bad)])
    assert rc == 2 and err == "config error: 'm' takes an integer, not 'four'\n"


def test_cli_config_loses_to_a_shortened_flag(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta = 1/2^3\n")
    outs = []
    for flag in (["--del", "1/2"], ["--delta", "1/2"], ["--delta=1/2"], ["--del=1/2"]):
        out = tmp_path / "e.txt"
        rc, _, _ = _run(["enumerate", "--m", "4", "--config", str(cfg), *flag, "--out", str(out)])
        assert rc == 0
        outs.append(out.read_text())
    assert outs == [outs[0]] * 4 and outs[0].startswith("# members 14\n")
    rc, text, _ = _run(["enumerate", "--m", "4", "--config", str(cfg)])
    assert rc == 0 and text.startswith("# members 20\n")


def test_cli_config_keys_read_underscore_as_dash(tmp_path):
    texts = []
    for key in ("max_gen", "max-gen"):
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"{key} = 0\n")
        rc, out, err = _run(["decompose", "--m", "4", "--config", str(cfg)])
        assert (rc, err) == (0, "")
        texts.append(out)
    rc, flagged, _ = _run(["decompose", "--m", "4", "--max-gen", "0"])
    assert texts == [flagged, flagged] and '"truncated": true' in flagged
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("max_gen = three\n")
    rc, out, err = _run(["decompose", "--m", "4", "--config", str(cfg)])
    assert (rc, out) == (2, "")
    assert err == "config error: 'max_gen' takes an integer, not 'three'\n"


def test_cli_header_only_maxgrid_is_a_usage_error(tmp_path):
    head = tmp_path / "head.grid"
    head.write_text("maxgrid 1\n")
    good = tmp_path / "zero.grid"
    good.write_text("maxgrid 1\nm 2 mw 0 offstep w\n" + "0 0 0 0\n" * 4)
    for extra in (["--grid", str(head)], ["--grid", str(good), "--field-file", str(head)]):
        rc, out, err = _run(["maximal", *extra])
        assert (rc, out, err) == (2, "", "error: bad MAXGRID header\n")


def test_cli_config_unknown_key(tmp_path):
    # a key that names no argument of the command is rejected, not dropped;
    # `quick` belongs to verify only
    for key in ("bogus", "quick"):
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"m = 4\n{key} = 1\n")
        out = tmp_path / f"{key}.txt"
        rc, _, err = _run(["enumerate", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert err == f"config error: unknown key '{key}'\n"
        assert not out.exists()


def test_cli_config_quick_takes_a_boolean(tmp_path):
    cfg = tmp_path / "q.cfg"
    for text, want in (("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("false", False), ("NO", False)):
        cfg.write_text(f"quick = {text}\n")
        argv = ["verify", "--config", str(cfg)]
        args = build_parser().parse_args(argv)
        _apply_config(args, argv)
        assert args.quick is want
    # anything else is rejected before verify runs, not read as false
    for text in ("banana", "2", "on", ""):
        cfg.write_text(f"quick = {text}\n")
        rc, out, err = _run(["verify", "--m", "3", "--config", str(cfg)])
        assert (rc, out) == (2, "")
        assert err == f"config error: 'quick' takes true or false, not {text!r}\n"


def test_cli_verify_quick(tmp_path):
    rc, out, _ = _run(["verify", "--quick", "--out", str(tmp_path / "repro")])
    assert rc == 0
    assert "PASS oracle enumerate_family" in out


def test_cli_verify_on_no_instance_is_a_usage_error():
    # no corpus instance has m below 3: an empty run must not print PASS lines
    for argv in (["verify", "--m", "2"], ["verify", "--m", "1", "--quick"]):
        rc, out, err = _run(argv)
        assert (rc, out) == (2, "")
        assert err == "error: no corpus instance to verify\n"


def test_cli_invariant_failure_exit_code():
    # lambda0 = 1 is below the calibrated threshold: the shrink step fails
    # to halve and the command reports an invariant failure
    rc, _, err = _run(
        ["badness", "--m", "4", "--delta", "1/2^3", "--field", "random",
         "--seed", "0", "--lambda0", "1"]
    )
    assert rc == 1
    assert "invariant failure" in err


def test_cli_workers_deterministic(tmp_path):
    a = tmp_path / "w1.txt"
    b = tmp_path / "w2.txt"
    argv = ["enumerate", "--m", "5", "--mw", "3", "--delta", "1/2^3",
            "--field", "random", "--seed", "9"]
    for out in (a, b):
        rc, _, _ = _run(argv + ["--out", str(out)])
        assert rc == 0
    assert a.read_text() == b.read_text()
    # enumeration has one path: there is no worker count to set
    with pytest.raises(SystemExit) as exc:
        _run(argv + ["--workers", "4", "--out", str(tmp_path / "w4.txt")])
    assert exc.value.code == 2
    assert not (tmp_path / "w4.txt").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--workers", "2"],
        ["decompose", "--lambda0", "2"],
        ["maximal", "--grid", "f.grid", "--m", "4"],
        ["sweep", "delta", "--mw", "3"],
        ["kakeya", "--field", "random"],
        ["verify", "--seed", "1"],
    ],
)
def test_cli_rejects_flags_the_command_ignores(argv):
    with pytest.raises(SystemExit) as exc:
        _run(argv)
    assert exc.value.code == 2


def test_cli_config_key_the_command_ignores(tmp_path):
    # `command` and `kind` name parsed positionals, not options
    for key, value in (("workers", "2"), ("command", "badness"), ("kind", "lp")):
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"m = 4\n{key} = {value}\n")
        rc, _, err = _run(["enumerate", "--config", str(cfg)])
        assert rc == 2
        assert err == f"config error: unknown key '{key}'\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--m", "4"],
        ["decompose", "--m", "4"],
        ["badness", "--m", "4"],
        ["kakeya"],
    ],
)
def test_cli_rejects_delta_list_outside_sweep(argv, tmp_path):
    out = tmp_path / "out"
    rc, _, err = _run(argv + ["--delta", "1/2^3,1/2^4", "--out", str(out)])
    assert rc == 2
    assert err.startswith("error: --delta takes one value")
    assert not out.exists() and not (tmp_path / "out.field").exists()
    rc, _, _ = _run(argv + ["--delta", "1/2^3", "--out", str(out)])
    assert rc == 0


def test_sweep_delta_rejects_negative_ascent_steps():
    rc, out, err = _run(["sweep", "delta", "--delta", "1/8", "--iters", "-1"])
    assert rc == 2
    assert err == "error: ascent_iters must be nonnegative\n"


@pytest.mark.parametrize("kind", ["delta", "lp"])
def test_sweep_rejects_grid_exponent_zero(kind):
    # --m 0 is a grid exponent, not "unset": it must not fall back to the default grid
    rc, out, err = _run(["sweep", kind, "--m", "0"])
    assert rc == 2 and out == ""
    assert err == "error: grid exponent m must be at least 2\n"


@pytest.mark.parametrize(
    "flag, literal, canonical",
    [
        ("--lambda0", "5/4", "5/2^2"),
        ("--lambda0", "3/1", "3"),
        ("--field", "const:1/4", "const:1/2^2"),
        ("--field", "const:3/8", "const:3/2^3"),
    ],
)
def test_cli_flags_read_one_dyadic_literal(flag, literal, canonical):
    # n/d with d a power of two reads as n/2^e for every dyadic flag
    argv = ["badness", "--m", "4", "--mw", "2"]
    got, want = _run(argv + [flag, literal]), _run(argv + [flag, canonical])
    assert got == want
    assert got[0] == 0 and got[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--m", "4", "--delta", "1/0"],
        ["sweep", "lp", "--delta", "1/8,1/0"],
        ["badness", "--m", "4", "--lambda0", "1/0"],
        ["enumerate", "--m", "4", "--field", "const:1/0"],
    ],
)
def test_cli_zero_denominator_is_not_dyadic(argv):
    rc, out, err = _run(argv)
    assert rc == 2 and out == ""
    assert err == "error: '1/0' is not dyadic\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "lp", "--seed", "1"],
        ["sweep", "lp", "--iters", "7"],
        ["sweep", "logn", "--m", "3"],
        ["sweep", "logn", "--delta", "1/2"],
        ["sweep", "delta", "--lambda0", "2"],
    ],
)
def test_sweep_kinds_reject_flags_they_ignore(argv):
    with pytest.raises(SystemExit) as exc:
        _run(argv)
    assert exc.value.code == 2


def test_sweep_config_key_the_kind_ignores(tmp_path):
    for kind, key, value in (("lp", "seed", "1"), ("lp", "iters", "7"), ("logn", "m", "3"),
                             ("logn", "delta", "1/2")):
        cfg = tmp_path / f"{kind}-{key}.cfg"
        cfg.write_text(f"{key} = {value}\n")
        rc, out, err = _run(["sweep", kind, "--config", str(cfg)])
        assert rc == 2 and out == ""
        assert err == f"config error: unknown key '{key}'\n"


def test_sweep_delta_kakeya_series_runs_the_ascent_steps(tmp_path):
    cfg = tmp_path / "steps.cfg"
    cfg.write_text("iters = 1\n")
    runs = [_run(["sweep", "delta", "--delta", "1/8", *extra])
            for extra in (["--iters", "0"], ["--iters", "1"], ["--config", str(cfg)])]
    assert [rc for rc, _, _ in runs] == [0, 0, 0]
    assert runs[0][1] != runs[1][1] == runs[2][1]
    for (_, csv, _), steps in zip(runs, (0, 1)):
        ratio = kakeya_point(D(1, 3), ascent_iters=steps)
        assert csv.splitlines()[1].split(",")[1] == format(ratio, ".12g")


def test_decompose_rejects_negative_max_gen(tmp_path):
    out = tmp_path / "dec.json"
    rc, _, err = _run(["decompose", "--m", "4", "--max-gen", "-1", "--out", str(out)])
    assert rc == 2 and err == "error: max_gen must be nonnegative\n"
    assert not out.exists()
    rc, _, _ = _run(["decompose", "--m", "4", "--max-gen", "0", "--out", str(out)])
    assert rc == 0 and '"truncated": true' in out.read_text()
