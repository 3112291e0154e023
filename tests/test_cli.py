"""Command-line entry points, config files, and run artifacts."""

import csv
import json
import os
import warnings

import numpy as np
import pytest

from slrm import cli
from slrm.gcg import SolveTrace, TraceRecord

TRACE_HEADER = "iter,time_s,phi,f,sqloss,psi,theta,sigma_top,rank,factor_rank"


def _read_trace(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def _mask_time(rows):
    ti = rows[0].index("time_s")
    return [[c for i, c in enumerate(r) if i != ti] for r in rows]


def test_parser_requires_a_command():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_parser_rejects_missing_required_flags():
    with pytest.raises(SystemExit) as exc:
        cli.main(["ssr", "--n", "2"])
    assert exc.value.code == 2


def test_ssr_end_to_end(tmp_path, capsys):
    out = str(tmp_path / "run")
    code = cli.main(["ssr", "--n", "2", "--r", "1", "--j", "3", "--k", "3",
                     "--T", "200", "--mu", "0.1", "--seed", "1",
                     "--max-iter", "15", "--out", out])
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["solver"] == "gcgls" and summary["seed"] == 1
    assert os.path.exists(os.path.join(out, "trace.csv"))
    assert os.path.exists(os.path.join(out, "covariances.csv"))
    with open(os.path.join(out, "summary.json")) as fh:
        assert json.load(fh) == summary
    with open(os.path.join(out, "trace.csv")) as fh:
        assert fh.readline() == TRACE_HEADER + "\n"
    rows = _read_trace(os.path.join(out, "trace.csv"))
    assert len(rows) - 1 == summary["iters"]


def test_trace_csv_roundtrip(tmp_path):
    # one column per TraceRecord field: int fields print as ints, a numpy
    # int64 too, float fields by repr (so 0.0 stays 0.0 and every float
    # round-trips), and every line ends in "\n"
    third = 1.0 / 3.0
    trace = SolveTrace(records=[
        TraceRecord(1, 0.125, 1.5, 0.5, 0.25, 1.75, 0.0, 2.0, np.int64(2), 3),
        TraceRecord(2, 0.25, third, 1e-300, 2.0 ** 60, -third, 0.3, 7e22, -1, 0)],
        converged_reason="tol_x", wall_time_s=0.25)
    path = tmp_path / "trace.csv"
    cli._write_trace(path, trace)
    header, first, second, end = path.read_bytes().decode().split("\n")
    assert header == TRACE_HEADER and end == ""
    assert first == "1,0.125,1.5,0.5,0.25,1.75,0.0,2.0,2,3"
    parts = second.split(",")
    assert [float(x) for x in parts[1:8]] == [0.25, third, 1e-300, 2.0 ** 60, -third,
                                              0.3, 7e22]
    assert parts[0] == "2" and parts[-2:] == ["-1", "0"]
    summary = trace.summary("gcgls", 7)
    assert set(summary) == {"solver", "iters", "final_phi", "final_sqloss",
                            "final_rank", "wall_time_s", "converged_reason",
                            "seed"}
    assert summary["iters"] == 2 and summary["seed"] == 7


@pytest.mark.parametrize("solver", ["gcgls", "apg-svt"])
def test_a_run_diverged_at_its_start_writes_strict_json(tmp_path, capsys, solver):
    # noise of 1e150 makes phi non-finite at the initial point: exit 1, one
    # stderr line and no numpy warning, a trace.csv of its header alone, and
    # null final values in summary.json
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["ssr", "--n", "2", "--r", "2", "--j", "3", "--k", "3",
                         "--T", "200", "--sigma", "1e150", "--mu", "0.1", "--seed", "1",
                         "--solver", solver, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("diverged: ") and err.count("\n") == 1 and err.endswith("\n")

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
    assert summary["iters"] == 0 and summary["converged_reason"] == "diverged"
    assert summary["final_phi"] is None and summary["final_sqloss"] is None
    assert (out / "trace.csv").read_text() == TRACE_HEADER + "\n"


def test_ssr_runs_are_identical_up_to_timing(tmp_path, capsys):
    args = ["ssr", "--n", "2", "--r", "1", "--j", "3", "--k", "4",
            "--T", "300", "--mu", "0.1", "--seed", "5", "--max-iter", "10"]
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(args + ["--out", out1]) == 0
    assert cli.main(args + ["--out", out2]) == 0
    capsys.readouterr()
    r1 = _read_trace(os.path.join(out1, "trace.csv"))
    r2 = _read_trace(os.path.join(out2, "trace.csv"))
    assert _mask_time(r1) == _mask_time(r2)


def test_scs_end_to_end_all_solvers(tmp_path, capsys):
    base = ["scs", "--n1", "8", "--n2", "8", "--r", "1", "--k1", "3",
            "--k2", "3", "--obs", "0.6", "--mu", "0.1", "--seed", "2",
            "--max-iter", "10"]
    for solver in ("gcgls", "gcg", "apg-svt"):
        out = str(tmp_path / solver)
        code = cli.main(base + ["--solver", solver, "--out", out])
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["solver"] == solver
        # every value parses as a float, and the grid gives the summary's error
        grids = []
        for name in ("recovered.csv", "signal.csv"):
            with open(os.path.join(out, name), newline="") as fh:
                rows = list(csv.DictReader(fh))
            grid = np.zeros((8, 8))
            for row in rows:
                grid[int(row["row"]), int(row["col"])] = float(row["value"])
            assert len(rows) == 64
            grids.append(grid)
        recovered, signal = grids
        err = np.linalg.norm(recovered - signal) / np.linalg.norm(signal)
        assert err == pytest.approx(summary["normalized_error"], rel=1e-12, abs=0)


SCS_SMALL = ["scs", "--n1", "8", "--n2", "8", "--r", "1", "--k1", "3",
             "--k2", "3", "--mu", "0.1", "--max-iter", "3"]
SSR_SMALL = ["ssr", "--n", "2", "--r", "1", "--j", "3", "--k", "3",
             "--T", "150", "--max-iter", "3"]


def test_scs_summary_file_matches_the_printed_line(tmp_path, capsys):
    # the grid error computed after the solve lands in summary.json too
    out = str(tmp_path / "run")
    assert cli.main(SCS_SMALL + ["--out", out]) == 0
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    with open(os.path.join(out, "summary.json")) as fh:
        written = json.load(fh)
    assert written["normalized_error"] == printed["normalized_error"]
    assert written == printed


@pytest.mark.parametrize("argv", [
    SCS_SMALL + ["--snr", "0"],
    SCS_SMALL + ["--snr", "0", "--solver", "apg-svt"],
    SCS_SMALL + ["--snr", "nan"],
    SCS_SMALL + ["--obs", "0"],
    SCS_SMALL + ["--obs", "inf"],
    SCS_SMALL + ["--r", "0"],
    SSR_SMALL + ["--mu", "0"],
    SSR_SMALL + ["--mu", "0.1", "--sigma", "nan"],
    SSR_SMALL + ["--mu", "nan"],
    SSR_SMALL + ["--mu", "0.1", "--lambda", "inf"],
    SCS_SMALL + ["--lambda", "nan", "--solver", "apg-svt"],
    SSR_SMALL + ["--mu", "0.1", "--max-iter", "0"],
    SCS_SMALL + ["--lam-growth", "0.5"],
    SCS_SMALL + ["--max-iter", "0", "--solver", "apg-svt"],
    SSR_SMALL + ["--mu", "0.1", "--T", "0"],
    SSR_SMALL + ["--mu", "0.1", "--T", "3"],
    SSR_SMALL + ["--mu", "0.1", "--sigma", "-0.05"],
    SSR_SMALL + ["--mu", "0.1", "--sigma", "inf"],
    SSR_SMALL + ["--mu", "0.1", "--lam-max", "inf"],
    SSR_SMALL + ["--mu", "0.1", "--lam-max", "nan"],
    SSR_SMALL + ["--mu", "0.1", "--lam-growth", "nan"],
], ids=["snr-0", "snr-0-apg", "snr-nan", "obs-0", "obs-inf", "scs-r-0", "ssr-mu-0",
     "ssr-sigma-nan", "ssr-mu-nan", "ssr-lambda-inf", "lambda-nan-apg",
     "ssr-max-iter-0", "scs-lam-growth-below-1", "max-iter-0-apg",
     "ssr-T-0", "ssr-T-equal-k", "ssr-sigma-negative", "ssr-sigma-inf",
     "ssr-lam-max-inf", "ssr-lam-max-nan", "ssr-lam-growth-nan"])
def test_bad_experiment_parameters_are_usage_errors(tmp_path, capsys, argv):
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv + ["--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not out.exists()


def test_config_file_sets_defaults_but_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mu=0.1\nseed=9\nmax-iter=5\n# comment\n\n")
    out = str(tmp_path / "out")
    code = cli.main(["ssr", "--n", "2", "--r", "1", "--j", "3", "--k", "3",
                     "--T", "150", "--seed", "4", "--config", str(cfg),
                     "--out", out])
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["seed"] == 4          # explicit flag beats the file
    assert summary["iters"] <= 5         # file supplied max-iter


@pytest.mark.parametrize("form", ["two-tokens", "equals"])
def test_config_file_may_come_before_the_command(tmp_path, capsys, form):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mu=0.1\nseed=9\nmax-iter=5\n")
    flag = ["--config", str(cfg)] if form == "two-tokens" else [f"--config={cfg}"]
    runs = {}
    for where in ("before", "after"):
        out = tmp_path / where
        cmd = SSR_SMALL + ["--out", str(out)]
        argv = flag + cmd if where == "before" else cmd + flag
        assert cli.main(argv) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        summary.pop("wall_time_s")
        runs[where] = summary, _mask_time(_read_trace(out / "trace.csv"))
    assert runs["before"] == runs["after"]
    assert runs["before"][0]["seed"] == 9 and runs["before"][0]["iters"] <= 5


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense=1\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["ssr", "--n", "2", "--r", "1", "--j", "3", "--k", "3",
                  "--mu", "0.1", "--config", str(bad)])
    assert exc.value.code == 2
    noeq = tmp_path / "noeq.cfg"
    noeq.write_text("just words\n")
    with pytest.raises(SystemExit):
        cli.main(["ssr", "--n", "2", "--r", "1", "--j", "3", "--k", "3",
                  "--mu", "0.1", "--config", str(noeq)])
    with pytest.raises(SystemExit):
        cli.main(["ssr", "--n", "2", "--r", "1", "--j", "3", "--k", "3",
                  "--mu", "0.1", "--config", str(tmp_path / "missing.cfg")])
    latin = tmp_path / "latin.cfg"
    latin.write_bytes(b"mu=0.1\n\xff\xfe=3\n")   # not UTF-8
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["ssr", "--n", "2", "--r", "2", "--j", "6", "--k", "8",
                  "--config", str(latin)])
    assert exc.value.code == 2
    assert "error: cannot read config file" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["no_equals", "missing", "not_utf8"])
def test_config_file_errors_print_one_error_line(tmp_path, capsys, case):
    # the format of every other usage error: no usage line, no "slrm:" prefix
    cfg = tmp_path / "run.cfg"
    if case == "no_equals":
        cfg.write_text("mu=0.1\njust words\n")
    elif case == "not_utf8":
        cfg.write_bytes(b"mu=0.1\n\xff\xfe=3\n")
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        cli.main(SSR_SMALL + ["--mu", "0.1", "--config", str(cfg), "--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    want = "run.cfg:2: expected key=value" if case == "no_equals" else "cannot read config file"
    assert want in captured.err
    assert not out.exists()


def test_out_naming_a_file_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("keep\n")
    code = cli.main(SSR_SMALL + ["--mu", "0.1", "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert out.read_text() == "keep\n"


@pytest.mark.parametrize("line", ["max-iter=ten", "solver=foo"])
def test_config_file_values_are_checked_like_flags(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        cli.main(SSR_SMALL + ["--mu", "0.1", "--config", str(cfg), "--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error: argument --" in captured.err
    assert not out.exists()


def test_config_file_value_may_start_with_a_dash(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda=-1\n")
    out = tmp_path / "run"
    code = cli.main(SSR_SMALL + ["--mu", "0.1", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert "lam must be non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_lam_growth_flag_disables_continuation(tmp_path, capsys):
    out = str(tmp_path / "flat")
    code = cli.main(["ssr", "--n", "2", "--r", "1", "--j", "3", "--k", "3",
                     "--T", "200", "--mu", "0.1", "--seed", "1",
                     "--lam-growth", "1", "--max-iter", "15", "--out", out])
    assert code == 0
    # a single stage at lambda = 1 keeps more noise rank than the staged run
    flat = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert flat["iters"] >= 1
