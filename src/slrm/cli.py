"""Command-line entry points: the ssr and scs experiment runs.

Flags mirror the math symbols (--j, --k, --mu, --lambda, ...), long names
only.  Each key=value line of a --config file, given before or after the
command, reads as the flag --key=value placed before the command line's
own flags, so explicit flags win.  Exit codes: 0 success, 1 solver
divergence (the partial trace is still written), 2 usage errors.

This module writes every file of a run: the data file, trace.csv (one
column per ``TraceRecord`` field), summary.json and scs's recovered.csv,
each CSV through ``_write_csv``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import apps
from .baseline import ApgConfig, solve_apg_homotopy
from .gcg import DivergedError, GcgConfig, SolveTrace, TraceRecord, solve_homotopy
from .linalg import spmv, unvec, vec

SOLVERS = ("gcg", "gcgls", "apg-svt")
# trace.csv's short names of TraceRecord fields; the others keep their own
_TRACE_NAMES = {"iteration": "iter", "f_smooth": "f", "square_loss": "sqloss"}


def _add_run_flags(p):
    p.add_argument("--mu", type=float, required=True, help="nuclear norm weight")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0,
                   help="structure penalty weight (first continuation stage)")
    p.add_argument("--lam-growth", type=float, default=10.0,
                   help="continuation growth per stage; 1 solves at --lambda only")
    p.add_argument("--lam-max", type=float, default=100.0,
                   help="largest continuation stage weight")
    p.add_argument("--solver", choices=SOLVERS, default="gcgls")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--out", default=None, help="output directory (default runs/<command>)")
    p.add_argument("--config", default=None,
                   help="file of key=value lines, each read as --key=value")


def build_parser():
    p = argparse.ArgumentParser(
        prog="slrm",
        description="Structured low-rank recovery via conditional gradient")
    sub = p.add_subparsers(dest="command", required=True)

    ssr = sub.add_parser("ssr", help="stochastic system realization run")
    ssr.add_argument("--n", type=int, required=True, help="output dimension")
    ssr.add_argument("--r", type=int, required=True, help="true system order")
    ssr.add_argument("--j", type=int, required=True, help="block rows")
    ssr.add_argument("--k", type=int, required=True, help="block columns / observed lags")
    ssr.add_argument("--T", type=int, default=1000, help="trajectory length")
    ssr.add_argument("--sigma", type=float, default=0.05, help="measurement noise")
    _add_run_flags(ssr)

    scs = sub.add_parser("scs", help="spectral compressed sensing run")
    scs.add_argument("--n1", type=int, required=True)
    scs.add_argument("--n2", type=int, required=True)
    scs.add_argument("--r", type=int, required=True, help="number of sinusoids")
    scs.add_argument("--k1", type=int, required=True)
    scs.add_argument("--k2", type=int, required=True)
    scs.add_argument("--obs", type=float, default=0.2, help="observed fraction")
    scs.add_argument("--snr", type=float, default=10.0)
    _add_run_flags(scs)
    # The grid readout averages the lifted entries, so it never needs the
    # structure weight tightened; continuation only biases the amplitudes
    # down.  Order estimation (ssr) keeps the default ladder.
    scs.set_defaults(lam_growth=1.0)

    return p


def _config_argv(parser, argv):
    """argv with the --config file's lines spliced in after the command, and
    the --config flag itself taken out, so it may also precede the command.

    Each key=value line becomes the single token --key=value (so a value
    that starts with "-" stays a value), and argparse checks it like any
    flag.  File lines can meet required flags; the command line's own flags
    come later, so they win.  A file that cannot be read, is not UTF-8 or
    has a line without "=" exits 2 with one ``error:`` line, as every other
    usage error does.
    """
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    pre = argparse.ArgumentParser(prog=parser.prog, add_help=False)
    pre.add_argument("--config")
    known, rest = pre.parse_known_args(argv)
    path = known.config
    if path is None:
        return argv
    tokens = []
    try:
        with open(path, encoding="utf-8") as fh:
            for ln, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, eq, value = line.partition("=")
                if not eq or not key.strip():
                    raise SystemExit(_usage_error(f"{path}:{ln}: expected key=value"))
                tokens.append(f"--{key.strip()}={value.strip()}")
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemExit(_usage_error(f"cannot read config file: {exc}"))
    # the command is the first token of rest that is not a flag
    at = next((i for i, tok in enumerate(rest) if not tok.startswith("-")), -1) + 1
    return rest[:at] + tokens + rest[at:]


def _solver_config(args):
    """The chosen solver's config, validated; raises ValueError."""
    common = dict(max_iter=args.max_iter, seed=args.seed,
                  lam_growth=args.lam_growth, lam_max=args.lam_max)
    if args.solver == "gcg":
        common["local_search_max_steps"] = 0
    config = ApgConfig(**common) if args.solver == "apg-svt" else GcgConfig(**common)
    config.validate()
    return config


def _run_solver(prob, config):
    """(dense X, trace) of the configured solver's continuation run."""
    if isinstance(config, ApgConfig):
        return solve_apg_homotopy(prob, config)
    factors, trace = solve_homotopy(prob, config)
    return factors.product(), trace


def _usage_error(message):
    print(f"error: {message}", file=sys.stderr)
    return 2


def _write_csv(path, columns):
    """Write a header of the column names, then one row per entry.

    ``columns`` maps names to 1-D arrays of one length.  A cell is the
    ``repr`` of the entry's Python value, so int columns print as ints and
    float columns round-trip exactly.  Every line ends in "\\n".
    """
    rows = zip(*(map(repr, col.tolist()) for col in columns.values()))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def _indexed(a, *names):
    """Columns of array a: one per axis, named by names, then "value"."""
    index = np.indices(a.shape).reshape(a.ndim, -1)
    return {**dict(zip(names, index)), "value": a.ravel()}


def _write_trace(path, trace: SolveTrace):
    """One trace.csv column per TraceRecord field, int where its type reads "int"."""
    _write_csv(path, {_TRACE_NAMES.get(f.name, f.name):
                      trace.column(f.name).astype(int if f.type == "int" else float)
                      for f in fields(TraceRecord)})


def save_ssr_data(path, data: apps.SsrData):
    """Covariance blocks as CSV rows (block, row, col, value, observed)."""
    columns = _indexed(data.v, "block", "row", "col")
    _write_csv(path, {**columns, "observed": data.w.astype(int)[columns["block"]]})


def save_scs_data(path, data: apps.ScsData):
    """Signal grid as CSV rows (row, col, value, observed, observed_value)."""
    columns = _indexed(data.signal, "row", "col")
    at = columns["row"] + data.signal.shape[0] * columns["col"]  # omega's order
    _write_csv(path, {**columns, "observed": np.isin(at, data.omega).astype(int),
                      "observed_value": data.observed.ravel()})


def _write_run_outputs(out_dir, trace: SolveTrace, args, extra=None):
    _write_trace(os.path.join(out_dir, "trace.csv"), trace)
    summary = trace.summary(args.solver, args.seed)
    summary.update(extra or {})
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def _run_app(args, cfg, generate, problem, save, data_file, finish=None):
    """Generate, assemble and solve one instance; write and print the outputs.

    ``finish(prob, data, x, out_dir)`` may write more files; the fields it
    returns join the summary, both in ``summary.json`` and on stdout.
    """
    try:
        config = _solver_config(args)
        data = generate(cfg)
        prob = problem(cfg, data, mu=args.mu, lam=args.lam)
    except ValueError as exc:  # bad solver or experiment parameters
        return _usage_error(exc)
    out_dir = args.out or os.path.join("runs", args.command)
    try:  # after the checks above, so a bad parameter creates nothing
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:  # e.g. --out names a file
        return _usage_error(f"cannot create output directory: {exc}")
    save(os.path.join(out_dir, data_file), data)
    try:  # a non-finite phi ends either solver as diverged; numpy's warnings add nothing
        with np.errstate(over="ignore", invalid="ignore"):
            x, trace = _run_solver(prob, config)
    except DivergedError as exc:
        if exc.trace is not None:
            _write_run_outputs(out_dir, exc.trace, args)
        print(f"diverged: {exc}", file=sys.stderr)
        return 1
    extra = finish(prob, data, x, out_dir) if finish else {}
    summary = _write_run_outputs(out_dir, trace, args, extra)
    print(json.dumps(summary, sort_keys=True))
    return 0


def run_ssr(args):
    cfg = apps.SsrConfig(n=args.n, r=args.r, j=args.j, k=args.k, T=args.T,
                         sigma=args.sigma, seed=args.seed)
    return _run_app(args, cfg, apps.ssr_generate, apps.ssr_problem,
                    save_ssr_data, "covariances.csv")


def run_scs(args):
    cfg = apps.ScsConfig(n1=args.n1, n2=args.n2, r=args.r, k1=args.k1,
                         k2=args.k2, obs_fraction=args.obs, snr=args.snr,
                         seed=args.seed)

    def write_grid(prob, data, x, out_dir):
        grid = unvec(spmv(prob.C, vec(x)), cfg.n1, cfg.n2)
        _write_csv(os.path.join(out_dir, "recovered.csv"), _indexed(grid, "row", "col"))
        err = np.linalg.norm(grid - data.signal) / np.linalg.norm(data.signal)
        return {"normalized_error": float(err)}

    return _run_app(args, cfg, apps.scs_generate, apps.scs_problem,
                    save_scs_data, "signal.csv", write_grid)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_config_argv(parser, argv))
    return {"ssr": run_ssr, "scs": run_scs}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
