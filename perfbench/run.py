"""Solver benchmark: time to answer per workload, with a traced per-layer split.

Run from the repository root:

    python3 perfbench/run.py --workload ssr-desk [--seed N] [--seconds S] [--trace 0|1]

Workloads are defined in ``workloads.py``; ``BENCHMARK.json`` lists the ones
a full benchmark pass runs and the metrics it reports.  ``--workload all``
runs each of those in turn, each in its own process.  A run builds the
workload's instance set from the workload seed (instance i uses seed + i)
and solves it pass after pass, one solve at a time, for about ``--seconds``
seconds and at least two passes.  Every solve's output is checked, including
that repeated solves of an instance return the same final phi bit for bit.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.

``solve_s`` and ``setup_s`` are the median over instances of each
instance's fastest pass, scaled by the workload's reference kernel
(``reference.py``) timed in the same run.  Other tenants of a shared machine
slow single solves by up to 70% for tens of seconds at a time; keeping each
instance's fastest solve and scaling by the kernel removes most of that
noise, where a median over all solves does not.  The unscaled times
(``.wall``) and the 90th percentile over all solves are reported beside them.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` spends half the time untraced and half traced on the same
instances, reports the per-layer metrics of ``layers.py`` and self-tests the
tracer: traced final phi equals untraced bit for bit, every wrapped
attribute is restored, and self times sum to the traced wall time.

The full result (environment, informational metrics, predictions) is
written to ``perfbench/out/``; a traced run also writes its spans there.
"""

import os

# Pinned before numpy is imported: one BLAS thread keeps timings steady on a
# shared machine and stays within nproc everywhere.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import layers  # noqa: E402
from reference import ReferenceKernel  # noqa: E402
from tracer import PHASES, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_PASSES = 2
REF_PER_SOLVE = 2   # reference kernel runs after every solve
PHI_MISMATCH = "final phi differs from the instance's first solve"


def _import_slrm():
    """Import slrm from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import slrm
    except ImportError as exc:
        sys.exit(f"error: cannot import slrm from {SRC}: {exc}")
    if Path(slrm.__file__).resolve().parent != SRC / "slrm":
        sys.exit(f"error: slrm was imported from {slrm.__file__}, not from {SRC}")
    return slrm


def environment():
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "src_lines": sum(1 for p in sorted((SRC / "slrm").rglob("*.py"))
                         for line in p.read_text().splitlines() if line.strip()),
    }


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


class Record:
    """One instance of the run: its timings, quality and failures over passes."""

    def __init__(self, index, seed):
        self.index, self.seed = index, seed
        self.setup_s, self.solve_s = [], []
        self.quality = None          # from the first solve
        self.failures = []

    def best(self, name):
        return min(getattr(self, name))


def solve_once(w, rec, reference, tracer=None):
    """Set up, solve and check one instance; only set-up and solve are timed.

    The reference kernel runs after the check, outside both timed regions.
    """
    failures = []
    try:
        if tracer:
            tracer.begin(rec.index, "setup")
        t0 = time.perf_counter()
        inst = w.setup(rec.seed)
        setup_s = time.perf_counter() - t0
        cfg = w.config(rec.seed)
        if tracer:
            tracer.register(inst.prob)
            tracer.begin(rec.index, "solve")
        t0 = time.perf_counter()
        iterate, trace = w.solve(inst, cfg)
        solve_s = time.perf_counter() - t0
        if tracer:
            tracer.begin(rec.index, "check")
        quality, failures = w.check(inst, cfg, iterate, trace)
        if rec.quality is None:
            rec.quality = quality
        elif quality.get("final_phi") != rec.quality.get("final_phi"):
            failures.append(PHI_MISMATCH)
    except Exception:  # noqa: BLE001 - a failed solve is counted, not fatal
        failures.append(traceback.format_exc())
    for _ in range(REF_PER_SOLVE):
        reference.run()
    if failures:
        rec.failures.extend(failures)
        for failure in failures:
            print(f"FAILED {w.name} instance seed {rec.seed}: {failure}",
                  file=sys.stderr)
        return
    rec.setup_s.append(setup_s)
    rec.solve_s.append(solve_s)


def closed_loop(w, seed, budget, min_passes, reference, tracer=None,
                max_passes=None, records=None):
    """Solve the instance set pass after pass, one solve at a time.

    Stops once ``min_passes`` are done and another pass as long as the last
    one would end after ``budget`` seconds, after ``max_passes``, or after
    any pass that ends past the budget, so a much slower solver still
    finishes its run.  Returns the per-instance records and the number of
    solves attempted.
    """
    if records is None:
        records = [Record(i, seed + i) for i in range(w.instances)]
    attempted = passes = 0
    t_start = time.perf_counter()
    last_pass = 0.0
    while max_passes is None or passes < max_passes:
        elapsed = time.perf_counter() - t_start
        if passes and (elapsed > budget
                       or (passes >= min_passes and elapsed + last_pass > budget)):
            break
        t_pass = time.perf_counter()
        for rec in records:
            solve_once(w, rec, reference, tracer)
            attempted += 1
        passes += 1
        last_pass = time.perf_counter() - t_pass
    return records, attempted


def _failed_solves(records, attempted):
    return attempted - sum(len(r.solve_s) for r in records)


def end_to_end(w, records, attempted, reference):
    """Every end-to-end figure of an untraced run: (value, unit) by name."""
    ok = [r for r in records if r.solve_s]
    every = np.concatenate([r.solve_s for r in ok])
    quality = [r.quality for r in ok]
    ratios = np.array([q["opt_ratio"] for q in quality])
    solve_wall = float(np.median([r.best("solve_s") for r in ok]))
    setup_wall = float(np.median([r.best("setup_s") for r in ok]))
    m = {
        "solve_s": (solve_wall * reference.scale(), "s"),
        "solve_s.wall": (solve_wall, "s"),
        "solve_s.p90": (float(np.percentile(every, 90)), "s"),
        "solve_s.samples": (int(every.size), "count"),
        "setup_s": (setup_wall * reference.scale(), "s"),
        "setup_s.wall": (setup_wall, "s"),
        "reference_s": (min(reference.times), "s"),
        "final_phi": (float(np.mean([q["final_phi"] for q in quality])), "objective"),
        "opt_ratio": (float(np.median(ratios)), "ratio"),
        "opt_residual": (float(max(0.0, ratios.max() - 1.0)), "ratio"),
        "fail_frac": (_failed_solves(records, attempted) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }
    if "rel_error" in quality[0]:
        m["rel_error"] = (float(np.median([q["rel_error"] for q in quality])), "ratio")
    if "order_hit" in quality[0]:
        m["order_hit_frac"] = (float(np.mean([q["order_hit"] for q in quality])), "ratio")
    return m


def traced_run(w, seed, seconds, slrm):
    """Half the time untraced, half traced on the same instances."""
    ref_plain, ref_traced = ReferenceKernel(w.reference), ReferenceKernel(w.reference)
    plain, n_plain = closed_loop(w, seed, seconds / 2.0, 1, ref_plain)
    traced = [Record(r.index, r.seed) for r in plain]
    for rec, ref in zip(traced, plain):
        rec.quality = ref.quality   # so a traced phi must match the untraced one
    tracer = Tracer([slrm.apps, slrm.baseline, slrm.gcg, slrm.linalg,
                     slrm.objective, slrm.structure])
    tracer.install()
    try:
        traced, n_traced = closed_loop(w, seed, seconds / 2.0, 1, ref_traced,
                                       tracer=tracer,
                                       max_passes=n_plain // len(plain),
                                       records=traced)
    finally:
        not_restored = tracer.uninstall()

    spans = tracer.spans()
    pairs = [(p, t) for p, t in zip(plain, traced) if p.solve_s and t.solve_s]
    untraced_s = float(np.median([p.best("solve_s") for p, _ in pairs]))
    traced_s = float(np.median([t.best("solve_s") for _, t in pairs]))
    # each half scaled by its own reference time, so drift between the
    # halves does not read as tracing overhead
    overhead = (traced_s * ref_traced.scale()) / (untraced_s * ref_plain.scale()) - 1.0
    solves = [s for t in traced for s in t.solve_s]
    values = layers.layer_metrics(
        layers.SpanTable(tracer.names, spans), tracer.counters, tracer.problems,
        n_solves=len(solves), n_setups=len(solves),
        factor_rank_max=max(t.quality.get("factor_rank_max", 0) for _, t in pairs),
        overhead=overhead)

    top = spans["parent"] < 0
    timed = spans["phase"] != PHASES.index("check")
    wall = sum(sum(t.setup_s) + sum(t.solve_s) for t in traced)
    self_sum = float(spans["self"][timed].sum())
    tests = {
        "phi_bit_identical": PHI_MISMATCH not in [f for t in traced for f in t.failures],
        "attributes_restored": not not_restored,
        "self_time_covers_wall": abs(self_sum - wall) <= 0.01 * wall,
        "spans_nested": bool(np.all(spans["dur"] >= 0.0))
        and abs(self_sum - float(spans["dur"][top & timed].sum())) <= 1e-9 * max(1.0, wall),
    }
    info = {
        "wrapped_attributes": tracer.wrapped,
        "not_restored": not_restored,
        "spans": int(spans["dur"].size),
        "traced_solves": len(solves),
        "traced_wall_s": wall,
        "self_time_sum_s": self_sum,
        "solve_s_untraced": untraced_s,
        "solve_s_traced": traced_s,
        "local_search_share": values["gcg.local_search_s"] / float(np.mean(solves)),
        "lanczos_share": values["linalg.lanczos_s"] / float(np.mean(solves)),
    }
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{w.name}-s{seed}.npz", spans)
    records = plain + traced
    return records, n_plain + n_traced, values, tests, info


def run_all(spec, args):
    """Run every BENCHMARK.json workload one after another, each in its own process."""
    codes = []
    for entry in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", entry["name"],
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        codes.append(subprocess.run(cmd, check=False).returncode)
    return max(codes)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload == "all":
        return run_all(spec, args)
    slrm = _import_slrm()
    import workloads

    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from all, {', '.join(workloads.WORKLOADS)}")
    seed = w.default_seed if args.seed is None else args.seed
    env = environment()

    if args.trace:
        records, attempted, values, tests, info = traced_run(w, seed, args.seconds, slrm)
        listed = spec["per_layer"]
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in listed}
        predictions = {m["name"]: layers.PREDICTIONS[m["name"]] for m in listed}
    else:
        reference = ReferenceKernel(w.reference)
        records, attempted = closed_loop(w, seed, args.seconds, MIN_PASSES, reference)
        listed = spec["end_to_end"]
        has_solves = any(r.solve_s for r in records)
        metrics = end_to_end(w, records, attempted, reference) if has_solves else {}
        tests, info, predictions = {}, {}, {}
    result_metrics = {m["name"]: metrics[m["name"]] for m in listed
                      if m["name"] in metrics}

    failed = _failed_solves(records, attempted)
    correct = failed == 0 and all(tests.values()) and bool(result_metrics)
    print(f"workload {w.name}  seed {seed}  trace {args.trace}  "
          f"solves {attempted}  failed {failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>14.6g} {unit}")
    for name, ok in tests.items():
        print(f"  self-test {name}: {'ok' if ok else 'FAILED'}")
    print("env " + json.dumps(env, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    full = {"workload": w.name, "seed": seed, "trace": args.trace,
            "seconds": args.seconds, "why": w.why, "env": env,
            "attempted": attempted, "failed": failed, "correct": correct,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "self_tests": tests, "trace_info": info, "predictions": predictions}
    (OUT / f"{w.name}-s{seed}-t{args.trace}.json").write_text(
        json.dumps(full, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result_metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
