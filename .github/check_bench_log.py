"""Check a benchmark smoke log: a JSON row per BENCHMARK.json workload, all correct.

Usage, from the repository root:

    python3 .github/check_bench_log.py LOG

LOG is the standard output of ``perfbench/run.py --workload all``; its lines
starting with ``{`` are the workloads' result rows.  Exits 0 when the log
has as many rows as BENCHMARK.json lists workloads and every row has
``"correct": true``, else 1.
"""

import json
import sys

rows = [json.loads(line) for line in open(sys.argv[1]) if line.startswith("{")]
with open("BENCHMARK.json") as fh:
    want = len(json.load(fh)["workloads"])
print(sum(r["correct"] for r in rows), "of", want, "workloads correct")
sys.exit(0 if len(rows) == want and all(r["correct"] for r in rows) else 1)
