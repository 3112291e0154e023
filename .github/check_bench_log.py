"""Check a benchmark smoke log: the expected JSON rows, all correct.

Usage, from the repository root:

    python3 .github/check_bench_log.py LOG [ROWS]

LOG is the standard output of ``perfbench/run.py``; its lines starting with
``{`` are the workloads' result rows.  ROWS is the number of rows expected,
by default the number of workloads BENCHMARK.json lists (the rows of
``--workload all``).  Exits 0 when the log has ROWS rows and every row has
``"correct": true``, else 1.
"""

import json
import sys

rows = [json.loads(line) for line in open(sys.argv[1]) if line.startswith("{")]
if len(sys.argv) > 2:
    want = int(sys.argv[2])
else:
    with open("BENCHMARK.json") as fh:
        want = len(json.load(fh)["workloads"])
print(sum(r["correct"] for r in rows), "of", want, "workloads correct")
sys.exit(0 if len(rows) == want and all(r["correct"] for r in rows) else 1)
