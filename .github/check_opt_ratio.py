"""Check one workload's opt_ratio in a benchmark smoke log.

Usage, from the repository root:

    python3 .github/check_opt_ratio.py LOG WORKLOAD MAX

LOG is the standard output of ``perfbench/run.py``.  Each workload prints a
``workload NAME ...`` line before its JSON result row.  Exits 0 when the log
holds exactly one row of WORKLOAD and its ``opt_ratio`` is at most MAX, else 1.
"""

import json
import sys

log, workload, limit = sys.argv[1], sys.argv[2], float(sys.argv[3])
current, ratios = None, []
for line in open(log):
    if line.startswith("workload "):
        current = line.split()[1]
    elif line.startswith("{") and current == workload:
        ratios.append(json.loads(line)["metrics"]["opt_ratio"]["value"])
print(workload, "opt_ratio", ratios, "limit", limit)
sys.exit(0 if len(ratios) == 1 and ratios[0] <= limit else 1)
