"""Check a solver trace: psi never rises, and phi equals psi, up to rounding.

Usage, from the repository root:

    python3 .github/check_trace.py TRACE_CSV

TRACE_CSV is the ``trace.csv`` that ``python -m slrm.cli`` writes.  Exits 0
when it has at least one row, no row's psi exceeds the previous row's by
more than 1e-12 (acceptance 08's bound), and no row's phi differs from its
own psi by more than 1e-12 * max(1, |psi|), in either direction, else 1.
The second bound holds for GCG runs with the recompress, the CLI's
setting: every iterate settles on balanced factors, whose surrogate is
|X|_*, so phi equals psi by construction; APG rows, whose psi is phi, pass
it trivially.
"""

import csv
import sys

rows = [(float(r["phi"]), float(r["psi"])) for r in csv.DictReader(open(sys.argv[1]))]
psi = [p for _, p in rows]
sys.exit(not psi
         or any(b - a > 1e-12 for a, b in zip(psi, psi[1:]))
         or any(abs(f - p) > 1e-12 * max(1.0, abs(p)) for f, p in rows))
