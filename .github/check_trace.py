"""Check a solver trace: psi never rises by more than rounding.

Usage, from the repository root:

    python3 .github/check_trace.py TRACE_CSV

TRACE_CSV is the ``trace.csv`` that ``python -m slrm.cli`` writes.  Exits 0
when it has at least one row and no row's psi exceeds the previous row's by
more than 1e-12 (acceptance 08's bound), else 1.
"""

import csv
import sys

psi = [float(r["psi"]) for r in csv.DictReader(open(sys.argv[1]))]
sys.exit(not psi or any(b - a > 1e-12 for a, b in zip(psi, psi[1:])))
