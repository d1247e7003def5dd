#!/usr/bin/env python3
"""Check the benchmark's traced passes against the golden outputs and the
work gates: the exact-scan prune, the value-only DP, the candidate screen,
the free-item traceback and the int vertex enumeration.

Usage: python3 scripts/check_traced_gates.py

Runs ``perfbench/run.py --workload W --seconds 0 --trace 1`` for each
workload, prints one ``ok`` or ``FAILED`` line per workload and exits 1
when any fails.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fptas-t1", "multi-cap", "exact-scan")


def passes(workload: str, r: dict) -> bool:
    m = r["metrics"]
    ok = r["correct"] is True and m["check.output_drift"]["value"] == 0
    if workload == "exact-scan":
        # the candidate prune: at most one knapsack per four candidates
        ok = ok and 4 * m["nominal.knapsack.calls"]["value"] <= m["dual.candidates.points"]["value"]
    if workload == "fptas-t1":
        # the value-only DP: dense tables only for level winners
        ok = ok and m["fptas.dp_build.calls"]["value"] <= m["fptas.level.calls"]["value"]
        # the candidate screen: at most one DP run per four nominal tables
        ok = ok and 4 * m["fptas.candidate.calls"]["value"] <= m["fptas.stats.dp_tables"]["value"]
        # the traceback over the items the LP bound leaves free: a
        # winner's table holds at most a quarter of a nominal table
        ok = ok and (
            4 * m["fptas.dp_build.cells"]["value"] * m["fptas.stats.dp_tables"]["value"]
            <= m["fptas.dp_build.calls"]["value"] * m["fptas.stats.dp_states"]["value"]
        )
    if workload == "multi-cap":
        # the int vertex enumeration: no more Fraction solves than points
        ok = ok and m["linalg.solve.calls"]["value"] <= m["dual.candidates.points"]["value"]
        # the candidate screen and the value-only DP, as on fptas-t1
        ok = ok and 4 * m["fptas.candidate.calls"]["value"] <= m["fptas.stats.dp_tables"]["value"]
        ok = ok and m["fptas.dp_build.calls"]["value"] <= m["fptas.level.calls"]["value"]
    return ok


def main() -> int:
    failed = False
    for workload in WORKLOADS:
        run = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seconds", "0", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = run.stdout.splitlines()
        last = lines[-1] if lines else run.stderr.strip()
        try:
            ok = passes(workload, json.loads(last))
        except (ValueError, KeyError, TypeError):
            ok = False
        print(workload, "ok" if ok else "FAILED: " + last[:400], flush=True)
        failed = failed or not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
