#!/usr/bin/env python3
"""Benchmark of kinterdict: certified solve throughput, latency and set-up.

Run from the repository root:

    python3 perfbench/run.py --workload fptas-t1 --seed 1 --seconds 24 --trace 0

Workloads: fptas-t1, multi-cap, exact-scan (see bench.py).
``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones, measured by wrappers around the library's functions
(``*.self_ms`` is milliseconds of self time per request; counts are per pass
over the corpus).  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.

The end-to-end timings (setup_s, throughput_ops, latency_ms_*) are wall
times scaled by a calibration kernel timed between requests, so that the
drift of a shared machine's speed cancels out (see calibrate.py); the raw
wall times are printed as comments.

    python3 perfbench/run.py --smoke          # one short pass of everything
    python3 perfbench/run.py --record-golden  # rewrite golden.json

The library is imported from ./src; without it the script exits with 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def smoke(bench) -> int:
    """Every declared metric is printed with its unit; tampering is caught."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in bench.WORKLOADS.values():
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, lines, s = bench.run_workload(
                w, bench.DEFAULT_SEED, 0, trace, size=2, setup_repeats=1
            )
            print("\n".join(lines))
            declared = {m["name"]: m["unit"] for m in spec[key]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != declared:
                problems.append(f"{w.name} {key}: printed {printed}, declared {declared}")
            for name, m in result["metrics"].items():
                if f"{name} = {m['value']} {m['unit']}" not in lines:
                    problems.append(f"{w.name}: no line for {name}")
            if not result["correct"]:
                problems.append(f"{w.name} trace={int(trace)}: run not correct")

        idx, text = next(iter(s.outputs.items()))
        obj = json.loads(text)
        field = "f_value" if w.argv[0] == "solve" else "opt_f"
        obj[field] = str(Fraction(obj[field]) + 1)
        s.outputs, s.served, s.failed, s.errors = {idx: json.dumps(obj)}, {idx: 1}, 0, []
        s.check()
        if s.failed != 1:
            problems.append(f"{w.name}: tampered {field} was not counted as failed")

    print("\n".join(problems) or "smoke: ok")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true")
    mode.add_argument("--record-golden", action="store_true")
    mode.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "kinterdict" / "__init__.py").is_file():
        print(f"error: kinterdict sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench

    if args.smoke:
        return smoke(bench)
    if args.record_golden:
        return bench.record_golden()
    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(bench.WORKLOADS)}")
    w = bench.WORKLOADS[args.workload]
    if args.setup_probe:
        bench.setup_probe(w, args.seed)
        return 0
    result, lines, _ = bench.run_workload(w, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
