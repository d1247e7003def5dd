"""Command-line surface: solve, exact-optf, oracle, gen, bench.

All numeric output is bit-exact: rationals are rendered as "num/den"
strings, never floats.  Exit codes: 0 success; 1 when bench finds no
readable instance in its directory (it still writes the CSV header); 2
instance parse/validation error (bad JSON or UTF-8, JSON nested past the
recursion limit, a schema violation, or a value past Python's limit on
the digits of one int); 3 bad parameters; 4 instance too large: for an
oracle (more items than --max-n, t > 3, 2^n integer packings or, for
t >= 2, 2^n LP evaluations beyond the oracle's work budgets, one integer
packing DP beyond its state limit, or more than 10^6 optimal
interdictions to list), a knapsack frontier run, value-only or stored,
beyond its pair budget, or a dual vertex walk (solve, exact-optf, bench)
reading more than 10^7 zero-sets, C(n + t, t) - 1 after preprocessing, or
building a cofactor table of more than 10^7 cells, C(t + 1, k) (t + 1)
at depth k <= min(n, t), or an FPTAS grid (solve, bench) whose top
level's numerator would pass an estimated 10^7 bits.

A solve runs in one process: its --jobs flag is accepted and has no
effect.  bench --jobs spreads the instances over a process pool, one
solve per task.  The solve and bench outputs are byte-identical for
identical inputs and flags regardless of --jobs (the wall_ms benchmark
column is measured time and is the single exception).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

from .dual import PreparedInstance, exact_fractional_optimum, fractional_value, prepare
from .fptas import InternalInvariantError, NonpositiveEpsError, Solution, approx_interdiction
from .generator import generate_instance
from .instance import (
    Instance,
    InstanceError,
    InterdictionVector,
    lift_interdiction,
    parse_instance,
    preprocess,
    serialize_instance,
)
from .nominal import StateLimitError
from .oracles import InstanceTooLargeError, oracle_report
from .rational import rat_to_str

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PARAMS = 3
EXIT_TOO_LARGE = 4


def _load_instance(path: str) -> Instance:
    try:
        text = Path(path).read_bytes()
    except OSError as exc:
        raise InstanceError(f"cannot read {path}: {exc}") from exc
    return parse_instance(text)


def _parse_eps(text: str) -> Fraction:
    try:
        eps = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise NonpositiveEpsError(f"cannot parse eps {text!r}") from exc
    if eps <= 0:
        raise NonpositiveEpsError(f"eps must be positive, got {text}")
    return eps


def _certify(inst: Instance, sol: Solution, prepared: PreparedInstance) -> None:
    # Recompute the relaxed value of the emitted interdiction before anything
    # is printed; a mismatch would mean a solver bug, never a user error.  The
    # prepared instance and its candidates depend on the instance alone, so
    # they are shared with the solver; nothing derived from x is.
    reduced = prepared.reduced
    bits = tuple(
        sol.x[orig]
        for orig in range(inst.n)
        if prepared.index_map[orig] is not None
    )
    x = InterdictionVector.from_bits(bits, reduced.c)
    if not x.feasible(inst.B):
        raise InternalInvariantError("emitted interdiction exceeds the budget")
    check = fractional_value(reduced, x, prepared.candidates)
    if check != sol.f_value:
        raise InternalInvariantError(
            f"emitted value {sol.f_value} != recomputed {check}"
        )


def _solution_json(sol: Solution) -> str:
    obj = {
        "x": list(sol.x),
        "f_value": rat_to_str(sol.f_value),
        "guarantee": sol.guarantee,
        "z_star": rat_to_str(sol.z_star) if sol.z_star is not None else None,
        "alpha_star": (
            [rat_to_str(a) for a in sol.alpha_star]
            if sol.alpha_star is not None
            else None
        ),
        "additive_cert": rat_to_str(sol.additive_cert),
        "stats": {
            "candidates": sol.stats.candidates,
            "dp_tables": sol.stats.dp_tables,
            "dp_states": sol.stats.dp_states,
        },
    }
    return json.dumps(obj, indent=2) + "\n"


def _solution_text(sol: Solution) -> str:
    lines = [
        f"interdict: {' '.join(str(b) for b in sol.x) if sol.x else '(none)'}",
        f"f_value: {rat_to_str(sol.f_value)}",
        f"guarantee: {sol.guarantee}",
        f"additive_cert: {rat_to_str(sol.additive_cert)}",
    ]
    if sol.z_star is not None:
        lines.append(f"z_star: {rat_to_str(sol.z_star)}")
    if sol.alpha_star is not None:
        lines.append(f"alpha_star: {' '.join(rat_to_str(a) for a in sol.alpha_star)}")
    lines.append(
        f"stats: candidates={sol.stats.candidates} "
        f"dp_tables={sol.stats.dp_tables} dp_states={sol.stats.dp_states}"
    )
    return "\n".join(lines) + "\n"


def cmd_solve(args) -> int:
    inst = _load_instance(args.input)
    eps = _parse_eps(args.eps)
    prepared = prepare(inst)
    sol = approx_interdiction(inst, eps, prepared=prepared)
    _certify(inst, sol, prepared)
    out = _solution_json(sol) if args.output == "json" else _solution_text(sol)
    sys.stdout.write(out)
    return EXIT_OK


def cmd_exact_optf(args) -> int:
    inst = _load_instance(args.input)
    reduced, index_map = preprocess(inst)
    value, x, (scale, alpha) = exact_fractional_optimum(reduced)
    obj = {
        "opt_f": rat_to_str(value),
        "x": list(lift_interdiction(x.bits, index_map)),
        "alpha": [rat_to_str(Fraction(v, scale)) for v in alpha],
    }
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")
    return EXIT_OK


def cmd_oracle(args) -> int:
    inst = _load_instance(args.input)
    reduced, index_map = preprocess(inst)
    report = oracle_report(reduced, limit=args.max_n)
    obj = {
        "opt_i": report.opt_i,
        "opt_f": rat_to_str(report.opt_f),
        "p_star": report.p_star,
        "optimal_x_list": [
            list(lift_interdiction(bits, index_map))
            for bits in report.optimal_x_list
        ],
    }
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")
    return EXIT_OK


def cmd_gen(args) -> int:
    try:
        inst = generate_instance(
            n=args.n,
            t=args.t,
            seed=args.seed,
            pmax=args.pmax,
            wmax=args.wmax,
            cmax=args.cmax,
            budget_frac=Fraction(args.budget_frac),
            cap_frac=Fraction(args.cap_frac),
        )
    except (ValueError, ZeroDivisionError) as exc:
        raise _ParamsError(str(exc)) from exc
    Path(args.output).write_text(serialize_instance(inst), encoding="utf-8")
    return EXIT_OK


class _ParamsError(ValueError):
    pass


_BENCH_HEADER = [
    "instance",
    "n",
    "t",
    "eps",
    "f_value",
    "opt_f",
    "ratio",
    "dp_states",
    "wall_ms",
]


def _bench_task(task):
    name, inst, eps_str, exact_max_n = task
    eps = Fraction(eps_str)
    start = time.perf_counter()
    prepared = prepare(inst)
    sol = approx_interdiction(inst, eps, prepared=prepared)
    wall_ms = int((time.perf_counter() - start) * 1000)
    opt_f = ""
    ratio = ""
    if inst.n <= exact_max_n:
        value, _, _ = exact_fractional_optimum(
            prepared.reduced, prepared.candidates
        )
        opt_f = rat_to_str(value)
        if value > 0:
            ratio = rat_to_str(sol.f_value / value)
    return [
        name,
        str(inst.n),
        str(inst.t),
        eps_str,
        rat_to_str(sol.f_value),
        opt_f,
        ratio,
        str(sol.stats.dp_states),
        str(wall_ms),
    ]


def cmd_bench(args) -> int:
    eps_list = sorted(_parse_eps(part) for part in args.eps.split(","))
    directory = Path(args.dir)
    if not directory.is_dir():
        raise InstanceError(f"not a directory: {args.dir}")
    tasks = []
    for path in sorted(directory.iterdir()):
        if not path.is_file():
            continue
        try:
            inst = parse_instance(path.read_bytes())
        except (OSError, InstanceError) as exc:
            sys.stderr.write(f"skipping {path.name}: {exc}\n")
            continue
        for eps in eps_list:
            tasks.append((path.name, inst, rat_to_str(eps), args.exact_max_n))

    workers = min(args.jobs, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_bench_task, tasks))
    else:
        rows = [_bench_task(t) for t in tasks]

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_BENCH_HEADER)
    writer.writerows(rows)
    Path(args.csv).write_text(buf.getvalue(), encoding="utf-8")
    if not rows:
        sys.stderr.write("no instances benchmarked\n")
        return 1
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every call
    of main in the process; parse_args fills a new Namespace each time."""
    parser = argparse.ArgumentParser(
        prog="kinterdict",
        description="Exact and approximate knapsack interdiction solvers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="approximate the interdiction optimum")
    p.add_argument("--input", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--output", choices=("json", "text"), default="json")
    p.add_argument(
        "--jobs", type=int, default=1, help="accepted and ignored: a solve is serial"
    )
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("exact-optf", help="exact relaxed optimum (pseudopolynomial)")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_exact_optf)

    p = sub.add_parser("oracle", help="brute-force ground truth for small instances")
    p.add_argument("--input", required=True)
    p.add_argument("--max-n", type=int, default=20)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="generate a deterministic random instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pmax", type=int, default=100)
    p.add_argument("--wmax", type=int, default=100)
    p.add_argument("--cmax", type=int, default=100)
    p.add_argument("--budget-frac", default="1/2")
    p.add_argument("--cap-frac", default="1/2")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="benchmark a directory of instances to CSV")
    p.add_argument("--dir", required=True)
    p.add_argument("--eps", required=True, help="comma-separated list")
    p.add_argument("--csv", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--exact-max-n", type=int, default=16)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InstanceError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except (NonpositiveEpsError, _ParamsError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARAMS
    except (InstanceTooLargeError, StateLimitError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_TOO_LARGE


if __name__ == "__main__":
    sys.exit(main())
