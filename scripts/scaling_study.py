#!/usr/bin/env python3
"""Empirical scaling of the grid-search solver.

Doubles n at fixed accuracy and reports total DP states and wall time per
solve, averaged over seeds.  DP states are the paper's nominal count, not
the work done: the table size n (kmax+1) summed over the candidates whose
alpha . C is within the acceptance limit of a level on the binary search's
path, whether the level was scanned or decided by the search's bounds, and
whether a candidate's DP ran or not; candidates above a level's limit are
charged no table.  A full scan would grow by about 8 per
doubling (states per table scale with n^2, the candidate count with n, and
the binary search length is nearly flat); with the skip the ratio depends on
how many candidates each level drops.  Only the candidates within the
solve's bound (dual.prepare) are counted.  At --eps 1 the measured ratios
for n = 10, 20, 40, 80 are 8.40, 4.21 and 12.89.

Usage: python scripts/scaling_study.py [--eps 1] [--sizes 10,20,40,80]
"""

import argparse
import time
from fractions import Fraction

from kinterdict.fptas import approx_fractional_optimum
from kinterdict.generator import generate_instance

SEEDS = (1, 2, 3, 4, 5)


def measure(n: int, eps: Fraction) -> tuple[float, float]:
    states = 0
    elapsed = 0.0
    for seed in SEEDS:
        inst = generate_instance(n=n, t=1, seed=seed, pmax=100, wmax=100, cmax=100)
        start = time.perf_counter()
        sol = approx_fractional_optimum(inst, eps)
        elapsed += time.perf_counter() - start
        states += sol.stats.dp_states
    return states / len(SEEDS), elapsed / len(SEEDS)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--eps", default="1")
    parser.add_argument("--sizes", default="10,20,40,80")
    args = parser.parse_args()
    eps = Fraction(args.eps)
    sizes = [int(s) for s in args.sizes.split(",")]

    print(f"eps = {eps}, {len(SEEDS)} seeds per size")
    print(f"{'n':>5} {'dp_states':>14} {'ratio':>7} {'ms':>9}")
    prev = None
    for n in sizes:
        states, secs = measure(n, eps)
        ratio = f"{states / prev:.2f}" if prev else "-"
        print(f"{n:>5} {states:>14.0f} {ratio:>7} {secs * 1000:>9.1f}")
        prev = states
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
