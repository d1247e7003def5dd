"""Desk-scale brute-force ground truth for the solvers.

Everything here is deliberately simple enumeration over exact rationals:
the integer interdiction optimum over all budget-feasible deletions, the
relaxed optimum, the additive-gap witness (the smallest possible "largest
surviving profit" among optimal interdictions), and an LP evaluator that
enumerates basic feasible points instead of running a greedy.  These are the
independent second route every fast path is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb, prod

from .instance import FractionalPacking, Instance, InterdictionVector
from .linalg import solve_square_system
from .nominal import best_integer_packing, fractional_knapsack


# Most DP states the integer oracle may visit in one call: 2^n interdictions,
# each a best_integer_packing of at most n x prod(C_j + 1) states.
WORK_BUDGET = 10**8

# Most LP points the relaxed oracle may enumerate in one call when t >= 2:
# 2^n interdictions, each a vertex_lp_optimum over at most
# sum_s C(n, s) C(t, s) 2^(n - s) basic points.
LP_POINT_BUDGET = 2 * 10**6


class InstanceTooLargeError(ValueError):
    pass


class TooManyOptimaError(ValueError):
    """More optimal interdictions than the materialisation cap allows."""


@dataclass(frozen=True)
class OracleReport:
    opt_i: int
    opt_f: Fraction
    p_star: int
    optimal_x_list: tuple[tuple[int, ...], ...]


def _feasible_interdictions(inst: Instance):
    # cost per bitmask by the low-bit recurrence, then filter by budget
    n = inst.n
    cost = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        cost[mask] = cost[mask ^ low] + inst.c[low.bit_length() - 1]
    for mask in range(1 << n):
        if cost[mask] <= inst.B:
            yield mask


def _refuse_integer_work(inst: Instance, limit: int) -> None:
    if inst.n > limit:
        raise InstanceTooLargeError(f"n={inst.n} exceeds oracle limit {limit}")
    states = inst.n * prod(c + 1 for c in inst.C)
    if (states << inst.n) > WORK_BUDGET:
        raise InstanceTooLargeError(
            f"2^{inst.n} interdictions x {states} packing states exceeds "
            f"limit {WORK_BUDGET}"
        )


def _refuse_relaxed_work(inst: Instance, limit: int) -> None:
    if inst.n > limit:
        raise InstanceTooLargeError(f"n={inst.n} exceeds oracle limit {limit}")
    if inst.t == 1:
        return  # one greedy per interdiction
    n = inst.n
    points = sum(
        comb(n, s) * comb(inst.t, s) << (n - s) for s in range(min(n, inst.t) + 1)
    )
    if (points << n) > LP_POINT_BUDGET:
        raise InstanceTooLargeError(
            f"2^{n} interdictions x {points} LP points exceeds "
            f"limit {LP_POINT_BUDGET}"
        )


def _mask_bits(mask: int, n: int) -> tuple[int, ...]:
    return tuple((mask >> i) & 1 for i in range(n))


def brute_force_opt_i(
    inst: Instance, limit: int = 20, max_optima: int = 10**6
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Exact integer interdiction optimum and every attaining interdiction.

    Refuses, before enumerating anything, an instance with more than
    ``limit`` items or whose predicted DP states, 2^n times the n x
    prod(C_j + 1) that best_integer_packing checks per call, exceed
    ``WORK_BUDGET``.
    """
    _refuse_integer_work(inst, limit)
    best: int | None = None
    argmins: list[tuple[int, ...]] = []
    for mask in _feasible_interdictions(inst):
        bits = _mask_bits(mask, inst.n)
        x = InterdictionVector.from_bits(bits, inst.c)
        k = best_integer_packing(inst, x).value
        if best is None or k < best:
            best = k
            argmins = [bits]
        elif k == best:
            if len(argmins) >= max_optima:
                raise TooManyOptimaError(
                    f"more than {max_optima} optimal interdictions"
                )
            argmins.append(bits)
    assert best is not None  # the empty interdiction is always feasible
    return best, tuple(argmins)


def brute_force_opt_f(
    inst: Instance, limit: int = 20
) -> tuple[Fraction, tuple[int, ...]]:
    """Exact relaxed optimum by enumerating every feasible interdiction.

    Uses the greedy LP for a single capacity and basic-point enumeration
    otherwise, so it shares no code path with the dual-candidate solver.
    Refuses, before enumerating anything, an instance with more than
    ``limit`` items or, for t >= 2, whose predicted basic points, 2^n times
    the sum over s of C(n, s) C(t, s) 2^(n - s) that vertex_lp_optimum
    enumerates per call, exceed ``LP_POINT_BUDGET``.
    """
    _refuse_relaxed_work(inst, limit)
    best: Fraction | None = None
    best_bits: tuple[int, ...] | None = None
    for mask in _feasible_interdictions(inst):
        bits = _mask_bits(mask, inst.n)
        x = InterdictionVector.from_bits(bits, inst.c)
        if inst.t == 1:
            value = fractional_knapsack(inst, x).value
        else:
            value = vertex_lp_optimum(inst, x, limit=limit).value
        if best is None or value < best:
            best = value
            best_bits = bits
    assert best is not None and best_bits is not None
    return best, best_bits


def oracle_report(inst: Instance, limit: int = 20) -> OracleReport:
    """Both optima and p*, refusing before either brute force starts when
    one of them would pass its limit or work budget."""
    _refuse_integer_work(inst, limit)
    _refuse_relaxed_work(inst, limit)
    opt_i, optima = brute_force_opt_i(inst, limit=limit)
    opt_f, _ = brute_force_opt_f(inst, limit=limit)
    best = min(
        max((inst.p[i] for i in range(inst.n) if not bits[i]), default=0)
        for bits in optima
    )
    return OracleReport(
        opt_i=opt_i, opt_f=Fraction(opt_f), p_star=best, optimal_x_list=optima
    )


def vertex_lp_optimum(
    inst: Instance, x: InterdictionVector, limit: int = 8
) -> FractionalPacking:
    """Exact packing LP value by enumerating basic feasible points.

    Every vertex of the packing polytope has at most t coordinates strictly
    between 0 and 1, and those coordinates solve a square subsystem of
    binding capacity rows given a 0/1 assignment of the rest.  Enumerating
    all such points (and skipping singular subsystems, whose vertices other
    subsets recover) therefore covers an optimal vertex.
    """
    if inst.n > limit:
        raise InstanceTooLargeError(f"n={inst.n} exceeds oracle limit {limit}")
    if inst.t > 3:
        raise InstanceTooLargeError(f"t={inst.t} exceeds oracle limit 3")
    n, t = inst.n, inst.t
    free = [i for i in range(n) if not x.bits[i]]
    zero = FractionalPacking(
        y=tuple(Fraction(0) for _ in range(n)), value=Fraction(0), frac_support=()
    )
    best = zero
    for s in range(0, min(t, len(free)) + 1):
        for frac_set in combinations(free, s):
            rest = [i for i in free if i not in frac_set]
            for rows in combinations(range(t), s):
                for assign in product((0, 1), repeat=len(rest)):
                    y = [Fraction(0)] * n
                    for i, b in zip(rest, assign):
                        y[i] = Fraction(b)
                    if s:
                        A = [[inst.W[j][i] for i in frac_set] for j in rows]
                        b_rhs = [
                            inst.C[j]
                            - sum(inst.W[j][i] * b for i, b in zip(rest, assign))
                            for j in rows
                        ]
                        sol = solve_square_system(A, b_rhs)
                        if sol is None:
                            continue
                        if any(v < 0 or v > 1 for v in sol):
                            continue
                        for i, v in zip(frac_set, sol):
                            y[i] = v
                    if any(
                        sum(inst.W[j][i] * y[i] for i in free) > inst.C[j]
                        for j in range(t)
                    ):
                        continue
                    value = sum((inst.p[i] * y[i] for i in free), start=Fraction(0))
                    if value > best.value:
                        best = FractionalPacking(
                            y=tuple(y),
                            value=value,
                            frac_support=tuple(
                                i for i in frac_set if 0 < y[i] < 1
                            ),
                        )
    return best
