"""Desk-scale brute-force ground truth for the solvers.

Everything here is deliberately simple enumeration over exact rationals:
the integer interdiction optimum over all budget-feasible deletions, the
relaxed optimum, the additive-gap witness (the smallest possible "largest
surviving profit" among optimal interdictions), and an LP evaluator that
enumerates basic feasible points instead of running a greedy.  These are the
independent second route every fast path is checked against.

Both brute forces share one depth-first walk of the interdictions.  The
integer packing is its own dense DP over the product of the capacities,
value only and in ints, for every t: it shares no code with the frontier
DPs of ``nominal`` that the solvers run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from math import comb, prod
from operator import mul

from .instance import FractionalPacking, Instance, InterdictionVector
from .linalg import solve_square_system
from .nominal import StateLimitError, fractional_knapsack


# Most DP states the integer oracle may predict for one call: 2^n
# interdictions, each a packing of at most n x prod(C_j + 1) states.  It
# bounds the walk of brute_force_opt_i from above, which adds an item to a
# row fewer than 2^n times, each row prod(C_j + 1) cells.
WORK_BUDGET = 10**8

# Most packing states, items x prod(C_j + 1), that one best_integer_packing
# call, or the rows live at once along the walk of brute_force_opt_i, hold.
PACKING_STATE_LIMIT = 10_000_000

# Most LP points the relaxed oracle may enumerate in one call when t >= 2:
# 2^n interdictions, each a vertex_lp_optimum over at most
# sum_s C(n, s) C(t, s) 2^(n - s) basic points.
LP_POINT_BUDGET = 2 * 10**6


class InstanceTooLargeError(ValueError):
    pass


class TooManyOptimaError(InstanceTooLargeError):
    """More optimal interdictions than the materialisation cap allows."""


@dataclass(frozen=True)
class OracleReport:
    opt_i: int
    opt_f: Fraction
    p_star: int
    optimal_x_list: tuple[tuple[int, ...], ...]


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
    if inst.t > 3:
        raise InstanceTooLargeError(f"t={inst.t} exceeds oracle limit 3")


def _packing(inst: Instance, items: int, state_limit: int):
    """(row, add): the empty packing row of the instance, and a function
    that returns a row with item i added.

    A row holds, for each capacity use k in the product of the ranges
    0..C_j, the most profit of a selection whose weight is at most k in
    every capacity; the last capacity varies fastest.  Adding an item sets
    row[k] = max(old[k], old[k - w] + p) for every k >= w, one slice per
    run of the last capacity, in a copy of the old row, which is left as it
    is.  An item heavier than a capacity adds nothing, and its row is the
    old one.  Raises StateLimitError, before any row exists, when items
    rows would pass state_limit states.
    """
    sizes = [c + 1 for c in inst.C]
    states = prod(sizes)
    if items * states > state_limit:
        raise StateLimitError(
            f"{items} items x {states} capacity states exceeds limit {state_limit}"
        )
    strides = [prod(sizes[j + 1:]) for j in range(inst.t)]

    def add(row: list[int], i: int) -> list[int]:
        w = inst.weight_of(i)
        if any(wj > cj for wj, cj in zip(w, inst.C)):
            return row
        p, shift = inst.p[i], sum(map(mul, w, strides))
        lo, hi = w[-1], sizes[-1]
        new = row[:]
        for base in map(sum, product(
            *(range(wj * s, z * s, s) for wj, z, s in zip(w[:-1], sizes, strides))
        )):
            a, b = base + lo, base + hi
            new[a:b] = map(max, row[a:b], [v + p for v in row[a - shift:b - shift]])
        return new

    return [0] * states, add


def _walk(inst: Instance, add, row, leaf) -> None:
    """Call leaf(mask, row) at every budget-feasible interdiction mask
    (item i is bit i), in increasing order: items n - 1 down to 0 are
    decided depth-first, the keep branch first, and an item is interdicted
    only while the budget allows.  Keeping item i passes add(row, i) to its
    subtree, interdicting it row itself.
    """

    def walk(i: int, row, spent: int, mask: int) -> None:
        if i < 0:
            leaf(mask, row)
            return
        walk(i - 1, add(row, i), spent, mask)
        if spent + inst.c[i] <= inst.B:
            walk(i - 1, row, spent + inst.c[i], mask | 1 << i)

    walk(inst.n - 1, row, 0, 0)


def _bits(mask: int, n: int) -> tuple[int, ...]:
    return tuple(mask >> i & 1 for i in range(n))


def best_integer_packing(
    inst: Instance, x: InterdictionVector, state_limit: int = PACKING_STATE_LIMIT
) -> int:
    """Exact best integer packing value of the items surviving interdiction
    x: the dense DP of ``_packing`` folded over the survivors.

    Guarded by survivors x prod(C_j + 1) states against ``state_limit``; it
    exists as desk-scale ground truth, not as a scalable solver.
    """
    survivors = [i for i in range(inst.n) if not x.bits[i]]
    row, add = _packing(inst, len(survivors), state_limit)
    return reduce(add, survivors, row)[-1]


def brute_force_opt_i(
    inst: Instance, limit: int = 20, max_optima: int = 10**6
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Exact integer interdiction optimum and every attaining interdiction,
    in increasing order of their bitmasks (item i is bit i).

    Refuses, before enumerating anything, an instance with more than
    ``limit`` items, or whose predicted DP states, 2^n times n x
    prod(C_j + 1), exceed ``WORK_BUDGET``; and raises StateLimitError when
    n x prod(C_j + 1) exceeds ``PACKING_STATE_LIMIT``, which bounds the at
    most n + 1 rows live at once.

    ``_walk`` carries the packing row of the survivors decided so far,
    shared by the subtree below, so it adds an item fewer than 2^n times;
    the optima stay masks until the walk ends.
    """
    _refuse_integer_work(inst, limit)
    empty, add = _packing(inst, inst.n, PACKING_STATE_LIMIT)
    best: int | None = None
    argmins: list[int] = []

    def leaf(mask: int, row: list[int]) -> None:
        nonlocal best, argmins
        k = row[-1]
        if best is None or k < best:
            best = k
            argmins = [mask]
        elif k == best:
            if len(argmins) >= max_optima:
                raise TooManyOptimaError(
                    f"more than {max_optima} optimal interdictions"
                )
            argmins.append(mask)

    _walk(inst, add, empty, leaf)
    assert best is not None  # the empty interdiction is always feasible
    return best, tuple(_bits(mask, inst.n) for mask in argmins)


def brute_force_opt_f(
    inst: Instance, limit: int = 20
) -> tuple[Fraction, tuple[int, ...]]:
    """Exact relaxed optimum by enumerating every feasible interdiction.

    Uses the greedy LP for a single capacity, sharing no code path with the
    dual-candidate solver, and basic-point enumeration otherwise, whose
    square solves take the vertex walk's Laplace steps (linalg.cofactor_rows).
    Refuses, before enumerating anything, an instance with more than
    ``limit`` items or, for t >= 2, whose predicted basic points, 2^n times
    the sum over s of C(n, s) C(t, s) 2^(n - s) that vertex_lp_optimum
    enumerates per call, exceed ``LP_POINT_BUDGET``, or with t > 3.  The
    first least value in the order of ``_walk`` is kept.
    """
    _refuse_relaxed_work(inst, limit)
    best: Fraction | None = None
    best_bits: tuple[int, ...] | None = None

    def leaf(mask: int, _) -> None:
        nonlocal best, best_bits
        x = InterdictionVector.from_bits(_bits(mask, inst.n), inst.c)
        if inst.t == 1:
            value = fractional_knapsack(inst, x).value
        else:
            value = vertex_lp_optimum(inst, x, limit=limit).value
        if best is None or value < best:
            best, best_bits = value, x.bits

    _walk(inst, lambda row, i: row, None, leaf)
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
