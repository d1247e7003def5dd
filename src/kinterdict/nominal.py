"""Follower-side knapsack primitives.

These are the inner building blocks everything else reduces to: a 0-1
knapsack DP over an integer budget (with exact rational profits), the greedy
fractional knapsack for single-capacity instances, the exact integer packing
value of the survivors of an interdiction, and rounding a fractional vertex
down to an integer packing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .instance import FractionalPacking, Instance, InterdictionVector


class DimensionMismatchError(ValueError):
    pass


class StateLimitError(ValueError):
    """The capacity-product DP would exceed its configured state budget."""


@dataclass(frozen=True)
class KnapsackAnswer:
    value: Fraction | int
    chosen: tuple[int, ...]


def knapsack_max_budget(profits, costs, budget: int) -> KnapsackAnswer:
    """Maximise sum of profits over selections with sum of costs <= budget.

    Profits may be non-negative rationals or ints (the dual decomposition
    passes its reduced profits scaled to ints); costs and budget are
    non-negative ints.  The DP has
    O(n * budget) states.  When both keeping and selecting an item achieve
    the optimum, the item is selected.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    m = len(profits)
    if len(costs) != m:
        raise DimensionMismatchError("profits and costs must have equal length")
    if m == 0:
        return KnapsackAnswer(value=Fraction(0), chosen=())
    # Scale rational profits to integers by the lcm of their denominators so
    # the hot DP loop is pure int arithmetic.
    fracs = [Fraction(p) for p in profits]
    if any(p < 0 for p in fracs):
        raise ValueError("profits must be non-negative")
    scale = math.lcm(*(p.denominator for p in fracs)) if m else 1
    ip = [int(p * scale) for p in fracs]

    # rows[k][b] = best value over items k..m-1 with budget b
    rows = [[0] * (budget + 1) for _ in range(m + 1)]
    for k in range(m - 1, -1, -1):
        ci, pi = costs[k], ip[k]
        nxt = rows[k + 1]
        if ci > budget:
            rows[k] = nxt  # rows are never mutated; aliasing is safe
            continue
        row = nxt[:]
        row[ci:] = [
            tv if tv >= sv else sv
            for sv, tv in zip(nxt[ci:], (v + pi for v in nxt[: budget + 1 - ci]))
        ]
        rows[k] = row

    chosen = [0] * m
    cap = budget
    for k in range(m):
        ci, pi = costs[k], ip[k]
        if ci <= cap and pi + rows[k + 1][cap - ci] >= rows[k + 1][cap]:
            chosen[k] = 1
            cap -= ci
    return KnapsackAnswer(value=Fraction(rows[0][budget], scale), chosen=tuple(chosen))


@lru_cache(maxsize=8)
def _greedy_order(inst: Instance) -> tuple[int, ...]:
    # Cached for the oracles' loop over every interdiction of one instance;
    # the bound keeps a long-lived process from holding every instance seen.
    # Profit-bearing items only: zero-weight ones first (they cost nothing),
    # then by profit/weight ratio descending, ties broken by lower index.
    w = inst.W[0]
    free_riders = [i for i in range(inst.n) if inst.p[i] > 0 and w[i] == 0]
    weighted = [i for i in range(inst.n) if inst.p[i] > 0 and w[i] > 0]
    weighted.sort(key=lambda i: (-Fraction(inst.p[i], w[i]), i))
    return tuple(free_riders + weighted)


def fractional_knapsack(inst: Instance, x: InterdictionVector) -> FractionalPacking:
    """Exact LP packing optimum for t = 1 by the classic ratio greedy.

    At most one coordinate of the returned vertex is fractional.
    """
    if inst.t != 1:
        raise DimensionMismatchError(f"fractional_knapsack needs t=1, got t={inst.t}")
    w = inst.W[0]
    y: list[Fraction | int] = [0] * inst.n
    value: Fraction | int = 0
    frac_support: tuple[int, ...] = ()
    rem = inst.C[0]
    for i in _greedy_order(inst):
        if x.bits[i]:
            continue
        if w[i] == 0:
            y[i] = 1
            value += inst.p[i]
        elif rem >= w[i]:
            y[i] = 1
            value += inst.p[i]
            rem -= w[i]
        elif rem > 0:
            y[i] = Fraction(rem, w[i])
            value += inst.p[i] * y[i]
            frac_support = (i,)
            rem = 0
    return FractionalPacking(
        y=tuple(Fraction(v) for v in y),
        value=Fraction(value),
        frac_support=frac_support,
    )


def best_integer_packing(
    inst: Instance, x: InterdictionVector, state_limit: int = 10_000_000
) -> KnapsackAnswer:
    """Exact best integer packing of the items surviving interdiction x.

    t = 1 is ``knapsack_max_budget`` over the survivors, with weights as
    costs and the capacity as budget: O(n * C) states.  For t >= 2 the DP is
    over the full product of capacities.  Both are guarded by
    ``state_limit``; they exist as desk-scale ground truth, not as scalable
    solvers.
    """
    survivors = [i for i in range(inst.n) if not x.bits[i]]
    if inst.t == 1:
        return _packing_1d(inst, survivors, state_limit)
    return _packing_multi(inst, survivors, state_limit)


def _packing_1d(inst: Instance, survivors, state_limit: int) -> KnapsackAnswer:
    C = inst.C[0]
    if len(survivors) * (C + 1) > state_limit:
        raise StateLimitError(
            f"{len(survivors)} items x {C + 1} capacity states exceeds "
            f"limit {state_limit}"
        )
    w = inst.W[0]
    answer = knapsack_max_budget(
        [inst.p[i] for i in survivors], [w[i] for i in survivors], C
    )
    chosen = [0] * inst.n
    for i, bit in zip(survivors, answer.chosen):
        chosen[i] = bit
    return KnapsackAnswer(value=int(answer.value), chosen=tuple(chosen))


def _packing_multi(inst: Instance, survivors, state_limit: int) -> KnapsackAnswer:
    caps = inst.C
    t = inst.t
    sizes = [c + 1 for c in caps]
    n_states = math.prod(sizes)
    if len(survivors) * n_states > state_limit:
        raise StateLimitError(
            f"{len(survivors)} items x {n_states} capacity states exceeds "
            f"limit {state_limit}"
        )
    strides = [0] * t
    acc = 1
    for j in range(t - 1, -1, -1):
        strides[j] = acc
        acc *= sizes[j]

    def idx(coords) -> int:
        return sum(coords[j] * strides[j] for j in range(t))

    dp = [0] * n_states
    snaps = [dp[:]]
    for k in survivors:
        wv = inst.weight_of(k)
        pi = inst.p[k]
        if all(v == 0 for v in wv):
            if pi > 0:
                dp = [v + pi for v in dp]
        else:
            offset = idx(wv)
            # descending lexicographic order: the source state (coords - wv)
            # still holds the previous item's value when it is read
            for coords in product(
                *(range(caps[j], wv[j] - 1, -1) for j in range(t))
            ):
                i0 = idx(coords)
                cand = dp[i0 - offset] + pi
                if cand > dp[i0]:
                    dp[i0] = cand
        snaps.append(dp[:])

    chosen = [0] * inst.n
    coords = list(caps)
    for k in range(len(survivors) - 1, -1, -1):
        i = survivors[k]
        cur, prev = snaps[k + 1], snaps[k]
        at = idx(coords)
        if cur[at] != prev[at]:
            chosen[i] = 1
            wv = inst.weight_of(i)
            coords = [coords[j] - wv[j] for j in range(t)]
    return KnapsackAnswer(value=snaps[-1][idx(caps)], chosen=tuple(chosen))


def round_down_packing(fp: FractionalPacking, profits) -> KnapsackAnswer:
    """Zero out the fractional coordinates of an LP vertex.

    The result is a feasible integer packing whose value drops by exactly the
    fractional items' contribution, hence by at most their total profit.
    """
    chosen = tuple(1 if v == 1 else 0 for v in fp.y)
    dropped = sum(profits[i] * fp.y[i] for i in fp.frac_support)
    value = fp.value - dropped
    return KnapsackAnswer(
        value=int(value) if value.denominator == 1 else value, chosen=chosen
    )
