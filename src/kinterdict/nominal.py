"""Follower-side knapsack primitives.

These are the inner building blocks everything else reduces to: one 0-1
knapsack DP over an integer budget, kept as Pareto frontiers (the least
budget per kept-profit level), which serves the FPTAS's value test and
traceback, the exact dual scan and the t = 1 integer packing; the greedy
fractional knapsack for single-capacity instances; and the exact integer
packing value of the survivors of an interdiction.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import neg

from .instance import FractionalPacking, Instance, InterdictionVector


class DimensionMismatchError(ValueError):
    pass


class StateLimitError(ValueError):
    """The capacity-product DP would exceed its configured state budget."""


@dataclass(frozen=True)
class KnapsackAnswer:
    value: Fraction | int
    chosen: tuple[int, ...]


def budget_frontier(units, costs, budget: int, kmax, rows=None):
    """The Pareto frontier of the 0-1 knapsack over the items in the given
    order: lists ks and needs, where needs[i] is the least total cost of
    the removed items that keeps at most ks[i] units.

    A frontier holds pairs (k, need) with k rising and need strictly
    falling and at most the budget, so it has at most min(budget, kmax) + 1
    entries; its value at k is the need of the last pair at or before k,
    and above the budget before the first (Nemhauser and Ullmann 1969).
    An item with u units and cost c maps it to the lower envelope of the
    remove branch (k, need + c) and the keep branch (k + u, need), merged
    in one pass; a zero-unit item leaves it unchanged.  Units may be ints or
    Fractions, costs and budget are ints.  Keeping every item still to come
    from the first pair is feasible, so no pair above that target or above
    kmax can lead to the least one, and none is kept: each list is a
    prefix of the uncapped frontier.  An empty frontier means no target is
    feasible.  With ``rows`` a list, the frontier after each item is
    appended to it, starting with the empty selection; without, the loop
    stops at the first empty frontier.
    """
    ks, needs = ([0], [0]) if budget >= 0 else ([], [])
    if rows is not None:
        rows.append((ks, needs))
    rest = sum(units)
    for u, c in zip(units, costs):
        if u and ks:
            rest -= u
            cap = min(kmax, ks[0] + u + rest)
            i = bisect_left(needs, c - budget, key=neg)  # first need + c <= budget
            iend = bisect_right(ks, cap)
            j, jend = 0, bisect_right(ks, cap - u)
            nk, nn = [], []
            last = budget + 1
            while i < iend and j < jend:
                k, kb = ks[i], ks[j] + u
                if k <= kb:
                    v = needs[i] + c
                    i += 1
                    if k == kb:
                        if needs[j] < v:
                            v = needs[j]
                        j += 1
                else:
                    k, v = kb, needs[j]
                    j += 1
                if v < last:
                    nk.append(k)
                    nn.append(v)
                    last = v
            for i in range(i, iend):
                v = needs[i] + c
                if v < last:
                    nk.append(ks[i])
                    nn.append(v)
                    last = v
            for j in range(j, jend):
                if needs[j] < last:
                    nk.append(ks[j] + u)
                    nn.append(needs[j])
                    last = needs[j]
            ks, needs = nk, nn
        if rows is not None:
            rows.append((ks, needs))
        elif not ks:
            break
    return ks, needs


def least_units_within(units, costs, budget: int, kmax: int) -> int | None:
    """Least k <= kmax such that removing items of total cost at most the
    budget keeps at most k units, or None when there is none.

    The FPTAS's acceptance test for one candidate.  It is the first pair of
    the budget frontier, which does not depend on the item order; items go
    in decreasing-unit order, and no row is stored.
    """
    items = sorted(zip(units, costs), reverse=True)
    units, costs = zip(*items) if items else ((), ())
    ks, _ = budget_frontier(units, costs, budget, kmax)
    return ks[0] if ks else None


def knapsack_max_budget(profits, costs, budget: int) -> KnapsackAnswer:
    """Maximise sum of profits over selections with sum of costs <= budget.

    Profits are non-negative ints or Fractions; costs and budget are
    non-negative ints.  The selected profit is the total minus the least
    kept profit of the budget frontier, built over the items in reverse
    index order with row r covering items r..n-1, so a row has at most
    budget + 1 entries.  The choices are traced forward from the full
    budget b: best_r(b) is the total of row r minus the kept profit of the
    first pair whose need is at most b.  When both keeping and selecting
    an item achieve the optimum, the item is selected.  A pair the cap
    dropped lies on a branch that strictly loses, so reading it as absent
    keeps every choice of the uncapped DP.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    m = len(profits)
    if len(costs) != m:
        raise DimensionMismatchError("profits and costs must have equal length")
    if any(p < 0 for p in profits):
        raise ValueError("profits must be non-negative")
    total = sum(profits)
    rows: list = []
    ks, _ = budget_frontier(profits[::-1], costs[::-1], budget, total, rows)
    rows.reverse()

    chosen = [0] * m
    cap = budget
    for r in range(m):
        nks, needs = rows[r + 1]
        sel = bisect_left(needs, costs[r] - cap, key=neg)  # need <= cap - c
        keep = bisect_left(needs, -cap, key=neg)  # first need <= cap
        # p + best(cap - c) >= best(cap), in kept profit
        if sel < len(nks) and nks[sel] <= nks[keep] + profits[r]:
            chosen[r] = 1
            cap -= costs[r]
    return KnapsackAnswer(value=total - ks[0], chosen=tuple(chosen))


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
    costs and the capacity as budget: at most n * (C + 1) frontier pairs.
    For t >= 2 the DP is over the full product of capacities.  Both are
    guarded by their nominal state counts against ``state_limit``; they
    exist as desk-scale ground truth, not as scalable solvers.
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
    return KnapsackAnswer(value=answer.value, chosen=tuple(chosen))


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
