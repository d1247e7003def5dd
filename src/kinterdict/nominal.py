"""Follower-side knapsack primitives.

These are the inner building blocks everything else reduces to: one 0-1
knapsack DP over an integer budget, kept as Pareto frontiers (the least
budget per kept-profit level), which serves the FPTAS's value test and
traceback and the exact dual scan; and the greedy fractional knapsack for
single-capacity instances, the brute-force oracle's: the solver's F(x) is
the dual scan for every t, so the greedy checks it independently.

A value-only run (``least_units_within``) takes the items in decreasing
units/cost order and first brackets its answer: the greedy removal keeps
an achievable number of units, and the LP relaxation (Dantzig 1957) bounds
the least from below.  It ends there when the two meet.  Otherwise it
fixes each item that the LP bound shows every selection within the greedy
removes, or keeps, and the DP runs on the items left free, its rows capped
at the greedy's units (or kmax, when lower) less the units fixed kept.
The LP bound alone (``lp_least_units``), which the dual candidate set's
Dantzig bound reads once per candidate for both solvers' screens, sorts
the items' bare ratio keys and builds no tuple: its value does not depend
on how equal ratios are ordered.  Items already sorted (an
``lp_relaxation``) give it with no sort (``relaxed_least_units``), and so
do the greedy's kept units and the value-only run, which take a caller's
relaxation, and the traceback, whose caller always passes the one it
built.
Every frontier run, value-only or stored, has one budget of pairs built
(FRONTIER_PAIR_LIMIT).

A traceback first fixes items by the same LP test, with a target at least
the least as ub (``trace_unfixed``).  It stores the frontier of every
suffix of the items left free only, under a budget of pairs and capped at
their share of the target (``suffix_frontiers``), and walks them forward
from a budget, selecting each item that does at least as well selected as
kept (``select_on_ties``): from the whole budget less the fixed removed
costs for the exact knapsack, and from the least need of the free items'
least target for the FPTAS.  The FPTAS knows the least target from its
value-only run, and the least fixes the most items; the exact knapsack
runs no value-only run: its target is the greedy's kept units, and its
value is the profit of the selection it traces.  A row capped at a target at
least the least holds every pair the walk reads, so the bits are those of
the walk over all the items and their uncapped rows.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import neg

from .instance import FractionalPacking, Instance, InterdictionVector


class DimensionMismatchError(ValueError):
    pass


class StateLimitError(ValueError):
    """A DP would exceed its state budget."""


# The budget of frontier pairs one budget_frontier run may build, stored
# rows or a value-only run's: about 470 MB when every row is stored.
FRONTIER_PAIR_LIMIT = 10_000_000


@dataclass(frozen=True)
class KnapsackAnswer:
    value: int
    chosen: tuple[int, ...]


def budget_frontier(units, costs, budget: int, kmax, rows=None):
    """The Pareto frontier of the 0-1 knapsack over the items in the given
    order: lists ks and needs, where needs[i] is the least total cost of
    the removed items that keeps at most ks[i] units.

    A frontier holds the pairs (k, need) with k rising, need strictly
    falling, k at most kmax and need at most the budget, so it has at most
    min(budget, kmax) + 1 entries; its value at k is the need of the last
    pair at or before k, and above the budget before the first (Nemhauser
    and Ullmann 1969).  An item with u units and cost c maps it to the
    lower envelope of the remove branch (k, need + c) and the keep branch
    (k + u, need), merged in one pass; a zero-unit item leaves it
    unchanged.  Units, costs, budget and kmax are ints.  An empty frontier
    means no target is feasible; a negative budget or kmax starts with one.
    StateLimitError is raised before a row is built whose merge could take
    the pairs built past FRONTIER_PAIR_LIMIT: a merge yields at most the
    pairs it reads from both branches.  With ``rows`` a list, the frontier after each item is
    appended to it, starting with the empty selection; a zero-unit item's
    row is the one before it, lists shared, and builds nothing.  Without
    ``rows``, the loop stops at the first empty frontier.
    """
    ks, needs = ([0], [0]) if budget >= 0 and kmax >= 0 else ([], [])
    made = len(ks)
    if rows is not None:
        rows.append((ks, needs))
    for u, c in zip(units, costs):
        if u and ks:
            # removed: the pairs from the first with need + c <= budget;
            # kept: those with k + u <= kmax
            i, iend = bisect_left(needs, c - budget, key=neg), len(ks)
            j, jend = 0, bisect_right(ks, kmax - u)
            if made + iend - i + jend > FRONTIER_PAIR_LIMIT:
                raise StateLimitError(
                    f"knapsack frontiers exceed {FRONTIER_PAIR_LIMIT} pairs"
                )
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
                    last = v
                    nk.append(k)
                    nn.append(v)
            # the rest of the one branch left: removed, or kept
            x, xend, du, dc = (i, iend, 0, c) if i < iend else (j, jend, u, 0)
            for x in range(x, xend):
                v = needs[x] + dc
                if v < last:
                    last = v
                    nk.append(ks[x] + du)
                    nn.append(v)
            ks, needs = nk, nn
            made += len(ks)
        if rows is not None:
            rows.append((ks, needs))
        elif not ks:
            break
    return ks, needs


def suffix_frontiers(gains, costs, budget: int, kmax) -> list:
    """The budget frontier of every suffix of the items: rows[r] covers
    items r..n-1 and rows[n] is the empty selection.

    Built in reverse index order by ``budget_frontier``, so rows[r] holds
    exactly the Pareto pairs of items r..n-1 with k at most kmax and need
    at most the budget: the breakpoints of row r of the dense min-budget
    table whose need is within the budget.  The pairs built are bounded by
    FRONTIER_PAIR_LIMIT.
    """
    rows: list = []
    budget_frontier(gains[::-1], costs[::-1], budget, kmax, rows)
    rows.reverse()
    return rows


def select_on_ties(rows, gains, costs, cap: int) -> tuple[int, ...]:
    """The selection read back from suffix frontiers, starting from budget
    cap: item r is selected when the least kept gain of the items after it
    within cap - c_r is at most g_r plus their least kept gain within cap,
    that is, when selecting it is at least as good as keeping it.

    The least kept gain within a budget b is the k of the first pair whose
    need is at most b.  The rows hold the frontier's pairs up to their
    kmax (``suffix_frontiers``).  When the least kept gain within cap is at
    most kmax, so is the branch taken at each item along the walk, and
    its pair is in the row; a pair beyond kmax lies on a branch that
    strictly loses, and reads as absent.
    """
    chosen = [0] * len(gains)
    for r, (g, c) in enumerate(zip(gains, costs)):
        ks, needs = rows[r + 1]
        sel = bisect_left(needs, c - cap, key=neg)  # first need <= cap - c
        keep = bisect_left(needs, -cap, key=neg)  # first need <= cap
        if sel < len(ks) and ks[sel] <= ks[keep] + g:
            chosen[r] = 1
            cap -= c
    return tuple(chosen)


def _sorted_items(units, costs, budget: int):
    """(kept, items) for the items of a budget knapsack: kept is the units
    of the items costing more than the budget, which every selection keeps;
    items are (key, u, c, i) for the others with units and a cost, i the
    item's index, in decreasing units/cost order.  Zero-cost items, which
    every selection removes, are left out."""
    # two ratios of costs at most the budget differ by at least
    # 1 / budget**2, so u * budget**2 // c orders u / c exactly; equal
    # ratios go larger item first
    kept, items, square = 0, [], budget * budget
    for i, (u, c) in enumerate(zip(units, costs)):
        if c > budget:
            kept += u
        elif u and c:
            items.append((u * square // c, u, c, i))
    items.sort(reverse=True)
    return kept, items


def lp_relaxation(units, costs, budget: int):
    """(kept, items, us, cs, pcs, sus, split): ``_sorted_items``; the
    sorted items' units us and costs cs, each with a zero-unit item of cost
    1 appended; their prefix costs pcs, whose last entry is raised above
    every prefix cost a budget left can reach; their suffix units sus; and
    the LP's split item.  The LP removes the items before split whole and a
    fraction of it (Dantzig 1957); when every item fits, split is the
    appended item."""
    kept, items = _sorted_items(units, costs, budget)
    us = [*(u for _, u, _, _ in items), 0]
    cs = [*(c for _, _, c, _ in items), 1]
    pcs = [0, *accumulate(cs)]
    pcs[-1] += budget
    total = sum(us)
    sus = [total - x for x in accumulate(us, initial=0)]
    sus.pop()
    return kept, items, us, cs, pcs, sus, bisect_right(pcs, budget) - 1


def _fixed(us, cs, pcs, sus, split, budget: int, ub):
    """(fix, left, fixed, free_units, free_costs) for items in decreasing
    units/cost order with the lists of their ``lp_relaxation``, and a bound
    ub on the units they keep within the budget.

    fix[j] is 1 when the LP bound shows that every selection within the
    budget that keeps at most ub units removes item j, 0 when every one
    keeps it, and None when it is left free (Ingargiola and Korsh 1973).
    left is the budget less the costs of the items fixed removed, fixed
    the units of those fixed kept, and free_units and free_costs are the
    free items', in order.

    The LP removes each item before split and keeps each one after it, so
    only the other branch can exceed ub.  An item j kept leaves its cost to
    the items after it, which the LP then reaches as if the budget were
    budget + c; an item removed leaves budget - c, and the LP's new split t
    lies before it.
    """
    fix, left, fixed, free_units, free_costs = [], budget, 0, [], []
    for j in range(len(us) - 1):
        u, c = us[j], cs[j]
        if j <= split:
            pos = budget + c
            t = bisect_right(pcs, pos) - 1
            if (u + sus[t] - ub) * cs[t] > (pos - pcs[t]) * us[t]:
                fix.append(1)
                left -= c
                continue
        if j >= split:
            pos = budget - c
            t = bisect_right(pcs, pos) - 1
            if (sus[t] - u - ub) * cs[t] > (pos - pcs[t]) * us[t]:
                fix.append(0)
                fixed += u
                continue
        fix.append(None)
        free_units.append(u)
        free_costs.append(c)
    return fix, left, fixed, free_units, free_costs


def _greedy(relaxation, budget: int) -> int:
    """The units that the greedy removal keeps of the sorted items of an
    ``lp_relaxation``, those costing more than the budget left out: the LP
    removes the items before split whole, and the greedy removes them too,
    then every later item that still fits."""
    _, _, us, cs, pcs, sus, split = relaxation
    rem, greedy = budget - pcs[split], sus[split]
    for u, c in zip(us[split:], cs[split:]):
        if c <= rem:
            rem -= c
            greedy -= u
    return greedy


def relaxed_least_units(relaxation, budget: int) -> int:
    """``lp_least_units`` of the items of an ``lp_relaxation``, read off
    its split item with no sort: the units every selection keeps, plus the
    ceiling of the units the LP keeps of the sorted items."""
    kept, _, us, cs, pcs, sus, split = relaxation
    return kept + sus[split] - us[split] * (budget - pcs[split]) // cs[split]


def least_units_within(
    units, costs, budget: int, kmax: int, relaxation=None
) -> int | None:
    """Least k <= kmax such that removing items of total cost at most the
    budget keeps at most k units, or None when there is none.

    The FPTAS's acceptance test for one candidate; units, costs and budget
    are ints.  The answer does not depend on the item order.  Items costing
    more than the budget are always kept and zero-cost ones always removed,
    so neither enters the DP.  The others are sorted by units/cost, exactly
    in ints.  The greedy removal in that order keeps ``greedy`` units, so a
    target within kmax is at most ub = min(kmax, greedy); the LP relaxation
    bounds every target from below (Dantzig 1957).  When the LP bound
    exceeds ub no target is within kmax; when its ceiling is the greedy's,
    the greedy is least.

    Otherwise each item that the LP bound shows every selection within ub
    removes, or keeps, is fixed (``_fixed``).  ``budget_frontier`` then
    runs on the items left free, with the budget less the fixed removed
    costs and kmax = ub less the fixed kept units.  It stores no row, and
    its first pair plus the fixed units is the answer.  ``relaxation`` is
    the items' ``lp_relaxation`` when the caller keeps it, and is built
    when omitted.
    """
    if kmax < 0 or budget < 0:
        return None
    if relaxation is None:
        relaxation = lp_relaxation(units, costs, budget)
    kept, _, us, cs, pcs, sus, split = relaxation
    greedy = _greedy(relaxation, budget)
    ub = min(kmax - kept, greedy)
    lower = relaxed_least_units(relaxation, budget) - kept
    if lower > ub:
        return None
    if lower == greedy:
        return kept + greedy
    _, left, fixed, free_us, free_cs = _fixed(us, cs, pcs, sus, split, budget, ub)
    ks, _ = budget_frontier(free_us, free_cs, left, ub - fixed)
    return kept + fixed + ks[0] if ks else None


def lp_least_units(units, costs, budget: int) -> int:
    """The ceiling of the least units the LP relaxation keeps within the
    budget (Dantzig 1957): a lower bound on the units kept by every
    removal of total cost at most the budget.  Units, costs and budget are
    non-negative ints.

    Only the items with units and a cost at most the budget are sorted,
    by their bare keys u * budget**2 // c (``_sorted_items``'s), with no
    tuple built: the LP value does not depend on how equal ratios are
    ordered."""
    kept, us, cs, keys, square = 0, [], [], [], budget * budget
    for u, c in zip(units, costs):
        if c > budget:
            kept += u
        elif u and c:
            us.append(u)
            cs.append(c)
            keys.append(u * square // c)
    rem, rest = budget, sum(us)
    # the LP removes the items in order while they fit, then the fraction
    # rem / c of the next one
    for j in sorted(range(len(keys)), key=keys.__getitem__, reverse=True):
        u, c = us[j], cs[j]
        if c > rem:
            return kept + rest - u * rem // c
        rem -= c
        rest -= u
    return kept + rest


def greedy_kept_units(units, costs, budget: int, *, relaxation=None) -> int:
    """The units kept by the greedy removal in decreasing units/cost order
    (``least_units_within``'s): zero-cost items removed, items costing more
    than the budget kept, and each other item removed when it still fits.
    Its removal is within the budget, so it bounds the least units kept
    from above.  Units, costs and budget are non-negative ints; the items'
    ``lp_relaxation`` is built when not given."""
    if relaxation is None:
        relaxation = lp_relaxation(units, costs, budget)
    return relaxation[0] + _greedy(relaxation, budget)


def trace_unfixed(units, costs, budget: int, target: int, trace, relaxation):
    """The bits that a walk over the suffix frontiers of all the items
    gives, traced over the items the LP bound leaves free only.

    target is at least the least number of units kept within the budget:
    the least itself for the FPTAS, the greedy's kept units for the exact
    knapsack.  ``trace(units, costs, left, rest)`` walks the items left
    free, in index order, zero-unit ones included, and returns their bits:
    left is the budget less the costs of the items fixed removed, and rest
    the target less the units of those fixed kept.  Zero-cost items are
    selected and items costing more than the budget kept, as every walk
    does; the LP bound (``_fixed``, on the items' ``lp_relaxation``, which
    the caller built for its target) fixes the others with ub = target
    less the units kept.

    Every selection within the budget that keeps at most target units
    removes each fixed-removed item and keeps each fixed-kept one, and the
    walk's selection keeps the least.  So at a free item of the walk, a
    branch that can still keep at most target units keeps, over the items
    after it, the free items' least units within its budget less the
    fixed-removed costs after it, plus the fixed-kept units after it; a
    branch that cannot stays above the target on the free items too, and
    the other branch, on the walk's own path, keeps the least.  Each free
    item's tie test falls the same way, and each fixed item's bit is the
    one its only winning branch gives.
    """
    kept, items, us, cs, pcs, sus, split = relaxation
    bits = [1 if c == 0 else 0 if c > budget else None for c in costs]
    ub = target - kept
    fix, left, fixed, _, _ = _fixed(us, cs, pcs, sus, split, budget, ub)
    for (_, _, _, i), bit in zip(items, fix):
        bits[i] = bit
    free = [i for i, bit in enumerate(bits) if bit is None]
    free_units, free_costs = [units[i] for i in free], [costs[i] for i in free]
    for i, bit in zip(free, trace(free_units, free_costs, left, ub - fixed)):
        bits[i] = bit
    return tuple(bits)


def knapsack_max_budget(
    profits, costs, budget: int, *, relaxation=None
) -> KnapsackAnswer:
    """Maximise sum of profits over selections with sum of costs <= budget.

    Profits, costs and budget are non-negative ints.  The items are sorted
    once (``lp_relaxation``), and the greedy removal in that order keeps an
    achievable profit, the target: with it as ub the LP bound fixes items
    (``trace_unfixed``), and one run stores the rows for the traceback
    (``suffix_frontiers``) over the items left free only, capped at the
    target less the fixed kept profit.  The choices are traced forward from
    the budget less the fixed removed costs by ``select_on_ties``: when
    both keeping and selecting an item achieve the optimum, the item is
    selected.  Each capped row is a prefix of the uncapped one, and no
    suffix on the optimal walk keeps more than the least kept profit, at
    most the target, so every pair the walk reads, or that would decide
    it, is in the prefix: the choices are those of the uncapped rows over
    all the items, an optimal selection, and the value is its profit.
    ``relaxation`` is the items' ``lp_relaxation`` when the caller has it
    (the origin's, from ``dual.prepare``), and is built when omitted.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if len(costs) != len(profits):
        raise DimensionMismatchError("profits and costs must have equal length")
    if any(p < 0 for p in profits):
        raise ValueError("profits must be non-negative")
    if relaxation is None:
        relaxation = lp_relaxation(profits, costs, budget)
    target = greedy_kept_units(profits, costs, budget, relaxation=relaxation)

    def trace(gains, costs, left, rest):
        rows = suffix_frontiers(gains, costs, left, rest)
        return select_on_ties(rows, gains, costs, left)

    chosen = trace_unfixed(profits, costs, budget, target, trace, relaxation)
    value = sum(p for p, bit in zip(profits, chosen) if bit)
    return KnapsackAnswer(value=value, chosen=chosen)


@lru_cache(maxsize=8)
def _greedy_order(inst: Instance) -> tuple[int, ...]:
    # The oracle greedy's order, cached for its loop over every interdiction;
    # the bound keeps a long-lived process from holding every instance seen.
    # Profit-bearing items only: zero-weight ones first (they cost nothing),
    # then by profit/weight ratio descending, ties broken by lower index.
    # Two ratios of weights at most m differ by at least 1 / m**2, so
    # p * m**2 // w orders p / w exactly, and the stable sort keeps the
    # index order on ties.
    p, w = inst.p, inst.W[0]
    free_riders = [i for i in range(inst.n) if p[i] > 0 and w[i] == 0]
    weighted = [i for i in range(inst.n) if p[i] > 0 and w[i] > 0]
    square = max(w, default=0) ** 2
    weighted.sort(key=lambda i: -(p[i] * square // w[i]))
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
        if rem >= w[i]:
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
