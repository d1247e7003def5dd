from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kinterdict import nominal
from kinterdict.fptas import CandidateEval, candidate_bits, min_budget_table
from kinterdict.generator import SplitMix64
from kinterdict.instance import Instance, InterdictionVector
from kinterdict.nominal import (
    DimensionMismatchError,
    StateLimitError,
    budget_frontier,
    fractional_knapsack,
    knapsack_max_budget,
    least_units_within,
    select_on_ties,
    suffix_frontiers,
)
from kinterdict.oracles import best_integer_packing, vertex_lp_optimum

from conftest import (
    T1,
    T2,
    all_interdictions,
    dense_knapsack_max_budget,
    dense_min_budget_table,
    edge_family,
    min_units_within,
    round_down_packing,
)


def xvec(inst, bits):
    return InterdictionVector.from_bits(bits, inst.c)


# knapsack_max_budget

def test_budget_knapsack_t1_reduced_profits():
    # reduced profits of T1 at the unit dual multiplier
    ans = knapsack_max_budget([1, 0], [1, 1], 1)
    assert ans.value == 1
    assert ans.chosen == (1, 0)


def test_budget_knapsack_zero_budget_only_free_items():
    ans = knapsack_max_budget([5, 7], [0, 3], 0)
    assert ans.value == 5
    assert ans.chosen == (1, 0)


def test_budget_knapsack_all_zero_profits():
    ans = knapsack_max_budget([0] * 3, [1, 1, 1], 2)
    assert ans.value == 0


def test_budget_knapsack_prefers_selecting_on_ties():
    # both branches reach the optimum; the item must be selected
    ans = knapsack_max_budget([2, 2], [1, 1], 1)
    assert ans.chosen == (1, 0)


def test_budget_knapsack_exact_by_enumeration():
    rng = SplitMix64(5)
    from itertools import product

    for _ in range(60):
        m = rng.uniform(0, 7)
        profits = [rng.uniform(0, 30) for _ in range(m)]
        costs = [rng.uniform(0, 6) for _ in range(m)]
        budget = rng.uniform(0, 15)
        ans = knapsack_max_budget(profits, costs, budget)
        best = max(
            sum(p for p, b in zip(profits, bits) if b)
            for bits in product((0, 1), repeat=m)
            if sum(c for c, b in zip(costs, bits) if b) <= budget
        )
        assert ans.value == best
        assert sum(c for c, b in zip(costs, ans.chosen) if b) <= budget
        assert sum(p for p, b in zip(profits, ans.chosen) if b) == ans.value


# profits: small ints with many ties, ints beyond 2**64, or ints up to 9
# times lcm(1..7) = 420, as the reduced profits of a dual point are
_profit = st.one_of(
    st.integers(0, 6),
    st.integers(2**64, 2**64 + 6),
    st.integers(0, 9 * 420),
)


@settings(max_examples=600, deadline=None)
@given(
    st.lists(st.tuples(_profit, st.integers(0, 14)), max_size=8),
    st.integers(0, 12),
)
@example(items=[(2, 1), (2, 1), (0, 0)], budget=1)
@example(items=[(0, 0), (0, 3), (5, 13)], budget=12)
@example(items=[(1, 1), (2, 2), (3, 3)], budget=3)
@example(items=[(2**64, 2), (2**64 + 1, 3), (1, 1)], budget=4)
def test_budget_knapsack_matches_dense_reference(items, budget):
    # ties, zero profits and zero costs, costs above the budget and values
    # beyond 2**64: the frontier DP gives the dense table's value and its
    # select-on-ties choices
    profits = [p for p, _ in items]
    costs = [c for _, c in items]
    ans = knapsack_max_budget(profits, costs, budget)
    ref = dense_knapsack_max_budget(profits, costs, budget)
    assert (ans.value, ans.chosen) == (ref.value, ref.chosen)


# the value DP bounded by the greedy and the LP relaxation

# costs and budgets: small with many ties and zero costs, or beyond 2**64;
# units: up to 40, or beyond 2**64 and so above every kmax drawn
_cost = st.one_of(st.integers(0, 12), st.integers(2**64, 2**64 + 40))
_budget = st.one_of(st.integers(0, 60), st.integers(2**64, 2**64 + 80))
_units = st.one_of(st.integers(0, 40), st.integers(2**64, 2**64 + 3))


@settings(max_examples=500, deadline=None)
@given(
    st.lists(st.tuples(_units, _cost), max_size=16),
    _budget,
    st.integers(-3, 700),
    st.randoms(use_true_random=False),
)
# the greedy meets the LP bound's ceiling, so the DP never runs
@example(items=[(3, 2), (4, 3), (2, 2)], budget=4, kmax=10, rnd=None)
# the greedy keeps 4 and the LP bound is 14/5, whose ceiling 3 is least
@example(items=[(3, 5), (1, 5), (2, 3)], budget=5, kmax=30, rnd=None)
# the greedy keeps 2 and the LP bound is 1: every pair that leads to the
# answer 2 has its bound equal to ub = 2
@example(items=[(2, 1), (2, 2)], budget=2, kmax=9, rnd=None)
# items of equal units/cost
@example(items=[(2, 2), (2, 2), (3, 3)], budget=4, kmax=10, rnd=None)
# (8, 1) is fixed removed and (2, 2) fixed kept, so no item is left free
@example(items=[(8, 1), (2, 2)], budget=2, kmax=7, rnd=None)
# with (5, 3) removed the LP bound is 5 = ub, so it is not fixed kept
@example(items=[(5, 3), (1, 2), (4, 1)], budget=3, kmax=60, rnd=None)
# both items are fixed removed, at a total cost above the budget
@example(items=[(2, 2), (5, 1)], budget=2, kmax=1, rnd=None)
# the items fixed kept hold more units than kmax leaves
@example(items=[(2, 2), (8, 1), (7, 2), (1, 2), (2, 2)], budget=2, kmax=11, rnd=None)
# every item costs more than the budget, and they keep more than kmax
@example(items=[(5, 9), (6, 9)], budget=4, kmax=11, rnd=None)
@example(items=[(5, 9), (6, 9)], budget=4, kmax=10, rnd=None)
def test_bounded_least_units_within_matches_dense_table(items, budget, kmax, rnd):
    units = [u for u, _ in items]
    costs = [c for _, c in items]
    least = min_units_within(dense_min_budget_table(units, costs, kmax), budget)
    assert least_units_within(units, costs, budget, kmax) == least
    # the answer does not depend on the item order
    if rnd is not None:
        rnd.shuffle(items)
        units = [u for u, _ in items]
        costs = [c for _, c in items]
        assert least_units_within(units, costs, budget, kmax) == least


_profit14 = st.one_of(
    st.integers(0, 40),
    st.integers(2**64, 2**64 + 40),
    st.integers(0, 9 * 420),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_profit14, st.integers(0, 14)), max_size=14), st.integers(0, 60))
@example(items=[(9, 2), (8, 3), (6, 2)], budget=4)
@example(items=[(2, 2), (2, 2), (3, 3)], budget=4)
def test_bounded_knapsack_max_budget_matches_dense_reference(items, budget):
    # the value from the bounded DP, and rows capped at the least kept
    # profit: the dense table's value and select-on-ties choices
    profits = [p for p, _ in items]
    costs = [c for _, c in items]
    ans = knapsack_max_budget(profits, costs, budget)
    ref = dense_knapsack_max_budget(profits, costs, budget)
    assert (ans.value, ans.chosen) == (ref.value, ref.chosen)


# tracebacks over the items the LP bound leaves free

# items of units/cost 2/3, so that many ratios are equal
_equal_ratio = st.integers(1, 6).map(lambda m: (2 * m, 3 * m))


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.one_of(st.tuples(_units, _cost), _equal_ratio), max_size=14),
    _budget,
    st.integers(0, 700),
)
# zero units, zero costs and a cost above the budget, all in one instance
@example(items=[(0, 3), (4, 0), (0, 0), (5, 13), (3, 2), (2, 3)], budget=4, kmax=20)
# every item is fixed: item 0 kept, the other two removed
@example(items=[(2, 5), (8, 1), (7, 2)], budget=3, kmax=30)
# equal ratios, the greedy short of the budget
@example(items=[(2, 3), (4, 6), (6, 9), (2, 3)], budget=10, kmax=40)
def test_traces_over_the_free_items_match_the_full_tracebacks(items, budget, kmax):
    # candidate_bits and knapsack_max_budget store rows over the items the
    # LP bound leaves free only; their bits are those of the walks over all
    # the items, and of the dense tables
    units = [u for u, _ in items]
    costs = [c for _, c in items]
    k = least_units_within(units, costs, budget, kmax)
    if k is not None:
        full = min_budget_table(units, costs, budget, k).traceback(k)
        inst = Instance(
            n=len(units), t=1, p=tuple(units), c=tuple(costs),
            W=((1,) * len(units),), B=budget, C=(1,),
        )
        ev = CandidateEval(value=None, k=k, units=units, alpha=(1, (0,)))
        assert candidate_bits(inst, ev) == full
        assert dense_min_budget_table(units, costs, k).traceback(k) == full
    ans = knapsack_max_budget(units, costs, budget)
    least = sum(units) - ans.value
    rows = suffix_frontiers(units, costs, budget, least)
    assert ans.chosen == select_on_ties(rows, units, costs, budget)
    if budget <= 60:
        ref = dense_knapsack_max_budget(units, costs, budget)
        assert (ans.value, ans.chosen) == (ref.value, ref.chosen)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(_units, _cost), max_size=10), _budget, st.integers(0, 120))
# item 0 costs more than the budget, so row 0 starts at its least target
# 3, and it still holds the pairs above it up to kmax
@example(items=[(3, 5), (2, 1), (4, 1)], budget=2, kmax=9)
def test_suffix_frontier_rows_are_the_dense_breakpoints_within_the_budget(
    items, budget, kmax
):
    # select_on_ties reads each row as the whole frontier up to kmax: the
    # dense row's breakpoints, k = 0 and every k whose need falls, whose
    # need is within the budget
    units = [u for u, _ in items]
    costs = [c for _, c in items]
    rows = suffix_frontiers(units, costs, budget, kmax)
    dense = dense_min_budget_table(units, costs, kmax).rows
    assert len(rows) == len(dense)
    for (ks, needs), row in zip(rows, dense):
        assert list(zip(ks, needs)) == [
            (k, need)
            for k, need in enumerate(row)
            if need <= budget and (k == 0 or need < row[k - 1])
        ]


# fractional_knapsack

def test_fractional_t1_cases():
    fp = fractional_knapsack(T1, xvec(T1, (1, 0)))
    assert fp.value == 2 and fp.y == (Fraction(0), Fraction(1))
    fp = fractional_knapsack(T1, xvec(T1, (0, 0)))
    assert fp.value == 3 and fp.y == (Fraction(1), Fraction(0))
    fp = fractional_knapsack(T1, xvec(T1, (1, 1)))
    assert fp.value == 0 and fp.frac_support == ()


def test_fractional_requires_single_capacity():
    with pytest.raises(DimensionMismatchError):
        fractional_knapsack(T2, xvec(T2, (0, 0)))


def test_fractional_zero_weight_items_packed_first():
    inst = Instance(n=2, t=1, p=(5, 3), c=(1, 1), W=((0, 2),), B=0, C=(1,))
    fp = fractional_knapsack(inst, xvec(inst, (0, 0)))
    assert fp.y == (Fraction(1), Fraction(1, 2))
    assert fp.value == 5 + Fraction(3, 2)
    assert fp.frac_support == (1,)


def test_fractional_matches_vertex_enumeration():
    for inst in edge_family(seed=31, count=25, n_hi=6):
        for x in all_interdictions(inst):
            fp = fractional_knapsack(inst, x)
            assert len(fp.frac_support) <= 1
            assert fp.value == vertex_lp_optimum(inst, x).value
            # packing feasibility
            assert sum(w * y for w, y in zip(inst.W[0], fp.y)) <= inst.C[0]
            assert all(y == 0 for y, b in zip(fp.y, x.bits) if b)


# best_integer_packing

def test_integer_packing_t1_cases():
    assert best_integer_packing(T1, xvec(T1, (1, 0))) == 2
    assert best_integer_packing(T1, xvec(T1, (0, 0))) == 3
    assert best_integer_packing(T1, xvec(T1, (1, 1))) == 0


def test_integer_packing_t2_cases():
    assert best_integer_packing(T2, xvec(T2, (0, 0))) == 4
    assert best_integer_packing(T2, xvec(T2, (1, 0))) == 3


def test_integer_packing_matches_enumeration():
    from itertools import product

    for inst in edge_family(seed=77, count=20, n_hi=6, t=2, vmax=5):
        for x in all_interdictions(inst):
            ans = best_integer_packing(inst, x)
            best = 0
            for y in product((0, 1), repeat=inst.n):
                if any(b and yb for b, yb in zip(x.bits, y)):
                    continue
                if all(
                    sum(inst.W[j][i] * y[i] for i in range(inst.n)) <= inst.C[j]
                    for j in range(inst.t)
                ):
                    best = max(best, sum(p * yb for p, yb in zip(inst.p, y)))
            assert ans == best


def test_integer_packing_state_limit():
    inst = Instance(
        n=3, t=2, p=(1, 1, 1), c=(1, 1, 1),
        W=((100, 100, 100), (100, 100, 100)), B=1, C=(1000, 1000),
    )
    with pytest.raises(StateLimitError):
        best_integer_packing(inst, xvec(inst, (0, 0, 0)), state_limit=100)


def test_value_only_run_counts_its_pairs_against_the_budget(monkeypatch):
    # units = costs = 2^(n-i) and an odd budget: the greedy removal misses
    # the best one, so the bracket does not close at the root and the
    # frontier DP runs; it stores no row, but its pairs count all the same
    n = 12
    units = [2 ** (n - i) for i in range(n)]
    budget = 2 ** (n - 1) + 2 ** (n - 3) + 1
    total = sum(units)
    assert least_units_within(units, units, budget, total) == total - budget + 1
    monkeypatch.setattr(nominal, "FRONTIER_PAIR_LIMIT", 8)
    with pytest.raises(StateLimitError, match="knapsack frontiers exceed 8 pairs"):
        least_units_within(units, units, budget, total)


def test_stored_frontiers_never_exceed_the_pair_budget(monkeypatch):
    # units = costs = 2^i: every subset has its own cost, so the frontier
    # of the first k items holds up to 2^k pairs and the rows double;
    # zero-unit items share the row before them and store nothing
    n = 10
    units = [2**i for i in range(n)]
    units[3:3] = [0, 0]
    budget = (2**n - 1) // 2

    def stored(rows):
        return sum({id(ks): len(ks) for ks, _ in rows}.values())

    full: list = []
    budget_frontier(units, units, budget, sum(units), full)
    need = stored(full)
    assert need > 2**n // 2
    for limit in (1, 2, 3, 10, need // 4, need // 2, need - 1, need, 2 * need):
        monkeypatch.setattr(nominal, "FRONTIER_PAIR_LIMIT", limit)
        rows: list = []
        try:
            budget_frontier(units, units, budget, sum(units), rows)
        except StateLimitError:
            assert limit < 2 * need
        else:
            assert rows == full
        assert stored(rows) <= limit


# integrality gap sandwiches

def test_gap_sandwich_single_capacity():
    # K <= F <= 2K after preprocessing, checked across sizes up to 12
    rng = SplitMix64(123)
    for inst in edge_family(seed=9, count=22, n_hi=12, vmax=8):
        if inst.n <= 7:
            xs = list(all_interdictions(inst))
        else:
            xs = [
                InterdictionVector.from_bits(
                    [rng.uniform(0, 1) for _ in range(inst.n)], inst.c
                )
                for _ in range(60)
            ]
        for x in xs:
            k = best_integer_packing(inst, x)
            f = fractional_knapsack(inst, x).value
            assert k <= f <= 2 * k or (k == 0 and f == 0)


def test_gap_sandwich_two_capacities():
    for inst in edge_family(seed=10, count=12, n_hi=6, t=2, vmax=6):
        for x in all_interdictions(inst):
            k = best_integer_packing(inst, x)
            f = vertex_lp_optimum(inst, x).value
            assert k <= f <= (1 + inst.t) * k or (k == 0 and f == 0)


# round_down_packing

def test_round_down_drops_single_fractional_item():
    from kinterdict.instance import FractionalPacking

    fp = FractionalPacking(
        y=(Fraction(1), Fraction(1, 4)),
        value=Fraction(7, 2),
        frac_support=(1,),
    )
    ans = round_down_packing(fp, (3, 2))
    assert ans.chosen == (1, 0)
    assert ans.value == 3
    assert ans.value >= fp.value - 2


def test_round_down_identity_on_integral_packings():
    from kinterdict.instance import FractionalPacking

    fp = FractionalPacking(
        y=(Fraction(1), Fraction(0)), value=Fraction(3), frac_support=()
    )
    ans = round_down_packing(fp, (3, 2))
    assert ans.chosen == (1, 0) and ans.value == 3


def test_round_down_zero_packing():
    from kinterdict.instance import FractionalPacking

    fp = FractionalPacking(y=(Fraction(0),), value=Fraction(0), frac_support=())
    ans = round_down_packing(fp, (4,))
    assert ans.chosen == (0,) and ans.value == 0


def test_round_down_additive_bound_against_survivor_profit():
    for inst in edge_family(seed=55, count=15, n_hi=7):
        for x in all_interdictions(inst):
            fp = fractional_knapsack(inst, x)
            ans = round_down_packing(fp, inst.p)
            survivors = [inst.p[i] for i in range(inst.n) if not x.bits[i]]
            assert ans.value >= fp.value - max(survivors, default=0)


# hypothesis properties

from conftest import instance_strategy


@settings(max_examples=150, deadline=None)
@given(instance_strategy(max_n=5, t=1, max_value=9))
def test_greedy_fractional_dominates_integer_packing(inst):
    from kinterdict.instance import preprocess

    reduced, _ = preprocess(inst)
    for x in all_interdictions(reduced):
        k = best_integer_packing(reduced, x)
        f = fractional_knapsack(reduced, x).value
        assert k <= f <= 2 * k or (k == 0 and f == 0)


@settings(max_examples=150, deadline=None)
@given(instance_strategy(max_n=5, t=1, max_value=9))
def test_greedy_packing_is_always_feasible(inst):
    for x in all_interdictions(inst):
        fp = fractional_knapsack(inst, x)
        assert sum(w * y for w, y in zip(inst.W[0], fp.y)) <= inst.C[0]
        assert all(0 <= y <= 1 for y in fp.y)
        assert fp.value == sum(p * y for p, y in zip(inst.p, fp.y))


def test_budget_knapsack_empty_items_huge_budget():
    ans = knapsack_max_budget([], [], 10**30)
    assert ans.value == 0 and ans.chosen == ()


def test_integer_packing_guards_huge_capacity_t1():
    inst = Instance(n=2, t=1, p=(1, 1), c=(1, 1), W=((1, 1),), B=1, C=(10**20,))
    with pytest.raises(StateLimitError):
        best_integer_packing(inst, xvec(inst, (0, 0)))


def test_greedy_order_cache_stays_bounded():
    from kinterdict.generator import generate_instance
    from kinterdict.nominal import _greedy_order

    _greedy_order.cache_clear()
    for seed in range(30):
        inst = generate_instance(n=6, t=1, seed=seed)
        fractional_knapsack(inst, xvec(inst, (0,) * inst.n))
    info = _greedy_order.cache_info()
    assert info.misses > info.maxsize  # more distinct instances than the bound
    assert info.currsize <= info.maxsize < 30


def test_greedy_equal_ratio_ties_prefer_lower_index():
    # both items have ratio 2; the greedy must fill item 0 first
    inst = Instance(n=2, t=1, p=(2, 4), c=(1, 1), W=((1, 2),), B=0, C=(2,))
    fp = fractional_knapsack(inst, xvec(inst, (0, 0)))
    assert fp.y == (Fraction(1), Fraction(1, 2))
    assert fp.value == 4
    assert fp.frac_support == (1,)
