from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kinterdict.generator import SplitMix64
from kinterdict.instance import Instance, InterdictionVector
from kinterdict.nominal import (
    DimensionMismatchError,
    StateLimitError,
    best_integer_packing,
    fractional_knapsack,
    knapsack_max_budget,
)
from kinterdict.oracles import vertex_lp_optimum

from conftest import (
    T1,
    T2,
    all_interdictions,
    dense_knapsack_max_budget,
    edge_family,
    round_down_packing,
)


def xvec(inst, bits):
    return InterdictionVector.from_bits(bits, inst.c)


# knapsack_max_budget

def test_budget_knapsack_t1_reduced_profits():
    # reduced profits of T1 at the unit dual multiplier
    ans = knapsack_max_budget([Fraction(1), Fraction(0)], [1, 1], 1)
    assert ans.value == 1
    assert ans.chosen == (1, 0)


def test_budget_knapsack_zero_budget_only_free_items():
    ans = knapsack_max_budget([Fraction(5), Fraction(7)], [0, 3], 0)
    assert ans.value == 5
    assert ans.chosen == (1, 0)


def test_budget_knapsack_all_zero_profits():
    ans = knapsack_max_budget([Fraction(0)] * 3, [1, 1, 1], 2)
    assert ans.value == 0


def test_budget_knapsack_prefers_selecting_on_ties():
    # both branches reach the optimum; the item must be selected
    ans = knapsack_max_budget([Fraction(2), Fraction(2)], [1, 1], 1)
    assert ans.chosen == (1, 0)


def test_budget_knapsack_exact_by_enumeration():
    rng = SplitMix64(5)
    from itertools import product

    for _ in range(60):
        m = rng.uniform(0, 7)
        profits = [Fraction(rng.uniform(0, 30), rng.uniform(1, 6)) for _ in range(m)]
        costs = [rng.uniform(0, 6) for _ in range(m)]
        budget = rng.uniform(0, 15)
        ans = knapsack_max_budget(profits, costs, budget)
        best = max(
            (
                sum((p for p, b in zip(profits, bits) if b), start=Fraction(0))
                for bits in product((0, 1), repeat=m)
                if sum(c for c, b in zip(costs, bits) if b) <= budget
            ),
            default=Fraction(0),
        )
        assert ans.value == best
        assert sum(c for c, b in zip(costs, ans.chosen) if b) <= budget
        assert sum((p for p, b in zip(profits, ans.chosen) if b), start=Fraction(0)) == ans.value


# profits: small ints with many ties, ints beyond 2**64, or Fractions
_profit = st.one_of(
    st.integers(0, 6),
    st.integers(2**64, 2**64 + 6),
    st.fractions(min_value=0, max_value=9, max_denominator=7),
)


@settings(max_examples=600, deadline=None)
@given(
    st.lists(st.tuples(_profit, st.integers(0, 14)), max_size=8),
    st.integers(0, 12),
)
@example(items=[(2, 1), (2, 1), (0, 0)], budget=1)
@example(items=[(0, 0), (0, 3), (5, 13)], budget=12)
@example(items=[(Fraction(1, 3), 1), (Fraction(2, 3), 2), (1, 3)], budget=3)
@example(items=[(2**64, 2), (2**64 + 1, 3), (1, 1)], budget=4)
def test_budget_knapsack_matches_dense_reference(items, budget):
    # ties, zero profits and zero costs, costs above the budget, values
    # beyond 2**64 and Fraction profits: the frontier DP gives the dense
    # table's value and its select-on-ties choices
    profits = [p for p, _ in items]
    costs = [c for _, c in items]
    ans = knapsack_max_budget(profits, costs, budget)
    ref = dense_knapsack_max_budget(profits, costs, budget)
    assert (ans.value, ans.chosen) == (ref.value, ref.chosen)


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
    assert best_integer_packing(T1, xvec(T1, (1, 0))).value == 2
    assert best_integer_packing(T1, xvec(T1, (0, 0))).value == 3
    assert best_integer_packing(T1, xvec(T1, (1, 1))).value == 0


def test_integer_packing_t2_cases():
    assert best_integer_packing(T2, xvec(T2, (0, 0))).value == 4
    assert best_integer_packing(T2, xvec(T2, (1, 0))).value == 3
    ans = best_integer_packing(T2, xvec(T2, (0, 0)))
    assert ans.chosen == (1, 0)


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
            assert ans.value == best
            # chosen is feasible and achieves the value
            assert all(not (b and ch) for b, ch in zip(x.bits, ans.chosen))
            assert all(
                sum(inst.W[j][i] * ans.chosen[i] for i in range(inst.n))
                <= inst.C[j]
                for j in range(inst.t)
            )
            assert sum(p * ch for p, ch in zip(inst.p, ans.chosen)) == ans.value


def test_integer_packing_state_limit():
    inst = Instance(
        n=3, t=2, p=(1, 1, 1), c=(1, 1, 1),
        W=((100, 100, 100), (100, 100, 100)), B=1, C=(1000, 1000),
    )
    with pytest.raises(StateLimitError):
        best_integer_packing(inst, xvec(inst, (0, 0, 0)), state_limit=100)


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
            k = best_integer_packing(inst, x).value
            f = fractional_knapsack(inst, x).value
            assert k <= f <= 2 * k or (k == 0 and f == 0)


def test_gap_sandwich_two_capacities():
    for inst in edge_family(seed=10, count=12, n_hi=6, t=2, vmax=6):
        for x in all_interdictions(inst):
            k = best_integer_packing(inst, x).value
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
        k = best_integer_packing(reduced, x).value
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
    from kinterdict.fptas import approx_interdiction
    from kinterdict.generator import generate_instance
    from kinterdict.nominal import _greedy_order

    _greedy_order.cache_clear()
    for seed in range(30):
        approx_interdiction(generate_instance(n=6, t=1, seed=seed), 1)
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
