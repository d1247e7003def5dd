from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinterdict import dual
from kinterdict.dual import (
    DualPoint,
    _dantzig_bound,
    candidate_set,
    dual_bound_exact,
    dual_breakpoints,
    dual_vertex_candidates,
    exact_fractional_optimum,
    fractional_value,
)
from kinterdict.generator import SplitMix64
from kinterdict.instance import Instance, InterdictionVector
from kinterdict.nominal import (
    DimensionMismatchError,
    fractional_knapsack,
    knapsack_max_budget,
)
from kinterdict.oracles import brute_force_opt_f, vertex_lp_optimum

from conftest import (
    T1,
    T2,
    all_interdictions,
    dense_knapsack_max_budget,
    edge_family,
    family,
    instance_strategy,
    random_rat,
    reduced_profit,
    surviving_reduced_profit,
)


def xvec(inst, bits):
    return InterdictionVector.from_bits(bits, inst.c)


def alphas(cs):
    return [pt.alpha for pt in cs]


# surviving_reduced_profit

def test_reduced_profit_sum_t1_unit_alpha():
    val = surviving_reduced_profit(T1, xvec(T1, (0, 0)), DualPoint.of(1))
    assert val == 1  # max(0, 3-2) + max(0, 2-2)


def test_reduced_profit_sum_alpha_zero_is_plain_profit():
    for bits in ((0, 0), (1, 0), (0, 1), (1, 1)):
        val = surviving_reduced_profit(T1, xvec(T1, bits), DualPoint.of(0))
        assert val == sum(p for p, b in zip(T1.p, bits) if not b)


def test_reduced_profit_sum_huge_alpha_leaves_zero_weight_items():
    inst = Instance(n=2, t=1, p=(5, 9), c=(1, 1), W=((0, 3),), B=1, C=(4,))
    val = surviving_reduced_profit(inst, xvec(inst, (0, 0)), DualPoint.of(1000))
    assert val == 5


def test_reduced_profit_sum_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        surviving_reduced_profit(T1, xvec(T1, (0, 0)), DualPoint.of(1, 1))


def test_dual_point_rejects_negative():
    with pytest.raises(ValueError):
        DualPoint.of(-1)


# candidate sets

def test_breakpoints_t1():
    assert alphas(dual_breakpoints(T1)) == [
        (Fraction(0),),
        (Fraction(1),),
        (Fraction(3, 2),),
    ]


def test_breakpoints_all_zero_weights():
    inst = Instance(n=2, t=1, p=(3, 2), c=(1, 1), W=((0, 0),), B=1, C=(2,))
    assert alphas(dual_breakpoints(inst)) == [(Fraction(0),)]


def test_breakpoints_deduplicate_equal_ratios():
    inst = Instance(n=2, t=1, p=(2, 4), c=(1, 1), W=((1, 2),), B=1, C=(2,))
    assert alphas(dual_breakpoints(inst)) == [(Fraction(0),), (Fraction(2),)]


def test_vertex_candidates_t2_frozen():
    pts = alphas(dual_vertex_candidates(T2))
    expect = [
        (Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(3, 2)),
        (Fraction(0), Fraction(4)),
        (Fraction(5, 3), Fraction(2, 3)),
        (Fraction(2), Fraction(0)),
        (Fraction(3), Fraction(0)),
    ]
    assert pts == sorted(expect)
    assert len(pts) == 6


def test_vertex_candidates_agree_with_breakpoints_when_t1():
    for inst in edge_family(seed=42, count=30, n_hi=6):
        assert alphas(dual_vertex_candidates(inst)) == alphas(
            dual_breakpoints(inst)
        )


def test_vertex_candidates_empty_instance():
    inst = Instance(n=0, t=2, p=(), c=(), W=((), ()), B=0, C=(3, 4))
    assert alphas(dual_vertex_candidates(inst)) == [(Fraction(0), Fraction(0))]


def test_candidate_sets_contain_origin_and_are_sorted():
    for inst in edge_family(seed=43, count=20, n_hi=5, t=2, vmax=6):
        pts = alphas(dual_vertex_candidates(inst))
        assert pts[0] == (Fraction(0), Fraction(0))
        assert pts == sorted(pts)
        assert len(set(pts)) == len(pts)
        assert all(a >= 0 for pt in pts for a in pt)


# dual bound and the exact solver

def test_dual_bound_t1_values():
    value, x = dual_bound_exact(T1, DualPoint.of(1))
    assert value == 2 and x.bits == (1, 0)
    value, x = dual_bound_exact(T1, DualPoint.of(0))
    assert value == 2 and x.bits == (1, 0)
    value, x = dual_bound_exact(T1, DualPoint.of(Fraction(3, 2)))
    assert value == 3
    assert x.feasible(T1.B)


def test_exact_optimum_t1():
    value, x, alpha = exact_fractional_optimum(T1)
    assert value == 2 and x.bits == (1, 0)
    assert alpha == DualPoint.of(0)  # tied with alpha=1, first sorted wins


def test_exact_optimum_zero_profits():
    inst = Instance(n=3, t=1, p=(0, 0, 0), c=(1, 1, 1), W=((1, 2, 3),), B=1, C=(3,))
    value, x, _ = exact_fractional_optimum(inst)
    assert value == 0


def test_exact_optimum_t2_matches_oracle():
    value, x, _ = exact_fractional_optimum(T2)
    assert value == 3 and x.bits == (1, 0)
    oracle_value, _ = brute_force_opt_f(T2)
    assert value == oracle_value


def test_fractional_value_t1():
    assert fractional_value(T1, xvec(T1, (1, 0))) == 2
    assert fractional_value(T1, xvec(T1, (1, 1))) == 0


def test_fractional_value_t2_matches_vertex_enumeration():
    assert fractional_value(T2, xvec(T2, (0, 0))) == Fraction(14, 3)
    for x in all_interdictions(T2):
        assert fractional_value(T2, x) == vertex_lp_optimum(T2, x).value


def test_fractional_value_t2_random_matches_vertex_enumeration():
    for inst in edge_family(seed=44, count=10, n_hi=5, t=2, vmax=6):
        for x in all_interdictions(inst):
            assert fractional_value(inst, x) == vertex_lp_optimum(inst, x).value


def _beyond_64_bits(inst, k):
    """The instance with p, W and C scaled by k and offset per item or row."""
    return Instance(
        n=inst.n,
        t=inst.t,
        p=tuple(v * k + i for i, v in enumerate(inst.p)),
        c=inst.c,
        W=tuple(tuple(v * k + j for v in row) for j, row in enumerate(inst.W)),
        B=inst.B,
        C=tuple(v * k for v in inst.C),
    )


def test_fractional_value_with_shared_candidates_t2_t3():
    small = family(seed=50, count=4, n_lo=2, n_hi=5, t=2) + family(
        seed=51, count=3, n_lo=2, n_hi=4, t=3
    )
    big = [_beyond_64_bits(inst, 2**64 + 7) for inst in small]
    largest = 0
    for inst in small + big:
        shared = candidate_set(inst)
        for x in all_interdictions(inst):
            value = fractional_value(inst, x, shared)
            assert value == fractional_value(inst, x)
            assert value == vertex_lp_optimum(inst, x).value
            largest = max(largest, value)
    assert largest > 2**64


# dual inequalities

def test_weak_duality_200_samples():
    rng = SplitMix64(7)
    insts = edge_family(seed=45, count=5, n_hi=6) + [T1]
    for inst in insts:
        for _ in range(200):
            bits = [rng.uniform(0, 1) for _ in range(inst.n)]
            x = xvec(inst, bits)
            a = DualPoint.of(random_rat(rng))
            bound = a.dot_capacity(inst) + surviving_reduced_profit(inst, x, a)
            assert fractional_knapsack(inst, x).value <= bound


def test_breakpoint_completeness_with_midpoint_scan():
    for inst in edge_family(seed=46, count=12, n_hi=6):
        points = [pt for pt in dual_breakpoints(inst)]
        values = [pt.alpha[0] for pt in points]
        mids = [
            DualPoint.of((a + b) / 2) for a, b in zip(values, values[1:])
        ]
        for x in all_interdictions(inst):
            f = fractional_knapsack(inst, x).value
            best = min(
                pt.dot_capacity(inst) + surviving_reduced_profit(inst, x, pt)
                for pt in points
            )
            assert best == f
            for pt in mids:
                assert (
                    pt.dot_capacity(inst)
                    + surviving_reduced_profit(inst, x, pt)
                    >= best
                )


def test_piecewise_linearity_between_breakpoints():
    insts = [T1] + edge_family(seed=47, count=8, n_hi=5)
    for inst in insts:
        values = [pt.alpha[0] for pt in dual_breakpoints(inst)]
        for x in all_interdictions(inst):
            def h(a):
                pt = DualPoint.of(a)
                return pt.dot_capacity(inst) + surviving_reduced_profit(
                    inst, x, pt
                )

            for lo, hi in zip(values, values[1:]):
                h_lo, h_hi = h(lo), h(hi)
                for lam in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
                    mid = lo + lam * (hi - lo)
                    assert h(mid) == h_lo + lam * (h_hi - h_lo)


def test_dual_bound_upper_bounds_the_optimum():
    for inst in family(seed=48, count=20, n_lo=1, n_hi=7):
        opt, _, _ = exact_fractional_optimum(inst)
        for pt in dual_breakpoints(inst):
            value, _ = dual_bound_exact(inst, pt)
            assert value >= opt


def test_exact_optimum_matches_brute_force_small():
    for inst in family(seed=49, count=40, n_lo=0, n_hi=8):
        value, x, _ = exact_fractional_optimum(inst)
        oracle_value, _ = brute_force_opt_f(inst)
        assert value == oracle_value
        assert x.feasible(inst.B)
        assert fractional_value(inst, x) == value


# the pruned exact scan

def unpruned_scan(inst):
    """Every candidate through a Fraction budget knapsack; first strict min wins."""
    best = None
    for a in candidate_set(inst):
        reduced = [reduced_profit(inst, i, a) for i in range(inst.n)]
        answer = dense_knapsack_max_budget(reduced, inst.c, inst.B)
        value = a.dot_capacity(inst) + sum(reduced) - answer.value
        if best is None or value < best[0]:
            best = (value, answer.chosen, a)
    return best


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from((1, 2, 3)).flatmap(
        lambda t: instance_strategy(max_n=(8, 5, 4)[t - 1], t=t)
    ),
    st.booleans(),
)
def test_pruned_exact_scan_matches_unpruned_reference(inst, big):
    if big:
        inst = _beyond_64_bits(inst, 2**64 + 7)
    value, x, alpha = exact_fractional_optimum(inst)
    assert (value, x.bits, alpha) == unpruned_scan(inst)


def test_exact_scan_skips_candidates_whose_bound_ties_the_incumbent(monkeypatch):
    # Values: alpha = 0 gives 6, alpha = 1 gives 2 + 4 - 0 = 6 and alpha = 3
    # gives 6 + 0.  At alpha = 1 the Dantzig lower bound is exactly 6 (item 1
    # costs more than B), at alpha = 3 alpha.C alone is 6; the origin stays.
    inst = Instance(n=2, t=1, p=(3, 6), c=(1, 3), W=((3, 2),), B=2, C=(2,))
    assert [dual_bound_exact(inst, DualPoint.of(v))[0] for v in (0, 1, 3)] == [6] * 3
    built = []
    original = dual.dual_bound_exact
    monkeypatch.setattr(
        dual, "dual_bound_exact", lambda inst, a: built.append(a) or original(inst, a)
    )
    value, x, alpha = exact_fractional_optimum(inst)
    assert (value, x.bits, alpha) == (6, (1, 0), DualPoint.of(0))
    assert built == [DualPoint.of(0)]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.integers(0, 9), st.integers(0, 2**70)), st.integers(0, 12)
        ),
        max_size=8,
    ),
    st.integers(0, 30),
)
def test_dantzig_bound_is_at_least_the_knapsack_optimum(items, budget):
    profits = [r for r, _ in items]
    costs = [c for _, c in items]
    bound = _dantzig_bound(profits, costs, budget)
    best = knapsack_max_budget(profits, costs, budget).value
    assert bound >= best
    if sum(costs) <= budget:
        assert bound == best
