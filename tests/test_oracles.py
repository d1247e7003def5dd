import tracemalloc
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinterdict import oracles
from kinterdict.dual import exact_fractional_optimum
from kinterdict.generator import generate_instance
from kinterdict.instance import Instance, InterdictionVector, preprocess
from kinterdict.oracles import (
    InstanceTooLargeError,
    TooManyOptimaError,
    best_integer_packing,
    brute_force_opt_f,
    brute_force_opt_i,
    oracle_report,
    vertex_lp_optimum,
)

from conftest import (
    T1,
    T2,
    enumerated_opt_f,
    enumerated_opt_i,
    family,
    instance_strategy,
)


def xvec(inst, bits):
    return InterdictionVector.from_bits(bits, inst.c)


def test_opt_i_t1():
    opt, optima = brute_force_opt_i(T1)
    assert opt == 2 and optima == ((1, 0),)


def test_opt_i_budget_covers_everything():
    inst = Instance(n=2, t=1, p=(3, 2), c=(1, 1), W=((2, 2),), B=2, C=(2,))
    opt, optima = brute_force_opt_i(inst)
    assert opt == 0 and (1, 1) in optima


def test_opt_i_zero_budget_is_unhindered_packing():
    inst = Instance(n=2, t=1, p=(3, 2), c=(1, 1), W=((2, 2),), B=0, C=(2,))
    opt, optima = brute_force_opt_i(inst)
    assert opt == best_integer_packing(inst, xvec(inst, (0, 0))) == 3
    assert optima == ((0, 0),)


def test_opt_i_size_limit():
    with pytest.raises(InstanceTooLargeError):
        brute_force_opt_i(T1, limit=1)


def test_opt_i_optima_cap_overflows_honestly():
    # all-zero profits make every feasible interdiction optimal
    inst = Instance(
        n=10, t=1, p=(0,) * 10, c=(1,) * 10, W=((1,) * 10,), B=10, C=(5,)
    )
    with pytest.raises(TooManyOptimaError):
        brute_force_opt_i(inst, max_optima=100)


def test_opt_i_optima_are_held_compactly_until_the_walk_ends():
    # every one of the 2^16 interdictions is optimal, so the walk holds
    # 2^15 optima when it refuses: as int masks, not tuples of n bits
    n = 16
    inst = Instance(
        n=n, t=1, p=(0,) * n, c=(0,) * n, W=((0,) * n,), B=0, C=(0,)
    )
    tracemalloc.start()
    try:
        with pytest.raises(TooManyOptimaError):
            brute_force_opt_i(inst, max_optima=2**15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from((1, 2)).flatmap(
        lambda t: instance_strategy(max_n=6, t=t, max_value=6)
    )
)
def test_opt_i_walk_matches_enumeration(inst):
    # zero profits, weights and costs and weights above a capacity are all
    # drawn; the optima must come in increasing bitmask order
    assert brute_force_opt_i(inst) == enumerated_opt_i(inst)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from((1, 2)).flatmap(
        lambda t: instance_strategy(max_n=6, t=t, max_value=6)
    )
)
def test_opt_f_walk_matches_enumeration(inst):
    # the value and the first minimiser in increasing bitmask order, with
    # zero profits, weights and costs drawn
    assert brute_force_opt_f(inst) == enumerated_opt_f(inst)


def test_opt_f_t1_and_zero_profit():
    value, bits = brute_force_opt_f(T1)
    assert value == 2 and bits == (1, 0)
    inst = Instance(n=2, t=1, p=(0, 0), c=(1, 1), W=((1, 1),), B=0, C=(2,))
    value, _ = brute_force_opt_f(inst)
    assert value == 0


def test_opt_f_t2_matches_dual_candidate_solver():
    value, _ = brute_force_opt_f(T2)
    assert value == 3
    assert value == exact_fractional_optimum(T2)[0]


def test_opt_f_size_limit():
    with pytest.raises(InstanceTooLargeError):
        brute_force_opt_f(T1, limit=1)


def test_p_star_t1():
    assert oracle_report(T1).p_star == 2


def test_p_star_zero_when_everything_interdicted():
    inst = Instance(n=2, t=1, p=(3, 2), c=(1, 1), W=((2, 2),), B=2, C=(2,))
    assert oracle_report(inst).p_star == 0


def test_p_star_takes_min_over_optima():
    # every feasible interdiction attains the optimum 5; the survivor maxima
    # are 5 except when the five-profit item itself is interdicted (then 3)
    inst = Instance(n=3, t=1, p=(5, 3, 2), c=(2, 1, 1), W=((2, 1, 1),), B=2, C=(2,))
    opt, optima = brute_force_opt_i(inst)
    assert opt == 5 and len(optima) == 5
    maxima = sorted(
        max((inst.p[i] for i in range(3) if not bits[i]), default=0)
        for bits in optima
    )
    assert maxima == [3, 5, 5, 5, 5]
    assert oracle_report(inst).p_star == 3


def test_vertex_lp_all_interdicted_is_zero():
    fp = vertex_lp_optimum(T2, xvec(T2, (1, 1)))
    assert fp.value == 0 and all(v == 0 for v in fp.y)


def test_vertex_lp_t2_unrestricted_value():
    fp = vertex_lp_optimum(T2, xvec(T2, (0, 0)))
    assert fp.value == Fraction(14, 3)
    assert fp.y == (Fraction(2, 3), Fraction(2, 3))
    assert fp.frac_support == (0, 1)


def test_vertex_lp_size_limits():
    big = Instance(n=9, t=1, p=(1,) * 9, c=(1,) * 9, W=((1,) * 9,), B=1, C=(3,))
    with pytest.raises(InstanceTooLargeError):
        vertex_lp_optimum(big, xvec(big, (0,) * 9))
    wide = Instance(
        n=2, t=4, p=(1, 1), c=(1, 1), W=((1, 1),) * 4, B=1, C=(2, 2, 2, 2)
    )
    with pytest.raises(InstanceTooLargeError):
        vertex_lp_optimum(wide, xvec(wide, (0, 0)))


def test_oracle_report_t1():
    rep = oracle_report(T1)
    assert rep.opt_i == 2 and rep.opt_f == 2 and rep.p_star == 2
    assert rep.optimal_x_list == ((1, 0),)


def test_oracle_invariants_on_random_families():
    t1_insts = family(seed=90, count=25, n_lo=0, n_hi=8)
    t2_insts = family(seed=91, count=10, n_lo=0, n_hi=5, t=2, wmax=6)
    for inst in t1_insts + t2_insts:
        rep = oracle_report(inst)
        assert rep.opt_i <= rep.opt_f <= (1 + inst.t) * rep.opt_i or (
            rep.opt_i == 0 and rep.opt_f == 0
        )
        if inst.t == 1:
            assert rep.opt_f <= 2 * rep.opt_i or rep.opt_i == 0
        assert rep.opt_i >= rep.opt_f - rep.p_star
        value, _, _ = exact_fractional_optimum(inst)
        assert value == rep.opt_f


def test_relaxed_oracle_refuses_before_either_brute_force(monkeypatch):
    # gen --n 10 --t 2 --wmax 3 --seed 1: 2^10 x 22784 predicted LP points
    # pass the budget, while its integer half alone fits WORK_BUDGET
    inst = generate_instance(n=10, t=2, seed=1, wmax=3)
    assert 2**10 * sum(
        comb(10, s) * comb(2, s) * 2 ** (10 - s) for s in range(3)
    ) > oracles.LP_POINT_BUDGET
    with pytest.raises(InstanceTooLargeError, match="LP points"):
        brute_force_opt_f(inst)

    def refuse(*args, **kwargs):
        raise AssertionError("a brute force started")

    monkeypatch.setattr(oracles, "brute_force_opt_i", refuse)
    with pytest.raises(InstanceTooLargeError, match="LP points"):
        oracle_report(inst)


def test_relaxed_oracle_refuses_t_above_3_before_either_brute_force(monkeypatch):
    # gen --n 4 --t 4 --seed 1 --wmax 3: within every work budget, but the
    # LP oracle enumerates basic points for t <= 3 only
    inst = generate_instance(n=4, t=4, seed=1, wmax=3)
    with pytest.raises(InstanceTooLargeError, match="t=4 exceeds oracle limit 3"):
        brute_force_opt_f(inst)

    def refuse(*args, **kwargs):
        raise AssertionError("a brute force started")

    monkeypatch.setattr(oracles, "brute_force_opt_i", refuse)
    with pytest.raises(InstanceTooLargeError, match="t=4 exceeds oracle limit 3"):
        oracle_report(inst)


def test_relaxed_oracle_budget_skips_single_capacity():
    # t = 1 runs one greedy per interdiction, so only --max-n bounds it
    inst = generate_instance(n=14, t=1, seed=2)
    opt, _ = brute_force_opt_f(inst)
    assert opt == exact_fractional_optimum(preprocess(inst)[0])[0]
