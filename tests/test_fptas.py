import math
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kinterdict import fptas
from kinterdict.dual import (
    CandidateSet,
    PreparedInstance,
    dual_bound_exact,
    dual_breakpoints,
    dual_vertex_candidates,
    exact_fractional_optimum,
    fractional_value,
    prepare,
)
from kinterdict.fptas import (
    GUARANTEE_EXACT,
    GUARANTEE_MULTI,
    GUARANTEE_OPT_F,
    GUARANTEE_SINGLE,
    GeometricGrid,
    GridPoint,
    NonpositiveEpsError,
    accept_level,
    approx_fractional_optimum,
    approx_interdiction,
    candidate_bits,
    min_budget_table,
    rounded_profit_units,
    search_bracket,
    search_optimum_guess,
    split_accuracy,
)
from kinterdict.generator import SplitMix64, generate_instance
from kinterdict.instance import Instance, InterdictionVector, preprocess
from kinterdict.nominal import StateLimitError, budget_frontier, least_units_within
from kinterdict.oracles import best_integer_packing, brute_force_opt_f

from conftest import (
    T1,
    T2,
    EMPTY,
    bisected_split_accuracy,
    ceil_div,
    dense_min_budget_table,
    dot_capacity,
    dual_point,
    edge_family,
    family,
    instance_strategy,
    linear_grid_J,
    min_units_within,
    plain_search_optimum_guess,
    random_rat,
    reduced_profit,
    scaled_dantzig_bound,
    surviving_reduced_profit,
    unlimited_rounded_dual_bound,
)


def xvec(inst, bits):
    return InterdictionVector.from_bits(bits, inst.c)


def candidates_for(inst):
    from kinterdict.dual import dual_vertex_candidates

    return dual_breakpoints(inst) if inst.t == 1 else dual_vertex_candidates(inst)


def rounded_mass(inst, bits, a, delta):
    """Unit-cost form of the rounded surviving profit."""
    units = rounded_profit_units(inst, a, delta)
    return sum(u for u, b in zip(units, bits) if not b) * delta


def sequential_rounded_mass(inst, bits, a, delta):
    """Running-total form: round up to a multiple of delta after each add."""
    total = Fraction(0)
    for i in range(inst.n):
        if not bits[i]:
            total += reduced_profit(inst, i, a)
            total = ceil_div(total, delta) * delta
    return total


# split_accuracy

@pytest.mark.parametrize(
    "eps", [Fraction(3), Fraction(1), Fraction(1, 10), Fraction(10), Fraction(1, 10**7)]
)
def test_split_accuracy_square_bound(eps):
    e = split_accuracy(eps)
    assert e > 0
    assert (1 + e) ** 2 <= 1 + eps


def test_split_accuracy_perfect_square():
    assert split_accuracy(Fraction(3)) == 1


def test_split_accuracy_examples_admit_known_values():
    # the contract admits any valid under-approximation; spot-check known ones
    assert (1 + Fraction(2, 5)) ** 2 <= 2  # eps = 1
    assert (1 + Fraction(1, 21)) ** 2 <= Fraction(11, 10)  # eps = 1/10
    assert split_accuracy(Fraction(1)) >= Fraction(2, 5)
    assert split_accuracy(Fraction(1, 10)) >= Fraction(1, 21)


@settings(max_examples=300, deadline=None)
@given(st.fractions(min_value=Fraction(1, 10**12), max_value=10**9))
@example(eps=Fraction(3))
@example(eps=Fraction(1, 10**12))
@example(eps=Fraction(10**9))
@example(eps=Fraction(2000001, 10**12))  # k = 1 exactly: (1 + 10^-6)^2 = 1 + eps
@example(eps=Fraction(2000000, 10**12))  # just below it: the eps / 3 fallback
def test_split_accuracy_matches_the_bisection(eps):
    assert split_accuracy(eps) == bisected_split_accuracy(eps)


def test_split_accuracy_rejects_nonpositive():
    with pytest.raises(NonpositiveEpsError):
        split_accuracy(0)
    with pytest.raises(NonpositiveEpsError):
        split_accuracy(Fraction(-1, 2))


# the geometric grid

def test_grid_levels_bracket_total_profit():
    for eps in (Fraction(2), Fraction(1, 2)):
        e = split_accuracy(eps)
        grid = GeometricGrid.build(T1, e)
        top = (1 + e) ** grid.J
        assert top >= sum(T1.p)
        if grid.J > 0:
            assert (1 + e) ** (grid.J - 1) < sum(T1.p)
        assert grid.point(0).z == 1
        assert grid.point(grid.J).delta > 0
        with pytest.raises(ValueError):
            grid.point(grid.J + 1)


def test_grid_kmax_constant_across_levels():
    e = Fraction(2, 5)
    grid = GeometricGrid.build(T1, e)
    q = grid.n * (1 + e) / e
    assert grid.kmax == q.numerator // q.denominator == 7
    for j in range(grid.J + 1):
        pt = grid.point(j)
        assert grid.kmax * pt.delta <= (1 + e) * pt.z
        assert (grid.kmax + 1) * pt.delta > (1 + e) * pt.z


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 10**4),
    st.sampled_from([Fraction(3), Fraction(1), Fraction(2, 5), Fraction(1, 21)])
    | st.fractions(min_value=Fraction(1, 100), max_value=3, max_denominator=1000),
)
def test_grid_J_matches_the_linear_loop(sum_p, e):
    inst = Instance(n=1, t=1, p=(sum_p,), c=(1,), W=((1,),), B=0, C=(1,))
    assert GeometricGrid.build(inst, e).J == linear_grid_J(sum_p, e)


def test_grid_J_at_fine_accuracy_takes_well_under_a_second():
    # solve --eps 1/1000 on gen --n 20 --t 3 --seed 3: eps' = 31/250000 and
    # a total profit of 973 need J = 55491, which the linear loop took about
    # 20 s to reach
    e = split_accuracy(Fraction(1, 1000) / 4)
    assert e == Fraction(31, 250000)
    inst = Instance(n=1, t=1, p=(973,), c=(1,), W=((1,),), B=0, C=(1,))
    start = time.perf_counter()
    grid = GeometricGrid.build(inst, e)
    assert time.perf_counter() - start < 1
    assert grid.J == 55491
    num, den = (1 + e).numerator, (1 + e).denominator
    assert num**grid.J >= 973 * den**grid.J
    assert num ** (grid.J - 1) < 973 * den ** (grid.J - 1)


def test_grid_bit_budget_admits_exactly_its_estimate(monkeypatch):
    # the instance above: 55491 levels of 18 numerator bits, an estimate of
    # log(973) / log1p(eps') x 18 bits, just under a million
    e = Fraction(31, 250000)
    inst = Instance(n=1, t=1, p=(973,), c=(1,), W=((1,),), B=0, C=(1,))
    bits = math.ceil(math.log(973) * 18 / math.log1p(e))
    monkeypatch.setattr(fptas, "GRID_BIT_LIMIT", bits)
    assert GeometricGrid.build(inst, e).J == 55491
    monkeypatch.setattr(fptas, "GRID_BIT_LIMIT", bits - 1)
    with pytest.raises(StateLimitError, match=f" bits, beyond {bits - 1}$"):
        GeometricGrid.build(inst, e)
    # an eps' whose float underflows to 0.0 is refused, not divided by
    monkeypatch.undo()
    with pytest.raises(StateLimitError, match="about inf numerator bits"):
        GeometricGrid.build(inst, Fraction(1, 10**400))


def test_grid_builds_at_an_eps_past_the_float_range():
    # eps' = 10**5000 - 1 and 10**308.5 do not fit in a float; the first
    # grid level reaches any total profit
    inst = Instance(n=1, t=1, p=(973,), c=(1,), W=((1,),), B=0, C=(1,))
    for eps in (Fraction(10) ** 10000, Fraction(10) ** 617):
        e = split_accuracy(eps)
        assert e > 10**308
        assert GeometricGrid.build(inst, e).J == 1


# rounded profit units

def test_units_t1_example():
    assert rounded_profit_units(T1, dual_point(1), Fraction(1, 2)) == [2, 0]


def test_units_exact_multiple_not_overcounted():
    inst = Instance(n=1, t=1, p=(6,), c=(1,), W=((0,),), B=1, C=(1,))
    assert rounded_profit_units(inst, dual_point(0), Fraction(3, 2)) == [4]


def test_units_alpha_zero_unit_delta_gives_profits():
    assert rounded_profit_units(T1, dual_point(0), Fraction(1)) == [3, 2]


# the min-budget table

def test_table_t1_frozen_example():
    # T1 at unit alpha, z = 1, eps' = 2/5: delta 1/5, units (5, 0), kmax 7
    units = rounded_profit_units(T1, dual_point(1), Fraction(1, 5))
    assert units == [5, 0]
    table = dense_min_budget_table(units, T1.c, 7)
    assert table.rows[0] == tuple(1 if k < 5 else 0 for k in range(8))
    assert min_budget_table(units, T1.c, 1, 7).rows[0] == ([0, 5], [1, 0])
    assert min_budget_table(units, T1.c, 0, 7).rows[0] == ([5], [0])
    # exhaustive check against all four interdictions
    for k in range(8):
        best = min(
            (
                x.cost
                for x in (xvec(T1, b) for b in product((0, 1), repeat=2))
                if sum(u for u, bb in zip(units, x.bits) if not bb) <= k
            ),
            default=None,
        )
        assert table.rows[0][k] == best


def test_table_zero_units_and_zero_costs():
    t = dense_min_budget_table([0, 0, 0], [4, 5, 6], 5)
    assert all(v == 0 for v in t.rows[0])
    t = dense_min_budget_table([9, 9], [0, 0], 5)
    assert all(v == 0 for v in t.rows[0])
    assert min_budget_table([0, 0, 0], [4, 5, 6], 0, 5).traceback(0) == (0, 0, 0)
    assert min_budget_table([9, 9], [0, 0], 0, 5).traceback(0) == (1, 1)


def test_table_rows_non_increasing_in_k():
    rng = SplitMix64(17)
    for _ in range(80):
        m = rng.uniform(0, 6)
        units = [rng.uniform(0, 9) for _ in range(m)]
        costs = [rng.uniform(0, 9) for _ in range(m)]
        kmax = rng.uniform(0, 20)
        table = dense_min_budget_table(units, costs, kmax)
        for row in table.rows:
            assert all(a >= b for a, b in zip(row, row[1:]))


def test_table_traceback_attains_value_and_mass():
    rng = SplitMix64(18)
    for _ in range(80):
        m = rng.uniform(1, 6)
        units = [rng.uniform(0, 6) for _ in range(m)]
        costs = [rng.uniform(0, 6) for _ in range(m)]
        kmax = rng.uniform(0, 15)
        dense = dense_min_budget_table(units, costs, kmax)
        for budget in range(sum(costs) + 1):
            k = least_units_within(units, costs, budget, kmax)
            if k is None:
                continue
            bits = min_budget_table(units, costs, budget, kmax).traceback(k)
            cost = sum(c for c, b in zip(costs, bits) if b)
            mass = sum(u for u, b in zip(units, bits) if not b)
            assert cost == dense.rows[0][k] <= budget
            assert mass <= k


# the value-only DP

_small_or_huge = st.one_of(st.integers(0, 12), st.integers(2**64, 2**64 + 40))


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 9), _small_or_huge), max_size=8),
    _small_or_huge,
    st.integers(-3, 30),
)
# a negative kmax admits no target, with or without items
@example(items=[], budget=0, kmax=-1)
@example(items=[(0, 1)], budget=0, kmax=-1)
@example(items=[(3, 2), (0, 5), (4, 1)], budget=2, kmax=0)
@example(items=[(2, 5), (1, 2**64 + 1)], budget=4, kmax=6)
@example(items=[(0, 0), (5, 0), (2, 0)], budget=0, kmax=3)
# equal needs at rising k, in the merge and in the interdict branch's tail
@example(items=[(1, 0), (2, 3), (1, 0)], budget=18, kmax=9)
@example(items=[(2, 0), (2, 2), (3, 2)], budget=3, kmax=3)
def test_least_units_within_matches_dense_table(items, budget, kmax):
    # zero units, zero costs, costs above the budget, kmax = 0 or below,
    # and costs and budgets beyond 2**64
    units = [u for u, _ in items]
    costs = [c for _, c in items]
    table = dense_min_budget_table(units, costs, kmax)
    least = min_units_within(table, budget)
    assert least_units_within(units, costs, budget, kmax) == least
    # the kept breakpoints are exactly the dense row's, from the least
    # feasible target up to the last one kept
    row = table.rows[0]
    ks, needs = budget_frontier(units, costs, budget, kmax)
    assert (ks[0] if ks else None) == least
    if ks:
        dense = [
            (k, row[k])
            for k in range(least, ks[-1] + 1)
            if k == least or row[k] < row[k - 1]
        ]
        assert list(zip(ks, needs)) == dense


@settings(max_examples=600, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 6), _small_or_huge), max_size=8),
    _small_or_huge,
    st.integers(0, 24),
)
@example(items=[(2, 1), (2, 1), (0, 0)], budget=1, kmax=4)
@example(items=[(0, 0), (0, 3), (5, 13)], budget=12, kmax=0)
@example(items=[(1, 0), (2, 3), (1, 0)], budget=3, kmax=9)
@example(items=[(3, 2**64), (1, 2**64 + 2), (2, 1)], budget=2**64 + 1, kmax=6)
# a walk from the budget instead of the least need picks (1, 0), not (0, 1)
@example(items=[(1, 5), (1, 1)], budget=5, kmax=1)
def test_budget_table_traceback_matches_dense_reference(items, budget, kmax):
    # ties, zero units and zero costs, costs above the budget, kmax = 0 and
    # values beyond 2**64: at the least target within the budget the
    # frontier table traces back the dense table's interdict-first bits
    units = [u for u, _ in items]
    costs = [c for _, c in items]
    dense = dense_min_budget_table(units, costs, kmax)
    k = min_units_within(dense, budget)
    table = min_budget_table(units, costs, budget, kmax)
    assert len(table.rows) == len(units) + 1
    if k is None:
        assert table.rows[0] == ([], [])
        return
    assert table.traceback(k) == dense.traceback(k)
    assert all(len(ks) <= min(budget, kmax) + 1 for ks, _ in table.rows)
    if k > 0:
        with pytest.raises(ValueError):
            table.traceback(k - 1)


def test_least_units_within_on_the_frozen_t1_table():
    # units (5, 0), costs (1, 1): the table row is 1 for k < 5, then 0
    assert least_units_within([5, 0], [1, 1], 1, 7) == 0
    assert least_units_within([5, 0], [1, 1], 0, 7) == 5
    assert least_units_within([5, 0], [1, 1], 0, 4) is None
    assert least_units_within([], [], 0, 0) == 0


# rounded dual bound

def test_rounded_bound_t1_example():
    e = Fraction(2, 5)
    grid = GeometricGrid.build(T1, e)
    # z = 2 is not on this grid; build the point directly
    pt = GridPoint(z=Fraction(2), delta=e * 2 / T1.n)
    ev = unlimited_rounded_dual_bound(T1, dual_point(1), pt, grid.kmax)
    assert ev.value == 2
    assert candidate_bits(T1, ev) == (1, 0)


def test_rounded_bound_zero_mass_costs_alpha_dot_c():
    inst = Instance(n=2, t=1, p=(2, 2), c=(1, 1), W=((2, 2),), B=0, C=(2,))
    e = Fraction(2, 5)
    grid = GeometricGrid.build(inst, e)
    big = dual_point(1)  # reduced profits are max(0, 2-2)=0
    ev = unlimited_rounded_dual_bound(inst, big, grid.point(0), grid.kmax)
    assert ev.value == dot_capacity(inst, big) == 2
    # keeping everything is free here
    assert sum(candidate_bits(inst, ev)) == 0


def test_rounded_bound_rejects_when_pruned():
    # B = 0 forbids interdiction and z far below the surviving mass prunes all
    inst = Instance(n=2, t=1, p=(50, 50), c=(1, 1), W=((1, 1),), B=0, C=(2,))
    e = Fraction(2, 5)
    grid = GeometricGrid.build(inst, e)
    ev = unlimited_rounded_dual_bound(inst, dual_point(0), grid.point(0), grid.kmax)
    assert ev.value is None and ev.k is None
    assert ev.units is not None  # the DP ran and found no target


# acceptance and the search

def test_accept_passes_at_and_above_opt_fails_below():
    for inst in family(seed=70, count=12, n_lo=1, n_hi=7):
        opt, _, _ = exact_fractional_optimum(inst)
        if opt == 0:
            continue
        e = split_accuracy(Fraction(1))
        grid = GeometricGrid.build(inst, e)
        cands = candidates_for(inst)
        for j in range(grid.J + 1):
            z = grid.point(j).z
            res = accept_level(inst, grid, j, cands)
            if z >= opt:
                assert res.passed
            if z < opt / (1 + e):
                assert not res.passed


def test_acceptance_upward_closed_and_binary_search_finds_smallest():
    insts = [T1, T2] + family(seed=71, count=8, n_lo=1, n_hi=6) + family(
        seed=72, count=4, n_lo=2, n_hi=5, t=2, wmax=6
    )
    for inst in insts:
        if sum(inst.p) == 0:
            continue
        for eps in (Fraction(1), Fraction(1, 2)):
            e = split_accuracy(eps)
            grid = GeometricGrid.build(inst, e)
            cands = candidates_for(inst)
            cover = sum(c for c, p in zip(inst.c, inst.p) if p > 0)
            if cover <= inst.B:
                continue  # zero-optimum instances never reach the search
            scan = [accept_level(inst, grid, j, cands).passed for j in range(grid.J + 1)]
            assert scan[-1], "top level must accept"
            first = scan.index(True)
            assert all(scan[first:]), "accepted set must be upward closed"
            j, _, _ = search_optimum_guess(inst, grid, cands)
            assert grid.point(j).z == grid.point(first).z


def test_search_bracket_fixes_the_levels_it_decides():
    insts = [T1, T2] + family(seed=73, count=10, n_lo=1, n_hi=6) + family(
        seed=74, count=6, n_lo=2, n_hi=5, t=2, wmax=6
    )

    def check_kept_bounds(cands):
        # every bound the bracket kept, the origin's read off a prepared
        # set's sorted items included, is the point's own Dantzig bound
        assert 0 in cands._bounds
        for i, scaled_lower in cands._bounds.items():
            assert scaled_lower == scaled_dantzig_bound(cands.inst, cands.points[i])

    decided = 0
    for inst in insts:
        if sum(inst.p) == 0:
            continue
        cands = candidates_for(inst)
        lower, upper = search_bracket(cands)
        assert lower <= exact_fractional_optimum(inst, cands)[0] <= upper
        check_kept_bounds(cands)
        prepared = prepare(inst, 1).candidates
        assert prepared.relaxation is not None
        assert search_bracket(prepared) == (lower, upper)
        check_kept_bounds(prepared)
        for eps in (Fraction(1), Fraction(1, 2)):
            grid = GeometricGrid.build(inst, split_accuracy(eps))
            for j in range(grid.J + 1):
                point = grid.point(j)
                limit = (1 + grid.eps_internal) * point.z
                if limit < lower:
                    assert not accept_level(inst, grid, j, cands).passed
                    decided += 1
                if point.z >= upper:
                    assert accept_level(inst, grid, j, cands).passed
                    decided += 1
    assert decided > 0


def test_search_t1_guarantee_bound():
    e = Fraction(2, 5)
    grid = GeometricGrid.build(T1, e)
    j, winner, _ = search_optimum_guess(T1, grid, dual_breakpoints(T1))
    x = xvec(T1, candidate_bits(T1, winner))
    assert fractional_value(T1, x) <= (1 + e) ** 2 * 2  # oracle OPT_F = 2
    assert grid.point(j).z <= (1 + e) * 2


def test_search_single_item_forced_empty():
    inst = Instance(n=1, t=1, p=(5,), c=(1,), W=((1,),), B=0, C=(1,))
    e = split_accuracy(Fraction(1))
    grid = GeometricGrid.build(inst, e)
    _, winner, _ = search_optimum_guess(inst, grid, dual_breakpoints(inst))
    bits = candidate_bits(inst, winner)
    assert bits == (0,)
    assert fractional_value(inst, xvec(inst, bits)) == 5


def test_search_accepts_level_zero_when_opt_is_one():
    inst = Instance(n=1, t=1, p=(1,), c=(1,), W=((1,),), B=0, C=(1,))
    e = split_accuracy(Fraction(1))
    grid = GeometricGrid.build(inst, e)
    j, _, _ = search_optimum_guess(inst, grid, dual_breakpoints(inst))
    assert grid.point(j).z == 1


# rounding identities

def test_unit_form_equals_sequential_rounding_500_samples():
    rng = SplitMix64(19)
    insts = [T1, T2] + edge_family(seed=73, count=6, n_hi=6) + edge_family(
        seed=74, count=4, n_hi=5, t=2
    )
    checked = 0
    while checked < 500:
        inst = insts[rng.uniform(0, len(insts) - 1)]
        if inst.n == 0:
            continue
        bits = [rng.uniform(0, 1) for _ in range(inst.n)]
        a = dual_point(*(random_rat(rng, max_num=12) for _ in range(inst.t)))
        delta = Fraction(rng.uniform(1, 30), rng.uniform(1, 12))
        assert rounded_mass(inst, bits, a, delta) == sequential_rounded_mass(
            inst, bits, a, delta
        )
        checked += 1


def test_rounding_sandwich_on_masses_and_bounds():
    rng = SplitMix64(20)
    insts = [i for i in family(seed=75, count=10, n_lo=1, n_hi=7) if sum(i.p) > 0]
    for inst in insts:
        e = split_accuracy(Fraction(1))
        grid = GeometricGrid.build(inst, e)
        cands = list(candidates_for(inst))
        for _ in range(25):
            j = rng.uniform(0, grid.J)
            pt = grid.point(j)
            a = cands[rng.uniform(0, len(cands) - 1)]
            bits = [rng.uniform(0, 1) for _ in range(inst.n)]
            x = xvec(inst, bits)
            exact = surviving_reduced_profit(inst, x, a)
            rounded = rounded_mass(inst, bits, a, pt.delta)
            assert exact <= rounded <= exact + e * pt.z
            # same sandwich for the minimised bounds, pruning-free
            g_exact, _ = dual_bound_exact(inst, a)
            g_rounded = dot_capacity(inst, a) + min(
                rounded_mass(inst, b, a, pt.delta)
                for b in product((0, 1), repeat=inst.n)
                if sum(c for c, bb in zip(inst.c, b) if bb) <= inst.B
            )
            assert g_exact <= g_rounded <= g_exact + e * pt.z


def test_survivor_never_pruned_at_feasible_levels():
    for inst in family(seed=76, count=10, n_lo=1, n_hi=7):
        opt, opt_bits = brute_force_opt_f(inst)
        if opt == 0:
            continue
        e = split_accuracy(Fraction(1))
        grid = GeometricGrid.build(inst, e)
        cands = list(candidates_for(inst))
        x_hat = xvec(inst, opt_bits)
        # the candidate achieving equality in the dual lower bound
        a_hat = min(
            cands,
            key=lambda a: dot_capacity(inst, a)
            + surviving_reduced_profit(inst, x_hat, a),
        )
        for j in range(grid.J + 1):
            pt = grid.point(j)
            if pt.z < opt:
                continue
            mass = rounded_mass(inst, opt_bits, a_hat, pt.delta)
            assert mass <= (1 + e) * pt.z
            assert mass / pt.delta <= grid.kmax


# end-to-end approximation

def test_approx_fractional_t1_envelope():
    sol = approx_fractional_optimum(T1, Fraction(1))
    assert sol.guarantee == GUARANTEE_OPT_F
    assert sol.f_value <= (1 + 1) * 2  # oracle OPT_F = 2
    assert sol.f_value == fractional_value(T1, xvec(T1, sol.x))
    assert sum(b * c for b, c in zip(sol.x, T1.c)) <= T1.B


def test_approx_fractional_guarantee_envelope_many_eps():
    for inst in family(seed=77, count=8, n_lo=1, n_hi=7):
        opt, _ = brute_force_opt_f(inst)
        for eps in (Fraction(2), Fraction(1), Fraction(1, 2), Fraction(1, 10)):
            sol = approx_fractional_optimum(inst, eps)
            assert sol.f_value <= (1 + eps) * opt
            if sol.z_star is not None:
                assert sol.z_star <= (1 + split_accuracy(eps)) * opt


def test_approx_fractional_zero_profit_shortcut():
    inst = Instance(n=2, t=1, p=(0, 0), c=(3, 3), W=((1, 1),), B=0, C=(2,))
    sol = approx_fractional_optimum(inst, Fraction(1))
    assert sol.f_value == 0 and sol.guarantee == GUARANTEE_EXACT
    assert sol.x == (0, 0) and sol.z_star is None and sol.stats.dp_tables == 0


def test_approx_fractional_budget_covers_profitable_items():
    inst = Instance(n=3, t=1, p=(4, 0, 2), c=(1, 9, 1), W=((1, 1, 1),), B=2, C=(3,))
    sol = approx_fractional_optimum(inst, Fraction(1))
    assert sol.f_value == 0 and sol.guarantee == GUARANTEE_EXACT
    assert sol.x == (1, 0, 1)


def test_approx_fractional_rejects_bad_eps():
    with pytest.raises(NonpositiveEpsError):
        approx_fractional_optimum(T1, Fraction(0))
    with pytest.raises(NonpositiveEpsError):
        approx_interdiction(T1, -1)


def test_approx_fractional_refuses_a_set_prepared_for_a_smaller_slack():
    # a set bounded for a smaller slack could miss the FPTAS's minimiser
    inst = generate_instance(n=8, t=2, seed=1)
    half = prepare(inst, Fraction(1, 2))
    assert approx_fractional_optimum(inst, Fraction(1, 2), prepared=half) == (
        approx_fractional_optimum(inst, Fraction(1, 2))
    )
    approx_fractional_optimum(inst, Fraction(1, 3), prepared=half)
    with pytest.raises(ValueError, match="below the accuracy 1/2"):
        approx_fractional_optimum(inst, Fraction(1, 2), prepared=prepare(inst, 0))
    # t = 2: eps = 1 runs the relaxation at 1/3
    with pytest.raises(ValueError, match="below the accuracy 1/3"):
        approx_interdiction(inst, 1, prepared=prepare(inst, Fraction(1, 4)))
    with pytest.raises(ValueError, match="slack must be non-negative"):
        prepare(inst, -1)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda t: instance_strategy(max_n=6, t=t)))
def test_bounded_prepare_gives_the_full_sets_answers(inst):
    # solve and the exact scan over the vertices within prepare's bound
    # give what they give over every vertex; only the counts may differ
    reduced, index_map = preprocess(inst)
    full = dual_vertex_candidates(reduced)
    for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 10)):
        slack = eps / (1 + inst.t)
        bounded = prepare(inst, slack)
        whole = PreparedInstance(reduced, index_map, full, slack)
        got, want = (approx_interdiction(inst, eps, prepared=pr) for pr in (bounded, whole))
        fields = ("x", "f_value", "z_star", "alpha_star", "guarantee", "additive_cert")
        assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
        assert got.stats.candidates in (0, len(bounded.candidates))
        assert got.f_value <= bounded.candidates.bound
    exact = prepare(inst, 0).candidates
    assert exact_fractional_optimum(reduced, exact) == exact_fractional_optimum(reduced, full)


def test_approx_interdiction_t1():
    sol = approx_interdiction(T1, Fraction(1, 2))
    assert sol.guarantee == GUARANTEE_SINGLE
    k = best_integer_packing(T1, xvec(T1, sol.x))
    assert k <= Fraction(5, 2) * 2  # oracle OPT_I = 2


def test_approx_interdiction_t2():
    sol = approx_interdiction(T2, Fraction(1))
    assert sol.guarantee == GUARANTEE_MULTI
    k = best_integer_packing(T2, xvec(T2, sol.x))
    assert k <= (1 + T2.t + 1) * 3  # oracle OPT_I(T2) = 3


def test_approx_interdiction_empty_instance():
    sol = approx_interdiction(EMPTY, Fraction(1))
    assert sol.f_value == 0 and sol.x == ()


def test_approx_interdiction_dropped_items_stay_uninterdicted():
    # second item cannot be packed; reporting must keep original indexing
    inst = Instance(n=2, t=1, p=(3, 9), c=(1, 1), W=((2, 5),), B=1, C=(2,))
    sol = approx_interdiction(inst, Fraction(1, 2))
    assert len(sol.x) == 2 and sol.x[1] == 0
    assert sol.x == (1, 0) and sol.f_value == 0


def test_state_bound_per_table():
    for inst in family(seed=78, count=6, n_lo=1, n_hi=8):
        for eps in (Fraction(1), Fraction(1, 2)):
            e = split_accuracy(eps)
            if sum(inst.p) == 0:
                continue
            grid = GeometricGrid.build(inst, e)
            bound = inst.n * (ceil_div(inst.n * (1 + e), e) + 1)
            cands = candidates_for(inst)
            for j in (0, grid.J // 2, grid.J):
                pt = grid.point(j)
                units = rounded_profit_units(inst, dual_point(0), pt.delta)
                table = min_budget_table(units, inst.c, inst.B, grid.kmax)
                assert table.states <= bound


def test_solution_additive_cert_is_f_minus_max_survivor():
    sol = approx_interdiction(T1, Fraction(1, 2))
    survivors = [p for p, b in zip(T1.p, sol.x) if not b]
    assert sol.additive_cert == sol.f_value - max(survivors, default=0)


def test_t1_scan_records_ambiguous_slot_outcome():
    # at eps' = 2/5 the grid point z = 49/25 sits in the one ambiguous slot
    # below the optimum 2; whatever it does, acceptance stays upward closed
    e = Fraction(2, 5)
    grid = GeometricGrid.build(T1, e)
    cands = dual_breakpoints(T1)
    scan = [accept_level(T1, grid, j, cands).passed for j in range(grid.J + 1)]
    assert grid.point(2).z == Fraction(49, 25)
    for j in range(grid.J + 1):
        z = grid.point(j).z
        if z >= 2:  # oracle OPT_F = 2
            assert scan[j]
        if z < 2 / (1 + e):
            assert not scan[j]
    first = scan.index(True)
    assert all(scan[first:])


def test_huge_values_stay_polynomial():
    # the grid search must not touch any pseudopolynomial path: values far
    # beyond 64 bits only enter logarithmically via the grid length
    big = 10**24
    inst = Instance(
        n=4,
        t=1,
        p=(3 * big, 2 * big, 5 * big, big),
        c=(big, big, 2 * big, big),
        W=((2 * big, 2 * big, 3 * big, big),),
        B=2 * big,
        C=(3 * big,),
    )
    opt, _ = brute_force_opt_f(inst)  # greedy per interdiction, no DP
    assert opt > 0
    sol = approx_interdiction(inst, Fraction(1))
    assert sol.f_value <= (1 + Fraction(1, 2)) * opt  # inner accuracy eps/2
    assert sum(c for c, b in zip(inst.c, sol.x) if b) <= inst.B



@settings(max_examples=120, deadline=None)
@given(
    instance_strategy(max_n=6, t=1, max_value=9),
    st.integers(0, 2**32),
)
def test_unit_form_equals_sequential_rounding_property(inst, seed):
    if inst.n == 0:
        return
    rng = SplitMix64(seed)
    bits = [rng.uniform(0, 1) for _ in range(inst.n)]
    a = dual_point(random_rat(rng, max_num=12))
    delta = Fraction(rng.uniform(1, 30), rng.uniform(1, 12))
    assert rounded_mass(inst, bits, a, delta) == sequential_rounded_mass(
        inst, bits, a, delta
    )


def test_units_integer_rounding_matches_fraction_reference_beyond_64_bits():
    big = 2**70
    rng = SplitMix64(19)
    n = 10
    p = tuple(big * rng.uniform(1, 60) + rng.uniform(0, 999) for _ in range(n))
    W = tuple(
        tuple(big * rng.uniform(0, 9) + rng.uniform(0, 999) for _ in range(n))
        for _ in range(3)
    )
    inst = Instance(n=n, t=3, p=p, c=(1,) * n, W=W, B=1, C=(big,) * 3)
    alphas = [
        dual_point(0, 0, 0),
        dual_point(Fraction(1, 3), Fraction(2, 7), Fraction(5, 12)),
        dual_point(Fraction(7, 3), Fraction(5, 2), Fraction(1, 6)),
        dual_point(0, Fraction(3, 2), Fraction(1, 10**30 + 1)),
    ] + [
        dual_point(*(random_rat(rng, max_num=40, max_den=97) for _ in range(3)))
        for _ in range(6)
    ]
    deltas = [Fraction(big, 7), Fraction(1, 3), Fraction(10**25 + 3, 2**66)]
    zero = positive = 0
    for a in alphas:
        for delta in deltas:
            units = rounded_profit_units(inst, a, delta)
            assert units == [
                ceil_div(reduced_profit(inst, i, a), delta) for i in range(n)
            ]
            zero += units.count(0)
            positive += n - units.count(0)
    assert zero > 0 and positive > 0


def test_traceback_interdicts_zero_unit_items_iff_free():
    rng = SplitMix64(20)
    for _ in range(80):
        m = rng.uniform(1, 7)
        units = [rng.uniform(0, 4) * rng.uniform(0, 1) for _ in range(m)]
        costs = [rng.uniform(0, 3) for _ in range(m)]
        kmax = rng.uniform(0, 12)
        for budget in range(sum(costs) + 1):
            k = least_units_within(units, costs, budget, kmax)
            if k is None:
                continue
            bits = min_budget_table(units, costs, budget, kmax).traceback(k)
            for u, c, b in zip(units, costs, bits):
                if u == 0:
                    assert b == (1 if c == 0 else 0)


@st.composite
def screened_instances(draw, ts=(1, 2)):
    """Small instances, t drawn from ts, with zero costs, costs above the
    budget, and values scaled beyond 2**64."""
    t = draw(st.sampled_from(ts))
    inst = draw(instance_strategy(max_n=5, t=t, max_value=9))
    scale = draw(st.sampled_from([1, 2**64 + 13]))
    return Instance(
        n=inst.n, t=t, p=tuple(v * scale for v in inst.p), c=inst.c,
        W=tuple(tuple(v * scale for v in row) for row in inst.W), B=inst.B,
        C=tuple(v * scale for v in inst.C),
    )


def unlimited_level(inst, grid, j, cands):
    """Reference acceptance test: every candidate's full dense table traced
    back, no limit, screen or value-only DP.  Also returns how many
    candidates have alpha . C within the limit, the nominal table count."""
    point = grid.point(j)
    limit = (1 + grid.eps_internal) * point.z
    best = None
    for a in cands:
        units = rounded_profit_units(inst, a, point.delta)
        table = dense_min_budget_table(units, inst.c, grid.kmax)
        k = min_units_within(table, inst.B)
        if k is None:
            continue
        value = dot_capacity(inst, a) + k * point.delta
        if best is None or value < best[0]:
            best = (value, table.traceback(k), a)
    passed = best is not None and best[0] <= limit
    within = sum(1 for a in cands if dot_capacity(inst, a) <= limit)
    return passed, best, within


# eps' = 4987/10^6: a 2**64-scaled instance's grid has about 10^4 levels,
# so its middle and top limits carry denominators of tens of thousands of
# digits
FINE_EPS = Fraction(1, 100)


@settings(max_examples=80, deadline=None)
@given(
    screened_instances(),
    st.sampled_from([Fraction(1), Fraction(1, 2), FINE_EPS]),
)
def test_limited_accept_level_matches_unlimited_reference(inst, eps):
    if inst.n == 0 or sum(inst.p) == 0:
        return
    grid = GeometricGrid.build(inst, split_accuracy(eps))
    cands = candidates_for(inst)
    levels = (0, grid.J // 2, grid.J) if eps == FINE_EPS else range(grid.J + 1)
    for j in levels:
        passed, best, within = unlimited_level(inst, grid, j, cands)
        res = accept_level(inst, grid, j, cands)
        assert res.passed == passed
        assert res.dp_tables == within
        if passed:
            bits = candidate_bits(inst, res.winner)
            assert (res.winner.value, bits, res.winner.alpha) == best


def test_accept_level_keeps_candidate_whose_alpha_c_equals_the_limit():
    # eps' = 1, level 1: z = 2 and limit = 4 = alpha . C for alpha = 2, whose
    # reduced profit is 0, so the bound is exactly the limit and passes
    inst = Instance(n=1, t=1, p=(4,), c=(1,), W=((2,),), B=0, C=(2,))
    grid = GeometricGrid.build(inst, Fraction(1))
    only = CandidateSet(points=(dual_point(2),), inst=inst)
    res = accept_level(inst, grid, 1, only)
    assert res.passed and res.winner.value == 4 and res.dp_tables == 1


def test_accept_level_tie_goes_to_the_earlier_candidate():
    # eps' = 1, level 1: delta = 2 and limit = 4.  alpha = 0 keeps the whole
    # profit 4 = 2 units of delta; alpha = 2 pays alpha . C = 4 and keeps
    # nothing.  Both bounds are 4, so whichever comes first wins.
    inst = Instance(n=1, t=1, p=(4,), c=(1,), W=((2,),), B=0, C=(2,))
    grid = GeometricGrid.build(inst, Fraction(1))
    zero, two = dual_point(0), dual_point(2)
    for order in ((zero, two), (two, zero)):
        cands = CandidateSet(points=order, inst=inst)
        res = accept_level(inst, grid, 1, cands)
        assert res.passed and res.winner.value == 4
        assert res.winner.alpha == order[0]
        assert res.dp_tables == 2


@settings(max_examples=80, deadline=None)
@given(
    screened_instances(ts=(1, 2, 3)),
    st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(1, 10)]),
)
def test_bracketed_search_matches_the_plain_binary_search(inst, eps):
    if inst.n == 0 or sum(inst.p) == 0:
        return
    grid = GeometricGrid.build(inst, split_accuracy(eps))
    cands = candidates_for(inst)
    assert search_optimum_guess(inst, grid, cands) == plain_search_optimum_guess(
        inst, grid, cands
    )


@settings(max_examples=60, deadline=None)
@given(screened_instances(), st.sampled_from([Fraction(1), Fraction(1, 3)]))
def test_dantzig_lower_bound_is_below_exact_and_every_rounded_value(inst, eps):
    if inst.n == 0 or sum(inst.p) == 0:
        return
    grid = GeometricGrid.build(inst, split_accuracy(eps))
    cands = candidates_for(inst)
    for i, a in enumerate(cands):
        lower = Fraction(cands.lower_bound(i), a[0])
        assert lower >= dot_capacity(inst, a)
        assert lower <= dual_bound_exact(inst, a)[0]
        for j in range(grid.J + 1):
            point = grid.point(j)
            value = unlimited_rounded_dual_bound(inst, a, point, grid.kmax).value
            assert value is None or lower <= value
