from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kinterdict import dual
from kinterdict.dual import (
    dual_bound_exact,
    dual_breakpoints,
    dual_vertex_candidates,
    exact_fractional_optimum,
    fractional_value,
)
from kinterdict.generator import SplitMix64, generate_instance
from kinterdict.instance import Instance, InterdictionVector
from kinterdict.linalg import _laplace_plan
from kinterdict.nominal import (
    DimensionMismatchError,
    StateLimitError,
    fractional_knapsack,
    knapsack_max_budget,
    lp_least_units,
)
from kinterdict.oracles import brute_force_opt_f, vertex_lp_optimum

from conftest import (
    T1,
    T2,
    all_interdictions,
    alpha_of,
    dense_knapsack_max_budget,
    dot_capacity,
    dual_point,
    edge_family,
    family,
    instance_strategy,
    random_rat,
    reduced_profit,
    reference_vertex_candidates,
    surviving_reduced_profit,
    unpruned_fractional_value,
)


def xvec(inst, bits):
    return InterdictionVector.from_bits(bits, inst.c)


def alphas(cs):
    return [alpha_of(pt) for pt in cs]


# surviving_reduced_profit

def test_reduced_profit_sum_t1_unit_alpha():
    val = surviving_reduced_profit(T1, xvec(T1, (0, 0)), dual_point(1))
    assert val == 1  # max(0, 3-2) + max(0, 2-2)


def test_reduced_profit_sum_alpha_zero_is_plain_profit():
    for bits in ((0, 0), (1, 0), (0, 1), (1, 1)):
        val = surviving_reduced_profit(T1, xvec(T1, bits), dual_point(0))
        assert val == sum(p for p, b in zip(T1.p, bits) if not b)


def test_reduced_profit_sum_huge_alpha_leaves_zero_weight_items():
    inst = Instance(n=2, t=1, p=(5, 9), c=(1, 1), W=((0, 3),), B=1, C=(4,))
    val = surviving_reduced_profit(inst, xvec(inst, (0, 0)), dual_point(1000))
    assert val == 5


def test_reduced_profit_sum_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        surviving_reduced_profit(T1, xvec(T1, (0, 0)), dual_point(1, 1))


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


@st.composite
def arrangement_instances(draw):
    """t = 1, 2, 3, 4 and 8 instances with zero profits and weights (values
    from 0), optionally a row that is a multiple of another (parallel
    planes), a duplicated item, and every value but the costs scaled beyond
    2**64.  At t = 1 the vertex walk's only depth is its last; at t = 8 it
    has n <= 3 < t items and never reaches its last depth."""
    t = draw(st.sampled_from((1, 2, 3, 4, 8)))
    max_n = {1: 8, 2: 6, 3: 5, 4: 4, 8: 3}[t]
    inst = draw(instance_strategy(max_n=max_n, t=t, max_value=6))
    p, W = list(inst.p), [list(row) for row in inst.W]
    if t >= 2 and draw(st.booleans()):
        src, dst = draw(st.permutations(range(t)))[:2]
        k = draw(st.integers(0, 3))
        W[dst] = [k * v for v in W[src]]
    if inst.n >= 2 and draw(st.booleans()):
        p[1] = p[0]
        for row in W:
            row[1] = row[0]
    k = draw(st.sampled_from((1, 2**64 + 13)))
    return Instance(
        n=inst.n, t=t, p=tuple(v * k for v in p), c=inst.c,
        W=tuple(tuple(v * k for v in row) for row in W), B=inst.B,
        C=tuple(v * k for v in inst.C),
    )


@settings(max_examples=300, deadline=None)
@given(arrangement_instances(), st.data())
# items 0 and 1 have proportional rows and item 2 all-zero ones, so the
# vertex walk skips the all-zero node {2} at depth 1 and the dependent node
# {0, 1} at depth 2, and with them every subset that holds either
@example(
    Instance(
        n=4, t=3, p=(3, 6, 0, 4), c=(1, 2, 1, 1),
        W=((1, 2, 0, 2), (2, 4, 0, 1), (1, 2, 0, 3)), B=2, C=(4, 5, 6),
    ),
    None,
)
# t = 1: every node is at the last depth, a zero weight gives no point
@example(
    Instance(n=4, t=1, p=(3, 0, 4, 2), c=(1, 1, 2, 1), W=((2, 5, 0, 1),), B=2, C=(3,)),
    None,
)
# t = 8 with 3 items: the walk stops at depth 3 and reads zero-sets of 5 to 7
@example(
    Instance(
        n=3, t=8, p=(4, 3, 5), c=(1, 1, 1),
        W=((1, 2, 0), (0, 1, 3), (2, 0, 1), (1, 1, 1), (3, 0, 2), (0, 2, 2), (2, 4, 0), (1, 0, 0)),
        B=1, C=(2, 3, 1, 2, 4, 2, 3, 1),
    ),
    None,
)
def test_vertex_candidates_and_fractional_value_match_references(inst, data):
    cs = dual_vertex_candidates(inst)
    # the reference's points, in the reduced form computed afresh
    assert list(cs) == reference_vertex_candidates(inst)
    # the alpha . C order: by value, ties by index
    bases = [dot_capacity(inst, a) for a in cs]
    assert list(cs.order) == sorted(range(len(cs)), key=bases.__getitem__)
    # an explicit example has no data and checks every interdiction
    if data is None:
        xs = list(all_interdictions(inst))
    else:
        xs = [
            xvec(inst, data.draw(st.tuples(*[st.integers(0, 1)] * inst.n)))
            for _ in range(3)
        ]
    for x in xs:
        value = fractional_value(inst, x, cs)
        assert value == unpruned_fractional_value(inst, x, cs)
        if inst.t == 1:
            # the oracle's greedy, an independent reference at any n
            assert value == fractional_knapsack(inst, x).value
        if inst.t <= 3 and inst.n <= 4:
            assert value == vertex_lp_optimum(inst, x).value


@settings(max_examples=200, deadline=None)
@given(arrangement_instances())
def test_candidates_are_reduced_int_points_in_lexicographic_order(inst):
    # each point is (L, alpha L) with L > 0, alpha L >= 0 and gcd 1, a form
    # unique per point, and the points are distinct and sorted by alpha
    cs = dual_vertex_candidates(inst)
    for scale, alpha in cs:
        assert scale > 0 and len(alpha) == inst.t and min(alpha, default=0) >= 0
        assert gcd(scale, *alpha) == 1
    assert alphas(cs) == sorted(set(alphas(cs)))


def test_vertex_walk_budget_admits_exactly_its_read_count(monkeypatch):
    # t = 3 and n = 5: the walk reads C(8, 3) - 1 = 55 zero-sets
    inst = generate_instance(n=5, t=3, seed=1, cap_frac=1)
    reads = comb(inst.n + inst.t, inst.t) - 1
    expected = dual_vertex_candidates(inst)
    monkeypatch.setattr(dual, "VERTEX_READ_LIMIT", reads)
    assert dual_vertex_candidates(inst) == expected
    monkeypatch.setattr(dual, "VERTEX_READ_LIMIT", reads - 1)
    message = f"reads {reads} zero-sets, beyond {reads - 1}"
    with pytest.raises(StateLimitError, match=message):
        dual_vertex_candidates(inst)


def test_vertex_walk_cell_budget_admits_exactly_its_largest_table(monkeypatch):
    # t = 4 and n = 3: the walk builds tables of C(5, k) rows of width 5 for
    # k = 1 to 3, the largest of C(5, 2) x 5 = 50 cells
    inst = generate_instance(n=3, t=4, seed=1, cap_frac=1)
    cells = comb(inst.t + 1, 2) * (inst.t + 1)
    expected = dual_vertex_candidates(inst)
    monkeypatch.setattr(dual, "VERTEX_CELL_LIMIT", cells)
    assert dual_vertex_candidates(inst) == expected
    monkeypatch.setattr(dual, "VERTEX_CELL_LIMIT", cells - 1)
    message = f"builds a cofactor table of {cells} cells, beyond {cells - 1}"
    with pytest.raises(StateLimitError, match=message):
        dual_vertex_candidates(inst)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(lambda t: instance_strategy(max_n=6, t=t)), st.data())
# item 1's plane lies beyond the bound 2 (its vertex alpha = 3 has
# alpha . C = 3), and item 0's vertex alpha = 2 sits on the bound
@example(
    Instance(n=2, t=1, p=(2, 3), c=(1, 1), W=((1, 1),), B=1, C=(1,)),
    Fraction(2),
)
def test_bounded_vertex_set_is_the_full_set_cut_at_the_bound(inst, data):
    # the walk over the items within the bound, cut after the walk, keeps
    # exactly the full set's vertices with alpha . C <= T, in its order
    full = dual_vertex_candidates(inst)
    bases = [dot_capacity(inst, a) for a in full]
    if isinstance(data, Fraction):
        bound = data
    else:
        bound = data.draw(
            st.sampled_from(bases) | st.fractions(min_value=0, max_value=3 * max(bases))
        )
    cut = dual_vertex_candidates(inst, bound)
    assert cut.bound == bound and cut.C == inst.C
    assert list(cut) == [a for a, base in zip(full, bases) if base <= bound]


def test_bounded_walk_counts_its_budgets_over_every_item(monkeypatch):
    # a bound of 0 leaves none of these items, all of positive profit, in
    # the walk, but the budget is that of the walk over all n items, known
    # before any item is dropped
    inst = generate_instance(n=5, t=3, seed=1, cap_frac=1)
    reads = comb(inst.n + inst.t, inst.t) - 1
    assert list(dual_vertex_candidates(inst, 0)) == [(1, (0, 0, 0))]
    monkeypatch.setattr(dual, "VERTEX_READ_LIMIT", reads - 1)
    with pytest.raises(StateLimitError, match=f"reads {reads} zero-sets"):
        dual_vertex_candidates(inst, 0)
    with pytest.raises(ValueError, match="bound must be non-negative"):
        dual_vertex_candidates(T1, -1)


def test_plan_caches_stay_within_their_bounds():
    # 13 widths at depth 3 ask for 39 plans of each kind
    for t in range(2, 41, 3):
        dual_vertex_candidates(generate_instance(n=3, t=t, seed=1, cap_frac=1))
    for cache in (_laplace_plan, dual._vertex_reads):
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize


def test_vertex_candidates_beyond_64_bits_t4():
    k = 2**64 + 7
    inst = _beyond_64_bits(
        Instance(
            n=5, t=4, p=(4, 3, 5, 2, 6), c=(1,) * 5,
            W=((2, 1, 0, 3, 1), (1, 2, 1, 0, 2), (0, 1, 3, 1, 1), (2, 2, 2, 2, 2)),
            B=2, C=(5, 4, 6, 7),
        ),
        k,
    )
    cs = dual_vertex_candidates(inst)
    assert alphas(cs) == alphas(reference_vertex_candidates(inst))
    assert any(q.denominator > 2**64 for a in cs for q in alpha_of(a))
    for x in all_interdictions(inst):
        assert fractional_value(inst, x, cs) == unpruned_fractional_value(inst, x, cs)


# dual bound and the exact solver

def test_dual_bound_t1_values():
    value, x = dual_bound_exact(T1, dual_point(1))
    assert value == 2 and x.bits == (1, 0)
    value, x = dual_bound_exact(T1, dual_point(0))
    assert value == 2 and x.bits == (1, 0)
    value, x = dual_bound_exact(T1, dual_point(Fraction(3, 2)))
    assert value == 3
    assert x.feasible(T1.B)


def test_exact_optimum_t1():
    value, x, alpha = exact_fractional_optimum(T1)
    assert value == 2 and x.bits == (1, 0)
    assert alpha == dual_point(0)  # tied with alpha=1, first sorted wins


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


def test_fractional_value_with_shared_candidates_t1_t2_t3():
    small = (
        family(seed=49, count=4, n_lo=2, n_hi=6, t=1)
        + family(seed=50, count=4, n_lo=2, n_hi=5, t=2)
        + family(seed=51, count=3, n_lo=2, n_hi=4, t=3)
    )
    big = [_beyond_64_bits(inst, 2**64 + 7) for inst in small]
    largest = 0
    for inst in small + big:
        shared = dual_vertex_candidates(inst)
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
            a = dual_point(random_rat(rng))
            bound = dot_capacity(inst, a) + surviving_reduced_profit(inst, x, a)
            assert fractional_knapsack(inst, x).value <= bound


def test_breakpoint_completeness_with_midpoint_scan():
    for inst in edge_family(seed=46, count=12, n_hi=6):
        points = [pt for pt in dual_breakpoints(inst)]
        values = [alpha_of(pt)[0] for pt in points]
        mids = [dual_point((a + b) / 2) for a, b in zip(values, values[1:])]
        for x in all_interdictions(inst):
            f = fractional_knapsack(inst, x).value
            best = min(
                dot_capacity(inst, pt) + surviving_reduced_profit(inst, x, pt)
                for pt in points
            )
            assert best == f
            for pt in mids:
                assert (
                    dot_capacity(inst, pt)
                    + surviving_reduced_profit(inst, x, pt)
                    >= best
                )


def test_piecewise_linearity_between_breakpoints():
    insts = [T1] + edge_family(seed=47, count=8, n_hi=5)
    for inst in insts:
        values = [alpha_of(pt)[0] for pt in dual_breakpoints(inst)]
        for x in all_interdictions(inst):
            def h(a):
                pt = dual_point(a)
                return dot_capacity(inst, pt) + surviving_reduced_profit(
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
    for a in dual_vertex_candidates(inst):
        reduced = [reduced_profit(inst, i, a) for i in range(inst.n)]
        answer = dense_knapsack_max_budget(reduced, inst.c, inst.B)
        value = dot_capacity(inst, a) + sum(reduced) - answer.value
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
    assert [dual_bound_exact(inst, dual_point(v))[0] for v in (0, 1, 3)] == [6] * 3
    built = []
    original = dual.dual_bound_exact
    monkeypatch.setattr(
        dual, "dual_bound_exact", lambda inst, a: built.append(a) or original(inst, a)
    )
    value, x, alpha = exact_fractional_optimum(inst)
    assert (value, x.bits, alpha) == (6, (1, 0), dual_point(0))
    assert built == [dual_point(0)]


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
    # the floor of the LP relaxation's most removed profit is the total
    # less the ceiling of its least kept profit
    profits = [r for r, _ in items]
    costs = [c for _, c in items]
    bound = sum(profits) - lp_least_units(profits, costs, budget)
    best = knapsack_max_budget(profits, costs, budget).value
    assert bound >= best
    if sum(costs) <= budget:
        assert bound == best
