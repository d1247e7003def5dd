import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import strategies as st

from kinterdict.fptas import InternalInvariantError, accept_level, rounded_dual_bound
from kinterdict.generator import SplitMix64, generate_instance
from kinterdict.instance import (
    FractionalPacking,
    Instance,
    InterdictionVector,
    preprocess,
)
from kinterdict.linalg import solve_square_system
from kinterdict.nominal import DimensionMismatchError, KnapsackAnswer

# Hand-checked fixtures.  Every quoted number below was verified against the
# brute-force oracles before being frozen here.
T1 = Instance(n=2, t=1, p=(3, 2), c=(1, 1), W=((2, 2),), B=1, C=(2,))
T2 = Instance(n=2, t=2, p=(4, 3), c=(1, 1), W=((2, 1), (1, 2)), B=1, C=(2, 2))
EMPTY = Instance(n=0, t=1, p=(), c=(), W=((),), B=0, C=(0,))


@pytest.fixture
def t1():
    return T1


@pytest.fixture
def t2():
    return T2


@pytest.fixture
def empty():
    return EMPTY


def all_interdictions(inst: Instance):
    """Every 0/1 interdiction of the instance (feasible or not)."""
    for bits in product((0, 1), repeat=inst.n):
        yield InterdictionVector.from_bits(bits, inst.c)


def feasible_interdictions(inst: Instance):
    for x in all_interdictions(inst):
        if x.feasible(inst.B):
            yield x


def family(seed, count, n_lo, n_hi, t=1, pmax=20, wmax=20, cmax=9,
           budget_frac=Fraction(2, 5), cap_frac=Fraction(1, 2)):
    """Deterministic preprocessed instance family for counted checks."""
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        n = rng.uniform(n_lo, n_hi)
        inst = generate_instance(
            n=n, t=t, seed=rng.next_u64(), pmax=pmax, wmax=wmax, cmax=cmax,
            budget_frac=budget_frac, cap_frac=cap_frac,
        )
        out.append(preprocess(inst)[0])
    return out


def edge_family(seed, count, n_hi, t=1, vmax=8):
    """Hand-rolled instances including zero profits, costs, and weights."""
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        n = rng.uniform(0, n_hi)
        p = tuple(rng.uniform(0, vmax) for _ in range(n))
        c = tuple(rng.uniform(0, vmax) for _ in range(n))
        W = tuple(tuple(rng.uniform(0, vmax) for _ in range(n)) for _ in range(t))
        C = tuple(rng.uniform(0, vmax * max(1, n) // 2) for _ in range(t))
        B = rng.uniform(0, max(1, sum(c)))
        inst = Instance(n=n, t=t, p=p, c=c, W=W, B=B, C=C)
        out.append(preprocess(inst)[0])
    return out


def ceil_div(a, d) -> int:
    """Exact ceil(a / d) for a >= 0, d > 0: the tests' rounding reference."""
    if d <= 0:
        raise ValueError(f"divisor must be positive, got {d}")
    if a < 0:
        raise ValueError(f"dividend must be non-negative, got {a}")
    q = Fraction(a) / Fraction(d)
    return -((-q.numerator) // q.denominator)


def dual_point(*values) -> tuple[int, tuple[int, ...]]:
    """The dual point (L, alpha L) of the non-negative rationals alpha, L the
    lcm of their denominators: the reduced int form the vertex walk emits."""
    alpha = [Fraction(v) for v in values]
    scale = math.lcm(*(q.denominator for q in alpha))
    return scale, tuple(q.numerator * (scale // q.denominator) for q in alpha)


def alpha_of(a) -> tuple[Fraction, ...]:
    """The multipliers alpha of a dual point a = (L, alpha L), in Fractions."""
    scale, alpha = a
    return tuple(Fraction(v, scale) for v in alpha)


def reduced_profit(inst: Instance, item: int, a) -> Fraction:
    """max(0, p_i - w_i . alpha): the tests' reduced-profit reference."""
    alpha = alpha_of(a)
    r = inst.p[item] - sum(inst.W[j][item] * alpha[j] for j in range(inst.t))
    return r if r > 0 else Fraction(0)


def dot_capacity(inst: Instance, a) -> Fraction:
    """alpha . C in Fractions: the tests' reference for a candidate's base."""
    return sum((q * c for q, c in zip(alpha_of(a), inst.C)), start=Fraction(0))


def surviving_reduced_profit(inst: Instance, x: InterdictionVector, a) -> Fraction:
    """Total reduced profit an interdiction leaves behind, in Fractions."""
    if len(a[1]) != inst.t:
        raise DimensionMismatchError(
            f"dual point has {len(a[1])} components, instance has t={inst.t}"
        )
    if len(x.bits) != inst.n:
        raise DimensionMismatchError("interdiction length does not match instance")
    return sum(
        (reduced_profit(inst, i, a) for i in range(inst.n) if not x.bits[i]),
        start=Fraction(0),
    )


# A reference for kinterdict.linalg: one square system by elimination.

def cramer_solve(A, b) -> tuple[int, list[int]] | None:
    """(det(A), [det(A_1), ..., det(A_m)]) for square integer A and b, with
    A_i the matrix A whose column i is replaced by b; None when A is singular:
    the reference for linalg.subset_minors and solve_square_system.

    By Cramer's rule the solution of A x = b is x_i = det(A_i) / det(A).
    Gauss-Jordan elimination in Bareiss's fraction-free form (Bareiss 1968)
    keeps every entry an integer: after pivot step k each entry is a
    (k+1) x (k+1) minor of [A | b], so dividing by the previous pivot is
    exact.  A zero pivot is replaced by the first row below with a nonzero
    entry in that column (pivot magnitude is irrelevant in exact
    arithmetic), and each swap flips the sign of the determinant.  At the
    end the last pivot is d = +-det(A) and the right-hand column holds d x.
    The empty system gives (1, []).
    """
    m = len(A)
    # row r holds columns k..m of [A | b] at step k: the columns left of k
    # are no longer read, so they are dropped
    M = [[*row, b_r] for row, b_r in zip(A, b)]
    prev = 1
    sign = 1
    for k in range(m):
        if M[k][0] == 0:
            swap = next((r for r in range(k + 1, m) if M[r][0] != 0), None)
            if swap is None:
                return None
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        pk = M[k][0]
        pivot = M[k][1:]
        for r, row in enumerate(M):
            if r == k:
                M[r] = pivot
            else:
                f = row[0]
                M[r] = [(pk * v - f * pv) // prev for v, pv in zip(row[1:], pivot)]
        prev = pk
    return sign * prev, [sign * row[0] for row in M]


# References for kinterdict.dual's vertex enumeration and F(x) scan: every
# t-subset of the planes solved in Fractions, and every candidate scanned.

def reference_vertex_candidates(inst: Instance) -> list[tuple]:
    """Every t-subset of the n + t hyperplanes {p_i = w_i . alpha} and
    {alpha_j = 0} solved as a t x t system in Fractions; the non-negative
    solutions, deduplicated and sorted as Fraction tuples, as dual_point
    pairs."""
    t = inst.t
    planes = [(inst.weight_of(i), inst.p[i]) for i in range(inst.n)]
    planes += [(tuple(1 if k == j else 0 for k in range(t)), 0) for j in range(t)]
    seen = {tuple([Fraction(0)] * t)}
    for subset in combinations(planes, t):
        sol = solve_square_system([a for a, _ in subset], [b for _, b in subset])
        if sol is not None and all(v >= 0 for v in sol):
            seen.add(tuple(sol))
    return [dual_point(*pt) for pt in sorted(seen)]


def unpruned_fractional_value(
    inst: Instance, x: InterdictionVector, points
) -> Fraction:
    """The dual objective minimised over every candidate, each evaluated in
    ints scaled by its L, in candidate order with no early stop."""
    survivors = [
        (inst.p[i], inst.weight_of(i)) for i in range(inst.n) if not x.bits[i]
    ]
    best = None
    for scale, alpha in points:
        total = sum(aj * cj for aj, cj in zip(alpha, inst.C))
        for p, w in survivors:
            r = p * scale - sum(wj * aj for wj, aj in zip(w, alpha))
            if r > 0:
                total += r
        v = Fraction(total, scale)
        if best is None or v < best:
            best = v
    return best


# References for kinterdict.fptas: the accuracy split by bisection, the
# grid's J by the linear loop, and a candidate's rounded bound with no limit
# below the grid's unit cap.

def bisected_split_accuracy(eps: Fraction) -> Fraction:
    """The largest k / 10^6 with (1 + k / 10^6)^2 <= 1 + eps, found by
    doubling then bisection over exact Fraction tests, or eps / 3 when
    k = 1 already fails; eps must be positive."""
    target = 1 + eps
    d = 10**6

    def ok(k: int) -> bool:
        return Fraction(d + k, d) ** 2 <= target

    if not ok(1):
        return eps / 3
    lo = 1
    hi = (d * eps.numerator) // (2 * eps.denominator) + 1  # eps' <= eps/2
    while ok(hi):
        hi *= 2
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return Fraction(lo, d)


def linear_grid_J(sum_p: int, eps_internal: Fraction) -> int:
    """The first exponent j with (1 + eps')^j >= sum_p, by repeated
    multiplication."""
    base = 1 + eps_internal
    v = Fraction(1)
    J = 0
    while v < sum_p:
        v *= base
        J += 1
    return J


def unlimited_rounded_dual_bound(inst: Instance, a, point, kmax: int):
    """rounded_dual_bound with the unit target capped only at kmax, the
    grid's cap: its limit is alpha . C + kmax delta, which may lie above the
    level's own limit."""
    base = dot_capacity(inst, a)
    return rounded_dual_bound(
        inst, a, point, limit=base + kmax * point.delta, base=base
    )


def plain_search_optimum_guess(inst: Instance, grid, candidates):
    """fptas.search_optimum_guess without its bracket: the binary search over
    [0, J] that scans every level it visits with accept_level, and the top
    level at the end when no level passed; dp_tables sums the scanned
    levels' counts."""
    lowers: dict[int, int] = {}
    dp_tables = 0
    lo, hi, winner = 0, grid.J, None
    while lo < hi:
        mid = (lo + hi) // 2
        res = accept_level(inst, grid, mid, candidates, lowers)
        dp_tables += res.dp_tables
        if res.passed:
            hi, winner = mid, res.winner
        else:
            lo = mid + 1
    if winner is None:
        res = accept_level(inst, grid, hi, candidates, lowers)
        dp_tables += res.dp_tables
        winner = res.winner
    if winner is None:
        raise InternalInvariantError(f"top grid level {hi} rejected")
    return hi, winner, dp_tables


# Dense references for the frontier DPs of kinterdict.nominal and
# kinterdict.fptas: the O(n B) and O(n kmax) tables they replace.

def dense_knapsack_max_budget(profits, costs, budget: int) -> KnapsackAnswer:
    """Most profit selectable within the budget, by the dense O(n B) table
    over profits scaled to ints; the item is selected on ties."""
    m = len(profits)
    fracs = [Fraction(p) for p in profits]
    scale = math.lcm(*(p.denominator for p in fracs)) if m else 1
    ip = [int(p * scale) for p in fracs]
    # rows[k][b] = best value over items k..m-1 with budget b
    rows = [[0] * (budget + 1) for _ in range(m + 1)]
    for k in range(m - 1, -1, -1):
        ci, pi = costs[k], ip[k]
        nxt = rows[k + 1]
        row = nxt[:]
        for b in range(ci, budget + 1):
            row[b] = max(nxt[b], nxt[b - ci] + pi)
        rows[k] = row
    chosen = [0] * m
    cap = budget
    for k in range(m):
        ci, pi = costs[k], ip[k]
        if ci <= cap and pi + rows[k + 1][cap - ci] >= rows[k + 1][cap]:
            chosen[k] = 1
            cap -= ci
    return KnapsackAnswer(value=Fraction(rows[0][budget], scale), chosen=tuple(chosen))


@dataclass(frozen=True)
class DenseBudgetTable:
    """rows[i][k] is the least budget that lets items i..n-1 keep at most k
    units of rounded profit; rows[n] is the all-zero base."""

    units: tuple[int, ...]
    costs: tuple[int, ...]
    kmax: int
    rows: tuple[tuple[int, ...], ...]

    def traceback(self, k: int) -> tuple[int, ...]:
        """Interdiction bits attaining rows[0][k], interdict-first on ties."""
        bits = [0] * len(self.units)
        cur = k
        for i, (u, ci) in enumerate(zip(self.units, self.costs)):
            nxt = self.rows[i + 1]
            if cur < u or ci + nxt[cur] <= nxt[cur - u]:
                bits[i] = 1
            else:
                cur -= u
        return tuple(bits)


def dense_min_budget_table(units, costs, kmax: int) -> DenseBudgetTable:
    """The dense min-budget table, columns 0..kmax."""
    m = len(units)
    rows: list = [None] * (m + 1)
    rows[m] = (0,) * (kmax + 1)
    for i in range(m - 1, -1, -1):
        u, ci = units[i], costs[i]
        nxt = rows[i + 1]
        rows[i] = tuple(
            min(ci + nxt[k], nxt[k - u]) if k >= u else ci + nxt[k]
            for k in range(kmax + 1)
        )
    return DenseBudgetTable(
        units=tuple(units), costs=tuple(costs), kmax=kmax, rows=tuple(rows)
    )


def min_units_within(table, budget) -> int | None:
    """Smallest unit target k with table.rows[0][k] <= budget, if any: the
    dense reference for nominal.least_units_within."""
    for k, need in enumerate(table.rows[0]):
        if need <= budget:
            return k
    return None


def enumerated_opt_i(inst: Instance):
    """(opt_i, optima) by plain enumeration: every budget-feasible
    interdiction in increasing bitmask order (item i is bit i), each valued
    by its best packing over every subset of its survivors.  The reference
    for oracles.brute_force_opt_i."""
    best, optima = None, []
    for mask in range(1 << inst.n):
        bits = tuple((mask >> i) & 1 for i in range(inst.n))
        if sum(c for c, b in zip(inst.c, bits) if b) > inst.B:
            continue
        value = max(
            sum(p for p, y in zip(inst.p, ys) if y)
            for ys in product((0, 1), repeat=inst.n)
            if not any(b and y for b, y in zip(bits, ys))
            and all(
                sum(w * y for w, y in zip(row, ys)) <= cap
                for row, cap in zip(inst.W, inst.C)
            )
        )
        if best is None or value < best:
            best, optima = value, [bits]
        elif value == best:
            optima.append(bits)
    return best, tuple(optima)


def enumerated_opt_f(inst: Instance):
    """(opt_f, bits) by plain enumeration: every budget-feasible
    interdiction in increasing bitmask order, each valued by the dual
    objective minimised over every reference vertex, and the first least
    one kept.  The reference for oracles.brute_force_opt_f."""
    points = reference_vertex_candidates(inst)
    best = None
    for mask in range(1 << inst.n):
        bits = tuple((mask >> i) & 1 for i in range(inst.n))
        x = InterdictionVector.from_bits(bits, inst.c)
        if not x.feasible(inst.B):
            continue
        value = unpruned_fractional_value(inst, x, points)
        if best is None or value < best[0]:
            best = (value, bits)
    return best


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


def random_rat(rng: SplitMix64, max_num=40, max_den=12) -> Fraction:
    return Fraction(rng.uniform(0, max_num), rng.uniform(1, max_den))


# hypothesis strategy

@st.composite
def instance_strategy(draw, max_n=6, t=1, max_value=10):
    n = draw(st.integers(0, max_n))
    p = tuple(draw(st.lists(st.integers(0, max_value), min_size=n, max_size=n)))
    c = tuple(draw(st.lists(st.integers(0, max_value), min_size=n, max_size=n)))
    W = tuple(
        tuple(draw(st.lists(st.integers(0, max_value), min_size=n, max_size=n)))
        for _ in range(t)
    )
    C = tuple(draw(st.lists(st.integers(0, 2 * max_value), min_size=t, max_size=t)))
    B = draw(st.integers(0, max(1, sum(c))))
    return Instance(n=n, t=t, p=p, c=c, W=W, B=B, C=C)
