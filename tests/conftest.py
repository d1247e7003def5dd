import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import strategies as st

from kinterdict.generator import SplitMix64, generate_instance
from kinterdict.instance import (
    FractionalPacking,
    Instance,
    InterdictionVector,
    preprocess,
)
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


def reduced_profit(inst: Instance, item: int, a) -> Fraction:
    """max(0, p_i - w_i . alpha): the tests' reduced-profit reference."""
    r = inst.p[item] - sum(inst.W[j][item] * a.alpha[j] for j in range(inst.t))
    return r if r > 0 else Fraction(0)


def surviving_reduced_profit(inst: Instance, x: InterdictionVector, a) -> Fraction:
    """Total reduced profit an interdiction leaves behind, in Fractions."""
    if len(a.alpha) != inst.t:
        raise DimensionMismatchError(
            f"dual point has {len(a.alpha)} components, instance has t={inst.t}"
        )
    if len(x.bits) != inst.n:
        raise DimensionMismatchError("interdiction length does not match instance")
    return sum(
        (reduced_profit(inst, i, a) for i in range(inst.n) if not x.bits[i]),
        start=Fraction(0),
    )


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
