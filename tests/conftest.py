from fractions import Fraction
from itertools import product

import pytest
from hypothesis import strategies as st

from kinterdict.generator import SplitMix64, generate_instance
from kinterdict.instance import Instance, InterdictionVector, preprocess
from kinterdict.nominal import DimensionMismatchError

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


def min_units_within(table, budget) -> int | None:
    """Smallest unit target k with table.rows[0][k] <= budget, if any: the
    dense reference for fptas.least_units_within."""
    for k, need in enumerate(table.rows[0]):
        if need <= budget:
            return k
    return None


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
