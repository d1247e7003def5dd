"""LP-dual decomposition of the fractional interdiction objective.

For a capacity multiplier vector ``alpha >= 0`` the dual of the packing LP,
after eliminating the per-item multipliers in closed form, leaves

    alpha . C  +  sum over surviving items of max(0, p_i - w_i . alpha).

The packing value F(x) is the minimum of this expression over alpha, and the
minimum is always attained on a finite candidate set: the breakpoint ratios
p_i / w_i for a single capacity, or intersections of t of the n + t
hyperplanes {p_i = w_i . alpha} and {alpha_j = 0} in general.  Minimising
over interdictions at a fixed alpha is a 0-1 knapsack over the reduced
profits, which gives the exact pseudopolynomial solver for the relaxed
optimum.

That solver scans the candidates in sorted order and keeps the first strict
minimum.  A candidate's value is alpha . C + sum r_i - K(r), with r_i the
reduced profits and K(r) the most reduced profit removable within the budget,
so it is at least alpha . C, and at least alpha . C + sum r_i - U for any
upper bound U on K(r).  Dantzig's bound (the LP relaxation of the knapsack,
filled greedily by r_i / c_i) is such a U.  A candidate for which either
lower bound already reaches the incumbent cannot replace it under the strict
update, so its knapsack is never built; the result is exactly that of the
unpruned scan, ties included.  The FPTAS screens its candidates by the same
bound, ``dantzig_lower_bound``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

from .instance import Instance, InterdictionVector, preprocess
from .linalg import solve_square_system
from .nominal import DimensionMismatchError, fractional_knapsack, knapsack_max_budget


@dataclass(frozen=True)
class DualPoint:
    """A componentwise non-negative capacity multiplier vector."""

    alpha: tuple[Fraction, ...]

    def __post_init__(self):
        if any(a < 0 for a in self.alpha):
            raise ValueError("dual multipliers must be non-negative")

    @classmethod
    def of(cls, *values) -> "DualPoint":
        return cls(alpha=tuple(Fraction(v) for v in values))

    def dot_capacity(self, inst: Instance) -> Fraction:
        scale, alpha = self.scaled()
        return Fraction(sum(a * c for a, c in zip(alpha, inst.C)), scale)

    def scaled(self) -> tuple[int, list[int]]:
        """(L, alpha L) with L the lcm of alpha's denominators, all ints."""
        scale = lcm(*(q.denominator for q in self.alpha))
        return scale, [q.numerator * (scale // q.denominator) for q in self.alpha]


@dataclass(frozen=True)
class CandidateSet:
    """Sorted, deduplicated dual candidates; always contains the origin."""

    points: tuple[DualPoint, ...]

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)


def dual_breakpoints(inst: Instance) -> CandidateSet:
    """Candidate multipliers for t = 1: zero plus every ratio p_i / w_i.

    The dual objective is piecewise linear in alpha with breakpoints exactly
    at these ratios, so its minimum over alpha >= 0 is attained here.
    """
    if inst.t != 1:
        raise DimensionMismatchError(f"dual_breakpoints needs t=1, got t={inst.t}")
    values = {Fraction(0)}
    for i in range(inst.n):
        if inst.W[0][i] > 0:
            values.add(Fraction(inst.p[i], inst.W[0][i]))
    return CandidateSet(points=tuple(DualPoint.of(v) for v in sorted(values)))


def dual_vertex_candidates(inst: Instance) -> CandidateSet:
    """Candidate multipliers for any t: vertices of the dual arrangement.

    Every t-subset of the n + t hyperplanes {p_i = w_i . alpha} and
    {alpha_j = 0} contributes its unique solution when the system is
    nonsingular and the solution is componentwise non-negative.  Agrees with
    ``dual_breakpoints`` when t = 1.
    """
    t = inst.t
    # hyperplane as (coefficients, rhs): item planes then coordinate planes
    planes: list[tuple[tuple[int, ...], int]] = []
    for i in range(inst.n):
        planes.append((inst.weight_of(i), inst.p[i]))
    for j in range(t):
        planes.append((tuple(1 if k == j else 0 for k in range(t)), 0))

    seen: set[tuple[Fraction, ...]] = {tuple([Fraction(0)] * t)}
    for subset in combinations(range(len(planes)), t):
        A = [planes[s][0] for s in subset]
        b = [planes[s][1] for s in subset]
        sol = solve_square_system(A, b)
        if sol is None:
            continue
        if any(v < 0 for v in sol):
            continue
        seen.add(tuple(sol))
    return CandidateSet(
        points=tuple(DualPoint(alpha=pt) for pt in sorted(seen))
    )


def candidate_set(inst: Instance) -> CandidateSet:
    """The breakpoints for t = 1, the vertices of the arrangement otherwise."""
    return dual_breakpoints(inst) if inst.t == 1 else dual_vertex_candidates(inst)


@dataclass(frozen=True)
class PreparedInstance:
    """An instance after ``preprocess``, with its dual candidate set.

    Built once per solve and shared by the search, the F(x) computation and
    the certificate check: all three depend on the instance alone.
    """

    reduced: Instance
    index_map: tuple[int | None, ...]
    candidates: CandidateSet


def prepare(inst: Instance) -> PreparedInstance:
    """Preprocess an instance and enumerate the candidates of the result."""
    reduced, index_map = preprocess(inst)
    return PreparedInstance(
        reduced=reduced, index_map=index_map, candidates=candidate_set(reduced)
    )


def scaled_reduced_profits(inst: Instance, scale: int, alpha: list[int]) -> list[int]:
    """max(0, p_i L - w_i . (alpha L)) per item, for (L, alpha L) = a.scaled().

    Built one capacity row at a time, skipping zero multipliers.
    """
    rs = [p * scale for p in inst.p]
    for row, aj in zip(inst.W, alpha):
        if aj:
            rs = [r - w * aj for r, w in zip(rs, row)]
    return [r if r > 0 else 0 for r in rs]


def _dantzig_bound(profits: list[int], costs, budget: int) -> int:
    """Floor of the LP relaxation of a 0-1 knapsack, so at least its optimum.

    Zero-cost items are taken whole, then the others by profit/cost ratio
    until one does not fit and fills the rest of the budget fractionally.
    Items costing more than the budget fit in no selection and are left out.
    """
    total = sum(r for r, c in zip(profits, costs) if c == 0)
    items = [(r, c) for r, c in zip(profits, costs) if r and 0 < c <= budget]
    # d is a common multiple of the costs, so r * (d // c) orders r / c exactly
    d = lcm(*(c for _, c in items))
    items.sort(key=lambda item: item[0] * (d // item[1]), reverse=True)
    rem = budget
    for r, c in items:
        if c > rem:
            return total + r * rem // c
        total += r
        rem -= c
    return total


def dantzig_lower_bound(inst: Instance, a: DualPoint) -> tuple[int, int]:
    """(lower L, L), with L the lcm of alpha's denominators and lower a
    lower bound on the candidate's dual value: alpha . C plus its reduced
    profits minus their Dantzig bound, all in ints scaled by L.

    The FPTAS rounds each reduced profit up, so lower also bounds every
    rounded value of the candidate from below, at every grid level.
    """
    scale, alpha = a.scaled()
    reduced = scaled_reduced_profits(inst, scale, alpha)
    base = sum(aj * cj for aj, cj in zip(alpha, inst.C))
    return base + sum(reduced) - _dantzig_bound(reduced, inst.c, inst.B), scale


def dual_bound_exact(
    inst: Instance, a: DualPoint
) -> tuple[Fraction, InterdictionVector]:
    """Best interdiction under the dual objective at a fixed multiplier.

    Minimising the surviving reduced profit over budget-feasible x is a 0-1
    knapsack: select items to interdict, maximising the reduced profit
    removed.  Returns the exact bound value and the attaining interdiction.
    The knapsack runs on the reduced profits scaled by L to ints; its choices
    compare sums of them only, so they are those of the unscaled profits.
    """
    scale, alpha = a.scaled()
    reduced = scaled_reduced_profits(inst, scale, alpha)
    answer = knapsack_max_budget(reduced, inst.c, inst.B)
    x = InterdictionVector.from_bits(answer.chosen, inst.c)
    base = sum(aj * cj for aj, cj in zip(alpha, inst.C))
    return Fraction(base + sum(reduced) - answer.value, scale), x


def exact_fractional_optimum(
    inst: Instance, candidates: CandidateSet | None = None
) -> tuple[Fraction, InterdictionVector, DualPoint]:
    """Exact relaxed interdiction optimum by scanning the dual candidates.

    Pseudopolynomial: at most one budget knapsack per candidate.  Ties
    between candidates are broken by the first point in sorted order.  A
    shared ``candidates`` must be ``candidate_set(inst)``; it is built when
    omitted.

    Once there is an incumbent value v, a later candidate is skipped when,
    in ints scaled by L, (alpha L) . C >= v L, or else when its
    ``dantzig_lower_bound`` is >= v L.  Both are lower bounds on L times the
    candidate's value, so a skipped candidate could not pass the strict
    ``value < v`` update: the answer is the unpruned scan's, ties included.
    """
    if candidates is None:
        candidates = candidate_set(inst)
    best = None
    for a in candidates:
        if best is not None:
            num, den = best[0].numerator, best[0].denominator
            scale, alpha = a.scaled()
            if sum(aj * cj for aj, cj in zip(alpha, inst.C)) * den >= num * scale:
                continue
            lower, scale = dantzig_lower_bound(inst, a)
            if lower * den >= num * scale:
                continue
        value, x = dual_bound_exact(inst, a)
        if best is None or value < best[0]:
            best = (value, x, a)
    assert best is not None  # candidate set always contains the origin
    return best


def fractional_value(
    inst: Instance, x: InterdictionVector, candidates: CandidateSet | None = None
) -> Fraction:
    """Exact packing LP value F(x): greedy for t = 1, dual scan otherwise.

    The candidate set of ``dual_vertex_candidates`` does not depend on x, so
    minimising the dual objective over it is exact for every interdiction,
    and a caller that evaluates several interdictions of one instance can
    pass the set it already built (t = 1 ignores it).  Each candidate is
    evaluated in integers: with L the lcm of alpha's denominators,
    (alpha L) . C plus the sum of max(0, p_i L - w_i . (alpha L)) over the
    surviving items is L times the dual objective, and one Fraction per
    candidate is built for the comparison.
    """
    if len(x.bits) != inst.n:
        raise DimensionMismatchError("interdiction length does not match instance")
    if inst.t == 1:
        return fractional_knapsack(inst, x).value
    if candidates is None:
        candidates = dual_vertex_candidates(inst)
    survivors = [
        (inst.p[i], inst.weight_of(i)) for i in range(inst.n) if not x.bits[i]
    ]
    best = None
    for a in candidates:
        scale, alpha = a.scaled()
        total = sum(aj * cj for aj, cj in zip(alpha, inst.C))
        for p, w in survivors:
            r = p * scale - sum(wj * aj for wj, aj in zip(w, alpha))
            if r > 0:
                total += r
        v = Fraction(total, scale)
        if best is None or v < best:
            best = v
    assert best is not None
    return best
