"""Polynomial-time approximation of the relaxed interdiction optimum.

The exact dual scan solves one budget knapsack per candidate multiplier,
which is only pseudopolynomial.  To get a true FPTAS we guess the optimum
value z on a geometric grid, round reduced profits up to multiples of
delta = eps * z / n, and replace the budget knapsack by a DP over rounded
profit units that stores the minimum budget per unit target.  A guessed z is
accepted when the best rounded dual bound is at most (1 + eps) * z; the
accepted set is upward closed, so binary search over the grid finds the
smallest accepted guess.  That acceptance limit also bounds the work: a
candidate whose alpha . C alone exceeds it runs no DP, and every other DP
stops at the largest unit target the limit leaves, which keeps every bound
that can pass.  Each candidate's DP is value-only: it keeps a row as its
breakpoints, the unit targets where the least budget drops, and yields the
least feasible target without a table.  Only the winner of the accepted
level builds the dense table, capped at its target, and traces its
interdiction back.  Composing with the integrality gap of the packing LP
turns the (1+eps) guarantee on the relaxed optimum into 2+eps for a single
capacity and 1+t+eps for t capacities.

Internally the requested accuracy eps is split into eps' with
(1 + eps')^2 <= 1 + eps: one factor pays for the grid resolution, the other
for the rounding error.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import neg

from .dual import (
    CandidateSet,
    DualPoint,
    PreparedInstance,
    fractional_value,
    prepare,
)
from .instance import Instance, InterdictionVector, lift_interdiction

GUARANTEE_EXACT = "exact-opt-f"
GUARANTEE_OPT_F = "1+eps-of-opt-f"
GUARANTEE_SINGLE = "2+eps-of-opt-i"
GUARANTEE_MULTI = "1+t+eps-of-opt-i"

_SPLIT_DENOMINATOR = 10**6


class NonpositiveEpsError(ValueError):
    pass


class InternalInvariantError(RuntimeError):
    """A condition the algorithm guarantees failed to hold."""


def split_accuracy(eps) -> Fraction:
    """A rational eps' with 0 < eps' and (1 + eps')^2 <= 1 + eps.

    Uses the largest multiple of 1/10^6 that satisfies the square bound and
    falls back to eps/3 (valid for all eps <= 3) when eps is tiny.  Any such
    under-approximation of sqrt(1+eps) - 1 preserves the guarantee.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise NonpositiveEpsError(f"accuracy must be positive, got {eps}")
    target = 1 + eps
    d = _SPLIT_DENOMINATOR

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


@dataclass(frozen=True)
class GridPoint:
    j: int
    z: Fraction
    delta: Fraction
    kmax: int


@dataclass(frozen=True)
class GeometricGrid:
    """The guesses z = (1 + eps')^j for j in 0..J, with per-point rounding.

    J is the first exponent reaching the total profit, found by exact
    repeated multiplication (no logarithms).  The unit cap kmax is the same
    at every level: floor(n (1+eps') / eps') units of delta cover every
    value the acceptance test can use.
    """

    eps_internal: Fraction
    J: int
    n: int
    sum_p: int

    @classmethod
    def build(cls, inst: Instance, eps_internal: Fraction) -> "GeometricGrid":
        sum_p = sum(inst.p)
        if sum_p <= 0 or inst.n == 0:
            raise ValueError("grid needs a positive total profit")
        base = 1 + eps_internal
        v = Fraction(1)
        J = 0
        while v < sum_p:
            v *= base
            J += 1
        return cls(eps_internal=eps_internal, J=J, n=inst.n, sum_p=sum_p)

    @property
    def kmax(self) -> int:
        q = self.n * (1 + self.eps_internal) / self.eps_internal
        return q.numerator // q.denominator

    def point(self, j: int) -> GridPoint:
        if not 0 <= j <= self.J:
            raise ValueError(f"grid level {j} outside [0, {self.J}]")
        z = (1 + self.eps_internal) ** j
        return GridPoint(
            j=j, z=z, delta=self.eps_internal * z / self.n, kmax=self.kmax
        )


def rounded_profit_units(inst: Instance, a: DualPoint, delta: Fraction) -> list[int]:
    """Each item's reduced profit in units of delta, rounded up.

    Summing these units over surviving items and multiplying by delta equals
    the running-total rounding of the reduced profit sum, because the total
    is a multiple of delta before every addition.  Computed in integers:
    with L the lcm of alpha's denominators, r = p_i L - w_i . (alpha L) is
    the reduced profit times L, and the units are ceil(r / (L delta)).  The
    r are built one capacity row at a time, skipping zero multipliers.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    scale, alpha_scaled = a.scaled()
    num = delta.denominator
    den = delta.numerator * scale
    rs = [p * scale for p in inst.p]
    for row, aj in zip(inst.W, alpha_scaled):
        if aj:
            rs = [r - w * aj for r, w in zip(rs, row)]
    return [-(-r * num // den) if r > 0 else 0 for r in rs]


@dataclass(frozen=True)
class BudgetTable:
    """Budget-valued DP over rounded profit units, with traceback.

    rows[i][k] is the least budget that lets items i..n-1 keep at most k
    units of rounded profit; rows[n] is the all-zero base.  The traceback
    re-derives each branch choice from adjacent rows, preferring the
    interdict branch on ties.
    """

    units: tuple[int, ...]
    costs: tuple[int, ...]
    delta: Fraction
    kmax: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def states(self) -> int:
        return len(self.units) * (self.kmax + 1)

    def traceback(self, k: int) -> tuple[int, ...]:
        """Interdiction bits attaining rows[0][k], interdict-first on ties."""
        bits = [0] * len(self.units)
        cur = k
        for i, (u, ci) in enumerate(zip(self.units, self.costs)):
            nxt = self.rows[i + 1]
            pay = ci + nxt[cur]
            if cur < u or pay <= nxt[cur - u]:
                bits[i] = 1
            else:
                cur -= u
        return tuple(bits)


def min_budget_table(units, costs, delta: Fraction, kmax: int) -> BudgetTable:
    """Build the dense min-budget DP table for the given unit costs.

    The solver builds it only to trace back the accepted level's winner; it
    is also the reference for least_units_within.  rows[i][k] depends only on
    rows[i+1][0..k], so a table built with a smaller kmax agrees with a
    larger one on every column it keeps.  A zero-unit item's row is the
    identity and shares the next row.
    """
    if kmax < 0:
        raise ValueError("kmax must be non-negative")
    m = len(units)
    rows: list = [None] * (m + 1)
    rows[m] = (0,) * (kmax + 1)
    for i in range(m - 1, -1, -1):
        u, ci = units[i], costs[i]
        nxt = rows[i + 1]
        if u == 0:
            rows[i] = nxt
            continue
        row = [ci + v for v in nxt]  # interdict branch
        if u <= kmax:
            row[u:] = [a if a <= b else b for a, b in zip(row[u:], nxt)]
        rows[i] = tuple(row)
    return BudgetTable(
        units=tuple(units),
        costs=tuple(costs),
        delta=delta,
        kmax=kmax,
        rows=tuple(rows),
    )


def least_units_within(units, costs, budget: int, kmax: int) -> int | None:
    """Least k <= kmax with min_budget_table(units, costs, _, kmax).rows[0][k]
    <= budget, or None when there is none.

    The value-only form of that DP, which every candidate runs: it stores
    no table and touches only the row's breakpoints (see _breakpoints).
    """
    ks, _ = _breakpoints(units, costs, budget, kmax)
    return ks[0] if ks else None


def _breakpoints(
    units, costs, budget: int, kmax: int
) -> tuple[list[int], list[int]]:
    """The breakpoints of min_budget_table(units, costs, _, kmax).rows[0]
    from the least feasible unit target on, as lists ks and needs.

    A row is non-increasing in k, so it is kept as its breakpoints: pairs
    (k, need) with k rising and need strictly falling and at most the
    budget; the row's value at k is the need of the last breakpoint at or
    before k, and above the budget before the first.  An item with u units
    and cost c maps the list to the lower envelope of the interdict branch
    (k, need + c) and the keep branch (k + u, need), merged in one pass.
    The row does not depend on the item order; items go in decreasing-unit
    order, and zero-unit items, whose rows are the identity, are left out.
    Keeping every remaining item from the first breakpoint is feasible, so
    no breakpoint beyond that target can lead to the least one; none is
    kept, and the lists end there.  Empty lists mean no target is feasible.
    """
    if budget < 0:
        return [], []
    ks, needs = [0], [0]
    rest = sum(units)
    for u, c in sorted(zip(units, costs), reverse=True):
        if u == 0:
            break
        rest -= u
        cap = min(kmax, ks[0] + u + rest)
        i = bisect_left(needs, c - budget, key=neg)  # first need + c <= budget
        iend = bisect_right(ks, cap)
        j, jend = 0, bisect_right(ks, cap - u)
        nk, nn = [], []
        last = budget + 1
        while i < iend and j < jend:
            k, kb = ks[i], ks[j] + u
            if k <= kb:
                v = needs[i] + c
                i += 1
                if k == kb:
                    if needs[j] < v:
                        v = needs[j]
                    j += 1
            else:
                k, v = kb, needs[j]
                j += 1
            if v < last:
                nk.append(k)
                nn.append(v)
                last = v
        for i in range(i, iend):
            v = needs[i] + c
            if v < last:
                nk.append(ks[i])
                nn.append(v)
                last = v
        for j in range(j, jend):
            if needs[j] < last:
                nk.append(ks[j] + u)
                nn.append(needs[j])
                last = needs[j]
        ks, needs = nk, nn
        if not ks:
            break
    return ks, needs


@dataclass(frozen=True)
class CandidateEval:
    """One dual candidate's rounded bound at one grid point (None = pruned).

    k is the least feasible unit target, so value = alpha . C + k delta, and
    units are the candidate's rounded profits, kept for the traceback.
    dp_states is the nominal size n (kmax + 1) of the DP the candidate ran,
    or 0 when it was skipped without one.
    """

    value: Fraction | None
    k: int | None
    units: list[int] | None
    dp_states: int


def rounded_dual_bound(
    inst: Instance,
    a: DualPoint,
    point: GridPoint,
    limit: Fraction | None = None,
    base: Fraction | None = None,
) -> CandidateEval:
    """Rounded dual objective minimised over budget-feasible interdictions.

    Returns value alpha . C + k* delta, where k* is the least feasible unit
    target found by least_units_within; candidate_bits gives the attaining
    interdiction.  When the unit cap prunes every budget-feasible
    interdiction the result carries value None: the guess z was too small,
    which the caller treats as a rejection signal.

    With a limit, only values at most the limit are sought: a candidate with
    alpha . C > limit returns None without rounding or running the DP, and
    the DP stops at the largest k with alpha . C + k delta <= limit.  Any
    value at most the limit is the same as without it.  ``base`` is
    alpha . C when the caller has it already.
    """
    if base is None:
        base = a.dot_capacity(inst)
    kmax = point.kmax
    if limit is not None:
        if base > limit:
            return CandidateEval(value=None, k=None, units=None, dp_states=0)
        kmax = min(kmax, (limit - base) // point.delta)
    units = rounded_profit_units(inst, a, point.delta)
    k = least_units_within(units, inst.c, inst.B, kmax)
    value = None if k is None else base + k * point.delta
    return CandidateEval(
        value=value, k=k, units=units, dp_states=inst.n * (point.kmax + 1)
    )


def candidate_bits(
    inst: Instance, point: GridPoint, ev: CandidateEval
) -> tuple[int, ...]:
    """The interdiction attaining a candidate's bound, interdict-first on ties.

    Builds the dense table only up to column ev.k: it equals the full table
    on those columns, and the traceback reads no column above its target,
    so the bits are those of the uncapped table.
    """
    table = min_budget_table(ev.units, inst.c, point.delta, ev.k)
    return table.traceback(ev.k)


def _eval_candidate(task) -> CandidateEval:
    inst, a, point, limit, base = task
    return rounded_dual_bound(inst, a, point, limit=limit, base=base)


@dataclass(frozen=True)
class LevelResult:
    """A level's outcome; winner is the best candidate's evaluation (its
    value is the level's best bound), whose interdiction candidate_bits
    traces back."""

    passed: bool
    winner: CandidateEval | None
    alpha: DualPoint | None
    dp_tables: int
    dp_states: int


def accept_level(
    inst: Instance,
    grid: GeometricGrid,
    j: int,
    candidates: CandidateSet,
    mapper=map,
    bases=None,
) -> LevelResult:
    """Evaluate the candidates at grid level j and test acceptance.

    The level passes when the best rounded bound is at most the limit
    (1 + eps') * z_j = z_j + n delta_j.  A candidate whose alpha . C (taken
    from ``bases`` when given, one per candidate) exceeds that limit is
    skipped without a task; the others run the DP only up to the unit
    target the limit leaves, so bounds above the limit come back as None.
    A passing level's winner and alpha are those of the unlimited
    evaluation, and a failing level fails either way.  Ties go to the
    earliest candidate, so the result does not depend on the mapper's
    parallelism.  dp_tables counts the candidates that ran the DP; dp_states
    is the nominal size of their tables.
    """
    point = grid.point(j)
    limit = (1 + grid.eps_internal) * point.z
    if bases is None:
        bases = [a.dot_capacity(inst) for a in candidates]
    kept = [(a, base) for a, base in zip(candidates, bases) if base <= limit]
    tasks = [(inst, a, point, limit, base) for a, base in kept]
    best: CandidateEval | None = None
    best_alpha = None
    dp_tables = 0
    dp_states = 0
    for (a, _), ev in zip(kept, mapper(_eval_candidate, tasks)):
        if ev.dp_states:
            dp_tables += 1
            dp_states += ev.dp_states
        if ev.value is not None and (best is None or ev.value < best.value):
            best, best_alpha = ev, a
    return LevelResult(
        passed=best is not None and best.value <= limit,
        winner=best,
        alpha=best_alpha,
        dp_tables=dp_tables,
        dp_states=dp_states,
    )


@dataclass(frozen=True)
class SearchResult:
    z_star: Fraction
    value: Fraction
    bits: tuple[int, ...]
    alpha_star: DualPoint
    dp_tables: int
    dp_states: int


def search_optimum_guess(
    inst: Instance,
    grid: GeometricGrid,
    candidates: CandidateSet,
    mapper=map,
) -> SearchResult:
    """Binary search for the smallest accepted grid level.

    Levels below the optimum are rejected and levels at or above it are
    accepted, with at most one ambiguous level in between, so acceptance is
    monotone along the grid.  The top level always accepts because it is at
    least the total profit.  Each candidate's alpha . C is computed once and
    shared by every level.  Only the accepted level's winner builds a dense
    table, to trace its interdiction back.
    """
    bases = [a.dot_capacity(inst) for a in candidates]
    cache: dict[int, LevelResult] = {}
    dp_tables = 0
    dp_states = 0

    def evaluate(j: int) -> LevelResult:
        nonlocal dp_tables, dp_states
        res = accept_level(inst, grid, j, candidates, mapper, bases)
        cache[j] = res
        dp_tables += res.dp_tables
        dp_states += res.dp_states
        return res

    lo, hi = 0, grid.J
    while lo < hi:
        mid = (lo + hi) // 2
        if evaluate(mid).passed:
            hi = mid
        else:
            lo = mid + 1
    res = cache.get(lo) or evaluate(lo)
    if not res.passed:
        raise InternalInvariantError(
            f"top grid level {lo} of {grid.J} rejected; the grid must cover "
            "the optimum"
        )
    assert res.winner is not None and res.alpha is not None
    point = grid.point(lo)
    return SearchResult(
        z_star=point.z,
        value=res.winner.value,
        bits=candidate_bits(inst, point, res.winner),
        alpha_star=res.alpha,
        dp_tables=dp_tables,
        dp_states=dp_states,
    )


@dataclass(frozen=True)
class SolveStats:
    candidates: int
    dp_tables: int
    dp_states: int


@dataclass(frozen=True)
class Solution:
    """An interdiction with its exact relaxed value and certified guarantee."""

    x: tuple[int, ...]  # original item indices
    f_value: Fraction
    guarantee: str
    z_star: Fraction | None
    alpha_star: tuple[Fraction, ...] | None
    additive_cert: Fraction
    stats: SolveStats


def _zero_solution(
    reduced: Instance, index_map, bits_reduced, candidates: int
) -> Solution:
    x = lift_interdiction(bits_reduced, index_map)
    survivors = [reduced.p[i] for i in range(reduced.n) if not bits_reduced[i]]
    cert = Fraction(0) - max(survivors, default=0)
    return Solution(
        x=x,
        f_value=Fraction(0),
        guarantee=GUARANTEE_EXACT,
        z_star=None,
        alpha_star=None,
        additive_cert=cert,
        stats=SolveStats(candidates=candidates, dp_tables=0, dp_states=0),
    )


def approx_fractional_optimum(
    inst: Instance, eps, jobs: int = 1, prepared: PreparedInstance | None = None
) -> Solution:
    """Interdiction whose exact relaxed value is within (1+eps) of optimal.

    Works on ``prepared``, which must be ``prepare(inst)`` and is built when
    omitted, and reports the interdiction in original item indices.
    Zero-optimum instances (no profit, or enough budget to delete every
    profitable item) are answered exactly without touching the grid.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise NonpositiveEpsError(f"accuracy must be positive, got {eps}")
    if prepared is None:
        prepared = prepare(inst)
    reduced, index_map = prepared.reduced, prepared.index_map

    if sum(reduced.p) == 0:
        return _zero_solution(reduced, index_map, (0,) * reduced.n, 0)
    cover = tuple(1 if reduced.p[i] > 0 else 0 for i in range(reduced.n))
    if sum(c for b, c in zip(cover, reduced.c) if b) <= reduced.B:
        return _zero_solution(reduced, index_map, cover, 0)

    eps_internal = split_accuracy(eps)
    grid = GeometricGrid.build(reduced, eps_internal)
    candidates = prepared.candidates
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            result = search_optimum_guess(reduced, grid, candidates, pool.map)
    else:
        result = search_optimum_guess(reduced, grid, candidates)

    x_reduced = InterdictionVector.from_bits(result.bits, reduced.c)
    f_value = fractional_value(reduced, x_reduced, candidates)
    survivors = [reduced.p[i] for i in range(reduced.n) if not result.bits[i]]
    return Solution(
        x=lift_interdiction(result.bits, index_map),
        f_value=f_value,
        guarantee=GUARANTEE_OPT_F,
        z_star=result.z_star,
        alpha_star=result.alpha_star.alpha,
        additive_cert=f_value - max(survivors, default=0),
        stats=SolveStats(
            candidates=len(candidates),
            dp_tables=result.dp_tables,
            dp_states=result.dp_states,
        ),
    )


def approx_interdiction(
    inst: Instance, eps, jobs: int = 1, prepared: PreparedInstance | None = None
) -> Solution:
    """Approximate the integer interdiction optimum via the relaxation.

    Runs the relaxed approximation at accuracy eps/2 for a single capacity
    (the packing LP loses at most a factor 2) or eps/(1+t) for t capacities
    (factor 1+t), and tags the solution with the guarantee that applies.
    ``prepared`` is passed on to ``approx_fractional_optimum``.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise NonpositiveEpsError(f"accuracy must be positive, got {eps}")
    if inst.t == 1:
        sol = approx_fractional_optimum(
            inst, eps / 2, jobs=jobs, prepared=prepared
        )
        tag = GUARANTEE_SINGLE
    else:
        sol = approx_fractional_optimum(
            inst, eps / (1 + inst.t), jobs=jobs, prepared=prepared
        )
        tag = GUARANTEE_MULTI
    if sol.guarantee == GUARANTEE_EXACT:
        return sol
    return replace(sol, guarantee=tag)
