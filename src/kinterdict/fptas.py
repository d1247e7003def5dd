"""Polynomial-time approximation of the relaxed interdiction optimum.

The exact dual scan solves one budget knapsack per candidate multiplier,
which is only pseudopolynomial.  To get a true FPTAS we guess the optimum
value z on a geometric grid, round reduced profits up to multiples of
delta = eps * z / n, and replace the budget knapsack by a DP over rounded
profit units that stores the minimum budget per unit target.  A guessed z is
accepted when the best rounded dual bound is at most (1 + eps) * z; the
accepted set is upward closed, so binary search over the grid finds the
smallest accepted guess.  That acceptance limit also bounds the work.  A
level keeps the candidates whose alpha . C is within it, found by one
bisection of the candidates' alpha . C order (built once per solve, see
dual.CandidateSet.by_capacity).  It scans them in sorted order, and once
one passes, its value caps the rest, since only a strictly smaller value
can replace it.  A candidate runs no DP when its alpha . C, or its
Dantzig lower bound (dual.dantzig_lower_bound, computed once per solve),
exceeds the cap; every other DP stops at the largest unit target the cap
leaves, which keeps every bound that can win.  The DP is nominal's
budget knapsack, kept as Pareto frontiers: each candidate runs it
value-only for its least feasible target
(nominal.least_units_within), and only the winner of the accepted level
stores a frontier per item, capped at its target, to trace its
interdiction back.  The reported dp_tables and dp_states are the paper's
nominal counts: one table of n (kmax + 1) states for every candidate whose
alpha . C is within the level's limit, whether its DP ran or not.

Composing with the integrality gap of the packing LP turns the (1+eps)
guarantee on the relaxed optimum into 2+eps for a single capacity and
1+t+eps for t capacities.

Internally the requested accuracy eps is split into eps' with
(1 + eps')^2 <= 1 + eps: one factor pays for the grid resolution, the other
for the rounding error.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction

from .dual import (
    CandidateSet,
    DualPoint,
    PreparedInstance,
    dantzig_lower_bound,
    fractional_value,
    prepare,
    scaled_reduced_profits,
)
from .instance import Instance, InterdictionVector, lift_interdiction
from .nominal import budget_frontier, least_units_within

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
    the reduced profit times L (dual.scaled_reduced_profits, 0 when
    negative), and the units are ceil(r / (L delta)).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    scale, alpha = a.scaled
    num = delta.denominator
    den = delta.numerator * scale
    reduced = scaled_reduced_profits(inst.p, inst.W, scale, alpha)
    return [-(-r * num // den) for r in reduced]


@dataclass(frozen=True)
class BudgetTable:
    """The min-budget DP over rounded profit units, kept as frontiers.

    rows[i] is the budget frontier of items i..n-1 (see
    nominal.budget_frontier) as lists ks and needs: the least budget that
    lets those items keep at most k units is the need of the last pair at
    or before k, and above the budget when there is none.  rows[n] is the
    empty selection.  states is the nominal size n (kmax + 1) of the dense
    table the frontiers replace.
    """

    units: tuple[int, ...]
    costs: tuple[int, ...]
    kmax: int
    rows: tuple[tuple[list[int], list[int]], ...]

    @property
    def states(self) -> int:
        return len(self.units) * (self.kmax + 1)

    def traceback(self, k: int) -> tuple[int, ...]:
        """Interdiction bits attaining the least budget for target k,
        interdict-first on ties.

        k must be the least target within the budget, rows[0]'s first pair:
        along its path every column read is within the cap of the row read,
        so each choice is that of the dense table.
        """
        ks = self.rows[0][0]
        if not ks or ks[0] != k:
            raise ValueError(f"{k} is not the least unit target within budget")
        bits = [0] * len(self.units)
        cur = k
        for i, (u, ci) in enumerate(zip(self.units, self.costs)):
            nks, needs = self.rows[i + 1]
            at = bisect_right(nks, cur) - 1  # interdict: column cur
            kb = bisect_right(nks, cur - u) - 1  # keep: column cur - u
            if cur < u or kb < 0 or ci + needs[at] <= needs[kb]:
                bits[i] = 1
            else:
                cur -= u
        return tuple(bits)


def min_budget_table(units, costs, budget: int, kmax: int) -> BudgetTable:
    """The frontiers of the min-budget DP for the given unit costs, one per
    suffix of the items, built in reverse index order.

    The solver builds it only to trace back the accepted level's winner,
    with kmax its least target.  Every row is capped at the unit sum the
    first pair can still reach (see nominal.budget_frontier), so a row has
    at most min(budget, kmax) + 1 entries.
    """
    if kmax < 0:
        raise ValueError("kmax must be non-negative")
    rows: list = []
    budget_frontier(units[::-1], costs[::-1], budget, kmax, rows)
    rows.reverse()
    return BudgetTable(
        units=tuple(units), costs=tuple(costs), kmax=kmax, rows=tuple(rows)
    )


@dataclass(frozen=True)
class CandidateEval:
    """One dual candidate's rounded bound at one grid point (None = pruned).

    k is the least feasible unit target, so value = alpha . C + k delta, and
    units are the candidate's rounded profits, kept for the traceback; both
    are None when the candidate was skipped without a DP.
    """

    value: Fraction | None
    k: int | None
    units: list[int] | None


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
            return CandidateEval(value=None, k=None, units=None)
        kmax = min(kmax, (limit - base) // point.delta)
    units = rounded_profit_units(inst, a, point.delta)
    k = least_units_within(units, inst.c, inst.B, kmax)
    value = None if k is None else base + k * point.delta
    return CandidateEval(value=value, k=k, units=units)


def candidate_bits(inst: Instance, ev: CandidateEval) -> tuple[int, ...]:
    """The interdiction attaining a candidate's bound, interdict-first on ties.

    Builds the frontiers only up to unit target ev.k, the least one: the
    traceback reads no column above it, so the bits are those of the
    uncapped dense table.
    """
    return min_budget_table(ev.units, inst.c, inst.B, ev.k).traceback(ev.k)


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
    mapper=None,
    lowers=None,
) -> LevelResult:
    """Evaluate the candidates at grid level j and test acceptance.

    The level passes when the best rounded bound is at most the limit
    (1 + eps') * z_j = z_j + n delta_j.  The candidates with alpha . C
    within the limit are a prefix of the candidates' alpha . C order
    (``CandidateSet.by_capacity``), found by one bisection; the others are
    never looked at.  A kept candidate runs its DP only while it could
    still win: it is skipped when its alpha . C or its Dantzig lower bound
    exceeds the cap, and otherwise runs the DP only up to the unit target
    the cap leaves, so bounds above the cap come back as None.  Both are
    lower bounds on every rounded value of the candidate.  Without a mapper
    the kept candidates are scanned in index (sorted) order, and the cap is
    the limit until one passes, then the incumbent's value: a later
    candidate replaces it only with a strictly smaller value.  With a
    mapper (a process pool's map) there is no incumbent: the parent screens
    at the limit and maps the rest.  Either way a passing level's winner and
    alpha are those of the unlimited evaluation, ties going to the earliest
    candidate, and a failing level fails.

    ``lowers`` caches each candidate's Fraction Dantzig bound by index,
    computed on first use; a search shares it across its levels.  dp_tables
    counts the kept candidates, screened or not, and dp_states is the
    nominal size n (kmax + 1) of their tables: the paper's counts, not the
    DPs that ran.
    """
    point = grid.point(j)
    limit = (1 + grid.eps_internal) * point.z
    by_c = candidates.by_capacity(inst.C)
    points, bases = candidates.points, by_c.bases
    if lowers is None:
        lowers = {}

    def lower(i: int) -> Fraction:
        if i not in lowers:
            lowers[i] = Fraction(*dantzig_lower_bound(inst, points[i]))
        return lowers[i]

    kept = sorted(by_c.order[: bisect_right(by_c.sorted_bases, limit)])
    best: CandidateEval | None = None
    best_alpha = None
    if mapper is None:
        for i in kept:
            cap = limit if best is None else best.value
            if bases[i] > cap or lower(i) > cap:
                continue
            ev = rounded_dual_bound(inst, points[i], point, limit=cap, base=bases[i])
            if ev.value is not None and (best is None or ev.value < best.value):
                best, best_alpha = ev, points[i]
    else:
        screened = [i for i in kept if lower(i) <= limit]
        tasks = [(inst, points[i], point, limit, bases[i]) for i in screened]
        for i, ev in zip(screened, mapper(_eval_candidate, tasks)):
            if ev.value is not None and (best is None or ev.value < best.value):
                best, best_alpha = ev, points[i]
    return LevelResult(
        passed=best is not None and best.value <= limit,
        winner=best,
        alpha=best_alpha,
        dp_tables=len(kept),
        dp_states=len(kept) * inst.n * (point.kmax + 1),
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
    mapper=None,
) -> SearchResult:
    """Binary search for the smallest accepted grid level.

    Levels below the optimum are rejected and levels at or above it are
    accepted, with at most one ambiguous level in between, so acceptance is
    monotone along the grid.  The top level always accepts because it is at
    least the total profit.  The candidates' alpha . C and their order by it
    (``CandidateSet.by_capacity``), and each Dantzig lower bound once a
    level needs it, are computed once and shared by every level.
    ``mapper`` is passed on to accept_level.  Only the accepted level's
    winner stores its frontiers, to trace its interdiction back.
    """
    lowers: dict[int, Fraction] = {}
    cache: dict[int, LevelResult] = {}
    dp_tables = 0
    dp_states = 0

    def evaluate(j: int) -> LevelResult:
        nonlocal dp_tables, dp_states
        res = accept_level(inst, grid, j, candidates, mapper, lowers)
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
        bits=candidate_bits(inst, res.winner),
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
    # a pool forks all its workers at the first submit: no more than the
    # machine's CPUs or a level's tasks
    workers = min(jobs, os.cpu_count() or 1, len(candidates))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
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
