"""Polynomial-time approximation of the relaxed interdiction optimum.

The exact dual scan solves one budget knapsack per candidate multiplier,
which is only pseudopolynomial.  To get a true FPTAS we guess the optimum
value z on a geometric grid, round reduced profits up to multiples of
delta = eps * z / n, and replace the budget knapsack by a DP over rounded
profit units that stores the minimum budget per unit target.  A guessed z is
accepted when the best rounded dual bound is at most (1 + eps) * z; the
accepted set is upward closed, so binary search over the grid finds the
smallest accepted guess.  That acceptance limit also bounds the work: a
candidate whose alpha . C alone exceeds it builds no DP table, and every
other table stops at the largest unit target the limit leaves, which keeps
every bound that can pass.  Composing with the integrality gap of the
packing LP turns the (1+eps) guarantee on the relaxed optimum into 2+eps for
a single capacity and 1+t+eps for t capacities.

Internally the requested accuracy eps is split into eps' with
(1 + eps')^2 <= 1 + eps: one factor pays for the grid resolution, the other
for the rounding error.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction

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
    the reduced profit times L, and the units are ceil(r / (L delta)).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    scale, alpha_scaled = a.scaled()
    num = delta.denominator
    den = delta.numerator * scale
    units = []
    for p, *w in zip(inst.p, *inst.W):
        r = p * scale - sum(wj * aj for wj, aj in zip(w, alpha_scaled))
        units.append(-(-r * num // den) if r > 0 else 0)
    return units


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

    def min_units_within(self, budget: int) -> int | None:
        """Smallest unit target k with rows[0][k] <= budget, if any."""
        for k, need in enumerate(self.rows[0]):
            if need <= budget:
                return k
        return None

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
    """Build the min-budget DP table for the given unit costs.

    rows[i][k] depends only on rows[i+1][0..k], so a table built with a
    smaller kmax agrees with a larger one on every column it keeps.  A
    zero-unit item's row is the identity and shares the next row.
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


@dataclass(frozen=True)
class CandidateEval:
    """One dual candidate's rounded bound at one grid point (None = pruned).

    dp_states is the nominal size n (kmax + 1) of the table the candidate
    built, or 0 when it was skipped without one.
    """

    value: Fraction | None
    bits: tuple[int, ...] | None
    dp_states: int


def rounded_dual_bound(
    inst: Instance,
    a: DualPoint,
    point: GridPoint,
    limit: Fraction | None = None,
    base: Fraction | None = None,
) -> CandidateEval:
    """Rounded dual objective minimised over budget-feasible interdictions.

    Returns value alpha . C + k* delta and the attaining interdiction, where
    k* is the least feasible unit target.  When the unit cap prunes every
    budget-feasible interdiction the result carries value None: the guess z
    was too small, which the caller treats as a rejection signal.

    With a limit, only values at most the limit are sought: a candidate with
    alpha . C > limit returns None without rounding or building a table, and
    the table stops at the largest k with alpha . C + k delta <= limit.  Any
    value at most the limit, and its interdiction, is the same as without it.
    ``base`` is alpha . C when the caller has it already.
    """
    if base is None:
        base = a.dot_capacity(inst)
    kmax = point.kmax
    if limit is not None:
        if base > limit:
            return CandidateEval(value=None, bits=None, dp_states=0)
        kmax = min(kmax, (limit - base) // point.delta)
    units = rounded_profit_units(inst, a, point.delta)
    table = min_budget_table(units, inst.c, point.delta, kmax)
    states = inst.n * (point.kmax + 1)
    k = table.min_units_within(inst.B)
    if k is None:
        return CandidateEval(value=None, bits=None, dp_states=states)
    value = base + k * point.delta
    return CandidateEval(value=value, bits=table.traceback(k), dp_states=states)


def _eval_candidate(task) -> CandidateEval:
    inst, a, point, limit, base = task
    return rounded_dual_bound(inst, a, point, limit=limit, base=base)


@dataclass(frozen=True)
class LevelResult:
    passed: bool
    value: Fraction | None
    bits: tuple[int, ...] | None
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
    skipped without a task; the others build their tables only up to the
    unit target the limit leaves, so bounds above the limit come back as
    None.  A passing level's value, interdiction and alpha are those of the
    unlimited evaluation, and a failing level fails either way.  Ties go to
    the earliest candidate, so the result does not depend on the mapper's
    parallelism.  dp_tables counts the tables built; dp_states is their
    nominal size.
    """
    point = grid.point(j)
    limit = (1 + grid.eps_internal) * point.z
    if bases is None:
        bases = [a.dot_capacity(inst) for a in candidates]
    kept = [(a, base) for a, base in zip(candidates, bases) if base <= limit]
    tasks = [(inst, a, point, limit, base) for a, base in kept]
    best_value: Fraction | None = None
    best_bits = None
    best_alpha = None
    dp_tables = 0
    dp_states = 0
    for (a, _), ev in zip(kept, mapper(_eval_candidate, tasks)):
        if ev.dp_states:
            dp_tables += 1
            dp_states += ev.dp_states
        if ev.value is not None and (best_value is None or ev.value < best_value):
            best_value, best_bits, best_alpha = ev.value, ev.bits, a
    return LevelResult(
        passed=best_value is not None and best_value <= limit,
        value=best_value,
        bits=best_bits,
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
    shared by every level.
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
    assert res.value is not None and res.bits is not None and res.alpha is not None
    return SearchResult(
        z_star=grid.point(lo).z,
        value=res.value,
        bits=res.bits,
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
