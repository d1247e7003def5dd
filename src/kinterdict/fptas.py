"""Polynomial-time approximation of the relaxed interdiction optimum.

The exact dual scan solves one budget knapsack per candidate multiplier,
which is only pseudopolynomial.  To get a true FPTAS we guess the optimum
value z on a geometric grid, round reduced profits up to multiples of
delta = eps * z / n, and replace the budget knapsack by a DP over rounded
profit units that stores the minimum budget per unit target.  A guessed z is
accepted when the best rounded dual bound is at most (1 + eps) * z; the
accepted set is upward closed, so binary search over the grid finds the
smallest accepted guess.  The search is one serial loop.  Two bounds,
computed once per solve, decide most of the levels it visits without a
scan (search_bracket): a level whose limit is below the least Dantzig
lower bound over all candidates rejects, and a level whose z reaches the
dual value of a greedy interdiction, at the candidate attaining that
least bound, accepts.  Both rules are exact, so the search visits the
levels a plain binary search visits and ends where it ends.  Each other
level is one scan of the candidates, and each candidate scanned runs at
most one DP.

That acceptance limit also bounds the work.  A level keeps the candidates
whose alpha . C is within it, a prefix of their alpha . C order (built once
per solve, see dual.CandidateSet).  It scans them in sorted order, and once
one passes, its value caps the rest, since only a strictly smaller value
can replace it.  A candidate runs no DP when its alpha . C, or its Dantzig
lower bound (dual.dantzig_lower_bound, computed once per solve), exceeds
the cap; every other DP stops at the largest unit target the cap leaves,
which keeps every bound that can win.  All three tests are int
cross-products.  The DP is nominal's budget knapsack, kept as Pareto
frontiers: each candidate runs it value-only for its least feasible target
(nominal.least_units_within).  That run is bounded in turn: the greedy
interdiction in units/cost order gives an achievable target and the LP
relaxation a lower bound.  The DP runs only when they leave a gap, only on
the items the LP bound leaves free, and only up to the greedy's target.
Only the winner of the accepted level stores a frontier per item, capped
at its target and only for the items the LP bound leaves free given that
target, to trace its interdiction back (nominal.trace_unfixed,
suffix_frontiers and select_on_ties).
The reported dp_tables and dp_states are the paper's nominal counts: one
table of n (kmax + 1) states for every candidate whose alpha . C is within
the limit of a level on the search's path, whether the level was scanned
and the candidate's DP ran or not.

Composing with the integrality gap of the packing LP turns the (1+eps)
guarantee on the relaxed optimum into 2+eps for a single capacity and
1+t+eps for t capacities.

Internally the requested accuracy eps is split into eps' with
(1 + eps')^2 <= 1 + eps: one factor pays for the grid resolution, the other
for the rounding error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import takewhile

from .dual import (
    CandidateSet,
    PreparedInstance,
    dantzig_lower_bound,
    fractional_value,
    prepare,
    scaled_reduced_profits,
)
from .instance import Instance, InterdictionVector, lift_interdiction
from .nominal import (
    StateLimitError,
    greedy_kept_units,
    least_units_within,
    select_on_ties,
    suffix_frontiers,
    trace_unfixed,
)

GUARANTEE_EXACT = "exact-opt-f"
GUARANTEE_OPT_F = "1+eps-of-opt-f"
GUARANTEE_SINGLE = "2+eps-of-opt-i"
GUARANTEE_MULTI = "1+t+eps-of-opt-i"

_SPLIT_DENOMINATOR = 10**6
# The top grid level's numerator bits, as GeometricGrid.build estimates them:
# 5.3M at eps 1/10000 on gen --n 40 --t 1, against 12.3M at 1/30000 on n = 6.
GRID_BIT_LIMIT = 10**7


class NonpositiveEpsError(ValueError):
    pass


class InternalInvariantError(RuntimeError):
    """A condition the algorithm guarantees failed to hold."""


def split_accuracy(eps) -> Fraction:
    """A rational eps' with 0 < eps' and (1 + eps')^2 <= 1 + eps.

    Uses the largest multiple k/d, d = 10^6, that satisfies the square
    bound, (d + k)^2 <= floor(d^2 (1 + eps)) for an int left side, and
    falls back to eps/3 (valid for all eps <= 3) when eps is tiny.  Any such
    under-approximation of sqrt(1+eps) - 1 preserves the guarantee.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise NonpositiveEpsError(f"accuracy must be positive, got {eps}")
    a, b = eps.numerator, eps.denominator
    d = _SPLIT_DENOMINATOR
    k = math.isqrt(d * d * (a + b) // b) - d
    return Fraction(k, d) if k >= 1 else eps / 3


@dataclass(frozen=True)
class GridPoint:
    z: Fraction
    delta: Fraction


def _least_power_reaching(base: Fraction, target: Fraction | int) -> int:
    """The least j >= 0 with base**j >= target, for a rational base > 1 and
    a rational target.

    Every test is exact: num**j b >= a den**j in ints, with target = a / b.
    A floating-point estimate of log(target) / log(base) is only the start:
    the step doubles away from it until two tests bracket j, then the
    bracket is bisected.  The estimate is usually exact, so two tests
    suffice.
    """
    num, den = base.numerator, base.denominator
    a, b = target.numerator, target.denominator

    def reaches(j: int) -> bool:
        return num**j * b >= a * den**j

    if reaches(0):
        return 0
    try:
        guess = math.ceil(math.log(target) / math.log1p((num - den) / den))
    except (OverflowError, ZeroDivisionError):
        guess = 1
    # invariant once bracketed: base**lo < target <= base**hi
    lo, hi, step = max(guess, 1) - 1, max(guess, 1), 1
    while not reaches(hi):
        lo, hi, step = hi, hi + step, 2 * step
    while reaches(lo):
        lo, hi, step = max(lo - step, 0), lo, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class GeometricGrid:
    """The guesses z = (1 + eps')^j for j in 0..J, with per-point rounding.

    J is the first exponent reaching the total profit, found by exact
    integer power tests (no logarithm decides it).  The unit cap kmax is
    the same at every level: floor(n (1+eps') / eps') units of delta cover
    every value the acceptance test can use.
    Level j's z has about j times the bits of (1 + eps')'s numerator, the
    top one log(sum p) / log(1 + eps') times: beyond GRID_BIT_LIMIT,
    ``build`` raises StateLimitError before any power is built.
    """

    eps_internal: Fraction
    J: int
    n: int

    @classmethod
    def build(cls, inst: Instance, eps_internal: Fraction) -> "GeometricGrid":
        sum_p = sum(inst.p)
        if sum_p <= 0 or inst.n == 0:
            raise ValueError("grid needs a positive total profit")
        # multiplied out, not divided: an eps' whose float is 0.0 is refused
        top_bits = math.log(sum_p) * (1 + eps_internal).numerator.bit_length()
        step = math.log1p(eps_internal)
        if top_bits > GRID_BIT_LIMIT * step:
            estimate = top_bits / step if step else math.inf
            raise StateLimitError(
                f"grid top level has about {estimate:.3g} numerator bits, "
                f"beyond {GRID_BIT_LIMIT}"
            )
        J = _least_power_reaching(1 + eps_internal, sum_p)
        return cls(eps_internal=eps_internal, J=J, n=inst.n)

    @property
    def kmax(self) -> int:
        q = self.n * (1 + self.eps_internal) / self.eps_internal
        return q.numerator // q.denominator

    def point(self, j: int) -> GridPoint:
        if not 0 <= j <= self.J:
            raise ValueError(f"grid level {j} outside [0, {self.J}]")
        z = (1 + self.eps_internal) ** j
        return GridPoint(z=z, delta=self.eps_internal * z / self.n)


def rounded_profit_units(
    inst: Instance, a: tuple[int, tuple[int, ...]], delta: Fraction
) -> list[int]:
    """Each item's reduced profit in units of delta, rounded up.

    Summing these units over surviving items and multiplying by delta equals
    the running-total rounding of the reduced profit sum, because the total
    is a multiple of delta before every addition.  Computed in integers:
    with a = (L, alpha L), r = p_i L - w_i . (alpha L) is the reduced
    profit times L (dual.scaled_reduced_profits, 0 when negative), and the
    units are ceil(r / (L delta)).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    scale, alpha = a
    num = delta.denominator
    den = delta.numerator * scale
    reduced = scaled_reduced_profits(inst.p, inst.W, scale, alpha)
    return [-(-r * num // den) for r in reduced]


@dataclass(frozen=True)
class BudgetTable:
    """The min-budget DP over rounded profit units, kept as frontiers.

    rows[i] is the budget frontier of items i..n-1 (see
    nominal.suffix_frontiers) as lists ks and needs: the least budget that
    lets those items keep at most k units is the need of the last pair at
    or before k, and above the budget when there is none.  rows[n] is the
    empty selection.  states is the nominal size n (kmax + 1) of the dense
    table the frontiers replace.  The solver's tables hold only the items
    that the LP bound leaves free (see candidate_bits), so n, kmax and the
    budget are theirs.
    """

    units: tuple[int, ...]
    costs: tuple[int, ...]
    kmax: int
    rows: tuple[tuple[list[int], list[int]], ...]

    @property
    def states(self) -> int:
        return len(self.units) * (self.kmax + 1)

    def traceback(self, k: int) -> tuple[int, ...]:
        """Interdiction bits attaining the least budget for target k.

        k must be the least target within the budget, rows[0]'s first pair.
        The walk (nominal.select_on_ties) starts from that pair's need, the
        least budget that reaches k, so no budget is left to spend on a tie:
        its choices are the dense table's, interdict-first on ties.
        """
        ks, needs = self.rows[0]
        if not ks or ks[0] != k:
            raise ValueError(f"{k} is not the least unit target within budget")
        return select_on_ties(self.rows, self.units, self.costs, needs[0])


def min_budget_table(units, costs, budget: int, kmax: int) -> BudgetTable:
    """The frontiers of the min-budget DP for the given unit costs, one per
    suffix of the items (nominal.suffix_frontiers).

    The solver builds it only to trace back the accepted level's winner,
    over the items the LP bound leaves free and with kmax their least
    target, so a row has at most min(budget, kmax) + 1 pairs.
    """
    if kmax < 0:
        raise ValueError("kmax must be non-negative")
    rows = tuple(suffix_frontiers(units, costs, budget, kmax))
    return BudgetTable(units=tuple(units), costs=tuple(costs), kmax=kmax, rows=rows)


@dataclass(frozen=True)
class CandidateEval:
    """One dual candidate's rounded bound at one grid point.

    k is the least feasible unit target within the cap, so value =
    alpha . C + k delta; both are None when the cap prunes every
    budget-feasible interdiction.  units are the candidate's rounded
    profits and alpha the candidate (L, alpha L) itself, kept for the
    traceback and the reported multiplier.
    """

    value: Fraction | None
    k: int | None
    units: list[int]
    alpha: tuple[int, tuple[int, ...]]


def rounded_dual_bound(
    inst: Instance,
    a: tuple[int, tuple[int, ...]],
    point: GridPoint,
    *,
    limit: Fraction,
    base: Fraction,
) -> CandidateEval:
    """Rounded dual objective minimised over budget-feasible interdictions,
    sought only up to ``limit``.

    ``base`` is alpha . C, at most the limit (the caller skips the others).
    The DP (least_units_within) stops at the largest unit target k with
    alpha . C + k delta <= limit, and returns the least feasible one, k*;
    the value is alpha . C + k* delta, the same as without the limit for
    every value at most it.  candidate_bits gives the attaining
    interdiction.  When no target within the limit is feasible the value
    is None: the caller treats it as a rejection.  The limit never exceeds
    the level's (1 + eps') z = z + n delta, so the target is at most the
    grid's kmax.
    """
    units = rounded_profit_units(inst, a, point.delta)
    k = least_units_within(units, inst.c, inst.B, (limit - base) // point.delta)
    value = None if k is None else base + k * point.delta
    return CandidateEval(value=value, k=k, units=units, alpha=a)


def candidate_bits(inst: Instance, ev: CandidateEval) -> tuple[int, ...]:
    """The interdiction attaining a candidate's bound: the dense min-budget
    table's, interdict-first on ties.

    The LP bound with ub = ev.k, the least target, fixes most items
    (nominal.trace_unfixed).  The frontiers are built over the items left
    free only, up to their least target k, and walked back from its least
    need (``BudgetTable.traceback``).  That need plus the fixed removed
    costs is the least need of ev.k, where the walk over all the items
    starts.
    """

    def trace(units, costs, left, k):
        return min_budget_table(units, costs, left, k).traceback(k)

    return trace_unfixed(ev.units, inst.c, inst.B, ev.k, trace)


def within_limit(candidates: CandidateSet, limit: Fraction) -> list[int]:
    """The indices of the candidates whose alpha . C is at most the limit,
    in alpha . C order: a prefix of ``CandidateSet.order``, walked up to the
    first candidate above the limit and compared by int cross-products.
    Its length is a level's nominal table count."""
    u, v = limit.numerator, limit.denominator
    points, dots = candidates.points, candidates.dots
    return list(takewhile(lambda i: dots[i] * v <= u * points[i][0], candidates.order))


@dataclass(frozen=True)
class LevelResult:
    """A level's outcome: winner is the best candidate's evaluation (its
    value is the level's best bound, and candidate_bits traces its
    interdiction back), None when the level fails, and dp_tables the
    paper's nominal table count."""

    winner: CandidateEval | None
    dp_tables: int

    @property
    def passed(self) -> bool:
        return self.winner is not None


def accept_level(
    inst: Instance,
    grid: GeometricGrid,
    j: int,
    candidates: CandidateSet,
    lowers: dict[int, int] | None = None,
) -> LevelResult:
    """Evaluate the candidates at grid level j and test acceptance.

    The level passes when the best rounded bound is at most the limit
    (1 + eps') * z_j = z_j + n delta_j.  The candidates with alpha . C
    within the limit are a prefix of the candidates' alpha . C order
    (``CandidateSet.order``), walked up to the first one above the limit;
    the others are never looked at.  The kept candidates are scanned in
    index (sorted) order with a cap: the limit until one passes, then the
    incumbent's value, since a later candidate replaces it only with a
    strictly smaller value.  A candidate whose alpha . C or Dantzig lower
    bound exceeds the cap runs no DP, as both bound every rounded value of
    the candidate from below; the others run it only up to the unit target
    the cap leaves, so every value found is within the cap.  A passing
    level's winner is therefore that of the unlimited evaluation, ties
    going to the earliest candidate, and a failing level fails.

    ``lowers`` caches each candidate's Dantzig bound by index, as the int
    lower over its L; lower and dots[i] are within a cap u / v when times v
    they are at most u L.  A search shares it.  dp_tables counts the kept
    candidates, screened or not: the paper's count, not the DPs that ran.
    """
    point = grid.point(j)
    cap = (1 + grid.eps_internal) * point.z
    u, v = cap.numerator, cap.denominator
    points, dots = candidates.points, candidates.dots
    if lowers is None:
        lowers = {}
    kept = sorted(within_limit(candidates, cap))
    best: CandidateEval | None = None
    for i in kept:
        scale = points[i][0]
        if dots[i] * v > u * scale:
            continue
        if i not in lowers:
            lowers[i] = dantzig_lower_bound(inst, points[i])
        if lowers[i] * v > u * scale:
            continue
        base = Fraction(dots[i], scale)
        ev = rounded_dual_bound(inst, points[i], point, limit=cap, base=base)
        if ev.value is not None and (best is None or ev.value < best.value):
            best, cap = ev, ev.value
            u, v = cap.numerator, cap.denominator
    return LevelResult(winner=best, dp_tables=len(kept))


def search_bracket(
    inst: Instance, candidates: CandidateSet, lowers: dict[int, int]
) -> tuple[Fraction, Fraction]:
    """(lower, upper): bounds that decide most grid levels without a scan.

    lower is the least Dantzig lower bound over all candidates, a lower
    bound on every rounded value at every level.  The candidates are
    scanned in alpha . C order (``CandidateSet.order``), and the scan stops
    at the first one whose alpha . C reaches the least bound so far, since
    a candidate's bound is at least its alpha . C; each bound computed is
    stored in ``lowers``, by index, as ``accept_level`` reads it.  upper is
    the dual value, at the first candidate a* attaining lower, of the
    greedy removal in units/cost order (nominal.greedy_kept_units): a
    budget-feasible interdiction, so upper is at least the candidate's least
    dual value V, and lower <= V <= upper.
    """
    points, dots = candidates.points, candidates.dots
    best = None
    for i in candidates.order:
        scale = points[i][0]
        if best is not None and dots[i] * points[best][0] >= lowers[best] * scale:
            break
        if i not in lowers:
            lowers[i] = dantzig_lower_bound(inst, points[i])
        if best is None or lowers[i] * points[best][0] < lowers[best] * scale:
            best = i
    assert best is not None  # the candidate set always contains the origin
    scale, alpha = points[best]
    reduced = scaled_reduced_profits(inst.p, inst.W, scale, alpha)
    kept = greedy_kept_units(reduced, inst.c, inst.B)
    return Fraction(lowers[best], scale), Fraction(dots[best] + kept, scale)


def search_optimum_guess(
    inst: Instance, grid: GeometricGrid, candidates: CandidateSet
) -> tuple[int, CandidateEval, int]:
    """Binary search for the smallest accepted grid level.

    Levels below the optimum are rejected and levels at or above it are
    accepted, with at most one ambiguous level in between, so acceptance is
    monotone along the grid.  The top level always accepts because it is at
    least the total profit.  The candidates' alpha . C and their order by it
    (kept by the ``CandidateSet``), and each Dantzig lower bound once a
    level needs it, are computed once and shared by every level.

    Most levels are decided before any scan, by the bounds of
    ``search_bracket``.  A level whose limit (1 + eps') z_j is below lower
    rejects, since every rounded value is at least its Dantzig bound.  A
    level with z_j >= upper accepts: a*'s rounded value is at most
    V + n delta_j <= upper + eps' z_j, within the limit.  Both tests are
    exponent comparisons, since the limit is (1 + eps')^(j + 1).  Only the
    other levels run ``accept_level``, so the search takes the same path
    as one that scans every level it visits, and ends at the same level.
    When that level was accepted without a scan, it is scanned once at the
    end for its winner.

    Returns (j, winner, dp_tables): the accepted level, its winner's
    evaluation, and the nominal tables summed over every level on the
    search's path, scanned or not (``within_limit``).
    """
    lowers: dict[int, int] = {}
    lower, upper = search_bracket(inst, candidates, lowers)
    base = 1 + grid.eps_internal
    # level j is open when its limit base^(j + 1) reaches lower and z_j is
    # below upper
    first_open = _least_power_reaching(base, lower) - 1
    first_accepted = _least_power_reaching(base, upper)
    dp_tables = 0

    def evaluate(j: int) -> tuple[bool, CandidateEval | None]:
        nonlocal dp_tables
        if first_open <= j < first_accepted:
            res = accept_level(inst, grid, j, candidates, lowers)
            dp_tables += res.dp_tables
            return res.passed, res.winner
        dp_tables += len(within_limit(candidates, base ** (j + 1)))
        return j >= first_accepted, None

    # winner is the accepted level hi's, None while hi is the top level,
    # which is never a mid, or was accepted without a scan
    lo, hi, winner = 0, grid.J, None
    while lo < hi:
        mid = (lo + hi) // 2
        passed, found = evaluate(mid)
        if passed:
            hi, winner = mid, found
        else:
            lo = mid + 1
    if winner is None:
        res = accept_level(inst, grid, hi, candidates, lowers)
        winner = res.winner
        if hi == grid.J:  # the only level not yet counted
            dp_tables += res.dp_tables
    if winner is None:
        raise InternalInvariantError(
            f"top grid level {hi} of {grid.J} rejected; the grid must cover "
            "the optimum"
        )
    return hi, winner, dp_tables


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


def approx_fractional_optimum(
    inst: Instance, eps, *, prepared: PreparedInstance | None = None
) -> Solution:
    """Interdiction whose exact relaxed value is within (1+eps) of optimal.

    Works on ``prepared``, which must be ``prepare(inst, s)`` for a slack
    s >= eps and is built with s = eps when omitted, and reports the
    interdiction in original item indices.  Its candidates are the
    vertices with alpha . C within the bound T of that slack, which holds
    the search's winner and the minimiser of F(x) (dual module docstring);
    a smaller slack could cut them off, so it raises ValueError.
    An instance whose profitable items (none, when there is no profit) all
    fit in the budget has optimum 0: it is answered exactly by interdicting
    them, without touching the grid, and only zero profits survive.
    """
    eps_internal = split_accuracy(eps)  # raises for a non-positive eps
    if prepared is None:
        prepared = prepare(inst, eps)
    elif prepared.slack < Fraction(eps):
        raise ValueError(
            f"prepared for slack {prepared.slack}, below the accuracy {eps}"
        )
    reduced, index_map = prepared.reduced, prepared.index_map

    cover = tuple(1 if p > 0 else 0 for p in reduced.p)
    if sum(c for b, c in zip(cover, reduced.c) if b) <= reduced.B:
        return Solution(
            x=lift_interdiction(cover, index_map),
            f_value=Fraction(0),
            guarantee=GUARANTEE_EXACT,
            z_star=None,
            alpha_star=None,
            additive_cert=Fraction(0),
            stats=SolveStats(candidates=0, dp_tables=0, dp_states=0),
        )

    grid = GeometricGrid.build(reduced, eps_internal)
    candidates = prepared.candidates
    j, winner, dp_tables = search_optimum_guess(reduced, grid, candidates)
    bits = candidate_bits(reduced, winner)

    x_reduced = InterdictionVector.from_bits(bits, reduced.c)
    f_value = fractional_value(reduced, x_reduced, candidates)
    survivors = [reduced.p[i] for i in range(reduced.n) if not bits[i]]
    scale, alpha = winner.alpha
    return Solution(
        x=lift_interdiction(bits, index_map),
        f_value=f_value,
        guarantee=GUARANTEE_OPT_F,
        z_star=grid.point(j).z,
        alpha_star=tuple(Fraction(v, scale) for v in alpha),
        additive_cert=f_value - max(survivors, default=0),
        stats=SolveStats(
            candidates=len(candidates),
            dp_tables=dp_tables,
            # kmax is the same at every level
            dp_states=dp_tables * reduced.n * (grid.kmax + 1),
        ),
    )


def approx_interdiction(
    inst: Instance, eps, *, prepared: PreparedInstance | None = None
) -> Solution:
    """Approximate the integer interdiction optimum via the relaxation.

    Runs the relaxed approximation at accuracy eps/(1+t), as the packing LP
    of t capacities loses at most a factor 1+t (2 for a single capacity),
    and tags the solution with the guarantee that applies.  ``prepared``
    is passed on to ``approx_fractional_optimum``, so it must be built for
    a slack of at least eps/(1+t).
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise NonpositiveEpsError(f"accuracy must be positive, got {eps}")
    sol = approx_fractional_optimum(inst, eps / (1 + inst.t), prepared=prepared)
    if sol.guarantee == GUARANTEE_EXACT:
        return sol
    return replace(sol, guarantee=GUARANTEE_SINGLE if inst.t == 1 else GUARANTEE_MULTI)
