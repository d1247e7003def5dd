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

One enumeration, ``dual_vertex_candidates``, finds them for every t
(``dual_breakpoints`` is the same set, checked to be for t = 1).  One
depth-first walk over the item subsets, in ints, serves every zero-set (the
coordinates a subset's coordinate planes fix at 0): a subset of k items
carries all its k x k minors, one Laplace step (``linalg.cofactor_rows``)
per added item, and the vertex of each zero-set of size t - k is a ratio
of those minors, read off by Cramer's rule.  So the minors of items shared
by many subsets are computed once, and the walk stops at depth min(n, t).
Signs, duplicates and the sorted order are all decided
on int tuples, and a point is the int pair (L, alpha L): L > 0 the lcm of
alpha's denominators and alpha L >= 0, with gcd 1, unique per point.  The
solvers read it in ints; only a reported multiplier is built in Fractions.
A candidate set is bound to its instance's capacity vector C and also keeps
each candidate's alpha . C, in ints, and the candidates' order by it
(``CandidateSet``), compared by int cross-products: the FPTAS levels take
a prefix of that order, F(x) scans in it and stops once alpha . C reaches
the best value, since a candidate's value is at least its alpha . C, and
the exact scan prunes by it.

That solver scans the candidates in sorted order and keeps the first strict
minimum.  A candidate's value is alpha . C + sum r_i - K(r), with r_i the
reduced profits and K(r) the most reduced profit removable within the budget,
so it is at least alpha . C, and at least alpha . C + sum r_i - U for any
upper bound U on K(r).  Dantzig's bound (the LP relaxation of the knapsack,
filled greedily by r_i / c_i, read from nominal.lp_least_units) is such a
U.  A candidate for which either lower bound already reaches the incumbent
cannot replace it under the strict update, so its knapsack is never built;
the result is exactly that of the unpruned scan, ties included.  The FPTAS
screens its candidates by the same bound, ``dantzig_lower_bound``.

A solve reads only the vertices within a bound T (``prepare``).  Let U be
the profit the greedy removal by p / c keeps at alpha = 0, an upper bound
on opt_f, s the relaxed accuracy (eps / (1 + t) for a solve, 0 for the
exact scan), and T = (1 + s) U + s max p.  The set holds exactly the
vertices with alpha . C <= T, and that loses no answer:

- The FPTAS's ``search_bracket`` reads only vertices with alpha . C <
  lower <= U, lower being at most the origin's Dantzig bound, and its
  upper <= lower + max r <= U + max p.
- Every level the search scans has z_j < upper, and the final level has
  z_hi < (1 + eps') upper, or hi = 0 and z_0 = 1 <= max p.  At such a
  level the origin's rounded value, the greedy's removal rounded up, is
  at most U + n delta_j = U + eps' z_j <= T, since eps' (1 + eps') <= s
  (``fptas.split_accuracy``).  A dropped vertex's rounded value is at
  least its alpha . C > T, so it never wins a level or decides one, and
  the kept vertices keep their relative order.
- F(x) of the emitted x is at most the winner's rounded value, so at most
  T.  Its minimising vertex has alpha . C <= F(x), so the minimum over the
  set is F(x); a minimum over the set above T would not be, and the CLI's
  certificate refuses it.
- In the exact scan a dropped vertex's value is above U >= opt_f, so the
  first minimum in sorted order is the full scan's.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb, gcd
from operator import mul

from .instance import Instance, InterdictionVector, preprocess
from .linalg import _laplace_plan, cofactor_rows
from .nominal import (
    DimensionMismatchError,
    StateLimitError,
    greedy_kept_units,
    knapsack_max_budget,
    lp_least_units,
)

# The zero-sets one vertex walk may read, C(n + t, t) - 1 in all: 9.4M at
# t = 6, n = 40, against 601M at t = n = 16.
VERTEX_READ_LIMIT = 10**7
# The cells of the largest cofactor table one node of the walk builds,
# C(t + 1, k) (t + 1) for its extensions to depth k: 437k at t = 40, n = 3,
# against 13.6M at t = 300, n = 2.
VERTEX_CELL_LIMIT = 10**7


@dataclass(frozen=True)
class CandidateSet:
    """Sorted, deduplicated dual candidates of an instance with capacities
    C; always contains the origin.

    Each point is the int pair (L, alpha L) of the module docstring.  bound
    is None when the set holds every vertex, and otherwise the bound T the
    set was cut at: it holds exactly the vertices with alpha . C <= T.
    Computed on first use and kept: dots[i] is (alpha L) . C in ints with
    (L, alpha L) = points[i], so alpha . C = dots[i] / L, and order the
    indices sorted by alpha . C, ties by index.
    """

    points: tuple[tuple[int, tuple[int, ...]], ...]
    C: tuple[int, ...]
    bound: Fraction | None = None

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    @cached_property
    def dots(self) -> tuple[int, ...]:
        return tuple(sum(map(mul, alpha, self.C)) for _, alpha in self.points)

    @cached_property
    def order(self) -> tuple[int, ...]:
        # distinct values dot / L differ by at least 1 / max(L)^2, so the
        # floors of K times them, K > max(L)^2, order them exactly in ints
        scales = [scale for scale, _ in self.points]
        k = max(scales, default=0) ** 2 + 1
        keys = [dot * k // scale for dot, scale in zip(self.dots, scales)]
        return tuple(sorted(range(len(keys)), key=keys.__getitem__))


# kept for the benchmark's tracer, which hooks it by name through getattr;
# deleting it waits for a benchmark revision
def dual_breakpoints(inst: Instance) -> CandidateSet:
    """Candidate multipliers for t = 1: zero plus every ratio p_i / w_i.

    The dual objective is piecewise linear in alpha with breakpoints exactly
    at these ratios, so its minimum over alpha >= 0 is attained here.  They
    are the vertices of ``dual_vertex_candidates`` for t = 1.
    """
    if inst.t != 1:
        raise DimensionMismatchError(f"dual_breakpoints needs t=1, got t={inst.t}")
    return dual_vertex_candidates(inst)


# bounded like linalg._laplace_plan; 16 holds every depth a walk within
# VERTEX_READ_LIMIT reaches (at most 12)
@lru_cache(maxsize=16)
def _vertex_reads(t: int, k: int) -> tuple:
    """Where a node of k item rows of width t + 1, carrying its k x k minors
    in the order of ``linalg._laplace_plan(t + 1, k)``, keeps the vertices
    it fixes with the zero-sets of t - k coordinates.

    One entry per free set F, a k-subset of the t coordinates (the column
    subsets without the profit column t): F, the index of its minor det(A),
    and per position a of F the index of the minor over F - f_a + t and
    whether the Cramer sign (-1)^(k - 1 - a) is negative.
    """
    subsets = list(reversed(list(combinations(range(t + 1), k))))
    index = {cols: i for i, cols in enumerate(subsets)}
    return tuple(
        (
            free,
            at,
            tuple(
                (index[free[:a] + free[a + 1:] + (t,)], (k - 1 - a) % 2 == 1)
                for a in range(k)
            ),
        )
        for at, free in enumerate(subsets)
        if free[-1] != t
    )


def dual_vertex_candidates(inst: Instance, bound=None) -> CandidateSet:
    """Candidate multipliers for any t: vertices of the dual arrangement,
    all of them when bound is None, else those with alpha . C <= bound.

    Every t-subset of the n + t hyperplanes {p_i = w_i . alpha} and
    {alpha_j = 0} contributes its unique solution when the system is
    nonsingular and the solution is componentwise non-negative.

    A subset of k item planes and t - k coordinate planes fixes the
    coordinates of the zero-set at 0 and leaves the k-square system of the
    item planes on the free set F of the other k coordinates, nonsingular
    exactly when the whole system is.  By Cramer's rule its determinant is
    the k x k minor of the item rows (w_i..., p_i) over the columns F, and
    its numerators are the minors over F - f_a + p, up to the sign
    (-1)^(k - 1 - a).  So one depth-first walk over the item subsets, to
    depth min(n, t), serves every zero-set: a node of k rows carries all
    its k x k minors, one Laplace step per added row, and reads the vertex
    of each free set of size k from them (``_vertex_reads``).  A node whose
    minors all vanish has dependent rows, as has every extension, and is
    skipped.  At depth t the one free set is every coordinate and nothing
    is extended, so only its determinant and then its numerators, one at
    a time, are computed, stopping at the first of the wrong sign.

    A solution is kept when its numerators have the determinant's sign or
    are 0, and is recorded as the point (det, numerators), gcd-reduced and
    with det > 0, which is unique per point.  The points are sorted in ints
    too, in the lexicographic order of their coordinates; no Fraction is
    built.

    The walk reads sum_k C(n, k) C(t, k) = C(n + t, t) - 1 zero-sets, known
    before it starts: beyond VERTEX_READ_LIMIT it raises StateLimitError.
    Its memory is bounded apart: a node extended to depth k builds a
    cofactor table of C(t + 1, k) rows of width t + 1, which grows about t
    times faster than the reads when t is wide and n small.  Beyond
    VERTEX_CELL_LIMIT cells in the largest table, also known before any
    plan is built, it raises StateLimitError too.  Both budgets count all n
    items, before any is dropped for the bound.

    With a bound T, the walk leaves out every item whose plane lies beyond
    it: on item i's plane, p_i = w_i . alpha <= max_j (w_ij / C_j) alpha . C,
    so every vertex there has alpha . C >= p_i min_j C_j / w_ij, over the j
    with w_ij > 0, and the item goes when that exceeds T.  A vertex within
    T lies on kept planes only, so the walk over the kept items still finds
    it, and the vertices it finds beyond T are dropped after the walk.  All
    of it is int cross-products.
    """
    t, n = inst.t, inst.n
    zero_sets = comb(n + t, t) - 1
    if zero_sets > VERTEX_READ_LIMIT:
        raise StateLimitError(
            f"vertex walk reads {zero_sets} zero-sets, beyond {VERTEX_READ_LIMIT}"
        )
    depth = min(n, t)
    cells = max((comb(t + 1, k) * (t + 1) for k in range(1, depth + 1)), default=0)
    if cells > VERTEX_CELL_LIMIT:
        raise StateLimitError(
            f"vertex walk builds a cofactor table of {cells} cells, beyond "
            f"{VERTEX_CELL_LIMIT}"
        )
    rows = [(*w, p) for w, p in zip(zip(*inst.W), inst.p)]
    if bound is not None:
        bound = Fraction(bound)
        if bound < 0:
            raise ValueError(f"bound must be non-negative, got {bound}")
        top, bottom = bound.numerator, bound.denominator
        rows = [
            row for row in rows
            if any(w and row[t] * cj * bottom <= top * w for w, cj in zip(row, inst.C))
        ]
        n = len(rows)
        depth = min(n, t)
    plans = [_laplace_plan(t + 1, k) for k in range(1, depth + 1)]
    reads = [_vertex_reads(t, k) for k in range(1, depth + 1)]
    numerators = [0] * t
    found = {(1, (0,) * t)}  # the origin, zero-set [t]
    # (first row to add, depth, minors) of the nodes left to extend; a
    # stack, not a recursive closure, so no reference cycle keeps the
    # walk's rows and points alive after it returns
    stack = [(0, 0, [1])] if depth else []
    while stack:
        start, k, minors = stack.pop()
        cofactors = cofactor_rows(plans[k], minors, t + 1)
        if k + 1 == t:
            # the one free set is every coordinate: its determinant, then
            # its numerators until one has the wrong sign
            ((_, at, signs),) = reads[k]
            det_row = cofactors[at]
            for row in rows[start:]:
                det = sum(map(mul, row, det_row))
                if not det:
                    continue
                negative = det < 0
                for a, (j, flip) in enumerate(signs):
                    v = sum(map(mul, row, cofactors[j]))
                    if v and (v < 0) != (flip != negative):
                        break
                    numerators[a] = abs(v)
                else:
                    g = gcd(det, *numerators)
                    found.add((abs(det) // g, tuple(v // g for v in numerators)))
            continue
        for i in range(start, n):
            row = rows[i]
            child = [sum(map(mul, row, c)) for c in cofactors]
            if not any(child):
                continue
            for free, at, signs in reads[k]:
                det = child[at]
                if not det:
                    continue
                negative = det < 0
                for j, flip in signs:
                    v = child[j]
                    if v and (v < 0) != (flip != negative):
                        break
                else:
                    values = [abs(child[j]) for j, _ in signs]
                    g = gcd(det, *values)
                    alpha = [0] * t
                    for f, v in zip(free, values):
                        alpha[f] = v // g
                    found.add((abs(det) // g, tuple(alpha)))
            if k + 1 < depth and i + 1 < n:
                stack.append((i + 1, k + 1, child))
    if bound is not None:
        found = [
            (scale, alpha) for scale, alpha in found
            if sum(map(mul, alpha, inst.C)) * bottom <= top * scale
        ]
    # distinct coordinates v / d differ by at least 1 / max(d)^2, so the
    # floors of K times them, K > max(d)^2, order them exactly in ints
    k = max(scale for scale, _ in found) ** 2 + 1
    points = sorted(found, key=lambda a: [v * k // a[0] for v in a[1]])
    return CandidateSet(points=tuple(points), C=inst.C, bound=bound)


@dataclass(frozen=True)
class PreparedInstance:
    """An instance after ``preprocess``, with its dual candidate set.

    Built once per solve and shared by the search, the F(x) computation and
    the certificate check: all three depend on the instance alone.  slack
    is the relaxed accuracy the set was bounded for (``prepare``).
    """

    reduced: Instance
    index_map: tuple[int | None, ...]
    candidates: CandidateSet
    slack: Fraction


def prepare(inst: Instance, slack) -> PreparedInstance:
    """Preprocess an instance and enumerate the candidates of the result
    within the bound T = (1 + s) U + s max p of the module docstring, for
    the relaxed accuracy s = slack.

    U is the profit that the greedy removal by p / c keeps at alpha = 0
    (nominal.greedy_kept_units), on the reduced instance.  The set then
    serves the FPTAS at any eps <= s and the exact scan at any s >= 0.
    """
    slack = Fraction(slack)
    if slack < 0:
        raise ValueError(f"slack must be non-negative, got {slack}")
    reduced, index_map = preprocess(inst)
    kept = greedy_kept_units(reduced.p, reduced.c, reduced.B)
    bound = (1 + slack) * kept + slack * max(reduced.p, default=0)
    return PreparedInstance(
        reduced=reduced,
        index_map=index_map,
        candidates=dual_vertex_candidates(reduced, bound),
        slack=slack,
    )


def scaled_reduced_profits(p, W, scale: int, alpha) -> list[int]:
    """max(0, p_i L - w_i . (alpha L)) per item, for profits p, weight rows
    W and a point (L, alpha L).

    Built one capacity row at a time, skipping zero multipliers.
    """
    rs = [pi * scale for pi in p]
    for row, aj in zip(W, alpha):
        if aj:
            rs = [r - w * aj for r, w in zip(rs, row)]
    return [r if r > 0 else 0 for r in rs]


def dantzig_lower_bound(inst: Instance, a: tuple[int, tuple[int, ...]]) -> int:
    """L times a lower bound on the dual value of the point a = (L, alpha L):
    alpha . C plus the least reduced profit the knapsack's LP relaxation
    keeps within the budget (nominal.lp_least_units), rounded up, all in
    ints scaled by L.

    The FPTAS rounds each reduced profit up, so the bound is also below
    every rounded value of the candidate, at every grid level.
    """
    scale, alpha = a
    reduced = scaled_reduced_profits(inst.p, inst.W, scale, alpha)
    base = sum(aj * cj for aj, cj in zip(alpha, inst.C))
    return base + lp_least_units(reduced, inst.c, inst.B)


def dual_bound_exact(
    inst: Instance, a: tuple[int, tuple[int, ...]]
) -> tuple[Fraction, InterdictionVector]:
    """Best interdiction under the dual objective at a fixed multiplier.

    Minimising the surviving reduced profit over budget-feasible x is a 0-1
    knapsack: select items to interdict, maximising the reduced profit
    removed.  Returns the exact bound value and the attaining interdiction.
    The knapsack runs on the reduced profits scaled by L to ints, with
    a = (L, alpha L); its choices compare sums of them only, so they are
    those of the unscaled profits.
    """
    scale, alpha = a
    reduced = scaled_reduced_profits(inst.p, inst.W, scale, alpha)
    answer = knapsack_max_budget(reduced, inst.c, inst.B)
    x = InterdictionVector.from_bits(answer.chosen, inst.c)
    base = sum(aj * cj for aj, cj in zip(alpha, inst.C))
    return Fraction(base + sum(reduced) - answer.value, scale), x


def exact_fractional_optimum(
    inst: Instance, candidates: CandidateSet | None = None
) -> tuple[Fraction, InterdictionVector, tuple[int, tuple[int, ...]]]:
    """Exact relaxed interdiction optimum by scanning the dual candidates.

    Returns the value, the interdiction and the point (L, alpha L).
    Pseudopolynomial: at most one budget knapsack per candidate.  Ties
    between candidates are broken by the first point in sorted order.  A
    shared ``candidates`` must be ``dual_vertex_candidates(inst)``, or that
    set cut at a bound of at least opt_f, such as ``prepare``'s; the full
    set is built when omitted.

    Once there is an incumbent value v, a later candidate is skipped when,
    in ints scaled by L, (alpha L) . C >= v L, or else when its
    ``dantzig_lower_bound`` is >= v L.  Both are lower bounds on L times the
    candidate's value, so a skipped candidate could not pass the strict
    ``value < v`` update: the answer is the unpruned scan's, ties included.
    """
    if candidates is None:
        candidates = dual_vertex_candidates(inst)
    best = None
    for a, dot in zip(candidates.points, candidates.dots):
        if best is not None:
            num, den = best[0].numerator, best[0].denominator
            if dot * den >= num * a[0]:
                continue
            if dantzig_lower_bound(inst, a) * den >= num * a[0]:
                continue
        value, x = dual_bound_exact(inst, a)
        if best is None or value < best[0]:
            best = (value, x, a)
    assert best is not None  # candidate set always contains the origin
    return best


def fractional_value(
    inst: Instance, x: InterdictionVector, candidates: CandidateSet | None = None
) -> Fraction:
    """Exact packing LP value F(x) by the dual scan, for every t.

    The candidate set of ``dual_vertex_candidates`` does not depend on x, so
    minimising the dual objective over it is exact for every interdiction,
    and a caller that evaluates several interdictions of one instance can
    pass the set it already built.  A set cut at a bound T gives F(x)
    exactly when the minimum it finds is at most T, and a larger value
    otherwise (module docstring).  Each candidate is
    evaluated in integers: with L the lcm of alpha's denominators,
    (alpha L) . C plus the sum of max(0, p_i L - w_i . (alpha L)) over the
    surviving items is L times the dual objective, built one capacity row
    at a time; values compare by int cross-products, and one Fraction is
    built for the answer.  The candidates are scanned in alpha . C order
    (``CandidateSet.order``), and the scan stops at the first one
    whose alpha . C reaches the best value so far: every later value is at
    least its own alpha . C, so none is smaller and the minimum is exact.
    """
    if len(x.bits) != inst.n:
        raise DimensionMismatchError("interdiction length does not match instance")
    if candidates is None:
        candidates = dual_vertex_candidates(inst)
    kept = [i for i in range(inst.n) if not x.bits[i]]
    p = [inst.p[i] for i in kept]
    W = [[row[i] for i in kept] for row in inst.W]
    best, best_scale = None, 1
    for i in candidates.order:
        scale, alpha = candidates.points[i]
        dot = candidates.dots[i]
        if best is not None and dot * best_scale >= best * scale:
            break
        total = dot + sum(scaled_reduced_profits(p, W, scale, alpha))
        if best is None or total * best_scale < best * scale:
            best, best_scale = total, scale
    assert best is not None  # the candidate set always contains the origin
    return Fraction(best, best_scale)
