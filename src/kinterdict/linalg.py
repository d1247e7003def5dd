"""Tiny exact linear algebra over the integers.

``subset_minors`` walks the m-subsets of a list of integer rows of width
m + 1 depth-first and gives each subset's maximal minors: for rows
(a_i..., b_i) they are det(A) and, up to sign, the Cramer numerators of
the m x m system A x = b.  A child's minors are one Laplace step along its
new row from its prefix's, so rows shared by many subsets are expanded
once.  The vertex enumeration of ``dual`` runs on it, in ints alone, and
``solve_square_system`` solves one square system as the one subset of all
its rows, in Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations


@lru_cache(maxsize=None)
def _laplace_plan(width: int, k: int) -> tuple:
    """How the k x k minors of a k x width matrix follow from the
    (k - 1) x (k - 1) minors of its first k - 1 rows, by Laplace expansion
    along row k - 1.

    Column k-subsets are listed in reverse lexicographic order, so for
    k = width - 1 entry l is the subset without column l.  Entry i lists,
    for each column c at position a of subset i, the column c, the index
    of the subset without c among the (k - 1)-subsets, and whether the
    cofactor sign (-1)^(k - 1 + a) is negative.
    """
    cols_before = reversed(list(combinations(range(width), k - 1)))
    index = {cols: i for i, cols in enumerate(cols_before)}
    return tuple(
        tuple(
            (c, index[cols[:a] + cols[a + 1:]], (k - 1 + a) % 2 == 1)
            for a, c in enumerate(cols)
        )
        for cols in reversed(list(combinations(range(width), k)))
    )


def subset_minors(rows, m: int):
    """Yield (subset, minors) for every m-subset of the integer rows, each
    of width m + 1, whose rows are linearly independent; subsets are index
    tuples in lexicographic order, and minors[l] is the determinant of the
    subset's rows with column l deleted.

    For rows (a_i..., b_i), minors[m] = det(A), and by Cramer's rule
    A x = b is solved by x_j = (-1)^(m - 1 - j) minors[j] / det(A), moving
    column b from the end to position j.  The subsets are walked depth-first:
    a prefix of k rows carries all its k x k minors (its Pluecker
    coordinates), and each row added costs one Laplace step along it.  A
    prefix whose minors are all 0 has dependent rows, and so has every
    subset that extends it; that branch is skipped.  The subsets left out
    are exactly those whose maximal minors all vanish.
    """
    n = len(rows)
    plans = [_laplace_plan(m + 1, k) for k in range(1, m + 1)]

    def extend(start, depth, prefix, minors):
        plan = plans[depth]
        leaf = depth + 1 == m
        for i in range(start, n - m + depth + 1):
            row = rows[i]
            child = []
            for terms in plan:
                v = 0
                for c, j, negative in terms:
                    if negative:
                        v -= row[c] * minors[j]
                    else:
                        v += row[c] * minors[j]
                child.append(v)
            if not any(child):
                continue
            if leaf:
                yield prefix + (i,), child
            else:
                yield from extend(i + 1, depth + 1, prefix + (i,), child)

    return extend(0, 0, (), [1]) if m else iter([((), [1])])


def solve_square_system(A, b) -> list[Fraction] | None:
    """Solve A x = b exactly for square integer A and b; None when A is singular.

    A is a list of rows of ints.  ``subset_minors`` on the rows (A_i..., b_i)
    walks the one subset of all of them, unless [A | b] has dependent rows
    (then A is singular), and gives det(A) = minors[m]; by Cramer's rule
    x_j = (-1)^(m - 1 - j) minors[j] / det(A).
    """
    m = len(A)
    for _, minors in subset_minors([[*row, b_i] for row, b_i in zip(A, b)], m):
        det = minors[m]
        if det:
            return [Fraction((-1) ** (m - 1 - j) * minors[j], det) for j in range(m)]
    return None
