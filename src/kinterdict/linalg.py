"""Tiny exact linear algebra over the integers.

The k x k minors of the first k rows of an integer matrix (its Pluecker
coordinates) follow from those of its first k - 1 rows by one Laplace
expansion along row k; ``_laplace_plan`` lists how.  The vertex walk of
``dual`` carries these minors from each subset of item rows to its
extensions, in ints alone.  ``solve_square_system`` takes the same steps
along the rows (A_i..., b_i) of one square system: its last minors are
det(A) and, up to sign, the Cramer numerators, and the solution is built in
Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import mul


# bounded, so a long-lived process does not keep every width it has seen
@lru_cache(maxsize=32)
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


def cofactor_rows(plan, minors, width: int) -> list[list[int]]:
    """The signed cofactors of one Laplace step, as one row per entry of
    ``plan`` (a ``_laplace_plan(width, k)``, or entries like its) over the
    (k - 1) x (k - 1) ``minors``: after a row r is added, entry i's k x k
    minor is sum(map(mul, r, rows[i])).  A prefix builds them once and
    each of its extensions takes one dot product per minor."""
    rows = []
    for terms in plan:
        row = [0] * width
        for c, j, negative in terms:
            row[c] = -minors[j] if negative else minors[j]
        rows.append(row)
    return rows


def solve_square_system(A, b) -> list[Fraction] | None:
    """Solve A x = b exactly for square integer A and b; None when A is singular.

    A is a list of rows of ints.  The minors of the rows (A_i..., b_i) are
    built one Laplace step (``cofactor_rows``) per row; once a prefix's
    minors all vanish its rows are dependent, and so are those of [A | b]
    and of A.  After the m rows, minors[l] is the determinant with column l
    deleted: det(A) = minors[m], and by Cramer's rule
    x_j = (-1)^(m - 1 - j) minors[j] / det(A), moving column b from the end
    to position j.
    """
    m = len(A)
    minors = [1]
    for k, (row, b_k) in enumerate(zip(A, b), 1):
        row = [*row, b_k]
        minors = [
            sum(map(mul, row, cofactors))
            for cofactors in cofactor_rows(_laplace_plan(m + 1, k), minors, m + 1)
        ]
        if not any(minors):
            return None
    det = minors[m]
    if not det:
        return None
    return [Fraction((-1) ** (m - 1 - j) * minors[j], det) for j in range(m)]
