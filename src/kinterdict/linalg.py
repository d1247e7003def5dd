"""Tiny exact linear solver: square integer systems by fraction-free elimination.

``cramer_solve`` works in ints alone and returns det(A) with the Cramer
numerators det(A_i), so a caller can test signs, reduce and compare
solutions before, or instead of, building any Fraction.
``solve_square_system`` is its Fraction form.
"""

from __future__ import annotations

from fractions import Fraction


def cramer_solve(A, b) -> tuple[int, list[int]] | None:
    """(det(A), [det(A_1), ..., det(A_m)]) for square integer A and b, with
    A_i the matrix A whose column i is replaced by b; None when A is singular.

    By Cramer's rule the solution of A x = b is x_i = det(A_i) / det(A).
    Gauss-Jordan elimination in Bareiss's fraction-free form (Bareiss 1968)
    keeps every entry an integer: after pivot step k each entry is a
    (k+1) x (k+1) minor of [A | b], so dividing by the previous pivot is
    exact.  A zero pivot is replaced by the first row below with a nonzero
    entry in that column (pivot magnitude is irrelevant in exact
    arithmetic), and each swap flips the sign of the determinant.  At the
    end the last pivot is d = +-det(A) and the right-hand column holds d x.
    The empty system gives (1, []).
    """
    m = len(A)
    # row r holds columns k..m of [A | b] at step k: the columns left of k
    # are no longer read, so they are dropped
    M = [[*row, b_r] for row, b_r in zip(A, b)]
    prev = 1
    sign = 1
    for k in range(m):
        if M[k][0] == 0:
            swap = next((r for r in range(k + 1, m) if M[r][0] != 0), None)
            if swap is None:
                return None
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        pk = M[k][0]
        pivot = M[k][1:]
        for r, row in enumerate(M):
            if r == k:
                M[r] = pivot
            else:
                f = row[0]
                M[r] = [(pk * v - f * pv) // prev for v, pv in zip(row[1:], pivot)]
        prev = pk
    return sign * prev, [sign * row[0] for row in M]


def solve_square_system(A, b) -> list[Fraction] | None:
    """Solve A x = b exactly for square integer A and b; None when A is singular.

    A is a list of rows of ints.  The Fraction form of ``cramer_solve``: one
    Fraction per unknown, built from the integer numerators and det(A).
    """
    solved = cramer_solve(A, b)
    if solved is None:
        return None
    det, numerators = solved
    return [Fraction(v, det) for v in numerators]
