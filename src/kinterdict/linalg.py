"""Tiny exact linear solver: square integer systems by fraction-free elimination."""

from __future__ import annotations

from fractions import Fraction


def solve_square_system(A, b) -> list[Fraction] | None:
    """Solve A x = b exactly for square integer A and b; None when A is singular.

    A is a list of rows of ints.  Gauss-Jordan elimination in Bareiss's
    fraction-free form (Bareiss 1968) keeps every entry an integer: after
    pivot step k each entry is a (k+1) x (k+1) minor of [A | b], so dividing
    by the previous pivot is exact.  A zero pivot is replaced by the first
    row below with a nonzero entry in that column (pivot magnitude is
    irrelevant in exact arithmetic).  At the end every diagonal entry equals
    the last pivot d = +-det(A) and the right-hand column holds d x, so one
    Fraction per unknown is built.
    """
    m = len(A)
    if m == 0:
        return []
    M = [list(row) + [b[i]] for i, row in enumerate(A)]
    prev = 1
    for k in range(m):
        if M[k][k] == 0:
            swap = next((r for r in range(k + 1, m) if M[r][k] != 0), None)
            if swap is None:
                return None
            M[k], M[swap] = M[swap], M[k]
        pivot_row = M[k]
        pk = pivot_row[k]
        for r in range(m):
            if r != k:
                f = M[r][k]
                M[r] = [
                    (pk * v - f * pv) // prev for v, pv in zip(M[r], pivot_row)
                ]
        prev = pk
    return [Fraction(M[i][m], prev) for i in range(m)]
