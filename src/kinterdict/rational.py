"""Exact rational scalars and their canonical string form.

Every continuous quantity in this package (dual multipliers, relaxation
values, accuracy parameters, grid points) is an exact rational.  We use
``fractions.Fraction``, which already guarantees canonical reduced form
(positive denominator, gcd 1) and exact arithmetic over arbitrary-precision
integers.  No float ever enters a solver path; strings like ``"0.35"`` or
``"7/20"`` are converted exactly.
"""

from __future__ import annotations

from fractions import Fraction


def rat_to_str(q: Fraction) -> str:
    """Canonical "num/den" rendering ("num" alone when den == 1)."""
    return str(Fraction(q))

