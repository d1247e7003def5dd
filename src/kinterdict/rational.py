"""Exact rational scalars and the few arithmetic helpers the solvers need.

Every continuous quantity in this package (dual multipliers, relaxation
values, accuracy parameters, grid points) is an exact rational.  We use
``fractions.Fraction``, which already guarantees canonical reduced form
(positive denominator, gcd 1) and exact arithmetic over arbitrary-precision
integers.  No float ever enters a solver path; strings like ``"0.35"`` or
``"7/20"`` are converted exactly.
"""

from __future__ import annotations

from fractions import Fraction

Rat = Fraction


def rat_to_str(q: Rat) -> str:
    """Canonical "num/den" rendering ("num" alone when den == 1)."""
    return str(Fraction(q))


def ceil_div(a: Rat, d: Rat) -> int:
    """Exact ceil(a / d) for a >= 0, d > 0, as a plain int."""
    if d <= 0:
        raise NonpositiveDivisorError(f"divisor must be positive, got {d}")
    if a < 0:
        raise ValueError(f"dividend must be non-negative, got {a}")
    q = Fraction(a) / Fraction(d)
    return -((-q.numerator) // q.denominator)


class NonpositiveDivisorError(ValueError):
    pass
