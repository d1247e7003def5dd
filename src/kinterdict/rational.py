"""Exact rational scalars and their canonical string form.

Every continuous quantity in this package (dual multipliers, relaxation
values, accuracy parameters, grid points) is an exact rational.  We use
``fractions.Fraction``, which already guarantees canonical reduced form
(positive denominator, gcd 1) and exact arithmetic over arbitrary-precision
integers.  No float decides a value on a solver path; strings like ``"0.35"`` or
``"7/20"`` are converted exactly.
"""

from __future__ import annotations

from fractions import Fraction

# Python refuses to render an int of more than a few thousand digits
# (sys.get_int_max_str_digits, at least 640), a guard that input parsing
# keeps.  Grid values can be longer, so they are rendered in chunks of
# fewer digits than the smallest limit Python allows.
_CHUNK_DIGITS = 600
_CHUNK = 10**_CHUNK_DIGITS


def _int_to_str(n: int) -> str:
    """Decimal digits of an int of any length, by base-10^600 conversion."""
    if n < 0:
        return "-" + _int_to_str(-n)
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(str(low).zfill(_CHUNK_DIGITS))
    chunks.append(str(n))
    return "".join(reversed(chunks))


def rat_to_str(q: Fraction) -> str:
    """Canonical "num/den" rendering ("num" alone when den == 1), exact for
    numerators and denominators of any length."""
    q = Fraction(q)
    num = _int_to_str(q.numerator)
    return num if q.denominator == 1 else f"{num}/{_int_to_str(q.denominator)}"
