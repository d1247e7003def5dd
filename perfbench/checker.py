"""Exact check of CLI answers, and the digest used for output drift.

Every comparison is between exact rationals; nothing here is timed.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from kinterdict.dual import exact_fractional_optimum, fractional_value
from kinterdict.instance import InterdictionVector, preprocess


def check_answer(argv, inst, text: str) -> tuple[str | None, Fraction]:
    """Check a ``solve`` or ``exact-optf`` answer against the exact optimum.

    Returns (reason the answer is wrong or None, f_value / opt_f).
    """
    try:
        obj = json.loads(text)
        x = obj["x"]
        claimed = Fraction(obj["f_value" if argv[0] == "solve" else "opt_f"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}", Fraction(0)
    if len(x) != inst.n or any(b not in (0, 1) for b in x):
        return "x is not a 0/1 vector of length n", Fraction(0)
    if sum(c for b, c in zip(x, inst.c) if b) > inst.B:
        return "x exceeds the budget", Fraction(0)
    reduced, index_map = preprocess(inst)
    kept = tuple(x[i] for i in range(inst.n) if index_map[i] is not None)
    value = fractional_value(reduced, InterdictionVector.from_bits(kept, reduced.c))
    if value != claimed:
        return f"claimed {claimed} but F(x) = {value}", Fraction(0)
    if argv[0] != "solve":
        return None, Fraction(1)
    opt = exact_fractional_optimum(reduced)[0]
    eps = Fraction(argv[argv.index("--eps") + 1])
    slack = eps / 2 if inst.t == 1 else eps / (1 + inst.t)
    if value > (1 + slack) * opt:
        return f"f_value {value} > (1+{slack}) * opt_f {opt}", Fraction(0)
    return None, value / opt if opt else Fraction(1)


def answer_digest(argv, text: str) -> str:
    """Digest of (x, f_value, z_star, alpha_star); exact-optf uses (x, opt_f, alpha)."""
    obj = json.loads(text)
    if argv[0] == "solve":
        key = [obj["x"], obj["f_value"], obj["z_star"], obj["alpha_star"]]
    else:
        key = [obj["x"], obj["opt_f"], None, obj["alpha"]]
    return hashlib.sha256(json.dumps(key).encode()).hexdigest()[:16]
