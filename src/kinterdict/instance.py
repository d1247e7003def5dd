"""Problem instances: data model, strict JSON parsing, preprocessing.

An instance has n items with integer profits p, interdiction costs c, and a
t x n non-negative weight matrix W; an interdiction budget B; and a capacity
vector C of length t.  The interdictor deletes items subject to
``sum(c[i] for deleted i) <= B`` to minimise the best packing value of the
survivors under ``W y <= C``.

All values are arbitrary-precision integers, within Python's limit on the
digits of one int (4300 by default).  The JSON format also accepts ASCII
decimal strings for values that overflow typical 64-bit readers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction


class InstanceError(ValueError):
    """Base class for instance parsing/validation failures."""


class MalformedSyntaxError(InstanceError):
    """The input is not valid JSON at all."""


class SchemaViolationError(InstanceError):
    """Valid JSON that does not match the instance schema."""

    def __init__(self, field: str, message: str):
        super().__init__(f"field '{field}': {message}")
        self.field = field


class NegativeValueError(SchemaViolationError):
    """A numeric field that must be non-negative is negative."""


@dataclass(frozen=True)
class Instance:
    """Immutable interdiction instance (safe to share between workers)."""

    n: int
    t: int
    p: tuple[int, ...]
    c: tuple[int, ...]
    W: tuple[tuple[int, ...], ...]  # t rows, each of length n
    B: int
    C: tuple[int, ...]

    def weight_of(self, item: int) -> tuple[int, ...]:
        return tuple(self.W[j][item] for j in range(self.t))


@dataclass(frozen=True)
class InterdictionVector:
    """0/1 indicator of deleted items with its cached interdiction cost."""

    bits: tuple[int, ...]
    cost: int

    @classmethod
    def from_bits(cls, bits, costs) -> "InterdictionVector":
        bits = tuple(int(b) for b in bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError("interdiction entries must be 0 or 1")
        if len(bits) != len(costs):
            raise ValueError("interdiction length does not match item count")
        return cls(bits=bits, cost=sum(c for b, c in zip(bits, costs) if b))

    def feasible(self, budget: int) -> bool:
        return self.cost <= budget


@dataclass(frozen=True)
class FractionalPacking:
    """A fractional packing y in [0,1]^n with its exact value p . y."""

    y: tuple[Fraction, ...]
    value: Fraction
    frac_support: tuple[int, ...]  # indices with 0 < y_i < 1


_FIELDS = ("n", "t", "p", "c", "w", "B", "C")


def _as_nonneg_int(value, field: str) -> int:
    # bool is an int subclass; JSON true/false must not sneak in as 1/0
    if isinstance(value, bool):
        raise SchemaViolationError(field, "expected a non-negative integer")
    if isinstance(value, int):
        n = value
    elif isinstance(value, str):
        s = value.strip()
        body = s[1:] if s.startswith("-") else s
        # str.isdigit also holds for other scripts' digits and superscripts
        if not (body.isascii() and body.isdigit()):
            raise SchemaViolationError(field, f"not a decimal integer: {value!r}")
        try:
            n = int(s)
        except ValueError as exc:  # past Python's limit on digits parsed
            raise SchemaViolationError(
                field, f"{len(body)} digits, too many to read"
            ) from exc
    else:
        raise SchemaViolationError(field, "expected a non-negative integer")
    if n < 0:
        raise NegativeValueError(field, f"negative value {n}")
    return n


def _as_int_list(value, field: str, length: int) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise SchemaViolationError(field, "expected an array")
    if len(value) != length:
        raise SchemaViolationError(
            field, f"expected length {length}, got {len(value)}"
        )
    # plain non-negative ints, as json.loads gives, pass in one check; bools
    # (an int subclass), strings and the rest take the checked path
    if all(type(v) is int for v in value) and min(value, default=0) >= 0:
        return tuple(value)
    return tuple(_as_nonneg_int(v, f"{field}[{k}]") for k, v in enumerate(value))


def parse_instance(text) -> Instance:
    """Parse and validate an instance from JSON text or bytes.

    Field order is irrelevant; unknown keys, missing fields, negative values,
    floats, digits other than ASCII ones, values past the digit limit,
    length mismatches and JSON nested past the recursion limit are all
    rejected.
    """
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        raw = json.loads(text)
    # bad UTF-8, bad JSON, too many digits, or too deeply nested
    except (ValueError, RecursionError) as exc:
        raise MalformedSyntaxError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaViolationError("<root>", "top-level value must be an object")
    for key in raw:
        if key not in _FIELDS:
            raise SchemaViolationError(key, "unknown key")
    for key in _FIELDS:
        if key not in raw:
            raise SchemaViolationError(key, "missing")

    n = _as_nonneg_int(raw["n"], "n")
    t = _as_nonneg_int(raw["t"], "t")
    if t < 1:
        raise SchemaViolationError("t", "must be >= 1")
    p = _as_int_list(raw["p"], "p", n)
    c = _as_int_list(raw["c"], "c", n)
    if not isinstance(raw["w"], list) or len(raw["w"]) != t:
        raise SchemaViolationError("w", f"expected {t} rows")
    W = tuple(_as_int_list(row, f"w[{j}]", n) for j, row in enumerate(raw["w"]))
    B = _as_nonneg_int(raw["B"], "B")
    C = _as_int_list(raw["C"], "C", t)
    return Instance(n=n, t=t, p=p, c=c, W=W, B=B, C=C)


def serialize_instance(inst: Instance) -> str:
    """Canonical single-line JSON with fixed key order and a trailing newline."""
    obj = {
        "n": inst.n,
        "t": inst.t,
        "p": list(inst.p),
        "c": list(inst.c),
        "w": [list(row) for row in inst.W],
        "B": inst.B,
        "C": list(inst.C),
    }
    return json.dumps(obj) + "\n"


def preprocess(inst: Instance) -> tuple[Instance, tuple[int | None, ...]]:
    """Drop every item that cannot fit the capacity alone.

    An item i with W[j][i] > C[j] for some row j can never be packed
    integrally, so deleting it (rather than spending budget on it) leaves the
    interdiction optimum unchanged.  Returns the reduced instance and a map
    original index -> reduced index (None for dropped items).
    """
    keep = range(inst.n)
    for row, cap in zip(inst.W, inst.C):
        if max(row, default=0) > cap:
            keep = [i for i in keep if row[i] <= cap]
    if len(keep) == inst.n:
        return inst, tuple(range(inst.n))
    index_map: list[int | None] = [None] * inst.n
    for new, old in enumerate(keep):
        index_map[old] = new
    reduced = Instance(
        n=len(keep),
        t=inst.t,
        p=tuple(inst.p[i] for i in keep),
        c=tuple(inst.c[i] for i in keep),
        W=tuple(tuple(row[i] for i in keep) for row in inst.W),
        B=inst.B,
        C=inst.C,
    )
    return reduced, tuple(index_map)


def lift_interdiction(
    bits_reduced, index_map: tuple[int | None, ...]
) -> tuple[int, ...]:
    """Report a reduced-instance interdiction in original item indices.

    Dropped items are never interdicted (spending budget on them is useless).
    """
    return tuple(
        bits_reduced[r] if r is not None else 0 for r in index_map
    )
