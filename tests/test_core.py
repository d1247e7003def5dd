from fractions import Fraction

import pytest
from hypothesis import given, settings

from kinterdict.cli import _parse_eps
from kinterdict.fptas import GeometricGrid
from kinterdict.generator import SplitMix64
from kinterdict.instance import (
    Instance,
    MalformedSyntaxError,
    NegativeValueError,
    SchemaViolationError,
    lift_interdiction,
    parse_instance,
    preprocess,
    serialize_instance,
)
from kinterdict.rational import rat_to_str

from conftest import T1, ceil_div, instance_strategy

T1_JSON = '{"n":2,"t":1,"p":[3,2],"c":[1,1],"w":[[2,2]],"B":1,"C":[2]}'


# rational helpers

def test_grid_point_z_is_exact_power():
    grid = GeometricGrid.build(T1, Fraction(1, 2))
    assert grid.point(0).z == 1
    assert grid.point(2).z == Fraction(9, 4)
    grid = GeometricGrid.build(T1, Fraction(1, 10))
    assert grid.point(3).z == Fraction(1331, 1000)
    assert all(
        grid.point(j).z == Fraction(11, 10) ** j for j in range(grid.J + 1)
    )


def test_grid_point_rejects_negative_level():
    grid = GeometricGrid.build(T1, Fraction(1, 2))
    with pytest.raises(ValueError):
        grid.point(-1)


def test_ceil_div_examples():
    assert ceil_div(Fraction(5, 2), Fraction(1, 3)) == 8
    assert ceil_div(Fraction(0), Fraction(7, 5)) == 0
    assert ceil_div(Fraction(4), Fraction(2)) == 2


def test_ceil_div_rejects_nonpositive_divisor():
    with pytest.raises(ValueError):
        ceil_div(Fraction(1), Fraction(0))
    with pytest.raises(ValueError):
        ceil_div(Fraction(1), Fraction(-2))


def test_ceil_div_bracket_on_1000_random_pairs():
    rng = SplitMix64(2024)
    for _ in range(1000):
        a = Fraction(rng.uniform(0, 5000), rng.uniform(1, 97))
        d = Fraction(rng.uniform(1, 5000), rng.uniform(1, 97))
        k = ceil_div(a, d)
        assert (k - 1) * d < a <= k * d


def test_rat_arithmetic_against_integer_identities():
    # independent check: cross-multiplied integer identities, 1000 triples
    rng = SplitMix64(99)
    for _ in range(1000):
        a = Fraction(rng.uniform(0, 400) - 200, rng.uniform(1, 60))
        b = Fraction(rng.uniform(0, 400) - 200, rng.uniform(1, 60))
        c = Fraction(rng.uniform(0, 400) - 200, rng.uniform(1, 60))
        s = a + b
        assert s.numerator * (a.denominator * b.denominator) == (
            a.numerator * b.denominator + b.numerator * a.denominator
        ) * s.denominator
        m = a * b
        assert m.numerator * (a.denominator * b.denominator) == (
            a.numerator * b.numerator
        ) * m.denominator
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c


def test_rat_canonical_form():
    q = _parse_eps("6/4")
    assert (q.numerator, q.denominator) == (3, 2)
    assert _parse_eps("0.125") == Fraction(1, 8)
    assert rat_to_str(Fraction(9, 3)) == "3"
    assert rat_to_str(Fraction(-3, 9)) == "-1/3"


def _digits_to_int(text: str) -> int:
    # int() refuses strings beyond Python's digit limit; fold short chunks
    value = 0
    for i in range(0, len(text), 500):
        chunk = text[i:i + 500]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_rat_to_str_renders_5000_digit_fractions_exactly():
    num = -(7 ** 5916 + 10 ** 600)  # 5000 digits, with a run of zeros inside
    den = 3 ** 10480 + 2  # 5001 digits
    q = Fraction(num, den)
    text = rat_to_str(q)
    head, _, tail = text.partition("/")
    assert head.startswith("-") and len(head) == 5001 and len(tail) == 5001
    assert Fraction(-_digits_to_int(head[1:]), _digits_to_int(tail)) == q
    assert rat_to_str(Fraction(10 ** 1200)) == "1" + "0" * 1200


# parsing

def test_parse_t1():
    inst = parse_instance(T1_JSON)
    assert inst == T1


def test_parse_accepts_bytes_and_field_order():
    shuffled = '{"C":[2],"B":1,"w":[[2,2]],"c":[1,1],"p":[3,2],"t":1,"n":2}'
    assert parse_instance(shuffled.encode()) == T1


def test_parse_empty_instance():
    inst = parse_instance('{"n":0,"t":1,"p":[],"c":[],"w":[[]],"B":0,"C":[0]}')
    assert inst.n == 0 and inst.t == 1 and inst.W == ((),)


def test_parse_rejects_negative_profit():
    bad = '{"n":1,"t":1,"p":[-1],"c":[1],"w":[[1]],"B":1,"C":[1]}'
    with pytest.raises(NegativeValueError):
        parse_instance(bad)
    # negative-value errors are also schema violations
    with pytest.raises(SchemaViolationError):
        parse_instance(bad)


def test_parse_rejects_malformed_syntax():
    with pytest.raises(MalformedSyntaxError):
        parse_instance("{not json")


@pytest.mark.parametrize(
    "mutate,field",
    [
        (lambda d: d.pop("B"), "B"),
        (lambda d: d.update(extra=1), "extra"),
        (lambda d: d.update(p=[3]), "p"),
        (lambda d: d.update(w=[[2, 2], [1, 1]]), "w"),
        (lambda d: d.update(t=0), "t"),
        (lambda d: d.update(B=1.5), "B"),
        (lambda d: d.update(B=True), "B"),
        (lambda d: d.update(C="x"), "C"),
    ],
)
def test_parse_schema_violations_carry_field_name(mutate, field):
    import json

    doc = json.loads(T1_JSON)
    mutate(doc)
    with pytest.raises(SchemaViolationError) as err:
        parse_instance(json.dumps(doc))
    assert field in str(err.value)


def test_parse_rejects_non_object_root():
    with pytest.raises(SchemaViolationError):
        parse_instance("[1,2,3]")


def test_parse_decimal_strings_beyond_64_bits():
    big = 10**25
    doc = (
        '{"n":1,"t":1,"p":["%d"],"c":[1],"w":[[1]],"B":1,"C":["%d"]}'
        % (big, big)
    )
    inst = parse_instance(doc)
    assert inst.p == (big,) and inst.C == (big,)


def test_parse_rejects_negative_decimal_string():
    doc = '{"n":1,"t":1,"p":["-7"],"c":[1],"w":[[1]],"B":1,"C":[1]}'
    with pytest.raises(NegativeValueError):
        parse_instance(doc)


def test_serialize_round_trip_t1():
    assert parse_instance(serialize_instance(T1)) == T1


@settings(max_examples=200)
@given(instance_strategy(max_n=5, t=2, max_value=30))
def test_serialize_round_trip_property(inst):
    assert parse_instance(serialize_instance(inst)) == inst


# preprocessing

def test_preprocess_drops_overweight_item():
    inst = Instance(n=2, t=1, p=(3, 2), c=(1, 1), W=((2, 5),), B=1, C=(2,))
    reduced, index_map = preprocess(inst)
    assert reduced.n == 1 and reduced.p == (3,)
    assert index_map == (0, None)
    assert lift_interdiction((1,), index_map) == (1, 0)


def test_preprocess_keeps_t1_unchanged():
    reduced, index_map = preprocess(T1)
    assert reduced == T1 and index_map == (0, 1)


def test_preprocess_checks_every_row():
    inst = Instance(
        n=2, t=2, p=(3, 2), c=(1, 1), W=((1, 1), (1, 9)), B=1, C=(2, 2)
    )
    reduced, index_map = preprocess(inst)
    assert reduced.n == 1 and index_map == (0, None)


@settings(max_examples=200)
@given(instance_strategy(max_n=6, t=2, max_value=8))
def test_preprocess_idempotent(inst):
    once, _ = preprocess(inst)
    twice, index_map = preprocess(once)
    assert twice == once
    assert index_map == tuple(range(once.n))
