import random
from fractions import Fraction
from math import isqrt

import pytest

from ncreflect import exprs
from ncreflect.exprs import (
    MAX_TERMS,
    MAX_WORD_LENGTH,
    ExprError,
    p_degree,
    p_mul,
    p_scale,
    parse,
    parse_scalar,
    show,
)
from ncreflect.linalg import vec_addto
from ncreflect.scalars import Cyc, I, ONE, zeta

UV = ["u", "v"]


def test_parse_simple_terms():
    assert parse("u", UV) == {(0,): ONE}
    assert parse("u*v", UV) == {(0, 1): ONE}
    assert parse("v*u", UV) == {(1, 0): ONE}
    assert parse("u^3", UV) == {(0, 0, 0): ONE}
    assert parse("2*u - v", UV) == {(0,): Cyc.rational(2), (1,): Cyc.rational(-1)}


def test_parse_scalars():
    assert parse_scalar("3/4") == Cyc.rational(3, 4)
    assert parse_scalar("i") == I
    assert parse_scalar("z8^2") == I
    assert parse_scalar("z8^-1") == zeta(8, 7)
    assert parse_scalar("i^2") == Cyc.rational(-1)
    assert parse_scalar("1/2 + 1/2") == ONE
    assert parse_scalar("(1+i)*(1-i)") == Cyc.rational(2)


def test_quantum_plane_relation():
    rel = parse("v*u - i*u*v", UV)
    assert rel == {(1, 0): ONE, (0, 1): -I}
    assert p_degree(rel) == 2


def test_noncommutativity_and_expansion():
    lhs = parse("(u + v)^2", UV)
    assert lhs == {(0, 0): ONE, (0, 1): ONE, (1, 0): ONE, (1, 1): ONE}
    assert parse("u*v", UV) != parse("v*u", UV)


def test_unary_minus_and_nesting():
    assert parse("-u", UV) == {(0,): Cyc.rational(-1)}
    assert parse("-(u - v)", UV) == {(0,): Cyc.rational(-1), (1,): ONE}
    assert parse("2*(u + 3*(v + u))", UV) == {(0,): Cyc.rational(8), (1,): Cyc.rational(6)}


def test_weighted_degree():
    rel = parse("d*u^2 - u^2*d", ["u", "d"])
    assert p_degree(rel) == 3
    assert p_degree(rel, [1, 2]) == 4
    mixed = parse("u + u^2", UV)
    assert p_degree(mixed) is None
    assert p_degree({}) is None


def test_syntax_errors_carry_offsets():
    with pytest.raises(ExprError) as e:
        parse("^2*u", UV)
    assert e.value.offset == 0
    with pytest.raises(ExprError) as e:
        parse("u + ", UV)
    assert e.value.offset == 4
    with pytest.raises(ExprError) as e:
        parse("u w", UV)
    assert e.value.offset == 2
    with pytest.raises(ExprError) as e:
        parse("u * q", UV)
    assert e.value.offset == 4
    with pytest.raises(ExprError):
        parse("(u", UV)
    with pytest.raises(ExprError):
        parse("u^-2", UV)
    with pytest.raises(ExprError):
        parse("", UV)
    with pytest.raises(ExprError):
        parse("u $ v", UV)


def test_expansion_limits_refuse_at_the_operator():
    X = ["x"]
    assert parse(f"x^{MAX_WORD_LENGTH}", X) == {(0,) * MAX_WORD_LENGTH: ONE}
    assert parse(f"x^{MAX_WORD_LENGTH // 2}*x^{MAX_WORD_LENGTH // 2}", X) \
        == {(0,) * MAX_WORD_LENGTH: ONE}
    n = isqrt(MAX_TERMS)  # n * n pairs are allowed, (n + 1) * n are not
    terms = "+".join(f"x^{k}" for k in range(1, n + 1))
    assert len(parse(f"({terms})*({terms})", X)) == 2 * n - 1
    refused = [
        (f"x^{MAX_WORD_LENGTH + 1}", 1),
        (f"2^{MAX_WORD_LENGTH + 1}", 1),  # a scalar power, whatever its words
        (f"(x^2)^{MAX_WORD_LENGTH // 2 + 1}", 5),
        (f"x^{MAX_WORD_LENGTH}*x", len(f"x^{MAX_WORD_LENGTH}")),
        (f"({terms}+x^{n + 1})*({terms})", len(terms) + len(f"(+x^{n + 1})")),
    ]
    for text, offset in refused:
        with pytest.raises(ExprError) as e:
            parse(text, X)
        assert e.value.offset == offset, text


def test_expansion_budget_counts_every_product_of_one_parse(monkeypatch):
    monkeypatch.setattr(exprs, "MAX_EXPANSION", 12)
    X = ["x"]
    # each product below is one pair of terms; a power of k is k products
    assert parse("x" + "*x" * 12, X) == {(0,) * 13: ONE}
    assert parse("x^6 + x^6", X) == {(0,) * 6: Cyc.rational(2)}
    refused = [
        ("x" + "*x" * 13, 1 + 2 * 12),  # at the thirteenth '*'
        ("x^13", 1),
        ("x^6 + (x*x^6)", len("x^6 + (x")),
    ]
    for text, offset in refused:
        with pytest.raises(ExprError) as e:
            parse(text, X)
        assert e.value.offset == offset, text
    # the budget is per parse, not per process
    assert parse("x^12", X) == {(0,) * 12: ONE}


def test_show_basic_forms():
    gens = ["u", "v"]
    assert show({}, gens) == "0"
    assert show(parse("u^2*v - v*u^2", gens), gens) == "u^2*v - v*u^2"
    assert show(parse("-u + 2", gens), gens) == "2 - u"
    p = parse("i*u*v", gens)
    assert show(p, gens) == "z4*u*v"
    q = parse("(1 + z8)*u", gens)
    assert show(q, gens) == "(1 + z8)*u"


def _random_poly(rng):
    gens = ["u", "v", "w"]
    poly = {}
    for _ in range(rng.randint(1, 5)):
        word = tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 3)))
        scale = rng.choice(
            [
                Cyc.rational(rng.randint(-3, 3)),
                Cyc.rational(1, 2),
                zeta(8, rng.randint(1, 7)),
                ONE + zeta(4, 1),
            ]
        )
        vec_addto(poly, {word: ONE}, scale)
    return poly, gens


def test_show_parse_round_trip_randomised():
    rng = random.Random(4242)
    for _ in range(80):
        poly, gens = _random_poly(rng)
        assert parse(show(poly, gens), gens) == poly


def test_free_poly_algebra():
    a = parse("u + v", UV)
    b = parse("u - v", UV)
    assert p_mul(a, b) == parse("u^2 - u*v + v*u - v^2", UV)
    assert parse("(u + v)^0", UV) == {(): ONE}
    assert p_scale(a, Fraction(0)) == {}
