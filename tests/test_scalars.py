import inspect
import random
import sys
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ncreflect import scalars
from ncreflect.analysis import analyze
from ncreflect.exprs import show_scalar
from ncreflect.scalars import (
    SMALL_INT,
    Cyc,
    I,
    MINUS_ONE,
    ONE,
    ZERO,
    _from_fractions,
    addmul,
    coerce,
    cyclotomic,
    euler_phi,
    zeta,
)
from ncreflect.presets import catalog
from oracles import FractionCyc


def test_rational_arithmetic():
    a = Cyc.rational(3, 4)
    b = Cyc.rational(-2, 5)
    assert (a + b).as_fraction() == Fraction(7, 20)
    assert (a * b).as_fraction() == Fraction(-3, 10)
    assert (a / b).as_fraction() == Fraction(-15, 8)
    assert a - a == ZERO
    assert a.is_rational()


def test_gaussian_integers():
    one_plus_i = ONE + I
    one_minus_i = ONE - I
    assert one_plus_i * one_minus_i == Cyc.rational(2)
    assert I * I == Cyc.rational(-1)
    assert ONE / I == -I


def test_roots_of_unity_basics():
    assert zeta(2, 1) == Cyc.rational(-1)
    assert zeta(8, 2) == I
    assert zeta(8, 1) ** 8 == ONE
    assert zeta(3, 1) ** 3 == ONE
    assert zeta(12, 4) == zeta(3, 1)
    assert zeta(5, 0) == ONE


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 12])
def test_root_power_sum_vanishes(n):
    total = ZERO
    for k in range(n):
        total = total + zeta(n, k)
    assert total == ZERO


def test_cyclotomic_polynomials():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(2) == (1, 1)
    assert cyclotomic(4) == (1, 0, 1)
    assert cyclotomic(8) == (1, 0, 0, 0, 1)
    assert cyclotomic(12) == (1, 0, -1, 0, 1)
    assert len(cyclotomic(105)) == euler_phi(105) + 1  # first coeff -2 case
    assert cyclotomic(105)[7] == -2


def _random_element(rng, n):
    phi = euler_phi(n)
    c = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(phi))
    return Cyc(n, c)


def test_field_axioms_randomised():
    rng = random.Random(20260815)
    conductors = [1, 3, 4, 8, 12]
    for _ in range(60):
        a = _random_element(rng, rng.choice(conductors))
        b = _random_element(rng, rng.choice(conductors))
        c = _random_element(rng, rng.choice(conductors))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inverse() == ONE
            assert (b / a) * a == b


def test_promotion_commutes_with_arithmetic():
    # compute zeta3 + zeta4 two ways: directly, and inside conductor 24
    lhs = zeta(3) + zeta(4)
    rhs = zeta(24, 8) + zeta(24, 6)
    assert lhs == rhs
    assert (lhs * lhs) == (rhs * rhs)


def test_minimal_conductor_key():
    # zeta6 lives in Q(zeta3): zeta6 = 1 + zeta3
    z6 = zeta(6, 1)
    assert z6.n == 3
    assert z6 == ONE + zeta(3, 1)
    # an element written at a large conductor hashes like its reduced form
    fancy = zeta(12, 4)
    plain = zeta(3, 1)
    assert hash(fancy) == hash(plain) and fancy == plain
    # rational recognised at any conductor
    r = zeta(8, 1) ** 4 + Cyc.rational(3)
    assert r == Cyc.rational(2)
    assert r.key() == (1, (Fraction(2),))
    # products computed at conductor 12 or 8 that fall into a subfield
    z12, z8 = zeta(12, 1), zeta(8, 1)
    cases = [
        (2 + 3 * z12 ** 4, (3, (2, 3))),  # 12 -> 3
        (z12 ** 2, (3, (1, 1))),  # zeta6 = 1 + zeta3
        (z12 ** 3 * Cyc.rational(1, 2) - 5, (4, (-5, Fraction(1, 2)))),  # 12 -> 4
        (z8 ** 6 + Cyc.rational(-7, 3), (4, (Fraction(-7, 3), -1))),  # 8 -> 4
        (z12 ** 4 + z12 ** 3, (12, (-1, 0, 1, 1))),  # in no proper subfield
        (z8 + z8 ** 3, (8, (0, 1, 0, 1))),  # sqrt(-2) is not in Q(i)
    ]
    for value, want in cases:
        assert value.n in (8, 12)
        assert value.key() == want


def test_power_and_negative_power():
    z = zeta(8, 1)
    assert z ** -1 == zeta(8, 7)
    assert z ** 0 == ONE
    assert (z ** 2) == I
    assert (ONE + z) ** 2 == ONE + 2 * z + I


def test_coercion_and_errors():
    assert coerce(3) == Cyc.rational(3)
    assert coerce(Fraction(1, 2)) * 2 == ONE
    with pytest.raises(TypeError):
        coerce(1.5)
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ValueError):
        zeta(0)
    with pytest.raises(ValueError):
        (ONE + I).as_fraction()


# ---------------------------------------------------------------------------
# the integer representation against the Fraction reference


CONDUCTORS = (1, 3, 4, 5, 8, 12, 24)
DETERMINISTIC = settings(derandomize=True, deadline=None, max_examples=200,
                         database=None, suppress_health_check=[HealthCheck.too_slow])

_coefficient = st.one_of(
    st.integers(-6, 6).filter(bool),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
    st.just(0),
)


@st.composite
def pairs(draw):
    """(Cyc, FractionCyc) holding the same value at the same conductor.

    A third of the draws are written at conductor n but lie in the
    subfield of a proper divisor d of n, so key() must fall to a smaller
    conductor."""
    n = draw(st.sampled_from(CONDUCTORS))
    proper = [d for d in CONDUCTORS if d < n and n % d == 0]
    d = draw(st.sampled_from(proper)) if proper and draw(st.integers(0, 2)) == 0 else n
    coeffs = draw(st.lists(_coefficient, min_size=euler_phi(d), max_size=euler_phi(d)))
    coeffs = FractionCyc(d, coeffs)._lift(n) if d != 1 else coeffs + [0] * (euler_phi(n) - 1)
    return Cyc(n, coeffs), FractionCyc(n, coeffs)


def same(x: Cyc, ref: FractionCyc) -> bool:
    """Same conductor and coefficients, so the printed text is the same."""
    return x.n == ref.n and x.c == ref.c


def normal_form(x: Cyc) -> bool:
    return (
        x.den > 0
        and gcd(x.den, *x.nums) == 1
        and len(x.nums) == euler_phi(x.n)
        and (x.n == 1) == (not any(x.nums[1:]))
        and all(type(v) is int for v in x.nums + (x.den,))
    )


@DETERMINISTIC
@given(pairs(), pairs())
def test_arithmetic_matches_fraction_oracle(p, q):
    (a, ra), (b, rb) = p, q
    assert normal_form(a) and same(a, ra)
    for got, want in ((a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb), (-a, -ra)):
        assert normal_form(got)
        assert same(got, want)  # mixed conductors promote to the same lcm
    if not b.is_zero():
        assert same(b.inverse(), rb.inverse())
        assert same(a / b, ra / rb)
        assert normal_form(a / b)


@DETERMINISTIC
@given(pairs(), pairs(), pairs())
def test_field_axioms(p, q, r):
    a, b, c = p[0], q[0], r[0]
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == ZERO and a + ZERO == a and a * ONE == a
    if not a.is_zero():
        assert a * a.inverse() == ONE
        assert (b / a) * a == b
    else:
        with pytest.raises(ZeroDivisionError):
            a.inverse()


@DETERMINISTIC
@given(pairs(), pairs())
def test_key_hash_and_text_match_fraction_oracle(p, q):
    (a, ra), (b, rb) = p, q
    for x, ref in ((a, ra), (a * b, ra * rb), (a + b, ra + rb)):
        assert x.key() == ref.key()
        assert all(type(v) is Fraction for v in x.key()[1])
        assert hash(x) == hash(ref)
        assert show_scalar(x) == show_scalar(ref)
    # a value and its copy at a larger conductor are equal and hash alike
    m = a.n * 5
    wide = Cyc(m, ra._lift(m))
    assert wide == a and hash(wide) == hash(a) and wide.key() == a.key()


@DETERMINISTIC
@given(pairs(), st.integers(-20, 20), st.integers(1, 12))
def test_rational_operands_match_fraction_oracle(p, num, den):
    a, ra = p
    r = Fraction(num, den)
    for got, want in ((a + r, ra + r), (a - r, ra - r), (r - a, FractionCyc(1, (r,)) - ra),
                      (a * r, ra * r), (r * a, ra * r)):
        assert normal_form(got)
        assert same(got, want)


# ---------------------------------------------------------------------------
# the fused a + x * c against the product and the sum it replaces


# conductor pairs: each operand of a + x * c takes one of the pair, so the
# mixed pairs give every join of a rational or cyclotomic a with a product
# of equal, rational or mixed factors; 8 & 12 mixes two cyclotomic
# factors, which is the fallback
ADDMUL_CONDUCTORS = [(1, 1), (3, 3), (4, 4), (5, 5), (8, 8), (12, 12),
                     (1, 4), (3, 4), (4, 12), (8, 12)]


@st.composite
def values_at(draw, n):
    """A Cyc at conductor n; a third of the draws lie in the subfield of a
    proper divisor of n, and so may fall to a smaller conductor."""
    proper = [d for d in (1, 3, 4) if d < n and n % d == 0]
    d = draw(st.sampled_from(proper)) if proper and draw(st.integers(0, 2)) == 0 else n
    coeffs = draw(st.lists(_coefficient, min_size=euler_phi(d), max_size=euler_phi(d)))
    coeffs = FractionCyc(d, coeffs)._lift(n) if d != 1 else coeffs + [0] * (euler_phi(n) - 1)
    return Cyc(n, coeffs)


@st.composite
def addmul_cases(draw):
    pair = draw(st.sampled_from(ADDMUL_CONDUCTORS))
    x, c = (draw(values_at(draw(st.sampled_from(pair))).filter(bool)) for _ in range(2))
    kind = draw(st.sampled_from(["none", "value", "value", "cancel"]))
    if kind == "none":
        a = None
    elif kind == "cancel":
        a = -(x * c)
    else:
        a = draw(values_at(draw(st.sampled_from(pair))))
    return a, x, c


def _parts(x):
    return None if x is None else (x.n, x.nums, x.den)


@DETERMINISTIC
@given(addmul_cases())
def test_addmul_matches_the_product_and_the_sum(case):
    """addmul(a, x, c) is a + x * c in the same normal form, with None for
    zero both ways: None for a, and None for a sum that cancels."""
    a, x, c = case
    want = x * c if a is None else a + x * c
    got = addmul(a, x, c)
    assert _parts(got) == (None if want.is_zero() else _parts(want))
    if got is not None:
        assert normal_form(got)
        assert not got.is_zero()


def test_addmul_cases_reach_every_path():
    """The named cases of the kernel: a cancelling sum, a rational drop,
    a non-unit denominator and the mixed-conductor fallback."""
    z3, z8, z12 = zeta(3), zeta(8), zeta(12)
    half = Cyc.rational(1, 2)
    assert addmul(None, half, Cyc.rational(4, 3)) == Cyc.rational(2, 3)
    assert addmul(Cyc.rational(-2, 3), half, Cyc.rational(4, 3)) is None
    assert addmul(ONE, I, I) is None  # 1 + i·i
    assert _parts(addmul(I, I, I)) == _parts(I - 1)
    assert _parts(addmul(half * I, I, half)) == (4, (0, 1), 1)
    assert _parts(addmul(z3, half, 2 * z3 * z3)) == (1, (-1,), 1)  # z3 + z3^2 = -1
    assert addmul(-(z8 * z12), z8, z12) is None
    assert _parts(addmul(z3, z8, z12)) == _parts(z3 + z8 * z12)
    assert _parts(addmul(I, z3, half)) == _parts(I + z3 * half)


# ---------------------------------------------------------------------------
# the shared small integers against the value rebuilt from Fractions


SHARE_CONDUCTORS = (1, 1, 3, 4, 8, 12)  # rational twice: the integers live there

_share_coefficient = st.one_of(
    st.integers(-3, 3),
    st.integers(-3 * SMALL_INT, 3 * SMALL_INT),  # both sides of the shared range
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
)


@st.composite
def share_operands(draw):
    """(Cyc, FractionCyc) of one value: small and large integers, fractions
    and values at conductors 3, 4, 8 and 12."""
    n = draw(st.sampled_from(SHARE_CONDUCTORS))
    coeffs = draw(st.lists(_share_coefficient, min_size=euler_phi(n), max_size=euler_phi(n)))
    return Cyc(n, coeffs), FractionCyc(n, coeffs)


def _share_results(a, ra, b, rb):
    """(name, result, reference) for every operation on a and b."""
    out = [("+", a + b, ra + rb), ("-", a - b, ra - rb), ("*", a * b, ra * rb),
           ("neg", -a, -ra)]
    if not b.is_zero():
        out += [("/", a / b, ra / rb), ("inverse", b.inverse(), rb.inverse())]
    if not a.is_zero() and not b.is_zero():
        out.append(("addmul", addmul(a, a, b), ra + ra * rb))
        out.append(("addmul None", addmul(None, a, b), ra * rb))
    return out


def _is_shared_when_small(x: Cyc) -> bool:
    """An integer |p| <= SMALL_INT is the shared instance; any other value
    is an object of its own."""
    if x.n == 1 and x.den == 1 and abs(x.nums[0]) <= SMALL_INT:
        return x is scalars._SMALL[x.nums[0]]
    return all(x is not y for y in scalars._SMALL.values())


@DETERMINISTIC
@given(share_operands(), share_operands())
def test_shared_integers_match_the_value_rebuilt_from_fractions(p, q):
    (a, ra), (b, rb) = p, q
    first = []
    for name, got, ref in _share_results(a, ra, b, rb):
        if got is None:  # addmul's cancelled sum
            assert ref.is_zero(), name
            first.append(None)
            continue
        want = _from_fractions(ref.n, ref.c)
        assert _parts(got) == _parts(want), name
        assert got.key() == ref.key(), name
        assert _is_shared_when_small(got), name
        first.append(_parts(got))
    # a key or a hash taken on a shared value changes no later result
    for x in (a, b, *scalars._SMALL.values()):
        x.key()
        hash(x)
    again = [None if got is None else _parts(got) for _, got, _ in _share_results(a, ra, b, rb)]
    assert again == first
    assert all(_parts(x) == (1, (p,), 1) and x.key() == (1, (Fraction(p),))
               for p, x in scalars._SMALL.items())


def test_shared_integers_on_every_path():
    """Each fast path hands out the shared instance, and a value just past
    the range is built anew each time."""
    three, big = coerce(3), SMALL_INT + 1
    assert three is Cyc.rational(3) is Cyc.rational(6, 2) is scalars._SMALL[3]
    assert ONE is coerce(1) is coerce(Fraction(2, 2)) is Cyc.rational(1)
    assert -three is coerce(-3) and three * 2 is coerce(6)
    assert addmul(None, three, coerce(2)) is coerce(6) and addmul(ONE, three, three) is coerce(10)
    assert Cyc.rational(1, 3).inverse() is three and (I * I) is coerce(-1)
    assert (I + 2) - I is coerce(2)
    assert coerce(big) is not coerce(big) and coerce(big) == coerce(big)
    assert -coerce(-big) is not coerce(big)


# ---------------------------------------------------------------------------
# the unit factors of addmul into an empty target against the product


UNIT_CONDUCTORS = (1, 3, 4, 8, 12)


def _units():
    """±1 shared, and ±1 built anew, which equal them but are not them."""
    return [ONE, MINUS_ONE, Cyc(1, [1]), Cyc(1, [-1])]


@st.composite
def unit_operands(draw):
    """A nonzero value at one of UNIT_CONDUCTORS, or a shared or unshared ±1."""
    if draw(st.booleans()):
        return draw(st.sampled_from(_units()))
    return draw(values_at(draw(st.sampled_from(UNIT_CONDUCTORS))).filter(bool))


@DETERMINISTIC
@given(unit_operands(), unit_operands())
def test_addmul_into_nothing_with_a_unit_matches_the_product(x, c):
    """addmul(None, x, c) has the (n, nums, den) of x * c whichever factor
    is a unit, shared or not; a shared 1 hands back the other factor
    itself, and any other integer result within SMALL_INT is the shared
    one."""
    got = addmul(None, x, c)
    assert _parts(got) == _parts(x * c)
    assert normal_form(got)
    assert got is x or got is c or _is_shared_when_small(got)
    if c is ONE:
        assert got is x
    elif x is ONE:
        assert got is c


def test_unshared_units_are_not_the_shared_ones():
    """The test above reaches the general path only if these differ."""
    one, minus_one = _units()[2:]
    assert one == ONE and one is not ONE
    assert minus_one == MINUS_ONE and minus_one is not MINUS_ONE


@DETERMINISTIC
@given(share_operands())
def test_negation_matches_the_tuple_negated_value(p):
    """-x is the value with every numerator negated over the same
    denominator, and an integer within SMALL_INT comes back shared."""
    x, ref = p
    got = -x
    assert _parts(got) == (x.n, tuple(-v for v in x.nums), x.den)
    assert same(got, -ref) and _is_shared_when_small(got)


def test_unit_factors_into_nothing_never_reach_the_general_branch():
    """In one analysis of l41-mystic(2,4) at D = 8, every addmul call into
    an empty target with a shared ±1 factor returns before the first line
    of the general branch, and no other call returns there.  Each call is
    read by a profile hook: its arguments at the call, the line it returns
    from at the return."""
    code = addmul.__code__
    lines, start = inspect.getsourcelines(addmul)
    general = start + next(i for i, line in enumerate(lines) if line.strip() == "n = x.n")
    counts = Counter()
    calls = []

    def profile(frame, event, arg):
        if frame.f_code is not code:
            return
        if event == "call":
            loc = frame.f_locals
            calls.append(loc["a"] is None and any(
                v is ONE or v is MINUS_ONE for v in (loc["x"], loc["c"])))
        elif event == "return":
            counts[calls.pop(), frame.f_lineno >= general] += 1

    preset = catalog.build("l41-mystic(2,4)", max_degree=8)
    sys.setprofile(profile)
    try:
        analyze(preset)
    finally:
        sys.setprofile(None)
    assert counts[True, True] == 0 and counts[False, False] == 0
    assert counts[True, False] > 0 and counts[False, True] > 0


# ---------------------------------------------------------------------------
# hashing: equal values hash alike across Cyc, int and Fraction


@DETERMINISTIC
@given(st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 4), st.sampled_from(CONDUCTORS))
def test_rational_hash_matches_fraction(num, den, n):
    """A rational Cyc hashes as its Fraction, so a dict finds it by the
    equal int or Fraction and the other way round, whatever conductor the
    value was written at."""
    f = Fraction(num, den)
    x = Cyc(n, [f] + [0] * (euler_phi(n) - 1))
    assert x == f and hash(x) == hash(f)
    assert {x: "x"}.get(f) == "x" and {f: "f"}.get(x) == "f"
    if f.denominator == 1:
        p = f.numerator
        assert x == p and hash(x) == hash(p) and {x: "x"}.get(p) == "x"


def test_hash_agrees_with_equality_on_rationals():
    assert ONE == 1 and {ONE: "one"}.get(1) == "one"
    assert {Cyc.rational(1, 2): "half"}.get(Fraction(1, 2)) == "half"
    assert {1: "one"}.get(ONE) == "one" and {ZERO: "zero"}.get(0) == "zero"
    # a cyclotomic value keeps hashing by its key
    assert hash(zeta(12, 4)) == hash(zeta(3)) == hash(zeta(3).key())
