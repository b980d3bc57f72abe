"""Exact quadratic arithmetic: frozen values, order, parsing, round trips."""

import math
import operator
from fractions import Fraction

import mpmath
import oracle
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iet3.qfield import (
    MAX_RADICAND,
    ExpressionSyntaxError,
    FieldMismatchError,
    QuadraticNumber,
    as_quadratic,
    parse_quadratic,
    quadratic_text,
    sqrt_int,
)


def Q(text: str) -> QuadraticNumber:
    return parse_quadratic(text)


# -- frozen arithmetic facts --------------------------------------------------


def test_golden_ratio_square():
    x = Q("(-1+sqrt(5))/2")
    assert x * x == Q("(3-sqrt(5))/2")


def test_conjugate_product_is_norm():
    x = Q("(1+sqrt(5))/2")
    assert x * x.conjugate() == -1
    assert x + x.conjugate() == 1


def test_inverse_of_silver_unit():
    lam = Q("1+sqrt(2)")
    assert 1 / lam == Q("-1+sqrt(2)")
    assert lam * (1 / lam) == 1


def test_radicand_is_reduced_to_square_free_core():
    assert sqrt_int(8) == Q("2*sqrt(2)")
    assert sqrt_int(9) == 3
    assert sqrt_int(12).radicand == 3
    assert sqrt_int(49).is_rational


def test_floor_frozen_cases():
    assert Q("(1+sqrt(5))/2").floor() == 1
    assert Q("-sqrt(2)").floor() == -2
    assert Q("7/2").floor() == 3
    assert Q("-7/2").floor() == -4
    assert Q("sqrt(4)").floor() == 2
    assert QuadraticNumber(0).floor() == 0


def test_sign_near_zero_without_floats():
    # 3 - 2*sqrt(2) = 0.171..., 2*sqrt(2) - 3 its negation
    assert (Q("3-2*sqrt(2)")).sign() == 1
    assert (Q("-3+2*sqrt(2)")).sign() == -1
    assert (Q("1-sqrt(2)")).sign() == -1
    assert QuadraticNumber(0).sign() == 0
    # 1686/1000 is a tight rational fence around sqrt(5) - 1/2
    assert Q("sqrt(5)-1/2") > Fraction(1686, 1000)
    assert Q("sqrt(5)-1/2") < Fraction(1737, 1000)


def test_comparisons_and_hash_match_rationals():
    half = QuadraticNumber(Fraction(1, 2))
    assert half == Fraction(1, 2)
    assert hash(half) == hash(Fraction(1, 2))
    assert QuadraticNumber(3) == 3
    assert hash(QuadraticNumber(3)) == hash(3)
    assert Q("sqrt(2)") != Q("sqrt(3)")


def test_division_and_power():
    x = Q("(3-sqrt(2))/2")
    assert (x / x) == 1
    assert x ** 0 == 1
    assert x ** 3 == x * x * x
    with pytest.raises(ZeroDivisionError):
        x / QuadraticNumber(0)


def test_mixed_field_operations_refuse():
    with pytest.raises(FieldMismatchError):
        Q("sqrt(2)") + Q("sqrt(3)")
    with pytest.raises(FieldMismatchError):
        Q("1+sqrt(2)") * Q("sqrt(5)")
    # rationals embed in every field
    assert Q("sqrt(2)") + 1 == Q("1+sqrt(2)")
    assert Fraction(1, 2) * Q("sqrt(5)") == Q("1/2*sqrt(5)")


def test_conjugate_is_a_ring_homomorphism():
    x, y = Q("(1+3*sqrt(7))/4"), Q("2-sqrt(7)")
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert x.conjugate().conjugate() == x


def test_floats_are_rejected_as_inputs():
    with pytest.raises(TypeError):
        QuadraticNumber(0.5)
    with pytest.raises(TypeError):
        Q("sqrt(2)") + 0.5


def test_non_integer_radicands_are_refused_not_truncated():
    with pytest.raises(TypeError):
        sqrt_int(2.5)
    with pytest.raises(TypeError):
        QuadraticNumber(0, 1, Fraction(5, 2))
    assert QuadraticNumber(0, 1, True) == 1  # bool is an int


# -- canonical text form -------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "(-1+sqrt(5))/2",
        "(1+sqrt(5))/4",
        "(3-sqrt(5))/2",
        "sqrt(2)",
        "-sqrt(5)",
        "1/2*sqrt(2)",
        "-1/2*sqrt(2)",
        "3/4",
        "-3/4",
        "0",
        "7",
        "-7",
        "1+sqrt(5)",
        "(5-2*sqrt(5))/1",  # not canonical on purpose
    ],
)
def test_parse_then_print_is_stable(text):
    value = Q(text)
    assert Q(str(value)) == value
    # printing is idempotent
    assert str(Q(str(value))) == str(value)


def test_canonical_strings_frozen():
    assert str(Q("(-1+sqrt(5))/2")) == "(-1+sqrt(5))/2"
    assert str(Q("(2+2*sqrt(5))/4")) == "(1+sqrt(5))/2"
    assert str(Q("sqrt(8)")) == "2*sqrt(2)"
    assert str(Q("0+0*sqrt(5)")) == "0"
    assert str(Q("6/8")) == "3/4"
    assert str(-sqrt_int(5)) == "-sqrt(5)"
    assert str(Q("3/4+sqrt(2)") - Q("3/4")) == "sqrt(2)"
    assert str(Q("1-1*sqrt(5)")) == "1-sqrt(5)"


def test_parse_error_positions():
    with pytest.raises(ExpressionSyntaxError) as info:
        Q("1+")
    assert info.value.position == 2
    with pytest.raises(ExpressionSyntaxError):
        Q("sqrt(0)")
    with pytest.raises(ExpressionSyntaxError):
        Q("(1+sqrt(5))")  # missing /q after parenthesised sum
    with pytest.raises(ExpressionSyntaxError):
        Q("sqrt(5) junk")
    with pytest.raises(ZeroDivisionError):
        Q("1/0")
    with pytest.raises(ZeroDivisionError):
        Q("(1+sqrt(5))/0")
    # a radicand above MAX_RADICAND is refused before the square-part split
    with pytest.raises(ExpressionSyntaxError) as info:
        Q("sqrt(1000000000000000000000000000057)")
    assert info.value.position == 5


def test_radicands_up_to_the_limit_parse():
    assert Q(f"sqrt({MAX_RADICAND})") == sqrt_int(MAX_RADICAND)
    assert Q("sqrt(999999999989)").radicand == 999999999989  # the prime below 10**12


def test_oversized_radicands_are_refused_outside_the_parser():
    # a prime past MAX_RADICAND would need about 10**8 trial divisions
    with pytest.raises(ValueError, match="exceeds the limit"):
        sqrt_int(10000000000000061)
    with pytest.raises(ValueError, match="exceeds the limit"):
        QuadraticNumber(0, 1, MAX_RADICAND + 1)
    # perfect squares take the shortcut at any size
    assert sqrt_int(10**40) == 10**20
    assert sqrt_int(999999999989) ** 2 == 999999999989


def test_as_quadratic_coercions():
    assert as_quadratic(3) == QuadraticNumber(3)
    assert as_quadratic(Fraction(2, 5)) == QuadraticNumber(Fraction(2, 5))
    assert as_quadratic("sqrt(5)") == sqrt_int(5)
    x = sqrt_int(7)
    assert as_quadratic(x) is x


# -- randomized agreement with 50-digit interval arithmetic --------------------

_rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
)
_radicands = st.sampled_from([2, 3, 5, 6, 7, 10, 13])


@st.composite
def quadratics(draw, radicand=None):
    a = draw(_rationals)
    b = draw(_rationals)
    d = radicand if radicand is not None else draw(_radicands)
    return QuadraticNumber(a, b, d)


@settings(max_examples=250)
@given(quadratics())
def test_sign_and_floor_agree_with_mpmath(x):
    with mpmath.workdps(50):
        approx = mpmath.mpf(x.rational_part.numerator) / x.rational_part.denominator
        if x.radicand is not None:
            approx += (
                mpmath.mpf(x.surd_part.numerator)
                / x.surd_part.denominator
                * mpmath.sqrt(x.radicand)
            )
        assert x.sign() == mpmath.sign(approx)
        if x.sign() != 0:
            assert x.floor() == int(mpmath.floor(approx))


@settings(max_examples=200)
@given(quadratics(radicand=5), quadratics(radicand=5))
def test_field_axioms_hold(x, y):
    assert x + y == y + x
    assert x * y == y * x
    assert (x - y) + y == x
    if y:
        assert (x / y) * y == x
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()


@settings(max_examples=200)
@given(quadratics())
def test_round_trip_through_text(x):
    assert parse_quadratic(str(x)) == x


@settings(max_examples=200)
@given(quadratics())
def test_floor_bracketing(x):
    n = x.floor()
    assert QuadraticNumber(n) <= x < QuadraticNumber(n + 1)


@settings(max_examples=300)
@given(quadratics())
def test_text_matches_the_fraction_formatter(x):
    assert str(x) == oracle.quadratic_str(x)


@settings(max_examples=300)
@given(
    st.integers(-10**30, 10**30),
    st.integers(-10**30, 10**30),
    st.integers(1, 10**30),
    _radicands,
)
@example(0, 0, 7, 5)
@example(4, 0, 6, 5)
@example(0, 2, 2, 5)
@example(0, -3, 3, 5)
@example(0, 6, 4, 5)
@example(0, -2, 6, 5)
@example(-2, 2, 4, 5)
def test_text_of_numerators_over_any_denominator(a, b, q, d):
    # unreduced triples, as a frame's numerators over its denominator are
    x = QuadraticNumber(Fraction(a, q), Fraction(b, q), d)
    text = quadratic_text(a, b, q, d)
    assert text == oracle.quadratic_str(x) == str(x)
    assert parse_quadratic(text) == x


# -- differential test against the Fraction-pair oracle ------------------------


@st.composite
def pairs(draw, radicand):
    """A value and its oracle twin; about a third of them are rational."""
    a = draw(_rationals)
    b = draw(st.one_of(st.just(Fraction(0)), _rationals, _rationals))
    return QuadraticNumber(a, b, radicand), oracle.FractionQuadratic(a, b, radicand)


@st.composite
def operands(draw):
    """Two pairs, from one field three times in four."""
    d = draw(_radicands)
    other = draw(st.sampled_from([d, d, d, 2 if d != 2 else 3]))
    return draw(pairs(d)), draw(pairs(other))


def _assert_same(value, reference):
    a, b, n, d = value._a, value._b, value._n, value._d
    assert all(type(v) is int for v in (a, b, n))
    assert n > 0 and math.gcd(a, b, n) == 1 and (d is None) == (b == 0)
    assert (value.rational_part, value.surd_part, value.radicand) == (
        reference.rational_part,
        reference.surd_part,
        reference.radicand,
    )


def _outcome(op, *args):
    try:
        return op(*args), None
    except (FieldMismatchError, ZeroDivisionError) as exc:
        return None, type(exc)


def _assert_same_outcome(op, args, reference_args):
    got, raised = _outcome(op, *args)
    want, expected = _outcome(op, *reference_args)
    assert raised is expected
    if isinstance(got, QuadraticNumber):
        _assert_same(got, want)
    else:
        assert got == want


NEGATIVE_NORM = Q("1+sqrt(2)"), oracle.FractionQuadratic(1, 1, 2)  # norm -1


@settings(max_examples=400)
@given(operands(), st.integers(-3, 3), st.fractions(max_denominator=9))
@example(((Q("1/3"), oracle.FractionQuadratic(Fraction(1, 3))), NEGATIVE_NORM), 0, 0)
@example((NEGATIVE_NORM, NEGATIVE_NORM), -2, Fraction(-7, 3))
def test_arithmetic_matches_the_fraction_oracle(xy, k, r):
    (x, fx), (y, fy) = xy
    _assert_same(x, fx)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        _assert_same_outcome(op, (x, y), (fx, fy))
        for plain in (k, r):
            _assert_same_outcome(op, (x, plain), (fx, plain))
            _assert_same_outcome(op, (plain, x), (plain, fx))
    for op in (operator.neg, operator.abs, lambda v: v.conjugate()):
        _assert_same_outcome(op, (x,), (fx,))
    for e in range(5):
        _assert_same_outcome(operator.pow, (x, e), (fx, e))
    assert (x.sign(), x.floor(), str(x), float(x)) == (
        fx.sign(),
        fx.floor(),
        str(fx),
        float(fx),
    )
    for op in (operator.lt, operator.le, operator.gt, operator.ge, operator.eq):
        _assert_same_outcome(op, (x, y), (fx, fy))
        for plain in (k, r):
            assert op(x, plain) == op(fx, plain) and op(plain, x) == op(plain, fx)


@settings(max_examples=200)
@given(operands())
def test_equal_values_hash_equal(xy):
    (x, _), (y, _) = xy
    if x == y:
        assert hash(x) == hash(y)
    if x.is_rational:
        assert hash(x) == hash(x.rational_value)
    z = x * 3 + Fraction(1, 7) - x * 2 - Fraction(1, 7)
    assert z == x and hash(z) == hash(x)


# -- floats for display ------------------------------------------------------------


@settings(max_examples=300)
@given(
    st.integers(940, 1020),
    st.integers(2**52, 2**53),
    st.sampled_from([2, 3, 5, 7, 13]),
    st.integers(-2, 3),
    st.integers(1, 9),
)
def test_a_float_whose_parts_pass_the_range_is_the_rationalised_one(e, m, d, j, q):
    # x = (b*sqrt(d) - a)/q cancels two parts near 2**(e + 53) to below 1
    b = m << e
    a = math.isqrt(b * b * d) - j
    x = QuadraticNumber(Fraction(-a, q), Fraction(b, q), d)
    try:
        naive = -a / q + b / q * math.sqrt(d)
    except OverflowError:
        naive = math.nan
    if math.isfinite(naive):
        # the sum stands where it is finite
        assert float(x) == naive
    else:
        k = 200
        exact = (math.isqrt(b * b * d << 2 * k) - (a << k)) / (q << k)
        assert math.isclose(float(x), exact, rel_tol=1e-13)


def test_a_value_past_the_float_range_keeps_the_sums_answer():
    assert float(QuadraticNumber(10**308, 10**308, 2)) == math.inf
    assert float(QuadraticNumber(-(10**308), -(10**308), 2)) == -math.inf
    for x in (QuadraticNumber(10**400, 10**400, 2), QuadraticNumber(10**400)):
        with pytest.raises(OverflowError):
            float(x)
