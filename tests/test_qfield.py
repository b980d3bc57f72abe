"""Exact quadratic arithmetic: frozen values, order, parsing, round trips."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iet3.qfield import (
    MAX_RADICAND,
    ExpressionSyntaxError,
    FieldMismatchError,
    QuadraticNumber,
    as_quadratic,
    parse_quadratic,
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
