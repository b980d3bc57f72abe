"""Integer lattice path against the field-arithmetic oracle loops.

Orbit codings, height series, their scans and parameter recovery run on
integer pairs and integer sign tests; ``oracle`` keeps the replaced
``QuadraticNumber`` loops.  Every test here asks both for the same thing
over random quadratic and rational epsilon, negative offsets, both
endpoint conventions and generic rotations, and wants the same answer,
including the same error.
"""

from dataclasses import asdict
from fractions import Fraction

import mpmath
import oracle
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iet3.audit import RecoveryError, recover_parameters
from iet3.dynamics import IetParameters, Rotation, ThreeIet, densities
from iet3.qfield import Frame, QuadraticNumber, int_sign, parse_quadratic
from iet3.words import BINARY, TERNARY, Word, height_f, height_g

RADICANDS = (2, 3, 5, 6, 7, 13)


def outcome(fn, *args):
    """The result of a call, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def unit_irrationals(draw, d: int):
    """An irrational (a + b*sqrt(d))/k strictly inside (0, 1)."""
    b = draw(st.integers(-6, 6).filter(bool))
    k = draw(st.integers(1, 12))
    surd = QuadraticNumber(0, b, d)
    shift = draw(st.integers(0, k - 1))
    return (shift - surd.floor() + surd) / k


proper_fractions = st.builds(
    lambda j, i: Fraction(i % j + 1, j + 1), st.integers(1, 24), st.integers(0, 10**6)
)
offset_fractions = st.builds(
    lambda j, i: Fraction(i % j, j), st.integers(1, 24), st.integers(0, 10**6)
)


@st.composite
def epsilons(draw, rational: bool | None = None):
    if rational is None:
        rational = draw(st.booleans())
    if rational:
        return QuadraticNumber(draw(proper_fractions))
    return draw(unit_irrationals(draw(st.sampled_from(RADICANDS))))


@st.composite
def exchange_params(draw, rational: bool | None = None):
    eps = draw(epsilons(rational))
    bound = max(eps, 1 - eps)
    # l at most halfway to 1, so that B (of length 1 - l) shows up early
    ell = bound + draw(proper_fractions) * (1 - bound) / 2
    c = -draw(offset_fractions) * ell
    return IetParameters(eps, ell, c)


@st.composite
def rotations(draw):
    """Plain, shifted or generic rotations with 0 in the domain."""
    kind = draw(st.sampled_from(["plain", "shifted", "generic"]))
    if kind != "generic":
        params = draw(exchange_params())
        return getattr(Rotation, f"{kind}_for")(params)
    eps = draw(epsilons())
    width = eps + draw(st.integers(0, 2))
    lo = -draw(offset_fractions) * width
    split = draw(st.one_of(proper_fractions.map(QuadraticNumber), st.just(eps)))
    return Rotation(lo, lo + split * width, lo + width)


# -- the sign test ---------------------------------------------------------------------


@settings(max_examples=300)
@given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9), st.sampled_from(RADICANDS))
@example(3, -2, 2)
@example(-577, 408, 2)
@example(-161, 72, 5)
@example(0, 0, 7)
def test_integer_sign_agrees_with_high_precision(a, b, d):
    with mpmath.workdps(50):
        approx = a + b * mpmath.sqrt(d)
    assert int_sign(a, b, d) == (approx > 0) - (approx < 0)


def test_frame_numerators_are_values_over_one_denominator():
    eps = parse_quadratic("(-1+sqrt(5))/2")
    frame = Frame((1, -eps, Fraction(1, 3)))
    assert frame.denominator == 6 and frame.radicand == 5
    assert frame.value(frame.combine((4, 7, 3))) == 4 - 7 * eps + 1
    assert frame.sign(frame.combine((0, 1))) == -1


@pytest.mark.parametrize("text", ["", "0", "1"])
def test_heights_with_frame_rows_past_int64_keep_their_extremes(text):
    # frame rows past int64 take the object dtype even where every pair is
    # (0, 0), as for the empty word
    eps = Fraction(1, 2**64 + 1)
    series = height_f(Word(text, BINARY), eps)
    values = oracle.height_series(text, oracle.binary_steps(eps))
    assert series.keys()[0].dtype == object
    extremes = series[series.argmin()], series[series.argmax()]
    assert extremes == (min(values), max(values))


# -- orbit codings -----------------------------------------------------------------------


def _lattice_coding(iet, n, right_closed):
    coding = iet.code_orbit(n, right_closed=right_closed)
    assert len(coding.points) == len(coding.word) == n
    return coding.word.letters, list(coding.points)


@settings(max_examples=150, deadline=None)
@given(exchange_params(), st.integers(0, 160), st.booleans())
def test_exchange_coding_matches_the_field_loop(params, n, right_closed):
    iet = ThreeIet(params)
    expected = outcome(oracle.code_exchange, iet, n, right_closed)
    assert outcome(_lattice_coding, iet, n, right_closed) == expected


@settings(max_examples=150, deadline=None)
@given(rotations(), st.integers(0, 160))
def test_rotation_coding_matches_the_field_loop(rotation, n):
    def lattice(rotation, n):
        coding = rotation.code_orbit(n)
        return coding.word.letters, list(coding.points)

    assert outcome(lattice, rotation, n) == outcome(oracle.code_rotation, rotation, n)


def test_right_closed_coding_reports_the_point_that_leaves_the_domain():
    params = IetParameters(
        parse_quadratic("(-1+sqrt(5))/2"), parse_quadratic("(1+sqrt(5))/4"), 0
    )
    with pytest.raises(ValueError, match=r"orbit point 0 outside right-closed domain"):
        ThreeIet(params).code_orbit(5, right_closed=True)


# -- height series ------------------------------------------------------------------------


def _assert_series_match(series, steps, letters):
    values = oracle.height_series(letters, steps)
    assert len(series) == len(values)
    assert list(series) == values
    assert [series[k] for k in range(len(values))] == values
    assert series[series.argmin()] == min(values)
    assert series[series.argmax()] == max(values)
    assert series[-1] == values[-1]


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet="01", max_size=120), epsilons())
def test_binary_heights_match_the_field_loop(text, eps):
    series = height_f(Word(text, BINARY), eps)
    _assert_series_match(series, oracle.binary_steps(eps), text)


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet="ABC", max_size=120), exchange_params())
def test_ternary_heights_match_the_field_loop(text, params):
    series = height_g(Word(text, TERNARY), params)
    _assert_series_match(series, oracle.ternary_steps(params.epsilon), text)


def test_equal_heights_at_distinct_pairs_compare_as_equal():
    # for epsilon = 1/3 the word 011 climbs back to 0 at the pair (1, 3)
    values = height_f(Word("011", BINARY), Fraction(1, 3))
    assert (values.p[3], values.q[3]) == (1, 3)
    assert values[3] == values[0] == 0
    assert values.key(3) == values.key(0)
    assert values.compare(3, 0) == 0
    assert values[3:] == values[:1] and hash(values[3:]) == hash(values[:1])
    assert values == tuple(values)
    assert values.argmin() == 0


# -- parameter recovery --------------------------------------------------------------------


def _lattice_recovery(u, eps):
    return asdict(recover_parameters(u, eps))


@settings(max_examples=80, deadline=None)
@given(exchange_params(), st.integers(2, 300), st.booleans(), st.data())
def test_recovery_matches_the_field_loop(params, n, right_closed, data):
    iet = ThreeIet(params)
    try:
        u, _ = oracle.code_exchange(iet, n, right_closed)
    except ValueError:  # the orbit left the right-closed domain
        u, _ = oracle.code_exchange(iet, n)
    if data.draw(st.booleans()):
        # a damaged coding exercises the mismatch and constraint paths
        k = data.draw(st.integers(0, n - 1))
        u = u[:k] + data.draw(st.sampled_from("ABC")) + u[k + 1:]
    eps = params.epsilon
    assert outcome(_lattice_recovery, u, eps) == outcome(oracle.recover, u, eps)


@settings(max_examples=80, deadline=None)
@given(st.text(alphabet="ABC", min_size=2, max_size=120), epsilons())
def test_recovery_from_arbitrary_words_matches_the_field_loop(text, eps):
    assert outcome(_lattice_recovery, text, eps) == outcome(oracle.recover, text, eps)


def test_recovery_errors_keep_their_messages():
    eps = parse_quadratic("(-1+sqrt(5))/2")
    with pytest.raises(RecoveryError, match="no B occurrences"):
        recover_parameters("AACAAC", eps)


# -- periodic densities ----------------------------------------------------------------------


def test_rational_period_ends_at_a_multiple_of_the_slope_pair():
    params = IetParameters(Fraction(2, 5), Fraction(7, 9), Fraction(-1, 7))
    letters = oracle.period(params)
    result = densities(params)
    assert result.kind == "periodic-word"
    assert result.period == len(letters)
    assert result.values == tuple(Fraction(letters.count(a), len(letters)) for a in TERNARY)
    # the orbit closes at p - q*2/5 = 0 with (p, q) = k*(2, 5), never at (0, 0)
    p = sum(letters.count(a) for a in "AB")
    q = len(letters) + letters.count("B")
    assert (p, q) != (0, 0) and 5 * p == 2 * q


@settings(max_examples=60, deadline=None)
@given(exchange_params(rational=True))
def test_rational_densities_match_the_field_loop(params):
    letters = oracle.period(params)
    result = densities(params)
    assert result.period == len(letters)
    assert result.values == tuple(Fraction(letters.count(a), len(letters)) for a in TERNARY)
