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
import numpy as np
import oracle
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iet3.audit import RecoveryError, recover_parameters
from iet3.dynamics import IetParameters, Rotation, ThreeIet
from iet3.morphisms import SIGMA
from iet3.qfield import Frame, QuadraticNumber, int_sign, parse_quadratic
from iet3 import _kernels, words
from iet3.dynamics import _ROTATION_STEPS
from iet3.words import (
    BINARY,
    BINARY_STEPS,
    TERNARY,
    TERNARY_STEPS,
    LatticePoints,
    Word,
    height_f,
    height_g,
)

RADICANDS = (2, 3, 5, 6, 7, 13)


def least(a, b, d: int):
    """``_kernels.argmin`` over the enclosure of every position."""
    return _kernels.argmin(a, b, d, _kernels.bounds(a, b, d))


def kernel_extreme(values, indices, wanted: int):
    """First index (of all, or of ``indices``) holding the least (``wanted``
    -1) or the greatest (+1) of ``values``, by ``_kernels.argmin`` over
    ``_kernels.bounds``; the greatest is the least of the negated
    numerators."""
    a, b = values.keys()
    if wanted > 0:
        a, b = -a, -b
    at = np.arange(len(a)) if indices is None else np.array(indices, dtype=np.intp)
    k = least(a[at], b[at], values.frame.radicand)
    return None if k is None else int(at[k])


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
    assert frame.value(oracle.frame_combination(frame, (4, 7, 3))) == 4 - 7 * eps + 1
    assert frame.value(oracle.frame_combination(frame, (0, 1))) == -eps


@pytest.mark.parametrize("text", ["", "0", "1"])
def test_heights_with_frame_rows_past_int64_keep_their_extremes(text):
    # frame rows past int64 take the object dtype even where every pair is
    # (0, 0), as for the empty word
    eps = Fraction(1, 2**64 + 1)
    series = height_f(Word(text, BINARY), eps)
    values = oracle.height_series(text, oracle.binary_steps(eps))
    assert series.keys()[0].dtype == object
    low, high = kernel_extreme(series, None, -1), kernel_extreme(series, None, 1)
    assert (series[low], series[high]) == (min(values), max(values))


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
    assert series[kernel_extreme(series, None, -1)] == min(values)
    assert series[kernel_extreme(series, None, 1)] == max(values)
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


@settings(max_examples=150, deadline=None)
@given(st.data(), epsilons(), rotations())
def test_packed_sums_match_the_field_loop_for_every_step_table(data, eps, rotation):
    # the binary and ternary heights over (1, -epsilon) and the rotation's
    # points over its two shifts
    tables = [
        (Frame((1, -eps)), BINARY_STEPS, oracle.binary_steps(eps)),
        (Frame((1, -eps)), TERNARY_STEPS, oracle.ternary_steps(eps)),
        (rotation._frame, _ROTATION_STEPS,
         {"0": rotation.shift_low, "1": rotation.shift_high}),
    ]
    frame, steps, values = data.draw(st.sampled_from(tables))
    text = data.draw(st.text(alphabet="".join(steps), max_size=200))
    series = LatticePoints.prefix_sums(frame, text, steps)
    _assert_series_match(series, values, text)


def test_a_table_the_packing_cannot_hold_is_refused(monkeypatch):
    frame = Frame((1, Fraction(-1, 3)))
    monkeypatch.setattr(words, "PACK_LIMIT", 2**4)
    # eight ternary letters sum to at most 16 = 2**4: refused, one fewer
    # (at most 14) packs
    with pytest.raises(ValueError, match=r"8 letters need non-negative steps .* below 2\*\*4"):
        LatticePoints.prefix_sums(frame, "B" * 8, TERNARY_STEPS)
    series = LatticePoints.prefix_sums(frame, "BCBABBB", TERNARY_STEPS)
    _assert_series_match(series, oracle.ternary_steps(Fraction(1, 3)), "BCBABBB")
    with pytest.raises(ValueError, match="non-negative steps"):
        LatticePoints.prefix_sums(frame, "01", {"0": (1, 1), "1": (0, -1)})


def test_equal_heights_at_distinct_pairs_compare_as_equal():
    # for epsilon = 1/3 the word 011 climbs back to 0 at the pair (1, 3)
    values = height_f(Word("011", BINARY), Fraction(1, 3))
    assert (values.p[3], values.q[3]) == (1, 3)
    assert values[3] == values[0] == 0
    assert values.key(3) == values.key(0)
    assert values[3:] == values[:1] and hash(values[3:]) == hash(values[:1])
    assert values == tuple(values)
    assert kernel_extreme(values, None, -1) == 0


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


def test_the_whole_image_is_left_out_of_the_threshold(golden_params):
    # the golden coding with its last B read as A: the image v then ends in
    # a '0' that lifts v's own height above the least height at the
    # B-images, while every shorter prefix stays below it
    u = ThreeIet(golden_params).code_orbit(100).word.letters
    assert u[-1] == "B"
    u = u[:-1] + "A"
    eps = golden_params.epsilon
    got = recover_parameters(u, eps)
    assert asdict(got) == oracle.recover(u, eps)
    assert got.threshold_consistent and got.match_fraction == Fraction(99, 100)
    assert height_f(SIGMA(Word(u)), eps)[-1] > got.c_hat + got.l_hat


def test_recovery_errors_keep_their_messages():
    eps = parse_quadratic("(-1+sqrt(5))/2")
    with pytest.raises(RecoveryError, match="no B occurrences"):
        recover_parameters("AACAAC", eps)
