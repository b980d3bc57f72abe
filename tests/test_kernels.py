"""Float-filtered array kernels against exact integer and field oracles.

``_kernels.signs``, ``floors`` and ``argmin`` decide most elements from a
float64 value and a rounding bound, and the rest exactly.  These tests ask
the kernels and the exact answers (``int_sign``, ``QuadraticNumber.floor``,
high-precision floats, and the integer walks in ``oracle``) the same
questions on exact zeros, rational frames, near-ties built from
continued-fraction convergents of sqrt(d), numerators past int64, and whole
codings, and ask again with the bound forced to infinity, so that every
element takes the exact path.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iet3 import _kernels
from iet3.dynamics import IetParameters, Rotation, ThreeIet, densities
from iet3.morphisms import SIGMA
from iet3.qfield import QuadraticNumber, int_floor, int_sign, parse_quadratic
from iet3.words import height_f

RADICANDS = (2, 3, 5, 6, 7, 13)
CODING_LETTERS = 10_000


def convergents(d: int, count: int = 40):
    """Continued-fraction convergents p/q of sqrt(d), with q up to about 10**20."""
    root = math.isqrt(d)
    m, den, a = 0, 1, root
    p0, q0, p1, q1 = 1, 0, root, 1
    out = [(p1, q1)]
    for _ in range(count):
        m = den * a - m
        den = (d - m * m) // den
        a = (root + m) // den
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        out.append((p1, q1))
    return out


@st.composite
def pairs(draw, d: int):
    """An integer pair (a, b) that is a zero, a near-tie or a random value."""
    kind = draw(st.sampled_from(["zero", "rational", "tie", "small", "wide", "huge"]))
    if kind == "zero":
        return 0, 0
    if kind == "rational" or d == 0:
        # a rational frame has no surd part; ties are repeated values
        return draw(st.sampled_from([0, 1, -1]) | st.integers(-(2**70), 2**70)), 0
    if kind == "tie":
        # a + b*sqrt(d) = q*sqrt(d) - p is within 1/q of 0, below 1e-12
        # for the later convergents, and never 0
        p, q = draw(st.sampled_from(convergents(d)))
        k = draw(st.sampled_from([1, -1, 3]))
        return -k * p, k * q
    bound = {"small": 10**6, "wide": 2**61, "huge": 2**90}[kind]
    return draw(st.integers(-bound, bound)), draw(st.integers(-bound, bound))


@st.composite
def columns(draw):
    """Radicand and numerator arrays; int64 when they fit, else object."""
    d = draw(st.sampled_from((0,) + RADICANDS))
    items = draw(st.lists(pairs(d), min_size=1, max_size=40))
    a, b = zip(*items)
    dtype = _kernels.int_dtype(max(abs(x) for x in a + b))
    return d, np.array(a, dtype=dtype), np.array(b, dtype=dtype)


def high_precision_floor(a: int, b: int, d: int, den: int) -> int:
    digits = len(str(abs(a) + abs(b) + den)) * 2 + 40
    with mpmath.workdps(digits):
        return int(mpmath.floor((a + b * mpmath.sqrt(d)) / den))


@pytest.fixture(params=[False, True], ids=["filtered", "forced-fallback"])
def fallback(request, monkeypatch):
    """Run once as shipped and once with an infinite bound: all exact."""
    if request.param:
        monkeypatch.setattr(_kernels, "BOUND", math.inf)
    return request.param


# -- elementwise kernels -------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(columns())
def test_signs_agree_with_the_integer_sign(data):
    d, a, b = data
    expected = [int_sign(int(x), int(y), d) for x, y in zip(a, b)]
    assert _kernels.signs(a, b, d).tolist() == expected


@settings(max_examples=200, deadline=None)
@given(columns(), st.sampled_from([1, 2, 7, 40, 10**9, 2**66 + 1]))
def test_floors_agree_with_the_field_floor(data, den):
    d, a, b = data
    # keep the floors inside int64: scale the numerators down
    keep = [abs(int(x)) + abs(int(y)) * max(d, 1) < den * 2**60 for x, y in zip(a, b)]
    a, b = a[keep], b[keep]
    got = _kernels.floors(a, b, d, den).tolist()
    expected = [
        QuadraticNumber(Fraction(int(x), den), Fraction(int(y), den), d or None).floor()
        for x, y in zip(a, b)
    ]
    assert got == expected
    assert got == [high_precision_floor(int(x), int(y), d, den) for x, y in zip(a, b)]


@pytest.mark.parametrize("d", RADICANDS)
def test_near_ties_and_near_integers_take_the_exact_path(d, fallback):
    ties = convergents(d)
    a = np.array([-p for p, _ in ties] + [p for p, _ in ties], dtype=object)
    b = np.array([q for _, q in ties] + [-q for _, q in ties], dtype=object)
    assert _kernels.signs(a, b, d).tolist() == [
        int_sign(int(x), int(y), d) for x, y in zip(a, b)
    ]
    # (q*sqrt(d) - p)/den + j sits next to the integer j
    den = 97
    shifted = a + 5 * den
    assert _kernels.floors(shifted, b, d, den).tolist() == [
        high_precision_floor(int(x), int(y), d, den) for x, y in zip(shifted, b)
    ]


def test_int_floor_matches_high_precision_on_convergents():
    for d in RADICANDS:
        for p, q in convergents(d, 25):
            for a, b in ((-p, q), (p, -q), (-p + 1, q), (p - 1, -q)):
                assert int_floor(a, b, d, 3) == high_precision_floor(a, b, d, 3)


@settings(max_examples=100, deadline=None)
@given(columns())
def test_forced_fallback_gives_identical_signs_floors_and_extremes(data):
    d, a, b = data
    shipped = (
        _kernels.signs(a, b, d).tolist(),
        _kernels.floors(a, b, d, 2**70).tolist(),
        _kernels.argmin(a, b, d),
    )
    saved = _kernels.BOUND
    _kernels.BOUND = math.inf
    try:
        exact = (
            _kernels.signs(a, b, d).tolist(),
            _kernels.floors(a, b, d, 2**70).tolist(),
            _kernels.argmin(a, b, d),
        )
    finally:
        _kernels.BOUND = saved
    assert shipped == exact


@settings(max_examples=200, deadline=None)
@given(columns())
def test_argmin_is_the_first_least_value(data):
    d, a, b = data
    best = 0
    for i in range(1, len(a)):
        if int_sign(int(a[i] - a[best]), int(b[i] - b[best]), d) < 0:
            best = i
    assert _kernels.argmin(a, b, d) == best


def test_numerators_past_int64_take_the_object_dtype():
    assert _kernels.int_dtype(2**62 - 1) is np.int64
    assert _kernels.int_dtype(2**62) is object
    a = np.array([2**64 + 1, -(2**64), -(2**64)], dtype=object)
    b = np.array([-(2**63), 2**63, 2**62 * 3], dtype=object)
    assert _kernels.signs(a, b, 2).tolist() == [1, -1, 1]
    assert _kernels.argmin(a, b, 2) == 1
    assert _kernels.floors(a, b, 2, 2**60).tolist() == [
        int_floor(int(x), int(y), 2, 2**60) for x, y in zip(a, b)
    ]


# -- codings and extremes --------------------------------------------------------------


def _param_sets():
    golden = parse_quadratic("(-1+sqrt(5))/2")
    return {
        "golden": IetParameters(golden, parse_quadratic("(1+sqrt(5))/4"), 0),
        "degenerate": IetParameters(golden, 2 - 2 * golden, 0),
        "negative-c": IetParameters(
            parse_quadratic("1/2*sqrt(2)"),
            parse_quadratic("(6+sqrt(2))/8"),
            parse_quadratic("-1/10"),
        ),
        "rational": IetParameters(Fraction(2, 5), Fraction(7, 9), Fraction(-1, 7)),
        "rational-degenerate": IetParameters(Fraction(3, 7), Fraction(5, 7), Fraction(-2, 7)),
        # a frame denominator near 10**19: numerators take the object dtype
        "wide-frame": IetParameters(
            golden + Fraction(1, 10**19),
            parse_quadratic("(1+sqrt(5))/4"),
            Fraction(-1, 3 * 10**18),
        ),
    }


PARAM_SETS = _param_sets()


@pytest.mark.parametrize("right_closed", [False, True], ids=["left", "right"])
@pytest.mark.parametrize("name", sorted(PARAM_SETS))
def test_long_exchange_codings_match_the_integer_walk(name, right_closed, fallback):
    iet = ThreeIet(PARAM_SETS[name])
    n = 2_000 if fallback else CODING_LETTERS
    try:
        expected = oracle.exchange_letters(iet, n, right_closed)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            iet.code_orbit(n, right_closed=right_closed)
        assert str(raised.value) == str(exc)
        return
    coding = iet.code_orbit(n, right_closed=right_closed)
    assert coding.word.letters == expected
    # point k is the sum of the translations of the first k letters
    head = expected[: n - 1]
    assert coding.points[n - 1] == sum(
        (head.count(a) * t for a, t in iet.translations.items()), QuadraticNumber(0)
    )


def test_degenerate_coding_matches_the_field_loop(degenerate_params):
    iet = ThreeIet(degenerate_params)
    letters, points = oracle.code_exchange(iet, 3_000)
    coding = iet.code_orbit(3_000)
    assert coding.word.letters == letters
    assert list(coding.points) == points


@pytest.mark.parametrize(
    "rotation",
    [
        Rotation.plain_for(PARAM_SETS["golden"]),
        Rotation.shifted_for(PARAM_SETS["negative-c"]),
        Rotation.plain_for(PARAM_SETS["rational"]),
        # domains of width sqrt(3) + 1 and 57/20, not 1
        Rotation(Fraction(-1, 4), parse_quadratic("1/3*sqrt(3)"), parse_quadratic("sqrt(3)+3/4")),
        Rotation(Fraction(-3, 5), Fraction(1, 7), Fraction(9, 4)),
        Rotation.plain_for(PARAM_SETS["wide-frame"]),
    ],
    ids=["plain", "shifted", "rational", "generic", "generic-rational", "wide-frame"],
)
def test_long_rotation_codings_match_the_integer_walk(rotation, fallback):
    n = 2_000 if fallback else CODING_LETTERS
    coding = rotation.code_orbit(n)
    assert coding.word.letters == oracle.rotation_letters(rotation, n)
    letters, points = oracle.code_rotation(rotation, 200)
    assert coding.word.letters[:200] == letters
    assert list(coding.points[:200]) == points


@pytest.mark.parametrize("name", ["rational", "rational-degenerate"])
def test_rational_densities_count_one_period(name, fallback):
    params = PARAM_SETS[name]
    letters = oracle.period(params)
    result = densities(params)
    assert result.period == len(letters)
    assert result.values == tuple(Fraction(letters.count(a), len(letters)) for a in "ABC")


@pytest.mark.parametrize("name", ["rational", "rational-degenerate", "golden"])
def test_tie_heavy_extremes_keep_the_first_index(name, fallback):
    # for rational epsilon the heights of the coding's binary image are
    # periodic, so the least and the greatest height recur hundreds of times
    params = PARAM_SETS[name]
    values = height_f(SIGMA(ThreeIet(params).code_orbit(3_000).word), params.epsilon)
    n = len(values)
    masks = [None, list(range(0, n, 3)), list(range(n - 1, -1, -7)), np.arange(n) % 5 != 2]
    for indices in masks:
        listed = None if indices is None else (
            np.flatnonzero(indices).tolist() if isinstance(indices, np.ndarray) else indices
        )
        assert values.argmin(indices) == oracle.extreme(values, listed, -1)
        assert values.argmax(indices) == oracle.extreme(values, listed, 1)
    assert values.argmin([]) is None and values.argmax(np.zeros(n, dtype=bool)) is None


def test_wide_frame_heights_use_object_numerators():
    params = PARAM_SETS["wide-frame"]
    values = height_f(SIGMA(ThreeIet(params).code_orbit(500).word), params.epsilon)
    a, _ = values.keys()
    assert a.dtype == object
    assert values.argmin() == oracle.extreme(values, None, -1)
    assert values.argmax() == oracle.extreme(values, None, 1)
