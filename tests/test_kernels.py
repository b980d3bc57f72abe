"""Float-filtered array kernels against exact integer and field oracles.

``_kernels.signs``, ``floors`` and ``argmin`` decide most elements from a
float64 value and a rounding bound, and the rest exactly.  These tests ask
the kernels and the exact answers (``int_sign``, ``QuadraticNumber.floor``,
high-precision floats, and the integer walks in ``oracle``) the same
questions on exact zeros, rational frames, near-ties built from
continued-fraction convergents of sqrt(d), numerators past int64, and whole
codings, and ask again with the bound forced to infinity, so that every
element takes the exact path.  The affine floors are asked in each of
their numerator regimes (float64 below 2**53, int64, Python ints) and
across the edges between them, and the extremes over one shared
enclosure with positions left out by +inf bounds.  The one integer
combination of frame rows, ``combination``, is asked against
``oracle.frame_combination`` on 2-, 3- and 4-column frames with zero
entries, rows past 2**62 and empty columns.
"""

import math
from dataclasses import asdict
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_lattice import kernel_extreme, least

from iet3 import _kernels
from iet3.audit import recover_parameters
from iet3.dynamics import IetParameters, Rotation, ThreeIet
from iet3.morphisms import SIGMA
from iet3.qfield import (
    Frame,
    QuadraticNumber,
    int_floor,
    int_sign,
    parse_quadratic,
    sqrt_int,
)
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
        least(a, b, d),
    )
    saved = _kernels.BOUND
    _kernels.BOUND = math.inf
    try:
        exact = (
            _kernels.signs(a, b, d).tolist(),
            _kernels.floors(a, b, d, 2**70).tolist(),
            least(a, b, d),
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
    assert least(a, b, d) == best


def test_numerators_past_int64_take_the_object_dtype():
    assert _kernels.int_dtype(2**62 - 1) is np.int64
    assert _kernels.int_dtype(2**62) is object
    a = np.array([2**64 + 1, -(2**64), -(2**64)], dtype=object)
    b = np.array([-(2**63), 2**63, 2**62 * 3], dtype=object)
    assert _kernels.signs(a, b, 2).tolist() == [1, -1, 1]
    assert least(a, b, 2) == 1
    assert _kernels.floors(a, b, 2, 2**60).tolist() == [
        int_floor(int(x), int(y), 2, 2**60) for x, y in zip(a, b)
    ]


# -- frame combinations ----------------------------------------------------------------

ROW_ENTRIES = (
    st.sampled_from([0, 0, 1, -1])
    | st.integers(-(10**6), 10**6)
    | st.integers(-(2**70), 2**70)
)


@st.composite
def combinations(draw):
    """Integer columns (int64 where they fit, else object, some past int64)
    and the frame with one row per column, entries zero, small or past 2**62."""
    k = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(0, 12))
    rows = draw(st.lists(st.tuples(ROW_ENTRIES, ROW_ENTRIES), min_size=k, max_size=k))
    columns = []
    for _ in range(k):
        reach = draw(st.sampled_from([2**20, 2**61, 2**80]))
        values = draw(st.lists(st.integers(-reach, reach), min_size=n, max_size=n))
        columns.append(np.array(values, dtype=_kernels.int_dtype(reach)))
    # a frame whose elements have exactly these numerator rows
    frame = Frame(tuple(a + b * sqrt_int(2) for a, b in rows))
    assert frame.rows == tuple(rows)
    return columns, frame


@settings(max_examples=300, deadline=None)
@given(combinations())
def test_frame_combinations_match_the_oracle(data):
    columns, frame = data
    a, b = _kernels.combination(columns, frame.rows)
    expected = [
        oracle.frame_combination(frame, [int(c[i]) for c in columns])
        for i in range(len(columns[0]))
    ]
    assert list(zip(a.tolist(), b.tolist())) == expected
    widest = max(abs(x) for row in frame.rows for x in row)
    if widest >= 2**62:
        assert a.dtype == b.dtype == object
    if widest <= 10**6 and all(np.abs(c).max(initial=0) <= 2**20 for c in columns):
        # no product or partial sum can reach 2**62: the int64 path
        assert a.dtype == b.dtype == np.int64


def test_combinations_of_zero_rows_and_empty_columns():
    # a part whose entries are all zero is a zero column in the combination's
    # dtype, and rows past the last column are not read
    p = np.array([3, -5, 7], dtype=np.int64)
    q = np.array([1, 2, 3], dtype=np.int64)
    a, b = _kernels.combination((p, q), ((2, 0), (-1, 0), (2**70, 2**70)))
    assert a.dtype == b.dtype == np.int64
    assert a.tolist() == [5, -12, 11] and b.tolist() == [0, 0, 0]
    a, b = _kernels.combination((p[:0], q[:0]), ((2**70, 0), (0, 1)))
    assert a.dtype == b.dtype == object and len(a) == len(b) == 0
    # a column under a (0, 0) row is not read, even one past int64
    wide = np.array([2**70, 0, -(2**70)], dtype=object)
    a, b = _kernels.combination((p, wide, q), ((2, 0), (0, 0), (-1, 0)))
    assert a.dtype == b.dtype == np.int64 and a.tolist() == [5, -12, 11]


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


@pytest.mark.parametrize("name", ["rational", "rational-degenerate", "golden"])
def test_tie_heavy_extremes_keep_the_first_index(name, fallback):
    # for rational epsilon the heights of the coding's binary image are
    # periodic, so the least and the greatest height recur hundreds of times
    params = PARAM_SETS[name]
    values = height_f(SIGMA(ThreeIet(params).code_orbit(3_000).word), params.epsilon)
    n = len(values)
    subsets = [
        None,
        list(range(0, n, 3)),
        list(range(n - 1, -1, -7)),
        np.flatnonzero(np.arange(n) % 5 != 2).tolist(),
    ]
    for indices in subsets:
        assert kernel_extreme(values, indices, -1) == oracle.extreme(values, indices, -1)
        assert kernel_extreme(values, indices, 1) == oracle.extreme(values, indices, 1)
    assert kernel_extreme(values, [], -1) is None and kernel_extreme(values, [], 1) is None


def test_wide_frame_heights_use_object_numerators():
    params = PARAM_SETS["wide-frame"]
    values = height_f(SIGMA(ThreeIet(params).code_orbit(500).word), params.epsilon)
    a, _ = values.keys()
    assert a.dtype == object
    assert kernel_extreme(values, None, -1) == oracle.extreme(values, None, -1)
    assert kernel_extreme(values, None, 1) == oracle.extreme(values, None, 1)


# -- numerator regimes of the affine floors ----------------------------------------------


@st.composite
def affine_rows(draw):
    """(offset, slope, d, den, count, chunk) whose chunks of m build their
    numerators in float64 up to some m and in int64 or Python ints past it:
    the largest entry, of either sign, sits near edge/k for a k in range."""
    d = draw(st.sampled_from((0,) + RADICANDS))
    count = draw(st.integers(0, 40))
    chunk = draw(st.sampled_from([1, 5, 16, _kernels.CHUNK]))
    edge = draw(st.sampled_from([2**53, 2**62, 2**20]))
    reach = max(1, edge // draw(st.integers(1, 42)) + draw(st.integers(-2, 2)))
    entries = [draw(st.integers(-reach, reach)) for _ in range(4)]
    entries[draw(st.integers(0, 3))] = draw(st.sampled_from([reach, -reach]))
    a0, b0, a1, b1 = entries
    if d == 0:
        b0 = b1 = 0
    # a denominator that keeps every floor inside int64
    base = draw(st.sampled_from([1, 2, 97, 2**40 + 1]))
    den = base * (1 + (reach * (count + 1) * (math.isqrt(d) + 2) >> 60))
    return (a0, b0), (a1, b1), d, den, count, chunk


@settings(max_examples=300, deadline=None)
@given(affine_rows())
def test_affine_floors_agree_with_the_field_floor_in_every_regime(row):
    (a0, b0), (a1, b1), d, den, count, chunk = row
    expected = [int_floor(a0 + m * a1, b0 + m * b1, d, den) for m in range(count)]
    with mock.patch.object(_kernels, "CHUNK", chunk):
        assert _kernels.affine_floors((a0, b0), (a1, b1), d, den, count).tolist() == expected
        with mock.patch.object(_kernels, "BOUND", math.inf):
            exact = _kernels.affine_floors((a0, b0), (a1, b1), d, den, count)
    assert exact.tolist() == expected


def test_float_numerators_stop_below_two_to_the_53():
    # rows whose numerators stay below 2**53 never reach the integer path
    count = 9
    a1 = (2**53 - 1) // (count + 1)
    offset, slope = (3 - a1, a1), (a1, -a1)
    expected = [int_floor(offset[0] + m * a1, a1 - m * a1, 2, 7) for m in range(count)]
    with mock.patch.object(_kernels, "floors", side_effect=AssertionError):
        assert _kernels.affine_floors(offset, slope, 2, 7, count).tolist() == expected
    # past 2**53 float64 would round 2**53 + 1 to 2**53 and the offset
    # -2**54 + 5 to -2**54 + 4, so the numerators at m = 2 would read
    # 4 + sqrt(2), not 7 + sqrt(2); the integer path keeps them exact
    a1 = 2**53 + 1
    offset, slope = (-2 * a1 + 7, 1), (a1, 0)
    got = _kernels.affine_floors(offset, slope, 2, 1, 3).tolist()
    assert got == [int_floor(offset[0] + m * a1, 1, 2, 1) for m in range(3)]
    assert got[2] == 8


def _frame_reach(frame) -> int:
    return max(abs(x) for row in frame.rows for x in row)


def _near_edge_params(d: int | None, frame_of):
    """Parameters whose frame, ``frame_of(params)``, reaches about 2**53 / 1500."""

    def make(n: int):
        if d is None:
            eps, ell = Fraction(2, 5), Fraction(7, 9)
        else:
            eps = parse_quadratic(f"(-1+sqrt({d}))/2" if d == 5 else f"sqrt({d})-1")
            ell = (max(eps, 1 - eps) + 1) / 2
        return IetParameters(eps + Fraction(1, n), ell, Fraction(-1, 3 * n))

    trial = 30 * 10**5 + 1
    per_n = _frame_reach(frame_of(make(trial))) / trial
    return make(30 * int(2**53 / 1500 / per_n / 30) + 1)


@pytest.mark.parametrize("right_closed", [False, True], ids=["left", "right"])
@pytest.mark.parametrize("d", [5, 2, None], ids=["sqrt5", "sqrt2", "rational"])
def test_codings_across_two_to_the_53_match_the_integer_walk(d, right_closed, fallback, monkeypatch):
    # small chunks put the float64 and the int64 numerators in one coding
    monkeypatch.setattr(_kernels, "CHUNK", 256)
    n = 3_000
    iet = ThreeIet(_near_edge_params(d, lambda params: ThreeIet(params)._frame))
    assert _frame_reach(iet._frame) * 256 < 2**53 < _frame_reach(iet._frame) * 2 * n
    assert iet.code_orbit(n, right_closed=right_closed).word.letters == (
        oracle.exchange_letters(iet, n, right_closed)
    )
    rotation = Rotation.plain_for(
        _near_edge_params(d, lambda params: Rotation.plain_for(params)._count)
    )
    assert _frame_reach(rotation._count) * 256 < 2**53 < _frame_reach(rotation._count) * n
    assert rotation.code_orbit(n).word.letters == oracle.rotation_letters(rotation, n)


# -- extremes over shared bounds ------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(columns(), st.data())
def test_argmin_over_shared_bounds_leaves_out_the_infinite_ones(data, draw):
    d, a, b = data
    keep = draw.draw(st.lists(st.booleans(), min_size=len(a), max_size=len(a)))
    kept = [i for i, k in enumerate(keep) if k]
    best = kept[0] if kept else None
    for i in kept[1:]:
        if int_sign(int(a[i] - a[best]), int(b[i] - b[best]), d) < 0:
            best = i
    # the shipped enclosures, and again enclosures that decide nothing
    for bound in (_kernels.BOUND, math.inf):
        with mock.patch.object(_kernels, "BOUND", bound):
            lo, hi = _kernels.bounds(a, b, d)
        lo[~np.array(keep)] = np.inf
        hi[~np.array(keep)] = np.inf
        assert _kernels.argmin(a, b, d, (lo, hi)) == best


def test_left_out_positions_lose_where_no_bound_is_finite():
    # values past the float range have NaN bounds, so the float pass keeps
    # all of them; a position left out with +inf must still lose
    a = np.array([-(10**400), -(10**401), 5, -(10**402)], dtype=object)
    b = np.zeros(4, dtype=object)
    lo, hi = _kernels.bounds(a, b, 2)
    assert np.isnan(lo[0]) and np.isnan(hi[0])
    lo[3] = hi[3] = np.inf
    assert _kernels.argmin(a, b, 2, (lo, hi)) == 1
    lo[:] = hi[:] = np.inf
    assert _kernels.argmin(a, b, 2, (lo, hi)) is None
    assert least(a[:0], b[:0], 2) is None


@pytest.mark.parametrize("right_closed", [False, True], ids=["left", "right"])
@pytest.mark.parametrize("name", ["rational", "rational-degenerate", "negative-c", "golden"])
def test_recovery_reads_the_extremes_of_the_field_loop(name, right_closed, fallback):
    # rational epsilon makes the heights periodic, so every extreme is tied
    iet = ThreeIet(PARAM_SETS[name])
    try:
        u = oracle.exchange_letters(iet, 600, right_closed)
    except ValueError:  # c = 0: the right-closed orbit leaves at once
        u = oracle.exchange_letters(iet, 600)
    eps = iet.params.epsilon
    assert asdict(recover_parameters(u, eps)) == oracle.recover(u, eps)
