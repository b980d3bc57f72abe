"""Exchanges, rotations, induction, arithmetic conditions."""

from fractions import Fraction
from pathlib import Path

import numpy as np
import oracle
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_lattice import exchange_params

from iet3.dynamics import (
    ConstraintError,
    IetParameters,
    Interval,
    ReturnTimeCapError,
    Rotation,
    ThreeIet,
    first_return,
    idoc,
    in_z_epsilon,
    make_3iet,
    zeps_coordinates,
)
from iet3.qfield import FieldMismatchError, parse_quadratic
from iet3.words import TERNARY_STEPS, LatticePoints

GOLDEN = parse_quadratic("(-1+sqrt(5))/2")


# -- parameter validation ----------------------------------------------------------


def test_each_constraint_violation_names_its_inequality():
    good_l = parse_quadratic("(1+sqrt(5))/4")
    with pytest.raises(ConstraintError, match="0 < epsilon < 1"):
        IetParameters(parse_quadratic("3/2"), good_l, 0)
    with pytest.raises(ConstraintError, match=r"l > max\(epsilon, 1-epsilon\)"):
        IetParameters(GOLDEN, parse_quadratic("1/2"), 0)
    with pytest.raises(ConstraintError, match="l < 1"):
        IetParameters(GOLDEN, parse_quadratic("1"), 0)
    with pytest.raises(ConstraintError, match="c > -l"):
        IetParameters(GOLDEN, good_l, parse_quadratic("-9/10"))
    with pytest.raises(ConstraintError, match="c <= 0"):
        IetParameters(GOLDEN, good_l, parse_quadratic("1/10"))


def test_parameters_must_share_one_quadratic_field():
    with pytest.raises(FieldMismatchError):
        IetParameters(GOLDEN, parse_quadratic("(3-sqrt(2))/2"), 0)


def test_interval_lengths_recover_the_three_pieces(golden_params):
    p = golden_params
    assert p.alpha + p.beta + p.gamma == p.length_l
    assert p.alpha == p.epsilon + p.length_l - 1
    assert p.beta == 1 - p.length_l
    assert p.gamma == p.length_l - p.epsilon


def test_translation_vector_is_tied_to_epsilon(golden_params):
    t = golden_params.translations
    eps = golden_params.epsilon
    assert t == {"A": 1 - eps, "B": 1 - 2 * eps, "C": -eps}
    assert t["A"] + t["C"] == t["B"]


# -- orbit codings ------------------------------------------------------------------


def test_frozen_coding_prefixes():
    golden = IetParameters(GOLDEN, parse_quadratic("(1+sqrt(5))/4"), 0)
    assert ThreeIet(golden).code_orbit(20).word == "AACABACABABACABACAAC"

    root_two = IetParameters(
        parse_quadratic("1/2*sqrt(2)"),
        parse_quadratic("(6+sqrt(2))/8"),
        parse_quadratic("-1/10"),
    )
    assert ThreeIet(root_two).code_orbit(20).word == "AABAACAACAAACAACAABA"

    degenerate = IetParameters(GOLDEN, 2 - 2 * GOLDEN, 0)
    assert ThreeIet(degenerate).code_orbit(20).word == "ABABACABABACABACABAB"


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _coding_pools() -> list[tuple[str, str, str]]:
    """The (epsilon, l, c) triples of the benchmark's coding workload, read
    from its source without importing it, so nothing is written there."""
    namespace: dict = {"__name__": "perfbench_workloads"}
    exec(compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS), "exec"), namespace)
    return [triple for _name, _rc, pool in namespace["CODING_CLASSES"] for triple in pool]


CODING_TRIPLES = _coding_pools()


def _assert_points_are_the_prefix_sums(coding, frame, steps, n: int):
    """The points, built on first read, are the eager prefix sums of the
    letters, and a second read returns the same points."""
    eager = LatticePoints.prefix_sums(frame, coding.word.letters, steps)[:n]
    points = coding.points
    assert len(points) == n and points.frame is frame
    assert np.array_equal(points.p, eager.p) and np.array_equal(points.q, eager.q)
    assert coding.points is points


def _assert_codes_as_all_steps(iet: ThreeIet, n: int, right_closed: bool):
    coding = iet.code_orbit(n, right_closed=right_closed)
    letters = oracle.exchange_letters_of_all_steps(iet, n, right_closed)
    assert coding.word.letters == letters
    _assert_points_are_the_prefix_sums(coding, iet._frame, TERNARY_STEPS, n)


@pytest.mark.parametrize("triple", CODING_TRIPLES, ids="|".join)
def test_codings_of_the_benchmark_triples_match_all_steps(triple):
    params = IetParameters(*map(parse_quadratic, triple))
    iet = ThreeIet(params)
    for right_closed in (False, True):
        for n in (0, 1, 2, 10**4):
            if right_closed and n and not params.offset_c:
                continue
            _assert_codes_as_all_steps(iet, n, right_closed)


def test_a_first_batch_that_falls_short_is_extended(monkeypatch):
    # the visits of epsilon = 5/11 run about 5 % below the mean rate 1/l
    # over the first 10**4 letters, past the first batch's margin
    assert ("5/11", "10/13", "-1/7") in CODING_TRIPLES
    iet = ThreeIet(IetParameters(*map(parse_quadratic, ("5/11", "10/13", "-1/7"))))
    want = [oracle.exchange_letters_of_all_steps(iet, 10**4, rc) for rc in (False, True)]
    batches = []
    steps = ThreeIet._steps

    def spy(self, start, stop, right_closed):
        batches.append((start, stop))
        return steps(self, start, stop, right_closed)

    monkeypatch.setattr(ThreeIet, "_steps", spy)
    for right_closed, letters in zip((False, True), want):
        batches.clear()
        assert iet.code_orbit(10**4, right_closed=right_closed).word.letters == letters
        # the batch, then one extension short of the 2n + 1 steps
        (_, first), (start, stop) = batches
        assert first == start < stop < 2 * 10**4 + 1


@settings(max_examples=150, deadline=None)
@given(exchange_params(), st.integers(0, 3000), st.booleans())
def test_codings_match_all_steps(params, n, right_closed):
    assume(not (right_closed and n and not params.offset_c))
    _assert_codes_as_all_steps(ThreeIet(params), n, right_closed)


def test_orbit_points_follow_the_translations(golden_params):
    iet = ThreeIet(golden_params)
    coding = iet.code_orbit(64)
    for n in range(63):
        letter = coding.word[n]
        assert coding.points[n] in iet.intervals[letter]
        assert coding.points[n + 1] == coding.points[n] + iet.translations[letter]
    # codings compare by word and points, across exchanges with equal parameters
    again = ThreeIet(golden_params).code_orbit(64)
    assert again == coding != iet.code_orbit(63) and hash(again) == hash(coding)


def test_apply_rejects_points_outside_the_domain(golden_params):
    iet = ThreeIet(golden_params)
    with pytest.raises(ValueError, match="outside the domain"):
        iet.apply(parse_quadratic("9/10"))


def test_right_closed_coding_uses_the_other_endpoint_convention(root_two_params):
    iet = ThreeIet(root_two_params)
    left = iet.code_orbit(200)
    right = iet.code_orbit(200, right_closed=True)
    # 0 is interior here, and an idoc orbit never revisits an endpoint,
    # so the two conventions agree on this window
    assert left.word == right.word
    assert iet.letter(iet.domain.lo) == "A"
    assert iet.letter(iet.domain.lo, right_closed=True) is None


def test_rotation_codings_are_binary_and_exact(golden_params):
    rotation = Rotation.plain_for(golden_params)
    coding = rotation.code_orbit(24)
    assert coding.word == "001001010010010100101001"
    for n in range(23):
        assert coding.points[n + 1] == rotation.apply(coding.points[n])
    # a point is k0*shift_low + k1*shift_high
    steps = {"0": (1, 0), "1": (0, 1)}
    for n in (0, 1, 24, 5000):
        _assert_points_are_the_prefix_sums(rotation.code_orbit(n), rotation._frame, steps, n)


def test_rotation_requires_zero_in_its_domain():
    rotation = Rotation(parse_quadratic("1/4"), parse_quadratic("1/2"), parse_quadratic("5/4"))
    with pytest.raises(ValueError, match="0 must belong"):
        rotation.code_orbit(3)
    assert rotation.code_orbit(0).word == ""


def test_rotation_rejects_misordered_endpoints():
    with pytest.raises(ValueError):
        Rotation(0, 0, 1)


# -- induction ----------------------------------------------------------------------


@pytest.mark.parametrize("fixture", ["golden_params", "root_two_params"])
def test_first_return_to_the_short_interval_is_the_exchange(fixture, request):
    params = request.getfixturevalue(fixture)
    rotation = Rotation.plain_for(params)
    domain = Interval(params.offset_c, params.offset_c + params.length_l)
    induced = first_return(rotation, domain)
    assert induced.matches_exchange(make_3iet(params))
    assert [p.return_time for p in induced.pieces] == [1, 2, 1]


def test_first_return_agrees_pointwise(golden_params):
    rotation = Rotation.plain_for(golden_params)
    iet = ThreeIet(golden_params)
    induced = first_return(rotation, Interval(iet.domain.lo, iet.domain.hi))
    points = iet.code_orbit(100).points
    assert iet.agrees_with(induced.apply, points)


def test_first_return_to_the_whole_domain_is_the_rotation(golden_params):
    rotation = Rotation.plain_for(golden_params)
    induced = first_return(rotation, rotation.domain)
    assert all(p.return_time == 1 for p in induced.pieces)
    assert len(induced.pieces) == 2
    assert not induced.matches_exchange(ThreeIet(golden_params))


def test_shifted_rotation_induces_the_same_exchange(golden_params):
    rotation = Rotation.shifted_for(golden_params)
    domain = Interval(
        golden_params.offset_c,
        golden_params.offset_c + golden_params.length_l,
    )
    induced = first_return(rotation, domain)
    assert induced.matches_exchange(ThreeIet(golden_params))


def test_induction_interval_must_sit_inside_the_rotation(golden_params):
    rotation = Rotation.plain_for(golden_params)
    with pytest.raises(ValueError, match="inside the rotation domain"):
        first_return(rotation, Interval(-2, -1))


def test_tiny_return_time_cap_is_reported(golden_params):
    rotation = Rotation.plain_for(golden_params)
    small = Interval(0, parse_quadratic("1/100"))
    with pytest.raises(ReturnTimeCapError):
        first_return(rotation, small, cap=2)


# -- arithmetic conditions ------------------------------------------------------------


def test_idoc_on_the_three_reference_parameter_sets(golden_params, degenerate_params):
    assert idoc(golden_params) is True
    assert idoc(degenerate_params) is False
    rational = IetParameters(
        parse_quadratic("1/2"), parse_quadratic("3/4"), parse_quadratic("-1/8")
    )
    assert idoc(rational) is False


def test_module_membership_frozen_cases():
    assert in_z_epsilon(2 - 2 * GOLDEN, GOLDEN) is True
    assert in_z_epsilon(parse_quadratic("(1+sqrt(5))/4"), GOLDEN) is False
    assert in_z_epsilon(parse_quadratic("7"), GOLDEN) is True
    assert in_z_epsilon(parse_quadratic("1/2"), GOLDEN) is False
    assert in_z_epsilon(parse_quadratic("1/2*sqrt(2)"), GOLDEN) is False


def test_module_membership_on_rational_epsilon():
    # for epsilon = 2/5 in lowest terms, Z + Z*epsilon is (1/5)*Z
    eps = Fraction(2, 5)
    assert in_z_epsilon(Fraction(3, 5), eps) is True
    assert in_z_epsilon(7, eps) is True
    assert in_z_epsilon(Fraction(7, 9), eps) is False
    assert in_z_epsilon(parse_quadratic("1/2*sqrt(2)"), eps) is False


def test_coordinates_invert_the_basis_expansion():
    p, q = zeps_coordinates(3 - 5 * GOLDEN, GOLDEN)
    assert (p, q) == (Fraction(3), Fraction(-5))
    with pytest.raises(ValueError, match="irrational"):
        zeps_coordinates(GOLDEN, Fraction(1, 2))


@given(
    st.integers(min_value=-1000, max_value=1000),
    st.integers(min_value=-1000, max_value=1000),
)
def test_integer_combinations_round_trip(p, q):
    x = p + q * GOLDEN
    assert zeps_coordinates(x, GOLDEN) == (Fraction(p), Fraction(q))
    assert in_z_epsilon(x, GOLDEN) is True
    assert in_z_epsilon(x + Fraction(1, 2), GOLDEN) is False
