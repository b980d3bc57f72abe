"""Command-line behaviour: payload shapes, exit codes, determinism, SVG."""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np
import oracle
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_lattice import epsilons, exchange_params

from iet3.cli import ORBIT_CHUNK, main
from iet3.dynamics import IetParameters, Rotation, ThreeIet
from iet3.qfield import parse_quadratic

GOLDEN = "(-1+sqrt(5))/2"
GOLDEN_L = "(1+sqrt(5))/4"
GOLDEN_2000 = (
    ThreeIet(IetParameters(parse_quadratic(GOLDEN), parse_quadratic(GOLDEN_L), 0))
    .code_orbit(2000)
    .word.letters
)


@pytest.fixture(scope="module")
def schema():
    from importlib import resources

    with resources.files("iet3").joinpath("schema.json").open() as handle:
        return json.load(handle)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys, schema):
    code, out, err = run(["--json"] + argv, capsys)
    assert out.count("{") >= 1
    doc = json.loads(out)  # exactly one JSON document
    jsonschema.validate(doc, schema)
    return code, doc, err


# -- generation ---------------------------------------------------------------


def test_gen3iet_prints_the_bare_word(capsys):
    code, out, err = run(
        ["gen3iet", "--epsilon", GOLDEN, "--l", GOLDEN_L, "--c", "0", "--n", "5"],
        capsys,
    )
    assert (code, out, err) == (0, "AACAB\n", "")


def test_gen3iet_with_zero_letters_prints_nothing(capsys):
    code, out, err = run(
        ["gen3iet", "--epsilon", GOLDEN, "--l", GOLDEN_L, "--n", "0"], capsys
    )
    assert (code, out, err) == (0, "", "")


def test_gen3iet_rejects_an_l_below_the_bound(capsys):
    code, out, err = run(
        ["gen3iet", "--epsilon", GOLDEN, "--l", "1/2", "--n", "5"], capsys
    )
    assert code == 1
    assert "l > max(epsilon, 1-epsilon)" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen3iet", "--epsilon", GOLDEN, "--l", GOLDEN_L],
        ["gensturm", "--epsilon", GOLDEN],
    ],
)
def test_orbit_length_above_the_limit_is_a_usage_error(argv, capsys):
    from iet3.cli import MAX_ORBIT_LENGTH, _build_parser

    # the parser alone decides: no orbit is coded here
    args = _build_parser().parse_args(argv + ["--n", str(MAX_ORBIT_LENGTH)])
    assert args.n == MAX_ORBIT_LENGTH
    with pytest.raises(SystemExit) as exc:
        _build_parser().parse_args(argv + ["--n", str(10**12)])
    assert exc.value.code == 1
    assert f"exceeds the limit of {MAX_ORBIT_LENGTH} points" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, dest, limit_name",
    [
        (["--seed-prefix-len"], "seed_prefix_len", "MAX_ORBIT_LENGTH"),
        (["audit", "--morphism", "A>AB", "--seed-prefix-len"], "seed_prefix_len",
         "MAX_ORBIT_LENGTH"),
        (["search", "--seed-prefix-len"], "seed_prefix_len", "MAX_ORBIT_LENGTH"),
        (["search", "--max-total-length"], "max_total_length", "MAX_SEARCH_LENGTH"),
        (["search", "--max-image-length"], "max_image_length", "MAX_SEARCH_LENGTH"),
        (["induce", "--epsilon", "1/3", "--l", "3/4", "--cap"], "cap", "MAX_RETURN_TIME"),
    ],
)
def test_oversized_sizes_are_usage_errors(argv, dest, limit_name, capsys):
    from iet3 import cli

    limit = getattr(cli, limit_name)
    # the parser alone decides: no search, audit or induction runs here
    tail = [] if argv[0] != "--seed-prefix-len" else ["sturm", "--value", "1/2"]
    args = cli._build_parser().parse_args(argv + [str(limit)] + tail)
    assert getattr(args, dest) == limit
    with pytest.raises(SystemExit) as exc:
        cli._build_parser().parse_args(argv + [str(10**12)] + tail)
    assert exc.value.code == 1
    assert f"{10**12} exceeds the limit of {limit}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, least, message",
    [
        (["audit", "--morphism", "A>AB;B>AACA;C>A", "--seed-prefix-len"], 0,
         "prefix length -5 is below 0"),
        (["search", "--max-total-length"], 3, "total image length -5 is below 3"),
        (["search", "--max-image-length"], 1, "image length -5 is below 1"),
        (["induce", "--epsilon", GOLDEN, "--l", GOLDEN_L, "--cap"], 1,
         "return-time cap -5 is below 1"),
    ],
    ids=["seed-prefix-len", "max-total-length", "max-image-length", "cap"],
)
def test_sizes_below_their_least_are_usage_errors(argv, least, message, capsys):
    from iet3.cli import _build_parser

    # the parser alone accepts the least value: no audit, search or induction runs
    dest = argv[-1][2:].replace("-", "_")
    assert getattr(_build_parser().parse_args(argv + [str(least)]), dest) == least
    for bad in (least - 1, -5):
        code, out, err = run(argv + [str(bad)], capsys)
        assert (code, out) == (1, "")
        assert f"{bad} is below {least}" in err
    assert message in err


@pytest.mark.parametrize("flag", ["--n-max", "--balance-window"])
def test_factor_lengths_outside_one_to_the_limit_are_usage_errors(flag, capsys):
    from iet3.cli import MAX_ORBIT_LENGTH, _build_parser

    # the parser alone decides: no word is analyzed here
    argv = ["analyze", "--word", "AACABACABA", flag]
    dest = flag[2:].replace("-", "_")
    for ok in ("1", str(MAX_ORBIT_LENGTH)):
        assert getattr(_build_parser().parse_args(argv + [ok]), dest) == int(ok)
    for bad, message in (
        ("-3", "factor length -3 is below 1"),
        ("0", "factor length 0 is below 1"),
        (str(10**12), f"exceeds the limit of {MAX_ORBIT_LENGTH} letters"),
    ):
        with pytest.raises(SystemExit) as exc:
            _build_parser().parse_args(argv + [bad])
        assert exc.value.code == 1
        assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["gen3iet", "--l", GOLDEN_L], ["gensturm"]], ids=["gen3iet", "gensturm"]
)
def test_a_negative_orbit_length_is_a_usage_error(argv, capsys):
    code, out, err = run([*argv, "--epsilon", GOLDEN, "--n", "-1"], capsys)
    assert (code, out) == (1, "")
    assert "orbit length -1 is below 0" in err
    code, out, _err = run([*argv, "--epsilon", GOLDEN, "--n", "0"], capsys)
    assert code == 0


def test_induce_cap_limit_is_no_lower_than_its_default():
    from iet3.cli import MAX_RETURN_TIME, _build_parser

    args = _build_parser().parse_args(["induce", "--epsilon", GOLDEN, "--l", GOLDEN_L])
    assert args.cap == 10**6 <= MAX_RETURN_TIME


@pytest.mark.parametrize(
    "argv",
    [
        ["gen3iet", "--epsilon", GOLDEN, "--l", GOLDEN_L, "--n", "40"],
        ["gensturm", "--epsilon", GOLDEN, "--n", "40"],
    ],
)
def test_text_mode_builds_no_orbit_array(argv, capsys, schema, monkeypatch):
    from iet3 import cli

    args = cli._build_parser().parse_args(argv)
    payload, text, code = args.handler(args)
    assert "orbit" not in payload and code == 0
    code, doc, err = run_json(argv, capsys, schema)
    assert doc["word"] == text and len(doc["orbit"]) == 40
    writes = []
    monkeypatch.setattr(cli, "_orbit_rows", writes.append)
    assert run(argv, capsys) == (0, text + "\n", "") and writes == []


def test_gen3iet_json_carries_exact_orbit_points(capsys, schema):
    code, doc, err = run_json(
        ["gen3iet", "--epsilon", GOLDEN, "--l", GOLDEN_L, "--n", "3"], capsys, schema
    )
    assert code == 0
    assert doc["word"] == "AAC"
    assert doc["orbit"][0] == {"exact": "0", "approx": 0.0}
    assert doc["orbit"][1]["exact"] == "(3-sqrt(5))/2"
    assert math.isclose(doc["orbit"][1]["approx"], (3 - 5**0.5) / 2)


#: a tiny shift whose denominator is past 2**64, so that the frame
#: numerators of the orbit need Python ints in object arrays
TINY = Fraction(1, 2**64 + 1)
#: shifts whose frame numerators can be int64 past 2**53, where the float
#: of a numerator is no longer exact; how far past depends on the orbit, so
#: the "wide" orbits take the first of these, largest first, that gets there
WIDE = [Fraction(1, 2**k + 1) for k in range(61, 37, -1)]


def _bit_length(points) -> int:
    """The bit length of the largest frame numerator of ``points``."""
    numerators = itertools.chain(*map(np.ndarray.tolist, points.keys()))
    return max(map(abs, numerators), default=0).bit_length()


def _shifted(size, code):
    """The shift of ``size`` and the coding ``code(shift)``: no shift when
    "small", ``TINY`` when "huge", whose numerators are Python ints, and
    for "wide" the first of ``WIDE`` whose numerators are int64 and pass
    2**53.  ``keys`` picks int64 from a bound on the numerators, which
    cancellation can leave far above them: an orbit whose points are all
    0, or whose numerators pass 2**53 only past that bound, is no example
    of "wide"."""
    if size != "wide":
        shift = TINY if size == "huge" else 0
        coding = code(shift)
        if size == "huge":
            assert coding.points.keys()[0].dtype == object
        return shift, coding
    for shift in WIDE:
        coding = code(shift)
        if coding.points.keys()[0].dtype == np.int64 and _bit_length(coding.points) > 53:
            return shift, coding
    assume(False)


def _assert_orbit_json_matches_the_oracle(argv, head, points):
    """The whole --json text of argv is json.dumps(indent=2) of the payload
    with its orbit built point by point."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([*argv, "--json"]) == 0
    expected = {**head, "orbit": oracle.orbit_json(points)}
    assert out.getvalue() == json.dumps(expected, indent=2) + "\n"


#: the numerator sizes of the orbit tests: int64 below 2**53, int64 past
#: it, and Python ints
SIZES = st.sampled_from(["small", "wide", "huge"])


@settings(max_examples=120, deadline=None)
@given(exchange_params(), st.integers(0, 60), st.booleans(), SIZES)
def test_orbit_json_of_an_exchange_matches_the_per_point_oracle(
    params, n, right_closed, size
):
    assume(not (right_closed and n and not params.offset_c))

    def code(shift):
        shifted = IetParameters(params.epsilon, params.length_l, params.offset_c - shift)
        return ThreeIet(shifted).code_orbit(n, right_closed=right_closed)

    shift, coding = _shifted(size, code)
    values = (params.epsilon, params.length_l, params.offset_c - shift)
    argv = ["gen3iet", *(f"--{k}={v}" for k, v in zip(("epsilon", "l", "c"), values))]
    argv += ["--n", str(n)] + ["--right-closed"] * right_closed
    head = {
        "command": "gen3iet",
        "parameters": dict(zip(("epsilon", "l", "c"), oracle.orbit_json(values))),
        "n": n,
        "word": coding.word.letters,
    }
    _assert_orbit_json_matches_the_oracle(argv, head, coding.points)


def test_an_orbit_whose_products_stay_below_the_bound_gets_int64_numerators():
    # the numerators reach 54 bits and the bound on the products that
    # reach them 61, so the keys fit int64 although the frame rows and the
    # pairs are large
    params = IetParameters(
        Fraction(2, 5), Fraction(7, 10), Fraction(-7, 20) - Fraction(1, 2**51 + 1)
    )
    coding = ThreeIet(params).code_orbit(32)
    a, b = coding.points.keys()
    assert a.dtype == b.dtype == np.int64 and _bit_length(coding.points) == 54
    assert list(zip(a.tolist(), b.tolist())) == [
        coding.points.key(i) for i in range(len(coding.points))
    ]
    values = (params.epsilon, params.length_l, params.offset_c)
    argv = ["gen3iet", *(f"--{k}={v}" for k, v in zip(("epsilon", "l", "c"), values))]
    head = {
        "command": "gen3iet",
        "parameters": dict(zip(("epsilon", "l", "c"), oracle.orbit_json(values))),
        "n": 32,
        "word": coding.word.letters,
    }
    _assert_orbit_json_matches_the_oracle([*argv, "--n", "32"], head, coding.points)


#: with a = floor(b*sqrt(2)), a converts to the largest float but b times
#: the float of sqrt(2) rounds past it: the float of b*sqrt(2) - a, summed
#: from its two parts, is inf, that of the next orbit point -inf, and the
#: parts of the point after overflow; each reads its rationalised form
OVERFLOW_B = 1592262918131443 * 2**973
OVERFLOWING = parse_quadratic(f"{OVERFLOW_B}*sqrt(2)-{math.isqrt(2 * OVERFLOW_B**2)}")


@settings(max_examples=80, deadline=None)
@given(epsilons(), st.integers(0, 24), st.integers(0, 60), SIZES)
@example(OVERFLOWING, 0, 2, "small")
def test_orbit_json_of_a_rotation_matches_the_per_point_oracle(eps, j, n, size):
    # the rotation gensturm codes: [lo, lo + 1) cut at lo + epsilon
    lo = Fraction(-j, 25)
    shift, coding = _shifted(
        size, lambda shift: Rotation(lo, lo + eps - shift, lo + 1).code_orbit(n)
    )
    eps = eps - shift
    argv = ["gensturm", f"--epsilon={eps}", f"--lo={lo}", "--n", str(n)]
    exact_eps, exact_lo = oracle.orbit_json([eps, lo])
    head = {
        "command": "gensturm",
        "epsilon": exact_eps,
        "lo": exact_lo,
        "n": n,
        "word": coding.word.letters,
    }
    _assert_orbit_json_matches_the_oracle(argv, head, coding.points)


@pytest.mark.parametrize(
    "n", [ORBIT_CHUNK - 1, ORBIT_CHUNK, ORBIT_CHUNK + 1, 10**4], ids=str
)
@pytest.mark.parametrize("command", ["gen3iet", "gensturm"])
@pytest.mark.parametrize(
    "shift",
    # a shift of 1/(2**44 + 1) keeps the frame denominator below 2**53 and
    # takes the numerators past it from some point on: such a chunk writes
    # float64 sums and quadratic_float values side by side
    [0, Fraction(1, 2**44 + 1)],
    ids=["golden", "past-2**53"],
)
def test_orbit_json_matches_the_oracle_across_chunks(shift, command, n):
    eps = parse_quadratic(GOLDEN) - shift
    if command == "gen3iet":
        params = IetParameters(eps, parse_quadratic(GOLDEN_L), 0)
        coding = ThreeIet(params).code_orbit(n)
        exact = oracle.orbit_json([params.epsilon, params.length_l, params.offset_c])
        head = {"command": command, "parameters": dict(zip(("epsilon", "l", "c"), exact))}
        argv = [command, f"--epsilon={eps}", f"--l={GOLDEN_L}"]
    else:
        coding = Rotation(0, eps, 1).code_orbit(n)
        exact_eps, exact_lo = oracle.orbit_json([eps, 0])
        head = {"command": command, "epsilon": exact_eps, "lo": exact_lo}
        argv = [command, f"--epsilon={eps}"]
    head.update(n=n, word=coding.word.letters)
    a, _b = coding.points.keys()
    if shift and n == 10**4:
        past = np.abs(a) >= 2**53
        assert a.dtype == np.int64 and past.any() and not past.all()
    _assert_orbit_json_matches_the_oracle([*argv, "--n", str(n)], head, coding.points)


def _no_constant(name):
    raise AssertionError(f"{name} is not strict JSON")


@pytest.mark.parametrize(
    "b, n",
    [(10**307, 40), (OVERFLOW_B, 2), (OVERFLOW_B, 3)],
    ids=["parts-pass-the-range", "sum-is-infinite", "sum-overflows"],
)
def test_orbit_points_whose_parts_pass_the_float_range_are_strict_json(b, n, capsys):
    # epsilon and the points lie in [0, 1], where their float parts do not
    a = math.isqrt(2 * b * b)
    argv = ["gensturm", f"--epsilon={b}*sqrt(2)-{a}", "--n", str(n)]
    code, out, err = run(argv, capsys)
    assert (code, len(out), err) == (0, n + 1, "")
    code, out, err = run([*argv, "--json"], capsys)
    assert (code, err) == (0, "")
    doc = json.loads(out, parse_constant=_no_constant)
    values = [doc["epsilon"], *doc["orbit"]]
    assert len(values) == n + 1
    for value in values:
        assert value["approx"] == float(parse_quadratic(value["exact"]))
    # where the sum of the two parts is finite it stands, cancellation and
    # all; where it is not, the float is the rationalised one: epsilon is
    # b*sqrt(2) - a to 60 bits
    if b == OVERFLOW_B:
        assert all(0 <= value["approx"] <= 1 for value in values)
        exact = (math.isqrt(2 * b * b << 120) - (a << 60)) / 2**60
        assert math.isclose(values[0]["approx"], exact, rel_tol=1e-14)


@pytest.mark.parametrize("command", ["gen3iet", "gensturm"])
def test_orbit_json_builds_no_value_per_point(command, capsys, monkeypatch):
    from iet3.qfield import Frame, QuadraticNumber

    calls = []
    make, value = QuadraticNumber._make, Frame.value

    def counted_make(*args):
        calls.append("make")
        return make(*args)

    def counted_value(self, numerator):
        calls.append("value")
        return value(self, numerator)

    monkeypatch.setattr(QuadraticNumber, "_make", staticmethod(counted_make))
    monkeypatch.setattr(Frame, "value", counted_value)
    argv = [command, "--epsilon", GOLDEN, "--json"]
    if command == "gen3iet":
        argv += ["--l", GOLDEN_L]
    made = {}
    for n in (1, 1000):
        calls.clear()
        code, out, err = run([*argv, "--n", str(n)], capsys)
        assert (code, err, len(json.loads(out)["orbit"])) == (0, "", n)
        made[n] = list(calls)
    # the parameters and the coding build a fixed number; the points none
    assert made[1000] == made[1] and "value" not in made[1]


def _text_form(x) -> int:
    """The index in ``qfield.text_forms`` of the canonical text of x."""
    a, b, q = x._a, x._b, x._n
    return {0: 0, 1: 4, -1: 8}.get(b, 12) + 2 * (a != 0) + (q != 1)


def test_exact_text_has_one_formatter(capsys, monkeypatch):
    from iet3 import cli, qfield

    assert cli.text_forms is qfield.text_forms
    seen = []
    formatter = qfield.quadratic_text

    def spy(*args):
        seen.append(args)
        return formatter(*args)

    monkeypatch.setattr(qfield, "quadratic_text", spy)
    assert str(parse_quadratic("(3-sqrt(5))/2")) == "(3-sqrt(5))/2"
    assert seen == [(3, -1, 2, 5)]
    # str and the orbit rows both write from the one form table: a table
    # whose forms are marked with their index marks both
    marked = tuple(f"<{k}>{form}" for k, form in enumerate(qfield.text_forms(5)))
    monkeypatch.setattr(qfield, "_TEXT_FORMS", {5: marked})
    assert str(parse_quadratic("(3-sqrt(5))/2")) == "<11>(3-sqrt(5))/2"
    argv = ["gensturm", "--epsilon", GOLDEN, "--n", "40"]
    code, out, err = run([*argv, "--json"], capsys)
    assert (code, err) == (0, "")
    eps = parse_quadratic(GOLDEN)
    points = Rotation(0, eps, 1).code_orbit(40).points
    written = [row["exact"] for row in json.loads(out)["orbit"]]
    assert written == [f"<{_text_form(x)}>{oracle.quadratic_str(x)}" for x in points]
    assert {_text_form(x) for x in points} == {0, 10, 11, 14, 15}


def test_gensturm_codes_the_rotation(capsys, schema):
    code, doc, err = run_json(
        ["gensturm", "--epsilon", GOLDEN, "--n", "10"], capsys, schema
    )
    assert code == 0
    assert doc["word"] == "0010010100"


def test_gensturm_validates_the_slope(capsys):
    code, out, err = run(["gensturm", "--epsilon", "3/2", "--n", "4"], capsys)
    assert code == 1 and "epsilon" in err


# -- induction ----------------------------------------------------------------


def test_induce_reports_three_matching_pieces(capsys, schema):
    code, doc, err = run_json(
        ["induce", "--epsilon", GOLDEN, "--l", GOLDEN_L], capsys, schema
    )
    assert code == 0
    assert doc["matches_exchange"] is True
    assert [p["return_time"] for p in doc["pieces"]] == [1, 2, 1]


def test_induce_on_a_chosen_interval_skips_the_comparison(capsys, schema):
    code, doc, err = run_json(
        [
            "induce", "--epsilon", GOLDEN, "--l", GOLDEN_L,
            "--e-lo", "0", "--e-hi", "1/2",
        ],
        capsys,
        schema,
    )
    assert code == 0 and doc["matches_exchange"] is None


def test_induce_needs_both_interval_endpoints(capsys):
    code, out, err = run(
        ["induce", "--epsilon", GOLDEN, "--l", GOLDEN_L, "--e-lo", "0"], capsys
    )
    assert code == 1 and "together" in err


def test_induce_reports_an_exceeded_cap_as_an_error(capsys):
    code, out, err = run(
        ["induce", "--epsilon", GOLDEN, "--l", GOLDEN_L, "--cap", "1"], capsys
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: return time exceeded cap 1 ")


# -- analysis -----------------------------------------------------------------


def test_analyze_runs_all_ternary_checks_by_default(capsys, schema, tmp_path):
    path = tmp_path / "word.txt"
    path.write_text("AACABACABABACABACAAC\n")
    code, doc, err = run_json(["analyze", "--file", str(path)], capsys, schema)
    assert code == 0
    assert doc["alphabet"] == "ternary"
    assert doc["complexity"]["counts"][1] == 3
    assert doc["balance"]["max_imbalance"] >= 1
    assert doc["certificate"]["verdict"] == "consistent-with-3iet"


def test_analyze_on_binary_words_skips_the_certificate(capsys, schema):
    code, doc, err = run_json(["analyze", "--word", "01001010"], capsys, schema)
    assert code == 0
    assert doc["alphabet"] == "binary"
    assert doc["certificate"] is None
    assert doc["complexity"] is not None and doc["balance"] is not None


def test_analyze_rejects_unknown_checks_and_binary_certificates(capsys):
    code, out, err = run(
        ["analyze", "--word", "ABC", "--checks", "entropy"], capsys
    )
    assert code == 1 and "unknown checks" in err
    code, out, err = run(
        ["analyze", "--word", "0101", "--checks", "certificate"], capsys
    )
    assert code == 1 and "ternary" in err


def test_analyze_requires_exactly_one_word_source(capsys):
    code, out, err = run(["analyze"], capsys)
    assert code == 1
    code, out, err = run(
        ["analyze", "--word", "A", "--file", "/nonexistent"], capsys
    )
    assert code == 1


def test_analyze_refuses_a_balance_window_past_the_work_limit(
    capsys, golden_params, tmp_path
):
    from iet3.cli import MAX_BALANCE_WORK, MAX_ORBIT_LENGTH

    path = tmp_path / "coding.txt"
    path.write_text(ThreeIet(golden_params).code_orbit(MAX_ORBIT_LENGTH).word.letters)
    largest = str(MAX_ORBIT_LENGTH)
    start = time.perf_counter()
    code, out, err = run(
        ["analyze", "--file", str(path), "--n-max", largest,
         "--balance-window", largest],
        capsys,
    )
    # refused before any check runs
    assert time.perf_counter() - start < 10
    assert (code, out) == (1, "")
    assert "--balance-window" in err and f"above the limit of {MAX_BALANCE_WORK}" in err


def test_the_balance_work_limit_is_the_window_times_the_length(capsys, monkeypatch):
    from iet3 import cli

    monkeypatch.setattr(cli, "MAX_BALANCE_WORK", 100)
    # the window stops at the word: 10 letters at any window is 10 * 10 steps
    for argv in (["--word", "A" * 10, "--balance-window", "50"],
                 ["--word", "A" * 50, "--balance-window", "2"]):
        code, out, err = run(["analyze", "--checks", "balance", *argv], capsys)
        assert (code, err) == (0, "")
    for argv in (["--word", "A" * 11, "--balance-window", "11"],
                 ["--word", "A" * 51, "--balance-window", "2"]):
        code, out, err = run(["analyze", "--checks", "balance", *argv], capsys)
        assert (code, out) == (1, "") and "lower --balance-window" in err
    # the limit is on balance alone
    code, out, err = run(
        ["analyze", "--word", "A" * 51, "--checks", "complexity"], capsys
    )
    assert code == 0


@pytest.mark.parametrize("command", ["analyze", "recover", "svg"])
@pytest.mark.parametrize("flag", ["--word", "--file"])
def test_a_word_past_the_length_limit_is_refused(command, flag, capsys, tmp_path):
    from iet3.cli import MAX_ORBIT_LENGTH

    figure = tmp_path / "unwritten.svg"
    rest = {
        "analyze": [],
        "recover": ["--epsilon", GOLDEN],
        "svg": ["--out", str(figure)],
    }
    letters = "A" * (MAX_ORBIT_LENGTH + 1)
    if flag == "--file":
        path = tmp_path / "long.txt"
        path.write_text(letters + "\n")
        letters = str(path)
    code, out, err = run([command, flag, letters, *rest[command]], capsys)
    assert (code, out) == (1, "")
    assert f"exceeds the limit of {MAX_ORBIT_LENGTH} letters" in err
    assert not figure.exists()


def test_a_file_may_end_in_newlines_past_the_length_limit(tmp_path):
    from iet3.cli import MAX_ORBIT_LENGTH, _read_word_argument

    def read(text):
        path = tmp_path / "word.txt"
        path.write_text(text)
        return _read_word_argument(argparse.Namespace(word=None, file=str(path)))

    letters = "AB" * (MAX_ORBIT_LENGTH // 2)
    assert read(letters + "\n" * 70_000).letters == letters
    for tail in ("\nA", "\n" * 70_000 + "C\n", "A"):
        with pytest.raises(ValueError, match="word length at least"):
            read(letters + tail)


# -- predicates ----------------------------------------------------------------


def test_idoc_distinguishes_the_reference_cases(capsys, schema):
    code, doc, err = run_json(
        ["idoc", "--epsilon", GOLDEN, "--l", GOLDEN_L], capsys, schema
    )
    assert code == 0 and doc["idoc"] is True

    code, doc, err = run_json(
        ["idoc", "--epsilon", GOLDEN, "--l", "3-sqrt(5)"], capsys, schema
    )
    assert code == 0 and doc["idoc"] is False and doc["l_in_z_epsilon"] is True


def test_idoc_answers_rational_epsilon_exactly(capsys, schema):
    # Z + Z*2/5 is (1/5)*Z: 7/9 lies outside it, 4/5 inside
    code, doc, err = run_json(
        ["idoc", "--epsilon", "2/5", "--l", "7/9", "--c=-1/7"], capsys, schema
    )
    assert code == 0 and err == ""
    assert doc["idoc"] is False and doc["l_in_z_epsilon"] is False
    code, doc, err = run_json(["idoc", "--epsilon", "2/5", "--l", "4/5"], capsys, schema)
    assert code == 0 and doc["idoc"] is False and doc["l_in_z_epsilon"] is True


def test_sturm_verdict_payload(capsys, schema):
    code, doc, err = run_json(["sturm", "--value", "(2-sqrt(2))/4"], capsys, schema)
    assert code == 0
    assert doc["is_sturm"] is False
    assert doc["in_unit_interval"] is True
    assert doc["conjugate_outside_unit_interval"] is False


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_sturm_value_past_the_float_range_is_an_input_error(flags, capsys):
    # the payload carries a float approximation, built in both modes
    code, out, err = run([*flags, "sturm", "--value", "1" + "0" * 400], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# -- recovery and audit ----------------------------------------------------------


def test_recover_round_trips_the_golden_parameters(
    capsys, schema, tmp_path, golden_word_100k
):
    path = tmp_path / "u.txt"
    path.write_text(golden_word_100k[:4000].letters + "\n")
    code, doc, err = run_json(
        ["recover", "--file", str(path), "--epsilon", GOLDEN], capsys, schema
    )
    assert code == 0
    assert doc["c_hat"]["exact"] == "0"
    assert doc["match_fraction"] == {"exact": "1", "approx": 1.0}
    assert doc["convention"] == "left-closed"


def test_audit_passes_the_invariant_instance(capsys, schema):
    code, doc, err = run_json(
        ["audit", "--morphism", "A>AB;B>AACA;C>A"], capsys, schema
    )
    assert code == 0
    assert doc["overall"] == "pass"
    assert doc["note"] == "no necessary condition violated"
    assert doc["epsilon"]["exact"] == "1/2*sqrt(2)"
    assert doc["sturm"]["is_sturm"] is True
    assert err == ""


def test_audit_not_applicable_exits_zero(capsys, schema):
    code, doc, err = run_json(
        ["audit", "--morphism", "A>ACA;B>ACA;C>B"], capsys, schema
    )
    assert code == 0
    assert doc["overall"] == "not-applicable"


def test_audit_parse_errors_exit_one(capsys):
    code, out, err = run(["audit", "--morphism", "A>"], capsys)
    assert code == 1 and "error" in err


def test_audit_of_long_images_builds_only_the_letters_it_reads(capsys, schema):
    # A is expanding for the cube only, whose fixed point is all A, while
    # the image of that prefix is all B; each power and image of the whole
    # prefix holds tens of millions of letters
    morphism = f"A>{'B' * 4000};B>{'C' * 4000};C>A"
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code, doc, err = run_json(["audit", "--morphism", morphism], capsys, schema)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and err == ""
    assert doc["expanding"] == {"letter": "A", "power": 3}
    assert doc["fixed_point_consistent"] is False
    assert doc["overall"] == "not-applicable"
    assert doc["reason"] == (
        "the generated word is fixed by a power of the substitution only"
    )
    assert peak < 4 * 2**20
    assert elapsed < 10


def test_seed_prefix_length_is_adjustable(capsys, schema):
    code, doc, err = run_json(
        ["--seed-prefix-len", "2000", "audit", "--morphism", "A>AB;B>AACA;C>A"],
        capsys,
        schema,
    )
    assert code == 0 and doc["prefix_length"] == 2000


def test_search_summarises_every_candidate(capsys, schema):
    code, doc, err = run_json(
        ["search", "--max-total-length", "5"], capsys, schema
    )
    assert code == 0
    counts = doc["counts"]
    assert sum(v for k, v in counts.items() if k != "total") == counts["total"]
    assert counts["audit-fail"] == 0


#: sha256 of the --json stdout of each call, recorded before the search was
#: rebuilt on the library's primitives (search), before the payloads were
#: built from the report dataclasses (all) and before orbit points were
#: written from their frame numerators (gen3iet, gensturm); keys, order and
#: formatting must not move
RECORDED_PAYLOADS = {
    ("sturm", "--value", GOLDEN):
        "14ac07edee8f00f24e686b4149d217ec0f77e98c646dd3d2e715715ef47ef027",
    ("sturm", "--value", "3/7"):
        "75e9a98a98fbd27b23bfe171124e5063e275102c36f5c2a57adda4d3b5ce9984",
    ("recover", "--word", GOLDEN_2000, "--epsilon", GOLDEN):
        "11d88ab7a4cace928c0a76535e4ab025a5e42243eb3bcc3c8d52d242beee52fa",
    ("analyze", "--word", GOLDEN_2000):
        "9582340dd4d0d3e045a105c4e51f260c283804e24b39400fc01a8bdce6e85157",
    ("audit", "--morphism", "A>AB;B>AACA;C>A", "--seed-prefix-len", "4000"):
        "35c39386380f07e99437af90b5da034be568bbdbcea62ada6b193270cbb5a063",
    # the early exits: no expanding fixed point, cubic spectrum refuted by
    # the certificate, rational spectrum refuted by it, missing letter
    ("audit", "--morphism", "A>B;B>C;C>A"):
        "c7acdd1bf26eb27cdff33b8c00d9e01193f13eef5efc3f05a229dbbd89060a68",
    ("audit", "--morphism", "A>AB;B>AC;C>A"):
        "69c345c8061fdf926d9d5a601f60cb5b2c3b63994b1180a99e800178e9346c75",
    ("audit", "--morphism", "A>AC;B>BC;C>AB"):
        "10ec5b84b8ae5f9dbabec956e04e29486bbf26513fe31ef62f65b431a0e6b73d",
    ("audit", "--morphism", "A>AAC;B>B;C>CA"):
        "2e07dfe0041d9a1b98e768cd93168eafbb80907caa5c7109b1e075d7c2669581",
    ("search", "--max-total-length", "6"):
        "3940d7296818516583acdbde271fcde063a3a42031262852a980940f8dd075ed",
    # 30 audited entries, so every field of an AuditSummary is written
    ("search", "--max-total-length", "7"):
        "165fe20ea2412edb5a9c9be33a1a4b85f36d3aefe795fb744b793977438555bf",
    # orbits: the benchmark's golden orbit, a negative offset, a rational
    # epsilon, the right-closed convention, a rotation and empty orbits
    ("gen3iet", "--epsilon", GOLDEN, "--l", GOLDEN_L, "--n", "10000"):
        "e12cba476732db4e114f30b2b7e22d251b18886b37819115a189bb28d8b9bbc1",
    ("gen3iet", "--epsilon", "1/2*sqrt(2)", "--l", "(6+sqrt(2))/8", "--c=-1/10",
     "--n", "2000"):
        "864880a027ea73955384654f2a23e8014afe41d3c5e01f3b33e3db1af8e9afec",
    ("gen3iet", "--epsilon", "2/5", "--l", "7/9", "--c=-1/7", "--n", "2000"):
        "d2e2f32860c2bbe547d270acc4e2571c1546860fe453b81d1e641887efe0227c",
    ("gen3iet", "--epsilon", "sqrt(7)-2", "--l", "(4+sqrt(7))/7", "--c=-1/5",
     "--right-closed", "--n", "2000"):
        "4d7cae9846c52d604056556f86f96d8788df2b7ae1c69e07337ade6bcfe6d2da",
    ("gensturm", "--epsilon", GOLDEN, "--n", "10000"):
        "bf8eb2df9fd9a61fa24855d4da944eb020a728e0ae8c543e936c5199534e6a9f",
    ("gen3iet", "--epsilon", GOLDEN, "--l", GOLDEN_L, "--n", "0"):
        "9505b332d4647aa08167385a5f3f4ef07735b0029ae7bc593e54a14a719fe18d",
    ("gensturm", "--epsilon", GOLDEN, "--n", "0"):
        "2612636480aeff2cf9a1eb83290b4bc0f8eb0e5ad824d47d8906b6df8f6e838e",
}


def test_json_payloads_are_byte_identical_to_the_recorded_ones(capsys):
    digests = {}
    for argv in RECORDED_PAYLOADS:
        code, out, err = run([*argv, "--json"], capsys)
        assert (code, err) == (0, ""), argv[:3]
        digests[argv] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == RECORDED_PAYLOADS


# -- figures -------------------------------------------------------------------


def test_svg_writes_the_figure_and_reports_geometry(capsys, schema, tmp_path):
    out_path = tmp_path / "line.svg"
    code, doc, err = run_json(
        ["svg", "--word", "AACAB", "--out", str(out_path)], capsys, schema
    )
    assert code == 0
    assert doc["segments"] == 5
    text = out_path.read_text()
    assert text.count("<svg") == 1
    assert 'class="stepped"' in text
    assert 'class="corridor-01"' in text and 'class="corridor-10"' in text


def test_svg_of_the_empty_word_is_axes_only(capsys, schema, tmp_path):
    out_path = tmp_path / "empty.svg"
    code, doc, err = run_json(["svg", "--out", str(out_path)], capsys, schema)
    assert code == 0 and doc["segments"] == 0
    text = out_path.read_text()
    assert 'class="axis"' in text and 'class="stepped"' not in text


def test_svg_rejects_binary_words_and_requires_out(capsys, tmp_path):
    code, out, err = run(
        ["svg", "--word", "0101", "--out", str(tmp_path / "x.svg")], capsys
    )
    assert code == 1 and "ternary" in err
    nan_path = tmp_path / "nan.svg"
    code, out, err = run(
        [
            "--json", "svg", "--word", "AB", "--unit", "nan",
            "--out", str(nan_path),
        ],
        capsys,
    )
    assert (code, out) == (1, "") and "unit" in err
    assert not nan_path.exists()
    code, out, err = run(["svg", "--word", "ABC"], capsys)
    assert code == 1 and "--out" in err


# -- global behaviour --------------------------------------------------------------


def test_json_output_is_byte_identical_across_runs(capsys):
    argv = ["--json", "audit", "--morphism", "A>AB;B>AACA;C>A"]
    first = run(argv, capsys)
    second = run(argv, capsys)
    assert first == second


def test_out_duplicates_the_rendered_payload(capsys, tmp_path):
    path = tmp_path / "verdict.json"
    code, out, err = run(
        ["--json", "--out", str(path), "sturm", "--value", "1/2"], capsys
    )
    assert code == 0
    assert path.read_text() == out


@pytest.mark.parametrize(
    "argv",
    [
        ["gen3iet", "--epsilon", GOLDEN, "--l", GOLDEN_L, "--n", "300"],
        ["gensturm", "--epsilon", GOLDEN, "--n", "300"],
    ],
)
def test_out_of_an_orbit_command_duplicates_the_payload(argv, capsys, tmp_path):
    path = tmp_path / "orbit.json"
    code, out, err = run([*argv, "--json", "--out", str(path)], capsys)
    assert (code, err) == (0, "") and len(json.loads(out)["orbit"]) == 300
    assert path.read_text() == out


def test_an_unwritable_out_path_is_an_input_error(capsys, tmp_path):
    missing = tmp_path / "no-such-directory" / "verdict.json"
    code, out, err = run(
        ["--json", "--out", str(missing), "sturm", "--value", "1/2"], capsys
    )
    assert (code, out) == (1, "") and err.startswith("error: ")


def child_env(**extra) -> dict:
    """Environment of an ``iet3`` child process: this package first on its
    path, plus ``extra``."""
    import iet3

    src = str(Path(iet3.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def test_a_reader_that_leaves_early_ends_the_output_without_a_traceback():
    argv = [
        sys.executable, "-m", "iet3.cli", "gen3iet", "--epsilon", GOLDEN,
        "--l", GOLDEN_L, "--n", "100000", "--json",
    ]
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env()
    ) as child:
        head = child.stdout.read(10)
        # the payload is megabytes, far more than the pipe holds
        child.stdout.close()
        err = child.stderr.read()
        code = child.wait(timeout=120)
    assert (head, err, code) == (b'{\n  "comma', b"", 1)


#: sha256 of the figure of the 10**6-letter golden coding, written by the
#: per-vertex writer that the array writer replaced
GOLDEN_MILLION_SVG_SHA256 = "f4d8c8ace95a3b7d358bae37081415605280c6ae9ad50188455f8d7608d19d2f"


@pytest.fixture(scope="module")
def golden_million(tmp_path_factory, golden_params):
    path = tmp_path_factory.mktemp("caps") / "golden.txt"
    path.write_text(ThreeIet(golden_params).code_orbit(10**6).word.letters, encoding="ascii")
    return path


def capped_cli(argv, limit_mib):
    """``iet3`` in a child process whose address space is capped at
    ``limit_mib`` MiB, with one BLAS thread; the cap applies to the child
    only."""
    limit = limit_mib * 2**20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, "-m", "iet3.cli", *argv],
        env=child_env(OPENBLAS_NUM_THREADS="1"), preexec_fn=cap,
        capture_output=True, text=True, timeout=300,
    )


def test_the_figure_of_a_million_letters_fits_in_640_mib(golden_million, tmp_path):
    out = tmp_path / "figure.svg"
    done = capped_cli(["svg", "--file", str(golden_million), "--out", str(out)], 640)
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_MILLION_SVG_SHA256


def test_running_out_of_memory_ends_with_one_error_line(golden_million, tmp_path):
    # 300 MiB holds the interpreter and its imports, not this figure
    out = tmp_path / "figure.svg"
    done = capped_cli(["svg", "--file", str(golden_million), "--out", str(out)], 300)
    assert done.returncode == 1
    assert done.stderr.splitlines() == ["error: out of memory"]
    assert "Traceback" not in done.stderr


def test_flags_are_accepted_on_either_side_of_the_subcommand(capsys):
    before = run(["--json", "sturm", "--value", "1/2"], capsys)
    after = run(["sturm", "--value", "1/2", "--json"], capsys)
    assert before == after


def test_one_parser_serves_every_call(capsys, tmp_path):
    from iet3.cli import _build_parser

    out_path = tmp_path / "verdict.json"
    calls = [
        ["sturm"],
        ["--json", "idoc", "--epsilon", GOLDEN, "--l", GOLDEN_L],
        ["gen3iet", "--epsilon", GOLDEN, "--l", GOLDEN_L, "--n", "20"],
        ["--out", str(out_path), "sturm", "--value", "1/2"],
        ["sturm"],
    ]

    def call(argv):
        result = run(argv, capsys)
        written = out_path.read_text() if out_path.exists() else None
        out_path.unlink(missing_ok=True)
        return result, written

    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(call(argv))
    _build_parser.cache_clear()
    reused = [call(argv) for argv in calls]
    info = _build_parser.cache_info()
    assert reused == fresh
    assert [result[0] for result, _ in fresh] == [1, 0, 0, 0, 1]
    assert fresh[3][1] == fresh[3][0][1]
    assert (info.misses, info.hits) == (1, len(calls) - 1)


def test_usage_errors_exit_one_and_help_exits_zero(capsys):
    assert run(["no-such-command"], capsys)[0] == 1
    assert run(["sturm"], capsys)[0] == 1
    assert run(["--help"], capsys)[0] == 0
    assert run([], capsys)[0] == 1
