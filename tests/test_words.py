"""Finite words: complexity, balance, height sequences."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_lattice import kernel_extreme

from iet3.morphisms import SIGMA
from iet3.qfield import parse_quadratic
from iet3.words import (
    BINARY,
    TERNARY,
    Word,
    balance,
    complexity,
    height_f,
    height_g,
    imbalance_witness,
)

binary_words = st.text(alphabet="01", max_size=60)
ternary_words = st.text(alphabet="ABC", max_size=60)


# -- Word basics ---------------------------------------------------------------


def test_alphabet_inference_prefers_ternary_then_binary():
    assert Word("AAB").alphabet == TERNARY
    assert Word("0101").alphabet == BINARY
    assert Word("").alphabet == TERNARY


def test_letters_outside_any_known_alphabet_are_rejected():
    with pytest.raises(ValueError) as caught:
        Word("AB2")
    assert str(caught.value) == "cannot infer an alphabet for letters ['2', 'A', 'B']"
    with pytest.raises(ValueError) as caught:
        Word("01", TERNARY)
    assert str(caught.value) == "letters ['0', '1'] outside alphabet ('A', 'B', 'C')"


@pytest.mark.parametrize(
    "alphabet, entry",
    [(("a", "b", "xy"), "'xy'"), (("a", "", "b"), "''"), (("a", "b", 7), "7")],
)
def test_alphabet_entries_must_be_single_characters(alphabet, entry):
    with pytest.raises(ValueError) as caught:
        Word("ab", alphabet=alphabet)
    assert str(caught.value) == f"alphabet entry {entry} is not a single character"


@st.composite
def words_with_alphabets(draw):
    alphabet = draw(
        st.one_of(
            st.sampled_from([TERNARY, BINARY, ("C", "A", "B")]),
            st.lists(st.characters(), min_size=1, max_size=5, unique=True).map(tuple),
        )
    )
    return draw(st.text(alphabet=alphabet, max_size=40)), alphabet


@given(words_with_alphabets(), st.integers(-45, 45), st.integers(-45, 45))
def test_unchecked_words_equal_checked_ones(word_and_alphabet, i, j):
    text, alphabet = word_and_alphabet
    trusted, checked = Word._trusted(text, alphabet), Word(text, alphabet)
    for left, right in ((trusted, checked), (checked[i:j], Word(text[i:j], alphabet))):
        assert left == right and hash(left) == hash(right)
        assert (left.letters, left.alphabet) == (right.letters, right.alphabet)
        assert repr(left) == repr(right)
    if set(text) <= set(TERNARY):
        image = SIGMA(trusted)
        assert image == Word(SIGMA.apply_text(text), BINARY)
        assert image.alphabet == BINARY


def test_word_is_immutable_and_compares_to_plain_strings():
    w = Word("AAC")
    with pytest.raises(AttributeError):
        w.letters = "B"
    assert w == "AAC"
    assert w[0] == "A"
    assert w[:2].letters == "AA"
    assert len(w) == 3


@given(words_with_alphabets(), st.lists(st.characters(), max_size=5).map(tuple))
def test_is_over_answers_by_the_letters(word_and_alphabet, alphabet):
    text, declared = word_and_alphabet
    for word in (Word._trusted(text, declared), Word._trusted(text, declared + alphabet)):
        assert word.is_over(alphabet) == (set(text) <= set(alphabet))


def test_a_declared_alphabet_wider_than_the_letters_answers_by_the_letters():
    assert Word("0110", ("0", "1", "2")).is_over(BINARY)
    assert not Word("0112", ("0", "1", "2")).is_over(BINARY)
    assert Word("AB", TERNARY).is_over(("A", "B"))
    assert not Word("ABC", TERNARY).is_over(("A", "B"))
    assert Word("", TERNARY).is_over(())
    assert Word("AB", TERNARY).is_over(TERNARY + BINARY)
    # heights accept a word over a wider alphabet whose letters are binary
    half = Fraction(1, 2)
    wide = height_f(Word("0110", ("0", "1", "A")), half)
    assert list(wide) == list(height_f(Word("0110"), half))


# -- complexity ------------------------------------------------------------------


def test_complexity_counts_of_a_short_word_are_exact():
    profile = complexity(Word("AACAB"), 4)
    assert profile.counts == (1, 3, 4, 3, 2)


def test_complexity_rejects_windows_beyond_the_word():
    with pytest.raises(ValueError):
        complexity(Word("AB"), 3)


def test_constant_word_has_complexity_one():
    profile = complexity(Word("AAAAAAAA"), 5)
    assert all(profile.count(n) == 1 for n in range(1, 6))


@given(ternary_words.filter(lambda t: len(t) >= 4))
def test_complexity_is_bounded_by_window_count(text):
    w = Word(text)
    profile = complexity(w, 4)
    assert profile.count(0) == 1
    for n in range(1, 5):
        assert 1 <= profile.count(n) <= len(w) - n + 1
    assert 0 <= profile.reliable_up_to <= profile.n_max


# -- balance ---------------------------------------------------------------------


def test_imbalance_of_a_blocked_word_is_two():
    report = balance(Word("0011", BINARY), 2)
    assert report.imbalance("1", 2) == 2
    assert report.max_imbalance == 2


def test_constant_word_is_perfectly_balanced():
    report = balance(Word("AAAA"), 3)
    assert report.max_imbalance == 0


def test_imbalance_witness_factors_achieve_the_extremes():
    i, j, top, bottom = imbalance_witness(Word("0011", BINARY), "1", 2)
    assert top.count("1") - bottom.count("1") == 2
    w = "0011"
    assert w[i : i + 2] == top and w[j : j + 2] == bottom


@given(binary_words.filter(lambda t: len(t) >= 2))
def test_witness_matches_the_reported_imbalance(text):
    w = Word(text, BINARY)
    report = balance(w, 2)
    _, _, top, bottom = imbalance_witness(w, "1", 2)
    assert top.count("1") - bottom.count("1") == report.imbalance("1", 2)


# -- height sequences -------------------------------------------------------------


def test_binary_heights_track_zero_and_one_counts():
    eps = parse_quadratic("(-1+sqrt(5))/2")
    series = height_f(Word("01", BINARY), eps)
    assert series[0] == 0
    assert series[1] == 1 - eps
    assert series[2] == 1 - 2 * eps
    assert series[kernel_extreme(series, None, -1)] == min(0, 1 - 2 * eps)


@given(
    binary_words,
    st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100)),
)
def test_final_height_counts_zeros_minus_slope(text, eps):
    series = height_f(Word(text, BINARY), eps)
    assert series[-1] == text.count("0") - len(text) * eps


def test_ternary_heights_are_the_orbit_points(golden_params, golden_word_100k):
    from iet3.dynamics import ThreeIet

    coding = ThreeIet(golden_params).code_orbit(500)
    series = height_g(golden_word_100k[:500], golden_params)
    assert all(series[n] == coding.points[n] for n in range(500))


def test_heights_require_the_matching_alphabet():
    with pytest.raises(ValueError):
        height_f(Word("ABC"), Fraction(1, 2))
    with pytest.raises(ValueError):
        height_g(Word("0101", BINARY), Fraction(1, 2))


def test_coding_heights_stay_inside_the_domain(golden_params, golden_word_100k):
    series = height_g(golden_word_100k[:2000], golden_params)
    lo = golden_params.offset_c
    hi = lo + golden_params.length_l
    low, high = series[kernel_extreme(series, None, -1)], series[kernel_extreme(series, None, 1)]
    assert lo <= low and high < hi
    assert high - low < 1


# -- per-letter displacement sets ---------------------------------------------------


def test_sampled_sets_live_in_their_own_intervals(golden_params, golden_word_100k):
    from iet3.dynamics import ThreeIet

    # the height before each occurrence of a letter is the orbit point
    # about to be translated by that letter's translation
    iet = ThreeIet(golden_params)
    u = golden_word_100k[:300]
    heights = height_g(u, golden_params)
    for letter in TERNARY:
        points = [heights[n] for n, ch in enumerate(u.letters) if ch == letter]
        assert points, f"letter {letter} never sampled"
        assert all(x in iet.intervals[letter] for x in points)
