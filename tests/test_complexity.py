"""Suffix-sort factor complexity against the set-of-slices oracle.

``words.complexity`` counts factors from one sort of the suffixes cut to
n_max letters, and its trust cutoff from the same count on the word's
first half; ``oracle.complexity`` counts sets of string slices on the word
and on its first half.  Both must give the same counts and the same cutoff
on random, periodic and one-letter words over binary, ternary, four- and
five-letter and non-ASCII alphabets, on 3iet codings (quadratic and
rational epsilon, negative c, both endpoint conventions) and on their two
binary images, for windows of 0, half the word, the whole word and
anything between, and for windows past the letters one packed key holds,
where prefix-doubling rounds take over.
"""

import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_lattice import exchange_params

from iet3.dynamics import ThreeIet
from iet3.morphisms import SIGMA, SIGMA_PRIME
from iet3.words import BINARY, TERNARY, Word, complexity

#: (letters drawn, declared alphabet): binary and ternary, four letters,
#: which leave no code for the end of the word, five non-ASCII letters, and
#: a declared letter that never occurs
ALPHABETS = [
    ("01", BINARY),
    ("ABC", TERNARY),
    ("ABCD", ("A", "B", "C", "D")),
    ("αβγδε", ("α", "β", "γ", "δ", "ε")),
    ("aé", ("a", "é")),
    ("AB", TERNARY),
]


def assert_matches_oracle(word: Word, n_max: int):
    profile = complexity(word, n_max)
    assert (profile.counts, profile.reliable_up_to) == oracle.complexity(
        word.letters, n_max
    )
    # plain ints, so that JSON payloads are unchanged
    assert all(type(c) is int for c in profile.counts)
    assert type(profile.reliable_up_to) is int


def windows(data, length: int) -> list[int]:
    return [0, -1, length // 2, length, data.draw(st.integers(0, length))]


@st.composite
def periodic_text(draw, alphabet: str):
    period = draw(st.text(alphabet=alphabet, min_size=1, max_size=6))
    length = draw(st.integers(0, 90))
    return (period * length)[:length]


def words_over(alphabet: str):
    return st.one_of(
        st.text(alphabet=alphabet, max_size=90),
        periodic_text(alphabet),
        st.text(alphabet=alphabet[0], max_size=40),
    )


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ALPHABETS), st.data())
def test_random_words_match_the_slice_sets(alphabet, data):
    letters, declared = alphabet
    word = Word(data.draw(words_over(letters)), declared)
    for n_max in windows(data, len(word)):
        assert_matches_oracle(word, n_max)


@settings(max_examples=100, deadline=None)
@given(exchange_params(), st.integers(1, 400), st.booleans(), st.data())
def test_codings_and_their_binary_images_match_the_slice_sets(
    params, n, right_closed, data
):
    iet = ThreeIet(params)
    try:
        u = iet.code_orbit(n, right_closed=right_closed).word
    except ValueError:  # the orbit left the right-closed domain
        u = iet.code_orbit(n).word
    for word in (u, SIGMA.apply(u), SIGMA_PRIME.apply(u)):
        for n_max in windows(data, len(word)):
            assert_matches_oracle(word, n_max)


def test_long_coding_and_image_match_the_slice_sets(golden_params):
    u = ThreeIet(golden_params).code_orbit(10_000).word
    assert_matches_oracle(u, 30)
    assert_matches_oracle(SIGMA.apply(u), 50)


@settings(max_examples=25, deadline=None)
@given(
    exchange_params(),
    st.text(alphabet="01", min_size=1, max_size=8),
    st.text(alphabet="ABCD", min_size=1, max_size=8),
    st.integers(58, 150),
)
def test_windows_past_one_packed_key_match_the_slice_sets(
    params, binary_period, period, n_max
):
    """A key packs 57 binary, 31 ternary or 29 four-letter letters; past
    that, prefix-doubling rounds on dense ranks order the suffixes."""
    u = ThreeIet(params).code_orbit(300).word
    for word in (
        u,
        SIGMA.apply(u)[:300],
        SIGMA_PRIME.apply(u)[:300],
        Word((binary_period * 300)[:300], BINARY),
        Word((period * 300)[:300], ("A", "B", "C", "D")),
    ):
        assert_matches_oracle(word, n_max)
        assert_matches_oracle(word, 100)


@pytest.mark.parametrize("alphabet", [BINARY, TERNARY, ("é",), ("α", "β", "γ")])
def test_the_empty_word_has_one_factor(alphabet):
    assert_matches_oracle(Word("", alphabet), 0)
    assert_matches_oracle(Word("", alphabet), -1)


@pytest.mark.parametrize("text", ["", "A", "0110", "ABCAB"])
def test_a_window_past_the_word_still_raises(text):
    word = Word(text)
    with pytest.raises(ValueError, match="exceeds word length"):
        complexity(word, len(word) + 1)
    with pytest.raises(ValueError, match="exceeds word length"):
        oracle.complexity(text, len(text) + 1)
