"""The search's library primitives against their oracles.

``search_substitutions`` decides every candidate through ``is_primitive``
(row bitmasks, cached by zero pattern), ``first_unbalanced_length``
(substring tests for the pairs 0p0 / 1p1 up to ``PAIR_LENGTH`` on a
two-letter alphabet, then the early-exit scan over the rows of
``balance``, one row for a two-letter alphabet, on int32 prefix sums) and
the power search shared by ``find_expanding_letter`` and
``fixed_point_prefix``.  Each must answer exactly as its reference in
``oracle``: matrix powers, one int64 prefix-sum row per letter, and a
fixed-point generator with its own power search.
"""

import numpy as np
import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_complexity import periodic_text, windows, words_over
from test_lattice import exchange_params

from iet3.dynamics import ThreeIet
from iet3.morphisms import (
    SIGMA,
    SIGMA_PRIME,
    IncidenceMatrix,
    Morphism,
    _pattern_is_primitive,
    find_expanding_letter,
    fixed_point_prefix,
    is_primitive,
)
from iet3.words import (
    BINARY,
    PAIR_LENGTH,
    TERNARY,
    Word,
    _letter_prefix_sums,
    balance,
    first_unbalanced_length,
    imbalance_witness,
)

# -- primitivity -------------------------------------------------------------------


@st.composite
def sparse_matrices(draw):
    """Square non-negative matrices, mostly zeros, of size 1 to 4."""
    n = draw(st.sampled_from([1, 2, 3, 3, 4]))
    entry = st.sampled_from([0, 0, 0, 1, 2])
    return IncidenceMatrix([[draw(entry) for _ in range(n)] for _ in range(n)])


@settings(max_examples=500, deadline=None)
@given(sparse_matrices())
def test_bitmask_primitivity_matches_matrix_powers(matrix):
    assert is_primitive(matrix) is oracle.is_primitive(matrix)


@pytest.mark.parametrize(
    "rows, expected",
    [
        # a cycle is irreducible but periodic; adding a loop makes it primitive
        ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], False),
        ([[1, 1, 0], [0, 0, 1], [1, 0, 0]], True),
        # Wielandt's matrix needs exactly the bound (n-1)^2 + 1 = 5
        ([[0, 1, 0], [0, 0, 1], [1, 1, 0]], True),
        ([[1, 0], [0, 1]], False),
        ([[0, 1], [1, 1]], True),
    ],
)
def test_primitivity_of_known_patterns(rows, expected):
    assert is_primitive(IncidenceMatrix(rows)) is expected
    assert oracle.is_primitive(IncidenceMatrix(rows)) is expected


@pytest.mark.parametrize("n", [2, 3])
def test_every_zero_pattern_matches_matrix_powers_fresh_and_cached(n):
    _pattern_is_primitive.cache_clear()
    for bits in range(2 ** (n * n)):
        pattern = [[bits >> (i * n + j) & 1 for j in range(n)] for i in range(n)]
        expected = oracle.is_primitive(IncidenceMatrix(pattern))
        # the second call reads the cache with other nonzero values
        for scale in (1, 2):
            rows = [[x * (scale + i) for x in row] for i, row in enumerate(pattern)]
            assert is_primitive(IncidenceMatrix(rows)) is expected
    info = _pattern_is_primitive.cache_info()
    assert (info.misses, info.hits) == (2 ** (n * n), 2 ** (n * n))


def test_primitivity_needs_a_square_matrix():
    with pytest.raises(ValueError, match="square"):
        is_primitive(IncidenceMatrix([[1, 1, 1], [1, 1, 1]]))


# -- balance -----------------------------------------------------------------------


def assert_balance_matches_oracle(word: Word, n_max: int):
    """The table of ``balance`` and the early-exit scan against the oracle's
    rows: the scan answers the least n with a row entry of 2 or more."""
    report = balance(word, n_max)
    table, window = oracle.balance(word, n_max)
    assert report.window == window
    assert report.table == table
    assert list(report.table) == list(table)  # letters in alphabet order
    assert report.max_imbalance == max((max(r) for r in table.values()), default=0)
    assert all(type(x) is int for row in report.table.values() for x in row)
    rows = table.values()
    unbalanced = [n for n in range(1, window + 1) if any(r[n] >= 2 for r in rows)]
    assert first_unbalanced_length(word, n_max) == min(unbalanced, default=None)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([("01", BINARY), ("ABC", TERNARY)]), st.data())
def test_random_words_match_every_letter_rows(alphabet, data):
    letters, declared = alphabet
    word = Word(data.draw(words_over(letters)), declared)
    for n_max in [*windows(data, len(word)), len(word) + 1, len(word) + 50]:
        assert_balance_matches_oracle(word, n_max)


@given(st.sampled_from("01AB"), st.integers(0, 30), st.integers(-1, 40))
def test_one_letter_words_are_balanced(letter, length, n_max):
    word = Word(letter * length, (letter,))
    assert_balance_matches_oracle(word, n_max)
    assert balance(word, n_max).max_imbalance == 0


@settings(max_examples=100, deadline=None)
@given(exchange_params(), st.integers(1, 400), st.booleans(), st.data())
def test_codings_and_their_binary_images_match_every_letter_rows(
    params, n, right_closed, data
):
    iet = ThreeIet(params)
    try:
        u = iet.code_orbit(n, right_closed=right_closed).word
    except ValueError:  # the orbit left the right-closed domain
        u = iet.code_orbit(n).word
    for word in (u, SIGMA.apply(u), SIGMA_PRIME.apply(u)):
        for n_max in [*windows(data, len(word)), len(word) + 7]:
            assert_balance_matches_oracle(word, n_max)


@st.composite
def binary_words(draw):
    """Random, periodic and sturmian binary words: the images of 3iet
    codings, balanced unless one letter is flipped, which can unbalance
    them first at a length past ``PAIR_LENGTH``."""
    kind = draw(st.sampled_from(["random", "periodic", "sturmian"]))
    if kind == "random":
        return draw(st.text(alphabet="01", max_size=90))
    if kind == "periodic":
        return draw(periodic_text("01"))
    u = ThreeIet(draw(exchange_params())).code_orbit(draw(st.integers(1, 300))).word
    text = draw(st.sampled_from([SIGMA, SIGMA_PRIME])).apply(u).letters
    if draw(st.booleans()):
        i = draw(st.integers(0, len(text) - 1))
        text = text[:i] + "10"[int(text[i])] + text[i + 1 :]
    return text


@settings(max_examples=300, deadline=None)
@given(binary_words(), st.sampled_from([BINARY, ("1", "0")]), st.data())
def test_pair_tests_and_the_row_scan_match_every_letter_rows(text, alphabet, data):
    word = Word(text, alphabet)
    below = data.draw(st.integers(-1, PAIR_LENGTH))
    above = data.draw(st.integers(PAIR_LENGTH + 1, 4 * PAIR_LENGTH))
    for n_max in (below, above, len(word), len(word) + 1):
        assert_balance_matches_oracle(word, n_max)


def test_int32_sums_keep_the_rows_of_a_long_coding(golden_word_100k):
    v = SIGMA.apply(golden_word_100k)
    assert _letter_prefix_sums(v, "1").dtype == np.int32
    assert_balance_matches_oracle(v, 300)
    assert first_unbalanced_length(v, 300) is None
    # the image has 00 but no 11, so one 11 in front unbalances length 2
    assert first_unbalanced_length(Word("11" + v.letters), 300) == 2


def test_non_ascii_letters_count_like_their_ascii_renaming():
    accented = Word("éaéaaéaéé", alphabet=("a", "é"))
    renamed = Word("101001011", BINARY)
    for n_max in (2, 5, 9):
        report = balance(accented, n_max)
        assert report.table == {
            "a": balance(renamed, n_max).table["0"],
            "é": balance(renamed, n_max).table["1"],
        }
        assert first_unbalanced_length(accented, n_max) == first_unbalanced_length(
            renamed, n_max
        )
    assert first_unbalanced_length(accented, 9) == 2
    assert imbalance_witness(accented, "é", 2) == (7, 3, "éé", "aa")
    greek = balance(Word("αβγαβαγ", alphabet=("α", "β", "γ")), 7).table
    assert list(greek.values()) == list(balance(Word("ABCABAC"), 7).table.values())


def test_witness_rejects_a_letter_outside_the_alphabet():
    word = Word("0011", BINARY)
    with pytest.raises(KeyError):
        imbalance_witness(word, "A", 2)
    with pytest.raises(KeyError):
        imbalance_witness(Word("ABCA"), "0", 1)
    assert imbalance_witness(word, "1", 2) == (2, 0, "11", "00")


@pytest.mark.parametrize("n", [-1, 0, 5, 50])
def test_witness_rejects_a_length_outside_the_word(n):
    word = Word("0101", BINARY)
    with pytest.raises(ValueError, match=r"factor length -?\d+ outside 1\.\.4"):
        imbalance_witness(word, "1", n)
    assert imbalance_witness(word, "1", 1) == (1, 0, "1", "0")
    assert imbalance_witness(word, "1", 4) == (0, 0, "0101", "0101")


# -- fixed points --------------------------------------------------------------------

THUE_MORSE = Morphism.from_text("A>BA;B>AB")


def test_a_seed_of_power_two():
    assert find_expanding_letter(THUE_MORSE) == ("A", 2)
    assert find_expanding_letter(THUE_MORSE, max_power=1) is None
    for seed in ("A", "B"):
        expected = oracle.fixed_point_prefix(THUE_MORSE, seed, 50)
        assert fixed_point_prefix(THUE_MORSE, seed=seed, n=50).letters == expected
    assert fixed_point_prefix(THUE_MORSE, n=8).letters == "ABBABAAB"
    assert fixed_point_prefix(THUE_MORSE, seed="B", n=8).letters == "BAABABBA"


def test_a_seed_without_a_fixed_point():
    m = Morphism.from_text("A>AB;B>C;C>B")
    assert fixed_point_prefix(m, seed="A", n=5).letters == "ABCBC"
    for seed in ("B", "C"):
        with pytest.raises(ValueError, match=f"letter '{seed}' does not generate"):
            fixed_point_prefix(m, seed=seed, n=5)
        with pytest.raises(ValueError, match="does not generate"):
            oracle.fixed_point_prefix(m, seed, 5)
    with pytest.raises(ValueError, match="no expanding fixed letter"):
        fixed_point_prefix(Morphism.from_text("A>B;B>C;C>A"))
    with pytest.raises(ValueError, match="outside source alphabet"):
        fixed_point_prefix(m, seed="D")


images = st.text(alphabet="ABC", min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(st.tuples(images, images, images), st.integers(1, 5), st.integers(0, 200))
def test_power_search_matches_the_oracle(triple, max_power, n):
    m = Morphism(dict(zip(TERNARY, triple)))
    assert find_expanding_letter(m, max_power) == oracle.find_expanding_letter(
        m, max_power
    )
    for seed in TERNARY:
        try:
            expected = oracle.fixed_point_prefix(m, seed, n)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                fixed_point_prefix(m, seed=seed, n=n)
        else:
            assert fixed_point_prefix(m, seed=seed, n=n).letters == expected
