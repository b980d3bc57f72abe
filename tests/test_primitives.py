"""The search's library primitives against their oracles.

``search_substitutions`` decides every candidate through the test of
``is_primitive`` (row bitmasks, cached by zero pattern; the search reads
the pattern from its image tables), ``first_unbalanced_length``
(substring tests for the pairs 0p0 / 1p1 up to ``PAIR_LENGTH`` on a
two-letter alphabet, alone at a window of ``PAIR_LENGTH``, then the
least length at which the gap row of a letter, the rarer one for a
two-letter alphabet, reaches 2) and the power search shared by
``find_expanding_letter`` and ``fixed_point_prefix``, which the tests
call at a power bound of their own through ``_expanding_power``.  Each
must answer exactly as its reference in
``oracle``: matrix powers, one prefix-sum row per letter and length, and
a fixed-point generator with its own power search on whole images; the
generator's differential reaches powers 2 to 4 with images longer than
the prefix asked for.  The grown prefix and the letter counts of
``_fixed_point_counts`` meet the oracle's whole-text prefix at every
power, in source orders other than A, B, C, for non-endomorphisms, and at
the lengths on either side of the seed's block boundaries.  The rows of
``balance`` meet the same row oracle: on every binary word up to 12
letters, where a window of ``PAIR_LENGTH`` reads no gap row, on random
words over binary, ternary and non-ASCII alphabets, on the empty word
and on windows past the word; with ``GAP_PASS_CELLS`` cut down, on every
binary word up to 12 letters and on words of 200 to 700 letters, so that
the gap rows take several blocks of lags; and on a row past int32 read
off a short tail of a word that is never built.  A binary word that
``_is_balanced`` accepts takes its row from its periods instead of the
gaps; the recognizer meets the definition on every binary word up to 16
letters, and the period rows meet the row oracle on Christoffel words,
their conjugates and repetitions and on factors of irrational slopes
longer than twice the window, each also with one letter flipped.
"""

import math
from itertools import product

import numpy as np
import oracle
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_complexity import ALPHABETS, periodic_text, windows, words_over
from test_lattice import exchange_params

from iet3 import words
from iet3.dynamics import ThreeIet
from iet3.morphisms import (
    SIGMA,
    SIGMA_PRIME,
    IncidenceMatrix,
    MAX_POWER,
    Morphism,
    _expanding_power,
    _fixed_point_counts,
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
    _is_balanced,
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
    """The table of ``balance`` and ``first_unbalanced_length`` against the
    oracle's rows: the latter answers the least n with a row entry of 2 or
    more."""
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


@pytest.mark.parametrize("alphabet", [BINARY, ("1", "0")])
def test_every_binary_word_up_to_twelve_letters_matches_every_letter_rows(alphabet):
    for length in range(13):
        for letters in product("01", repeat=length):
            word = Word("".join(letters), alphabet)
            assert_balance_matches_oracle(word, length)
            least = first_unbalanced_length(word, length)
            if least is not None:
                assert first_unbalanced_length(word, least - 1) is None


@pytest.mark.parametrize("cells", [1, 40])
def test_every_binary_word_up_to_twelve_letters_matches_across_gap_blocks(
    cells, monkeypatch
):
    # one lag per block, or a few: the default holds every lag of these
    monkeypatch.setattr(words, "GAP_PASS_CELLS", cells)
    for length in range(13):
        for letters in product("01", repeat=length):
            assert_balance_matches_oracle(Word("".join(letters)), length)


@st.composite
def long_words(draw):
    """Words of 200 to 700 letters that mostly take the gap rows: random
    words over two or three letters, and binary images of 3iet codings
    with one letter flipped, which first unbalances them at some length."""
    if draw(st.booleans()):
        letters = draw(st.sampled_from(["01", "ABC"]))
        return Word(draw(st.text(alphabet=letters, min_size=200, max_size=700)))
    u = ThreeIet(draw(exchange_params())).code_orbit(draw(st.integers(200, 450))).word
    text = draw(st.sampled_from([SIGMA, SIGMA_PRIME])).apply(u).letters[:700]
    i = draw(st.integers(0, len(text) - 1))
    return Word(text[:i] + "10"[int(text[i])] + text[i + 1 :])


@settings(max_examples=100, deadline=None)
@given(long_words(), st.integers(1, 8), st.data())
def test_long_words_match_every_letter_rows_across_gap_blocks(word, lags, data):
    # blocks of a few lags each for a letter occurring on every other
    # position or less often, so that the windows cross block edges
    n_max = data.draw(st.integers(PAIR_LENGTH + 1, len(word)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(words, "GAP_PASS_CELLS", lags * (len(word) // 2 + 2))
        for window in (n_max, len(word)):
            assert_balance_matches_oracle(word, window)


@pytest.mark.parametrize("cells", [1, words.GAP_PASS_CELLS])
@pytest.mark.parametrize("size", [2**30 + 5, 2**31 + 5])
def test_gap_rows_past_int32_read_a_short_tail(size, cells, monkeypatch):
    # the word is never built: the letter occurs only in its last letters,
    # so the row at each length is the largest count of a factor there
    monkeypatch.setattr(words, "GAP_PASS_CELLS", cells)
    tail, window = "0110100111011010001", 30
    positions = np.array(
        [size - len(tail) + i for i, x in enumerate(tail) if x == "1"], dtype=np.int64
    )
    text = "0" * window + tail
    expected = [
        max(text[i : i + n].count("1") for i in range(len(text) - n + 1))
        for n in range(window + 1)
    ]
    assert words._gap_row(positions, size, window).tolist() == expected


@pytest.mark.parametrize("alphabet", [BINARY, ("1", "0")])
def test_lengths_up_to_the_pairs_never_reach_the_gap_rows(alphabet, monkeypatch):
    # the search's first quick-filter level asks for PAIR_LENGTH alone
    def refuse(*args):
        raise AssertionError("the gap rows were read")

    monkeypatch.setattr(words, "_gap_row", refuse)
    for length in range(13):
        for letters in product("01", repeat=length):
            word = Word("".join(letters), alphabet)
            table, window = oracle.balance(word, PAIR_LENGTH)
            rows = table.values()
            unbalanced = [n for n in range(1, window + 1) if any(r[n] >= 2 for r in rows)]
            least = min(unbalanced, default=None)
            assert first_unbalanced_length(word, PAIR_LENGTH) == least


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ALPHABETS), st.data())
def test_random_words_match_every_letter_rows(alphabet, data):
    letters, declared = alphabet
    word = Word(data.draw(words_over(letters)), declared)
    for n_max in [*windows(data, len(word)), len(word) + 1, len(word) + 50]:
        assert_balance_matches_oracle(word, n_max)


@pytest.mark.parametrize("alphabet", [BINARY, TERNARY, ("é",), ("α", "β", "γ")])
@pytest.mark.parametrize("n_max", [-1, 0, 1, 5])
def test_the_empty_word_has_empty_rows(alphabet, n_max):
    word = Word("", alphabet)
    assert_balance_matches_oracle(word, n_max)
    assert balance(word, n_max).table == dict.fromkeys(alphabet, (0,))


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


def test_the_recognizer_meets_the_definition_on_every_word_up_to_16_letters():
    for length in range(17):
        for k in range(2**length):
            text = format(k, f"0{length}b") if length else ""
            x = np.frombuffer(text.encode("ascii"), dtype=np.uint8) == ord("1")
            assert _is_balanced(x) is oracle.is_balanced(text), text


def christoffel(p: int, q: int) -> str:
    """The lower Christoffel word of slope p/q, 0 <= p <= q: q letters, p
    of them 1."""
    return "".join(str((i + 1) * p // q - i * p // q) for i in range(q))


def root_slope_factor(d: int, m: int, start: int, length: int) -> str:
    """The factor at ``start`` of the characteristic word of the slope
    frac(m * sqrt(d)), exactly: floor(i * m * sqrt(d)) = isqrt(i^2 m^2 d)."""
    floors = [math.isqrt(i * i * m * m * d) for i in range(start, start + length + 1)]
    whole = math.isqrt(m * m * d)
    return "".join(str(b - a - whole) for a, b in zip(floors, floors[1:]))


@st.composite
def balanced_families(draw):
    """(text, windows): a conjugate of a Christoffel word, that conjugate
    repeated past a window that holds its period, or a factor of an
    irrational slope's characteristic word longer than twice the window;
    each balanced, or unbalanced by one flipped letter.  The windows fall
    below, at and past the length."""
    kind = draw(st.sampled_from(["christoffel", "rational", "irrational"]))
    if kind == "irrational":
        d = draw(st.integers(2, 99).filter(lambda d: math.isqrt(d) ** 2 != d))
        below = draw(st.integers(0, 150))
        length = draw(st.integers(2 * below + 1, 2 * below + 200))
        m, start = draw(st.integers(1, 9)), draw(st.integers(0, 500))
        text = root_slope_factor(d, m, start, length)
    else:
        q = draw(st.integers(1, 60))
        base = christoffel(draw(st.integers(0, q)), q)
        shift = draw(st.integers(0, q - 1))
        text = base[shift:] + base[:shift]
        if kind == "rational":
            text *= draw(st.integers(2, 400 // q + 2))
        below = draw(st.integers(q if kind == "rational" else 0, len(text)))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(text) - 1))
        text = text[:i] + "10"[int(text[i])] + text[i + 1 :]
    return text, (below, len(text), len(text) + draw(st.integers(1, 50)))


@settings(max_examples=200, deadline=None)
@given(balanced_families(), st.sampled_from([BINARY, ("1", "0")]))
def test_period_rows_of_balanced_words_match_every_letter_rows(family, alphabet):
    text, n_maxes = family
    word = Word(text, alphabet)
    for n_max in n_maxes:
        assert_balance_matches_oracle(word, n_max)


def test_a_balanced_image_never_reaches_the_gap_rows(golden_word_100k, monkeypatch):
    image = SIGMA.apply(golden_word_100k)[:10_000]

    def refuse(*args):
        raise AssertionError("the gap rows were read")

    monkeypatch.setattr(words, "_gap_row", refuse)
    for alphabet in (BINARY, ("1", "0")):
        report = balance(Word(image.letters, alphabet), 300)
        assert report.max_imbalance == 1
        assert report.table == dict.fromkeys(alphabet, (0,) + (1,) * 300)
    # an unbalanced word still takes them
    with pytest.raises(AssertionError, match="gap rows"):
        balance(Word("11" + image.letters), 300)


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
    assert _expanding_power(THUE_MORSE, THUE_MORSE.source, 1) is None
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


@st.composite
def morphisms(draw):
    """Endomorphisms over three or four letters, with images of one to three
    letters or, now and then, up to nine."""
    letters = draw(st.sampled_from(["ABC", "ABCD"]))
    short = st.text(alphabet=letters, min_size=1, max_size=3)
    image = st.one_of(short, short, st.text(alphabet=letters, min_size=1, max_size=9))
    return Morphism({a: draw(image) for a in letters})


@settings(max_examples=300, deadline=None)
@given(
    morphisms(), st.integers(1, 5), st.one_of(st.integers(0, 8), st.integers(0, 200))
)
# seeds of powers 2, 3 and 4 whose images are longer than n, so that
# fixed_point_prefix maps only a prefix of its text
@example(Morphism.from_text(f"A>{'B' * 12};B>{'A' * 12};C>AC"), 4, 7)
@example(Morphism.from_text(f"A>{'B' * 12};B>{'C' * 12};C>A"), 4, 7)
@example(Morphism.from_text(f"A>{'B' * 9};B>{'C' * 9};C>{'D' * 9};D>A"), 4, 5)
def test_power_search_matches_the_oracle(m, max_power, n):
    assert _expanding_power(m, m.source, max_power) == oracle.find_expanding_letter(
        m, max_power
    )
    assert find_expanding_letter(m) == oracle.find_expanding_letter(m, MAX_POWER)
    for seed in m.source:
        try:
            expected = oracle.fixed_point_prefix(m, seed, n)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                fixed_point_prefix(m, seed=seed, n=n)
        else:
            assert fixed_point_prefix(m, seed=seed, n=n).letters == expected


@st.composite
def ordered_morphisms(draw):
    """Morphisms over three letters (four for a seed of power 4), their
    source in any order, with images of one to four letters; now and then
    the images may hold D, which a three-letter source does not map."""
    letters = draw(st.sampled_from(["ABC", "ABC", "ABCD"]))
    source = draw(st.permutations(letters))
    image = st.text(alphabet=draw(st.sampled_from([letters, letters, "ABCD"])),
                    min_size=1, max_size=4)
    return Morphism({a: draw(image) for a in source}, source=source)


def block_boundaries(m: Morphism, seed: str, top: int) -> set[int]:
    """0, 1 and the lengths on either side of |m^j(seed)| for j up to 12,
    up to top: where the descent passes a whole block or steps into one."""
    sizes = dict.fromkeys({*m.source, *m.target}, 1)
    lengths = {0, 1}
    for _ in range(13):
        lengths |= {sizes[seed] - 1, sizes[seed], sizes[seed] + 1}
        sizes = {a: sum(sizes[b] for b in m.images.get(a, a)) for a in sizes}
    return {n for n in lengths if n <= top}


def assert_prefixes_and_counts_match_the_oracle(m: Morphism, seed: str, lengths):
    """Both answer as the oracle's whole-text prefix.  The library maps
    only the letters it needs, so it may succeed where the oracle meets a
    letter outside the source; the counts refuse every non-endomorphism."""
    try:
        expected = oracle.fixed_point_prefix(m, seed, max(lengths))
    except ValueError:
        expected = None
    for n in lengths:
        try:
            prefix = fixed_point_prefix(m, seed=seed, n=n).letters
        except ValueError:
            prefix = None
        try:
            counts = _fixed_point_counts(m, seed, n)
        except ValueError:
            counts = None
        if expected is None:
            assert counts is None
            continue
        assert prefix == expected[:n]
        if counts is None:
            assert not m.is_endomorphism
        else:
            assert counts == {a: expected[:n].count(a) for a in m.source}


@settings(max_examples=300, deadline=None)
@given(ordered_morphisms(), st.lists(st.integers(0, 400), max_size=3))
# seeds of powers 2, 3 and 4, and non-endomorphisms whose fixed point
# reaches the letter outside the source, or stays clear of it
@example(Morphism.from_text("B>AA;A>B;C>A"), [])
@example(Morphism.from_text("A>B;C>AA;B>C"), [])
@example(Morphism.from_text(f"A>{'B' * 9};B>{'C' * 9};C>{'D' * 9};D>A"), [5])
@example(Morphism.from_text("A>AB;B>D;C>D"), [])
@example(Morphism.from_text("C>D;A>AB;B>A"), [])
def test_grown_prefixes_and_counts_match_the_oracle(m, extra):
    for seed in m.source:
        top = 10_000 if m.is_endomorphism else 400
        lengths = block_boundaries(m, seed, top) | set(range(12)) | set(extra)
        assert_prefixes_and_counts_match_the_oracle(m, seed, sorted(lengths))


@pytest.mark.parametrize("text", [
    "A>AB;B>AACA;C>A",
    "A>AC;B>ABC;C>B",
    "C>CA;A>CB;B>C",
    f"A>{'B' * 9};B>{'C' * 9};C>{'D' * 9};D>A",
])
def test_counts_of_a_hundred_thousand_letters_match_the_oracle(text):
    m = Morphism.from_text(text)
    found = find_expanding_letter(m)
    assert found.power == (MAX_POWER if "D" in m.source else 1)
    lengths = sorted(block_boundaries(m, found.letter, 100_000) | {100_000})
    assert_prefixes_and_counts_match_the_oracle(m, found.letter, lengths)


def test_counts_refuse_a_seed_without_a_fixed_point():
    m = Morphism.from_text("A>AB;B>C;C>B")
    assert _fixed_point_counts(m, "A", 5) == {"A": 1, "B": 2, "C": 2}
    for seed in ("B", "C"):
        with pytest.raises(ValueError, match=f"letter '{seed}' does not generate"):
            _fixed_point_counts(m, seed, 5)
    with pytest.raises(ValueError, match="outside source alphabet"):
        _fixed_point_counts(m, "D", 5)
    with pytest.raises(ValueError, match="non-negative"):
        _fixed_point_counts(m, "A", -1)
    with pytest.raises(ValueError, match="endomorphism"):
        _fixed_point_counts(Morphism.from_text("C>D;A>AB;B>A"), "A", 5)
