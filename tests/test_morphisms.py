"""Free-monoid morphisms, incidence matrices, spectra, fixed points."""

import random
import time
import tracemalloc

import mpmath
import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iet3.morphisms import (
    SIGMA,
    SIGMA_PRIME,
    IncidenceMatrix,
    Morphism,
    MorphismSyntaxError,
    _fixed_point_counts,
    _integer_roots,
    compose,
    find_expanding_letter,
    fixed_point_prefix,
    incidence,
    is_primitive,
    left_eigenvector,
    spectral_class,
    translation_image,
)
from iet3.qfield import parse_quadratic
from iet3.words import BINARY, TERNARY, Word

FIBONACCI = Morphism.from_text("0>01;1>0")
TRIBONACCI = Morphism.from_text("A>AB;B>AC;C>A")


def _row_times(vector, matrix) -> tuple:
    """The row vector times the matrix, v @ M."""
    rows, columns = matrix.shape
    return tuple(
        sum(vector[i] * matrix[i, j] for i in range(rows)) for j in range(columns)
    )


# -- morphism basics -----------------------------------------------------------


def test_the_two_codings_of_b_differ_only_on_b():
    assert SIGMA(Word("AACAB")) == "001001"
    assert SIGMA_PRIME(Word("AACAB")) == "001010"
    assert SIGMA.apply_text("B") == "01"
    assert SIGMA_PRIME.apply_text("B") == "10"


def test_text_round_trip_preserves_rule_order():
    text = "A>AB;B>AC;C>A"
    assert Morphism.from_text(text).to_text() == text
    assert str(Morphism.from_text("B>AA;A>B")) == "B>AA;A>B"


def test_malformed_rule_texts_are_rejected():
    for bad in ("", "A", "A>", "A>AB;;B>A", "AB>A", "A>AB;A>B"):
        with pytest.raises(MorphismSyntaxError):
            Morphism.from_text(bad)


def test_images_must_use_the_target_alphabet():
    with pytest.raises(ValueError, match="outside target"):
        Morphism({"A": "AX"}, target=TERNARY)
    with pytest.raises(ValueError, match="empty image"):
        Morphism({"A": ""})


def constructor_error(images, **alphabets) -> str:
    with pytest.raises(ValueError) as caught:
        Morphism(images, **alphabets)
    return str(caught.value)


def test_constructor_errors_name_the_first_offending_image():
    assert constructor_error({"A": "A", "B": "B"}, source=("A",)) == (
        "source alphabet must match the image table keys"
    )
    # image order is the table's order, not the source's
    assert constructor_error({"C": "", "A": "A", "B": ""}, source=TERNARY) == (
        "empty image for letter 'C'"
    )
    assert constructor_error({"A": "AB", "B": "", "C": "X"}) == (
        "empty image for letter 'B'"
    )
    assert constructor_error(
        {"C": "AYX", "A": "A", "B": "Z"}, source=TERNARY, target=TERNARY
    ) == "image of 'C' uses letters ['X', 'Y'] outside target alphabet ('A', 'B', 'C')"
    assert constructor_error({"0": "01", "1": "2"}, target=BINARY) == (
        "image of '1' uses letters ['2'] outside target alphabet ('0', '1')"
    )


def test_alphabet_entries_must_be_single_characters():
    # image words are built over these alphabets without a check of their own
    assert constructor_error({"A": "A"}, target=("A", "xy")) == (
        "alphabet entry 'xy' is not a single character"
    )
    assert constructor_error({"A": "A", "": "A"}) == (
        "alphabet entry '' is not a single character"
    )


@given(st.sampled_from(["A>AB;B>AC;C>A", "A>AB;B>AACA;C>A", "A>B;B>AC;C>AB"]),
       st.integers(0, 60))
def test_fixed_points_equal_checked_words(text, n):
    m = Morphism.from_text(text)
    prefix = fixed_point_prefix(m, n=n)
    assert prefix == Word(prefix.letters, m.source)
    assert prefix.alphabet == m.source


def test_a_prefix_outside_the_source_keeps_the_checked_error():
    # m is no endomorphism: its last image holds B, which the source lacks
    m = Morphism({"A": "AB"}, target=TERNARY)
    with pytest.raises(ValueError, match=r"letters \['B'\] outside alphabet \('A',\)"):
        fixed_point_prefix(m, seed="A", n=2)


@given(
    st.sampled_from([("A", "B", "C"), ("C", "A", "B"), ("0", "1")]),
    st.data(),
)
def test_incidence_equals_the_validated_matrix(source, data):
    letters = "".join(source) + data.draw(st.sampled_from(["", "XY"]))
    images = {a: data.draw(st.text(letters, min_size=1, max_size=6)) for a in source}
    m = Morphism(images, source=source)
    rows = [[m.images[a].count(b) for b in m.target] for a in m.source]
    validated = IncidenceMatrix(rows, m.source, m.target)
    matrix = incidence(m)
    assert matrix == validated
    assert hash(matrix) == hash(validated)
    assert matrix.rows == validated.rows
    assert matrix.row_alphabet == validated.row_alphabet == m.source
    assert matrix.col_alphabet == validated.col_alphabet == m.target


def test_a_morphism_without_letters_has_no_incidence_matrix():
    with pytest.raises(ValueError, match="non-empty"):
        incidence(Morphism({}))


def test_endomorphism_detection_and_target_inference():
    swap = Morphism.from_text("A>BA;B>AB")
    assert swap.source == ("A", "B")
    assert swap.target == ("A", "B")
    assert swap.is_endomorphism
    with pytest.raises(AttributeError, match="immutable"):
        swap.images = {}
    assert swap.images == {"A": "BA", "B": "AB"}
    assert SIGMA.target == BINARY
    assert not SIGMA.is_endomorphism


def test_apply_rejects_letters_outside_the_source():
    with pytest.raises(ValueError, match="outside source"):
        SIGMA.apply_text("AD")


#: source alphabets: ASCII ones, Greek letters, and one with a letter past ASCII
SOURCES = ["ABC", "01", "xyz!", "αβγ", "aé"]
#: image letters, among them the characters a placeholder could be taken
#: from: ASCII controls, the bytes 0x80 and 0xff, and private-use code points
ASCII_LETTERS = "ABC01xyz!\x00\x01\x02\x7f"
IMAGE_LETTERS = ASCII_LETTERS + "αβγaé\x80\xff\ue000\ue001"


@st.composite
def images_and_texts(draw):
    source = draw(st.sampled_from(SOURCES))
    letters = draw(st.sampled_from([source, ASCII_LETTERS, IMAGE_LETTERS]))
    images = {
        a: draw(st.text(alphabet=letters, min_size=1, max_size=6)) for a in source
    }
    m = Morphism(images, source=tuple(source))
    size = draw(st.sampled_from([0, 1, 2, 3, 4, 5, 16, 17, 60, 400, 10**4]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return m, "".join(rng.choices(source, k=size))


@settings(max_examples=300, deadline=None)
@given(images_and_texts(), st.integers(0, 10**4), st.sampled_from("DZ0βé\x80\ue000"))
def test_images_match_the_letter_by_letter_oracle(m_text, at, outsider):
    m, text = m_text
    assert m.apply_text(text) == oracle.apply_text(m, text)
    assert m.apply(text) == Word(oracle.apply_text(m, text), m.target)
    if outsider in m.source:
        return
    # a letter outside the source, anywhere in the text, raises the error
    # that names it, the first of two
    at %= len(text) + 1
    bad = text[:at] + outsider + text[at:] + "§"
    with pytest.raises(ValueError) as want:
        oracle.apply_text(m, bad)
    with pytest.raises(ValueError) as got:
        m.apply_text(bad)
    assert str(got.value) == str(want.value) == f"letter {outsider!r} outside source alphabet"


@pytest.mark.parametrize("m", [SIGMA, Morphism.from_text("A>AB;B>AACA;C>A")], ids=str)
@pytest.mark.parametrize("size", [*range(9), 17, 700])
@pytest.mark.parametrize("outsider", "DZ0")
def test_an_ascii_outsider_is_named_as_the_oracle_names_it(m, size, outsider):
    # ASCII texts under ASCII morphisms take the byte table, whose mark of
    # a letter outside the source must lead to the error naming the first
    assert m._bytes is not None
    text = ("ABCAACB" * 100)[:size]
    for at in {0, size // 2, size}:
        bad = text[:at] + outsider + text[at:] + "9"
        with pytest.raises(ValueError) as want:
            oracle.apply_text(m, bad)
        with pytest.raises(ValueError) as got:
            m.apply_text(bad)
        assert str(got.value) == str(want.value) == f"letter {outsider!r} outside source alphabet"


@pytest.mark.parametrize(
    "images",
    [("\x01\x80", "\xff", "A\x00\ue000"), ("\x01\x02", "\x00", "A\x7f\x01")],
    ids=["non-ascii", "ascii"],
)
def test_images_of_placeholder_characters_are_written_as_given(images):
    m = Morphism(dict(zip(TERNARY, images)), source=TERNARY)
    text = "ABCAACB" * 100
    for size in (5, 700):
        assert m.apply_text(text[:size]) == "".join(m.images[a] for a in text[:size])


def test_composition_acts_by_substituting_images():
    doubled = compose(FIBONACCI, FIBONACCI)
    assert doubled.to_text() == "0>010;1>01"
    assert doubled("01") == FIBONACCI(FIBONACCI("01"))
    with pytest.raises(ValueError, match="embed"):
        compose(Morphism.from_text("A>AB;B>A"), SIGMA)


@given(st.text(alphabet="ABC", max_size=40))
def test_counts_transform_through_the_incidence_matrix(text):
    m = Morphism.from_text("A>ACB;B>AC;C>BBA")
    counted = _row_times(tuple(text.count(a) for a in "ABC"), incidence(m))
    assert counted == tuple(m(Word(text)).count(a) for a in "ABC")


@given(st.text(alphabet="ABC", max_size=25))
def test_incidence_of_a_composition_multiplies_in_application_order(text):
    outer = Morphism.from_text("A>AB;B>AC;C>A")
    inner = Morphism.from_text("A>CA;B>B;C>AB")
    both = compose(outer, inner)
    assert incidence(both) == incidence(inner) @ incidence(outer)
    assert both(Word(text)) == outer(inner(Word(text)))


# -- incidence matrices ----------------------------------------------------------


def test_incidence_counts_occurrences_per_image():
    m = Morphism.from_text("A>ACB;B>AC;C>BBA")
    assert incidence(m).rows == ((1, 1, 1), (1, 0, 1), (1, 2, 0))


def test_negative_and_ragged_matrices_are_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        IncidenceMatrix([[1, -1], [0, 1]])
    with pytest.raises(ValueError, match="equal length"):
        IncidenceMatrix([[1, 2], [3]])


def test_vector_products_on_both_sides():
    m = IncidenceMatrix([[1, 2], [3, 4]])
    assert m.column_apply((1, 1)) == (3, 7)
    with pytest.raises(ValueError, match="dimension mismatch"):
        m @ IncidenceMatrix([[1, 2, 3]])


def test_frozen_characteristic_polynomials():
    fib = incidence(FIBONACCI)
    assert fib.charpoly() == (-1, -1, 1)
    assert fib.determinant() == -1

    tri = incidence(TRIBONACCI)
    assert tri.charpoly() == (-1, -1, -1, 1)
    assert tri.determinant() == 1
    assert tri.trace() == 1


def test_charpoly_matches_an_interpolation_oracle():
    # p(x) = det(xI - M) reconstructed from values at four points
    rng = random.Random(20260814)
    for _ in range(25):
        rows = [[rng.randint(0, 5) for _ in range(3)] for _ in range(3)]
        m = IncidenceMatrix(rows)
        coeffs = m.charpoly()

        def p_at(x: int) -> int:
            shifted = [
                [x * (i == j) - rows[i][j] for j in range(3)] for i in range(3)
            ]
            return (
                shifted[0][0]
                * (shifted[1][1] * shifted[2][2] - shifted[1][2] * shifted[2][1])
                - shifted[0][1]
                * (shifted[1][0] * shifted[2][2] - shifted[1][2] * shifted[2][0])
                + shifted[0][2]
                * (shifted[1][0] * shifted[2][1] - shifted[1][1] * shifted[2][0])
            )

        for x in (-2, -1, 0, 1, 2, 3):
            assert sum(c * x**k for k, c in enumerate(coeffs)) == p_at(x)


def test_primitivity_on_reference_matrices():
    assert is_primitive(incidence(FIBONACCI))
    assert is_primitive(incidence(TRIBONACCI))
    assert not is_primitive(IncidenceMatrix([[1, 0], [0, 1]]))
    assert not is_primitive(IncidenceMatrix([[0, 1], [1, 0]]))
    assert not is_primitive(IncidenceMatrix([[1, 1], [0, 1]]))


# -- fixed points ------------------------------------------------------------------


def test_expanding_letter_search_orders_by_power_then_alphabet():
    assert find_expanding_letter(TRIBONACCI) == ("A", 1)
    assert find_expanding_letter(Morphism.from_text("A>BA;B>AB")) == ("A", 2)
    assert find_expanding_letter(Morphism.from_text("A>B;B>A")) is None
    assert find_expanding_letter(SIGMA) is None


def test_fibonacci_fixed_point_prefix():
    assert fixed_point_prefix(FIBONACCI, n=8) == "01001010"
    assert fixed_point_prefix(FIBONACCI, n=0) == ""


def test_fixed_point_prefix_is_invariant_under_the_morphism():
    u = fixed_point_prefix(TRIBONACCI, n=300)
    assert TRIBONACCI(u).letters[:300] == u.letters


def test_fixed_point_requires_an_expanding_letter():
    with pytest.raises(ValueError, match="expanding"):
        fixed_point_prefix(Morphism.from_text("A>B;B>A"), n=5)


#: peak traced allocation of one fixed-point build from images of thousands
#: of letters: the image of a whole power or prefix is ten megabytes or more
FIXED_POINT_PEAK = 4 * 2**20


@pytest.mark.parametrize("power", [1, 3])
def test_long_images_build_only_the_letters_read(power):
    n = 10_000
    if power == 1:
        head = "A" + "B" * 4000
        m = Morphism.from_text(f"A>{head};B>A;C>C")
        # m(A), then the images of its 4000 B, then m(A) again
        expected = (head + "A" * 4000 + head)[:n]
    else:
        m = Morphism.from_text(f"A>{'B' * 4000};B>{'C' * 4000};C>A")
        expected = "A" * n
    tracemalloc.start()
    try:
        found = find_expanding_letter(m)
        prefix = fixed_point_prefix(m, n=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == ("A", power)
    assert prefix.letters == expected
    assert peak < FIXED_POINT_PEAK


def test_counting_letters_builds_no_power_image():
    # |m^3(A)| is 1.6e7; the descent reads the three images of 4000 letters
    m = Morphism.from_text(f"A>{'B' * 4000};B>{'C' * 4000};C>A")
    n = 100_000
    tracemalloc.start()
    try:
        counts = _fixed_point_counts(m, "A", n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == {"A": n, "B": 0, "C": 0}
    assert peak < FIXED_POINT_PEAK


def test_a_polynomially_growing_fixed_point_maps_only_the_added_letters():
    # A B B B ...: each round adds one letter, which a whole-text round
    # would pay for with the whole text again
    m = Morphism.from_text("A>AB;B>B;C>C")
    start = time.perf_counter()
    prefix = fixed_point_prefix(m, n=100_000)
    elapsed = time.perf_counter() - start
    assert prefix.letters == "A" + "B" * 99_999
    assert elapsed < 5


# -- spectral classification --------------------------------------------------------


def test_golden_matrix_is_a_quadratic_unit():
    spectral = spectral_class(incidence(FIBONACCI))
    assert spectral.classification == "quadratic-unit"
    assert spectral.dominant == parse_quadratic("(1+sqrt(5))/2")
    assert spectral.dominant_conjugate == parse_quadratic("(1-sqrt(5))/2")
    assert spectral.determinant == -1
    assert spectral.is_quadratic


def test_scaled_identity_is_rational():
    spectral = spectral_class(IncidenceMatrix([[2, 0], [0, 2]]))
    assert spectral.classification == "rational"
    assert spectral.dominant == 2
    assert not spectral.is_quadratic


def test_silver_matrix_is_a_quadratic_unit():
    spectral = spectral_class(IncidenceMatrix([[2, 1], [1, 1]]))
    assert spectral.classification == "quadratic-unit"
    assert spectral.dominant == parse_quadratic("(3+sqrt(5))/2")


def test_nonunit_quadratic_is_distinguished():
    spectral = spectral_class(IncidenceMatrix([[0, 2], [1, 2]]))
    assert spectral.charpoly == (-2, -2, 1)
    assert spectral.classification == "quadratic-nonunit"
    assert spectral.dominant == parse_quadratic("1+sqrt(3)")


def test_irreducible_cubic_has_no_quadratic_dominant():
    spectral = spectral_class(incidence(TRIBONACCI))
    assert spectral.classification == "cubic"
    assert spectral.dominant is None
    assert spectral.quadratic_factor is None
    assert spectral.integer_roots == ()


def _times_linear(coeffs, r):
    """Coefficients (lowest first) of the polynomial times (x - r)."""
    shifted = [0] + list(coeffs)
    return [shifted[i] - r * c for i, c in enumerate(list(coeffs) + [0])]


def test_integer_roots_of_a_constant_near_10_to_the_12_return_at_once():
    # (x - 999983)(x + 1000003)(x^2 + x + 1): |c0| is about 10^12, so a
    # divisor-by-divisor scan up to |c0| would never finish
    coeffs = _times_linear(_times_linear([1, 1, 1], 999_983), -1_000_003)
    assert abs(coeffs[0]) > 10**12 - 10**8
    start = time.perf_counter()
    roots, remaining = _integer_roots(coeffs)
    assert time.perf_counter() - start < 5
    assert roots == [999_983, -1_000_003] and remaining == [1, 1, 1]
    for r in roots:
        assert sum(c * r**i for i, c in enumerate(coeffs)) == 0


@given(
    st.lists(st.integers(-60, 60), max_size=3),
    st.lists(st.integers(-9, 9), min_size=1, max_size=3),
)
def test_integer_roots_match_the_divisor_scan(roots, factor):
    coeffs = factor + [1]
    for r in roots:
        coeffs = _times_linear(coeffs, r)
    assert _integer_roots(coeffs) == oracle.integer_roots(coeffs)


def test_quadratic_dominants_agree_with_numerical_roots():
    cases = [
        incidence(FIBONACCI),
        IncidenceMatrix([[2, 1], [1, 1]]),
        IncidenceMatrix([[0, 2], [1, 2]]),
        incidence(Morphism.from_text("A>AB;B>AACA;C>A")),
    ]
    for matrix in cases:
        spectral = spectral_class(matrix)
        coeffs = list(reversed(spectral.charpoly))  # descending for polyroots
        roots = mpmath.polyroots(coeffs)
        largest = max((r.real for r in roots if abs(r.imag) < 1e-12), default=None)
        assert largest is not None
        assert abs(float(spectral.dominant) - float(largest)) < 1e-9


# -- eigenvectors and translations ---------------------------------------------------


def test_left_eigenvector_satisfies_its_equation():
    matrix = incidence(FIBONACCI)
    lam = spectral_class(matrix).dominant
    v = left_eigenvector(matrix, lam)
    assert _row_times(v, matrix) == tuple(lam * x for x in v)


def test_left_eigenvector_of_a_ternary_instance():
    matrix = incidence(Morphism.from_text("A>AB;B>AACA;C>A"))
    lam = spectral_class(matrix).dominant
    v = left_eigenvector(matrix, lam)
    assert any(x != 0 for x in v)
    assert _row_times(v, matrix) == tuple(lam * x for x in v)


def test_translation_vector_scales_by_the_conjugate():
    from iet3.dynamics import IetParameters

    eps = parse_quadratic("1/2*sqrt(2)")
    params = IetParameters(eps, parse_quadratic("(3-sqrt(2))/2"), 0)
    matrix = incidence(Morphism.from_text("A>AB;B>AACA;C>A"))
    spectral = spectral_class(matrix)
    t = (1 - eps, 1 - 2 * eps, -eps)
    assert translation_image(matrix, params) == tuple(
        spectral.dominant_conjugate * x for x in t
    )
