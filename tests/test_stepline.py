"""Stepped-line geometry and the SVG rendering around it."""

import hashlib
from xml.etree import ElementTree

import pytest

from iet3.morphisms import SIGMA, SIGMA_PRIME
from iet3.stepline import (
    STEPS,
    staircase_vertices,
    stepped_line_svg,
    stepped_vertices,
)
from iet3.words import BINARY, Word


def test_vertices_of_a_short_word():
    assert stepped_vertices("AACAB") == [
        (0, 0), (1, 0), (2, 0), (2, 1), (3, 1), (4, 2),
    ]
    assert staircase_vertices("01") == [(0, 0), (1, 0), (1, 1)]
    assert stepped_vertices("") == [(0, 0)]


def test_letter_steps_cover_the_three_directions():
    assert STEPS == {"A": (1, 0), "B": (1, 1), "C": (0, 1)}


def _squared_distance_to_polyline(point, vertices):
    """Exact integer squared distance from a lattice point to a staircase.

    Staircase segments are axis-parallel with lattice endpoints, so the
    projection of a lattice point is itself a lattice point and every
    distance squared is an integer.
    """
    px, py = point
    best = None
    for (x1, y1), (x2, y2) in zip(vertices, vertices[1:]):
        if x1 == x2:  # vertical segment
            qx = x1
            qy = min(max(py, min(y1, y2)), max(y1, y2))
        else:  # horizontal segment
            qy = y1
            qx = min(max(px, min(x1, x2)), max(x1, x2))
        d = (px - qx) ** 2 + (py - qy) ** 2
        best = d if best is None else min(best, d)
    return best


def test_both_staircases_stay_within_one_unit_of_the_line(golden_word_100k):
    u = golden_word_100k[:200]
    line = stepped_vertices(u.letters)
    for image in (SIGMA(u), SIGMA_PRIME(u)):
        stairs = staircase_vertices(image.letters)
        assert stairs[-1] == line[-1]  # same abelianization, same endpoint
        worst = max(_squared_distance_to_polyline(p, stairs) for p in line)
        assert worst <= 1  # strictly inside a corridor of one unit diagonal
        worst_back = max(_squared_distance_to_polyline(p, line) for p in stairs)
        assert worst_back <= 1


def test_svg_counts_one_segment_per_letter(golden_word_100k):
    u = golden_word_100k[:200]
    document = stepped_line_svg(u)
    root = ElementTree.fromstring(document)
    paths = {el.get("class"): el.get("d") for el in root if el.tag.endswith("path")}
    assert paths["stepped"].count("L") == 200
    assert paths["corridor-01"].count("L") == len(SIGMA(u))
    assert paths["corridor-10"].count("L") == len(SIGMA_PRIME(u))


def test_svg_is_well_formed_and_deterministic():
    first = stepped_line_svg("AACAB")
    second = stepped_line_svg(Word("AACAB"))
    assert first == second
    root = ElementTree.fromstring(first)
    assert root.get("width") and root.get("height")


def test_empty_word_renders_axes_only():
    document = stepped_line_svg("")
    assert 'class="axis"' in document
    assert "path" not in document


def test_svg_rejects_binary_words_and_bad_units():
    with pytest.raises(ValueError, match="ternary"):
        stepped_line_svg(Word("0101", BINARY))
    for unit in (0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="unit"):
            stepped_line_svg("A", unit=unit)


def test_pixel_frame_grows_with_the_unit():
    small = ElementTree.fromstring(stepped_line_svg("AB", unit=10))
    large = ElementTree.fromstring(stepped_line_svg("AB", unit=30))
    assert float(large.get("width")) > float(small.get("width"))
    assert float(large.get("height")) > float(small.get("height"))


def test_vertices_refuse_letters_outside_the_steps():
    for make, text in ((stepped_vertices, "AXB"), (staircase_vertices, "0120")):
        with pytest.raises(ValueError, match="letters outside"):
            make(text)


#: sha256 of figures written by the per-vertex writer this one replaced:
#: (letters of the golden coding or a literal word, unit)
FIGURE_SHA256 = {
    (2000, None): "e5bc04de56db095b3290f062e745ad38bf42ef396755b424213e3faf0b1bade0",
    (2000, 20.0): "e5bc04de56db095b3290f062e745ad38bf42ef396755b424213e3faf0b1bade0",
    (2000, 0.37): "cd671fb702b9b777ab25328a9e4f572794d6a108d732302d61c338c16e14cd9d",
    (2000, 7): "339ef0905518bf402bb3e3ddce17d95812666e1203e5baf9d6f3442032746562",
    # an int unit whose products with the vertices pass int64
    (2000, 10**16): "86d73011ace20e7cdd69da173bb93c233261dc1b14d29e2de5767f5c6c2885a2",
    # coordinates past 10**7 px, where %g rounds them
    (100_000, 200): "4765edf5132a41edc007812f7abb751c05ae144667959332a6e5baebd1fcf342",
    ("", None): "57c9b5363ea3debce9c0a0cf57e493501233f7539d6b5f966a1bc374523b564e",
    ("B", None): "9ea3a8a8698fa6f2d77fd9a9bcbb0e8cda09d24bc12cd64241634a4a1844fe1e",
}


@pytest.mark.parametrize("key", list(FIGURE_SHA256), ids=str)
def test_figure_bytes_are_pinned(key, golden_word_100k):
    word, unit = key
    if isinstance(word, int):
        word = golden_word_100k[:word]
    # None stands for the default unit, the int 20
    document = stepped_line_svg(word) if unit is None else stepped_line_svg(word, unit)
    assert hashlib.sha256(document.encode()).hexdigest() == FIGURE_SHA256[key]
