"""Stepped-line geometry and the SVG rendering around it."""

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
