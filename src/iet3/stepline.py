"""Stepped-line figures for ternary words, rendered as standalone SVG.

A ternary word traces a broken line from the origin: A steps right,
B steps diagonally up-right, C steps up.  The two binary readings of
the word (B split as "01" or as "10") trace dashed staircases (0 right,
1 up) that bracket the stepped line in a corridor one unit wide.

The vertices of each line are the packed prefix sums of the lattice
layer (``words._step_sums``, the walk behind
``LatticePoints.prefix_sums``), read as int64 arrays with no loop per
letter.  ``unit`` is read as a float before any coordinate is computed,
the pixels of a whole line are float64 arrays computed in the order of
``to_pixels``, and each path is written in chunks of ``PATH_CHUNK``
vertices, one %g format per chunk.  So an int unit's text is the same as
that of exact integer coordinates while they stay below 2**53.
"""

from __future__ import annotations

import math

import numpy as np

from .morphisms import SIGMA, SIGMA_PRIME
from .words import _as_word, _step_sums

__all__ = ["STEPS", "stepped_line_svg", "stepped_vertices", "staircase_vertices"]

#: lattice step per letter
STEPS = {"A": (1, 0), "B": (1, 1), "C": (0, 1)}
_BINARY_STEPS = {"0": (1, 0), "1": (0, 1)}
#: vertices of a path written by one %-format; a fixed chunk keeps the
#: argument tuple small at any word length
PATH_CHUNK = 4096


def _vertices(letters: str, steps) -> list[tuple[int, int]]:
    if letters.strip("".join(steps)):
        raise ValueError(f"letters outside {''.join(steps)!r}")
    x, y = _step_sums(letters, steps)
    return list(zip(x.tolist(), y.tolist()))


def stepped_vertices(letters: str) -> list[tuple[int, int]]:
    """Lattice points visited by the stepped line, starting at the origin."""
    return _vertices(letters, STEPS)


def staircase_vertices(binary_letters: str) -> list[tuple[int, int]]:
    """Lattice points visited by a binary staircase (0 right, 1 up)."""
    return _vertices(binary_letters, _BINARY_STEPS)


def _path(px: np.ndarray, py: np.ndarray) -> list[str]:
    """Path data "M x0 y0 L x1 y1 ..." of pixel arrays, one %-format per
    chunk of ``PATH_CHUNK`` vertices."""
    coords = np.column_stack((px, py)).ravel()
    chunks = ["M %g %g" % tuple(coords[:2].tolist())]
    for start in range(2, len(coords), 2 * PATH_CHUNK):
        values = tuple(coords[start : start + 2 * PATH_CHUNK].tolist())
        chunks.append(" L %g %g" * (len(values) // 2) % values)
    return chunks


def stepped_line_svg(word, unit: float = 20) -> str:
    """Render the stepped line of a ternary word with its dashed corridor.

    The empty word yields a figure with the axes only.  Binary input is
    rejected: the stepped line is defined for ternary words.
    """
    w = _as_word(word)
    if not w.is_over(STEPS):
        raise ValueError("stepped line is defined for ternary words over A, B, C")
    if unit <= 0:
        raise ValueError("unit must be positive")
    unit = float(unit)

    line = _step_sums(w.letters, STEPS)
    # every step goes up or to the right, so the last vertex is the corner
    x_max, y_max = int(line[0][-1]), int(line[1][-1])

    margin = unit
    width = 2 * margin + x_max * unit + unit / 2
    height = 2 * margin + y_max * unit + unit / 2
    if not (math.isfinite(width) and math.isfinite(height)):
        # a NaN unit passes the sign test above; inf or a huge unit overflows
        raise ValueError(f"unit {unit:g} gives a figure of non-finite size")

    def to_pixels(x, y):
        return margin + x * unit, height - margin - y * unit

    ox, oy = to_pixels(0, 0)
    ax_x = to_pixels(x_max + 0.5, 0)
    ax_y = to_pixels(0, y_max + 0.5)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" '
        f'height="{height:g}" viewBox="0 0 {width:g} {height:g}">\n'
        f'  <desc>stepped line of a ternary word ({len(w)} letters); '
        "dashed staircases show the two binary readings</desc>\n"
        f'  <line class="axis" x1="{ox:g}" y1="{oy:g}" '
        f'x2="{ax_x[0]:g}" y2="{ax_x[1]:g}" stroke="#888" stroke-width="1"/>\n'
        f'  <line class="axis" x1="{ox:g}" y1="{oy:g}" '
        f'x2="{ax_y[0]:g}" y2="{ax_y[1]:g}" stroke="#888" stroke-width="1"/>\n'
    ]

    def add_path(name: str, vertices, style: str) -> None:
        parts.append(f'  <path class="{name}" d="')
        parts.extend(_path(*to_pixels(*vertices)))
        parts.append(f'" fill="none" {style}/>\n')

    def staircase(reading):
        return _step_sums(reading.apply(w).letters, _BINARY_STEPS)

    if w.letters:
        dashed = 'stroke-width="1" stroke-dasharray="4 3"'
        add_path("corridor-01", staircase(SIGMA), f'stroke="#1f77b4" {dashed}')
        add_path("corridor-10", staircase(SIGMA_PRIME), f'stroke="#2ca02c" {dashed}')
        add_path("stepped", line, 'stroke="#d62728" stroke-width="2"')
    parts.append("</svg>\n")
    return "".join(parts)
