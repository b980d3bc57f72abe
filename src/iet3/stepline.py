"""Stepped-line figures for ternary words, rendered as standalone SVG.

A ternary word traces a broken line from the origin: A steps right,
B steps diagonally up-right, C steps up.  The two binary readings of
the word (B split as "01" or as "10") trace dashed staircases (0 right,
1 up) that bracket the stepped line in a corridor one unit wide.
"""

from __future__ import annotations

import math

from .morphisms import SIGMA, SIGMA_PRIME
from .words import Word

__all__ = ["STEPS", "stepped_line_svg", "stepped_vertices", "staircase_vertices"]

#: lattice step per letter
STEPS = {"A": (1, 0), "B": (1, 1), "C": (0, 1)}
_BINARY_STEPS = {"0": (1, 0), "1": (0, 1)}


def _walk(letters: str, steps) -> list[tuple[int, int]]:
    """Lattice points visited from the origin, one step per letter."""
    x, y = 0, 0
    points = [(0, 0)]
    for ch in letters:
        dx, dy = steps[ch]
        x, y = x + dx, y + dy
        points.append((x, y))
    return points


def stepped_vertices(letters: str) -> list[tuple[int, int]]:
    """Lattice points visited by the stepped line, starting at the origin."""
    return _walk(letters, STEPS)


def staircase_vertices(binary_letters: str) -> list[tuple[int, int]]:
    """Lattice points visited by a binary staircase (0 right, 1 up)."""
    return _walk(binary_letters, _BINARY_STEPS)


def _fmt(value: float) -> str:
    return f"{value:g}"


def _path(points: list[tuple[int, int]], to_pixels) -> str:
    coords = [to_pixels(x, y) for x, y in points]
    head = f"M {_fmt(coords[0][0])} {_fmt(coords[0][1])}"
    tail = " ".join(f"L {_fmt(px)} {_fmt(py)}" for px, py in coords[1:])
    return f"{head} {tail}" if tail else head


def stepped_line_svg(word, unit: float = 20) -> str:
    """Render the stepped line of a ternary word with its dashed corridor.

    The empty word yields a figure with the axes only.  Binary input is
    rejected: the stepped line is defined for ternary words.
    """
    w = word if isinstance(word, Word) else Word(word)
    if not set(w.letters) <= set(STEPS):
        raise ValueError("stepped line is defined for ternary words over A, B, C")
    if unit <= 0:
        raise ValueError("unit must be positive")

    line = stepped_vertices(w.letters)
    lower = staircase_vertices(SIGMA.apply(w).letters)
    upper = staircase_vertices(SIGMA_PRIME.apply(w).letters)
    x_max = max(x for x, _ in line)
    y_max = max(y for _, y in line)

    margin = unit
    width = 2 * margin + x_max * unit + unit / 2
    height = 2 * margin + y_max * unit + unit / 2
    if not (math.isfinite(width) and math.isfinite(height)):
        # a NaN unit passes the sign test above; inf or a huge unit overflows
        raise ValueError(f"unit {unit:g} gives a figure of non-finite size")

    def to_pixels(x: float, y: float) -> tuple[float, float]:
        return margin + x * unit, height - margin - y * unit

    ox, oy = to_pixels(0, 0)
    ax_x = to_pixels(x_max + 0.5, 0)
    ax_y = to_pixels(0, y_max + 0.5)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'  <desc>stepped line of a ternary word ({len(w)} letters); '
        "dashed staircases show the two binary readings</desc>",
        f'  <line class="axis" x1="{_fmt(ox)}" y1="{_fmt(oy)}" '
        f'x2="{_fmt(ax_x[0])}" y2="{_fmt(ax_x[1])}" stroke="#888" stroke-width="1"/>',
        f'  <line class="axis" x1="{_fmt(ox)}" y1="{_fmt(oy)}" '
        f'x2="{_fmt(ax_y[0])}" y2="{_fmt(ax_y[1])}" stroke="#888" stroke-width="1"/>',
    ]
    if w.letters:
        parts.append(
            f'  <path class="corridor-01" d="{_path(lower, to_pixels)}" '
            'fill="none" stroke="#1f77b4" stroke-width="1" stroke-dasharray="4 3"/>'
        )
        parts.append(
            f'  <path class="corridor-10" d="{_path(upper, to_pixels)}" '
            'fill="none" stroke="#2ca02c" stroke-width="1" stroke-dasharray="4 3"/>'
        )
        parts.append(
            f'  <path class="stepped" d="{_path(line, to_pixels)}" '
            'fill="none" stroke="#d62728" stroke-width="2"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
