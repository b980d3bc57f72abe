"""Morphisms of free monoids, incidence matrices, and exact spectra.

Incidence matrices follow the row convention: entry (i, j) counts the
letter a_j inside the image of a_i.  With that convention the counts of
an image word satisfy count(apply(m, w)) = count(w) @ M, and composition
satisfies M_{outer after inner} = M_inner @ M_outer — both identities are
pinned by tests rather than prose, the second on the morphism
a -> outer(inner(a)) that its test builds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .qfield import QuadraticNumber, as_quadratic, sqrt_int
from .words import BINARY, TERNARY, Word, _letter_codes, check_alphabet

__all__ = [
    "Expanding",
    "IncidenceMatrix",
    "Morphism",
    "MorphismSyntaxError",
    "SIGMA",
    "SIGMA_PRIME",
    "SpectralClass",
    "find_expanding_letter",
    "fixed_point_prefix",
    "incidence",
    "is_primitive",
    "left_eigenvector",
    "spectral_class",
    "translation_image",
]


class MorphismSyntaxError(ValueError):
    """Malformed textual morphism."""


#: the byte kernel's mark for a letter outside the source alphabet
_OUTSIDE = 0xFF


def _byte_kernel(images: Mapping[str, str]) -> tuple[bytes, tuple] | None:
    """The byte tables of ``Morphism.apply_text``; None unless every source
    letter and every image is ASCII.

    The 256-byte translate table sends a letter with a one-letter image
    to that image, a letter with a longer image to a placeholder byte
    from 0x80 up, and every other byte to ``_OUTSIDE``.  No ASCII image
    holds a byte from 0x80 up, so each (placeholder, image) replacement
    writes letters that no later replacement reads.
    """
    ascii_only = "".join([*images, *images.values()]).isascii()
    if not ascii_only or len(images) >= _OUTSIDE - 0x80:
        return None
    table = bytearray([_OUTSIDE]) * 256
    replacements = []
    for a, image in images.items():
        if len(image) == 1:
            table[ord(a)] = ord(image)
        else:
            placeholder = 0x80 + len(replacements)
            table[ord(a)] = placeholder
            replacements.append((bytes((placeholder,)), image.encode("ascii")))
    return bytes(table), tuple(replacements)


class Morphism:
    """A map of free monoids given by one image word per source letter."""

    __slots__ = ("images", "source", "target", "_bytes")

    def __init__(
        self,
        images: Mapping[str, str],
        source: Sequence[str] | None = None,
        target: Sequence[str] | None = None,
    ):
        source = tuple(source) if source is not None else tuple(images)
        if set(source) != set(images):
            raise ValueError("source alphabet must match the image table keys")
        # all images are checked at once; the loops only find the first
        # offending image to name it
        if not all(images.values()):
            a = next(a for a, img in images.items() if not img)
            raise ValueError(f"empty image for letter {a!r}")
        seen = set().union(*images.values())
        if target is None:
            if seen <= set(source):
                target = source
            else:
                for known in (TERNARY, BINARY):
                    if seen <= set(known):
                        target = known
                        break
                else:
                    target = tuple(sorted(seen))
        target = tuple(target)
        if not seen <= set(target):
            for a, img in images.items():
                bad = set(img) - set(target)
                if bad:
                    raise ValueError(f"image of {a!r} uses letters {sorted(bad)!r} "
                                     f"outside target alphabet {target}")
        # image words are built unchecked over these alphabets
        check_alphabet((*source, *target))
        object.__setattr__(self, "images", dict(images))
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        # the tables of apply_text
        object.__setattr__(self, "_bytes", _byte_kernel(images))

    def __setattr__(self, name, value):
        raise AttributeError("Morphism is immutable")

    @classmethod
    def from_text(cls, text: str) -> "Morphism":
        """Parse the form "A>AB;B>AC;C>A"."""
        images = {}
        order = []
        for part in text.split(";"):
            part = part.strip()
            if not part:
                raise MorphismSyntaxError(f"empty rule in {text!r}")
            if ">" not in part:
                raise MorphismSyntaxError(f"missing '>' in rule {part!r}")
            letter, _, image = part.partition(">")
            letter, image = letter.strip(), image.strip()
            if len(letter) != 1:
                raise MorphismSyntaxError(f"source must be one letter in {part!r}")
            if not image:
                raise MorphismSyntaxError(f"empty image in rule {part!r}")
            if letter in images:
                raise MorphismSyntaxError(f"duplicate rule for {letter!r}")
            images[letter] = image
            order.append(letter)
        return cls(images, source=order)

    def to_text(self) -> str:
        return ";".join(f"{a}>{self.images[a]}" for a in self.source)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"Morphism({self.to_text()!r})"

    def __eq__(self, other):
        if not isinstance(other, Morphism):
            return NotImplemented
        return (
            self.images == other.images
            and self.source == other.source
            and self.target == other.target
        )

    def __hash__(self):
        return hash((tuple(sorted(self.images.items())), self.source, self.target))

    @property
    def is_endomorphism(self) -> bool:
        return self.target == self.source or set(self.target) <= set(self.source)

    def apply_text(self, text: str) -> str:
        """The image of text.

        Under a morphism whose letters and images are ASCII, an ASCII text
        is encoded and translated once by the byte table of
        ``_byte_kernel``, which also marks any letter outside the source;
        then one ``bytes.replace`` per longer image writes it over its
        placeholder.  Any other text, and a text with a letter outside the
        source, takes the letter-by-letter ``join``, which raises
        ``ValueError`` naming the first letter outside the source.
        """
        if self._bytes and text.isascii():
            table, replacements = self._bytes
            coded = text.encode("ascii").translate(table)
            if _OUTSIDE not in coded:
                for placeholder, image in replacements:
                    coded = coded.replace(placeholder, image)
                return coded.decode("ascii")
        try:
            return "".join(map(self.images.__getitem__, text))
        except KeyError as exc:
            raise ValueError(f"letter {exc.args[0]!r} outside source alphabet") from None

    def apply(self, w) -> Word:
        text = w.letters if isinstance(w, Word) else str(w)
        return Word._trusted(self.apply_text(text), self.target)

    __call__ = apply


SIGMA = Morphism({"A": "0", "B": "01", "C": "1"}, source=TERNARY, target=BINARY)
SIGMA_PRIME = Morphism({"A": "0", "B": "10", "C": "1"}, source=TERNARY, target=BINARY)


# -- incidence matrices -----------------------------------------------------------


class IncidenceMatrix:
    """Non-negative integer matrix of letter counts, rows indexed by source."""

    __slots__ = ("rows", "row_alphabet", "col_alphabet")

    def __init__(
        self,
        rows: Sequence[Sequence[int]],
        row_alphabet: Sequence[str] | None = None,
        col_alphabet: Sequence[str] | None = None,
    ):
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        if not rows or any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("matrix rows must be non-empty and equal length")
        if any(x < 0 for row in rows for x in row):
            raise ValueError("incidence entries must be non-negative")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(
            self, "row_alphabet",
            tuple(row_alphabet) if row_alphabet else tuple(range(len(rows)))
        )
        object.__setattr__(
            self, "col_alphabet",
            tuple(col_alphabet) if col_alphabet else tuple(range(len(rows[0])))
        )

    def __setattr__(self, name, value):
        raise AttributeError("IncidenceMatrix is immutable")

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.rows[0])

    @property
    def is_square(self) -> bool:
        n, m = self.shape
        return n == m

    def __getitem__(self, index):
        i, j = index
        return self.rows[i][j]

    def __eq__(self, other):
        if isinstance(other, IncidenceMatrix):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"IncidenceMatrix({[list(r) for r in self.rows]})"

    def __matmul__(self, other: "IncidenceMatrix") -> "IncidenceMatrix":
        n, k = self.shape
        k2, m = other.shape
        if k != k2:
            raise ValueError(f"dimension mismatch {self.shape} @ {other.shape}")
        rows = tuple(
            tuple(sum(self.rows[i][t] * other.rows[t][j] for t in range(k))
                  for j in range(m))
            for i in range(n)
        )
        return IncidenceMatrix(rows, self.row_alphabet, other.col_alphabet)

    def column_apply(self, vector: Sequence) -> tuple:
        """Matrix times column vector: (M @ v); exact over any field."""
        n, m = self.shape
        if len(vector) != m:
            raise ValueError("vector length must match the column count")
        vec = [as_quadratic(v) for v in vector]
        return tuple(
            sum((self.rows[i][j] * vec[j] for j in range(m)), QuadraticNumber(0))
            for i in range(n)
        )

    def determinant(self) -> int:
        if not self.is_square:
            raise ValueError("determinant requires a square matrix")
        n, _ = self.shape
        r = self.rows
        if n == 1:
            return r[0][0]
        if n == 2:
            return r[0][0] * r[1][1] - r[0][1] * r[1][0]
        if n == 3:
            return (
                r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
                - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
                + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
            )
        raise ValueError("determinant implemented for dimensions 1-3")

    def trace(self) -> int:
        if not self.is_square:
            raise ValueError("trace requires a square matrix")
        return sum(self.rows[i][i] for i in range(len(self.rows)))

    def charpoly(self) -> tuple[int, ...]:
        """Monic characteristic polynomial, coefficients ascending.

        Dimension 2: (det, -tr, 1); dimension 3: (-det, m2, -tr, 1) where
        m2 is the sum of the principal 2x2 minors.
        """
        if not self.is_square:
            raise ValueError("characteristic polynomial requires a square matrix")
        n, _ = self.shape
        r = self.rows
        if n == 2:
            return (self.determinant(), -self.trace(), 1)
        if n == 3:
            m2 = (
                r[1][1] * r[2][2] - r[1][2] * r[2][1]
                + r[0][0] * r[2][2] - r[0][2] * r[2][0]
                + r[0][0] * r[1][1] - r[0][1] * r[1][0]
            )
            return (-self.determinant(), m2, -self.trace(), 1)
        raise ValueError("characteristic polynomial implemented for dimensions 2-3")


def incidence(m: Morphism) -> IncidenceMatrix:
    """Letter counts of each image: entry (i, j) = count of a_j in m(a_i)."""
    rows = [list(map(m.images[a].count, m.target)) for a in m.source]
    return IncidenceMatrix(rows, m.source, m.target)


def is_primitive(matrix: IncidenceMatrix) -> bool:
    """Whether some power within the Wielandt bound (n-1)^2 + 1 is entrywise positive.

    Only the zero pattern matters, so the answer is cached by pattern.  The
    cache holds 1024 patterns, all 2^9 = 512 of a 3x3 matrix among them;
    past that, the least recently used pattern is dropped.
    """
    if not matrix.is_square:
        raise ValueError("primitivity requires a square matrix")
    return _pattern_is_primitive(
        tuple(sum(1 << j for j, x in enumerate(row) if x) for row in matrix.rows)
    )


@functools.lru_cache(maxsize=1024)
def _pattern_is_primitive(base: tuple[int, ...]) -> bool:
    """``is_primitive`` of a square zero pattern of n rows, each a bitmask
    of its nonzero columns (bit j for column j).

    Row i of the next power is the union of the base rows that row i of
    the current power reaches.  A pattern that repeats itself before
    turning positive never will.
    """
    n = len(base)
    full = (1 << n) - 1
    power = list(base)
    for _ in range((n - 1) ** 2 + 1):
        if power.count(full) == n:
            return True
        following = []
        for row in power:
            reached = 0
            for t, mask in enumerate(base):
                if row >> t & 1:
                    reached |= mask
            following.append(reached)
        if following == power:
            return False
        power = following
    return False


# -- fixed points -----------------------------------------------------------------

#: the largest power of a morphism searched for a letter that generates a fixed point
MAX_POWER = 4


class Expanding(NamedTuple):
    """A letter that m^power maps to two letters or more starting with it."""

    letter: str
    power: int


def _image_offsets(m: Morphism, text: str) -> np.ndarray:
    """Where the image of each letter of text starts in m(text), then the
    length of m(text): len(text) + 1 int64 offsets, 0 first."""
    source = sorted(m.images)
    letters = np.array([ord(a) for a in source], dtype=np.uint32)
    sizes = np.array([len(m.images[a]) for a in source], dtype=np.int64)
    codes = _letter_codes(text)
    at = np.minimum(np.searchsorted(letters, codes), len(letters) - 1)
    outside = np.flatnonzero(letters[at] != codes)
    if len(outside):
        raise ValueError(f"letter {text[outside[0]]!r} outside source alphabet")
    offsets = np.zeros(len(text) + 1, dtype=np.int64)
    np.cumsum(sizes[at], out=offsets[1:])
    return offsets


def _image_prefix(m: Morphism, text: str, n: int) -> str:
    """The image of the shortest prefix of text whose image holds n letters
    or more (of text when none does): fewer than n + (the longest image)
    letters.  Every image is non-empty, so that prefix has at most n
    letters."""
    head = text[:n]
    return m.apply_text(head[: int(np.searchsorted(_image_offsets(m, head), n))])


#: ``fixed_point_prefix`` maps a text whole while its image cannot pass
#: this many times the letters asked for
OVERSHOOT = 4


def _expanding_power(
    m: Morphism, letters: Sequence[str], max_power: int
) -> Expanding | None:
    """(letter, k) for the least k <= max_power at which m^k maps one of
    ``letters`` (the first in order) to two letters or more starting with it.
    Images are non-empty, so the first two letters of m^k(a) are those of
    m applied to the first two of m^(k-1)(a): no whole power is built."""
    current = m.images
    for k in range(1, max_power + 1):
        for a in letters:
            img = current[a]
            if len(img) >= 2 and img[0] == a:
                return Expanding(a, k)
        if k < max_power:
            current = {a: m.apply_text(current[a][:2]) for a in letters}
    return None


def find_expanding_letter(m: Morphism) -> Expanding | None:
    """A letter whose image under some power up to ``MAX_POWER`` starts with
    itself and grows.

    Returns (letter, power) with the smallest power, ties broken by source
    alphabet order; None when no letter qualifies.
    """
    if not m.is_endomorphism:
        return None
    return _expanding_power(m, m.source, MAX_POWER)


def _seed_power(m: Morphism, seed: str | None) -> Expanding:
    """The seed and power of ``fixed_point_prefix``: the given seed with its
    least power up to ``MAX_POWER``, else the first qualifying letter."""
    if seed is None:
        found = find_expanding_letter(m)
        if found is None:
            raise ValueError("no expanding fixed letter")
        return found
    if seed not in m.source:
        raise ValueError(f"seed {seed!r} outside source alphabet")
    found = _expanding_power(m, (seed,), MAX_POWER)
    if found is None:
        raise ValueError(f"letter {seed!r} does not generate a fixed point")
    return found


def _power_image(m: Morphism, text: str, power: int, n: int, missing: int) -> str:
    """m^power(text), or a prefix of it holding ``missing`` letters or more.

    Each application maps the whole text while its image cannot pass
    ``OVERSHOOT`` * n letters, else only the shortest prefix whose image
    reaches ``missing`` letters (``_image_prefix``).  Images are non-empty,
    so the first k letters of m(w) depend on the first k letters of w alone.
    """
    longest = max(map(len, m.images.values()))
    for _ in range(power):
        if len(text) * longest <= OVERSHOOT * n:
            text = m.apply_text(text)
        else:
            text = _image_prefix(m, text, missing)
    return text


def fixed_point_prefix(m: Morphism, seed: str | None = None, n: int = 1000) -> Word:
    """First n letters of the invariant word obtained by iterating from seed.

    The seed (or, when omitted, the first qualifying letter) must satisfy
    m^k(seed) = seed... for some power k <= MAX_POWER, the bound of
    ``find_expanding_letter``.  The text grows from the letters the last
    round added: with P = m^k, P^(r+1)(seed) is P^r(seed) followed by P of
    what round r added, so each round applies m, k times, to those letters
    alone (the first round maps the seed and adds all but its first
    letter).  Each application maps the whole of what it is given while
    its image cannot pass ``OVERSHOOT`` * n letters, else only the shortest
    prefix whose image reaches the letters still missing
    (``_power_image``): no image built passes max(OVERSHOOT * n, n + the
    longest image) letters.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    seed, power = _seed_power(m, seed)
    text = seed
    if n > 1:
        text = _power_image(m, seed, power, n, n)
        # P(seed) is the seed and more: the first round added the rest
        added = text[1:]
        while len(text) < n:
            added = _power_image(m, added, power, n, n - len(text))
            text += added
    if not m.is_endomorphism:
        # the last image may hold target letters outside the source
        return Word(text[:n], m.source)
    return Word._trusted(text[:n], m.source)


def _fixed_point_counts(m: Morphism, seed: str, n: int) -> dict[str, int]:
    """Letter counts of ``fixed_point_prefix(m, seed, n)``, without its letters.

    With k the power of the seed, the prefix is that of m^K(seed) for K the
    least multiple of k with |m^K(seed)| >= n.  A descent from level K
    writes it as whole blocks m^j(b): at each level it passes the blocks
    m^(j-1)(b), for b in m(a), that fit in the letters still missing, and
    steps into the block that does not.  The counts of the blocks passed
    are carried down one level at a time, as the counts of their images
    under m (Horner's rule for the sum of v_j M^j), so no word is built and
    no image of a power either.  Block lengths saturate at n + 1, which
    never fits.  There are K levels of at most one image each: O(log n)
    when the seed's images grow exponentially, about n for linear growth.
    m must be an endomorphism.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not m.is_endomorphism:
        raise ValueError("letter counts need an endomorphism")
    seed, power = _seed_power(m, seed)
    letters = m.source
    index = {a: i for i, a in enumerate(letters)}
    codes = [[index[b] for b in m.images[a]] for a in letters]
    rows = [[m.images[a].count(b) for b in letters] for a in letters]
    a = index[seed]
    cap = n + 1
    # levels[j][i] = min(|m^j(letters[i])|, n + 1)
    levels = [[1] * len(letters)]
    while (len(levels) - 1) % power or levels[-1][a] < n:
        sizes = levels[-1]
        levels.append(
            [min(cap, sum(c * size for c, size in zip(row, sizes))) for row in rows]
        )
    counts = [0] * len(letters)
    missing = n
    for sizes in reversed(levels[:-1]):
        # counts of the blocks passed, from one level up to this one
        counts = [
            sum(c * row[j] for c, row in zip(counts, rows)) for j in range(len(letters))
        ]
        if missing:
            for b in codes[a]:
                if sizes[b] > missing:
                    a = b
                    break
                counts[b] += 1
                missing -= sizes[b]
                if not missing:
                    break
    if missing:
        # level 0 alone: the seed is the prefix
        counts[a] += missing
    return dict(zip(letters, counts))


# -- exact spectral classification ---------------------------------------------


@dataclass(frozen=True)
class SpectralClass:
    """Exact spectral data for a 2x2 or 3x3 non-negative integer matrix.

    classification is one of "rational", "quadratic-unit",
    "quadratic-nonunit", "cubic", describing the dominant eigenvalue.
    The dominant eigenvalue and its field conjugate are carried exactly
    whenever the degree is at most 2.
    """

    charpoly: tuple[int, ...]
    classification: str
    dominant: QuadraticNumber | None
    dominant_conjugate: QuadraticNumber | None
    integer_roots: tuple[int, ...]
    quadratic_factor: tuple[int, int] | None
    determinant: int

    @property
    def is_quadratic(self) -> bool:
        return self.classification.startswith("quadratic")


def _integer_roots(coeffs: Sequence[int]) -> tuple[list[int], list[int]]:
    """Integer roots (with multiplicity) of a monic integer polynomial.

    Returns (roots, remaining_coefficients); candidates are 0 and the
    divisors of the constant term, which is complete for monic integer
    polynomials.
    """
    coeffs = list(coeffs)
    roots = []
    while len(coeffs) > 1:
        constant = coeffs[0]
        if constant == 0:
            candidates = [0]
        else:
            # divisors k <= isqrt(|c|) pair with |c| // k; ascending order
            small = [
                k for k in range(1, math.isqrt(abs(constant)) + 1) if constant % k == 0
            ]
            large = [abs(constant) // k for k in reversed(small)]
            if large and large[0] == small[-1]:
                large.pop(0)
            candidates = [r for k in small + large for r in (k, -k)]
        for r in candidates:
            if sum(c * r**i for i, c in enumerate(coeffs)) == 0:
                # synthetic division by (x - r)
                quotient = [0] * (len(coeffs) - 1)
                acc = coeffs[-1]
                for i in range(len(coeffs) - 2, -1, -1):
                    quotient[i] = acc
                    acc = coeffs[i] + acc * r
                roots.append(r)
                coeffs = quotient
                break
        else:
            break
    return roots, coeffs


def spectral_class(matrix: IncidenceMatrix) -> SpectralClass:
    """Classify the dominant eigenvalue of a small integer matrix exactly.

    Rational roots are extracted by divisor enumeration; any remaining
    quadratic factor is solved in closed form.  For a non-negative matrix
    the spectral radius is itself an eigenvalue, so the dominant value is
    the largest real root.
    """
    n, _ = matrix.shape
    if not matrix.is_square or n not in (2, 3):
        raise ValueError("spectral classification requires a square 2x2 or 3x3 matrix")
    coeffs = matrix.charpoly()
    int_roots, remaining = _integer_roots(coeffs)
    real_roots: list[QuadraticNumber] = [QuadraticNumber(r) for r in int_roots]
    quadratic_factor = None
    quadratic_pair: tuple[QuadraticNumber, QuadraticNumber] | None = None
    if len(remaining) == 3:
        q, p, _ = remaining
        quadratic_factor = (q, p)
        disc = p * p - 4 * q
        if disc > 0:
            root = (sqrt_int(disc) - p) / 2
            quadratic_pair = (root, root.conjugate())
            real_roots.extend(quadratic_pair)
    elif len(remaining) == 4:
        # irreducible cubic: no rational or quadratic eigenvalues at all
        return SpectralClass(
            coeffs, "cubic", None, None, (), None, matrix.determinant()
        )

    dominant = real_roots[0]
    for root in real_roots[1:]:
        if root > dominant:
            dominant = root
    if dominant.radicand is None:
        classification = "rational"
        conjugate = None
    else:
        q, p = quadratic_factor
        classification = "quadratic-unit" if abs(q) == 1 else "quadratic-nonunit"
        conjugate = dominant.conjugate()
    return SpectralClass(
        coeffs,
        classification,
        dominant,
        conjugate,
        tuple(int_roots),
        quadratic_factor,
        matrix.determinant(),
    )


def left_eigenvector(matrix: IncidenceMatrix, eigenvalue) -> tuple[QuadraticNumber, ...]:
    """An exact nonzero row vector v with v @ M = eigenvalue * v.

    Valid for simple eigenvalues of 2x2 and 3x3 matrices (kernel of
    dimension one); computed by cross products of the rows of the
    transposed, shifted matrix.
    """
    lam = as_quadratic(eigenvalue)
    n, _ = matrix.shape
    if not matrix.is_square or n not in (2, 3):
        raise ValueError("eigenvectors implemented for square 2x2 and 3x3 matrices")
    # rows of (M^T - lam I)
    rows = [
        [QuadraticNumber(matrix.rows[j][i]) - (lam if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    if n == 2:
        for a, b in rows:
            if a != 0 or b != 0:
                return (-b, a)
        return (QuadraticNumber(1), QuadraticNumber(0))
    for i in range(3):
        for j in range(i + 1, 3):
            r, s = rows[i], rows[j]
            cross = (
                r[1] * s[2] - r[2] * s[1],
                r[2] * s[0] - r[0] * s[2],
                r[0] * s[1] - r[1] * s[0],
            )
            if any(c != 0 for c in cross):
                return cross
    raise ValueError("eigenvalue has a kernel of dimension above one")


def translation_image(matrix: IncidenceMatrix, params) -> tuple[QuadraticNumber, ...]:
    """The image M @ t of the translation vector t = (1-e, 1-2e, -e)."""
    if matrix.shape != (3, 3):
        raise ValueError("translation image requires a 3x3 matrix")
    eps = as_quadratic(getattr(params, "epsilon", params))
    t = (1 - eps, 1 - 2 * eps, -eps)
    return matrix.column_apply(t)
