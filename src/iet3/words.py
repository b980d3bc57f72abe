"""Finite-word analytics: factors, complexity, balance, height sequences.

Words are thin immutable wrappers around strings with a declared alphabet
of single characters.  Complexity and balance are computed exhaustively over the
given finite window — the counts are exact, and a separate reliability
cutoff records how far the finite sample can be trusted as a census of
the underlying infinite word.

Factor complexity works on integer ranks, not on string slices: each
factor of length n is a dense label built from the label of its length
n-1 prefix and its last letter (rank refinement), so counting every
length up to n_max is O(n_max * N) integer work on numpy arrays.  The
cutoff is read off the same labels: the counts are trusted up to the
last length at which the factors of the word's first half still carry
every label.

Prefix heights live on the lattice Z + Z*epsilon: a binary prefix V sits
at |V|_0 - |V|*e and a ternary prefix w at (#A+#B) - (|w|+#B)*e, so
``height_f`` and ``height_g`` return ``LatticePoints`` over two int64
prefix-sum arrays (p, q).  The value p - q*e is (a + b*sqrt(d))/n, the
numerator form of ``QuadraticNumber``, with integers a, b over the common
denominator n of a ``qfield.Frame`` holding 1 and -e.  Minima and maxima
are array kernels (``_kernels``): a float64 pass with a rigorous error
bound keeps only the indices whose value can reach the extreme, and exact
signs of integer differences, from the float where its bound clears zero
and from ``qfield.int_sign`` where it does not, pick the first extreme
index among them.  Numerator arrays are int64 when no value can reach
2**62 and Python ints in an object array otherwise.  ``QuadraticNumber``
values are built only when a height is read, for output or for a single
comparison.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .qfield import Frame, as_quadratic

__all__ = [
    "BINARY",
    "BINARY_STEPS",
    "TERNARY",
    "TERNARY_STEPS",
    "BalanceReport",
    "ComplexityProfile",
    "LatticePoints",
    "Word",
    "balance",
    "check_alphabet",
    "complexity",
    "first_unbalanced_length",
    "height_f",
    "height_g",
    "imbalance_witness",
]

TERNARY = ("A", "B", "C")
BINARY = ("0", "1")


def check_alphabet(alphabet: Iterable[str]) -> tuple[str, ...]:
    """The alphabet as a tuple, or a ValueError naming an entry that is not
    a single character: letters are characters, and the balance and
    complexity kernels read each one as a single code point."""
    alphabet = tuple(alphabet)
    for a in alphabet:
        if not isinstance(a, str) or len(a) != 1:
            raise ValueError(f"alphabet entry {a!r} is not a single character")
    return alphabet


class Word:
    """A finite word over a declared ordered alphabet of single characters."""

    __slots__ = ("letters", "alphabet")

    def __init__(self, letters, alphabet: Sequence[str] | None = None):
        if isinstance(letters, Word):
            text = letters.letters
            alphabet = alphabet or letters.alphabet
        elif isinstance(letters, str):
            text = letters
        else:
            text = "".join(letters)
        if alphabet is None:
            present = set(text)
            if present <= set(TERNARY):
                alphabet = TERNARY
            elif present <= set(BINARY):
                alphabet = BINARY
            else:
                raise ValueError(
                    f"cannot infer an alphabet for letters {sorted(present)!r}"
                )
        alphabet = check_alphabet(alphabet)
        bad = set(text) - set(alphabet)
        if bad:
            raise ValueError(f"letters {sorted(bad)!r} outside alphabet {alphabet}")
        object.__setattr__(self, "letters", text)
        object.__setattr__(self, "alphabet", alphabet)

    @classmethod
    def _trusted(cls, text: str, alphabet: tuple[str, ...]) -> "Word":
        """The word of checked letters, without checking them again.

        The caller guarantees what ``__init__`` checks: ``alphabet`` is a
        tuple of single characters and every letter of ``text`` is one of
        them, as for a slice of a word or a morphism's image.
        """
        word = object.__new__(cls)
        object.__setattr__(word, "letters", text)
        object.__setattr__(word, "alphabet", alphabet)
        return word

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __len__(self):
        return len(self.letters)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Word._trusted(self.letters[index], self.alphabet)
        return self.letters[index]

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other):
        if isinstance(other, Word):
            return self.letters == other.letters and self.alphabet == other.alphabet
        if isinstance(other, str):
            return self.letters == other
        return NotImplemented

    def __hash__(self):
        return hash((self.letters, self.alphabet))

    def __str__(self):
        return self.letters

    def __repr__(self):
        shown = self.letters if len(self) <= 40 else self.letters[:37] + "..."
        return f"Word({shown!r}, alphabet={self.alphabet})"

    def count(self, letter: str) -> int:
        return self.letters.count(letter)

    def is_over(self, alphabet: Sequence[str]) -> bool:
        return set(self.letters) <= set(alphabet)


def _as_word(w, alphabet=None) -> Word:
    return w if isinstance(w, Word) and alphabet is None else Word(w, alphabet)


# -- factor complexity ---------------------------------------------------------


@dataclass(frozen=True)
class ComplexityProfile:
    """Exact factor counts C(n) of a finite sample, with a trust cutoff.

    ``reliable_up_to`` is the largest r such that the counts for every
    n <= r agree between the sampled word and its first half — lengths
    past the cutoff may still be undercounted by the finite window.
    """

    counts: tuple[int, ...]
    reliable_up_to: int

    def count(self, n: int) -> int:
        return self.counts[n]

    @property
    def n_max(self) -> int:
        return len(self.counts) - 1


def complexity(w, n_max: int) -> ComplexityProfile:
    """Count distinct factors of each length 0..n_max in the word.

    One pass of rank refinement (Manber and Myers, 1993): ``rank[i]`` is a
    dense label of the length-n factor at position i, and the length-(n+1)
    factor there is keyed by ``rank[i] * sigma + code[i + n]`` for an
    alphabet of sigma letters.  Marking the keys in a boolean table of
    C(n) * sigma cells and taking its cumulative sum relabels them densely,
    without sorting, so each length costs O(N) integer work and the whole
    profile O(n_max * N) for a word of N letters.  The label count is C(n).

    The trust cutoff comes from the same ranks: the factors of the first
    half h = N // 2 of the word are those starting at positions below
    h - n + 1, and their count equals C(n) exactly when their ranks cover
    every label.  ``reliable_up_to`` is the last n before the first length
    at which they do not.
    """
    w = _as_word(w)
    if n_max > len(w):
        raise ValueError(f"nMax {n_max} exceeds word length {len(w)}")
    size, half = len(w), len(w) // 2
    # letter codes: the index of each letter among the sorted alphabet
    alphabet = np.array(sorted({ord(a) for a in w.alphabet}), dtype=np.uint32)
    sigma = len(alphabet)
    code = np.searchsorted(
        alphabet, np.frombuffer(w.letters.encode("utf-32-le"), dtype=np.uint32)
    )
    counts = [1]
    reliable = 0
    rank = np.zeros(size, dtype=np.int64)
    for n in range(1, n_max + 1):
        keys = rank[: size - n + 1] * sigma + code[n - 1 :]
        seen = np.zeros(counts[-1] * sigma, dtype=bool)
        seen[keys] = True
        labels = np.cumsum(seen, dtype=np.int64)
        count = int(labels[-1])
        rank = labels[keys] - 1
        counts.append(count)
        if reliable == n - 1 and n <= half:
            covered = np.zeros(count, dtype=bool)
            covered[rank[: half - n + 1]] = True
            if covered.all():
                reliable = n
    return ComplexityProfile(tuple(counts), reliable)


# -- balance -------------------------------------------------------------------


@dataclass(frozen=True)
class BalanceReport:
    """Per-letter, per-length imbalance maxima over all factor pairs."""

    table: Mapping[str, tuple[int, ...]]
    window: int

    def imbalance(self, letter: str, n: int) -> int:
        return self.table[letter][n]

    @property
    def max_imbalance(self) -> int:
        return max((max(row) for row in self.table.values()), default=0)


def _letter_prefix_sums(w: Word, letter: str) -> np.ndarray:
    """Occurrences of one letter in every prefix of the word, the empty one first.

    Letters are compared as uint8 codes when the word is ASCII and as
    utf-32 code points otherwise; the sums are int32 whenever no count can
    reach 2**31, which halves the memory each length's differences stream.
    """
    text = w.letters
    if text.isascii():
        codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    else:
        codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    sums = np.zeros(len(text) + 1, dtype=np.int32 if len(text) < 2**31 else np.int64)
    np.cumsum(codes == ord(letter), out=sums[1:])
    return sums


def _imbalance_row(sums: np.ndarray, window: int) -> Iterator[int]:
    """Imbalance of factor lengths 1..window, one length at a time."""
    for n in range(1, window + 1):
        counts = sums[n:] - sums[:-n]
        yield int(counts.max() - counts.min())


def _imbalance_rows(w: Word, window: int) -> dict[str, Iterator[int]]:
    """Lazy imbalance rows, one per letter that needs its own.

    Over a two-letter alphabet one row serves both letters: a factor of
    length n holds n minus its count of the other letter, so the two rows
    are equal and only the second letter's is computed.
    """
    letters = w.alphabet[1:] if len(w.alphabet) == 2 else w.alphabet
    return {a: _imbalance_row(_letter_prefix_sums(w, a), window) for a in letters}


def balance(w, n_max: int) -> BalanceReport:
    """Exhaustive imbalance maxima ||w|_a - |w'|_a| for lengths <= n_max."""
    w = _as_word(w)
    window = min(n_max, len(w))
    table = {a: (0, *row) for a, row in _imbalance_rows(w, window).items()}
    if len(w.alphabet) == 2:
        table = dict.fromkeys(w.alphabet, table[w.alphabet[1]])
    return BalanceReport(table, window)


def first_unbalanced_length(w, n_max: int) -> int | None:
    """The least factor length n <= n_max at which some letter's imbalance
    is 2 or more, or None when no length up to min(n_max, len(w)) has one.

    It reads the rows of ``balance`` one length at a time and stops at the
    first unbalanced length.  A minimal unbalanced pair is 0p0 / 1p1 with
    p a palindrome (Lothaire, *Algebraic Combinatorics on Words*, 2002,
    section 2.1), so most unbalanced words stop after a few lengths.
    """
    w = _as_word(w)
    rows = _imbalance_rows(w, min(n_max, len(w))).values()
    for n, imbalances in enumerate(zip(*rows), start=1):
        if max(imbalances) >= 2:
            return n
    return None


def imbalance_witness(w, letter: str, n: int) -> tuple[int, int, str, str]:
    """A factor pair of length n achieving the extreme counts of a letter.

    Returns (position_max, position_min, factor_max, factor_min); a letter
    outside the word's alphabet raises KeyError and a length outside
    1..len(w) raises ValueError.
    """
    w = _as_word(w)
    if letter not in w.alphabet:
        raise KeyError(letter)
    if not 1 <= n <= len(w):
        raise ValueError(f"factor length {n} outside 1..{len(w)}")
    s = _letter_prefix_sums(w, letter)
    counts = s[n:] - s[:-n]
    i = int(counts.argmax())
    j = int(counts.argmin())
    return i, j, w.letters[i : i + n], w.letters[j : j + n]


# -- height sequences ----------------------------------------------------------


class LatticePoints(Sequence):
    """Field values p*g + q*h at integer pairs (p, q), built only when read.

    g and h are the first two elements of ``frame``, and ``p`` and ``q``
    are equal-length int64 arrays.  Extremes and keys work on the integer
    numerators of the frame, so a scan builds no
    ``QuadraticNumber``; indexing or iterating builds one per value read.
    Distinct pairs can be the same number (for rational epsilon = r/s the
    pairs (p, q) and (p + r, q + s) are), so equality and hashing go by
    value, and ``key`` is the value's canonical integer form.
    """

    __slots__ = ("frame", "p", "q", "_keys")

    def __init__(self, frame: Frame, p: np.ndarray, q: np.ndarray):
        self.frame = frame
        self.p = p
        self.q = q
        self._keys = None

    @classmethod
    def prefix_sums(
        cls, frame: Frame, letters: str, steps: Mapping[str, tuple[int, int]]
    ) -> "LatticePoints":
        """Pairs of every prefix of the word, the empty one first, where
        each letter moves the pair by its integer step (dp, dq)."""
        codes = np.frombuffer(letters.encode("ascii"), dtype=np.uint8)
        columns = []
        for k in (0, 1):
            table = np.zeros(256, dtype=np.int64)
            for letter, step in steps.items():
                table[ord(letter)] = step[k]
            sums = np.zeros(len(codes) + 1, dtype=np.int64)
            np.cumsum(table[codes], out=sums[1:])
            columns.append(sums)
        return cls(frame, *columns)

    def __len__(self):
        return len(self.p)

    def key(self, i: int) -> tuple[int, int]:
        """Numerator of value i over the frame's common denominator."""
        (ga, gb), (ha, hb) = self.frame.rows[:2]
        p, q = int(self.p[i]), int(self.q[i])
        return p * ga + q * ha, p * gb + q * hb

    def keys(self, indices=None) -> tuple[np.ndarray, np.ndarray]:
        """Numerators of the values at ``indices`` (all when None), as arrays.

        They are int64 when no numerator can reach 2**62 in magnitude, and
        Python ints in an object array otherwise.  Computed once, on first use.
        """
        if self._keys is None:
            (ga, gb), (ha, hb) = self.frame.rows[:2]
            reach = max(np.abs(self.p).max(initial=0), np.abs(self.q).max(initial=0))
            row = max(abs(ga), abs(gb), abs(ha), abs(hb))
            # the rows multiply the arrays, so they must fit as well, even
            # when every pair is (0, 0)
            dtype = _kernels.int_dtype(2 * row * max(int(reach), 1))
            p, q = self.p.astype(dtype), self.q.astype(dtype)
            self._keys = (p * ga + q * ha, p * gb + q * hb)
        a, b = self._keys
        return (a, b) if indices is None else (a[indices], b[indices])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return LatticePoints(self.frame, self.p[index], self.q[index])
        return self.frame.value(self.key(index))

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(x == y for x, y in zip(self, other))

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return f"LatticePoints(<{len(self)} values>)"

    def _extreme(self, indices, least: bool) -> int | None:
        if isinstance(indices, np.ndarray):
            if indices.dtype == bool:
                indices = np.flatnonzero(indices)
        elif indices is not None:
            indices = np.fromiter(indices, dtype=np.intp)
        a, b = self.keys(indices)
        # the greatest value is the least of the negated ones
        at = _kernels.argmin(*((a, b) if least else (-a, -b)), self.frame.radicand)
        return at if at is None or indices is None else int(indices[at])

    def argmin(self, indices: Iterable[int] | np.ndarray | None = None) -> int | None:
        """First index (of all, of ``indices`` or of a boolean mask) holding
        the least value."""
        return self._extreme(indices, True)

    def argmax(self, indices: Iterable[int] | np.ndarray | None = None) -> int | None:
        """First index (of all, of ``indices`` or of a boolean mask) holding
        the greatest value."""
        return self._extreme(indices, False)


#: integer step (dp, dq) of each letter for heights p - q*epsilon: a binary
#: letter adds 1-e or -e, and A, B, C add their translations 1-e, 1-2e, -e
BINARY_STEPS = {"0": (1, 1), "1": (0, 1)}
TERNARY_STEPS = {"A": (1, 1), "B": (1, 2), "C": (0, 1)}


def _heights(letters: str, epsilon, steps) -> LatticePoints:
    frame = Frame((1, -as_quadratic(epsilon)))
    return LatticePoints.prefix_sums(frame, letters, steps)


def height_f(v, epsilon) -> LatticePoints:
    """Heights |V|_0*(1-e) - |V|_1*e of every prefix V of a binary word."""
    v = _as_word(v)
    if not v.is_over(BINARY):
        raise ValueError("height_f is defined for binary words")
    return _heights(v.letters, epsilon, BINARY_STEPS)


def height_g(u, params) -> LatticePoints:
    """Per-prefix displacement sums |w|_A*t_A + |w|_B*t_B + |w|_C*t_C.

    When u codes the orbit of 0 under the three-interval exchange with
    the given parameters, the n-th value is exactly the n-th orbit point.
    """
    u = _as_word(u)
    if not u.is_over(TERNARY):
        raise ValueError("height_g is defined for ternary words")
    return _heights(u.letters, getattr(params, "epsilon", params), TERNARY_STEPS)
