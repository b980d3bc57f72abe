"""Finite-word analytics: factors, complexity, balance, height sequences.

Words are thin immutable wrappers around strings with a declared alphabet
of single characters.  Complexity and balance are computed exhaustively over the
given finite window — the counts are exact, and a separate reliability
cutoff records how far the finite sample can be trusted as a census of
the underlying infinite word.

Neither analysis makes a pass per factor length.  Factor complexity
comes from one sort of the suffixes cut to n_max letters, packed into
int64 keys (Manber and Myers, 1993): C(n) is the number of factor
positions less the number of sorted neighbours sharing n letters or more,
so every length up to n_max costs one O(N log N) sort, with a
prefix-doubling round on dense ranks for each doubling of n_max past the
letters one key holds.  The cutoff is the last length at which the
word's first half, counted the same way, still shows every factor.
Balance takes one of two paths.  A word over two letters is first tested
for balance exactly, by a desubstitution of whole-array passes; a
balanced one, a factor of a mechanical word (Lothaire, *Algebraic
Combinatorics on Words*, 2002, §2.1), has imbalance 0 at each period
and 1 at every other length, so its row is read off its periods.  Every
other word reads each letter's row off its occurrence gaps (Burcsi,
Cicalese, Fici and Lipták, 2012): the shortest factor holding k
occurrences and the longest holding at most k give the largest and the
least count at every length.  Both are row extremes of the differences
of the occurrences at lag k + 1, taken for a block of lags at a time
from one strided view, so no Python loop runs per count.

Prefix heights live on the lattice Z + Z*epsilon: a binary prefix V sits
at |V|_0 - |V|*e and a ternary prefix w at (#A+#B) - (|w|+#B)*e, so
``height_f`` and ``height_g`` return ``LatticePoints`` over two int64
prefix-sum arrays (p, q), both read from one cumulative sum of packed
steps dp << 32 | dq.  The value p - q*e is (a + b*sqrt(d))/n, the
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

import functools
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import product

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
        """Whether every letter is one of ``alphabet``'s single characters.

        A word's letters lie in its declared alphabet, so a declared
        alphabet inside ``alphabet`` answers at once; otherwise one
        ``str.strip`` scans the letters.
        """
        if set(self.alphabet) <= set(alphabet):
            return True
        return not self.letters.strip("".join(alphabet))


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


def _letter_codes(text: str) -> np.ndarray:
    """The code point of every letter: uint8 for an ASCII text, uint32 otherwise."""
    if text.isascii():
        return np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    return np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)


#: k for each residue (2**k - 1) % 67, k = 0..63: the powers of two are
#: distinct modulo 67, as 2 has order 66 there
_ONES_LENGTH = np.zeros(67, dtype=np.int64)
_ONES_LENGTH[[(2**k - 1) % 67 for k in range(64)]] = np.arange(64)


def _bit_lengths(x: np.ndarray) -> np.ndarray:
    """Bit length of each non-negative int64: the top bit is smeared into
    every lower bit, and the resulting 2**k - 1 names k modulo 67."""
    x = x.copy()
    for shift in (1, 2, 4, 8, 16, 32):
        x |= x >> shift
    return _ONES_LENGTH[x % 67]


def _dense_ranks(keys: np.ndarray, pad: int) -> np.ndarray:
    """1 + the rank of each key among the distinct keys, then ``pad`` zeros."""
    order = np.argsort(keys)
    ordered = keys[order]
    rank = np.ones(len(keys), dtype=np.int64)
    np.not_equal(ordered[1:], ordered[:-1], out=rank[1:])
    np.cumsum(rank, out=rank)
    ranks = np.zeros(len(keys) + pad, dtype=np.int32 if len(keys) < 2**31 else np.int64)
    ranks[order] = rank
    return ranks


def _shared_prefix_counts(code: np.ndarray, sigma: int, n_max: int) -> np.ndarray:
    """How many neighbours in the sorted order of the word's suffixes, cut
    to n_max letters, share their first n letters, for n = 0..n_max.

    ``code`` holds the letter indices 0..sigma-1.  Each suffix is read as
    one int64 key of ``width`` letters, ``bits`` bits each, built by
    doubling the number of letters per key.  When the letters leave a code
    unused they take 1..sigma and the end of the word reads as 0, which
    ends every short suffix; otherwise the key's low bits hold the suffix
    length, so that a short suffix sorts before the keys its zero padding
    ties with.  Two sorted neighbours then share as many letters as their
    XOR has leading zero letters, capped by their lengths.

    Past ``width`` letters, prefix-doubling rounds (Manber and Myers, 1993)
    replace the keys by dense ranks and pair the rank of each block with
    the rank of the block that follows it, until the blocks hold n_max
    letters.  The neighbours' shared prefix is then found from the widest
    block down: a block with equal ranks is skipped whole, and the letters
    of the first unequal one are compared in their packed keys.
    """
    size = len(code)
    bits = max(1, (sigma - 1).bit_length())
    end_code = sigma < 1 << bits
    width = min(n_max, 63 // bits)
    if not end_code:
        while bits * width + width.bit_length() > 63:
            width -= 1
    width = max(width, 1)
    length_bits = 0 if end_code else width.bit_length()
    packed = np.zeros(size + width, dtype=np.int64)
    head = packed[:size]
    head[:] = code
    head += end_code
    span = 1
    while span < width:
        step = min(span, width - span)
        tail = packed[span : size + span] >> bits * (span - step)
        head <<= bits * step
        head |= tail
        span += step
    if length_bits:
        head <<= length_bits
        head |= np.minimum(np.arange(size, 0, -1), width)
    levels = []
    keys = head
    while span < n_max:
        ranks = _dense_ranks(keys, span)
        levels.append((ranks, span))
        keys = ranks[:size].astype(np.int64) * (int(ranks.max()) + 1)
        keys += ranks[span : size + span]
        span *= 2
    # sorted neighbours with equal keys share all n_max letters; the others
    # are few on a word of low complexity
    if levels:
        order = np.argsort(keys)
        apart = np.flatnonzero(keys[order[:-1]] != keys[order[1:]])
        first, second = order[apart], order[apart + 1]
        shift = np.zeros(len(apart), dtype=np.int64)
        for ranks, span in reversed(levels):
            shift += span * (ranks[first + shift] == ranks[second + shift])
        low, high = packed[first + shift], packed[second + shift]
    else:
        ordered = np.sort(keys)
        apart = np.flatnonzero(ordered[:-1] != ordered[1:])
        low, high, shift = ordered[apart], ordered[apart + 1], 0
    differing = _bit_lengths((low ^ high) >> length_bits)
    shared = width - (differing + bits - 1) // bits
    if length_bits:
        mask = (1 << length_bits) - 1
        shared = np.minimum(shared, np.minimum(low & mask, high & mask))
    shared = np.bincount(np.minimum(shared + shift, n_max), minlength=n_max + 1)
    shared[n_max] += max(size - 1, 0) - len(apart)
    return np.cumsum(shared[::-1])[::-1]


def _factor_counts(code: np.ndarray, sigma: int, n_max: int) -> np.ndarray:
    """C(0..n_max): the length-n factors start at N - n + 1 positions, and
    sorted neighbours sharing n letters repeat one of them."""
    counts = len(code) + 1 - np.arange(n_max + 1)
    counts -= _shared_prefix_counts(code, sigma, n_max)
    counts[0] = 1
    return counts


def complexity(w, n_max: int) -> ComplexityProfile:
    """Count distinct factors of each length 0..n_max in the word.

    The whole profile comes from one sort of the suffixes cut to n_max
    letters (Manber and Myers, 1993): C(n) is N - n + 1, the number of
    length-n factor positions in a word of N letters, less the number of
    sorted neighbours whose longest common prefix is n letters or more.
    The suffixes are packed into int64 keys of as many letters as fit (57
    binary letters, 31 ternary ones), and prefix-doubling rounds on dense
    ranks take over past that width; see ``_shared_prefix_counts``.  While
    n_max letters fit one key the cost is one O(N log N) sort and
    O(N log n_max) packing, and each doubling of n_max past that adds one
    more sort, against O(n_max * N) for counting one length at a time.
    Only the sorted neighbours that differ within n_max letters are
    compared letter by letter, and on a word of low complexity they are
    few: C(n_max) + n_max - 2 at most.

    The trust cutoff is ``reliable_up_to``: the last n, from 1 up, at which
    the profile of the first half h = N // 2 of the word, computed the same
    way, still equals C(n), i.e. the first half already shows every factor.
    """
    w = _as_word(w)
    if n_max > len(w):
        raise ValueError(f"nMax {n_max} exceeds word length {len(w)}")
    alphabet = sorted({ord(a) for a in w.alphabet})
    letters = np.array(alphabet, dtype=np.uint32)
    code = np.searchsorted(letters, _letter_codes(w.letters))
    counts = _factor_counts(code, len(alphabet), max(n_max, 0))
    half = len(w) // 2
    top = max(min(n_max, half), 0)
    own = _factor_counts(code[:half], len(alphabet), top)
    differ = np.flatnonzero(own[1:] != counts[1 : top + 1])
    reliable = int(differ[0]) if len(differ) else top
    return ComplexityProfile(tuple(counts.tolist()), reliable)


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
    """Occurrences of one letter in every prefix of the word, the empty one
    first, as int32 sums whenever no count can reach 2**31."""
    sums = np.zeros(len(w) + 1, dtype=np.int32 if len(w) < 2**31 else np.int64)
    np.cumsum(_letter_codes(w.letters) == ord(letter), out=sums[1:])
    return sums


def _row_letters(w: Word) -> dict[str, np.ndarray]:
    """The positions of each letter that needs its own imbalance row.

    Over a two-letter alphabet one row serves both letters: a factor of
    length n holds n minus its count of the other letter, so the two rows
    are equal, and the rarer letter's row is the cheaper one.
    """
    codes = _letter_codes(w.letters)
    positions = {a: np.flatnonzero(codes == ord(a)) for a in w.alphabet}
    if len(positions) == 2:
        rarer = min(positions, key=lambda a: len(positions[a]))
        return {rarer: positions[rarer]}
    return positions


#: about how many gap differences one block of ``_gap_row`` computes: a
#: letter with few occurrences takes several lags per block
GAP_PASS_CELLS = 2**16


def _gap_row(positions: np.ndarray, size: int, window: int) -> np.ndarray:
    """The imbalance at factor lengths 0..window of a letter at the given
    m positions in a word of ``size`` >= ``window`` letters.

    S(j) is the shortest factor holding j occurrences of the letter and
    G(k) the longest holding at most k (Burcsi, Cicalese, Fici and Lipták,
    "Algorithms for jumbled pattern matching in strings", 2012).  A factor
    of length n holds at most #{j >= 1 : S(j) <= n} occurrences and at
    least #{k >= 0 : G(k) < n}; the row is their difference.  Both come
    from the differences of the positions at lag k + 1, with -1 and
    ``size`` as sentinels on either side: G(k) is the largest difference
    less one, and S(k + 2) the smallest between two occurrences plus one.
    S(k + 2) >= k + 2 and G(k) >= min(k, size), so no lag past the window
    is needed, and both grow with k, so the lags stop once G reaches the
    window and S passes it: about as many lags as the letter has
    occurrences in a factor of ``window`` letters.

    Each block of as many consecutive lags as fit in ``GAP_PASS_CELLS``
    differences, at least one, is one strided view of the positions less
    the positions.  Its row maxima are G.  The columns before the last
    ``count`` lie between two occurrences in every row; the last ``count``
    are read again from a copy whose entries past the last occurrence are
    above every gap, so that the row minima are S, or above the window
    when the letter occurs fewer than k + 2 times.
    """
    m = len(positions)
    lags = min(m + 1, max(window, 0))
    block = max(1, min(lags, GAP_PASS_CELLS // (m + 2)))
    beyond = 2 * size  # less any position, past the window; int32 while it fits
    dtype = np.int32 if beyond < 2**31 else np.int64
    # copies of the end sentinel past it give differences no larger than
    # the last real one, so they never raise a maximum
    padded = np.full(m + 1 + block, size, dtype=dtype)
    padded[0], padded[1 : m + 1] = -1, positions
    far = padded.copy()
    far[m + 1 :] = beyond
    step = padded.strides[0]
    shortest, longest = [np.ones(min(m, 1), dtype)], [np.empty(0, dtype)]
    for first in range(1, lags + 1, block):
        count, columns = min(block, lags + 1 - first), m + 2 - first
        # row b holds the differences at lag first + b
        lagged = np.ndarray((count, columns), dtype, padded, first * step, (step, step))
        gaps = lagged - padded[:columns]
        most = gaps.max(axis=1) - 1
        split = max(columns - count, 1)
        # the only columns that reach past the last occurrence, read again
        ends = np.ndarray(
            (count, columns - split), dtype, far, (first + split) * step, (step, step)
        )
        np.subtract(ends, padded[split:columns], out=gaps[:, split:])
        least = gaps[:, 1:].min(axis=1, initial=beyond) + 1
        longest.append(most[most < window])
        shortest.append(least[least <= window])
        if most[-1] >= window and least[-1] > window:
            break
    lengths = np.arange(max(window, 0) + 1)
    row = np.searchsorted(np.concatenate(shortest), lengths, "right")
    row -= np.searchsorted(np.concatenate(longest), lengths, "left")
    return row


def _is_balanced(x: np.ndarray) -> bool:
    """Whether the binary word of the bool array ``x`` is balanced.

    One level of a desubstitution per round, each a few whole-array
    passes.  In a balanced word one letter never doubles; the gaps between
    its occurrences take two consecutive values d and d + 1, and the runs
    before the first and after the last are no longer than d.  The word is
    balanced exactly when the word of its gaps, long (d + 1) or short, is,
    with a long gap added at an end whose run has d letters: no short gap
    fits there.  A letter that never doubles is never more frequent than
    one that does, so when the rarer letter doubles both do, and the
    rarer letter is the one to read; on a tie the other may be.  Each
    round keeps at most about half the letters of the one before, so the
    rounds take O(N) work in all.
    """
    while True:
        size, ones = len(x), int(np.count_nonzero(x))
        p = (x if 2 * ones <= size else ~x).nonzero()[0]
        if len(p) < 2:
            return True
        gaps = p[1:] - p[:-1]
        d = int(gaps.min())
        if d == 1 and 2 * ones == size:
            p = (~x).nonzero()[0]
            gaps = p[1:] - p[:-1]
            d = int(gaps.min())
        if d == 1:
            return False  # both letters double
        most, head, tail = int(gaps.max()), int(p[0]), size - 1 - int(p[-1])
        if most > d + 1 or head > d or tail > d:
            return False
        if most == d:
            return True
        x = gaps > d
        if head == d or tail == d:
            ends = np.ones(2, dtype=bool)
            x = np.concatenate((ends[: head == d], x, ends[: tail == d]))


#: letters of the prefix that ``_period_row`` looks for in the word
PERIOD_PROBE = 64


def _period_row(text: str, window: int) -> list[int]:
    """The imbalance row of a balanced word at lengths 0..window: 0 at a
    period n, whose length-n factors all hold the same counts because
    text[i] == text[i + n] for every i, and 1 at any other length.

    A period n repeats the probe, the word's first ``PERIOD_PROBE``
    letters, at n, so only the places where ``str.find`` meets the probe
    are compared in full, and the lengths too near the end to hold it are
    compared directly.  When the word has at least 2 * window letters,
    the least period p up to the window decides all of them (Fine and
    Wilf): a period q up to the window has p + q <= N, so gcd(p, q) is a
    period and p divides q.
    """
    size = len(text)
    row = [1] * (max(window, 0) + 1)
    row[0] = 0
    probe = text[:PERIOD_PROBE]
    end = window + len(probe)
    n = text.find(probe, 1, end)
    while n != -1:
        if text[n:] == text[: size - n]:
            if 2 * window <= size:
                row[n::n] = [0] * (window // n)
                return row
            row[n] = 0
        n = text.find(probe, n + 1, end)
    for n in range(max(size - len(probe) + 1, 1), window + 1):
        if text[n:] == text[: size - n]:
            row[n] = 0
    return row


def balance(w, n_max: int) -> BalanceReport:
    """Exhaustive imbalance maxima ||w|_a - |w'|_a| for lengths <= n_max.

    A word over two distinct letters that ``_is_balanced`` accepts takes
    its row from its periods (``_period_row``): every length holds
    imbalance 0 at a period and 1 elsewhere.  That is O(N) array work for
    the recognition and a few string searches and compares, with no pass
    per length or per count.

    Any other word, an unbalanced binary one or one over another alphabet,
    reads the row of each letter off the occurrence gaps of the letter
    (``_gap_row``): O(m) work for each count of the letter that a factor
    of up to n_max letters can hold, where m is the number of occurrences,
    one lag of the occurrence differences per count, in whole-array blocks
    of lags.  For a letter spread evenly over a word of N letters that is
    O(m^2 * n_max / N), against O(n_max * N) for one pass per length, and
    never more than n_max lags.  A two-letter alphabet needs only its
    rarer letter's row.
    """
    w = _as_word(w)
    window = min(n_max, len(w))
    if len(set(w.alphabet)) == 2:
        x = _letter_codes(w.letters) == ord(w.alphabet[1])
        if _is_balanced(x):
            row = tuple(_period_row(w.letters, window))
            return BalanceReport(dict.fromkeys(w.alphabet, row), window)
    table = {
        a: tuple(_gap_row(positions, len(w), window).tolist())
        for a, positions in _row_letters(w).items()
    }
    if len(w.alphabet) == 2:
        table = dict.fromkeys(w.alphabet, *table.values())
    return BalanceReport(table, window)


#: the longest pair 0p0 / 1p1 that ``first_unbalanced_length`` looks for
#: as a substring before it reads occurrence gaps
PAIR_LENGTH = 8


@functools.lru_cache(maxsize=16)
def _unbalanced_pairs(a: str, b: str) -> tuple[tuple[int, str, str], ...]:
    """(n, apa, bpb) for every palindrome p over {a, b} with n = |p| + 2 at
    most ``PAIR_LENGTH``, by increasing n."""
    pairs = []
    for n in range(2, PAIR_LENGTH + 1):
        half, middle = divmod(n - 2, 2)
        for left in product(a + b, repeat=half):
            for centre in (a, b) if middle else ("",):
                p = "".join(left) + centre + "".join(reversed(left))
                pairs.append((n, a + p + a, b + p + b))
    return tuple(pairs)


def _least_pair_length(text: str, a: str, b: str, n_max: int) -> int | None:
    """The least n <= min(n_max, ``PAIR_LENGTH``) at which text over {a, b}
    holds a pair apa and bpb of ``_unbalanced_pairs``, else None."""
    for n, left, right in _unbalanced_pairs(a, b):
        if n > n_max:
            break
        if left in text and right in text:
            return n
    return None


def first_unbalanced_length(w, n_max: int) -> int | None:
    """The least factor length n <= n_max at which some letter's imbalance
    is 2 or more, or None when no length up to min(n_max, len(w)) has one.

    Over a two-letter alphabet {a, b} the lengths up to ``PAIR_LENGTH``
    are decided by substring tests, 29 at most.  A word is unbalanced at
    its least unbalanced length n exactly when it holds a pair apa and
    bpb with p a palindrome of length n - 2 (Lothaire, *Algebraic
    Combinatorics on Words*, 2002, Prop. 2.1.3), and any such pair has
    imbalance 2; length 1 never does.  So over two letters an n_max of
    at most ``PAIR_LENGTH`` is answered by the substring tests alone, as
    at the first level of the search's quick filter.

    Past them, and on a larger alphabet, the answer is the least length
    at which a letter's gap row (``_gap_row``, up to the window) reaches
    2; each further letter's row need only reach the least length found
    so far.  Unlike ``balance`` it does not test for balance first: most
    words it is asked about at the second level of the quick filter, up
    to length 25 on 400 letters, are unbalanced at a short length, where
    the gap rows stop early.
    """
    w = _as_word(w)
    window = min(n_max, len(w))
    decided = 0
    if len(w.alphabet) == 2 and w.alphabet[0] != w.alphabet[1]:
        decided = min(window, PAIR_LENGTH)
        found = _least_pair_length(w.letters, *w.alphabet, decided)
        if found is not None:
            return found
    if window <= decided:
        return None
    found = None
    for positions in _row_letters(w).values():
        unbalanced = np.flatnonzero(_gap_row(positions, len(w), window) >= 2)
        if len(unbalanced):
            found = int(unbalanced[0])
            window = found - 1
    return found


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


#: prefix sums pack a step (dp, dq) as dp << 32 | dq in one int64; sums
#: below this keep dq from carrying into dp and the packed sum below 2**63
PACK_LIMIT = 2**31


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
        each letter moves the pair by its integer step (dp, dq).

        The steps are packed as dp << 32 | dq, so one lookup and one
        cumulative sum move both coordinates; that needs non-negative steps
        and sums below ``PACK_LIMIT``, and other tables are refused.
        """
        codes = np.frombuffer(letters.encode("ascii"), dtype=np.uint8)
        entries = [x for step in steps.values() for x in step]
        if min(entries) < 0 or len(codes) * max(entries) >= PACK_LIMIT:
            raise ValueError(
                f"prefix sums of {len(codes)} letters need non-negative steps "
                f"whose sums stay below 2**{PACK_LIMIT.bit_length() - 1}"
            )
        table = np.zeros(256, dtype=np.int64)
        for letter, (dp, dq) in steps.items():
            table[ord(letter)] = dp << 32 | dq
        sums = np.zeros(len(codes) + 1, dtype=np.int64)
        np.cumsum(table[codes], out=sums[1:])
        p = sums >> 32
        sums &= 0xFFFFFFFF
        return cls(frame, p, sums)

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
        Python ints in an object array otherwise; the bound is
        max|p|*max(|ga|, |gb|) + max|q|*max(|ha|, |hb|), which every product
        and sum stays within.  Computed once, on first use.
        """
        if self._keys is None:
            (ga, gb), (ha, hb) = self.frame.rows[:2]
            p_reach = int(np.abs(self.p).max(initial=0))
            q_reach = int(np.abs(self.q).max(initial=0))
            g, h = max(abs(ga), abs(gb)), max(abs(ha), abs(hb))
            # the rows multiply the arrays, so they must fit as well, even
            # when every pair is (0, 0)
            dtype = _kernels.int_dtype(max(p_reach * g + q_reach * h, g, h))
            p = self.p.astype(dtype, copy=False)
            q = self.q.astype(dtype, copy=False)
            self._keys = (_combine(p, ga, q, ha), _combine(p, gb, q, hb))
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


def _combine(p: np.ndarray, x: int, q: np.ndarray, y: int) -> np.ndarray:
    """p*x + q*y, with no product by a zero coefficient."""
    if not y:
        return p * x
    out = q * y
    if x:
        out += p * x
    return out


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
