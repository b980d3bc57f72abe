"""Reference implementations that ``iet3`` replaced, for differential tests.

``FractionQuadratic`` is the exact number as ``QuadraticNumber`` stored it
before it took reduced integer numerators: a rational and a surd
``Fraction`` and a radicand, with arithmetic on the parts.

Most of the rest are the letter-by-letter field-arithmetic loops that the integer
lattice path replaced: every orbit point and prefix height is a
``QuadraticNumber``, every boundary test a field comparison.  A second set
walks integer frame numerators one letter at a time with one ``int_sign``
call per boundary test, as the orbit codings and lattice extremes did
before they became float-filtered array kernels.  The factor
count takes a set of slices per length, where ``words.complexity`` sorts
the suffixes once, and the integer-root search tries every divisor in
turn.  The canonical text is formatted from ``Fraction`` parts, and the
CLI's orbit array builds one ``QuadraticNumber`` per point.  Primitivity
multiplies incidence matrices power by power.  Balance fills one row per
letter, one prefix-sum difference per length, where ``words.balance``
reads a balanced binary word's row off its periods and any other word's
rows off occurrence gaps, as ``first_unbalanced_length`` does; the rows
also stand in for the latter.  ``is_balanced`` compares the counts of
every factor of every length, where ``words`` desubstitutes whole
arrays.  The fixed-point generator searches powers on whole images and
maps the whole text every round, where
``morphisms`` reads two letters per power, maps only the letters the last
round added and no more of them than the prefix needs, and counts letters
by a descent through the powers without building them.  ``apply_text``
joins one image per letter, where ``Morphism.apply_text`` translates an
ASCII text through a byte table and joins only the others, and
``exchange_letters_of_all_steps`` codes an exchange from all 2n + 1
rotation steps that n letters can need, where
``ThreeIet.code_orbit`` stops at visit n.  The search's stage function decides each
candidate on a validated morphism, with the 400-letter quick filter
alone.  ``candidate_stages`` is the search loop that ``audit._SearchPool``
replaced: it enumerates every candidate and decides it on its own, stages
1 and 2 from per-image tables and both quick-filter levels on prefixes
built by ``fixed_point_prefix``, where the pool counts stages 1 and 2
from group sizes and walks each fixed point once for all the candidates
that share the images it reads.  The audit's scaling relation takes one
integer combination of the frame's rows per prefix, where
``substitution_audit`` makes one array pass.  They are slow and
obviously right, which is what an oracle is for.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np

from iet3.audit import (
    B_AS_01,
    CERTIFICATE_PREFIX,
    QUICK_FILTER,
    RecoveryError,
    three_iet_certificate,
)
from iet3.dynamics import ConstraintError, IetParameters, ThreeIet
from iet3 import morphisms
from iet3.morphisms import IncidenceMatrix, Morphism, _pattern_is_primitive, incidence
from iet3.qfield import (
    FieldMismatchError,
    Frame,
    QuadraticNumber,
    _squarefree_split,
    as_quadratic,
    int_floor,
    int_sign,
)
from iet3.words import TERNARY, Word, first_unbalanced_length


class FractionQuadratic:
    """a + b*sqrt(d) with ``Fraction`` parts a and b; d is None when b is 0."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, rational=0, surd=0, radicand=None):
        a, b, d = Fraction(rational), Fraction(surd), None
        if b:
            k, m = _squarefree_split(radicand)
            b *= k
            if m == 1:
                a, b = a + b, Fraction(0)
            else:
                d = m
        self._a, self._b, self._d = a, b, d

    @classmethod
    def _make(cls, a, b, d):
        return cls(a, b, d) if b else cls(a)

    rational_part = property(lambda self: self._a)
    surd_part = property(lambda self: self._b)
    radicand = property(lambda self: self._d)

    @staticmethod
    def _coerce(other):
        if isinstance(other, FractionQuadratic):
            return other
        if isinstance(other, (int, Fraction)):
            return FractionQuadratic(other)
        return None

    def _common_radicand(self, other):
        if self._d is None:
            return other._d
        if other._d is None or other._d == self._d:
            return self._d
        raise FieldMismatchError(f"cannot mix sqrt({self._d}) with sqrt({other._d})")

    def __add__(self, other):
        o = self._coerce(other)
        d = self._common_radicand(o)
        return self._make(self._a + o._a, self._b + o._b, d)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._coerce(other)
        d = self._common_radicand(o)
        a = self._a * o._a + self._b * o._b * (d or 0)
        return self._make(a, self._a * o._b + self._b * o._a, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        d = self._common_radicand(o)
        if not o:
            raise ZeroDivisionError("division by zero")
        norm = o._a * o._a - o._b * o._b * (d or 0)
        return self * self._make(o._a / norm, -o._b / norm, d)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __neg__(self):
        return self._make(-self._a, -self._b, self._d)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __pow__(self, exponent):
        out = FractionQuadratic(1)
        for _ in range(exponent):
            out = out * self
        return out

    def conjugate(self):
        return self._make(self._a, -self._b, self._d)

    def sign(self):
        a, b = self._a, self._b
        # scale both parts by the positive a.denominator * b.denominator
        return int_sign(
            a.numerator * b.denominator, b.numerator * a.denominator, self._d or 0
        )

    def __bool__(self):
        return bool(self._a) or bool(self._b)

    def __eq__(self, other):
        o = self._coerce(other)
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __hash__(self):
        return hash(self._a) if self._d is None else hash((self._a, self._b, self._d))

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def floor(self):
        a, b = self._a, self._b
        q = math.lcm(a.denominator, b.denominator)
        big_a = a.numerator * (q // a.denominator)
        big_b = b.numerator * (q // b.denominator)
        return int_floor(big_a, big_b, self._d or 0, q)

    def __float__(self):
        value = self._a.numerator / self._a.denominator
        if self._b:
            value += self._b.numerator / self._b.denominator * math.sqrt(self._d)
        return value

    def __str__(self):
        return quadratic_str(self)


def code_exchange(iet: ThreeIet, n: int, right_closed: bool = False):
    """Letters and points of the first n steps of the orbit of 0."""
    letters = []
    points = []
    x = QuadraticNumber(0)
    boundaries = (iet.intervals["A"].hi, iet.intervals["B"].hi)
    shifts = iet.translations
    for _ in range(n):
        points.append(x)
        if right_closed:
            a = iet.letter(x, right_closed=True)
            if a is None:
                raise ValueError(
                    f"orbit point {x} outside right-closed domain "
                    f"({iet.domain.lo}, {iet.domain.hi}]"
                )
        elif x < boundaries[0]:
            a = "A"
        elif x < boundaries[1]:
            a = "B"
        else:
            a = "C"
        letters.append(a)
        x = x + shifts[a]
    return "".join(letters), points


def exchange_letters(iet: ThreeIet, n: int, right_closed: bool = False) -> str:
    """Letters of the first n steps, walking integer numerators over a frame."""
    params = iet.params
    c, eps = params.offset_c, params.epsilon
    frame = Frame((1, -eps, c, c + params.alpha, c + eps, c + params.length_l))
    d = frame.radicand
    (one, _), (ea, eb), lo, cut_a, cut_b, hi = frame.rows
    shifts = {"A": (one + ea, eb), "B": (one + 2 * ea, 2 * eb), "C": (ea, eb)}
    letters = []
    xa = xb = 0
    for _ in range(n):
        if not right_closed:
            if int_sign(xa - cut_a[0], xb - cut_a[1], d) < 0:
                a = "A"
            elif int_sign(xa - cut_b[0], xb - cut_b[1], d) < 0:
                a = "B"
            else:
                a = "C"
        elif (
            int_sign(xa - lo[0], xb - lo[1], d) <= 0
            or int_sign(xa - hi[0], xb - hi[1], d) > 0
        ):
            raise ValueError(
                f"orbit point {frame.value((xa, xb))} outside right-closed "
                f"domain ({iet.domain.lo}, {iet.domain.hi}]"
            )
        elif int_sign(xa - cut_a[0], xb - cut_a[1], d) <= 0:
            a = "A"
        elif int_sign(xa - cut_b[0], xb - cut_b[1], d) <= 0:
            a = "B"
        else:
            a = "C"
        letters.append(a)
        sa, sb = shifts[a]
        xa += sa
        xb += sb
    return "".join(letters)


def exchange_letters_of_all_steps(iet: ThreeIet, n: int, right_closed: bool = False) -> str:
    """The first n letters of the first return of the rotation over 2n + 1
    steps, the most that n + 1 visits can take."""
    return iet._first_return(2 * n + 1, right_closed)[:n]


def rotation_letters(rotation, n: int) -> str:
    """Letters of the first n rotation steps, walking integer numerators."""
    if n > 0 and not (rotation.lo <= 0 < rotation.hi):
        raise ValueError("0 must belong to the rotation domain")
    frame = Frame((rotation.shift_low, rotation.shift_high, rotation.cut))
    d = frame.radicand
    (low_a, low_b), (high_a, high_b), (cut_a, cut_b) = frame.rows
    letters = []
    xa = xb = 0
    for _ in range(n):
        if int_sign(xa - cut_a, xb - cut_b, d) < 0:
            letters.append("0")
            xa += low_a
            xb += low_b
        else:
            letters.append("1")
            xa += high_a
            xb += high_b
    return "".join(letters)


def extreme(values, indices, wanted: int):
    """First index (of all, or of ``indices``) whose value beats every earlier
    one in the direction ``wanted`` (-1 least, +1 greatest), by int_sign."""
    (ga, gb), (ha, hb) = values.frame.rows[:2]
    d = values.frame.radicand
    ps, qs = [int(x) for x in values.p], [int(x) for x in values.q]
    it = iter(range(len(ps)) if indices is None else indices)
    best = next(it, None)
    if best is None:
        return None
    bp, bq = ps[best], qs[best]
    for i in it:
        dp, dq = ps[i] - bp, qs[i] - bq
        if int_sign(dp * ga + dq * ha, dp * gb + dq * hb, d) == wanted:
            best, bp, bq = i, ps[i], qs[i]
    return best


def code_rotation(rotation, n: int):
    """Letters and points of the first n steps of a rotation's orbit of 0."""
    if n > 0 and not (rotation.lo <= 0 < rotation.hi):
        raise ValueError("0 must belong to the rotation domain")
    letters = []
    points = []
    x = QuadraticNumber(0)
    for _ in range(n):
        points.append(x)
        if x < rotation.cut:
            letters.append("0")
            x = x + rotation.shift_low
        else:
            letters.append("1")
            x = x + rotation.shift_high
    return "".join(letters), points


def quadratic_str(x: QuadraticNumber) -> str:
    """The canonical text as ``QuadraticNumber.__str__`` wrote it from its
    ``Fraction`` parts, before the formatter took integer numerators."""
    a, b, d = x.rational_part, x.surd_part, x.radicand
    q = math.lcm(a.denominator, b.denominator)
    big_a = a.numerator * (q // a.denominator)
    big_b = b.numerator * (q // b.denominator)
    g = math.gcd(math.gcd(abs(big_a), abs(big_b)), q)
    big_a, big_b, q = big_a // g, big_b // g, q // g
    if big_b == 0:
        return str(big_a) if q == 1 else f"{big_a}/{q}"
    root = f"sqrt({d})"
    if big_a == 0:
        coeff = Fraction(big_b, q)
        if coeff == 1:
            return root
        if coeff == -1:
            return f"-{root}"
        num = f"{abs(coeff.numerator)}"
        if coeff.denominator != 1:
            num += f"/{coeff.denominator}"
        sign = "-" if coeff < 0 else ""
        return f"{sign}{num}*{root}"
    surd = root if abs(big_b) == 1 else f"{abs(big_b)}*{root}"
    body = f"{big_a}{'+' if big_b > 0 else '-'}{surd}"
    return body if q == 1 else f"({body})/{q}"


def orbit_json(points) -> list[dict]:
    """The CLI's orbit array built point by point: one ``QuadraticNumber``
    per point, its text, and its float read back from 17 digits."""
    orbit = []
    for x in points:
        q = as_quadratic(x)
        orbit.append({"exact": str(q), "approx": float(f"{float(q):.17g}")})
    return orbit


def height_series(letters: str, steps) -> list:
    """Per-prefix sums of the letter steps, the empty prefix first."""
    h = QuadraticNumber(0)
    values = [h]
    for ch in letters:
        h = h + steps[ch]
        values.append(h)
    return values


def binary_steps(epsilon) -> dict:
    eps = as_quadratic(epsilon)
    return {"0": 1 - eps, "1": -eps}


def ternary_steps(epsilon) -> dict:
    eps = as_quadratic(epsilon)
    return {"A": 1 - eps, "B": 1 - 2 * eps, "C": -eps}


def recover(u: str, epsilon) -> dict:
    """Fields of ``recover_parameters``, computed on field values throughout."""
    eps = as_quadratic(epsilon)
    if len(u) < 2:
        raise RecoveryError(f"insufficient data: got {len(u)} letters, need at least 2")
    if u.count("B") == 0:
        raise RecoveryError("no B occurrences in the word")
    v = B_AS_01.apply(Word(u, TERNARY)).letters
    values = height_series(v, binary_steps(eps))
    c_hat = min(values)
    positions = []
    offset = 0
    for letter in u:
        if letter == "B":
            positions.append(offset + 1)
        offset += len(B_AS_01.images[letter])
    position_values = [values[k] for k in positions]
    floor_value = min(position_values)
    attained = sum(1 for x in position_values if x == floor_value) >= 2
    l_hat = floor_value - c_hat
    position_set = set(positions)
    other_high = max(
        (values[k] for k in range(len(v)) if k not in position_set), default=None
    )
    threshold_consistent = other_high is None or floor_value > other_high
    try:
        params = IetParameters(eps, l_hat, c_hat)
    except ConstraintError as exc:
        raise RecoveryError(f"recovered parameters violate constraints: {exc}") from None
    iet = ThreeIet(params)
    best = None
    conventions = ["left-closed"]
    if c_hat != 0:
        conventions.append("right-closed")
    for convention in conventions:
        produced, _ = code_exchange(iet, len(u), convention == "right-closed")
        matches = sum(a == b for a, b in zip(u, produced))
        first = next(
            (k for k, (a, b) in enumerate(zip(u, produced)) if a != b), None
        )
        fraction = Fraction(matches, len(u))
        if best is None or fraction > best[1]:
            best = (convention, fraction, first)
        if fraction == 1:
            break
    convention, fraction, first = best
    if fraction < Fraction(99, 100):
        raise RecoveryError(
            f"re-generation mismatch at index {first}: "
            f"matched {fraction.numerator} of {fraction.denominator} letters"
        )
    return dict(
        epsilon=eps,
        c_hat=c_hat,
        l_hat=l_hat,
        attained_infimum=attained,
        sample_size=len(values),
        position_count=len(positions),
        threshold_consistent=threshold_consistent,
        convention=convention,
        match_fraction=fraction,
        first_mismatch=first,
    )


def period(params: IetParameters, cap: int = 10**5) -> str:
    """Letters of one period of the orbit of 0, stopping when it returns."""
    iet = ThreeIet(params)
    zero = QuadraticNumber(0)
    x = zero
    letters = []
    for _ in range(cap):
        a = iet.letter(x)
        letters.append(a)
        x = x + iet.translations[a]
        if x == zero:
            return "".join(letters)
    raise AssertionError(f"no period within {cap} steps")


def complexity(text: str, n_max: int) -> tuple[tuple[int, ...], int]:
    """Counts and trust cutoff of ``words.complexity``, from sets of slices."""
    if n_max > len(text):
        raise ValueError(f"nMax {n_max} exceeds word length {len(text)}")
    counts = [1] + [len({text[i : i + n] for i in range(len(text) - n + 1)})
                    for n in range(1, n_max + 1)]
    half = text[: len(text) // 2]
    reliable = 0
    for n in range(1, min(n_max, len(half)) + 1):
        if len({half[i : i + n] for i in range(len(half) - n + 1)}) != counts[n]:
            break
        reliable = n
    return tuple(counts), reliable


def integer_roots(coeffs) -> tuple[list[int], list[int]]:
    """Integer roots of a monic polynomial, trying every divisor 1..|c0|."""
    coeffs = list(coeffs)
    roots = []
    while len(coeffs) > 1:
        constant = coeffs[0]
        if constant == 0:
            candidates = [0]
        else:
            candidates = []
            for k in range(1, abs(constant) + 1):
                if constant % k == 0:
                    candidates.extend((k, -k))
        for r in candidates:
            if sum(c * r**i for i, c in enumerate(coeffs)) == 0:
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


def is_primitive(matrix: IncidenceMatrix) -> bool:
    """Whether some power within the Wielandt bound is positive, by products."""
    if not matrix.is_square:
        raise ValueError("primitivity requires a square matrix")
    n, _ = matrix.shape
    power = matrix
    for _ in range((n - 1) ** 2 + 1):
        if all(x > 0 for row in power.rows for x in row):
            return True
        power = power @ matrix
    return False


def balance(w: Word, n_max: int) -> tuple[dict, int]:
    """Table and window of ``words.balance``: one row per letter, one
    prefix-sum difference per length."""
    window = min(n_max, len(w))
    table = {}
    for a in w.alphabet:
        hits = np.array([letter == a for letter in w.letters], dtype=np.int64)
        s = np.concatenate(([0], np.cumsum(hits)))
        row = [0]
        for n in range(1, window + 1):
            counts = s[n:] - s[:-n]
            row.append(int(counts.max() - counts.min()))
        table[a] = tuple(row)
    return table, window


def is_balanced(text: str) -> bool:
    """Whether any two factors of equal length hold counts of a letter that
    differ by at most one: the definition, one length and one factor at a
    time, where ``words._is_balanced`` desubstitutes whole arrays.  Over
    two letters the count of one decides the other's."""
    for n in range(1, len(text) + 1):
        counts = {text[i : i + n].count(text[0]) for i in range(len(text) - n + 1)}
        if max(counts) - min(counts) > 1:
            return False
    return True


def apply_text(m: Morphism, text: str) -> str:
    """m(text), one image per letter; a letter outside the source raises
    the ``ValueError`` that names the first one."""
    try:
        return "".join(map(m.images.__getitem__, text))
    except KeyError as exc:
        raise ValueError(f"letter {exc.args[0]!r} outside source alphabet") from None


def find_expanding_letter(m: Morphism, max_power: int = 4):
    """(letter, power) of ``morphisms.find_expanding_letter``, power by power."""
    if not set(m.target) <= set(m.source):
        return None
    current = dict(m.images)
    for k in range(1, max_power + 1):
        for a in m.source:
            if len(current[a]) >= 2 and current[a][0] == a:
                return a, k
        current = {a: "".join(m.images[ch] for ch in current[a]) for a in m.source}
    return None


def fixed_point_prefix(m: Morphism, seed: str, n: int) -> str:
    """Letters of ``morphisms.fixed_point_prefix`` from a given seed: the
    power searched on whole images, then every round maps the whole text
    that many times.  A letter outside the source raises, once it is mapped
    or among the n letters returned."""

    def source_letters(text: str) -> str:
        outside = sorted(set(text) - set(m.source))
        if outside:
            raise ValueError(f"letter {outside[0]!r} outside source alphabet")
        return text

    def apply(text: str) -> str:
        return "".join(m.images[ch] for ch in source_letters(text))

    current = apply(seed)
    for power in range(1, 5):
        if len(current) >= 2 and current[0] == seed:
            break
        if power < 4:
            current = apply(current)
    else:
        raise ValueError(f"letter {seed!r} does not generate a fixed point")
    text = seed
    while len(text) < n:
        for _ in range(power):
            text = apply(text)
    return source_letters(text[:n])


def search_stage(m: Morphism) -> str:
    """The first stage of ``audit.search_substitutions`` that disposes of m.

    The quick filter scans the first binary image of a 400-letter prefix
    up to length 25 at once, without the 60-letter level, and the
    certificate stage builds ``three_iet_certificate``; the primitives are
    the ones above.
    """
    m = Morphism(m.images, source=m.source, target=m.target)
    expanding = find_expanding_letter(m, max_power=1)
    if expanding is None:
        return "no-fixed-point"
    if not is_primitive(incidence(m)):
        return "non-primitive"
    seed, _power = expanding
    image = B_AS_01.apply(fixed_point_prefix(m, seed, 400))
    if first_unbalanced_length(image, 25) is not None:
        return "quick-imbalance"
    prefix = fixed_point_prefix(m, seed, CERTIFICATE_PREFIX)
    try:
        cert = three_iet_certificate(prefix)
    except ValueError:
        return "certificate-error"
    if cert.is_consistent:
        return "certificate-consistent"
    return f"certificate-{cert.verdict}"


def candidate_stage(m: Morphism, seed: str) -> str:
    """The stage of one primitive candidate of ``candidate_stages`` whose
    image of seed starts with seed and has two letters or more: both
    ``QUICK_FILTER`` levels, one after the other, on library-built
    fixed-point prefixes, else the certificate."""
    for prefix_length, window in QUICK_FILTER:
        image = B_AS_01.apply(morphisms.fixed_point_prefix(m, seed, prefix_length))
        if first_unbalanced_length(image, window) is not None:
            return "quick-imbalance"
    try:
        prefix = morphisms.fixed_point_prefix(m, seed, CERTIFICATE_PREFIX)
        certificate = three_iet_certificate(prefix)
    except ValueError:
        return "certificate-error"
    if certificate.is_consistent:
        return "certificate-consistent"
    return f"certificate-{certificate.verdict}"


def candidate_stages(max_total: int, max_image: int):
    """(images, stage) for each candidate of ``audit.search_substitutions``,
    one candidate at a time: images is the triple of images of A, B and C.

    Stages 1 and 2 are read from tables of one entry per image.  For each
    letter a, an image seeds a when it starts with a and has two letters or
    more; the candidate's seed is the first letter of ``TERNARY`` that its
    image seeds, which is ``find_expanding_letter(m, max_power=1)``.  The
    three zero-pattern rows of the images, each a bitmask of the letters
    it holds, form the pattern that ``is_primitive(incidence(m))`` tests.
    Only the candidates that pass both become a ``Morphism`` and go
    through ``candidate_stage``.
    """
    lengths = range(1, min(max_image, max_total - 2) + 1)
    pool = {k: ["".join(p) for p in product(TERNARY, repeat=k)] for k in lengths}
    every = [img for k in lengths for img in pool[k]]
    seeds = [
        {img: a if len(img) >= 2 and img[0] == a else "" for img in every}
        for a in TERNARY
    ]
    rows = {img: sum(1 << i for i, a in enumerate(TERNARY) if a in img) for img in every}
    for la, lb, lc in product(lengths, repeat=3):
        if la + lb + lc > max_total:
            continue
        for images in product(pool[la], pool[lb], pool[lc]):
            ia, ib, ic = images
            seed = seeds[0][ia] or seeds[1][ib] or seeds[2][ic]
            if not seed:
                yield images, "no-fixed-point"
            elif not _pattern_is_primitive((rows[ia], rows[ib], rows[ic])):
                yield images, "non-primitive"
            else:
                m = Morphism(dict(zip(TERNARY, images)), TERNARY, TERNARY)
                yield images, candidate_stage(m, seed)


def frame_combination(frame: Frame, coefficients) -> tuple[int, int]:
    """Numerator of the integer combination sum(c_k * element_k) of a frame."""
    a = b = 0
    for c, (ra, rb) in zip(coefficients, frame.rows):
        a += c * ra
        b += c * rb
    return a, b


def scaling_relation_holds(frame: Frame, p, q, starts) -> bool:
    """``audit._scaling_relation_holds`` by one integer combination of the
    frame's rows per prefix."""
    p, q, starts = p.tolist(), q.tolist(), starts.tolist()
    return all(
        frame_combination(frame, (p[s], q[s], -p[n], -q[n])) == (0, 0)
        for n, s in enumerate(starts)
    )
