"""Reference implementations that ``iet3`` replaced, for differential tests.

Most are the letter-by-letter field-arithmetic loops that the integer
lattice path replaced: every orbit point and prefix height is a
``QuadraticNumber``, every boundary test a field comparison.  The factor
count is the set-of-slices loop that rank refinement replaced, and the
integer-root search tries every divisor in turn.  Primitivity multiplies
incidence matrices power by power, balance fills one row per letter, and
the fixed-point generator searches powers on its own.  They are slow and
obviously right, which is what an oracle is for.
"""

from fractions import Fraction

import numpy as np

from iet3.audit import B_AS_01, RecoveryError
from iet3.dynamics import ConstraintError, IetParameters, ThreeIet
from iet3.morphisms import IncidenceMatrix, Morphism, compose
from iet3.qfield import QuadraticNumber, as_quadratic
from iet3.words import TERNARY, Word


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


def height_series(letters: str, steps) -> tuple[list, list]:
    """Per-prefix sums of the letter steps, and their running minima."""
    zero = QuadraticNumber(0)
    values = [zero]
    mins = [zero]
    h = zero
    low = zero
    for ch in letters:
        h = h + steps[ch]
        values.append(h)
        if h < low:
            low = h
        mins.append(low)
    return values, mins


def binary_steps(epsilon) -> dict:
    eps = as_quadratic(epsilon)
    return {"0": 1 - eps, "1": -eps}


def ternary_steps(epsilon) -> dict:
    eps = as_quadratic(epsilon)
    return {"A": 1 - eps, "B": 1 - 2 * eps, "C": -eps}


def recover(u: str, epsilon, min_match: Fraction = Fraction(99, 100)) -> dict:
    """Fields of ``recover_parameters``, computed on field values throughout."""
    eps = as_quadratic(epsilon)
    if len(u) < 2:
        raise RecoveryError(f"insufficient data: got {len(u)} letters, need at least 2")
    if u.count("B") == 0:
        raise RecoveryError("no B occurrences in the word")
    v = B_AS_01.apply(Word(u, TERNARY)).letters
    values, mins = height_series(v, binary_steps(eps))
    c_hat = mins[-1]
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
    if fraction < min_match:
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
    """Table and window of ``words.balance``, one row per letter."""
    window = min(n_max, len(w))
    arr = np.frombuffer(w.letters.encode("ascii"), dtype=np.uint8)
    table = {}
    for a in w.alphabet:
        s = np.concatenate(([0], np.cumsum(arr == ord(a), dtype=np.int64)))
        row = [0]
        for n in range(1, window + 1):
            counts = s[n:] - s[:-n]
            row.append(int(counts.max() - counts.min()))
        table[a] = tuple(row)
    return table, window


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
    """Letters of ``morphisms.fixed_point_prefix`` from a given seed."""
    current = m.images[seed]
    for power in range(1, 5):
        if len(current) >= 2 and current[0] == seed:
            break
        current = "".join(m.images[ch] for ch in current)
    else:
        raise ValueError(f"letter {seed!r} does not generate a fixed point")
    step = m
    for _ in range(power - 1):
        step = compose(m, step)
    text = seed
    while len(text) < n:
        text = "".join(step.images[ch] for ch in text)
    return text[:n]
