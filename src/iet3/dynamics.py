"""Exchange of three intervals, underlying rotations, and induction.

The exchange T acts on [c, c+l) as three left-closed right-open pieces
translated by (1-e, 1-2e, -e); it arises as the first-return map of a
circle rotation on a unit-length domain, and the generic induction
routine here recovers that fact executably.  All endpoint comparisons
and orbit steps are exact.

Orbit codings are closed forms on integer arrays.  A rotation
of [lo, hi) by shift_low has made k(n) = floor((n*shift_low - lo)/(hi - lo))
high steps after n steps, so its letters are the differences of those
floors.  The exchange is the first return to [c, c+l) of the rotation
x -> x - e (mod 1) on [c, c+1): step m of that rotation lands in the domain
when frac(-m*e - c) < l, a return time of 2 codes B, and a return time of 1
codes A when the integer part dropped (the rotation wrapped) and C when it
did not.  The right-closed convention takes ceilings instead.  Each floor
is of (A + B*sqrt(d))/D with integer numerators of a ``qfield.Frame`` (the
numerator form of ``QuadraticNumber``, one denominator D for e, c and l),
and comes from ``_kernels``: a float64 pass with a rigorous error bound
decides every element whose enclosure holds a single integer part, and
``qfield.int_floor`` decides the rest exactly; numerators are float64
(exact there) while they stay below 2**53, int64 while they cannot reach
2**62 and Python ints in an object array otherwise.  No
float ever decides a letter on its own.  The visited points are integer
pairs (``words.LatticePoints``), and their ``QuadraticNumber`` values are
built only when ``OrbitCoding.points`` is read, for output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from .qfield import FieldMismatchError, Frame, QuadraticNumber, as_quadratic
from .words import BINARY, TERNARY, TERNARY_STEPS, LatticePoints, Word

__all__ = [
    "ConstraintError",
    "DensityResult",
    "IetParameters",
    "InducedMap",
    "Interval",
    "OrbitCoding",
    "Piece",
    "ReturnTimeCapError",
    "Rotation",
    "ThreeIet",
    "densities",
    "first_return",
    "idoc",
    "in_z_epsilon",
    "make_3iet",
    "zeps_coordinates",
]


class ConstraintError(ValueError):
    """A parameter constraint failed; the message names the inequality."""


class ReturnTimeCapError(RuntimeError):
    """Induction exceeded the configured return-time cap."""


@dataclass(frozen=True)
class Interval:
    """Half-open interval [lo, hi) with exact endpoints."""

    lo: QuadraticNumber
    hi: QuadraticNumber

    def __post_init__(self):
        object.__setattr__(self, "lo", as_quadratic(self.lo))
        object.__setattr__(self, "hi", as_quadratic(self.hi))
        if not self.lo < self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi})")

    def __contains__(self, x) -> bool:
        x = as_quadratic(x)
        return self.lo <= x < self.hi

    def contains_right_closed(self, x) -> bool:
        x = as_quadratic(x)
        return self.lo < x <= self.hi

    def __str__(self):
        return f"[{self.lo}, {self.hi})"


def _common_field(values: Sequence[QuadraticNumber], what: str) -> None:
    radicands = {v.radicand for v in values if v.radicand is not None}
    if len(radicands) > 1:
        raise FieldMismatchError(
            f"{what} mix radicands {sorted(radicands)}; "
            "all values must lie in one quadratic field"
        )


class IetParameters:
    """Validated parameters (epsilon, l, c) of a three-interval exchange.

    Requires exactly: 0 < epsilon < 1, max(epsilon, 1-epsilon) < l < 1,
    and -l < c <= 0, with all three values in a single quadratic field
    (or all rational).
    """

    __slots__ = ("epsilon", "length_l", "offset_c")

    def __init__(self, epsilon, length_l, offset_c=0):
        eps = as_quadratic(epsilon)
        ell = as_quadratic(length_l)
        c = as_quadratic(offset_c)
        _common_field((eps, ell, c), "parameters")
        if not (0 < eps < 1):
            raise ConstraintError(
                f"constraint violated: require 0 < epsilon < 1, got epsilon = {eps}"
            )
        bound = max(eps, 1 - eps)
        if not ell > bound:
            raise ConstraintError(
                "constraint violated: require l > max(epsilon, 1-epsilon), "
                f"got l = {ell} <= {bound}"
            )
        if not ell < 1:
            raise ConstraintError(f"constraint violated: require l < 1, got l = {ell}")
        if not c > -ell:
            raise ConstraintError(
                f"constraint violated: require c > -l, got c = {c} <= {-ell}"
            )
        if not c <= 0:
            raise ConstraintError(f"constraint violated: require c <= 0, got c = {c}")
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "length_l", ell)
        object.__setattr__(self, "offset_c", c)

    def __setattr__(self, name, value):
        raise AttributeError("IetParameters is immutable")

    @property
    def alpha(self) -> QuadraticNumber:
        return self.epsilon + self.length_l - 1

    @property
    def beta(self) -> QuadraticNumber:
        return 1 - self.length_l

    @property
    def gamma(self) -> QuadraticNumber:
        return self.length_l - self.epsilon

    @property
    def translations(self) -> dict[str, QuadraticNumber]:
        eps = self.epsilon
        return {"A": 1 - eps, "B": 1 - 2 * eps, "C": -eps}

    def __eq__(self, other):
        if not isinstance(other, IetParameters):
            return NotImplemented
        return (
            self.epsilon == other.epsilon
            and self.length_l == other.length_l
            and self.offset_c == other.offset_c
        )

    def __repr__(self):
        return (
            f"IetParameters(epsilon={self.epsilon}, l={self.length_l}, "
            f"c={self.offset_c})"
        )


@dataclass(frozen=True)
class OrbitCoding:
    """A coded orbit prefix together with the exact visited points."""

    word: Word
    points: LatticePoints

    def __len__(self):
        return len(self.word)


def _visit_letters(point: np.ndarray, visits: np.ndarray) -> str:
    """The letters of every visit but the last, from the integer parts
    ``point`` of the rotation steps and the visiting steps ``visits``: a
    return time of 2 codes B, and one of 1 codes A when the integer part
    changed (the rotation wrapped) and C when it did not."""
    starts = visits[:-1]
    codes = np.full(len(starts), ord("C"), dtype=np.uint8)
    codes[point[starts + 1] != point[starts]] = ord("A")
    codes[np.diff(visits) == 2] = ord("B")
    return codes.tobytes().decode("ascii")


#: a rotation's orbit point is k0*shift_low + k1*shift_high
_ROTATION_STEPS = {"0": (1, 0), "1": (0, 1)}


class ThreeIet:
    """The exchange of three intervals determined by validated parameters."""

    __slots__ = ("params", "intervals", "translations", "domain", "_frame")

    def __init__(self, params: IetParameters):
        c, eps, ell = params.offset_c, params.epsilon, params.length_l
        object.__setattr__(self, "params", params)
        object.__setattr__(
            self,
            "intervals",
            {
                "A": Interval(c, c + params.alpha),
                "B": Interval(c + params.alpha, c + eps),
                "C": Interval(c + eps, c + ell),
            },
        )
        object.__setattr__(self, "translations", params.translations)
        object.__setattr__(self, "domain", Interval(c, c + ell))
        # the generators 1 and -epsilon of the orbit lattice, then c and l
        object.__setattr__(self, "_frame", Frame((1, -eps, c, ell)))

    def __setattr__(self, name, value):
        raise AttributeError("ThreeIet is immutable")

    def letter(self, x, right_closed: bool = False) -> str | None:
        """The interval label of a point, or None outside the domain."""
        x = as_quadratic(x)
        if right_closed:
            for a in TERNARY:
                if self.intervals[a].contains_right_closed(x):
                    return a
            return None
        for a in TERNARY:
            if x in self.intervals[a]:
                return a
        return None

    def apply(self, x) -> QuadraticNumber:
        x = as_quadratic(x)
        a = self.letter(x)
        if a is None:
            raise ValueError(f"{x} is outside the domain {self.domain}")
        return x + self.translations[a]

    def _steps(self, start: int, stop: int, right_closed: bool):
        """The rotation steps m in range(start, stop) of x -> x - e (mod 1):
        the integer parts of x = -m*e - c, and whether step m visits the
        domain.

        Step m sits at c + (x - floor(x)) and visits [c, c+l) when
        floor(x - l) < floor(x); the right-closed domain (c, c+l] of the
        rotation on (c, c+1] uses ceilings instead.
        """
        frame = self._frame
        _, (ea, eb), (ca, cb), (la, lb) = frame.rows
        # floor(x) is floor(-(m*e + x0)) and ceil(x) is -floor(m*e + x0)
        sign = 1 if right_closed else -1
        sa, sb = -sign * ea, -sign * eb

        def integer_parts(a0: int, b0: int) -> np.ndarray:
            offset = (sign * a0 + start * sa, sign * b0 + start * sb)
            floors = _kernels.affine_floors(
                offset, (sa, sb), frame.radicand, frame.denominator, stop - start
            )
            return -sign * floors

        point = integer_parts(ca, cb)
        return point, integer_parts(ca + la, cb + lb) < point

    def _first_return(self, steps: int, right_closed: bool = False) -> str:
        """Letters of the visits to the domain among the first ``steps``
        steps of the rotation, but the last visit."""
        point, inside = self._steps(0, steps, right_closed)
        return _visit_letters(point, np.flatnonzero(inside))

    def code_orbit(self, n: int, right_closed: bool = False) -> OrbitCoding:
        """Code the first n steps of the orbit of 0; exposes the points.

        Letter i is read from visits i and i + 1 of the rotation to the
        domain, so the rotation steps run up to visit n.  A letter depends
        on its two visits alone, so more steps only append letters.  The
        mean return time is 1/l: a float of it sizes the first batch of
        steps, and decides nothing.  Return times are 1 or 2, so the visits
        still missing after that batch lie within two steps each of its
        last visit, and one exact extension reaches them.  The same bound
        caps the steps at 2n + 1, which hold n + 1 visits.
        """
        if right_closed and n > 0 and not self.params.offset_c:
            raise ValueError(
                f"orbit point 0 outside right-closed domain "
                f"({self.domain.lo}, {self.domain.hi}]"
            )
        cap = 2 * n + 1
        # n + 1 visits at the mean return time, with 1 % and 64 steps to spare
        steps = min(cap, int((n + 1) / float(self.params.length_l) * 1.01) + 64)
        point, inside = self._steps(0, steps, right_closed)
        visits = np.flatnonzero(inside)
        if len(visits) <= n and steps < cap:
            # one of any two consecutive steps is a visit, so visits[-1]
            # is at step steps - 2 or later
            more = min(cap, int(visits[-1]) + 2 * (n + 1 - len(visits)) + 1)
            extra, inside = self._steps(steps, more, right_closed)
            point = np.concatenate((point, extra))
            visits = np.concatenate((visits, steps + np.flatnonzero(inside)))
        letters = _visit_letters(point, visits[: n + 1])
        points = LatticePoints.prefix_sums(self._frame, letters, TERNARY_STEPS)
        return OrbitCoding(Word._trusted(letters, TERNARY), points[:n])

    def agrees_with(self, other_apply, points: Iterable) -> bool:
        """Exact pointwise agreement of T with another map on given points."""
        return all(self.apply(x) == other_apply(x) for x in points)


class Rotation:
    """Exchange of two intervals [lo, cut) and [cut, hi) by translation."""

    __slots__ = ("lo", "cut", "hi", "shift_low", "shift_high", "_frame", "_count")

    def __init__(self, lo, cut, hi):
        lo, cut, hi = as_quadratic(lo), as_quadratic(cut), as_quadratic(hi)
        _common_field((lo, cut, hi), "rotation endpoints")
        if not (lo < cut < hi):
            raise ValueError("rotation requires lo < cut < hi")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "cut", cut)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "shift_low", hi - cut)
        object.__setattr__(self, "shift_high", lo - cut)
        # orbit points are k0*shift_low + k1*shift_high, and after n steps
        # k1 = floor(n*shift_low/width - lo/width) with width = hi - lo
        width = hi - lo
        object.__setattr__(self, "_frame", Frame((self.shift_low, self.shift_high)))
        object.__setattr__(self, "_count", Frame((self.shift_low / width, -lo / width)))

    def __setattr__(self, name, value):
        raise AttributeError("Rotation is immutable")

    @classmethod
    def plain_for(cls, params: IetParameters) -> "Rotation":
        """The rotation whose first return to [c, c+l) is the exchange."""
        c = params.offset_c
        return cls(c, c + params.epsilon, c + 1)

    @classmethod
    def shifted_for(cls, params: IetParameters) -> "Rotation":
        """The left-extended rotation inducing the same exchange."""
        lo = params.offset_c - params.beta
        return cls(lo, lo + params.epsilon, lo + 1)

    @property
    def domain(self) -> Interval:
        return Interval(self.lo, self.hi)

    def apply(self, x) -> QuadraticNumber:
        x = as_quadratic(x)
        if self.lo <= x < self.cut:
            return x + self.shift_low
        if self.cut <= x < self.hi:
            return x + self.shift_high
        raise ValueError(f"{x} is outside the domain [{self.lo}, {self.hi})")

    def code_orbit(self, n: int) -> OrbitCoding:
        """Two-letter coding of the orbit of 0, with the visited points."""
        if n > 0 and not (self.lo <= 0 < self.hi):
            raise ValueError("0 must belong to the rotation domain")
        count = self._count
        slope, offset = count.rows
        highs = _kernels.affine_floors(
            offset, slope, count.radicand, count.denominator, n + 1
        )
        text = (np.diff(highs) + ord("0")).astype(np.uint8).tobytes().decode("ascii")
        points = LatticePoints.prefix_sums(self._frame, text, _ROTATION_STEPS)
        return OrbitCoding(Word._trusted(text, BINARY), points[:n])


# -- generic first-return induction ---------------------------------------------


@dataclass(frozen=True)
class Piece:
    """A maximal sub-interval of constant return time and translation."""

    interval: Interval
    return_time: int
    translation: QuadraticNumber


@dataclass(frozen=True)
class InducedMap:
    """First-return map of a rotation on a sub-interval, piece by piece."""

    domain: Interval
    pieces: tuple[Piece, ...]

    def piece_at(self, x) -> Piece:
        x = as_quadratic(x)
        for p in self.pieces:
            if x in p.interval:
                return p
        raise ValueError(f"{x} is outside the induction domain {self.domain}")

    def apply(self, x) -> QuadraticNumber:
        return as_quadratic(x) + self.piece_at(x).translation

    def matches_exchange(self, iet: ThreeIet) -> bool:
        """Exact piecewise equality with a three-interval exchange."""
        if len(self.pieces) != 3:
            return False
        for p, a in zip(self.pieces, TERNARY):
            target = iet.intervals[a]
            if (
                p.interval.lo != target.lo
                or p.interval.hi != target.hi
                or p.translation != iet.translations[a]
            ):
                return False
        return True


def first_return(rotation: Rotation, interval: Interval, cap: int = 10**6) -> InducedMap:
    """Partition ``interval`` by return time of the rotation, exactly.

    Sub-intervals are split at preimages of the rotation's cut point and
    of the target interval's endpoints, then adjacent fragments with the
    same return time and translation are merged back, so each reported
    piece is maximal.
    """
    if not (rotation.lo <= interval.lo and interval.hi <= rotation.hi):
        raise ValueError("induction interval must lie inside the rotation domain")
    zero = QuadraticNumber(0)
    done: list[Piece] = []
    work = [(interval.lo, interval.hi, zero, 0)]
    while work:
        lo, hi, shift, steps = work.pop()
        if not lo < hi:
            continue
        if steps > 0:
            img_lo, img_hi = lo + shift, hi + shift
            # split at preimages of the target endpoints
            if img_lo < interval.lo < img_hi:
                work.append((lo, interval.lo - shift, shift, steps))
                work.append((interval.lo - shift, hi, shift, steps))
                continue
            if img_lo < interval.hi < img_hi:
                work.append((lo, interval.hi - shift, shift, steps))
                work.append((interval.hi - shift, hi, shift, steps))
                continue
            if interval.lo <= img_lo and img_hi <= interval.hi:
                done.append(Piece(Interval(lo, hi), steps, shift))
                continue
        if steps >= cap:
            raise ReturnTimeCapError(
                f"return time exceeded cap {cap} on [{lo}, {hi})"
            )
        img_lo, img_hi = lo + shift, hi + shift
        if img_lo < rotation.cut < img_hi:
            work.append((lo, rotation.cut - shift, shift, steps))
            work.append((rotation.cut - shift, hi, shift, steps))
            continue
        step = rotation.shift_low if img_lo < rotation.cut else rotation.shift_high
        work.append((lo, hi, shift + step, steps + 1))

    done.sort(key=lambda p: p.interval.lo, reverse=False)
    merged: list[Piece] = []
    for p in done:
        if (
            merged
            and merged[-1].return_time == p.return_time
            and merged[-1].translation == p.translation
            and merged[-1].interval.hi == p.interval.lo
        ):
            merged[-1] = Piece(
                Interval(merged[-1].interval.lo, p.interval.hi),
                p.return_time,
                p.translation,
            )
        else:
            merged.append(p)
    return InducedMap(interval, tuple(merged))


# -- arithmetic conditions on the parameters -------------------------------------


def zeps_coordinates(x, epsilon) -> tuple[Fraction, Fraction]:
    """Rational (p, q) with x = p + q*epsilon, for x in the field of epsilon.

    Requires epsilon irrational; raises FieldMismatchError when x lives in
    a different quadratic field (no such representation exists there).
    """
    x = as_quadratic(x)
    eps = as_quadratic(epsilon)
    if eps.radicand is None:
        raise ValueError("coordinates in the basis (1, epsilon) need epsilon irrational")
    if x.radicand is not None and x.radicand != eps.radicand:
        raise FieldMismatchError(
            f"{x} lies outside the field of {eps}"
        )
    q = x.surd_part / eps.surd_part
    p = x.rational_part - q * eps.rational_part
    return p, q


def in_z_epsilon(x, epsilon) -> bool:
    """Exact membership of x in Z + Z*epsilon."""
    x = as_quadratic(x)
    eps = as_quadratic(epsilon)
    if eps.radicand is None:
        # Z + Z*r/s = (1/s)*Z when r/s is in lowest terms
        s = eps.rational_part.denominator
        return x.radicand is None and (x.rational_part * s).denominator == 1
    try:
        p, q = zeps_coordinates(x, epsilon)
    except FieldMismatchError:
        return False
    return p.denominator == 1 and q.denominator == 1


def idoc(params: IetParameters) -> bool:
    """Whether the orbits of the two inner discontinuities stay disjoint.

    Holds exactly when epsilon is irrational and l is not in Z + Z*epsilon.
    """
    if params.epsilon.radicand is None:
        return False
    return not in_z_epsilon(params.length_l, params.epsilon)


# -- densities -------------------------------------------------------------------


@dataclass(frozen=True)
class DensityResult:
    """Letter densities with the method that produced them.

    kind is "interval-lengths" (irrational case: exact lengths over l) or
    "periodic-word" (rational case: exact frequencies of one period).
    """

    kind: str
    values: tuple[QuadraticNumber, ...]
    period: int | None = None


#: most letters of a rational coding's period that ``densities`` will code
PERIOD_CAP = 10**6


def densities(params: IetParameters) -> DensityResult:
    """Exact densities of A, B, C in the coded word; always sums to 1."""
    if params.epsilon.radicand is not None:
        ell = params.length_l
        return DensityResult(
            "interval-lengths",
            (params.alpha / ell, params.beta / ell, params.gamma / ell),
        )
    # rational slope e = r/s: the coding is periodic.  The rotation
    # x -> x - e (mod 1) first returns to 0 after exactly s steps, and the
    # period codes its visits to the domain before then, at least s/2 of
    # them; so min(s, 2*PERIOD_CAP + 2) steps hold either the whole period
    # or more than PERIOD_CAP letters.
    s = params.epsilon.rational_value.denominator
    letters = ThreeIet(params)._first_return(min(s, 2 * PERIOD_CAP + 2) + 1)
    if len(letters) > PERIOD_CAP:
        raise ReturnTimeCapError(f"no period found within {PERIOD_CAP} steps")
    n = len(letters)
    return DensityResult(
        "periodic-word",
        tuple(QuadraticNumber(Fraction(letters.count(a), n)) for a in TERNARY),
        period=n,
    )


# -- free-function conveniences ----------------------------------------------------


def make_3iet(params: IetParameters) -> ThreeIet:
    return ThreeIet(params)
