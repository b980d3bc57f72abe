"""Exact signs, floors and extremes of a + b*sqrt(d) over integer arrays.

Every element is first evaluated in float64 together with a rigorous bound
on its rounding error.  An element whose enclosure [lo, hi] leaves no doubt
(lo > 0 or hi < 0 for a sign, a single integer part across [lo, hi] for a
floor) is decided by the float; every other element, exact zeros and
exact integers included, is decided by ``qfield.int_sign`` or
``qfield.int_floor`` on Python ints.  A rational frame (d = 0, so b = 0)
is decided by integer comparison and floor division alone.  So no float
decides an answer that exact arithmetic could contradict.

Error bound.  Let u = 2**-53.  The numerators a and b are integers, the
denominator den is a positive integer and d is a square-free radicand
below 2**53, so float(d) is exact and every float operation below is
correctly rounded, with relative error at most u:

    fa = fl(a),  fp = fl(fl(b) * fl(sqrt(d))),  v = fl(fa + fp),
    s = fl(1 / fl(den)),  y = fl(v * s),  M = |fa| + |fp|.

Since |a| <= |fa|/(1-u) and |b|*sqrt(d) <= |fp|/(1-u)**3,

    |fa + fp - (a + b*sqrt(d))| <= u*|a| + ((1+u)**3 - 1)*|b|*sqrt(d)
                                <= 3.02*u*M,
    |v - (fa + fp)| <= u*M,

and the three roundings of den, 1/den and the product cost at most
3.02*u*|v|/den <= 3.03*u*M/den, so |y - (a + b*sqrt(d))/den| <= 7.1*u*M/den.
The enclosure is lo = fl(y - E), hi = fl(y + E) with E = fl(fl(M) * BOUND *
s) and BOUND = 2**-49 = 16*u, so E >= 15.9*u*M/den.  The rounding of y -+ E
is at most u*(|y| + E) <= 1.1*u*M/den, and 7.1 + 1.1 < 15.9, so lo <= (a +
b*sqrt(d))/den <= hi.  Where a float overflows, a bound comes out
infinite or NaN and decides nothing; setting BOUND to infinity sends every
element to the exact path.

Numerator regimes.  numpy's int64 arithmetic wraps silently, so callers
build numerator arrays with ``int_dtype``: int64 when every value stays
below 2**62 in magnitude, so that the sum or difference of two values
cannot wrap either, and dtype=object otherwise.  An object array holds
Python ints and runs the same code, only more slowly.  ``affine_floors``
skips the integer arrays where it can: a chunk whose numerators m*a1 + a0
all stay below 2**53 in magnitude builds them in float64 straight from a
float ``arange``.  Every product and sum on the way is an integer below
2**53, so it is exact, and the floats are fl(a) = a and fl(b) = b, the
very inputs the bound above starts from; the proof holds unchanged.  Only
the elements the enclosure leaves open get Python-int numerators, for
``int_floor``.

Shared enclosures.  ``bounds`` returns the enclosures of a whole array,
and ``argmin`` takes them instead of enclosing again, so a caller that
reads several extremes of one array encloses it once.  A position whose
lower bound is +inf is left out: no enclosure computed here has lo = +inf
(an overflowing value gets lo = -inf or NaN), and the float pass keeps a
position only where lo is at most a threshold no greater than the largest
finite float.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .qfield import int_floor, int_sign

__all__ = ["BOUND", "affine_floors", "argmin", "bounds", "floors", "int_dtype", "signs"]

#: relative error bound of the float evaluation, 16 unit roundoffs
BOUND = 2.0**-49
#: largest magnitude an int64 numerator array may hold; the sum or
#: difference of two such values still fits in int64
INT64_LIMIT = 2**62
#: integers below this magnitude are exact in float64
FLOAT_LIMIT = 2**53
#: elements per float pass: the temporaries of a chunk stay in cache, and
#: long arrays need no long float arrays
CHUNK = 8192


def int_dtype(bound: int):
    """int64 for values below 2**62 in magnitude, else object (Python ints)."""
    return np.int64 if bound < INT64_LIMIT else object


def _enclose(a, b, d: int, den: int = 1):
    """Float bounds lo <= (a + b*sqrt(d))/den <= hi of integer arrays,
    elementwise.

    Where the floats overflow, a bound is infinite or NaN and decides nothing.
    """
    try:
        fa, fb = a.astype(np.float64), b.astype(np.float64)
    except OverflowError:  # Python ints beyond the float range
        return _undecided(len(a))
    return _bounds(fa, fb, d, den)


def _bounds(fa, fb, d: int, den: int):
    """The bounds of ``_enclose`` from fa = fl(a) and fb = fl(b), which it
    overwrites."""
    try:
        scale = 1 / float(den)
    except OverflowError:
        return _undecided(len(fa))
    with np.errstate(over="ignore", invalid="ignore"):
        fb *= math.sqrt(d)
        y = fa + fb
        y *= scale
        e = np.abs(fa, out=fa)
        e += np.abs(fb, out=fb)
        e *= BOUND * scale
        return y - e, y + e


def _undecided(n: int) -> np.ndarray:
    """NaN bounds (lo, hi) of n elements, which decide nothing."""
    return np.full((2, n), np.nan)


def _chunks(n: int):
    for start in range(0, n, CHUNK):
        yield slice(start, min(start + CHUNK, n))


def bounds(a, b, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Float arrays (lo, hi) enclosing a + b*sqrt(d) for integer arrays a
    and b, as ``argmin`` takes them."""
    a, b = np.asarray(a), np.asarray(b)
    lo, hi = np.empty(len(a)), np.empty(len(a))
    for part in _chunks(len(a)):
        lo[part], hi[part] = _enclose(a[part], b[part], d)
    return lo, hi


def signs(a, b, d: int) -> np.ndarray:
    """Exact signs (int8) of a + b*sqrt(d) for integer arrays a and b."""
    a, b = np.asarray(a), np.asarray(b)
    if d == 0:
        return (a > 0).view(np.int8) - (a < 0).view(np.int8)
    out = np.empty(len(a), dtype=np.int8)
    for part in _chunks(len(a)):
        lo, hi = _enclose(a[part], b[part], d)
        above, below = lo > 0, hi < 0
        out[part] = above.view(np.int8) - below.view(np.int8)
        for i in np.flatnonzero(~(above | below)):
            k = part.start + i
            out[k] = int_sign(int(a[k]), int(b[k]), d)
    return out


def _settle_floors(out, part, lo, hi, exact) -> None:
    """out[part] = floor(hi) wherever [lo, hi] holds a single integer part
    that int64 holds, and exact(k) at every other position k."""
    top = np.floor(hi)
    clear = (lo >= top) & (np.abs(top) < INT64_LIMIT)
    with np.errstate(invalid="ignore"):
        out[part] = top
    for i in np.flatnonzero(~clear):
        k = part.start + int(i)
        out[k] = exact(k)


def floors(a, b, d: int, den: int) -> np.ndarray:
    """Exact floors of (a + b*sqrt(d))/den for integer arrays, den > 0.

    The floors are int64; one that int64 cannot hold raises OverflowError.
    """
    a, b = np.asarray(a), np.asarray(b)
    if d == 0:
        # numpy divides int64 only by a denominator that int64 holds
        quotient = (a if den < INT64_LIMIT else a.astype(object)) // den
        return quotient.astype(np.int64, copy=False)
    out = np.empty(len(a), dtype=np.int64)
    for part in _chunks(len(a)):
        lo, hi = _enclose(a[part], b[part], d, den)
        _settle_floors(
            out, part, lo, hi, lambda k: int_floor(int(a[k]), int(b[k]), d, den)
        )
    return out


def affine_floors(offset, slope, d: int, den: int, count: int) -> np.ndarray:
    """Floors of (offset + m*slope)/den for m in range(count), both exact pairs.

    ``offset`` and ``slope`` are (rational, surd) integer numerator pairs
    over ``den``.  A chunk of m whose numerators all stay below 2**53 in
    magnitude builds them in float64, where they are exact; any other
    chunk builds them in the integer dtype that cannot wrap.
    """
    (a0, b0), (a1, b1) = offset, slope
    reach = max(abs(a0), abs(b0), abs(a1), abs(b1))
    out = np.empty(count, dtype=np.int64)
    for part in _chunks(count):
        bound = reach * (part.stop + 1)
        if d and bound < FLOAT_LIMIT:
            m = np.arange(part.start, part.stop, dtype=np.float64)
            fa = m * a1
            fa += a0
            m *= b1
            m += b0
            lo, hi = _bounds(fa, m, d, den)
            _settle_floors(
                out, part, lo, hi, lambda k: int_floor(a0 + k * a1, b0 + k * b1, d, den)
            )
        else:
            m = np.arange(part.start, part.stop).astype(int_dtype(bound), copy=False)
            out[part] = floors(m * a1 + a0, m * b1 + b0, d, den)
    return out


def argmin(a, b, d: int, enclosure=None) -> int | None:
    """Position of the first least a + b*sqrt(d), or None when none is left.

    ``enclosure`` is the (lo, hi) of ``bounds``, computed here when None; a
    position whose lo is +inf is left out.  A float pass keeps the
    positions whose enclosure can reach the least value.  Among those, a
    knockout of exact signs on pairs finds a least value in O(log n) array
    passes, and the first position equal to it wins.
    """
    a, b = np.asarray(a), np.asarray(b)
    lo, hi = bounds(a, b, d) if enclosure is None else enclosure
    # a NaN bound compares false, so its position survives; top is finite,
    # so a left-out position never does, even where no hi is finite
    top = min(float(np.fmin.reduce(hi, initial=math.inf)), sys.float_info.max)
    survivors = np.flatnonzero(~(lo > top))
    if len(survivors) < 2:
        return int(survivors[0]) if len(survivors) else None
    sa, sb = a[survivors], b[survivors]
    alive = np.arange(len(survivors))
    while len(alive) > 1:
        bye = alive[len(alive) - len(alive) % 2 :]
        left, right = alive[0:-1:2], alive[1::2]
        ahead = signs(sa[right] - sa[left], sb[right] - sb[left], d) < 0
        alive = np.concatenate((np.where(ahead, right, left), bye))
    best = alive[0]
    tied = signs(sa - sa[best], sb - sb[best], d) == 0
    return int(survivors[np.argmax(tied)])
