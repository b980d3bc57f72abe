"""Necessary-condition checks for three-interval exchange codings.

This module bundles the executable checks built on the rest of the
package: the Sturm-number predicate, a certificate that a ternary word
is consistent with being a 3iet coding (both binary images sturmian on
the inspected window), constructive recovery of the interval parameters
from a coding, and a substitution audit that evaluates every necessary
condition available for a word invariant under a primitive substitution.

All verdicts are one-sided by design: a passing audit means no necessary
condition was violated on the finite data, never that the word provably
is a 3iet coding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from . import _kernels
from .dynamics import ConstraintError, IetParameters, ThreeIet, _common_field
from .morphisms import (
    Expanding,
    Morphism,
    SIGMA,
    SIGMA_PRIME,
    SpectralClass,
    _fixed_point_counts,
    _image_offsets,
    _pattern_is_primitive,
    find_expanding_letter,
    fixed_point_prefix,
    incidence,
    is_primitive,
    left_eigenvector,
    spectral_class,
    translation_image,
)
from .qfield import Frame, QuadraticNumber, as_quadratic
from .words import (
    BINARY,
    PAIR_LENGTH,
    TERNARY,
    Word,
    balance,
    complexity,
    first_unbalanced_length,
    height_f,
    height_g,
    imbalance_witness,
)

__all__ = [
    "AuditReport",
    "CertificateReport",
    "FactsReport",
    "RecoveredParameters",
    "RecoveryError",
    "SearchReport",
    "SturmVerdict",
    "facts_check",
    "is_sturm",
    "recover_parameters",
    "search_substitutions",
    "substitution_audit",
    "three_iet_certificate",
]

#: the two binary readings of a ternary coding: B splits as "01" or as "10"
B_AS_01 = SIGMA
B_AS_10 = SIGMA_PRIME
_IMAGE_NAMES = (("b_as_01", B_AS_01), ("b_as_10", B_AS_10))

#: factor lengths of the certificate's imbalance scan on each binary image
BALANCE_WINDOW = 300
#: factor lengths of the certificate's periodicity scan on each binary image
COMPLEXITY_WINDOW = 50
#: least share of re-generated letters that must match for a recovery
MIN_MATCH = Fraction(99, 100)
#: prefixes of the fixed point on which the audit checks the height scaling
SCALING_PREFIXES = 1_000
#: least fixed-point length of the audit's letter-frequency cross-check
FREQUENCY_PREFIX = 100_000
#: largest gap between a letter's share of that prefix and its density
FREQUENCY_TOLERANCE = Fraction(1, 1000)
#: fixed-point prefix length on which the search runs the certificate
CERTIFICATE_PREFIX = 2_000


# -- Sturm numbers ----------------------------------------------------------------


@dataclass(frozen=True)
class SturmVerdict:
    """Exact evaluation of the three defining conditions for value.

    is_sturm is the conjunction: a quadratic irrational inside the unit
    interval whose field conjugate falls outside it.
    """

    value: QuadraticNumber
    is_quadratic_irrational: bool
    in_unit_interval: bool
    conjugate_outside_unit_interval: bool
    is_sturm: bool


def is_sturm(x) -> SturmVerdict:
    """Decide exactly whether x is a Sturm number.

    Rational input is answered honestly: the quadratic-irrationality
    test fails, so is_sturm is false.
    """
    x = as_quadratic(x)
    irrational = x.radicand is not None
    inside = 0 < x < 1
    conjugate_outside = not (0 < x.conjugate() < 1)
    return SturmVerdict(
        value=x,
        is_quadratic_irrational=irrational,
        in_unit_interval=inside,
        conjugate_outside_unit_interval=conjugate_outside,
        is_sturm=irrational and inside and conjugate_outside,
    )


# -- consistency certificate ------------------------------------------------------


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of the sturmian-image check on a finite window.

    verdict is "consistent-with-3iet", "refuted", or "periodic";
    negative verdicts carry a witness describing the failing factor
    data in the named binary image.
    """

    verdict: str
    witness: dict | None
    word_length: int
    balance_window: int
    complexity_window: int
    image_lengths: dict
    max_imbalance: dict

    @property
    def is_consistent(self) -> bool:
        return self.verdict == "consistent-with-3iet"


def three_iet_certificate(u, min_length: int = 1000) -> CertificateReport:
    """Check both binary images of a ternary word for sturmian behaviour.

    A factor pair witnessing imbalance 2 or more in either image refutes
    the word; bounded factor complexity (C(n) < n+1 at a reliable n)
    marks it periodic.  Only a would-be positive verdict requires all
    three letters to occur: definite negatives are reported regardless.
    Balance is scanned over factor lengths up to ``BALANCE_WINDOW`` and
    complexity up to ``COMPLEXITY_WINDOW``.
    """
    u = u if isinstance(u, Word) else Word(u)
    if len(u) < min_length:
        raise ValueError(
            f"word too short: need at least {min_length} letters, got {len(u)}"
        )
    images = {name: morph.apply(u) for name, morph in _IMAGE_NAMES}
    image_lengths = {name: len(v) for name, v in images.items()}
    max_imbalance = {}
    witness = None
    for name, v in images.items():
        report = balance(v, n_max=BALANCE_WINDOW)
        max_imbalance[name] = report.max_imbalance
        if witness is None and report.max_imbalance >= 2:
            n = next(
                n for n in range(1, report.window + 1)
                if report.imbalance("1", n) >= 2
            )
            i, j, factor_max, factor_min = imbalance_witness(v, "1", n)
            witness = {
                "image": name,
                "factor_length": n,
                "max_factor": factor_max,
                "min_factor": factor_min,
                "imbalance": report.imbalance("1", n),
            }
    common = dict(
        word_length=len(u),
        balance_window=BALANCE_WINDOW,
        complexity_window=COMPLEXITY_WINDOW,
        image_lengths=image_lengths,
        max_imbalance=max_imbalance,
    )
    if witness is not None:
        return CertificateReport("refuted", witness, **common)
    for name, v in images.items():
        profile = complexity(v, n_max=min(COMPLEXITY_WINDOW, len(v) // 2))
        for n in range(1, min(COMPLEXITY_WINDOW, profile.reliable_up_to) + 1):
            if profile.count(n) < n + 1:
                witness = {
                    "image": name,
                    "factor_length": n,
                    "complexity": profile.count(n),
                    "required": n + 1,
                }
                return CertificateReport("periodic", witness, **common)
    missing = [a for a in TERNARY if u.count(a) == 0]
    if missing:
        raise ValueError(f"missing letter in word: {missing[0]!r}")
    return CertificateReport("consistent-with-3iet", None, **common)


# -- constructive parameter recovery ----------------------------------------------


class RecoveryError(ValueError):
    """Recovered parameters fail validation or re-generation."""


@dataclass(frozen=True)
class RecoveredParameters:
    """Interval parameters read off a coding via its first binary image.

    c_hat is the minimum sampled cumulative height, l_hat the gap from
    c_hat up to the smallest height over positions where a B-image
    contributes its second letter.  Both are exact field elements; for a
    genuine coding window c_hat can only overshoot the true offset.
    """

    epsilon: QuadraticNumber
    c_hat: QuadraticNumber
    l_hat: QuadraticNumber
    attained_infimum: bool
    sample_size: int
    position_count: int
    threshold_consistent: bool
    convention: str
    match_fraction: Fraction
    first_mismatch: int | None


def _match_statistics(expected: str, produced: str) -> tuple[Fraction, int | None]:
    n = min(len(expected), len(produced))
    same = np.frombuffer(expected[:n].encode("ascii"), dtype=np.uint8) == np.frombuffer(
        produced[:n].encode("ascii"), dtype=np.uint8
    )
    mismatches = np.flatnonzero(~same)
    first = int(mismatches[0]) if len(mismatches) else None
    return Fraction(n - len(mismatches), len(expected)), first


def _height_fields(u: Word, eps: QuadraticNumber) -> dict:
    """The fields of ``RecoveredParameters`` read off the heights of the
    ``B_AS_01`` image v of u.

    One float enclosure of the heights serves all three extremes, and the
    arrays are gone before recovery re-generates the coding.
    """
    heights = height_f(B_AS_01.apply(u), eps)
    a, b = heights.keys()
    d = heights.frame.radicand
    lo, hi = _kernels.bounds(a, b, d)
    c_hat = heights[_kernels.argmin(a, b, d, (lo, hi))]
    # the index in v of the '1' of the k-th B-image, the one two-letter
    # image: the index of the k-th B in u, plus k earlier B-images, plus one
    codes = np.frombuffer(u.letters.encode("ascii"), dtype=np.uint8)
    b_at = np.flatnonzero(codes == ord("B"))
    positions = b_at + np.arange(1, len(b_at) + 1)
    pa, pb = a[positions], b[positions]
    at = _kernels.argmin(pa, pb, d, (lo[positions], hi[positions]))
    floor = heights[int(positions[at])]
    # the greatest height at every prefix of v but v itself and those
    # ending in a B-image's '1' is the least negated one; the negated
    # heights lie in [-hi, -lo], and +inf leaves the rest out
    high_lo, high_hi = -hi, -lo
    for bound in (high_lo, high_hi):
        bound[positions] = np.inf
        bound[-1] = np.inf
    other_high = _kernels.argmin(-a, -b, d, (high_lo, high_hi))
    return dict(
        c_hat=c_hat,
        l_hat=floor - c_hat,
        attained_infimum=int(np.count_nonzero((pa == pa[at]) & (pb == pb[at]))) >= 2,
        sample_size=len(heights),
        position_count=len(positions),
        threshold_consistent=other_high is None or floor > heights[other_high],
    )


def recover_parameters(u, epsilon) -> RecoveredParameters:
    """Recover (c, l) from a ternary word given the rotation angle.

    Re-generates the coding from the recovered parameters and keeps the
    endpoint convention (left-closed first, then right-closed) that
    matches best; a match fraction below MIN_MATCH raises RecoveryError
    with the first mismatch index.
    """
    u = u if isinstance(u, Word) else Word(u)
    eps = as_quadratic(epsilon)
    if len(u) < 2:
        raise RecoveryError(
            f"insufficient data: got {len(u)} letters, need at least 2"
        )
    if u.count("B") == 0:
        raise RecoveryError("no B occurrences in the word")
    fields = _height_fields(u, eps)
    c_hat = fields["c_hat"]
    try:
        params = IetParameters(eps, fields["l_hat"], c_hat)
    except ConstraintError as exc:
        raise RecoveryError(f"recovered parameters violate constraints: {exc}") from None
    iet = ThreeIet(params)
    best = None
    conventions = ["left-closed"]
    if c_hat != 0:
        # a right-closed domain excludes its left endpoint, where the
        # orbit starts when c_hat is zero
        conventions.append("right-closed")
    for convention in conventions:
        coding = iet.code_orbit(len(u), right_closed=(convention == "right-closed"))
        fraction, first = _match_statistics(u.letters, coding.word.letters)
        if best is None or fraction > best[1]:
            best = (convention, fraction, first)
        if fraction == 1:
            break
    convention, fraction, first = best
    if fraction < MIN_MATCH:
        raise RecoveryError(
            f"re-generation mismatch at index {first}: "
            f"matched {fraction.numerator} of {fraction.denominator} letters"
        )
    return RecoveredParameters(
        epsilon=eps,
        **fields,
        convention=convention,
        match_fraction=fraction,
        first_mismatch=first,
    )


# -- substitution audit -----------------------------------------------------------

PASS_NOTE = "no necessary condition violated"


@dataclass(frozen=True, kw_only=True)
class AuditReport:
    """Every necessary condition evaluated for one substitution.

    overall is "pass" (with note stating exactly what that means),
    "fail" when an applicable instance violates a necessary condition
    (which would indicate a bug somewhere, not new mathematics), or
    "not-applicable" with the reason the hypotheses could not be
    established.  Fields are None when the audit stopped before
    reaching them.  The declaration order is the order of the CLI's
    JSON payload; l_exact is written there as "l".
    """

    morphism: Morphism
    prefix_length: int
    expanding: Expanding | None = None
    fixed_point_consistent: bool | None = None
    primitive: bool | None = None
    certificate: CertificateReport | None = None
    spectral: SpectralClass | None = None
    epsilon: QuadraticNumber | None = None
    l_exact: QuadraticNumber | None = field(default=None, metadata={"json": "l"})
    frequencies_consistent: bool | None = None
    frequency_deviation: float | None = None
    recovery: RecoveredParameters | None = None
    non_degenerate: bool | None = None
    sturm: SturmVerdict | None = None
    eigenvector_relation_holds: bool | None = None
    non_singular: bool | None = None
    quadratic_unit: bool | None = None
    parameters_in_field: bool | None = None
    conjugate_vector_uniform_sign: bool | None = None
    scaling_relation_holds: bool | None = None
    scaling_prefixes: int
    overall: str
    reason: str | None = None
    note: str | None = None


def _uniform_strict_sign(values: Sequence[QuadraticNumber]) -> bool:
    signs = {x.sign() for x in values}
    return signs == {1} or signs == {-1}


def _frequency_check(
    counts: Sequence[int], length: int, densities: Sequence[QuadraticNumber]
) -> tuple[float, bool]:
    """The largest gap between a letter's share of a word and its density,
    as a float for the report, and whether every gap is below
    ``FREQUENCY_TOLERANCE``, decided exactly.  counts are the word's
    letter counts in the order of ``TERNARY``, length its length."""
    deviation = max(
        abs(count / length - float(rho)) for count, rho in zip(counts, densities)
    )
    consistent = all(
        abs(QuadraticNumber(Fraction(count, length)) - rho) < FREQUENCY_TOLERANCE
        for count, rho in zip(counts, densities)
    )
    return deviation, consistent


def _scaling_relation_holds(
    frame: Frame, p: np.ndarray, q: np.ndarray, starts: np.ndarray
) -> bool:
    """Whether g(starts[n]) = lam_conj * g(n) for every n < len(starts).

    Heights are g(i) = p[i] - q[i]*eps, so each difference is the integer
    combination (p[starts[n]], q[starts[n]], -p[n], -q[n]) of the four
    elements of frame, 1, -eps, lam_conj and -lam_conj*eps; it vanishes
    exactly when both numerator columns do.  They are computed in one
    array pass, in int64 where ``_kernels.int_dtype`` allows and in
    Python ints otherwise.
    """
    n = len(starts)
    columns = (p[starts], q[starts], -p[:n], -q[:n])
    # every product and partial sum is at most largest * weight; at least 1
    # for largest, so that rows past int64 never meet an int64 column
    largest = max(1, *(int(np.abs(c).max(initial=0)) for c in columns))
    weight = sum(max(abs(x) for x in row) for row in frame.rows)
    dtype = _kernels.int_dtype(largest * weight)
    columns = [c.astype(dtype) for c in columns]
    for part in (0, 1):
        numerator = sum(c * row[part] for c, row in zip(columns, frame.rows))
        if np.count_nonzero(numerator):
            return False
    return True


def substitution_audit(m: Morphism, prefix_len: int = 10_000) -> AuditReport:
    """Audit a ternary substitution against every available necessary condition.

    Generates the fixed-point prefix, certifies its binary images, recovers
    the parameters exactly from the dominant left eigenvector, and then
    checks: the angle is a Sturm number, the incidence matrix maps the
    translation vector to its conjugate-eigenvalue multiple, the matrix is
    non-singular with a quadratic-unit dominant eigenvalue, the recovered
    offsets live in the same quadratic field, the conjugated translation
    vector has one strict sign, and the cumulative heights scale exactly
    under the substitution.  The letter shares of the first
    max(``FREQUENCY_PREFIX``, prefix_len) letters of the fixed point are
    compared with the eigenvector's densities; those letters are counted by
    descent through the powers of the substitution (``_fixed_point_counts``),
    not built.  A pass asserts only that nothing failed.

    The prefix is fixed by the substitution itself, not only by a power of
    it, exactly when the seed's least power is 1 or the prefix is empty;
    the prefix is built only then.  Once a seed is found, a negative
    ``prefix_len`` raises ValueError.
    """
    if set(m.source) != set(TERNARY):
        raise ValueError("substitution must be over the letters A, B, C")

    fields: dict = dict(
        morphism=m,
        prefix_length=prefix_len,
        scaling_prefixes=SCALING_PREFIXES,
    )

    def stop(reason: str) -> AuditReport:
        return AuditReport(**fields, overall="not-applicable", reason=reason)

    expanding = find_expanding_letter(m)
    if expanding is None:
        return stop("no expanding fixed point")
    fields["expanding"] = expanding
    seed, power = expanding
    if prefix_len < 0:
        raise ValueError("n must be non-negative")
    # at a higher power m(seed) does not start with the seed (a seed that is
    # its own image never grows), so only the empty prefix is fixed by m
    consistent = power == 1 or prefix_len == 0
    fields["fixed_point_consistent"] = consistent

    matrix = incidence(m)
    fields["primitive"] = is_primitive(matrix)
    fields["spectral"] = spectral = spectral_class(matrix)
    fields["non_singular"] = spectral.determinant != 0
    fields["quadratic_unit"] = spectral.classification == "quadratic-unit"

    if not consistent:
        return stop("the generated word is fixed by a power of the substitution only")

    u = fixed_point_prefix(m, seed=seed, n=prefix_len)
    missing = [a for a in TERNARY if u.count(a) == 0]
    if missing:
        return stop(f"missing letter in fixed point: {missing[0]!r}")

    try:
        certificate = three_iet_certificate(u, min_length=min(1000, prefix_len))
    except ValueError as exc:
        return stop(f"certificate not evaluable: {exc}")
    fields["certificate"] = certificate
    if not certificate.is_consistent:
        return stop(f"fixed point fails the 3iet certificate: {certificate.verdict}")

    if not spectral.is_quadratic:
        return stop(
            "dominant eigenvalue is not a quadratic irrational "
            f"(classification: {spectral.classification}); "
            "exact eigenvector parameter recovery unavailable"
        )

    try:
        vector = left_eigenvector(matrix, spectral.dominant)
    except ValueError as exc:
        return stop(f"dominant left eigenvector unavailable: {exc}")
    total = sum(vector, QuadraticNumber(0))
    if total == 0 or not _uniform_strict_sign(vector):
        return stop("dominant left eigenvector is not strictly one-signed")
    densities = tuple(x / total for x in vector)
    l_exact = 1 / (1 + densities[1])
    eps = l_exact * (1 - densities[2])
    if not 0 < eps < 1:
        return stop("recovered angle falls outside the unit interval")
    fields["epsilon"] = eps
    fields["l_exact"] = l_exact

    # empirical letter frequencies as an independent cross-check; every
    # letter occurs in u and the spectrum is quadratic, so the descent of
    # _fixed_point_counts takes O(log freq_len) levels
    freq_len = max(FREQUENCY_PREFIX, prefix_len)
    counts = _fixed_point_counts(m, seed, freq_len)
    (
        fields["frequency_deviation"],
        fields["frequencies_consistent"],
    ) = _frequency_check([counts[a] for a in TERNARY], freq_len, densities)

    try:
        recovery = recover_parameters(u, eps)
    except ValueError as exc:
        return stop(f"parameter recovery failed: {exc}")
    fields["recovery"] = recovery

    profile = complexity(u, n_max=min(30, len(u) // 2))
    degenerate_at = next(
        (
            n
            for n in range(1, min(30, profile.reliable_up_to) + 1)
            if profile.count(n) != 2 * n + 1
        ),
        None,
    )
    fields["non_degenerate"] = degenerate_at is None
    if degenerate_at is not None:
        kind = "below" if profile.count(degenerate_at) < 2 * degenerate_at + 1 else "above"
        return stop(
            f"factor complexity is {kind} 2n+1 at n={degenerate_at} "
            f"(C={profile.count(degenerate_at)})"
        )

    fields["sturm"] = verdict = is_sturm(eps)
    lam_conj = spectral.dominant_conjugate
    t = (1 - eps, 1 - 2 * eps, -eps)
    fields["eigenvector_relation_holds"] = translation_image(matrix, eps) == tuple(
        lam_conj * x for x in t
    )
    d = eps.radicand
    delta = recovery.l_hat - l_exact
    fields["parameters_in_field"] = (
        recovery.c_hat.radicand in (None, d)
        and recovery.l_hat.radicand in (None, d)
        and abs(delta) < Fraction(1, 100)
    )
    eps_conj = eps.conjugate()
    fields["conjugate_vector_uniform_sign"] = _uniform_strict_sign(
        (1 - eps_conj, 1 - 2 * eps_conj, -eps_conj)
    )

    offsets = _image_offsets(m, u.letters[:SCALING_PREFIXES])
    # the prefixes whose image fits in u
    checked = int(np.searchsorted(offsets, len(u), "right")) - 1
    starts = offsets[: checked + 1]
    g = height_g(u[: starts[checked]], eps)
    fields["scaling_relation_holds"] = _scaling_relation_holds(
        Frame((1, -eps, lam_conj, -lam_conj * eps)), g.p, g.q, starts
    )
    fields["scaling_prefixes"] = checked

    if not fields["primitive"]:
        return stop("substitution is not primitive")
    gates = (
        "fixed_point_consistent",
        "frequencies_consistent",
        "non_degenerate",
        "eigenvector_relation_holds",
        "non_singular",
        "quadratic_unit",
        "parameters_in_field",
        "conjugate_vector_uniform_sign",
        "scaling_relation_holds",
    )
    failed = [name for name in gates if not fields[name]]
    if not verdict.is_sturm:
        failed.insert(0, "sturm")
    if failed:
        return AuditReport(
            **fields,
            overall="fail",
            reason="violated: " + ", ".join(failed),
        )
    return AuditReport(**fields, overall="pass", note=PASS_NOTE)


# -- finite set-identity checks ---------------------------------------------------


@dataclass(frozen=True)
class FactsReport:
    """Finite verification of the four orbit-set identities.

    For each letter X and each proper prefix w of its image, the sampled
    set of heights at image starts, shifted by the height of w, must (1)
    land back on the sampled heights |w| steps later, (2) stay disjoint
    from every other shifted set, (3) sit inside a single letter interval,
    and (4) jointly tile the whole height sample.  Violations are
    reported as findings, never raised.
    """

    depth: int
    sample_points: int
    shift_consistent: bool
    sets_disjoint: bool
    uniform_next_letter: bool
    union_complete: bool
    findings: tuple

    @property
    def all_hold(self) -> bool:
        return (
            self.shift_consistent
            and self.sets_disjoint
            and self.uniform_next_letter
            and self.union_complete
        )


def facts_check(
    m: Morphism,
    params: IetParameters,
    depth: int,
    t_override: Mapping | None = None,
) -> FactsReport:
    """Sample the four orbit-set identities down to the given depth.

    A point's interval is the left-closed one that ``ThreeIet.letter``
    names for the parameters.  t_override maps (letter, prefix_length)
    to a replacement height for that image prefix; it exists so tests can
    plant a violation and watch the disjointness finding appear.  Findings
    may also legitimately appear when depth exceeds the window the
    parameters were recovered from.  Depth zero is vacuously true.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    expanding = find_expanding_letter(m)
    if expanding is None:
        raise ValueError("no expanding fixed point")
    seed, _power = expanding
    if depth == 0:
        return FactsReport(0, 0, True, True, True, True, ())

    u_head = fixed_point_prefix(m, seed=seed, n=depth)
    starts = _image_offsets(m, u_head.letters).tolist()
    u = fixed_point_prefix(m, seed=seed, n=starts[depth])

    iet = ThreeIet(params)
    heights = list(height_g(u, params))

    prefix_heights = {}
    for letter in m.source:
        # the proper prefixes: every height but the whole image's
        for j, height in enumerate(height_g(m.images[letter], params)[:-1]):
            prefix_heights[(letter, j)] = height
    overrides = {key: as_quadratic(h) for key, h in (t_override or {}).items()}
    _common_field((params.epsilon, *overrides.values()), "planted heights")
    prefix_heights.update(overrides)

    findings = []
    shift_consistent = True
    sets_disjoint = True
    uniform_next_letter = True
    seen: dict[QuadraticNumber, tuple] = {}
    union: set[QuadraticNumber] = set()
    for letter in m.source:
        occurrences = [n for n in range(depth) if u_head.letters[n] == letter]
        for j in range(len(m.images[letter])):
            t_w = prefix_heights[(letter, j)]
            next_letters = set()
            for n in occurrences:
                point = heights[starts[n]] + t_w
                if point != heights[starts[n] + j]:
                    shift_consistent = False
                    findings.append(
                        f"shift identity fails for ({letter}, prefix {j}) "
                        f"at occurrence {n}"
                    )
                other = seen.get(point)
                if other is not None and other[:2] != (letter, j):
                    sets_disjoint = False
                    findings.append(
                        f"sets for ({letter}, prefix {j}) and "
                        f"({other[0]}, prefix {other[1]}) share the point "
                        f"{point} (occurrences {n} and {other[2]})"
                    )
                else:
                    seen[point] = (letter, j, n)
                union.add(point)
                next_letters.add(u.letters[starts[n] + j])
                interval_letter = iet.letter(point)
                if interval_letter != u.letters[starts[n] + j]:
                    uniform_next_letter = False
                    findings.append(
                        f"point {point} of ({letter}, prefix {j}) sits in "
                        f"interval {interval_letter} but precedes letter "
                        f"{u.letters[starts[n] + j]}"
                    )
            if len(next_letters) > 1:
                uniform_next_letter = False
                findings.append(
                    f"({letter}, prefix {j}) precedes several letters: "
                    f"{sorted(next_letters)}"
                )
    expected_union = set(heights[: starts[depth]])
    union_complete = union == expected_union
    if not union_complete:
        findings.append(
            f"union covers {len(union & expected_union)} of "
            f"{len(expected_union)} sampled heights"
        )
    return FactsReport(
        depth=depth,
        sample_points=starts[depth],
        shift_consistent=shift_consistent,
        sets_disjoint=sets_disjoint,
        uniform_next_letter=uniform_next_letter,
        union_complete=union_complete,
        findings=tuple(findings),
    )


# -- exhaustive search ------------------------------------------------------------


@dataclass(frozen=True)
class AuditSummary:
    text: str = field(metadata={"json": "morphism"})
    overall: str
    reason: str | None
    epsilon: str | None
    is_sturm: bool | None


@dataclass(frozen=True)
class SearchReport:
    """Outcome of an exhaustive scan over small ternary substitutions.

    counts records how many candidates each stage disposed of; audited
    lists (in lexicographic order) the full outcome for every candidate
    whose fixed point was certificate-consistent.
    """

    max_total: int
    max_image: int
    counts: dict
    audited: tuple

    @property
    def passes(self) -> tuple:
        return tuple(s for s in self.audited if s.overall == "pass")

    @property
    def failures(self) -> tuple:
        return tuple(s for s in self.audited if s.overall == "fail")


#: (fixed-point prefix length, factor lengths) of the search's quick
#: filter, in the order it tries them; the prefixes are nested, so an
#: unbalanced pair in the short one is also in the long one
QUICK_FILTER = ((60, PAIR_LENGTH), (400, 25))


def _rule(letter: int, seed: int) -> int:
    """What the seed-order rule asks of the image of a letter, by index in
    ``TERNARY``: 0 that it not seed the letter (a letter before the seed),
    1 that it seed it (the seed), 2 nothing (a letter after the seed)."""
    return 0 if letter < seed else 1 if letter == seed else 2


#: the letters of TERNARY as ASCII codes, and the table that sends each to
#: its mark in the quick filter's walk
_LETTERS = b"ABC"
_MARKS = bytes.maketrans(_LETTERS, b"\x80\x81\x82")


def _with(rows: tuple, letter: int, row: int) -> tuple:
    """rows with the row of one letter, by index, replaced."""
    return rows[:letter] + (row,) + rows[letter + 1 :]


class _SearchPool:
    """The candidates of ``search_substitutions``, decided in groups.

    An image seeds its letter when it starts with it and has two letters
    or more, and a candidate's seed is the first letter of ``TERNARY``
    whose image seeds it.  Stages 1 and 2 read an image only through its
    length, whether it seeds its letter and its zero-pattern row (a bit
    per letter it holds), so the pool is grouped by letter, seed-order
    rule (``_rule``), length and row, and both stages are counted from
    the group sizes (``stage_counts``).  The quick filter builds each
    fixed point once for every candidate that shares the images it reads
    (``quick_filter``).
    """

    def __init__(self, max_total: int, max_image: int):
        self.max_total = max_total
        self.lengths = range(1, min(max_image, max_total - 2) + 1)
        # groups[letter][rule][(length, row)] lists the images that obey the rule
        self.groups = [({}, {}, {}) for _ in TERNARY]
        for k in self.lengths:
            for letters in product(_LETTERS, repeat=k):
                image = bytes(letters)
                key = (k, sum(1 << i for i, a in enumerate(_LETTERS) if a in letters))
                for i, a in enumerate(_LETTERS):
                    for rule in (int(k >= 2 and letters[0] == a), 2):
                        self.groups[i][rule].setdefault(key, []).append(image)
        self._completions: dict[tuple, int] = {}

    def stage_counts(self) -> dict[str, int]:
        """The counts of "total", "no-fixed-point" and "non-primitive".  The
        first two are products of group sizes per length triple; the
        primitive candidates with a seed are the ``completions`` of no
        image at all."""
        not_seeding = [
            {
                k: sum(len(g) for (length, _row), g in groups[0].items() if length == k)
                for k in self.lengths
            }
            for groups in self.groups
        ]
        total = no_fixed_point = 0
        for ks in product(self.lengths, repeat=3):
            if sum(ks) <= self.max_total:
                total += 3 ** sum(ks)
                no_fixed_point += math.prod(n[k] for n, k in zip(not_seeding, ks))
        primitive = sum(
            self.completions(seed, (0, 0, 0), self.max_total) for seed in range(3)
        )
        return {
            "total": total,
            "no-fixed-point": no_fixed_point,
            "non-primitive": total - no_fixed_point - primitive,
        }

    def completions(self, seed: int, rows: tuple, budget: int) -> int:
        """The primitive candidates with the given seed whose images have
        the given rows, 0 for an image not chosen yet, when the images not
        chosen obey the seed-order rule in at most budget letters."""
        unread = rows.count(0)
        if not unread:
            return int(_pattern_is_primitive(rows))
        key = (seed, rows, budget)
        count = self._completions.get(key)
        if count is None:
            i = rows.index(0)
            count = sum(
                len(images) * self.completions(seed, _with(rows, i, row), budget - k)
                for (k, row), images in self.groups[i][_rule(i, seed)].items()
                if k <= budget - unread + 1
            )
            self._completions[key] = count
        return count

    @staticmethod
    def grow(images, text: bytes, read: int, goal: int, unread=()) -> tuple[bytes, int]:
        """(text, read) grown toward goal letters of the fixed point u = m(u)
        of the candidate whose images are given as ASCII bytes.  text is
        m(u[:read]), a prefix of u, and m maps no more letters past read
        than the goal can need, stopping before any letter of unread (ASCII
        codes of letters whose image is b"", not chosen yet).  A chunk is
        mapped by one translate of each letter to its mark and one replace
        of each mark by the letter's image.
        """
        ia, ib, ic = images
        while len(text) < goal:
            stop = min(len(text), read + goal - len(text))
            for a in unread:
                at = text.find(a, read, stop)
                if at >= 0:
                    stop = at
            if stop == read:
                break
            chunk = text[read:stop].translate(_MARKS)
            text += chunk.replace(b"\x80", ia).replace(b"\x81", ib).replace(b"\x82", ic)
            read = stop
        return text, read

    def quick_filter(self) -> tuple[int, list]:
        """The quick-imbalance count and the (images, seed) of every
        primitive candidate with a seed that the quick filter passes: images
        is the triple of images of A, B and C as ASCII bytes, and seed the
        index of the seed in ``TERNARY``.

        For each seed image the fixed point u = m(u) is grown lazily by
        ``grow`` until it holds 400 letters or reads a letter whose image is
        not chosen yet.  Then ``first_unbalanced_length`` tests the
        ``B_AS_01`` image of what has been read: up to ``PAIR_LENGTH`` on
        the first 60 letters, which its pair tests decide alone, then up to
        25 on 400.  An imbalance there is in the image of the 400-letter
        prefix of every candidate that shares the images read, so all of
        them, the ``completions``, leave at "quick-imbalance" at once.
        Otherwise the walk branches over the images of the letter read
        next, pruning every group without a primitive completion.  Both
        levels of ``QUICK_FILTER`` find an imbalance exactly when the longer
        one does, and the walk finds one exactly when they do.
        """
        quick = 0
        passed = []
        # the images chosen so far, b"" for the others
        images = [b""] * 3

        def walk(seed, rows, budget, text, read, level):
            # level: the QUICK_FILTER levels whose whole prefix is read and
            # whose image holds no imbalance
            nonlocal quick
            unread = [a for a, row in zip(_LETTERS, rows) if not row]
            while level < len(QUICK_FILTER):
                goal, window = QUICK_FILTER[level]
                text, read = self.grow(images, text, read, goal, unread)
                read_all = len(text) >= goal
                # level 0 is tested on what has been read, the longer
                # window only once the whole prefix is
                if level == 0 or read_all:
                    binary = B_AS_01.apply_text(text[:goal].decode())
                    found = first_unbalanced_length(
                        Word._trusted(binary, BINARY), window
                    )
                    if found is not None:
                        quick += self.completions(seed, rows, budget)
                        return
                if not read_all:
                    break
                level += 1
            if not unread:
                passed.append((tuple(images), seed))
                return
            i = _LETTERS.index(text[read] if level < len(QUICK_FILTER) else unread[0])
            spare = budget - len(unread) + 1
            for (k, row), group in self.groups[i][_rule(i, seed)].items():
                if k > spare:
                    continue
                chosen = _with(rows, i, row)
                if not self.completions(seed, chosen, budget - k):
                    continue
                for image in group:
                    images[i] = image
                    walk(seed, chosen, budget - k, text, read, level)
            images[i] = b""

        for seed in range(3):
            for (k, row), group in self.groups[seed][1].items():
                rows = _with((0, 0, 0), seed, row)
                if not self.completions(seed, rows, self.max_total - k):
                    continue
                for image in group:
                    images[seed] = image
                    walk(seed, rows, self.max_total - k, image, 1, 0)
            images[seed] = b""
        # walk refers to itself through its closure; without the cycle the
        # pool is freed when the search returns, not at the next collection
        del walk
        return quick, passed


def search_substitutions(
    max_total: int = 8,
    max_image: int | None = None,
    audit_prefix: int = 10_000,
) -> SearchReport:
    """Audit every ternary substitution within the given size bounds.

    Candidates are the morphisms A, B, C -> images of lengths (la, lb, lc),
    each at most max_image, with la + lb + lc <= max_total.  Each leaves
    through the first stage that disposes of it, and each stage is decided
    at its cheapest exact level.  The first three are counted, not
    enumerated (``_SearchPool``): "no-fixed-point" when no letter's image
    starts with it and has two letters or more (``find_expanding_letter``
    at power 1), and "non-primitive" when the images' zero pattern is not
    primitive (the test of ``is_primitive``), both as sums of products of
    group sizes; then "quick-imbalance" when ``first_unbalanced_length``
    finds a factor length up to 25 with imbalance 2 or more in the first
    binary image of the 400-letter fixed-point prefix, a sound refutation
    cheaper than the certificate.  That filter walks each fixed point
    once, lazily, for every candidate that shares the images it reads, and
    counts the candidates an imbalance decides without building them.  It
    first tests the first 60 letters up to ``PAIR_LENGTH``, which
    ``first_unbalanced_length`` decides by substring tests alone and where
    most candidates stop at length 2; the prefixes are nested, so what
    that finds is in the 400-letter image too.  Each candidate the filter
    passes leaves at "certificate-error", "-refuted", "-periodic" or
    "-consistent", the verdict of ``three_iet_certificate`` on its first
    ``CERTIFICATE_PREFIX`` fixed-point letters, the same certificate the
    audit reports; the walk's generator (``_SearchPool.grow``) grows them
    from the seed's image.  Only the certificate-consistent candidates
    become a ``Morphism`` and reach ``substitution_audit``; results are
    deterministic, ordered by the textual form.
    """
    if max_image is None:
        max_image = max_total - 2
    counts = {
        "total": 0,
        "no-fixed-point": 0,
        "non-primitive": 0,
        "quick-imbalance": 0,
        "certificate-error": 0,
        "certificate-refuted": 0,
        "certificate-periodic": 0,
        "certificate-consistent": 0,
        "audit-pass": 0,
        "audit-fail": 0,
        "audit-not-applicable": 0,
    }
    pool = _SearchPool(max_total, max_image)
    counts.update(pool.stage_counts())
    counts["quick-imbalance"], passed = pool.quick_filter()
    consistent = []
    for images, seed in passed:
        text, _read = pool.grow(images, images[seed], 1, CERTIFICATE_PREFIX)
        try:
            certificate = three_iet_certificate(
                Word._trusted(text[:CERTIFICATE_PREFIX].decode(), TERNARY)
            )
            stage = "consistent" if certificate.is_consistent else certificate.verdict
        except ValueError:
            stage = "error"
        counts[f"certificate-{stage}"] += 1
        if stage == "consistent":
            texts = dict(zip(TERNARY, map(bytes.decode, images)))
            consistent.append(Morphism(texts, TERNARY, TERNARY))

    audited = []
    for m in sorted(consistent, key=Morphism.to_text):
        report = substitution_audit(m, prefix_len=audit_prefix)
        counts[f"audit-{report.overall}"] += 1
        audited.append(
            AuditSummary(
                text=m.to_text(),
                overall=report.overall,
                reason=report.reason,
                epsilon=str(report.epsilon) if report.epsilon is not None else None,
                is_sturm=report.sturm.is_sturm if report.sturm is not None else None,
            )
        )
    return SearchReport(
        max_total=max_total,
        max_image=max_image,
        counts=counts,
        audited=tuple(audited),
    )
