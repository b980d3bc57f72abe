"""Certificates, parameter recovery, substitution audits, searches."""

import functools
from collections import Counter
from fractions import Fraction

import oracle
import pytest
from hypothesis import given
from hypothesis import strategies as st

from iet3.audit import (
    FREQUENCY_TOLERANCE,
    FREQUENCY_PREFIX,
    FactsReport,
    _candidate_stages,
    _frequency_check,
    RecoveryError,
    facts_check,
    is_sturm,
    recover_parameters,
    search_substitutions,
    substitution_audit,
    three_iet_certificate,
)
from iet3.dynamics import IetParameters, ThreeIet
from iet3.morphisms import Morphism
from iet3.qfield import FieldMismatchError, QuadraticNumber, parse_quadratic, sqrt_int
from iet3.words import TERNARY, Word

GOOD = Morphism.from_text("A>AB;B>AACA;C>A")


# -- Sturm predicate -----------------------------------------------------------


def test_sturm_reference_values():
    assert is_sturm(parse_quadratic("(-1+sqrt(5))/2")).is_sturm is True
    assert is_sturm(parse_quadratic("1/2*sqrt(2)")).is_sturm is True
    assert is_sturm(parse_quadratic("(2-sqrt(2))/4")).is_sturm is False
    assert is_sturm(Fraction(1, 2)).is_sturm is False


def test_sturm_verdict_components_explain_the_failures():
    rational = is_sturm(Fraction(1, 2))
    assert not rational.is_quadratic_irrational

    conj_inside = is_sturm(parse_quadratic("(2-sqrt(2))/4"))
    assert conj_inside.is_quadratic_irrational
    assert conj_inside.in_unit_interval
    assert not conj_inside.conjugate_outside_unit_interval

    outside = is_sturm(parse_quadratic("1+sqrt(2)"))
    assert not outside.in_unit_interval
    assert outside.is_sturm is False


@given(st.fractions(min_value=-2, max_value=2))
def test_rationals_are_never_sturm(x):
    verdict = is_sturm(x)
    assert not verdict.is_quadratic_irrational
    assert not verdict.is_sturm


@given(st.integers(min_value=-3, max_value=3), st.sampled_from([2, 3, 5, 7]))
def test_integer_shifts_of_surds_judge_by_the_unit_interval(shift, d):
    x = shift + parse_quadratic(f"sqrt({d})")
    verdict = is_sturm(x)
    assert verdict.is_quadratic_irrational
    assert verdict.is_sturm == (0 < x < 1 and not 0 < x.conjugate() < 1)


# -- 3iet certificate ------------------------------------------------------------


def test_certificate_accepts_a_genuine_coding(golden_word_100k):
    report = three_iet_certificate(golden_word_100k[:2000])
    assert report.verdict == "consistent-with-3iet"
    assert report.is_consistent
    assert report.witness is None
    assert report.max_imbalance == {"b_as_01": 1, "b_as_10": 1}


def test_certificate_refutes_an_unbalanced_word():
    report = three_iet_certificate(Word("AACC" * 300), min_length=100)
    assert report.verdict == "refuted"
    witness = report.witness
    assert witness["imbalance"] >= 2
    top, bottom = witness["max_factor"], witness["min_factor"]
    assert len(top) == len(bottom) == witness["factor_length"]
    assert top.count("1") - bottom.count("1") == witness["imbalance"]


def test_certificate_flags_periodic_images():
    report = three_iet_certificate(Word("AC" * 600), min_length=100)
    assert report.verdict == "periodic"
    assert report.witness["complexity"] < report.witness["required"]


def test_certificate_needs_all_letters_only_for_a_positive_verdict():
    from iet3.morphisms import fixed_point_prefix

    fib = fixed_point_prefix(Morphism.from_text("A>AC;C>A"), n=1200)
    with pytest.raises(ValueError, match="missing letter"):
        three_iet_certificate(fib)


def test_certificate_rejects_short_samples():
    with pytest.raises(ValueError, match="at least"):
        three_iet_certificate(Word("AACAB"), min_length=1000)


# -- parameter recovery ------------------------------------------------------------


def test_recovery_on_the_golden_coding(golden_params, golden_word_100k):
    rec = recover_parameters(golden_word_100k[:20_000], golden_params.epsilon)
    assert rec.c_hat == 0
    gap = rec.l_hat - golden_params.length_l
    assert 0 <= gap < Fraction(1, 1000)
    assert rec.convention == "left-closed"
    assert rec.match_fraction == 1
    assert rec.first_mismatch is None
    assert rec.threshold_consistent
    assert not rec.attained_infimum
    assert rec.position_count == golden_word_100k[:20_000].letters.count("B")


def test_recovery_with_a_negative_offset(root_two_params):
    word = ThreeIet(root_two_params).code_orbit(20_000).word
    rec = recover_parameters(word, root_two_params.epsilon)
    assert root_two_params.offset_c <= rec.c_hat
    assert rec.c_hat - root_two_params.offset_c < Fraction(1, 1000)
    assert rec.l_hat >= root_two_params.length_l
    assert rec.match_fraction == 1


def test_recovery_error_messages_name_the_obstruction():
    with pytest.raises(RecoveryError, match="insufficient data"):
        recover_parameters(Word("A"), Fraction(1, 2))
    with pytest.raises(RecoveryError, match="no B occurrences"):
        recover_parameters(Word("ACACAC"), parse_quadratic("(-1+sqrt(5))/2"))


def test_recovery_with_the_wrong_slope_fails(golden_word_100k):
    with pytest.raises(RecoveryError):
        recover_parameters(golden_word_100k[:3000], parse_quadratic("1/2*sqrt(2)"))


# -- substitution audit ---------------------------------------------------------------


@pytest.fixture(scope="module")
def good_report():
    return substitution_audit(GOOD)


def test_known_invariant_substitution_passes_every_check(good_report):
    r = good_report
    assert r.overall == "pass"
    assert r.reason is None
    assert r.note == "no necessary condition violated"
    assert r.epsilon == parse_quadratic("1/2*sqrt(2)")
    assert r.l_exact == parse_quadratic("(3-sqrt(2))/2")
    assert r.primitive and r.fixed_point_consistent and r.non_degenerate
    assert r.certificate.is_consistent
    assert r.sturm.is_sturm
    assert r.spectral.classification == "quadratic-unit"
    assert r.non_singular and r.quadratic_unit
    assert r.eigenvector_relation_holds
    assert r.parameters_in_field
    assert r.conjugate_vector_uniform_sign
    assert r.scaling_relation_holds and r.scaling_prefixes > 0
    assert r.frequencies_consistent and r.frequency_deviation < 1e-3
    assert r.recovery.match_fraction == 1


def test_recovered_offset_and_length_are_tight(good_report):
    rec = good_report.recovery
    assert rec.threshold_consistent
    assert 0 <= rec.l_hat - good_report.l_exact < Fraction(1, 100)
    assert -good_report.l_exact < rec.c_hat <= 0


def test_degenerate_instance_is_ruled_out_by_complexity_not_by_recovery():
    r = substitution_audit(Morphism.from_text("A>ACA;B>ACA;C>B"))
    assert r.overall == "not-applicable"
    assert "complexity" in r.reason
    # every earlier stage succeeds, which is exactly why the explicit
    # complexity gate is load-bearing
    assert r.certificate.is_consistent
    assert r.recovery is not None and r.recovery.match_fraction == 1
    assert r.spectral.determinant == 0
    assert r.sturm is None or not r.sturm.is_sturm


def test_identity_substitution_has_no_expanding_fixed_point():
    r = substitution_audit(Morphism.from_text("A>A;B>B;C>C"))
    assert r.overall == "not-applicable"
    assert "expanding" in r.reason


def test_missing_letter_is_reported_before_any_verdict():
    r = substitution_audit(Morphism.from_text("A>AB;B>A;C>C"))
    assert r.overall == "not-applicable"
    assert "missing letter" in r.reason
    assert r.primitive is False


def test_audit_requires_the_ternary_source_alphabet():
    with pytest.raises(ValueError, match="A, B, C"):
        substitution_audit(Morphism.from_text("0>01;1>0"))


# -- structural identities on images ---------------------------------------------------


@pytest.fixture(scope="module")
def good_params(good_report):
    return IetParameters(
        good_report.epsilon, good_report.l_exact, good_report.recovery.c_hat
    )


def test_image_identities_hold_at_depth(good_params):
    report = facts_check(GOOD, good_params, 120)
    assert report.all_hold
    assert report.shift_consistent
    assert report.sets_disjoint
    assert report.uniform_next_letter
    assert report.union_complete
    assert report.findings == ()
    assert report.sample_points > 0


def test_zero_depth_is_vacuously_true(good_params):
    report = facts_check(GOOD, good_params, 0)
    assert report.all_hold and report.sample_points == 0
    with pytest.raises(ValueError):
        facts_check(GOOD, good_params, -1)


#: (occurrence, shared point) of each clash the planted height 0 at (B, 1)
#: makes at depth 120, recorded before the values took integer numerators
PLANTED_CLASHES = (
    (1, "(4-3*sqrt(2))/2"), (7, "14-10*sqrt(2)"), (9, "(38-27*sqrt(2))/2"),
    (12, "(52-37*sqrt(2))/2"), (14, "31-22*sqrt(2)"), (20, "(86-61*sqrt(2))/2"),
    (26, "55-39*sqrt(2)"), (28, "(120-85*sqrt(2))/2"), (34, "72-51*sqrt(2)"),
    (40, "(168-119*sqrt(2))/2"), (42, "89-63*sqrt(2)"), (45, "96-68*sqrt(2)"),
    (47, "(202-143*sqrt(2))/2"), (53, "113-80*sqrt(2)"),
    (55, "(236-167*sqrt(2))/2"), (58, "(250-177*sqrt(2))/2"),
    (60, "130-92*sqrt(2)"), (66, "(284-201*sqrt(2))/2"), (72, "154-109*sqrt(2)"),
    (74, "(318-225*sqrt(2))/2"), (77, "(332-235*sqrt(2))/2"),
    (79, "171-121*sqrt(2)"), (85, "(366-259*sqrt(2))/2"), (87, "188-133*sqrt(2)"),
    (90, "195-138*sqrt(2)"), (92, "(400-283*sqrt(2))/2"), (98, "212-150*sqrt(2)"),
    (104, "(448-317*sqrt(2))/2"), (106, "229-162*sqrt(2)"),
    (112, "(482-341*sqrt(2))/2"), (118, "253-179*sqrt(2)"),
)


def test_perturbing_one_translation_breaks_disjointness(good_params):
    report = facts_check(GOOD, good_params, 120, t_override={("B", 1): 0})
    findings = []
    for n, point in PLANTED_CLASHES:
        findings.append(f"shift identity fails for (B, prefix 1) at occurrence {n}")
        findings.append(
            f"sets for (B, prefix 1) and (B, prefix 0) share the point {point} "
            f"(occurrences {n} and {n})"
        )
    findings.append("union covers 258 of 289 sampled heights")
    assert report == FactsReport(
        depth=120,
        sample_points=289,
        shift_consistent=False,
        sets_disjoint=False,
        uniform_next_letter=True,
        union_complete=False,
        findings=tuple(findings),
    )
    assert len(report.findings) == 63 and not report.all_hold


def test_a_planted_height_from_another_field_is_refused(good_params):
    with pytest.raises(FieldMismatchError):
        facts_check(GOOD, good_params, 120, t_override={("B", 1): sqrt_int(3)})


# -- exhaustive search -------------------------------------------------------------


SEARCH_COUNTS = {
    6: {
        "total": 9018,
        "no-fixed-point": 4617,
        "non-primitive": 3391,
        "quick-imbalance": 983,
        "certificate-refuted": 19,
        "certificate-periodic": 8,
    },
    7: {
        "total": 41823,
        "no-fixed-point": 19683,
        "non-primitive": 15274,
        "quick-imbalance": 6738,
        "certificate-refuted": 90,
        "certificate-periodic": 8,
        "certificate-consistent": 30,
        "audit-pass": 12,
        "audit-not-applicable": 18,
    },
    8: {
        "total": 179604,
        "no-fixed-point": 79461,
        "non-primitive": 61555,
        "quick-imbalance": 38112,
        "certificate-refuted": 360,
        "certificate-periodic": 32,
        "certificate-consistent": 84,
        "audit-pass": 12,
        "audit-not-applicable": 72,
    },
    9: {
        "total": 730728,
        "no-fixed-point": 308367,
        "non-primitive": 231071,
        "quick-imbalance": 190063,
        "certificate-refuted": 1015,
        "certificate-periodic": 66,
        "certificate-consistent": 146,
        "audit-pass": 42,
        "audit-not-applicable": 104,
    },
}


@functools.cache
def search_report(max_total: int):
    return search_substitutions(max_total=max_total)


def assert_search_is_exhaustive_and_violation_free(max_total: int):
    report = search_report(max_total)
    counts = report.counts
    # every candidate leaves through exactly one pre-audit stage, and every
    # certificate-consistent one through exactly one audit outcome
    staged = sum(
        v for k, v in counts.items() if k != "total" and not k.startswith("audit-")
    )
    assert staged == counts["total"] > 0
    audits = sum(v for k, v in counts.items() if k.startswith("audit-"))
    assert audits == counts["certificate-consistent"] == len(report.audited)
    assert counts == {k: SEARCH_COUNTS[max_total].get(k, 0) for k in counts}
    assert counts["audit-fail"] == 0
    assert report.failures == ()
    assert [s.text for s in report.audited] == sorted(s.text for s in report.audited)
    for summary in report.passes:
        assert summary.is_sturm is True


def test_small_search_is_exhaustive_and_violation_free():
    assert_search_is_exhaustive_and_violation_free(6)


def test_search_reaching_the_audit_is_exhaustive_and_violation_free():
    # total length 7 is the least bound with certificate-consistent candidates
    assert_search_is_exhaustive_and_violation_free(7)


@pytest.mark.parametrize("max_total", [8, 9])
def test_longer_searches_keep_their_stage_counts(max_total):
    # total length 10 (2.9 M candidates) stays out until the search is faster
    assert_search_is_exhaustive_and_violation_free(max_total)


def test_every_candidate_leaves_at_the_stage_of_the_oracle():
    # the candidates of search_substitutions(7), in its order
    stages = Counter()
    for images, stage in _candidate_stages(7, 5):
        m = Morphism(dict(zip(TERNARY, images)))
        assert stage == oracle.search_stage(m), m
        stages[stage] += 1
    assert sum(stages.values()) == SEARCH_COUNTS[7]["total"]
    assert stages == {
        k: v for k, v in SEARCH_COUNTS[7].items()
        if k != "total" and not k.startswith("audit-")
    }


# -- letter frequencies ------------------------------------------------------------


def test_the_frequency_gate_decides_a_near_tie_exactly():
    u = Word("A" * 500 + "B" * 250 + "C" * 250)
    quarter = QuadraticNumber(Fraction(1, 4))
    # A's share 1/2 sits 1/1000 - 1e-20, then 1/1000 + 1e-20, above its
    # density: both densities round to one float, so only exact
    # arithmetic tells the two gaps apart
    tiny = Fraction(1, 10**20)
    counts = [u.count(a) for a in TERNARY]
    near, far = (
        _frequency_check(
            counts, len(u), (QuadraticNumber(Fraction(499, 1000) + t), quarter, quarter)
        )
        for t in (tiny, -tiny)
    )
    assert FREQUENCY_TOLERANCE == Fraction(1, 1000)
    assert near == (far[0], True)
    assert far[1] is False
    assert abs(far[0] - 1e-3) < 1e-15


def test_audited_frequencies_match_a_built_prefix():
    # the 30 audits of search_substitutions(7) count their letters by
    # descent; the oracle builds the 10^5 letters and counts them
    reached = 0
    for summary in search_report(7).audited:
        m = Morphism.from_text(summary.text)
        report = substitution_audit(m)
        if report.l_exact is None:
            assert report.frequency_deviation is None
            assert report.frequencies_consistent is None
            continue
        reached += 1
        u = oracle.fixed_point_prefix(m, report.expanding.letter, FREQUENCY_PREFIX)
        counts = Counter(u)
        # the densities that l and epsilon were read from
        b = 1 / report.l_exact - 1
        c = 1 - report.epsilon / report.l_exact
        densities = (1 - b - c, b, c)
        assert report.frequency_deviation == max(
            abs(counts[a] / len(u) - float(rho)) for a, rho in zip(TERNARY, densities)
        )
        assert report.frequencies_consistent == all(
            abs(QuadraticNumber(Fraction(counts[a], len(u))) - rho) < FREQUENCY_TOLERANCE
            for a, rho in zip(TERNARY, densities)
        )
    assert reached > 0
