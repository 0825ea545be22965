"""Acceptance battery: ten headline checks, one pass/fail line each.

Every sweep runs exact integer arithmetic at working precision 40, and
every length is certified there (a reading whose count of finite
elementary divisors fell short of the exact rank would raise
PrecisionUnstable and fail the criterion outright); rod_check reads no
length, since saturation is a theorem once det B is coprime to omega_n.
Run with `pytest tests/test_acceptance.py -v`; it takes a few seconds.
The last test pins every seed-0 report byte for byte.
"""

import hashlib
import json

import pytest

from iwarank.verify import (
    suite_additivity,
    suite_degrees,
    suite_growth,
    suite_lemma_33,
    suite_parity,
    suite_precision,
    suite_rod,
    suite_thm_app,
)


def _check(report, name):
    match = [c for c in report.checks if c.name == name]
    assert match, f"missing check {name!r} in suite {report.suite}"
    return match[0]


def _assert_clean(report):
    bad = [c.name for c in report.checks if not c.ok]
    assert not bad, f"suite {report.suite} failed checks: {bad}"


@pytest.fixture(scope="module")
def thm_app_report():
    return suite_thm_app(seed=0)


@pytest.fixture(scope="module")
def lemma_report():
    return suite_lemma_33(seed=0)


@pytest.fixture(scope="module")
def additivity_report():
    return suite_additivity(seed=0)


@pytest.fixture(scope="module")
def parity_report():
    return suite_parity(seed=0)


@pytest.fixture(scope="module")
def rod_report():
    return suite_rod(seed=0)


@pytest.fixture(scope="module")
def degrees_report():
    return suite_degrees(seed=0)


@pytest.fixture(scope="module")
def growth_report():
    return suite_growth(seed=0)


@pytest.fixture(scope="module")
def precision_report():
    return suite_precision(seed=0)


def test_criterion_01_brute_force_nabla_equals_det_ord(thm_app_report):
    """>= 50 random special matrices per (p, n), p=3 n<=3 and p=5 n<=2:
    brute-force step rank == ord_{eps_n}(det A), exact."""
    _assert_clean(thm_app_report)
    names = {c.name for c in thm_app_report.checks}
    assert names == {
        "special-p3-n1", "special-p3-n2", "special-p3-n3",
        "special-p5-n1", "special-p5-n2",
    }
    for c in thm_app_report.checks:
        assert c.details["count"] >= 50, c.name


def test_criterion_02_cyclic_towers_match_valuation(lemma_report):
    """>= 100 random f: brute-force nabla of Lambda/(f) == ord_{eps_n} f,
    exact, n <= 3 at p = 3."""
    total = 0
    for n in (1, 2, 3):
        c = _check(lemma_report, f"cyclic-ord-n{n}")
        assert c.ok, c.details
        total += c.details["count"]
    assert total >= 100


def test_criterion_03_torsion_closed_form_at_large_levels(lemma_report):
    """p^a * Phi-product * distinguished inputs: brute force equals
    lambda + phi(p^n) mu at the two largest tested levels."""
    c = _check(lemma_report, "torsion-stabilized")
    assert c.ok, c.details
    assert c.details["levels"] == [2, 3]
    assert c.details["count"] >= 10


def test_criterion_04_additivity_over_direct_sums(additivity_report):
    """nabla of a block-diagonal join equals the sum of the parts on
    >= 20 random pairs; constant finite systems report nabla = 0."""
    _assert_clean(additivity_report)
    assert _check(additivity_report, "direct-sums").details["count"] >= 20
    _check(additivity_report, "constant-finite-zero")


def test_criterion_05_good_basis_makes_every_level_special(parity_report):
    """>= 20 random Coleman pairs (entries degree <= 6): the returned B
    has det coprime to omega_3, F_n * B is special for all n <= 3, and
    the parity congruence holds at every m <= 3."""
    gb = _check(parity_report, "good-basis-special")
    assert gb.ok, gb.details
    assert gb.details["count"] >= 20
    pc = _check(parity_report, "parity-congruence")
    assert pc.ok, pc.details
    assert pc.details["count"] >= 20


def test_criterion_06_coleman_closed_form(parity_report):
    """On the same instances, brute force equals
    2 deg omega-tilde_n^sign + ord_{eps_n}(det Col^opp) at the
    parity-appropriate n in {2, 3}, exact."""
    c = _check(parity_report, "signed-closed-form")
    assert c.ok, c.details
    assert c.details["applicable"] > 0
    assert c.details["failures"] == 0


def test_criterion_07_span_saturation(rod_report):
    """>= 20 random B with unit-resultant determinants: inside the level
    n+1 quotient, span(B) meets omega_n * ambient exactly in
    omega_n * span(B), for n <= 2; and >= 20 with a Phi_m (m <= n)
    column factor, each refused with NotCoprime."""
    for kind in ("saturation", "not-coprime"):
        total = 0
        for n in (1, 2):
            c = _check(rod_report, f"{kind}-n{n}")
            assert c.ok, c.details
            assert c.details["test_level"] == n + 1
            total += c.details["count"]
        assert total >= 20


def test_criterion_08_signed_degree_identities(degrees_report):
    """deg omega-tilde_n^+ == s_{n-1} (odd n) and
    deg omega-tilde_n^- == s_{n-1} - 1 (even n), n <= 8, p in {3,5,7}."""
    _assert_clean(degrees_report)
    assert {c.name for c in degrees_report.checks} == {
        "signed-degrees-p3", "signed-degrees-p5", "signed-degrees-p7",
    }
    for c in degrees_report.checks:
        assert len(c.details["rows"]) == 8


def test_criterion_09_growth_table_regression(growth_report):
    """Zero invariants at p=3 give the delta sequence (0, 6, 12, 42) for
    n = 1..4; every generated table telescopes exactly."""
    _assert_clean(growth_report)
    assert _check(growth_report, "frozen-deltas").details["deltas"] == [0, 6, 12, 42]


def test_criterion_10_precision_protocol(
    thm_app_report, lemma_report, additivity_report, parity_report, rod_report, precision_report
):
    """All lengths behind criteria 1-7 were certified at N = 40 (rod_check
    reads none: it checks the coprimality that proves saturation) — any
    failure would have raised PrecisionUnstable inside those sweeps — and
    forcing N = 3 on the criterion-1 computation raises PrecisionUnstable
    rather than reporting a wrong answer."""
    for report in (
        thm_app_report, lemma_report, additivity_report, parity_report, rod_report
    ):
        _assert_clean(report)
    c = _check(precision_report, "low-precision-raises")
    assert c.ok, c.details
    assert c.details["raised"] is True
    assert c.details["lied"] is False


# SHA-256 of json.dumps(report.to_json_dict(), sort_keys=True) for every
# suite at seed 0 and scale 1: any change to a draw, a count or a
# reported number moves one of these
REPORT_DIGESTS = {
    "thm_app": "b6179c742d891882c38b575e4db29d3a39891411a9b5d0a5a3bf21784051e181",
    "lemma": "f2ba948c5145414d944184cfcf3906343fce214992024ab8a2f410706ccf6e75",
    "additivity": "24f1144569a8ab4cf38e94dfa2215cedca1841f2c5c8bc4e78865eb490234ccc",
    "parity": "945f50002c5db4f328afbd0edfd9a87494ad8af5bba6877614604e68a817c575",
    "rod": "5ba79886048cfab45c9f3b2cdce3d0f2f5717d3cb3cc46c5f05c3b6754578028",
    "degrees": "ee1858937f5c58a111e6539fe57d93c29d94cf6965e0def2bd81d5ef8cdc3879",
    "growth": "673a07f538f87e3ddd8512ea30529fb4c1e534b959f0ba4ab1e39d098a37a152",
    "precision": "2464cd37eca2928a27be5b93e367c959f72ded299cb51d1e5178bcb905c1115a",
}


@pytest.mark.parametrize("fixture", sorted(REPORT_DIGESTS))
def test_report_digest(request, fixture):
    report = request.getfixturevalue(f"{fixture}_report")
    blob = json.dumps(report.to_json_dict(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == REPORT_DIGESTS[fixture]
