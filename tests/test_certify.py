import copy
import json
import random

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from polycert.arith import extract_witness_report, is_prime
from polycert.certify import (CRIT_COMBINED, CRIT_LEADING_DOMINANT,
                              CRIT_LENS_COT, CRIT_NONNEG, CRIT_PARTIAL_SUMS,
                              MAX_SEARCH_SPAN,
                              CRIT_SINGLE_VARIATION, CRIT_THM_POWER,
                              CRIT_THM_POWER_SQRT, CRIT_THM_PQ,
                              CRIT_THM_PQ_SQRT, Certifier,
                              MalformedCertificateError, certificate_verify,
                              certify_any, certify_combined_report,
                              certify_lens_report, certify_negative_m,
                              certify_sector_prime_power_report,
                              certify_sector_pq_report, search_m)
from polycert.oracles import irreducible_bruteforce
from polycert.poly import Polynomial, parse_polynomial

from conftest import random_polynomial

FLAGSHIP = parse_polynomial("X^4-10*X^3+2162")


def test_digit_cubic_nonneg_path():
    cert = certify_any(parse_polynomial("X^3+9*X^2+7*X+3"), 10, modes=("pq",))
    assert cert is not None and cert.criterion == CRIT_NONNEG
    assert cert.witness.p == 1973 and not cert.conditional


def test_dominant_leading_coefficient_path():
    cert = certify_any(parse_polynomial("2*X^3+X-1"), 4, modes=("pq",))
    assert cert is not None and cert.criterion == CRIT_LEADING_DOMINANT


def test_partial_sums_path():
    cert = certify_any(parse_polynomial("3*X^5+X^4-2*X^3+X^2-3*X+1"), 3, modes=("pq",))
    assert cert is not None and cert.criterion == CRIT_PARTIAL_SUMS
    assert cert.region["sector"]["method"] == "shifted:1"


def test_single_variation_path():
    cert = certify_any(parse_polynomial("2*X^4+2*X^3-2*X-1"), 4, modes=("pq",))
    assert cert is not None and cert.criterion == CRIT_SINGLE_VARIATION


def test_sqrt_variant_needs_no_rational_root():
    cert = certify_any(parse_polynomial("X^2+3"), 3, q_max=4, modes=("pq",))
    assert cert is not None and cert.criterion == CRIT_THM_PQ_SQRT
    assert (cert.witness.p, cert.witness.q) == (3, 4)
    # with a rational root the sqrt variant must not fire: (X-1)(X-5)+small...
    # f = X^2-2X-3 has roots 3 and -1; nothing should certify anywhere
    assert certify_any(parse_polynomial("X^2-2*X-3"), 9, q_max=4, modes=("pq",)) is None


def test_plain_pq_with_cofactor():
    cert = certify_any(parse_polynomial("X^2+1"), 5, q_max=2, modes=("pq",))
    assert cert is not None and cert.criterion == CRIT_THM_PQ
    assert (cert.witness.p, cert.witness.q) == (13, 2)


def test_prime_power_small_square():
    cert = certify_any(parse_polynomial("X^2+X+1"), 2, modes=("prime_power",))
    assert cert is not None and cert.criterion == CRIT_THM_POWER
    w = cert.witness
    assert (w.p, w.k, w.q, w.ell, w.r) == (7, 1, 1, 0, 5)


def test_prime_power_insufficient_margin():
    assert certify_any(parse_polynomial("X^2+3"), 3, modes=("prime_power",)) is None


def test_prime_power_cube():
    cert = certify_any(parse_polynomial("X^2+2"), 5, modes=("prime_power",))
    assert cert is not None and cert.criterion == CRIT_THM_POWER
    assert (cert.witness.p, cert.witness.k) == (3, 3)


def test_prime_power_sqrt_variant():
    cert = certify_any(parse_polynomial("X^3+3*X+29"), 5, modes=("prime_power",))
    assert cert is not None and cert.criterion == CRIT_THM_POWER_SQRT
    w = cert.witness
    assert (w.p, w.k, w.ell) == (13, 2, 1) and w.s == 1


def test_lens_flagship():
    cert = certify_any(FLAGSHIP, 3, modes=("lens",))
    assert cert is not None and cert.criterion == CRIT_LENS_COT
    assert cert.witness.p == 1973
    assert cert.primality_status == "proven_prime"
    assert irreducible_bruteforce(FLAGSHIP).status == "irreducible"


def test_lens_rejects_outside_interval():
    cert, reason = certify_lens_report(Certifier(FLAGSHIP), 5)
    assert cert is None and reason in ("outside-region", "value-composite")
    assert certify_any(FLAGSHIP, 5, modes=("pq",)) is None


def test_lens_quartic_family_instance():
    # 81 - 27a + b prime with b > 216a certifies at m = 3
    a, b = 4, 1004  # f(3) = 977, prime
    f = parse_polynomial(f"X^4-{a}*X^3+{b}")
    assert b > 216 * a and is_prime(81 - 27 * a + b).is_prime
    cert = certify_any(f, 3, modes=("lens",))
    assert cert is not None


def test_combined_lens_branch():
    cert = certify_combined_report(Certifier(FLAGSHIP), 3)[0]
    assert cert is not None and cert.criterion == CRIT_COMBINED
    assert cert.region["branch"] == "lens"


def test_combined_ray_branch():
    # exact evaluation gives f(13) = 8753, a prime, and 13 > 10 + sqrt(2)
    assert FLAGSHIP.evaluate(13) == 8753
    assert is_prime(8753).status.value == "proven_prime"
    cert = certify_combined_report(Certifier(FLAGSHIP), 13)[0]
    assert cert is not None and cert.region["branch"] == "ray"


def test_combined_nonneg_equals_sector_path():
    f = parse_polynomial("X^3+9*X^2+7*X+3")
    cert = certify_combined_report(Certifier(f), 10)[0]
    assert cert is not None and cert.region["branch"] == "ray"


def test_search_flagship():
    report = search_m(FLAGSHIP, 1, 20)
    assert report.certificate is not None and report.certificate.m == 3
    assert report.certificate.criterion == CRIT_LENS_COT
    by_m = {o.m: o.outcome for o in report.outcomes}
    assert by_m[1] == "outside-region"  # f(1) = 2153 is prime but m is too small
    assert by_m[2] == "value-composite"
    assert by_m[3] == "certified"
    assert report.scanned_hi == 3


def test_search_digit_polynomial():
    f = Polynomial([3, 7, 9, 1])
    report = search_m(f, 10, 10)
    assert report.certificate is not None
    assert report.certificate.criterion == CRIT_NONNEG


def test_search_reducible_is_never_certified():
    g = parse_polynomial("(X^2+1)*(X^2+3)")
    report = search_m(g, 1, 50, exhaustive=True)
    assert report.certificate is None
    assert len(report.outcomes) == 50
    assert {o.m for o in report.outcomes} == set(range(1, 51))


def test_search_reports_missing_lens_as_inapplicable():
    # degree 2 and a zero constant term give no lens at all, not a degenerate one
    for expr in ("X^2-10", "X^3-10*X"):
        report = search_m(parse_polynomial(expr), 1, 2)
        assert [o.detail for o in report.outcomes] == \
            ["lens-inapplicable;value-nonpositive"] * 2, expr
    report = search_m(parse_polynomial("(X^2+1)*(X^2+3)"), 1, 30, q_max=3)
    assert "lens-degenerate;q-exceeds" in {o.detail for o in report.outcomes}


def test_certifier_builds_each_region_once(monkeypatch):
    import polycert.certify as certify_module
    calls = {}

    def counting(name):
        original = getattr(certify_module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(certify_module, name, wrapper)

    for name in ("sector_candidates", "lens_of", "interval_disk_in_lens",
                 "has_rational_root", "extract_witness_report"):
        counting(name)
    ctx = Certifier(parse_polynomial("(X-3)*(X^2+X+7)"), q_max=3)
    for m in range(1, 31):
        assert ctx.certify(m)[0] is None
    assert calls["lens_of"] == calls["interval_disk_in_lens"] == 1
    assert calls["sector_candidates"] == calls["has_rational_root"] == 1
    # with q_max 1 the lens and prime-value criteria share one witness per m
    calls.clear()
    ctx = Certifier(FLAGSHIP)
    assert ctx.certify(2, ("lens", "pq"))[1] == ["value-composite"] * 2
    assert calls == {"lens_of": 1, "interval_disk_in_lens": 1,
                     "extract_witness_report": 1}
    # the combined criterion's ray branch runs on the caller's context too
    calls.clear()
    ctx = Certifier(parse_polynomial("X^3-X^2-3*X-3"), q_max=3)
    for m in range(1, 31):
        ctx.certify(m)
        certify_combined_report(ctx, m)
    assert calls["sector_candidates"] == calls["has_rational_root"] == 1


# Most draws are filtered out (f(m) must be a prime times a q_max-smooth q),
# which Hypothesis's filter health check reports on about half of all seeds.
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(st.lists(st.integers(-20, 20), min_size=2, max_size=6),
       st.integers(1, 20), st.integers(1, 40), st.sampled_from([1, 3, 10]))
@example([-3, -3, -1], 1, 5, 4)  # X^3-X^2-3X-3 at 5: 41*2, the square-root radius
def test_prime_value_criterion_is_prime_power_criterion_at_s_zero(low, lead, m, q_max):
    f = Polynomial(low + [lead])
    witness, _ = extract_witness_report(f.evaluate(m), f.derivative().evaluate(m),
                                        q_max, "prime_power")
    assume(witness is not None and witness.k == 1 and witness.ell == 0)
    ctx = Certifier(f, q_max)
    pq, pq_reason = certify_sector_pq_report(ctx, m)
    power, power_reason = certify_sector_prime_power_report(ctx, m)
    assert (pq is None) == (power is None)
    if pq is None:
        assert pq_reason == power_reason == "outside-region"
        return
    assert pq.checks[0].left == power.checks[0].left
    assert (pq.criterion == CRIT_THM_PQ_SQRT) == (power.criterion == CRIT_THM_POWER_SQRT)


def test_search_validates_range():
    with pytest.raises(ValueError):
        search_m(FLAGSHIP, 5, 4)
    with pytest.raises(ValueError):
        search_m(FLAGSHIP, 0, 4)


def test_search_modes_restriction():
    f = parse_polynomial("X^2+X+1")
    report = search_m(f, 2, 2, modes=("prime_power",))
    assert report.certificate is not None
    assert report.certificate.criterion == CRIT_THM_POWER


@pytest.mark.parametrize("modes", [("lense",), "pq", ("pq", "prime-power")])
def test_unknown_modes_are_rejected_everywhere(modes):
    # a misspelt mode must not read as "no certificate"
    f = parse_polynomial("X^4-10*X^3+2162")
    for attempt in (lambda: certify_any(f, 3, modes=modes),
                    lambda: certify_negative_m(f, -3, modes=modes),
                    lambda: Certifier(f).certify(3, modes),
                    lambda: search_m(f, 1, 3, modes=modes)):
        with pytest.raises(ValueError, match="unknown modes"):
            attempt()


def test_monotone_in_m_for_prime_values():
    # once past the fixed threshold, every later prime value certifies too
    f = parse_polynomial("X^3+9*X^2+7*X+3")
    threshold_seen = False
    for m in range(2, 120):
        cert = certify_any(f, m, modes=("pq",))
        if cert is not None:
            threshold_seen = True
        if threshold_seen and is_prime(f.evaluate(m)).is_prime:
            assert certify_any(f, m, modes=("pq",)) is not None


def test_negative_m_round_trip():
    f = parse_polynomial("X^2+X+1")
    cert = certify_negative_m(f, -3)
    assert cert is not None
    assert cert.m == -3 and cert.negated_argument
    assert cert.polynomial == f
    assert f.evaluate(-3) == 7
    assert certificate_verify(cert)


def test_soundness_planted_reducibles_quick():
    rng = random.Random(123)
    for _ in range(40):
        g = random_polynomial(rng, 1, 3, 10)
        h = random_polynomial(rng, 1, 3, 10)
        f = g * h
        if f.degree() < 2:
            continue
        report = search_m(f, 1, 40, q_max=2, exhaustive=True)
        assert report.certificate is None, f


def test_agreement_with_bruteforce_on_certified(fuzz_corpus):
    rng = random.Random(7)
    checked = 0
    for f in fuzz_corpus:
        if checked >= 25 or f.degree() > 6:
            continue
        m = rng.randint(1, 30)
        cert = certify_any(f, m, modes=("pq",))
        if cert is None or cert.witness.q != 1:
            continue
        assert irreducible_bruteforce(f).status == "irreducible"
        checked += 1
    assert checked > 0


# -- replay and tamper detection ------------------------------------------------


def _certificate_pile():
    return [
        certify_any(FLAGSHIP, 3, modes=("lens",)),
        certify_any(parse_polynomial("X^3+9*X^2+7*X+3"), 10, modes=("pq",)),
        certify_any(parse_polynomial("X^2+3"), 3, q_max=4, modes=("pq",)),
        certify_any(parse_polynomial("X^3+3*X+29"), 5, modes=("prime_power",)),
        certify_combined_report(Certifier(FLAGSHIP), 13)[0],
        certify_negative_m(parse_polynomial("X^2+X+1"), -3),
    ]


def test_replay_round_trip():
    for cert in _certificate_pile():
        assert cert is not None
        data = json.loads(json.dumps(cert.to_json()))
        assert certificate_verify(data)


def test_replay_rejects_all_single_field_tampers():
    cert = certify_any(FLAGSHIP, 3, modes=("lens",))
    base = cert.to_json()

    def tampered(path, value):
        d = copy.deepcopy(base)
        node = d
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return d

    rejected = []
    cases = [
        (("m",), 2),
        (("m",), 4),
        (("polynomial",), [2162, 0, 0, -10, 2]),
        (("criterion",), "thm39_lens"),
        (("witness", "p"), 1974),
        (("witness", "q"), 2),
        (("witness", "k"), 2),
        (("conditional",), True),
        (("primality",), "probable_prime"),
        (("digits",), 13),
        (("region", "lens", "v_tilde_upper"), "0.300000000000000000"),
        (("region", "intervals", 0, "lo"), "0.100000000000000000"),
        (("checks", 0, "margin"), "9.000000000000000000"),
        (("checks", 1, "left"), "0.000000000000000000"),
    ]
    for path, value in cases:
        data = tampered(path, value)
        try:
            ok = certificate_verify(data)
        except MalformedCertificateError:
            ok = False
        rejected.append(not ok)
    assert all(rejected)


def test_replay_detects_missing_fields_and_schema():
    cert = certify_any(FLAGSHIP, 3, modes=("lens",)).to_json()
    bad = copy.deepcopy(cert)
    del bad["witness"]
    with pytest.raises(MalformedCertificateError):
        certificate_verify(bad)
    bad2 = copy.deepcopy(cert)
    bad2["schema"] = 2
    with pytest.raises(MalformedCertificateError):
        certificate_verify(bad2)
    with pytest.raises(MalformedCertificateError):
        certificate_verify(["not", "a", "certificate"])


def test_certify_any_orders_lens_first():
    cert = certify_any(FLAGSHIP, 3)
    assert cert.criterion == CRIT_LENS_COT


def test_checks_have_positive_margins():
    for cert in _certificate_pile():
        for c in cert.checks:
            assert c.margin > 0


def test_search_span_is_bounded(deadline):
    reducible = parse_polynomial("(X^2+1)*(X^2+3)")
    deadline(1)
    with pytest.raises(ValueError, match="search range spans"):
        search_m(reducible, 1, 10**8)
    with pytest.raises(ValueError, match="search range spans"):
        search_m(reducible, 5, 5 + MAX_SEARCH_SPAN)
    report = search_m(reducible, 5, 104, modes=("pq",))
    assert report.certificate is None and len(report.outcomes) == 100
