import copy
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from polycert.arith import MAX_Q_MAX, extract_witness_report, is_prime
from polycert.certify import (CRIT_COMBINED, CRIT_LEADING_DOMINANT, DEFAULT_MODES,
                              CRIT_LENS_COT, CRIT_NONNEG, CRIT_PARTIAL_SUMS,
                              MAX_SEARCH_SPAN,
                              CRIT_SINGLE_VARIATION, CRIT_THM_POWER,
                              CRIT_THM_POWER_SQRT, CRIT_THM_PQ,
                              CRIT_THM_PQ_SQRT, Certifier,
                              MalformedCertificateError, certificate_verify,
                              certify_any, certify_combined_report,
                              certify_lens_report, certify_negative_m,
                              certify_sector_prime_power_report,
                              certify_sector_pq_report, search_m, _MODE_OF_TAG,
                              _negated_form, _sector_report)
from polycert import arith, rounding, sectors
from polycert.lens import reciprocal_plan
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
    # f = X^2-2X-3 has roots 3 and -1; nothing should certify anywhere, not
    # even at m = 6, where f(6) = 7*3 and the square-root disk would fit
    assert certify_any(parse_polynomial("X^2-2*X-3"), 9, q_max=4, modes=("pq",)) is None
    assert certify_any(parse_polynomial("X^2-2*X-3"), 6, q_max=4, modes=("pq",)) is None


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

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    # planned_sector and planned_lens build f's sector and the lens exactly;
    # _Split is the one split of f(m) per (m, q_max) that the criteria share
    for name in ("planned_sector", "planned_lens", "interval_disk_in_lens",
                 "has_rational_root", "_Split"):
        counting(certify_module, name)
    # one estimate pass for f and one for its reciprocal
    counting(sectors._Estimates, "__init__")
    ctx = Certifier(parse_polynomial("(X-3)*(X^2+X+7)"), q_max=3)
    for m in range(1, 31):
        cert, reasons = ctx.certify(m)
        assert cert is None and reasons[0] == "vertex-too-large"
    # the reciprocal's estimate refuses the lens, so no lens is built; the
    # square-root disk never fits, so the rational-root test never runs
    assert calls == {"__init__": 2, "planned_sector": 1, "_Split": 30}
    # a lens the estimate cannot refuse is built exactly once
    calls.clear()
    ctx = Certifier(parse_polynomial("X^4-2000000002*X^3+25672533065054"))
    for m in range(1, 21):
        assert ctx.certify(m)[0] is None
    assert ctx.certify(21)[0].criterion == "thm39_lens"
    # no f(m) below 21 has a witness, so f's own plan is never needed
    assert calls == {"__init__": 1, "planned_lens": 1, "interval_disk_in_lens": 1,
                     "_Split": 21}
    # with q_max 1 the lens, prime-value and prime-power criteria share one
    # split per m
    calls.clear()
    ctx = Certifier(FLAGSHIP)
    assert ctx.certify(2, ("lens", "pq"))[1] == ["value-composite"] * 2
    assert calls == {"__init__": 1, "planned_lens": 1, "interval_disk_in_lens": 1,
                     "_Split": 1}
    assert ctx.certify(2)[1] == ["value-composite"] * 3
    assert ctx.certify(4)[1] == ["value-composite"] * 3
    assert calls == {"__init__": 1, "planned_lens": 1, "interval_disk_in_lens": 1,
                     "_Split": 2}
    # the combined criterion's ray branch runs on the caller's context too
    calls.clear()
    ctx = Certifier(parse_polynomial("X^3-X^2-3*X-3"), q_max=3)
    for m in range(1, 31):
        ctx.certify(m)
        certify_combined_report(ctx, m)
    assert calls == {"__init__": 2, "planned_sector": 1, "has_rational_root": 1,
                     "_Split": 2 * 30}  # the ray's at q_max 1, the rest at q_max 3


@pytest.mark.parametrize("poly", ["X^4-10*X^3+2162", "3*X^8-5*X^7+2*X^6-7*X^4+X^3+4*X^2-6*X+9"])
def test_analyze_builds_one_plan_per_polynomial(monkeypatch, poly):
    # analyze lists every sector candidate, the best sector, the sign blocks
    # and the lens from the plans of f and its reciprocal: one estimate pass
    # and one sign-block partition each
    import polycert.certify as certify_module
    from polycert import cli, poly as poly_module
    calls = {}

    def counting(module, name, original):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper, raising=False)

    counting(sectors._Estimates, "__init__", sectors._Estimates.__init__)
    # counted under every module's name for it, the modules that no longer
    # import it included
    original = poly_module.sign_blocks
    for module in (poly_module, sectors, certify_module, cli):
        counting(module, "sign_blocks", original)
    payload = cli._analyze_payload(Certifier(parse_polynomial(poly)))
    assert payload["lens"] is not None and len(payload["sectors"]) == 5
    assert calls == {"__init__": 2, "sign_blocks": 2}


class CountingDerivative:
    """Stands in for Certifier.derivative and counts its evaluations."""

    def __init__(self, f):
        self.poly, self.calls, self.args = f.derivative(), 0, []

    def evaluate(self, m):
        self.calls += 1
        self.args.append(m)
        return self.poly.evaluate(m)


def test_the_derivative_is_evaluated_only_for_a_prime_power_witness():
    ctx = Certifier(FLAGSHIP, q_max=3)
    ctx.derivative = counting = CountingDerivative(FLAGSHIP)
    for m in range(1, 60):
        ctx.certify(m, ("pq",))
    assert counting.calls == 0
    # the values of a product are composite: only those that are p^k * q
    # with q <= q_max need f'(m)
    f = parse_polynomial("(X^2+3)*(X^2+X+5)")
    witnessed = sum(extract_witness_report(f.evaluate(m), 1, 30, "prime_power")[0] is not None
                    for m in range(1, 60))
    ctx = Certifier(f, q_max=30)
    ctx.derivative = counting = CountingDerivative(f)
    for m in range(1, 60):
        assert ctx.certify(m)[0] is None
    assert counting.calls == witnessed == 5
    # at m = 2 the value 2^2 * 3 is one
    ctx = Certifier(parse_polynomial("X^2+8"), q_max=3)
    ctx.derivative = counting = CountingDerivative(ctx.f)
    assert ctx.certify(2, ("prime_power",))[1] == ["outside-region"]
    assert counting.calls == 1


class CountingModes(tuple):
    """A set of modes that counts how often it is read whole."""

    def __iter__(self):
        self.reads = getattr(self, "reads", 0) + 1
        return super().__iter__()


def test_search_decides_each_m_once(monkeypatch):
    # a search reads its modes once, splits f(m) once per m, enters a
    # criterion only at an m where its witness exists, and evaluates f'(m)
    # only at a prime-power witness, once
    import polycert.certify as certify_module
    f = parse_polynomial("(X^2+1)*(X^2+3)")
    entered, values = [], []

    def recording(name):
        original = getattr(certify_module, name)

        def wrapper(ctx, m):
            entered.append((name, m))
            return original(ctx, m)
        monkeypatch.setattr(certify_module, name, wrapper)

    for name in ("certify_lens_report", "certify_sector_pq_report",
                 "certify_sector_prime_power_report"):
        recording(name)
    split = certify_module._Split

    def counting_split(value, q_max):
        values.append(value)
        return split(value, q_max)
    monkeypatch.setattr(certify_module, "_Split", counting_split)
    counting = CountingDerivative(f)
    monkeypatch.setattr(Certifier, "derivative", property(lambda ctx: counting))
    modes = CountingModes(DEFAULT_MODES)

    report = search_m(f, 1, 50, q_max=3, modes=modes, exhaustive=True)
    assert report.certificate is None and len(report.outcomes) == 50
    witnessed = {mode: [m for m in range(1, 51) if extract_witness_report(
                     f.evaluate(m), f.derivative().evaluate(m), 3, mode)[0] is not None]
                 for mode in ("pq", "prime_power")}
    # the lens is degenerate, so its criterion is never entered
    assert entered == sorted(
        [("certify_sector_pq_report", m) for m in witnessed["pq"]]
        + [("certify_sector_prime_power_report", m) for m in witnessed["prime_power"]],
        key=lambda entry: (entry[1], entry[0] != "certify_sector_pq_report"))
    composite = {o.m for o in report.outcomes if o.outcome == "value-composite"}
    assert len(composite) > 40
    assert not composite & {m for _, m in entered}
    assert values == [f.evaluate(m) for m in range(1, 51)]
    assert counting.args == witnessed["prime_power"]
    assert modes.reads == 1


@pytest.mark.parametrize("poly, q_max, m, reasons", [
    ("X^4-10*X^3+2162", 1, 2, ["value-composite"] * 3),
    ("X^4-1000*X^3+2162", 1, 1001, ["vertex-too-large", "value-composite", "value-composite"]),
    ("(X^2+1)*(X^2+3)", 3, 2, ["lens-degenerate", "value-composite", "value-composite"]),
])
def test_a_settled_m_asks_for_no_witness(monkeypatch, poly, q_max, m, reasons):
    # f(m) split at q_max leaves a cofactor with a prime factor below 1000
    # and another prime factor, so no mode has a witness: neither certify
    # nor search_m asks for one or enters a criterion, and the lens keeps
    # the refusal that f alone decides
    import polycert.certify as certify_module
    f = parse_polynomial(poly)
    assert arith._Split(f.evaluate(m), q_max).settled
    calls = []

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counting(Certifier, "_witness")
    counting(arith._Split, "witness")
    for name in ("certify_lens_report", "certify_sector_pq_report",
                 "certify_sector_prime_power_report"):
        counting(certify_module, name)
    ctx = Certifier(f, q_max)
    assert ctx.certify(m) == (None, reasons)
    assert ctx.certify(m) == (None, reasons)  # from the record of m
    report = search_m(f, m, m, q_max)
    assert report.outcomes == ((m, "value-composite", "value-composite"),)
    assert calls == []


def test_a_check_without_a_positive_margin_is_refused():
    from fractions import Fraction
    from polycert.certify import Check, _finish
    witness = extract_witness_report(1973, 0)[0]
    fits = Check("fits", Fraction(1), Fraction(10**30 + 1, 10**30))
    assert _finish(FLAGSHIP, 3, CRIT_THM_PQ, {}, witness, [fits], 1, 12).checks == (fits,)
    for left, right in ((1, 1), (2, 1)):
        with pytest.raises(AssertionError, match="non-positive margin"):
            _finish(FLAGSHIP, 3, CRIT_THM_PQ, {}, witness,
                    [fits, Check("x", Fraction(left), Fraction(right))], 1, 12)


MODE_SUBSETS = [subset for size in (1, 2, 3)
                for subset in itertools.combinations(DEFAULT_MODES, size)]


def reference_search(f, lo, hi, q_max, modes, exhaustive):
    """search_m composed from the public criteria: at each m a fresh
    Certifier, every enabled criterion entered in DEFAULT_MODES order up to
    the first certificate.  Returns the outcomes and the first certificate."""
    criteria = [criterion for mode, criterion in (
        ("lens", certify_lens_report), ("pq", certify_sector_pq_report),
        ("prime_power", certify_sector_prime_power_report)) if mode in modes]
    outcomes, first = [], None
    for m in range(lo, hi + 1):
        ctx, reasons, cert = Certifier(f, q_max), [], None
        for criterion in criteria:
            cert, reason = criterion(ctx, m)
            if cert is not None:
                break
            reasons.append(reason)
        if cert is None:
            for outcome in ("outside-region", "value-composite"):
                if outcome in reasons:
                    outcomes.append((m, outcome, outcome))
                    break
            else:
                outcomes.append((m, "witness-absent", ";".join(sorted(set(reasons)))))
            continue
        outcomes.append((m, "certified", cert.criterion))
        first = first or cert
        if not exhaustive:
            break
    return outcomes, first


def assert_search_matches_reference(f, lo, hi, q_max, modes, exhaustive):
    report = search_m(f, lo, hi, q_max, modes, exhaustive=exhaustive)
    outcomes, first = reference_search(f, lo, hi, q_max, modes, exhaustive)
    assert [tuple(o) for o in report.outcomes] == outcomes, (f, q_max, modes, exhaustive)
    assert report.scanned_hi == outcomes[-1][0]
    assert (report.certificate is None) == (first is None)
    if first is not None:
        assert report.certificate.to_json() == first.to_json()


def test_search_agrees_with_the_public_criteria(fuzz_corpus):
    # each polynomial takes one of the 42 settings in turn: q_max 1, 3 or
    # 1000, a non-empty subset of the modes, exhaustive or not
    settings_ = list(itertools.product((1, 3, 1000), MODE_SUBSETS, (False, True)))
    rng = random.Random(32)
    planted = [random_polynomial(rng, 1, 3, 10) * random_polynomial(rng, 1, 3, 10)
               for _ in range(2 * len(settings_))]
    # quartics X^4 - a*X^3 + b with b > 216a, whose lens admits m = 3
    lenses = [Polynomial([rng.randint(216 * a + 1, 216 * a + 3000), 0, 0, -a, 1])
              for a in (rng.randint(1, 30) for _ in range(len(settings_)))]
    polys = fuzz_corpus + [f for f in planted if f.degree() >= 2] + lenses
    for i, f in enumerate(polys):
        q_max, modes, exhaustive = settings_[i % len(settings_)]
        assert_search_matches_reference(f, 1, 30, q_max, modes, exhaustive)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=2, max_size=7), st.integers(1, 30),
       st.integers(1, 60), st.integers(0, 15), st.sampled_from([1, 3, 1000]),
       st.sampled_from(MODE_SUBSETS), st.booleans())
def test_search_agrees_with_the_public_criteria_hypothesis(low, lead, lo, span, q_max,
                                                           modes, exhaustive):
    assert_search_matches_reference(Polynomial(low + [lead]), lo, lo + span, q_max,
                                    modes, exhaustive)


def test_a_prime_power_request_tests_only_the_root_of_the_value(monkeypatch):
    # f(4) = 1009^1009 (a scan of value_shift at exponent 1009): the roots are
    # taken first, and 1009 < 997^2 is proven by trial division, so no strong
    # test runs; a strong test of the whole value took seconds
    f = parse_polynomial("X^2+X+1") + (1009**1009 - 21)
    calls = []
    monkeypatch.setattr(arith, "_strong_classify", lambda n: calls.append(n))
    cert, reasons = Certifier(f).certify(4, ("prime_power",))
    assert cert.criterion == CRIT_THM_POWER and (cert.witness.p, cert.witness.k) == (1009, 1009)
    assert cert.primality_status == "proven_prime" and reasons == []
    assert calls == []


def test_certifier_reads_the_trig_constants_from_the_memo():
    # digits 17 is used by no other test, so the first m fills the memo here
    ctx = Certifier(FLAGSHIP, q_max=3, digits=17)
    before = rounding._pi_frac.cache_info().misses
    ctx.certify(1)
    after_first = rounding._pi_frac.cache_info().misses
    assert after_first > before
    for m in range(1, 31):
        ctx.certify(m)
    assert rounding._pi_frac.cache_info().misses == after_first


def test_combined_refusal_gives_the_ray_reason(fuzz_corpus):
    # both branches split f(m) at q = 1, so the preference the combined
    # criterion once applied to the two reasons always picked the ray's
    refusals = 0
    for f in fuzz_corpus:
        ctx = Certifier(f, q_max=3)
        for m in range(1, 25):
            cert, reason = certify_combined_report(ctx, m)
            if cert is not None:
                continue
            refusals += 1
            lens_reason = certify_lens_report(ctx, m)[1]
            ray_reason = _sector_report(ctx, m, "pq", 1)[1]
            assert reason == ray_reason, (f, m)
            preferred = [r for r in ("value-composite", "outside-region")
                         if r in (lens_reason, ray_reason)]
            assert preferred[:1] in ([], [ray_reason]), (f, m, lens_reason)
    assert refusals > 20000


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


# The thm39_lens certificate that certify_any issued for -X^4 + 700 at m = 3
# while the lens criterion did not check the leading coefficient's sign.
NEGATIVE_LEADING_LENS = json.loads('''{"schema": 1, "polynomial": [700, 0, 0, 0, -1],
 "m": 3, "criterion": "thm39_lens", "region": {"kind": "lens-interval", "lens":
 {"v_tilde_lower": "0.194413084181395134", "v_tilde_upper": "0.194413084181398688",
 "n": 4, "method": "neg-sum"}, "intervals": [{"lo": "1.988656639963049624",
 "hi": "3.155030083647338223", "source": "thm_disk_in_lens", "empty": false},
 {"lo": "2.414213562373095049", "hi": "2.729473161237245800", "source": "cor_cot",
 "empty": false}]}, "witness": {"p": 619, "k": 1, "q": 1, "ell": null, "r": null,
 "s": null, "alternatives": []}, "checks": [{"description":
 "reciprocal vertex below tan(pi/(2n))/2", "left": "0.194413084181398688",
 "right": "0.207106781186547524", "margin": "0.012693697005148836"},
 {"description": "m above disk-in-lens interval lower end",
 "left": "1.988656639963049624", "right": "3.000000000000000000",
 "margin": "1.011343360036950376"}, {"description":
 "m below disk-in-lens interval upper end", "left": "3.000000000000000000",
 "right": "3.155030083647338223", "margin": "0.155030083647338223"}],
 "primality": "proven_prime", "conditional": false, "q_max": 1, "digits": 12,
 "negated_argument": false}''')


def test_a_negative_leading_coefficient_is_refused_at_every_m():
    # the lens criterion checks the sector criteria's contract, so the answer
    # does not depend on whether the lens admits m
    f = Polynomial([700, 0, 0, 0, -1])
    for m in range(1, 6):
        with pytest.raises(ValueError, match="needs a positive leading coefficient"):
            certify_any(f, m)
    with pytest.raises(ValueError, match="needs a positive leading coefficient"):
        search_m(f, 1, 10)
    assert certificate_verify(NEGATIVE_LEADING_LENS) is False


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


@pytest.mark.parametrize("modes", [(), []])
def test_empty_modes_are_rejected_everywhere(modes):
    # no enabled criterion must not read as "no certificate" either
    f = parse_polynomial("X^4-10*X^3+2162")
    for attempt in (lambda: certify_any(f, 3, modes=modes),
                    lambda: certify_negative_m(f, -3, modes=modes),
                    lambda: Certifier(f).certify(3, modes),
                    lambda: search_m(f, 1, 3, modes=modes)):
        with pytest.raises(ValueError, match="no modes given"):
            attempt()


@pytest.mark.parametrize("digits, q_max", [
    (0, 1), (-3, 1), (rounding.MAX_DIGITS + 1, 1), (12, 0), (12, MAX_Q_MAX + 1)])
def test_digits_and_q_max_out_of_range_are_rejected_everywhere(digits, q_max):
    # replay refuses such certificates as malformed, so none may be issued
    for f in (FLAGSHIP, parse_polynomial("X^2+X+1")):
        for attempt in (lambda: certify_any(f, 3, q_max, digits),
                        lambda: certify_negative_m(f, -3, q_max, digits),
                        lambda: Certifier(f, q_max, digits).certify(3),
                        lambda: search_m(f, 1, 3, q_max, digits=digits)):
            with pytest.raises(ValueError, match="digits must be in"):
                attempt()


@pytest.mark.parametrize("digits", [1, rounding.MAX_DIGITS])
def test_certificates_at_the_digits_bounds_verify(digits):
    cert = certify_any(FLAGSHIP, 3, digits=digits)
    assert cert is not None and certificate_verify(cert)


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


@pytest.mark.parametrize("q_max", [1000, 10**5])
def test_a_replay_decides_the_value_facts_once(monkeypatch, q_max):
    # the one pass splits f(m), decides its primality and whether f has a
    # rational root, each once; past q_max 1000 the split is the one built
    # from the recorded q, and the strong test is the witness check's
    # is_prime(p)
    import polycert.certify as certify_module
    f = parse_polynomial("54*X^4+1961*X^3-2464*X^2+1758*X+2125")
    data = certify_any(f, 21, q_max).to_json()
    assert data["criterion"] == CRIT_THM_PQ_SQRT
    assert data["primality"] == "proven_prime" and data["witness"]["p"] > 997**2
    calls = []
    for module, name in ((certify_module, "_Split"), (certify_module, "_seeded_split"),
                         (certify_module, "has_rational_root"), (arith, "_strong_classify")):
        def counted(*args, _original=getattr(module, name), _name=name):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(module, name, counted)
    assert certificate_verify(data)
    split = "_Split" if q_max <= 1000 else "_seeded_split"
    assert sorted(calls) == sorted([split, "_strong_classify", "has_rational_root"])


@pytest.mark.parametrize("poly, m", [("X^4-10*X^3+2162", 13), ("X^3-X^2-3*X-3", 8)])
def test_a_replay_runs_one_estimate_pass_per_polynomial(monkeypatch, poly, m):
    # a combined certificate's ray branch needs the plans of the reciprocal
    # (its lens branch) and of f; the one pass builds each once
    f = parse_polynomial(poly)
    data = certify_combined_report(Certifier(f), m)[0].to_json()
    assert data["region"]["branch"] == "ray"
    reciprocal = reciprocal_plan(f).f
    passes = []

    def counted(self, g, _original=sectors._Estimates.__init__):
        passes.append(g)
        _original(self, g)
    monkeypatch.setattr(sectors._Estimates, "__init__", counted)
    assert certificate_verify(data)
    assert passes == [reciprocal, f]


@pytest.mark.parametrize("text, m, digits", [("X^4-10*X^3+2162", 3, 200),
                                             ("X^4-2000000002*X^3+25672533065054", 21, 12)])
def test_a_replay_computes_at_the_recorded_digits_only(monkeypatch, text, m, digits):
    # every trig enclosure replay asks the memo for is at the certificate's
    # digits; the memo's own calls, tan and cot from sin and cos at a working
    # precision, are not requests
    data = certify_any(parse_polynomial(text), m, digits=digits).to_json()
    asked, depth = [], [0]

    def recorded(fn, num, den, at, _original=rounding._pi_frac):
        if not depth[0]:
            asked.append(at)
        depth[0] += 1
        try:
            return _original(fn, num, den, at)
        finally:
            depth[0] -= 1
    monkeypatch.setattr(rounding, "_pi_frac", recorded)
    assert certificate_verify(data)
    assert asked and max(asked) == digits


def _golden_arguments():
    """(f, [m]) for each golden certificate, on +-f(-X) at -m when negated."""
    golden = json.loads((Path(__file__).parent / "golden.json").read_text(encoding="utf-8"))
    for data in golden["certificates"].values():
        f, m = Polynomial(data["polynomial"]), data["m"]
        yield (_negated_form(f), [-m]) if data["negated_argument"] else (f, [m])


def _at_doubled_digits(f, q_max, digits, ms):
    """(m, the certificate Certifier(f, q_max, digits) issues at m, the one
    its criterion's mode issues at 2*digits) for each m in ms that the first
    certifies."""
    ctx, doubled = Certifier(f, q_max, digits), Certifier(f, q_max, 2 * digits)
    for m in ms:
        cert = ctx.certify(m)[0]
        if cert is not None:
            yield m, cert, doubled.certify(m, (_MODE_OF_TAG[cert.criterion],))[0]


# Replay checks a certificate at its recorded digits only.  That the
# producer is monotone in digits, certifying at 2d what it certifies at d,
# is a property of the producer, tested here once instead of on every
# replay; the tighter enclosures may name the criterion's other tag.
@pytest.mark.parametrize("text, m, q_max, digits, issued, doubled", [
    ("X^4-2000000002*X^3+25672533065054", 21, 1, 12, "thm39_lens", "cor310_cot"),
    ("X^4-3*X^3+7243", 11, 1, 4, "thm39_lens", "cor310_cot"),
    ("X^3-150304*X+34", 390, 2, 4, "thm31_sqrt_q", "thm31_pq"),
])
def test_doubled_digits_may_name_a_sibling_tag(text, m, q_max, digits, issued, doubled):
    [(_, cert, again)] = _at_doubled_digits(parse_polynomial(text), q_max, digits, [m])
    assert cert.criterion == issued
    assert again.criterion == doubled
    assert certificate_verify(json.loads(json.dumps(cert.to_json())))


@pytest.mark.parametrize("digits", [1, 12, 100])
@pytest.mark.parametrize("q_max", [1, 3])
def test_what_certifies_at_d_digits_certifies_at_2d(fuzz_corpus, q_max, digits):
    arguments = [(FLAGSHIP, range(2, 14)), *_golden_arguments()]
    arguments += [(f, range(1, 11)) for f in fuzz_corpus]
    for f, ms in arguments:
        for m, cert, again in _at_doubled_digits(f, q_max, digits, ms):
            assert again is not None, (f.coeffs, m, cert.criterion)


_COEFF = st.one_of(st.integers(-20, 20), st.integers(-10**6, 10**6))


@given(coeffs=st.lists(_COEFF, min_size=2, max_size=12), lead=_COEFF.filter(lambda c: c > 0),
       q_max=st.sampled_from([1, 3, 1000]), digits=st.sampled_from([1, 2, 4, 12, 100]))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_digit_monotonicity_on_random_polynomials(coeffs, lead, q_max, digits):
    f = Polynomial(coeffs + [lead])
    for m, cert, again in _at_doubled_digits(f, q_max, digits, range(1, 41)):
        assert again is not None, (m, cert.criterion)


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


def test_replay_rejects_a_lens_certificate_with_a_huge_coefficient(deadline):
    # the reciprocal vertex, ~2^4429, is past the float range
    deadline(5)
    data = certify_any(FLAGSHIP, 3, modes=("lens",)).to_json()
    data["polynomial"][3] = -10**4000
    assert certificate_verify(data) is False


@pytest.mark.parametrize("field, value", [
    ("polynomial", [1, 1]),  # the rebuild finds no certificate
    ("polynomial", [2162, 0, 0, -10, -1]),
    ("m", 0),  # the rebuild raises ValueError: certification needs m >= 1
])
def test_replay_rejects_a_certificate_its_rebuild_refuses(field, value):
    data = certify_any(FLAGSHIP, 3, modes=("lens",)).to_json()
    data[field] = value
    assert certificate_verify(data) is False


def test_replay_rejects_an_unknown_criterion():
    data = certify_any(FLAGSHIP, 3, modes=("lens",)).to_json()
    data["criterion"] = "nope"
    with pytest.raises(MalformedCertificateError, match="unknown criterion"):
        certificate_verify(data)


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


@pytest.mark.parametrize("q_max", [0, MAX_Q_MAX + 1])
def test_replay_rejects_q_max_out_of_range(q_max):
    cert = certify_any(FLAGSHIP, 3, modes=("lens",)).to_json()
    cert["q_max"] = q_max
    with pytest.raises(MalformedCertificateError, match="q_max out of range"):
        certificate_verify(cert)


@pytest.mark.parametrize("field", ["m", "digits", "q_max"])
def test_replay_rejects_an_infinite_number(field):
    # JSON 1e400 loads as inf, which int() cannot convert
    data = certify_any(FLAGSHIP, 3, modes=("lens",)).to_json()
    data[field] = json.loads("1e400")
    with pytest.raises(MalformedCertificateError, match="bad field"):
        certificate_verify(data)


@pytest.mark.parametrize("field, value", [
    ("schema", True), ("q_max", True), ("m", 3.0), ("digits", 12.0)])
def test_replay_rejects_a_top_level_number_that_is_not_an_integer(field, value):
    data = json.loads(json.dumps(certify_any(FLAGSHIP, 3, modes=("lens",)).to_json()))
    data[field] = value
    with pytest.raises(MalformedCertificateError, match="bad field"):
        certificate_verify(data)


@pytest.mark.parametrize("field, value", [
    ("criterion", ["cor310_cot"]), ("criterion", 1), ("criterion", None),
    ("negated_argument", "no"), ("negated_argument", 0), ("negated_argument", None),
    ("polynomial", [2162, 0, 0, -10, True]), ("polynomial", [2162, 0, 0, -10, 1.0]),
    ("polynomial", "X^4-10*X^3+2162"), ("polynomial", {"0": 2162, "4": 1})])
def test_replay_rejects_a_field_of_the_wrong_json_type(field, value):
    # the criterion, negated_argument and polynomial choose what replay rebuilds
    data = json.loads(json.dumps(certify_any(FLAGSHIP, 3, modes=("lens",)).to_json()))
    data[field] = value
    with pytest.raises(MalformedCertificateError, match=f"bad field: {field} is not"):
        certificate_verify(data)


@pytest.mark.parametrize("path, value", [
    (("conditional",), 0),
    (("negated_argument",), 0),
    (("polynomial", 4), True),
    (("witness", "k"), True),
    (("witness", "q"), 1.0),
    (("region", "intervals", 0, "empty"), 0),
])
def test_replay_compares_types_not_only_values(path, value):
    # each edit leaves the certificate == to the rebuilt one: True == 1 == 1.0.
    # negated_argument and polynomial choose what replay rebuilds, so their
    # types are checked before any rebuild, and a wrong one is malformed
    data = json.loads(json.dumps(certify_any(FLAGSHIP, 3, modes=("lens",)).to_json()))
    node = data
    for key in path[:-1]:
        node = node[key]
    assert node[path[-1]] == value
    node[path[-1]] = value
    if path[0] in ("negated_argument", "polynomial"):
        with pytest.raises(MalformedCertificateError, match="bad field"):
            certificate_verify(data)
    else:
        assert certificate_verify(data) is False


def test_certify_any_orders_lens_first():
    cert = certify_any(FLAGSHIP, 3)
    assert cert.criterion == CRIT_LENS_COT


def test_checks_have_positive_margins():
    for cert in _certificate_pile():
        for c in cert.checks:
            assert c.margin > 0


def test_certifier_builds_the_derivative_once(monkeypatch):
    built = []
    real = Polynomial.derivative

    def counted(self):
        built.append(self)
        return real(self)

    monkeypatch.setattr(Polynomial, "derivative", counted)
    ctx = Certifier(parse_polynomial("X^3+2*X+1"))
    certified = [ctx.certify(m, ("prime_power",))[0] is not None for m in range(1, 31)]
    assert any(certified)
    assert len(built) == 1


def test_search_span_is_bounded(deadline):
    reducible = parse_polynomial("(X^2+1)*(X^2+3)")
    deadline(1)
    with pytest.raises(ValueError, match="search range spans"):
        search_m(reducible, 1, 10**8)
    with pytest.raises(ValueError, match="search range spans"):
        search_m(reducible, 5, 5 + MAX_SEARCH_SPAN)
    report = search_m(reducible, 5, 104, modes=("pq",))
    assert report.certificate is None and len(report.outcomes) == 100
