"""Replay checks the recorded witness before it rebuilds anything.

certificate_verify first asks whether the recorded p^k * q equals f(m)
modulo 2^61 - 1, and a proven prime p > q_max times the recorded q gives the
split of f(m) without the runs of primes up to q_max.  The verdicts must be
those of the replay alone: reference_verify below is certificate_verify as
it was before the check, with its second pass, which ran the recorded
criterion again at doubled digits, on a fresh Certifier.  So the
differential tests also pin that dropping that pass changed no verdict on
their honest and tampered certificates.
"""
import copy
import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from polycert import arith, certify, sectors
from polycert.arith import DETERMINISTIC_LIMIT, _Split, _seeded_split, is_prime, next_prime
from polycert.certify import (Certificate, Certifier, MalformedCertificateError, _fields,
                              _negated_form, _rebuild, _restated, _same_types,
                              certificate_verify, certify_any, certify_negative_m)
from polycert.poly import Polynomial, parse_polynomial as P

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text(encoding="utf-8"))
FLAGSHIP = P("X^4-10*X^3+2162")


def reference_verify(cert) -> bool:
    data = cert.to_json() if isinstance(cert, Certificate) else cert
    f, m, criterion, q_max, digits, negated = _fields(data)
    g, k = (_negated_form(f), -m) if negated else (f, m)
    ctx = Certifier(g, q_max, digits)
    replay = _rebuild(ctx, k, criterion)
    if replay is None:
        return False
    rebuilt = (_restated(replay, f, m) if negated else replay).to_json()
    if rebuilt != data or not _same_types(rebuilt, data):
        return False
    return _rebuild(Certifier(g, q_max, 2 * digits), k, criterion) is not None


def outcome(verify, data):
    """True, False or "malformed", on a copy of data."""
    try:
        return verify(copy.deepcopy(data))
    except MalformedCertificateError:
        return "malformed"


def planted(q: int, p: int, m: int = 5) -> Polynomial:
    """X^3 + c with f(m) = p * q; its sector has vertex 0."""
    return P("X^3") + (p * q - m**3)


# f(5) = 3 * P' with P' a prime past q_max: a thm31_pq witness with q = 3
P_PRIME = next_prime(10**9)
THREE_TIMES = planted(3, P_PRIME)
# f(5) = 2 * p with p a probable prime past DETERMINISTIC_LIMIT
PROBABLE = next_prime(2 * DETERMINISTIC_LIMIT)
# f(1200) = 1013 * p: q = 1013 lies past 1000
Q_1013 = Polynomial([1013 * next_prime(1200**3 // 1013) - 1200**3, 0, 0, 1])


def honest_certificates() -> list[dict]:
    """The golden certificates, negated ones, and certificates at q_max past
    1000 whose replays do and do not take a seeded split."""
    certs = [*GOLDEN["certificates"].values(), *GOLDEN["combined"]]
    for f, m in ((P("X^2+X+1"), -3), (P("X^3-2*X+7"), -4), (FLAGSHIP, -7),
                 (P("X^4+10*X^3+2162"), -3)):
        cert = certify_negative_m(f, m, 3)
        assert cert is not None, (f, m)
        certs.append(cert.to_json())
    for f, m, q_max in ((P("X^4+7*X+1000003"), 18, 10**4),
                        (P("54*X^4+1961*X^3-2464*X^2+1758*X+2125"), 21, 10**5),
                        (P("X^2+200005"), 100002, 10**5),
                        (THREE_TIMES, 5, 10**4), (THREE_TIMES, 5, 1000),
                        (planted(2, PROBABLE), 5, 10**4), (Q_1013, 1200, 10**4)):
        cert = certify_any(f, m, q_max)
        assert cert is not None, (f, m, q_max)
        certs.append(cert.to_json())
    return certs


HONEST = honest_certificates()


def test_every_honest_certificate_keeps_its_verdict(fuzz_corpus):
    fuzzed = [cert.to_json() for f in fuzz_corpus[:300] for m in range(1, 11)
              if (cert := certify_any(f, m, 3)) is not None]
    assert len(fuzzed) == GOLDEN["fuzz"][0]
    for data in HONEST + fuzzed:
        assert outcome(certificate_verify, data) is outcome(reference_verify, data) is True


NOT_INT = [True, False, "3", 3.0, None]
MODULUS = 2**61 - 1


def tamper(data: dict, kind: str, arg) -> dict:
    """data with one change; unchanged when an earlier tamper left nothing to
    change (a witness that is no longer an object, a dropped field)."""
    data = copy.deepcopy(data)
    try:
        witness = data["witness"]
        if kind == "witness":
            key, change = arg
            if change == "swap":
                witness["p"], witness["q"] = witness["q"], witness["p"]
            elif change == "double":
                witness[key] *= 2
            elif change == "huge":
                witness[key] = 10**18
            elif change == "same residue":  # p^k * q mod 2^61 - 1 unchanged
                witness[key] += MODULUS - 1 if key == "k" else MODULUS
            else:
                witness[key] += change
        elif kind == "type":
            key, value = arg
            (data if key == "m" else witness)[key] = value
        elif kind == "drop":
            del (witness if arg in witness else data)[arg]
        elif kind == "witness-object":
            data["witness"] = arg
        elif kind == "m":
            data["m"] = -data["m"] if arg == "negate" else data["m"] + arg
        elif kind == "polynomial":
            index, change = arg
            coeffs = data["polynomial"]
            coeffs[index % len(coeffs)] += change
        else:
            data["negated_argument"] = arg
    except (KeyError, TypeError):
        pass
    return data


TAMPERS = st.one_of(
    st.tuples(st.just("witness"), st.one_of(
        st.tuples(st.just("p"), st.sampled_from([1, -1, "double", "swap", "same residue"])),
        st.tuples(st.just("k"), st.sampled_from([1, -1, "huge", "same residue"])),
        st.tuples(st.just("q"), st.sampled_from([1, -1, "same residue"])))),
    st.tuples(st.just("type"), st.tuples(st.sampled_from(["p", "k", "q", "m"]),
                                         st.sampled_from(NOT_INT))),
    st.tuples(st.just("drop"), st.sampled_from(["p", "k", "q", "ell", "alternatives",
                                                "witness", "m"])),
    st.tuples(st.just("witness-object"), st.sampled_from([None, [], 5, "p"])),
    st.tuples(st.just("m"), st.sampled_from([1, -1, 2, -2, 10, "negate"])),
    st.tuples(st.just("polynomial"), st.tuples(st.integers(0, 8), st.sampled_from([1, -1, 2]))),
    st.tuples(st.just("negated"), st.booleans()),
)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(range(len(HONEST))), st.booleans(), st.lists(TAMPERS, min_size=1,
                                                                    max_size=2))
def test_a_tampered_certificate_keeps_its_verdict(index, negated, tampers):
    # negated_argument both ways: as issued and flipped, before the tampers
    data = HONEST[index]
    if negated:
        data = tamper(data, "negated", not data["negated_argument"])
    for kind, arg in tampers:
        data = tamper(data, kind, arg)
    assert outcome(certificate_verify, data) == outcome(reference_verify, data)


def test_an_honest_replay_evaluates_f_at_m_once(monkeypatch):
    # the check runs over residues; f(m) is evaluated exactly only after it
    # passes, and the replay takes that value
    data = certify_any(FLAGSHIP, 3).to_json()
    points = []
    evaluate = Polynomial.evaluate
    monkeypatch.setattr(Polynomial, "evaluate",
                        lambda f, x: points.append(x) or evaluate(f, x))
    assert certificate_verify(data) is True
    assert points.count(3) == 1


# -- the seeded split ---------------------------------------------------------------


def split_facts(split: _Split, derivative: int) -> tuple:
    facts = [split.smooth, split.exps, split.cofactor, split.factor]
    for mode in ("pq", "prime_power"):
        witness, reason = split.witness(mode, lambda: derivative)
        facts += [witness, reason, witness and witness.primality]
    return tuple(facts)


def repeated(factors: list[int], q_max: int) -> int:
    q = 1
    for p in factors:
        if q * p <= q_max:
            q *= p
    return q


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1001, 10**4, 10**5]),
       st.one_of(st.integers(1, 10**6), st.integers(1, 10**22)),
       st.data(), st.integers(-10**9, 10**9).filter(bool))
def test_the_seeded_split_is_the_split(q_max, offset, data, derivative):
    p = next_prime(q_max + offset)
    q = data.draw(st.one_of(
        st.just(1), st.integers(1, q_max),
        st.lists(st.sampled_from([2, 3, 5, 7, 997, 1009, 9973, 99991]), max_size=8)
        .map(lambda ps: repeated(ps, q_max))))
    res = is_prime(p)
    seeded = _seeded_split(p, q, q_max, res)
    assert split_facts(seeded, derivative) == split_facts(_Split(p * q, q_max), derivative)


@pytest.mark.parametrize("q_max, p, q", [
    (1001, 1009, 1), (1001, 1009, 2**9), (1001, 1013, 997), (10**4, 10007, 3**8),
    (10**4, next_prime(997**2), 9973), (10**5, 100003, 2**4 * 3**3 * 5**2 * 7),
    (10**5, next_prime(10**20), 99991), (10**5, next_prime(10**20), 1009 * 97),
    # beyond q_max 997^2, the rest of q after the primes up to 1000 may be a
    # prime past 997^2 or two primes past 1000, which meet the runs
    *((2 * 10**6, p, q) for p in (next_prime(2 * 10**6), next_prime(10**12))
      for q in (1009 * 1013, 1009**2, 2 * 3 * next_prime(997**2), next_prime(19 * 10**5)))])
def test_the_seeded_split_is_the_split_at_the_edges(q_max, p, q):
    seeded = _seeded_split(p, q, q_max, is_prime(p))
    assert split_facts(seeded, 7) == split_facts(_Split(p * q, q_max), 7)


def counted_seeds(monkeypatch) -> list:
    calls = []
    monkeypatch.setattr(certify, "_seeded_split",
                        lambda *args: calls.append(args) or _seeded_split(*args))
    return calls


def with_witness(data: dict, **changes) -> dict:
    return dict(data, witness=dict(data["witness"], **changes))


def issued(f: Polynomial, m: int, q_max: int) -> dict:
    return certify_any(f, m, q_max).to_json()


def test_a_proven_prime_past_q_max_is_seeded(monkeypatch):
    calls = counted_seeds(monkeypatch)
    data = issued(THREE_TIMES, 5, 10**4)
    assert (data["witness"]["p"], data["witness"]["q"]) == (P_PRIME, 3)
    assert certificate_verify(data) is True
    assert len(calls) == 1  # one seeded split per replay


@pytest.mark.parametrize("case", ["p = 3*P'", "p past DETERMINISTIC_LIMIT", "k > 1",
                                  "q > q_max", "q_max <= 1000"])
def test_no_seed_is_taken(monkeypatch, case):
    if case == "p = 3*P'":  # p * q is f(m), but p is composite
        data = with_witness(issued(THREE_TIMES, 5, 10**4), p=3 * P_PRIME, q=1)
    elif case == "p past DETERMINISTIC_LIMIT":
        data = issued(planted(2, PROBABLE), 5, 10**4)
        assert data["primality"] == "probable_prime"
    elif case == "k > 1":
        data = issued(P("X^2+200005"), 100002, 10**5)
        assert data["witness"]["k"] == 2
    elif case == "q > q_max":
        data = dict(issued(Q_1013, 1200, 10**4), q_max=1012)
        assert data["witness"]["q"] == 1013
    else:
        data = issued(THREE_TIMES, 5, 1000)
    calls = counted_seeds(monkeypatch)
    assert outcome(certificate_verify, data) == outcome(reference_verify, data)
    assert calls == []


def test_a_prime_with_the_same_residue_is_not_seeded(monkeypatch):
    # p' = p + j*(2^61 - 1) is a proven prime with p' * q = f(m) modulo 2^61 - 1,
    # but not exactly: only the exact product may seed the split
    data = issued(P("X^4+7*X+1000003"), 18, 10**4)
    p = data["witness"]["p"]
    other = next(c for c in range(p + MODULUS, DETERMINISTIC_LIMIT, MODULUS)
                 if is_prime(c).is_prime)
    data = with_witness(data, p=other)
    calls = counted_seeds(monkeypatch)
    assert certificate_verify(data) is reference_verify(data) is False
    assert calls == []


# -- what a rejection costs ---------------------------------------------------------


def test_a_value_of_13300_bits_is_rejected_at_once(deadline):
    # the constant term makes f(13) a 13,300-bit number with no prime factor
    # up to 1000; the full replay took seconds in its strong test
    data = issued(FLAGSHIP, 13, 3)
    assert data["criterion"] == "thm31_pq"
    primorial = math.prod(arith._SMALL_PRIMES)
    n = 1 << 13299
    while math.gcd(n, primorial) != 1:
        n += 1
    coeffs = data["polynomial"]
    data = dict(data, polynomial=[coeffs[0] + n - FLAGSHIP.evaluate(13), *coeffs[1:]])
    deadline(1)
    assert certificate_verify(data) is False


def test_a_huge_exponent_is_rejected_at_once(deadline):
    data = with_witness(issued(FLAGSHIP, 13, 3), k=10**18)
    deadline(1)
    assert certificate_verify(data) is False


@pytest.mark.parametrize("degree", [4, 500])
def test_a_huge_argument_is_rejected_at_once(deadline, degree):
    # the flagship's certificate at m = 10^4000, and at degree 500 that of
    # X^500 - 10*X^3 + 2162, whose exact value there takes seconds to compute
    data = dict(certify_any(FLAGSHIP, 3).to_json(), m=10**4000)
    data["polynomial"] = [2162, *[0] * (degree - 4), 0, -10, 1]
    deadline(1)
    assert certificate_verify(data) is False


def test_a_forged_lens_certificate_builds_nothing(monkeypatch):
    # an honest quartic_reciprocal lens certificate with the polynomial and m
    # replaced, as the planted sweep forges them
    data = certify_any(FLAGSHIP, 3).to_json()
    assert data["criterion"] == "cor310_cot"
    built = []

    def counting(module, name):
        def counted(*args, _original=getattr(module, name)):
            built.append(name)
            return _original(*args)
        monkeypatch.setattr(module, name, counted)
    counting(sectors._Estimates, "__init__")
    counting(certify, "_Split")
    counting(certify, "_seeded_split")
    for f, m in ((P("(X^2+X+3)*(X^2-2*X+5)"), 7), (P("(X-3)*(X^3+X+7)"), 40),
                 (P("(2*X^3-X+1)*(X^4+3)"), 91)):
        assert certificate_verify(dict(data, polynomial=list(f.coeffs), m=m)) is False
    assert built == []
