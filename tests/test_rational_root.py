"""has_rational_root by real-root isolation against the divisor search it
replaced, and the inputs on which that search hung certify and verify.

The reference below is the earlier search over +-(divisor of a_0)/(divisor
of a_n), which factors both with Pollard-Brent: both must agree on whether f
has a rational root, and so must sympy, and any root returned must be one.
"""
import io
import json
import math
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import HealthCheck, example, given, settings, strategies as st

from polycert import arith, certify
from polycert.arith import divisors, has_rational_root
from polycert.certify import (MalformedCertificateError, certificate_verify,
                              certify_any, certify_negative_m)
from polycert.cli import main
from polycert.poly import Polynomial

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text(encoding="utf-8"))
SEMIPRIME = "X^4-10*X^3+10000000000000007659000000000000022887"
SEMIPRIME_COEFFS = [10000000000000007659000000000000022887, 0, 0, -10, 1]


def reference_has_rational_root(f):
    """Rational-root search over +-(divisor of a_0)/(divisor of a_n)."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    if f.degree() == 0:
        return False, None
    if f.coefficient(0) == 0:
        return True, Fraction(0)
    nums = divisors(abs(f.coefficient(0)))
    dens = divisors(abs(f.leading_coefficient()))
    for den in dens:
        for num in nums:
            if math.gcd(num, den) != 1:
                continue
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if f.evaluate(cand) == 0:
                    return True, cand
    return False, None


def sympy_has_rational_root(f):
    x = sympy.symbols("x")
    _, factors = sympy.Poly(list(reversed(f.coeffs)), x).factor_list()
    return any(g.degree() == 1 for g, _ in factors)


def check(f):
    found, root = has_rational_root(f)
    assert found == reference_has_rational_root(f)[0] == sympy_has_rational_root(f)
    if found:
        assert f.evaluate(root) == 0
    else:
        assert root is None
    return found


def with_sign(f, negative):
    return -f if negative else f


cofactor = st.builds(lambda low, lead: Polynomial(low + [lead]),
                     st.lists(st.integers(-20, 20), max_size=4), st.integers(1, 20))


@settings(max_examples=150, deadline=None)
@given(cofactor, st.integers(-10**12, 10**12), st.integers(1, 10**12), st.booleans())
@example(Polynomial([1]), 10**12 - 1, 10**12, False)
@example(Polynomial([1, 0, 1]), -1, 999999999989, True)
def test_planted_root(h, u, v, negative):
    f = with_sign(h * Polynomial([-u, v]), negative)
    assert check(f)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cofactor, cofactor, st.booleans())
@example(Polynomial([-1, 1]), Polynomial([7, 0, 1]), False)
@example(Polynomial([3, 0, 1]), Polynomial([1, 1, 1]), True)
def test_repeated_roots(deadline, g, h, negative):
    # g^2 * h: without the square-free part, bisection never isolates the
    # double roots of g^2 and does not end
    deadline(5)
    check(with_sign(g * g * h, negative))


@settings(max_examples=100, deadline=None)
@given(cofactor, st.integers(-10**6, 10**6).filter(lambda u: u != 0),
       st.integers(0, 60), st.booleans())
@example(Polynomial([1]), 1, 1, False)
@example(Polynomial([-5, 0, 1]), 3, 2, True)
def test_dyadic_roots(h, u, j, negative):
    # a root u/2^j can sit on a bisection point
    f = with_sign(h * Polynomial([-u, 1 << j]), negative)
    assert check(f)


@settings(max_examples=50, deadline=None)
@given(cofactor, st.integers(1, 3), st.booleans())
def test_zero_constant_term(h, k, negative):
    f = with_sign(h * Polynomial([0] * k + [1]), negative)
    assert has_rational_root(f) == reference_has_rational_root(f) == (True, 0)


@settings(max_examples=100, deadline=None)
@given(st.integers(-10**15, 10**15), st.integers(-10**15, 10**15).filter(bool))
def test_degree_one(b, a):
    assert check(Polynomial([b, a]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=8),
       st.integers(1, 10**6), st.booleans())
def test_random_polynomials(low, lead, negative):
    check(with_sign(Polynomial(low + [lead]), negative))


def test_constant_and_zero_polynomials():
    assert has_rational_root(Polynomial([5])) == (False, None)
    with pytest.raises(ValueError):
        has_rational_root(Polynomial([]))


# -- the inputs the divisor search hung on --------------------------------------


def test_certify_semiprime_constant_term(capsys, deadline):
    deadline(5)
    code = main(["certify", SEMIPRIME, "--m", "14", "--q-max", "3", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["criterion"] == "thm31_sqrt_q"
    # the oracle: f is irreducible, so the certificate is right
    x = sympy.symbols("x")
    _, factors = sympy.factor_list(x**4 - 10 * x**3 + SEMIPRIME_COEFFS[0])
    assert [(sympy.degree(g, x), e) for g, e in factors] == [(4, 1)]


def test_verify_tampered_certificate_with_semiprime_constant_term(deadline):
    deadline(5)
    data = json.loads(json.dumps(GOLDEN["certificates"]["pq X^3+9X^2+7X+3 m=10"]))
    data.update(polynomial=SEMIPRIME_COEFFS, m=14, q_max=3, criterion="thm31_sqrt_q")
    try:
        assert certificate_verify(data) is False
    except MalformedCertificateError:
        pass


def test_certify_and_verify_do_not_factor(monkeypatch):
    def refuse(n):
        raise AssertionError(f"factorize({n}) on the certify or verify path")

    calls = []
    real = certify.has_rational_root
    monkeypatch.setattr(arith, "factorize", refuse)
    monkeypatch.setattr(certify, "has_rational_root",
                        lambda f: calls.append(f) or real(f))
    semiprime = io.StringIO()
    with redirect_stdout(semiprime):
        assert main(["certify", SEMIPRIME, "--m", "14", "--q-max", "3", "--json"]) == 0
    corpus = [*GOLDEN["certificates"].values(), *GOLDEN["combined"],
              json.loads(semiprime.getvalue())]
    for data in corpus:
        f = Polynomial(data["polynomial"])
        if data["negated_argument"]:
            cert = certify_negative_m(f, data["m"], data["q_max"], data["digits"])
        else:
            cert = certify_any(f, data["m"], data["q_max"], data["digits"])
        assert cert is not None
        assert certificate_verify(json.loads(json.dumps(data)))
    assert calls
