import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from polycert import arith
from polycert.arith import (DETERMINISTIC_LIMIT, PrimalityStatus, divisors,
                            extract_witness_report, factorize,
                            has_rational_root, is_prime, next_prime,
                            p_adic_valuation, prime_power_decomposition,
                            primes_up_to, _sieve, _strip_small)
from polycert.poly import parse_polynomial


def test_is_prime_flagship_value():
    res = is_prime(1973)
    assert res.status is PrimalityStatus.PROVEN_PRIME


def test_one_is_a_unit():
    assert is_prime(1).status is PrimalityStatus.UNIT


def test_zero_composite():
    assert is_prime(0).status is PrimalityStatus.COMPOSITE


def test_mersenne_61():
    res = is_prime(2**61 - 1)
    assert res.status is PrimalityStatus.PROVEN_PRIME
    assert sympy.isprime(2**61 - 1)


def test_negative_classified_by_absolute_value():
    res = is_prime(-7)
    assert res.status is PrimalityStatus.PROVEN_PRIME
    assert "negative" in res.note


def test_composite_carries_small_factor():
    res = is_prime(2162)
    assert res.status is PrimalityStatus.COMPOSITE
    assert res.factor == 2


def test_exhaustive_agreement_to_one_million():
    truth = set(_sieve(10**6))
    for x in range(2, 10**6 + 1):
        assert is_prime(x).is_prime == (x in truth)


def test_probable_beyond_deterministic_limit():
    assert DETERMINISTIC_LIMIT > 33 * 10**23
    p = int(sympy.nextprime(DETERMINISTIC_LIMIT))
    res = is_prime(p)
    assert res.status is PrimalityStatus.PROBABLE_PRIME
    assert is_prime(p + 2).is_prime == sympy.isprime(p + 2)


def test_deterministic_band_agrees_with_sympy():
    rng = random.Random(5)
    for _ in range(50):
        x = rng.randrange(2**60, 2**75)
        assert is_prime(x).is_prime == sympy.isprime(x)
        assert is_prime(x).status is not PrimalityStatus.PROBABLE_PRIME


def test_p_adic_examples():
    assert p_adic_valuation(12, 2) == (2, 3)
    assert p_adic_valuation(1973, 2) == (0, 1973)
    assert p_adic_valuation(2**10 * 17, 2) == (10, 17)
    assert p_adic_valuation(-24, 2) == (3, -3)
    with pytest.raises(ValueError):
        p_adic_valuation(0, 2)


def test_p_adic_maximality_fuzz():
    rng = random.Random(11)
    for _ in range(500):
        x = rng.randrange(1, 10**12)
        p = rng.choice([2, 3, 5, 7, 11, 13])
        v, cof = p_adic_valuation(x, p)
        assert p**v * cof == x
        assert cof % p != 0


def test_prime_power_decomposition():
    assert prime_power_decomposition(49)[:2] == (7, 2)
    assert prime_power_decomposition(64)[:2] == (2, 6)
    assert prime_power_decomposition(36) is None
    assert prime_power_decomposition(97)[:2] == (97, 1)
    assert prime_power_decomposition(1) is None


def test_witness_prime_value():
    w = extract_witness_report(1973, 0, 1, "pq")[0]
    assert (w.p, w.k, w.q) == (1973, 1, 1)
    assert w.primality.status is PrimalityStatus.PROVEN_PRIME


def test_witness_prime_power_with_cofactor():
    w = extract_witness_report(12, 6, 3, "prime_power")[0]
    assert (w.p, w.k, w.q, w.ell, w.r) == (2, 2, 3, 1, 3)
    assert w.s == 1


def test_witness_square_coprime_derivative():
    w = extract_witness_report(49, 5, 1, "prime_power")[0]
    assert (w.p, w.k, w.q, w.ell, w.r) == (7, 2, 1, 0, 5)
    assert w.s == 0


def test_witness_smooth_value_minimizes_q():
    # 10 = 2*5 with q_max 7: p=5, q=2 beats p=2, q=5
    w = extract_witness_report(10, 0, 7, "pq")[0]
    assert (w.p, w.q) == (5, 2)
    assert w.alternatives == ((2, 1, 5),)


def test_witness_reports_reasons():
    assert extract_witness_report(-5, 0, 1, "pq")[1] == "value-nonpositive"
    assert extract_witness_report(2 * 3 * 5 * 7, 0, 1, "pq")[1] == "value-composite"
    assert extract_witness_report(2**10 * 1973, 0, 2, "pq")[1] == "q-exceeds"
    assert extract_witness_report(8, 0, 1, "pq")[1] == "value-composite"
    assert extract_witness_report(8, 0, 2, "pq")[1] == "no-split"
    assert extract_witness_report(9, 0, 1, "prime_power")[1] == "derivative-zero"


def test_witness_reconstruction_fuzz():
    rng = random.Random(13)
    for _ in range(10**4):
        value = rng.randrange(2, 10**9)
        deriv = rng.randrange(1, 10**6)
        q_max = rng.choice([1, 2, 3, 10])
        mode = rng.choice(["pq", "prime_power"])
        w = extract_witness_report(value, deriv, q_max, mode)[0]
        if w is None:
            continue
        assert w.p**w.k * w.q == value
        assert w.q % w.p != 0
        assert w.q <= q_max
        assert w.primality.is_prime
        if mode == "pq":
            assert w.k == 1 and w.ell is None
        else:
            assert w.p**w.ell * w.r == abs(deriv)
            assert w.r % w.p != 0
            assert w.s == min(Fraction(w.ell), Fraction(w.k, 2))


def test_factorize_and_divisors():
    assert factorize(600) == {2: 3, 3: 1, 5: 2}
    assert divisors(28) == [1, 2, 4, 7, 14, 28]
    big = 1000003 * 1000033
    assert factorize(big) == {1000003: 1, 1000033: 1}


def test_primes_up_to():
    assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert next_prime(1000) == 1009


def test_sieve_runs_once_per_q_max(monkeypatch):
    calls = []
    monkeypatch.setattr(arith, "_sieve", lambda n: calls.append(n) or _sieve(n))
    arith._sieved.cache_clear()
    rng = random.Random(3)
    for _ in range(20):
        extract_witness_report(rng.randrange(2, 10**15), rng.randrange(1, 10**6), 10**5,
                               rng.choice(["pq", "prime_power"]))
    assert calls == [10**5]
    arith._sieved.cache_clear()


def test_primes_up_to_returns_a_fresh_list():
    for limit in (20, 10**5):
        expected = _sieve(limit)
        first = primes_up_to(limit)
        assert first == expected
        first[0] = 4
        first.append(1)
        assert primes_up_to(limit) == expected
    assert len(expected) == 9592


def reference_strip_small(value, q_max):
    """_strip_small as it was when every call sieved afresh."""
    smooth = 1
    exps = {}
    rest = value
    if q_max >= 2:
        for p in _sieve(q_max):
            if p > rest:
                break
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            if e:
                exps[p] = e
                smooth *= p**e
    return smooth, exps, rest


smooth_times_large = st.builds(
    lambda ps, big: math.prod(ps) * big,
    st.lists(st.sampled_from([2, 3, 5, 7, 997, 1009, 99991, 100003]), max_size=6),
    st.sampled_from([1, 2**61 - 1, 10**12 + 39, 100003**2]))


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.integers(1, 10**30), smooth_times_large),
       st.integers(-10**9, 10**9),
       st.sampled_from([1, 2, 3, 10, 997, 1000, 1001, 1009, 10**4, 99991, 10**5]),
       st.sampled_from(["pq", "prime_power"]))
def test_witnesses_match_a_fresh_sieve(value, derivative, q_max, mode):
    assert _strip_small(value, q_max) == reference_strip_small(value, q_max)
    memoised = extract_witness_report(value, derivative, q_max, mode)
    real = arith._strip_small
    try:
        arith._strip_small = reference_strip_small
        assert extract_witness_report(value, derivative, q_max, mode) == memoised
    finally:
        arith._strip_small = real


def test_rational_root_examples():
    found, root = has_rational_root(parse_polynomial("X^2-1"))
    assert found and root in (1, -1)
    assert has_rational_root(parse_polynomial("X^2+1")) == (False, None)
    assert has_rational_root(parse_polynomial("X^3-X^2-X+2")) == (False, None)
    found, root = has_rational_root(parse_polynomial("2*X^2-3*X+1"))
    assert found and root in (Fraction(1, 2), 1)
    found, root = has_rational_root(parse_polynomial("X^2+X"))
    assert found and root == 0


def test_rational_root_fuzz_against_sympy():
    rng = random.Random(17)
    x = sympy.symbols("x")
    for _ in range(100):
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(2, 5))] + [rng.randint(1, 9)]
        f = parse_polynomial(",".join(map(str, coeffs)))
        expr = sum(c * x**i for i, c in enumerate(coeffs))
        sym_has = any(r.is_rational for r in sympy.roots(expr, x))
        assert has_rational_root(f)[0] == sym_has
