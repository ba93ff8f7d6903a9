import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from polycert import arith, certify
from polycert.arith import (DETERMINISTIC_LIMIT, MAX_Q_MAX, PrimalityStatus,
                            extract_witness_report, has_rational_root,
                            is_prime, next_prime, p_adic_valuation,
                            prime_power_decomposition, _RUN, _SMALL_PRIMES, _sieve,
                            _strip_small)
from polycert.oracles import divisors, factorize
from polycert.poly import Polynomial, parse_polynomial
from polycert.rounding import iroot


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


def reference_is_prime(x: int) -> arith.PrimalityResult:
    """is_prime as it was when it wrote out its own trial division, kept
    verbatim."""
    PrimalityResult = arith.PrimalityResult
    x = int(x)
    if x < 0:
        inner = reference_is_prime(-x)
        return PrimalityResult(inner.status, inner.method, inner.factor,
                               "negative input classified by absolute value")
    if x == 1:
        return PrimalityResult(PrimalityStatus.UNIT, "unit")
    if x == 0:
        return PrimalityResult(PrimalityStatus.COMPOSITE, "zero")
    for p in _SMALL_PRIMES:
        if p * p > x:
            return PrimalityResult(PrimalityStatus.PROVEN_PRIME, "trial-division")
        if x % p == 0:
            if x == p:
                return PrimalityResult(PrimalityStatus.PROVEN_PRIME, "trial-division")
            return PrimalityResult(PrimalityStatus.COMPOSITE, "trial-division", factor=p)
    return arith._strong_classify(x)


def test_is_prime_is_the_trial_division_it_was_for_small_x():
    for x in range(-1000, 200_001):
        assert is_prime(x) == reference_is_prime(x), x  # status, method, factor, note


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.integers(-2**90, 2**90), st.integers(997**2 - 10**4, 997**2 + 10**4),
                 st.builds(lambda p, k: p * k, st.sampled_from(_SMALL_PRIMES),
                           st.integers(1, 2**80))))
@example(997**2 - 1)
@example(997**2)
@example(997**2 + 2)
def test_is_prime_is_the_trial_division_it_was(x):
    assert is_prime(x) == reference_is_prime(x)


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


def full_list_classify(x):
    """_strong_classify below DETERMINISTIC_LIMIT as it was when every value
    tried all 13 bases."""
    for a in arith._DET_BASES:
        if not arith._strong_test(x, a):
            return arith.PrimalityResult(PrimalityStatus.COMPOSITE, "strong-test",
                                         note=f"witness base {a}")
    return arith.PrimalityResult(PrimalityStatus.PROVEN_PRIME, "strong-test-deterministic")


def test_each_psi_is_composite():
    # psi_t passes the strong test to the first t bases, so classifying it
    # takes base t + 1
    for t, psi in enumerate(arith._PSI, 1):
        assert all(arith._strong_test(psi, a) for a in arith._DET_BASES[:t])
        assert not sympy.isprime(psi)
        assert is_prime(psi).status is PrimalityStatus.COMPOSITE
        if psi < DETERMINISTIC_LIMIT:
            assert arith._strong_classify(psi) == full_list_classify(psi)
    assert arith._PSI[-1] == DETERMINISTIC_LIMIT


def test_sized_bases_agree_with_sympy_and_with_all_bases():
    # odd values and primes from each band between consecutive psi_t
    rng = random.Random(23)
    bands = sorted({997**2, *(psi for psi in arith._PSI if psi > 997**2)})
    for lo, hi in zip(bands, bands[1:]):
        odd = [rng.randrange(lo, hi) | 1 for _ in range(40)]
        primes = [p for p in map(next_prime, odd[:10]) if p < hi]
        for x in odd + primes:
            res = arith._strong_classify(x)
            assert res == full_list_classify(x)
            assert res.is_prime == sympy.isprime(x)


def test_the_lucas_test_refuses_a_square_at_once(deadline):
    # (D/n) is never -1 for a square n, so without the perfect-square guard
    # the Selfridge search walks D up to n's least prime factor: about 1.5 s
    # for 1000003 and ten times that for 10000019
    deadline(1)
    assert arith._strong_lucas_test(1000003**2) is False
    assert arith._strong_lucas_test(10000019**2) is False


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


def reference_prime_power_decomposition(c):
    """prime_power_decomposition as it was: an iroot for every k from
    bit_length(c) - 1 down to 1."""
    if c < 2:
        return None
    for k in range(c.bit_length() - 1, 0, -1):
        r = iroot(c, k)
        if r**k == c:
            res = is_prime(r)
            if res.is_prime:
                return r, k, res
            return None  # maximal-exponent base is composite, so c is not p^k
    return None


small_or_large_prime = st.one_of(st.sampled_from(_SMALL_PRIMES),
                                 st.integers(1000, 10**6).map(next_prime))
prime_powers = st.builds(pow, small_or_large_prime, st.integers(1, 60))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    prime_powers,
    st.builds(lambda c, u: c * u, prime_powers, st.integers(2, 10**6)),
    st.builds(lambda a, b, e: (a * b)**e, st.integers(2, 10**4),
              st.integers(2, 10**4), st.integers(1, 30)),
    st.integers(0, 2),
    st.integers(0, 2**300)))
@example(1009**7 * 1013**7)
@example((2**61 - 1)**6)
@example(1009**1009)
@example(1013**1021)
def test_prime_power_decomposition_matches_the_root_loop(c):
    assert prime_power_decomposition(c) == reference_prime_power_decomposition(c)


def test_prime_power_decomposition_of_large_powers_is_fast(deadline):
    deadline(1)
    assert prime_power_decomposition(1009**1000)[:2] == (1009, 1000)
    mersenne = 2**61 - 1
    assert prime_power_decomposition(mersenne**64)[:2] == (mersenne, 64)
    assert prime_power_decomposition(3 * 2**4000) is None
    assert prime_power_decomposition(1009**1009)[:2] == (1009, 1009)


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


@pytest.mark.parametrize("q_max", [0, MAX_Q_MAX + 1])
def test_witness_rejects_q_max_out_of_range(q_max):
    with pytest.raises(ValueError, match=f"q_max must be in 1..{MAX_Q_MAX}"):
        extract_witness_report(7, 1, q_max)


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


def reference_witness(value, derivative, q_max, mode, primes):
    """extract_witness_report as it was, each mode deciding the value on its
    own: is_prime on the cofactor for pq, the root loop for prime_power, and
    is_prime on the chosen prime of a smooth value; primes are those up to
    q_max."""
    if value <= 0:
        return None, "value-nonpositive"
    smooth, exps, cofactor = reference_strip_small(value, q_max, primes)
    if cofactor > 1:
        if mode == "pq":
            res = is_prime(cofactor)
            found = (cofactor, 1, res) if res.is_prime else None
        else:
            found = reference_prime_power_decomposition(cofactor)
        if found is None:
            return None, "value-composite"
        if smooth > q_max:
            return None, "q-exceeds"
        (p, k, res), q, alternatives = found, smooth, ()
    else:
        splits = sorted((value // p**e, p, e) for p, e in exps
                        if (mode != "pq" or e == 1) and value // p**e <= q_max)
        if not splits:
            return None, "no-split"
        (q, p, k), others = splits[0], splits[1:]
        res, alternatives = is_prime(p), tuple((b, e, a) for a, b, e in others)
    if mode == "pq":
        return arith.FactorizationWitness(p, k, q, primality=res,
                                          alternatives=alternatives), "ok"
    if derivative == 0:
        return None, "derivative-zero"
    ell, r = p_adic_valuation(abs(derivative), p)
    return arith.FactorizationWitness(p, k, q, ell, r, min(Fraction(ell), Fraction(k, 2)),
                                      primality=res, alternatives=alternatives), "ok"


def witness_corpus():
    """(value, derivative) pairs: non-positive values, primes and prime powers
    on both sides of 1000, smooth values, zero derivatives, and values above
    DETERMINISTIC_LIMIT, with seeded products of them."""
    rng = random.Random(22)
    big = next_prime(DETERMINISTIC_LIMIT)  # probable, not proven
    primes = [2, 3, 5, 997, 1009, 100003, 999983, 1000003, 2**61 - 1, big]
    values = [0, -1, -1973, 1, 997**2, 999983 * 1000003, 2**10 * 1973,
              2 * 3 * 5 * 7, 1000 * 1009, 10**5 * 7, 2**64, 3**20 * 5**9]
    values += [p**k * q for p in primes for k in (1, 2, 3, 7)
               for q in (1, 2, 3, 6, 1009, 100003)]
    for _ in range(100):
        picked = rng.sample(primes, rng.randint(1, 3))
        values.append(math.prod(p**rng.randint(1, 4) for p in picked))
        values.append(rng.randrange(-10, 10**rng.randint(2, 40)))
    return [(v, rng.choice([0, 1, -6, 2**20 * 1009, rng.randrange(1, 10**12)]))
            for v in values]


@pytest.mark.parametrize("q_max", [1, 3, 1000, 1009, 10**5])
def test_the_certifiers_shared_split_matches_extract_witness_report(q_max):
    # f = X^2 + bX + a has f(1) = value and f'(1) = derivative; each Certifier
    # splits f(1) once and asks the two modes in one of the two orders
    seen, primes = set(), _sieve(q_max)
    for value, derivative in witness_corpus():
        b = derivative - 2
        f = Polynomial([value - b - 1, b, 1])
        for order in (("pq", "prime_power"), ("prime_power", "pq")):
            ctx = certify.Certifier(f, q_max)
            for mode in order:
                shared = ctx._witness(1, q_max, mode)
                alone = extract_witness_report(value, derivative, q_max, mode)
                reference = reference_witness(value, derivative, q_max, mode, primes)
                assert shared == alone == reference
                if alone[0] is not None:  # == ignores primality
                    assert shared[0].primality == alone[0].primality == reference[0].primality
                seen.add(alone[1])
    # at q_max 1 the smooth part is 1, so it never exceeds q_max
    assert seen == {"ok", "value-nonpositive", "value-composite", "q-exceeds",
                    "no-split", "derivative-zero"} - ({"q-exceeds"} if q_max == 1 else set())


@pytest.mark.parametrize("value, order, tested", [
    (2**61 - 1, ("pq", "prime_power"), [2**61 - 1]),  # prime: one test
    (2**61 - 1, ("prime_power", "pq"), [2**61 - 1]),
    ((2**61 - 1) * (2**89 - 1), ("prime_power", "pq"), [(2**61 - 1) * (2**89 - 1)]),
    ((2**61 - 1) * (2**89 - 1), ("pq", "prime_power"), [(2**61 - 1) * (2**89 - 1)]),
    ((2**61 - 1)**3, ("prime_power", "pq"), [2**61 - 1]),  # a proper power needs none
    ((2**61 - 1)**3 * 1009**3, ("prime_power", "pq"), [1009 * (2**61 - 1)]),  # its base
    (1009**1009, ("prime_power", "pq"), []),  # its base is below 997^2
])
def test_a_split_runs_one_strong_test_per_number(monkeypatch, value, order, tested):
    calls = []
    strong = arith._strong_classify
    monkeypatch.setattr(arith, "_strong_classify", lambda n: calls.append(n) or strong(n))
    split = arith._Split(value, 1)
    for mode in order:
        split.witness(mode, lambda: 1)
    assert calls == tested


def test_factorize_and_divisors():
    assert factorize(600) == {2: 3, 3: 1, 5: 2}
    assert divisors(28) == [1, 2, 4, 7, 14, 28]
    big = 1000003 * 1000033
    assert factorize(big) == {1000003: 1, 1000033: 1}


def test_sieve():
    assert _sieve(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert _sieve(1) == []
    assert len(_sieve(10**5)) == 9592
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
    primes, products = arith._sieved(10**5)
    assert len(products) == -(-len(primes) // _RUN)  # the run products share the one entry
    assert products[1] == math.prod(primes[_RUN:2 * _RUN])
    arith._sieved.cache_clear()
    extract_witness_report(10**15 + 37, 1, 10**5)  # a value not split before
    assert calls == [10**5, 10**5]  # clearing the sieve clears the products too
    arith._sieved.cache_clear()


def reference_strip_small(value, q_max, primes=None):
    """_strip_small as it was when every call sieved afresh and tried every
    prime, with the exponents as (prime, exponent) pairs."""
    smooth = 1
    exps = {}
    rest = value
    if q_max >= 2:
        for p in _sieve(q_max) if primes is None else primes:
            if p > rest:
                break
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            if e:
                exps[p] = e
                smooth *= p**e
    return smooth, tuple(exps.items()), rest


# the last prime of the first run and the first prime of the second
RUN_EDGES = _sieve(10**4)[_RUN - 1:_RUN + 1]

smooth_times_large = st.builds(
    lambda ps, big: math.prod(ps) * big,
    st.lists(st.sampled_from([2, 3, 5, 7, 997, 1009, *RUN_EDGES, 99991, 100003]),
             max_size=6),
    st.sampled_from([1, 2**61 - 1, 10**12 + 39, 100003**2]))


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.integers(1, 10**30), smooth_times_large),
       st.integers(-10**9, 10**9),
       st.sampled_from([1, 2, 3, 10, 997, 1000, 1001, 1009, *RUN_EDGES, 10**4, 99991,
                        10**5]),
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


SETTLED_Q_MAXES = [1, 2, 3, 996, 997, 1000, 1001, 10**5]


def reference_settled(value, q_max):
    """Whether the primes past q_max up to 997 prove value's q_max-rough part
    neither a prime nor a prime power: the least of them that divides it
    leaves another prime factor (sympy's primes, nothing factored)."""
    if value <= 0:
        return False
    small = [p for p in sympy.primerange(q_max + 1, 998) if value % p == 0]
    if not small:
        return False
    rough = value
    for p in sympy.primerange(2, q_max + 1):
        while rough % p == 0:
            rough //= p
    return rough != small[0] ** sympy.multiplicity(small[0], rough)


def check_settled_rule(value, q_max):
    """The split of value at q_max is settled exactly when reference_settled
    says so, and a settled value has no witness in either mode, at q_max or
    at 1 (the lens's), by the reference extraction, and is not prime."""
    settled = arith._Split(value, q_max).settled
    assert settled == reference_settled(value, q_max)
    if settled:
        for at in (q_max, 1):
            primes = _sieve(at)
            for mode in ("pq", "prime_power"):
                assert extract_witness_report(value, 6, at, mode) == (None, "value-composite")
                assert reference_witness(value, 6, at, mode, primes) == (None, "value-composite")
        assert not is_prime(value).is_prime
    return settled


SETTLED_CASES = [
    3**7, 997**3, 2**40,  # p^k with p <= 997
    1009**3, 1000003**2,  # p^k with p > 997
    5**3 * 7, 3**4 * 1009, 997**2 * 1000003, 2**5 * 3**2 * 11**3,  # p^k * r
    2**10 * 3**5, 30, 6,  # smooth at q_max 3 and beyond
    1, 0, -1, -35,
    1009 * 1013, 1000003 * 1000033, (2**61 - 1) * (2**89 - 1),  # past 997^2, no small factor
    2 * 1009 * 1013, 3**2 * (2**61 - 1)**2,
]


@pytest.mark.parametrize("q_max", SETTLED_Q_MAXES)
def test_a_settled_split_has_no_witness(q_max):
    settled = [value for value in SETTLED_CASES if check_settled_rule(value, q_max)]
    # the rule fires below q_max 997, and never from there on: no prime past
    # q_max is left to trial division
    assert bool(settled) == (q_max < 997)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(-10, 10**18), smooth_times_large,
                 st.builds(lambda ps, k: math.prod(ps) ** k,
                           st.lists(st.sampled_from([2, 3, 5, 7, 991, 997, 1009]),
                                    min_size=1, max_size=3),
                           st.integers(1, 5))),
       st.sampled_from(SETTLED_Q_MAXES))
def test_a_settled_split_matches_the_reference(value, q_max):
    check_settled_rule(value, q_max)


def run_edge_values(primes, q_max, rng, n):
    """Values whose primes sit at the edges of runs (the first three runs, the
    last two and n others), in several runs (3n values), in one run together
    (n values), and just above q_max."""
    above = next_prime(q_max)
    starts = list(range(0, len(primes), _RUN))
    starts = sorted({*starts[:3], *starts[-2:], *rng.sample(starts, min(len(starts), n))})
    edge_primes = sorted({primes[min(i, len(primes) - 1)] for k in starts
                          for i in (k - 1, k, k + 1) if i >= 0})
    values = [above, above**2, 2 * above, primes[-1], primes[-1]**2,
              primes[-1] * above, math.prod(primes[-_RUN:]),
              math.prod(edge_primes) * above, math.prod(p * p for p in edge_primes)]
    for p in edge_primes:
        values += [p, p * p, p * p * above]
    for _ in range(3 * n):
        picked = rng.sample(edge_primes, min(len(edge_primes), rng.randint(1, 6)))
        values.append(math.prod(p**rng.randint(1, 3) for p in picked)
                      * rng.choice([1, above, 2**61 - 1, rng.randrange(1, 10**20)]))
    for k in rng.sample(starts, min(len(starts), n)):  # primes of one run: a long walk
        run = primes[k:k + _RUN]
        values.append(math.prod(rng.sample(run, min(len(run), rng.randint(2, 3))))
                      * rng.choice([1, above]))
    return values


@pytest.mark.parametrize("q_max", [*RUN_EDGES, 10**6, MAX_Q_MAX],
                         ids=["last-of-first-run", "first-of-second-run", "1e6", "max"])
def test_run_gcds_match_the_prime_loop_across_run_edges(q_max):
    primes = _sieve(q_max)
    rng = random.Random(q_max)
    if q_max < MAX_Q_MAX:
        values = run_edge_values(primes, q_max, rng, 10)
        values += [rng.randrange(1, 10**30) for _ in range(100)]
    else:  # the prime loop takes ~0.1 s for each value with a cofactor above q_max
        values = run_edge_values(primes, q_max, rng, 1)
    for value in values:
        assert _strip_small(value, q_max) == reference_strip_small(value, q_max, primes)
    arith._sieved.cache_clear()


def test_a_split_is_kept_for_the_pq_and_prime_power_criteria(monkeypatch):
    # f(m) = 100003^2: lens is inapplicable, pq finds the value composite and
    # prime_power certifies with the same split
    calls = []
    sieved = arith._sieved
    monkeypatch.setattr(arith, "_sieved", lambda n: calls.append(n) or sieved(n))
    f = parse_polynomial("X^2+200005")
    cert, reasons = certify.Certifier(f, 10**5).certify(100002)
    assert reasons == ["lens-inapplicable", "value-composite"]
    assert cert.criterion == "thm35_prime_power"
    assert calls == [10**5]
    # a second Certifier splits f(m) again: no split outlives its Certifier
    assert certify.certify_any(f, 100002, q_max=10**5) == cert
    assert calls == [10**5, 10**5]


def test_a_replay_splits_its_value_once(monkeypatch):
    # f(18) = 221021 * 5: a proven prime past q_max times the recorded q, so
    # the split is built from q and no run of primes is walked
    f = parse_polynomial("X^4+7*X+1000003")
    cert = certify.certify_any(f, 18, q_max=10**4)
    assert cert.criterion == "thm31_pq" and cert.witness.q == 5
    calls = []
    sieved = arith._sieved
    monkeypatch.setattr(arith, "_sieved", lambda n: calls.append(n) or sieved(n))
    assert certify.certificate_verify(cert.to_json())  # rebuilt at 12 digits
    assert calls == []
    # f(100002) = 100003^2: k = 2 takes the full split, walked once
    f = parse_polynomial("X^2+200005")
    cert = certify.certify_any(f, 100002, q_max=10**5)
    assert cert.criterion == "thm35_prime_power" and cert.witness.k == 2
    calls.clear()
    assert certify.certificate_verify(cert.to_json())
    assert calls == [10**5]


def test_the_cold_split_at_max_q_max_is_fast(deadline):
    # ~0.45 s on a 2 vCPU x86_64 VM (sieve and run products built, then one
    # split through all 2597 runs); a primorial built as one product tree
    # takes ~9.5 s
    value = 2**3 * 3 * 1000003 * 9999991**2 * (10**12 + 39)
    real = arith._strip_small
    try:
        arith._strip_small = reference_strip_small
        expected = extract_witness_report(value, 5, MAX_Q_MAX, "prime_power")
    finally:
        arith._strip_small = real
    arith._sieved.cache_clear()
    deadline(3)
    assert extract_witness_report(value, 5, MAX_Q_MAX, "prime_power") == expected
    assert expected[1] == "q-exceeds"
    arith._sieved.cache_clear()


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
