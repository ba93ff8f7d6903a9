"""Number-theoretic services: primality testing, valuations, perfect powers,
and extraction of the factorization witnesses used by the certifier.

Primality is deterministic (hence "proven") below a fixed strong-base
threshold of about 3.317e24; beyond that a combined strong-probable-prime
test reports "probable" and certificates built on it are marked conditional.

Nothing on the certify or verify path factors an integer: the rational-root
test isolates real roots (has_rational_root), and witness extraction divides
out the primes up to q_max, sieved once per q_max.  factorize, divisors and
Pollard-Brent are for the brute-force oracle and the tests only.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from fractions import Fraction
from typing import Optional

from .poly import Polynomial, divide_exact
from .rounding import iroot

# Strong-pseudoprime bases valid for every n below this bound.
_DET_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
DETERMINISTIC_LIMIT = 3317044064679887385961981

_EXTRA_PROBABLE_ROUNDS = 20


def _sieve(limit: int) -> list[int]:
    if limit < 2:
        return []
    flags = bytearray(b"\x01") * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p::p] = b"\x00" * len(range(p * p, limit + 1, p))
    return [i for i, v in enumerate(flags) if v]


_SMALL_PRIMES = _sieve(1000)


@lru_cache(maxsize=1)
def _sieved(limit: int) -> list[int]:
    """The primes up to limit > 1000, sieved once per limit.  One list is
    held at a time (q_max may be 10^7: 664579 primes); callers must not
    mutate it."""
    return _sieve(limit)


def primes_up_to(limit: int) -> list[int]:
    """A fresh list of the primes up to limit."""
    if limit <= 1000:
        return [p for p in _SMALL_PRIMES if p <= limit]
    return list(_sieved(limit))


class PrimalityStatus(Enum):
    PROVEN_PRIME = "proven_prime"
    PROBABLE_PRIME = "probable_prime"
    COMPOSITE = "composite"
    UNIT = "unit"


@dataclass(frozen=True)
class PrimalityResult:
    status: PrimalityStatus
    method: str
    factor: Optional[int] = None
    note: str = ""

    @property
    def is_prime(self) -> bool:
        return self.status in (PrimalityStatus.PROVEN_PRIME,
                               PrimalityStatus.PROBABLE_PRIME)


def _strong_test(n: int, a: int) -> bool:
    """True when n passes the strong base-a test (is a probable prime)."""
    if a % n == 0:
        return True
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    assert n > 0 and n % 2 == 1
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_test(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameter choice."""
    if math.isqrt(n) ** 2 == n:
        return False
    d = 5
    while True:
        j = _jacobi(d, n)
        if j == -1:
            break
        if j == 0 and abs(d) != n:
            return False
        d = -(d + 2) if d > 0 else -(d - 2)
    p, q = 1, (1 - d) // 4

    m, r = n + 1, 0
    while m % 2 == 0:
        m //= 2
        r += 1

    # Lucas sequences U_m, V_m by binary ladder.
    u, v, qk = 1, p, q % n
    for bit in bin(m)[3:]:
        u = u * v % n
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = (p * u + v) % n, (d * u + p * v) % n
            if u % 2:
                u += n
            if v % 2:
                v += n
            u, v = u // 2 % n, v // 2 % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(r - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def is_prime(x: int) -> PrimalityResult:
    """Classify x; proven below DETERMINISTIC_LIMIT, probable beyond.

    1 is a unit and negatives are never prime; a negative input is classified
    by |x| with a note recording the sign.
    """
    x = int(x)
    if x < 0:
        inner = is_prime(-x)
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
    if x < DETERMINISTIC_LIMIT:
        for a in _DET_BASES:
            if not _strong_test(x, a):
                return PrimalityResult(PrimalityStatus.COMPOSITE,
                                       "strong-test", note=f"witness base {a}")
        return PrimalityResult(PrimalityStatus.PROVEN_PRIME, "strong-test-deterministic")
    if not _strong_test(x, 2):
        return PrimalityResult(PrimalityStatus.COMPOSITE, "strong-test", note="witness base 2")
    if not _strong_lucas_test(x):
        return PrimalityResult(PrimalityStatus.COMPOSITE, "strong-lucas")
    rng = random.Random(x % (1 << 64) ^ 0x9E3779B97F4A7C15)
    for _ in range(_EXTRA_PROBABLE_ROUNDS):
        a = rng.randrange(2, x - 1)
        if not _strong_test(x, a):
            return PrimalityResult(PrimalityStatus.COMPOSITE, "strong-test",
                                   note="random-base witness")
    return PrimalityResult(PrimalityStatus.PROBABLE_PRIME, "strong-test+lucas")


def p_adic_valuation(x: int, p: int) -> tuple[int, int]:
    """Largest v with p^v | x, and the signed cofactor x / p^v."""
    if x == 0:
        raise ValueError("valuation of zero is undefined")
    if p < 2:
        raise ValueError("p must be at least 2")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v, x


def prime_power_decomposition(c: int) -> Optional[tuple[int, int, PrimalityResult]]:
    """(p, k, primality of p) when c = p^k with p prime and k maximal."""
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


# -- integer factorization at desk scale, for the oracles -------------------


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of composite n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    rng = random.Random(n & 0xFFFFFFFF)
    while True:
        y, c, m = rng.randrange(1, n), rng.randrange(1, n), 128
        g, r, q = 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division plus Pollard-Brent."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m).is_prime:
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_brent(m)
        stack.extend((d, m // d))
    return out


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n >= 1."""
    facs = factorize(n)
    out = [1]
    for p, e in facs.items():
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    c = max(2, n + 1)
    if c > 2 and c % 2 == 0:
        c += 1
    while not is_prime(c).is_prime:
        c += 1 if c == 2 else 2
    return c


# -- factorization witnesses --------------------------------------------------


@dataclass(frozen=True)
class FactorizationWitness:
    """Data certifying value = p^k * q with p prime and p coprime to q; in
    prime-power mode also |derivative_value| = p^ell * r with p coprime to r
    and s = min(ell, k/2)."""

    p: int
    k: int
    q: int
    ell: Optional[int] = None
    r: Optional[int] = None
    s: Optional[Fraction] = None
    primality: PrimalityResult = field(
        default=PrimalityResult(PrimalityStatus.UNIT, "unset"), compare=False)
    alternatives: tuple[tuple[int, int, int], ...] = ()


def _strip_small(value: int, q_max: int) -> tuple[int, dict[int, int], int]:
    """Split value into a q_max-smooth part (as factor dict) and a cofactor."""
    smooth = 1
    exps: dict[int, int] = {}
    rest = value
    if q_max >= 2:
        for p in _SMALL_PRIMES if q_max <= 1000 else _sieved(q_max):
            if p > rest or p > q_max:
                break
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            if e:
                exps[p] = e
                smooth *= p**e
    return smooth, exps, rest


def extract_witness_report(value: int, derivative_value: int, q_max: int = 1,
                           mode: str = "pq",
                           ) -> tuple[Optional[FactorizationWitness], str]:
    """Witness extraction with a reason tag: "ok", "value-nonpositive",
    "value-composite", "q-exceeds", "no-split", or "derivative-zero"."""
    if mode not in ("pq", "prime_power"):
        raise ValueError(f"unknown witness mode {mode!r}")
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    if q_max > 10**7:
        raise ValueError("q_max above 10^7 is not supported")
    if value <= 0:
        return None, "value-nonpositive"

    smooth, exps, cofactor = _strip_small(value, q_max)

    if cofactor > 1:
        if mode == "pq":
            res = is_prime(cofactor)
            if not res.is_prime:
                return None, "value-composite"
            p, k = cofactor, 1
        else:
            decomp = prime_power_decomposition(cofactor)
            if decomp is None:
                return None, "value-composite"
            p, k, res = decomp
        q = smooth
        if q > q_max:
            return None, "q-exceeds"
        candidates = [(q, p, k, res)]
    else:
        # value is q_max-smooth; pick the prime whose full power leaves the
        # smallest q, recording the other admissible splits
        candidates = []
        for p, e in sorted(exps.items()):
            if mode == "pq" and e != 1:
                continue
            q = value // p**e
            if q <= q_max and q % p != 0:
                candidates.append((q, p, e, is_prime(p)))
        if not candidates:
            return None, "no-split"
        candidates.sort(key=lambda t: (t[0], t[1]))

    q, p, k, res = candidates[0]
    alternatives = tuple((c[1], c[2], c[0]) for c in candidates[1:])

    if mode == "pq":
        return FactorizationWitness(p, k, q, primality=res,
                                    alternatives=alternatives), "ok"

    if derivative_value == 0:
        return None, "derivative-zero"
    ell, r = p_adic_valuation(abs(derivative_value), p)
    s = min(Fraction(ell), Fraction(k, 2))
    return FactorizationWitness(p, k, q, ell, abs(r), s, primality=res,
                                alternatives=alternatives), "ok"


# -- rational roots by real-root isolation -------------------------------------


def _integer_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """The primitive gcd of two nonzero integer polynomials, up to its sign
    (primitive pseudo-remainder sequence)."""
    b = b.primitive_part()
    while b.degree() > 0:
        r, lead, db = list(a.coeffs), b.leading_coefficient(), b.degree()
        while len(r) > db:
            top, pos = r[-1], len(r) - 1 - db
            r = [lead * c for c in r]
            for j, c in enumerate(b.coeffs):
                r[pos + j] -= top * c
            while r and r[-1] == 0:
                r.pop()
        if not r:
            return b
        a, b = b, Polynomial(r).primitive_part()
    return Polynomial([1])


def _homogeneous(cs: tuple[int, ...], u: int, w: int) -> int:
    """w^n * p(u/w) for p of degree n and w > 0: an integer with the sign of
    p(u/w)."""
    acc, scale = 0, 1
    for c in reversed(cs):
        acc = acc * u + c * scale
        scale *= w
    return acc


def _taylor_shift_1(cs: list[int]) -> list[int]:
    """Coefficients of p(X + 1), constant term first."""
    cs = list(cs)
    n = len(cs) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            cs[j] += cs[j + 1]
    return cs


def _variations(cs: list[int]) -> int:
    signs = [c > 0 for c in cs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _positive_rational_root(cs: tuple[int, ...]) -> Optional[Fraction]:
    """A positive rational root of the square-free p with coefficients cs
    (constant term first, p(0) != 0), or None.

    The positive roots lie below 2^b (Cauchy's bound), so q(X) = p(2^b X)
    has them in (0, 1).  Bisection with the Descartes test of Vincent,
    Collins and Akritas isolates each one: the node (c, k) stands for the
    interval (c/2^k, (c+1)/2^k) and for the polynomial Q that maps (0, 1)
    onto it; the sign variations of (X+1)^n Q(1/(X+1)) bound its roots there,
    and 0 or 1 is exact.  Each one-root interval is then halved by the sign
    of p until it is narrower than 1/(2 L^2), L the leading coefficient of p
    in absolute value.  A rational root u/v in lowest terms has v | L, and
    two fractions with denominators at most L differ by at least 1/L^2, so
    the only candidate is the fraction nearest the midpoint with denominator
    at most L, and it is tested exactly.  A root on a bisection point is
    returned when it is met."""
    n, lead = len(cs) - 1, abs(cs[-1])
    b = (max(abs(c) for c in cs[:-1]) // lead + 2).bit_length()
    stack = [([c << (b * i) for i, c in enumerate(cs)], 0, 0)]
    while stack:
        q, c, k = stack.pop()
        v = _variations(_taylor_shift_1(q[::-1]))
        if v > 1:
            left = [a << (n - i) for i, a in enumerate(q)]
            right = _taylor_shift_1(left)
            if right[0] == 0:
                return Fraction((2 * c + 1) << b, 1 << (k + 1))
            stack += [(left, 2 * c, k + 1), (right, 2 * c + 1, k + 1)]
        elif v == 1:
            # the root lies in (lo, hi) / 2^e
            if b >= k:
                lo, hi, e = c << (b - k), (c + 1) << (b - k), 0
            else:
                lo, hi, e = c, c + 1, k - b
            lo_positive = _homogeneous(cs, lo, 1 << e) > 0
            while (hi - lo) * 2 * lead * lead >= 1 << e:
                if hi - lo == 1:
                    lo, hi, e = 2 * lo, 2 * hi, e + 1
                mid = (lo + hi) // 2
                value = _homogeneous(cs, mid, 1 << e)
                if value == 0:
                    return Fraction(mid, 1 << e)
                if (value > 0) == lo_positive:
                    lo = mid
                else:
                    hi = mid
            cand = Fraction(lo + hi, 1 << (e + 1)).limit_denominator(lead)
            if _homogeneous(cs, cand.numerator, cand.denominator) == 0:
                return cand
    return None


def has_rational_root(f: Polynomial) -> tuple[bool, Optional[Fraction]]:
    """Whether f has a rational root, and one such root.

    The roots of f are those of its square-free part f / gcd(f, f'), whose
    positive and negative roots are isolated on the integers
    (_positive_rational_root); nothing is factored."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    if f.degree() == 0:
        return False, None
    if f.coefficient(0) == 0:
        return True, Fraction(0)
    p = f.primitive_part()
    g = _integer_gcd(p, p.derivative())
    if g.degree() > 0:
        p = divide_exact(p, g)
    for sign, q in ((1, p), (-1, p.negate_argument())):
        root = _positive_rational_root(q.coeffs)
        if root is not None:
            return True, sign * root
    return False, None
