"""Number-theoretic services: primality testing, valuations, perfect powers,
and extraction of the factorization witnesses used by the certifier.

Primality is deterministic (hence "proven") below a fixed strong-base
threshold of about 3.317e24; beyond that a combined strong-probable-prime
test reports "probable" and certificates built on it are marked conditional.

Nothing here factors an integer: the rational-root test isolates real roots
(has_rational_root), and witness extraction divides out the primes up to
q_max.  Beyond q_max 1000, those primes are sieved once per q_max and
grouped in runs of consecutive primes, each with its product; a value meets
each run in one gcd, and only a run that shares a prime with it is walked.
A split (_Split) is decided once for both witness modes, each decision made
only when a mode asks for it, or at once when its trial division finds a
prime below 1000 and another prime in the cofactor (settled: no witness in
either mode); the certifier keeps one per f(m) and q_max,
and a replay builds one.  A replay whose checked witness
is a proven prime p > q_max times q builds its split from q alone
(_seeded_split), without the runs.
The factoring that the brute-force oracle needs lives in oracles.py.
"""
from __future__ import annotations

import math
import random
from bisect import bisect_right
from enum import Enum
from functools import lru_cache
from itertools import compress
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from .poly import Polynomial, _shift_by_one, divide_exact
from .rounding import iroot

# The first 13 primes, and psi_t: the least odd composite that passes the
# strong test to each of the first t of them (OEIS A014233; Jaeschke, Math.
# Comp. 1993; Sorenson and Webster, Math. Comp. 2017).  An odd n < psi_t is
# prime when it passes the first t bases, so the bases prove every n below
# the last psi_t.
_DET_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051,
        3825123056546413051, 3825123056546413051, 318665857834031151167461,
        3317044064679887385961981)
DETERMINISTIC_LIMIT = _PSI[-1]

_EXTRA_PROBABLE_ROUNDS = 20

# Largest supported cofactor bound.  Witness extraction at q_max holds the
# primes up to q_max (664579 of them at 10^7) and the products of their runs.
MAX_Q_MAX = 10**7

# Primes per run: witness extraction takes one gcd with the product of each
# run of this many consecutive primes, and walks a run only when that gcd
# is not 1.  Longer runs take fewer gcds of the same total size but cost
# more to build: at 10^7, 0.16 s for runs of 256 and 0.5 s for runs of 1024
# on a 2 vCPU x86_64 VM.
_RUN = 256


def _sieve(limit: int) -> list[int]:
    if limit < 2:
        return []
    flags = bytearray(b"\x01") * ((limit + 1) // 2)  # flags[i] stands for 2i + 1
    flags[0] = 0
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if flags[i]:
            p = 2 * i + 1
            start = p * p // 2
            flags[start::p] = bytes(len(range(start, len(flags), p)))
    return [2, *compress(range(1, limit + 1, 2), flags)]


_SMALL_PRIMES = _sieve(1000)


@lru_cache(maxsize=1)
def _sieved(limit: int) -> tuple[list[int], list[int]]:
    """The primes up to limit > 1000, and the product of each run of _RUN
    consecutive ones: run i is primes[i * _RUN:(i + 1) * _RUN].  Built once
    per limit, and one limit is held at a time; at 10^7 that is 664579
    primes and 2597 products of about 5600 bits.  Callers must not mutate
    them."""
    primes = _sieve(limit)
    return primes, [math.prod(primes[i:i + _RUN]) for i in range(0, len(primes), _RUN)]


class PrimalityStatus(Enum):
    PROVEN_PRIME = "proven_prime"
    PROBABLE_PRIME = "probable_prime"
    COMPOSITE = "composite"
    UNIT = "unit"


class PrimalityResult(NamedTuple):
    status: PrimalityStatus
    method: str
    factor: Optional[int] = None
    note: str = ""

    @property
    def is_prime(self) -> bool:
        return self.status in (PrimalityStatus.PROVEN_PRIME,
                               PrimalityStatus.PROBABLE_PRIME)


_TRIAL_PRIME = PrimalityResult(PrimalityStatus.PROVEN_PRIME, "trial-division")
# A number below this with no prime factor up to 1000 is prime.
_TRIAL_LIMIT = _SMALL_PRIMES[-1] ** 2


def _trial_factor(n: int, primes: Sequence[int]) -> Optional[int]:
    """For n > 1 with no prime factor below primes, the primes from some
    point up to 997: the least of them that divides n, else n when
    n < 997^2 (then a prime), else None."""
    for p in primes:
        if p * p > n:
            break
        if n % p == 0:
            return p
    return n if n < _TRIAL_LIMIT else None


def _rough_classify(n: int) -> PrimalityResult:
    """is_prime(n) for an n > 1 with no prime factor up to 1000 but itself."""
    return _TRIAL_PRIME if n < _TRIAL_LIMIT else _strong_classify(n)


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
    by |x| with a note recording the sign.  _trial_factor, which _Split
    shares, settles x below 997^2 or with a prime factor up to 1000.
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
    factor = _trial_factor(x, _SMALL_PRIMES)
    if factor is None:
        return _strong_classify(x)
    if factor == x:
        return _TRIAL_PRIME
    return PrimalityResult(PrimalityStatus.COMPOSITE, "trial-division", factor=factor)


def _strong_classify(x: int) -> PrimalityResult:
    """is_prime for an x >= 997^2 with no prime factor up to 1000, past the
    trial division.  Below DETERMINISTIC_LIMIT it tries the first t bases,
    t the least with x < psi_t; the first base that fails is the one the
    full list would name."""
    if x < DETERMINISTIC_LIMIT:
        for a in _DET_BASES[:bisect_right(_PSI, x) + 1]:
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
    """(p, k, primality of p) when c = p^k with p prime and k maximal.

    Trial division by the primes up to 1000 settles any c with such a
    factor.  Otherwise every prime factor of c is at least 1009 > 2^9, so
    k <= bit_length(c) // 9, and c is reduced to its root-free base by
    taking e-th roots for every prime exponent e up to that bound, the bound
    shrinking with the base (after Bernstein, "Detecting perfect powers in
    essentially linear time", Math. Comp. 1998).  Roots come first: the one
    primality test is made on that base, never on a large power of it.
    Witness extraction decides its cofactors the same way (_Split), with
    the trial division starting past the primes it has already divided out.
    """
    if c < 2:
        return None
    return _Split(c, 1).prime_power() or None


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    c = max(2, n + 1)
    if c > 2 and c % 2 == 0:
        c += 1
    while not is_prime(c).is_prime:
        c += 1 if c == 2 else 2
    return c


# -- factorization witnesses --------------------------------------------------


class FactorizationWitness(NamedTuple):
    """Data certifying value = p^k * q with p prime and p coprime to q; in
    prime-power mode also |derivative_value| = p^ell * r with p coprime to r
    and s = min(ell, k/2).  Equality and hash ignore primality."""

    p: int
    k: int
    q: int
    ell: Optional[int] = None
    r: Optional[int] = None
    s: Optional[Fraction] = None
    primality: PrimalityResult = PrimalityResult(PrimalityStatus.UNIT, "unset")
    alternatives: tuple[tuple[int, int, int], ...] = ()

    def _key(self) -> tuple:
        return self[:6] + self[7:]  # every field but primality

    def __eq__(self, other) -> bool:
        return isinstance(other, FactorizationWitness) and self._key() == other._key()

    def __ne__(self, other) -> bool:  # tuple's own __ne__ would compare primality
        return not self == other

    def __hash__(self) -> int:
        return hash(self._key())


def _strip_small(value: int, q_max: int) -> tuple[int, tuple[tuple[int, int], ...], int]:
    """Split value > 0 into its q_max-smooth part, that part's (prime,
    exponent) pairs in increasing order, and the cofactor.  Up to q_max 1000
    each prime is tried in turn, which costs less than a memo lookup."""
    if q_max > 1000:
        return _strip_by_runs(value, q_max)
    smooth, exps, rest = 1, [], value
    for p in _SMALL_PRIMES:
        if p > rest or p > q_max:
            break
        if rest % p == 0:
            e, rest = p_adic_valuation(rest, p)
            exps.append((p, e))
            smooth *= p**e
    return smooth, tuple(exps), rest


def _strip_by_runs(value: int, q_max: int) -> tuple[int, tuple[tuple[int, int], ...], int]:
    """_strip_small for q_max > 1000.  g = gcd(rest, product of a run) holds
    the run's primes that divide what is left of the value (after Bernstein,
    "How to find smooth parts of integers", 2004), so a run is walked only
    when g > 1, and only until g is 1; once p^2 > g, g is itself a prime.  A
    rest below the square of the next prime is 1 or a prime, which ends the
    walk over the runs."""
    smooth, exps, rest = 1, [], value
    primes, products = _sieved(q_max)
    for i, product in enumerate(products):
        j = i * _RUN
        if rest < primes[j] ** 2:
            if 1 < rest <= q_max:
                exps.append((rest, 1))
                smooth, rest = smooth * rest, 1
            break
        g = math.gcd(rest, product)
        while g > 1:
            p = primes[j]
            if p * p > g:
                p = g
            if g % p == 0:
                g //= p
                e, rest = p_adic_valuation(rest, p)
                exps.append((p, e))
                smooth *= p**e
            j += 1
    return smooth, tuple(exps), rest


@lru_cache(maxsize=None)
def _primes_past(q_max: int) -> tuple[int, ...]:
    """The primes up to 1000 that exceed q_max <= 1000."""
    return tuple(p for p in _SMALL_PRIMES if p > q_max)


class _Split:
    """A value split at q_max and decided once for both witness modes.

    The split is value's q_max-smooth part with its (prime, exponent) pairs
    and the cofactor; _trial_factor by the primes from q_max to 1000 then
    gives its smallest such prime factor (factor), the cofactor itself when
    that proves it prime, or None when it has no such factor and is at least
    997^2.  A factor that divides the cofactor along with another prime
    settles the split (settled): the cofactor is then neither a prime nor a
    prime power, so neither mode has a witness ("value-composite"), and the
    value, with two prime factors past q_max, has none at q_max 1 either.
    Only q_max below 997 leaves primes to find such a factor.  Otherwise
    the rest is decided when a mode first
    asks, and kept: whether the cofactor is prime (pq) and whether it is a
    prime power (prime_power).  Each reuses the other's strong test: a prime
    cofactor is its own prime power, a cofactor with no root taken is tested
    once, and a proper power is composite without a test.  Replay builds
    the split of a value p * q whose witness it has checked, p a proven
    prime past q_max > 1000, from q alone (_seeded_split)."""

    __slots__ = ("value", "q_max", "smooth", "exps", "cofactor", "factor", "settled",
                 "_prime", "_power")

    def __init__(self, value: int, q_max: int):
        if not 1 <= q_max <= MAX_Q_MAX:
            raise ValueError(f"q_max must be in 1..{MAX_Q_MAX}")
        self.value, self.q_max = value, q_max
        self._prime = self._power = None  # undecided; False when decided no
        self.settled = False
        if value <= 0:
            return
        self.smooth, self.exps, rest = _strip_small(value, q_max)
        self.cofactor = rest
        past = _primes_past(q_max if q_max < 1000 else 1000)
        self.factor = p = _trial_factor(rest, past) if rest > 1 else None
        if p is not None and p != rest:
            while rest % p == 0:
                rest //= p
            self.settled = rest != 1

    def prime(self) -> PrimalityResult | bool:
        """is_prime(cofactor) when the cofactor is prime, else False."""
        if self._prime is None:
            if self.factor is not None:
                self._prime = self.factor == self.cofactor and _TRIAL_PRIME
            else:
                res = _strong_classify(self.cofactor)
                self._prime = res.is_prime and res
        return self._prime

    def prime_power(self) -> tuple[int, int, PrimalityResult] | bool:
        """prime_power_decomposition(cofactor), False for None."""
        if self._power is None:
            self._power = self._decompose()
        return self._power

    def _decompose(self) -> tuple[int, int, PrimalityResult] | bool:
        c, p = self.cofactor, self.factor
        if p is not None:
            return not self.settled and (p, p_adic_valuation(c, p)[0], _TRIAL_PRIME)
        if self._prime:
            return c, 1, self._prime
        k, bound = 1, c.bit_length() // 9
        for e in _SMALL_PRIMES if bound <= 1000 else _sieve(bound):
            if e > c.bit_length() // 9:
                break
            r = iroot(c, e)
            while r**e == c:
                c, k = r, k * e
                r = iroot(c, e)
        if k == 1:
            res = self.prime()
            return res and (c, 1, res)
        self._prime = False  # a proper power
        res = _rough_classify(c)
        return res.is_prime and (c, k, res)

    def witness(self, mode: str, derivative: Callable[[], int],
                ) -> tuple[Optional[FactorizationWitness], str]:
        """extract_witness_report on the value; derivative() gives the
        derivative value, asked for only by a prime_power witness."""
        if self.value <= 0:
            return None, "value-nonpositive"
        if self.cofactor > 1:
            if self.settled:
                return None, "value-composite"
            if mode == "pq":
                res = self.prime()
                found = res and (self.cofactor, 1, res)
            else:
                found = self.prime_power()
            if not found:
                return None, "value-composite"
            if self.smooth > self.q_max:
                return None, "q-exceeds"
            p, k, res = found
            q, alternatives = self.smooth, ()
        else:
            # value is q_max-smooth; pick the prime whose full power leaves
            # the smallest q, recording the other admissible splits
            splits = sorted((q, p, e) for p, e in self.exps
                            if (e == 1 or mode != "pq")
                            and (q := self.value // p**e) <= self.q_max)
            if not splits:
                return None, "no-split"
            (q, p, k), *others = splits
            res = _rough_classify(p)
            alternatives = tuple((p2, e2, q2) for q2, p2, e2 in others)
        if mode == "pq":
            return FactorizationWitness(p, k, q, primality=res,
                                        alternatives=alternatives), "ok"
        d = derivative()
        if d == 0:
            return None, "derivative-zero"
        ell, r = p_adic_valuation(abs(d), p)
        s = min(Fraction(ell), Fraction(k, 2))
        return FactorizationWitness(p, k, q, ell, r, s, primality=res,
                                    alternatives=alternatives), "ok"


def _seeded_split(p: int, q: int, q_max: int, primality: PrimalityResult) -> _Split:
    """_Split(p * q, q_max) for a prime p > q_max > 1000 and 1 <= q <= q_max,
    primality being is_prime(p): by unique factorization q is the q_max-smooth
    part of p * q and p its cofactor, so only q is stripped.  The primes up
    to 1000 strip q to 1 or to a rest with no prime factor up to 1000,
    which below 997^2 is a prime; only a rest past 997^2 (so q_max past
    10^6) meets the runs of primes up to q_max."""
    split = object.__new__(_Split)
    split.value, split.q_max = p * q, q_max
    smooth, exps, rest = _strip_small(q, 1000)
    if rest >= _TRIAL_LIMIT:
        smooth, exps, rest = _strip_small(q, q_max)
    elif rest > 1:
        smooth, exps = q, exps + ((rest, 1),)
    split.smooth, split.exps = smooth, exps
    split.cofactor, split.factor, split.settled = p, _trial_factor(p, ()), False
    split._prime, split._power = primality, None
    return split


def extract_witness_report(value: int, derivative_value: int, q_max: int = 1,
                           mode: str = "pq",
                           ) -> tuple[Optional[FactorizationWitness], str]:
    """Witness extraction with a reason tag: "ok", "value-nonpositive",
    "value-composite", "q-exceeds", "no-split", or "derivative-zero"."""
    if mode not in ("pq", "prime_power"):
        raise ValueError(f"unknown witness mode {mode!r}")
    return _Split(value, q_max).witness(mode, lambda: derivative_value)


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
        v = _variations(_shift_by_one(q[::-1]))
        if v > 1:
            left = [a << (n - i) for i, a in enumerate(q)]
            right = _shift_by_one(left)
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
