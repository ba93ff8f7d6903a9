"""The Fraction loop that the series tests check rounding.py against, and
helpers to build the trig enclosures from cold caches.

The reference sums first - t_1 + t_2 - ... term by term in exact rationals,
t_j = t_(j-1) * x^2 * p/q with (p, q) the routine's own step, and stops at
the first term below 2^-bits.
"""
import math
from fractions import Fraction
from functools import lru_cache

from hypothesis import strategies as st

from polycert import rounding
from polycert.rounding import BoundedReal, _atan_step, _cos_step, _sin_step


def reference_sums(first, ratio):
    """(t_j, S_(j-1), S_j, d_j) for j = 1, 2, ...: the terms and partial sums
    of first - t_1 + t_2 - ..., t_j = t_(j-1) * ratio(j), exact, each a
    numerator over d_j, the denominator of first times those of the ratios.
    No gcd is taken: reducing every sum makes a 1616-bit sin series ~20 s."""
    term, d = first.numerator, first.denominator
    total = term
    j = 0
    while True:
        j += 1
        r = ratio(j)
        term, d, total = term * r.numerator, d * r.denominator, total * r.denominator
        nxt = total - term if j % 2 else total + term
        yield term, total, nxt, d
        total = nxt


def reference_stop(first, ratio, bits):
    """J, the index of the first term below 2^-bits."""
    for j, (term, _, _, d) in enumerate(reference_sums(Fraction(first), ratio), 1):
        if term << bits < d:
            return j


def reference_alternating(first, ratio, bits):
    """(lo, hi, d): the partial sums lo/d <= hi/d on either side of the first
    term below 2^-bits."""
    for term, before, after, d in reference_sums(Fraction(first), ratio):
        if term << bits < d:
            return min(before, after), max(before, after), d


def ratio_of(x, step):
    x2 = Fraction(x) ** 2
    return lambda j: x2 * Fraction(*step(j))


def reference_sin(x, bits):
    return reference_alternating(x, ratio_of(x, _sin_step), bits)


def reference_cos(x, bits):
    return reference_alternating(1, ratio_of(x, _cos_step), bits)


def reference_atan(x, bits):
    lo, hi, d = reference_alternating(x, ratio_of(x, _atan_step), bits)
    return Fraction(lo, d), Fraction(hi, d)


def outward(lo, hi, bits):
    """[lo, hi] rounded outward onto the 2^-bits grid."""
    scale = 1 << bits
    return BoundedReal(Fraction(math.floor(lo * scale), scale),
                       Fraction(math.ceil(hi * scale), scale))


def reference_pi_bits(bits):
    a_lo, a_hi = reference_atan(Fraction(1, 5), bits + 8)
    b_lo, b_hi = reference_atan(Fraction(1, 239), bits + 8)
    return outward(16 * a_lo - 4 * b_hi, 16 * a_hi - 4 * b_lo, bits)


def reference_pi_times(c, bits):
    """pi*c for c >= 0, rounded outward onto the 2^-bits grid."""
    pi = reference_pi_bits(bits)
    return outward(pi.lower * c, pi.upper * c, bits)


def on_grid(lo, lo_d, hi, hi_d, bits):
    """outward(lo/lo_d, min(hi/hi_d, 1), bits), without reducing either
    fraction."""
    return BoundedReal(Fraction((lo << bits) // lo_d, 1 << bits),
                       Fraction(min(-((-hi << bits) // hi_d), 1 << bits), 1 << bits))


def reference_sin_pi_frac_bits(c, bits):
    x = reference_pi_times(c, bits + 8)
    lo, _, lo_d = reference_sin(x.lower, bits)
    _, hi, hi_d = reference_sin(x.upper, bits)
    return on_grid(lo, lo_d, hi, hi_d, bits)


def reference_cos_pi_frac_bits(c, bits):
    x = reference_pi_times(c, bits + 8)
    lo, _, lo_d = reference_cos(x.upper, bits)
    _, hi, hi_d = reference_cos(x.lower, bits)
    return on_grid(lo, lo_d, hi, hi_d, bits)


@lru_cache(maxsize=None)
def reference_builders(c, bits):
    return (reference_pi_bits(bits), reference_sin_pi_frac_bits(c, bits),
            reference_cos_pi_frac_bits(c, bits))


def arguments(upper):
    """0, dyadic and non-dyadic rationals in [0, upper]."""
    dyadic = st.integers(0, 900).flatmap(
        lambda e: st.integers(0, int(upper * 2**e)).map(lambda k: Fraction(k, 2**e)))
    return st.one_of(st.just(Fraction(0)), dyadic,
                     st.fractions(0, upper, max_denominator=10**9))


BUILDERS = (rounding._pi_bits,)
MEMOS = (rounding._pi_frac,)


def clear_caches():
    for cached in BUILDERS + MEMOS:
        cached.cache_clear()


def build(c, bits):
    """pi, sin(pi*c) and cos(pi*c) on the 2^-bits grid, from cold caches."""
    clear_caches()
    try:
        return (rounding._pi_bits(bits), rounding._sin_cos_bits(False, c, bits),
                rounding._sin_cos_bits(True, c, bits))
    finally:
        clear_caches()
