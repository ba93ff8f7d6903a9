"""The one series routine of rounding.py against a loop that sums the same
series term by term in exact rationals.

`_fixed_series` sums a series in integers at scale 2^(bits+guard), every
step rounded outward, and brackets the two partial sums on either side of
the first term whose rounded-up value is below 2^-bits; each endpoint is
that bracket floored or ceiled onto the 2^-bits grid, which is sound at any
guard of at least one bit.  The reference (in series_reference.py) keeps
every term and partial sum exact and stops at the first term below 2^-bits.
At the default guard that rounding onto the grid gives the reference's pi,
sin and cos enclosures; at guards of 1, 2
and 8 bits they must contain mpmath's value and be at most about
J * 2^-guard grid units wider, J the number of terms.
"""
from fractions import Fraction
from itertools import islice

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from polycert import rounding
from polycert.rounding import (_atan_step, _cos_step, _fixed_series, _sin_step,
                               cot_pi_frac, sin_pi_frac, tan_pi_frac)
from series_reference import (BUILDERS, MEMOS, arguments, build, clear_caches,
                              ratio_of, reference_alternating, reference_builders,
                              reference_sums)

DEFAULT_GUARD = rounding._GUARD
FRACTIONS = st.fractions(0, Fraction(1, 2), max_denominator=400).filter(lambda c: c > 0)


@settings(max_examples=25, deadline=None)
@given(FRACTIONS, st.integers(1, 1700))
@example(Fraction(49, 100), 6)  # the sin series overshoots 1: the upper end is clamped
@example(Fraction(1, 2), 1)
@example(Fraction(1, 7), 1700)
def test_the_rounding_test_gives_the_exact_endpoints(c, bits):
    # at the default guard, flooring and ceiling the fixed-point bracket onto
    # the 2^-bits grid gives the reference's exact endpoints, up to 1700 bits
    assert build(c, bits) == reference_builders(c, bits)


def widening_bound(bits, guard):
    """Grid units an endpoint may move outward from the reference's at a
    narrow guard.  Each of the J terms of a series adds at most about one
    unit of 2^-(bits+guard) to the sums' rounding error, J * 2^-guard units
    of 2^-bits in all; J < bits / 4 for the long series here, and the 2
    covers the short ones.  Measured at n = 2..13 and bits = 1616: 34 units
    at guard 1, 17 at guard 2, 1 at guard 8."""
    return 2 + (bits >> (guard + 2))


def contains(b, value, bits):
    """b.lower <= value <= b.upper, value an mpmath number, compared at
    bits + 64 bits on the 2^-bits grid the endpoints lie on."""
    with mpmath.workprec(bits + 64):
        scaled = value() * mpmath.mpf(2) ** bits
        return int(b.lower * 2**bits) <= scaled <= int(b.upper * 2**bits)


@pytest.mark.parametrize("guard", [1, 2, 8, DEFAULT_GUARD])
def test_a_narrow_guard_still_encloses_pi_sin_and_cos(monkeypatch, guard):
    monkeypatch.setattr(rounding, "_GUARD", guard)
    for n in range(2, 14):
        c = Fraction(1, n)
        values = (lambda: mpmath.pi, lambda: mpmath.sinpi(mpmath.mpf(1) / n),
                  lambda: mpmath.cospi(mpmath.mpf(1) / n))
        for bits in (1, 8, 64, 416, 1616):
            built, wanted = build(c, bits), reference_builders(c, bits)
            if guard == DEFAULT_GUARD:
                assert built == wanted
            for b, want, value in zip(built, wanted, values):
                assert contains(b, value, bits)
                assert (want.lower - b.lower) * 2**bits <= widening_bound(bits, guard)
                assert (b.upper - want.upper) * 2**bits <= widening_bound(bits, guard)


SERIES = [  # t_0 as a function of x, the step, and the largest x tried
    pytest.param(lambda x: x, _sin_step, Fraction(2), id="sin"),
    pytest.param(lambda x: 1, _cos_step, Fraction(8, 5), id="cos"),
    pytest.param(lambda x: x, _atan_step, Fraction(1, 2), id="atan"),
]


def check_enclosure(first, step, x, bits, guard):
    """_fixed_series brackets both partial sums around its stopping term t_J,
    and t_J is below 2^-bits: the stop rule reads the rounded-up term."""
    stops = []

    def counted(j):
        stops.append(j)
        return step(j)
    lo, hi = _fixed_series(first(x), x, counted, bits, guard)
    sums = list(islice(reference_sums(Fraction(first(x)), ratio_of(x, step)), len(stops)))
    term, before, after, d = sums[-1]
    assert term << bits < d
    if guard >= 64 and len(sums) > 1:
        assert sums[-2][0] << bits >= sums[-2][3]  # and at a wide guard J is the first such
    k = bits + guard
    assert lo * d <= min(before, after) << k
    assert max(before, after) << k <= hi * d


@pytest.mark.parametrize("first, step, upper", SERIES)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), bits=st.integers(1, 700), guard=st.integers(1, 80))
def test_the_fixed_point_sums_enclose_the_exact_partial_sums(
        first, step, upper, data, bits, guard):
    check_enclosure(first, step, data.draw(arguments(upper)), bits, guard)


@pytest.mark.parametrize("first, step, x, bits, guard", [
    # the lower track of a term of at least 2^-bits falls below 2^-bits here
    (lambda x: x, _sin_step, Fraction(49, 32), 8, 2),
    (lambda x: x, _atan_step, Fraction(1, 2), 19, 1),
    (lambda x: x, _atan_step, Fraction(16165, 32768), 10, 1),
], ids=["sin-49/32", "atan-1/2", "atan-16165/32768"])
def test_the_stop_rule_reads_the_rounded_up_term(first, step, x, bits, guard):
    check_enclosure(first, step, x, bits, guard)


def test_a_term_of_exactly_two_to_the_minus_bits_is_not_below_it():
    # 1 - 1/2 + 1/4 - ...: t_bits is exactly 2^-bits, which the fixed-point
    # sums carry exactly, so both the routine and the reference sum it and
    # stop at t_(bits+1)
    for bits in range(70):
        lo, hi, d = reference_alternating(1, lambda j: Fraction(1, 2), bits)
        assert d == 2**(bits + 1) and hi - lo == 1
        k = bits + rounding._GUARD
        assert _fixed_series(1, Fraction(1), lambda j: (1, 2), bits, rounding._GUARD) == \
            (lo << k >> bits + 1, hi << k >> bits + 1)


def test_cold_high_precision_trig_is_fast(deadline):
    # n = 3..8 at 400 digits (1616-bit series) take 25-50 ms on a 2 vCPU
    # x86_64 VM, against ~1.8 s with the exact rational sums of binary splitting
    clear_caches()
    deadline(0.25)
    for n in range(3, 9):
        sin_pi_frac(Fraction(1, n), 400)
        tan_pi_frac(Fraction(1, 2 * n), 400)
        cot_pi_frac(Fraction(1, 2 * n), 400)


def test_the_inner_trig_caches_are_bounded():
    for cached in BUILDERS + MEMOS:
        assert cached.cache_info().maxsize == rounding.TRIG_MEMO_SIZE
    clear_caches()
    for n in range(2, rounding.TRIG_MEMO_SIZE + 100):
        sin_pi_frac(Fraction(1, n), 12)
    for bits in range(1, rounding.TRIG_MEMO_SIZE + 100):
        rounding._pi_bits(bits)
    for cached in BUILDERS + MEMOS:
        assert cached.cache_info().currsize == rounding.TRIG_MEMO_SIZE
