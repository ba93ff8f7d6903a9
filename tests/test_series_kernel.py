"""The series routine of rounding.py against the Fraction loop it replaced,
and a guard against the old kernel's slowness.

`_fixed_series` sums a series in integers at scale 2^(bits+guard), every
step rounded outward, and brackets the two partial sums on either side of
the first term whose rounded-up value is below 2^-bits.  The reference (in
series_reference.py) keeps every term and partial sum exact and stops at the
first term below 2^-bits.  At the default guard both stop at the same term
and give the same endpoints on the 2^-bits grid, so no certificate changes.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polycert import rounding
from polycert.rounding import (_atan_step, _cos_step, _fixed_series, _sin_step,
                               cot_pi_frac, tan_pi_frac)
from series_reference import (arguments, build, clear_caches, ratio_of,
                              reference_alternating, reference_builders,
                              reference_sin, reference_sin_pi_frac_bits,
                              reference_stop)

BITS = st.integers(1, 700)


def check_kernel(first, step, x, bits):
    """At the default guard the routine's bracket, floored and ceiled onto
    the 2^-bits grid, gives the reference's partial sums floored and ceiled
    onto it.  An end may be one unit wider only where the exact sum lies
    within 2^-(bits + guard/2) of a grid point, far above the rounding error
    of the few hundred terms of a 700-bit series."""
    guard = rounding._GUARD
    lo, hi = _fixed_series(first(x), x, step, bits, guard)
    ref_lo, ref_hi, d = reference_alternating(first(x), ratio_of(x, step), bits)
    got = lo >> guard, -(-hi >> guard)
    want = (ref_lo << bits) // d, -((-ref_hi << bits) // d)
    # d times the distance, in units of 2^-bits, from each sum to its grid end
    gaps = (ref_lo << bits) - want[0] * d, want[1] * d - (ref_hi << bits)
    for g, w, outward, gap in zip(got, want, (-1, 1), gaps):
        assert g == w or (g == w + outward and gap << guard // 2 <= d)


@settings(max_examples=60, deadline=None)
@given(arguments(Fraction(2)), BITS)
def test_sin_series_matches_fraction_loop(x, bits):
    check_kernel(lambda x: x, _sin_step, x, bits)


@settings(max_examples=60, deadline=None)
@given(arguments(Fraction(7, 5)), BITS)
def test_cos_series_matches_fraction_loop(x, bits):
    check_kernel(lambda x: 1, _cos_step, x, bits)


@settings(max_examples=60, deadline=None)
@given(arguments(Fraction(1, 2)), BITS)
def test_atan_series_matches_fraction_loop(x, bits):
    check_kernel(lambda x: x, _atan_step, x, bits)


@settings(max_examples=60, deadline=None)
@given(st.fractions(0, Fraction(1, 2), max_denominator=200).filter(lambda c: c > 0),
       st.integers(1, 300))
def test_pi_sin_cos_builders_match_fraction_loop(c, bits):
    # near c = 1/2 and at low bits the sin series overshoots 1 and is clamped
    assert build(c, bits) == reference_builders(c, bits)


def test_sin_upper_end_is_clamped_at_one():
    assert rounding._sin_cos_bits(False, Fraction(49, 100), 6) == \
        reference_sin_pi_frac_bits(Fraction(49, 100), 6)
    assert rounding._sin_cos_bits(False, Fraction(49, 100), 6).upper == 1


def test_alternating_stops_where_the_fraction_loop_stops():
    # 1 - 1/2 + 1/4 - ...: the first term below 2^-10 is t_11 = 2^-11
    assert reference_stop(1, lambda j: Fraction(1, 2), 10) == 11
    for first, step, x, bits in [
        (1, lambda j: (1, 2), Fraction(1), 10),
        (Fraction(1, 3), _sin_step, Fraction(1, 3), 200),
        (Fraction(3, 2), _sin_step, Fraction(3, 2), 5),
        (1, _cos_step, Fraction(5, 4), 64),
        (Fraction(1, 239), _atan_step, Fraction(1, 239), 700),
    ]:
        steps = []

        def counted(j):
            steps.append(j)
            return step(j)
        _fixed_series(first, x, counted, bits, rounding._GUARD)
        assert len(steps) == reference_stop(first, ratio_of(x, step), bits)


@pytest.mark.parametrize("bits", [1, 8, 300])
def test_sin_of_zero_stops_at_the_first_term(bits):
    # x = 0: every term after `first` is 0, the first below 2^-bits
    one = 1 << (bits + rounding._GUARD)
    assert _fixed_series(0, Fraction(0), _sin_step, bits, rounding._GUARD) == (0, 0)
    assert reference_sin(Fraction(0), bits)[:2] == (0, 0)
    assert _fixed_series(1, Fraction(0), _cos_step, bits, rounding._GUARD) == (one, one)


def test_a_term_of_exactly_two_to_the_minus_bits_is_not_below_it():
    # 1 - 1/2 + 1/4 - ...: t_bits is exactly 2^-bits, and every term up to
    # t_(bits+1) is an integer at scale 2^(bits+guard) for any guard >= 1, so
    # at narrow guards too the routine sums t_bits, stops at t_(bits+1) and
    # brackets the reference's partial sums exactly
    for guard in (1, 2, 8):
        for bits in range(70):
            lo, hi, d = reference_alternating(1, lambda j: Fraction(1, 2), bits)
            assert d == 2**(bits + 1)
            k = bits + guard
            assert _fixed_series(1, Fraction(1), lambda j: (1, 2), bits, guard) == \
                (lo << k >> bits + 1, hi << k >> bits + 1)


def test_high_precision_trig_is_fast(deadline):
    clear_caches()
    deadline(1)
    tan_pi_frac(Fraction(1, 8), 200)
    cot_pi_frac(Fraction(1, 10), 200)
