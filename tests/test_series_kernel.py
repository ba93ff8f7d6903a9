"""The integer series kernel of rounding.py against the Fraction loop it
replaced, and a guard against the old kernel's slowness.

`_alternating` sums the series by binary splitting, keeps its partial sums
unreduced over one common denominator, and each endpoint is floored or ceiled
onto the 2^-bits grid in one integer division.  The reference below is the
earlier loop, which reduced every Fraction: both must give the same partial
sums and the same rounded endpoints, so no certificate changes.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polycert import rounding
from polycert.rounding import (BoundedReal, _alternating, _atan_series,
                               _cos_pi_frac_bits, _cos_series, _pi_bits,
                               _rounded, _sin_pi_frac_bits, _sin_series,
                               cot_pi_frac, tan_pi_frac)


def reference_alternating(first, ratio, bits):
    total = term = first
    j = 0
    while True:
        j += 1
        term *= ratio(j)
        nxt = total - term if j % 2 else total + term
        if term * (1 << bits) < 1:
            return (total, nxt) if total <= nxt else (nxt, total)
        total = nxt


def reference_sin(x, bits):
    x2 = x * x
    return reference_alternating(x, lambda j: x2 / ((2 * j) * (2 * j + 1)), bits)


def reference_cos(x, bits):
    x2 = x * x
    return reference_alternating(Fraction(1), lambda j: x2 / ((2 * j - 1) * (2 * j)), bits)


def reference_atan(x, bits):
    x2 = x * x
    return reference_alternating(x, lambda j: x2 * (2 * j - 1) / (2 * j + 1), bits)


def reference_pi_bits(bits):
    a_lo, a_hi = reference_atan(Fraction(1, 5), bits + 8)
    b_lo, b_hi = reference_atan(Fraction(1, 239), bits + 8)
    return BoundedReal(16 * a_lo - 4 * b_hi, 16 * a_hi - 4 * b_lo).rounded(bits)


def reference_sin_pi_frac_bits(c, bits):
    x = (reference_pi_bits(bits + 8) * c).rounded(bits + 8)
    lo = reference_sin(x.lower, bits)[0]
    hi = reference_sin(x.upper, bits)[1]
    return BoundedReal(lo, min(hi, Fraction(1))).rounded(bits)


def reference_cos_pi_frac_bits(c, bits):
    x = (reference_pi_bits(bits + 8) * c).rounded(bits + 8)
    lo = reference_cos(x.upper, bits)[0]
    hi = reference_cos(x.lower, bits)[1]
    return BoundedReal(lo, min(hi, Fraction(1))).rounded(bits)


def arguments(upper):
    """0, dyadic and non-dyadic rationals in [0, upper]."""
    dyadic = st.integers(0, 60).flatmap(
        lambda e: st.integers(0, int(upper * 2**e)).map(lambda k: Fraction(k, 2**e)))
    return st.one_of(st.just(Fraction(0)), dyadic,
                     st.fractions(0, upper, max_denominator=10**9))


BITS = st.integers(1, 700)


def check_kernel(series, reference, x, bits):
    lo, hi, d = series(x, bits)
    ref_lo, ref_hi = reference(x, bits)
    assert d > 0
    assert (Fraction(lo, d), Fraction(hi, d)) == (ref_lo, ref_hi)
    assert _rounded(lo, d, hi, d, bits) == BoundedReal(ref_lo, ref_hi).rounded(bits)


@settings(max_examples=60, deadline=None)
@given(arguments(Fraction(2)), BITS)
def test_sin_series_matches_fraction_loop(x, bits):
    check_kernel(_sin_series, reference_sin, x, bits)


@settings(max_examples=60, deadline=None)
@given(arguments(Fraction(7, 5)), BITS)
def test_cos_series_matches_fraction_loop(x, bits):
    check_kernel(_cos_series, reference_cos, x, bits)


@settings(max_examples=60, deadline=None)
@given(arguments(Fraction(1, 2)), BITS)
def test_atan_series_matches_fraction_loop(x, bits):
    check_kernel(_atan_series, reference_atan, x, bits)


@settings(max_examples=60, deadline=None)
@given(st.fractions(0, Fraction(1, 2), max_denominator=200).filter(lambda c: c > 0),
       st.integers(1, 300))
def test_pi_sin_cos_builders_match_fraction_loop(c, bits):
    # near c = 1/2 and at low bits the sin series overshoots 1 and is clamped
    assert _pi_bits(bits) == reference_pi_bits(bits)
    assert _sin_pi_frac_bits(c.numerator, c.denominator, bits) == \
        reference_sin_pi_frac_bits(c, bits)
    assert _cos_pi_frac_bits(c.numerator, c.denominator, bits) == \
        reference_cos_pi_frac_bits(c, bits)


def test_sin_upper_end_is_clamped_at_one():
    assert _sin_pi_frac_bits(49, 100, 6) == reference_sin_pi_frac_bits(
        Fraction(49, 100), 6)
    assert _sin_pi_frac_bits(49, 100, 6).upper == 1


def test_alternating_stops_where_the_fraction_loop_stops():
    # 1 - 1/2 + 1/4 - ...: the first term below 2^-bits is 2^-(bits+1)
    lo, hi, d = _alternating(Fraction(1), lambda j: (1, 2), 10)
    assert (Fraction(lo, d), Fraction(hi, d)) == reference_alternating(
        Fraction(1), lambda j: Fraction(1, 2), 10)
    assert d == 2**11


@pytest.mark.parametrize("bits", [1, 8, 300])
def test_sin_of_zero_stops_at_the_first_term(bits):
    # x = 0: `first` and every p are 0, so no logarithm is taken
    assert _sin_series(Fraction(0), bits) == (0, 0, 6)
    assert reference_sin(Fraction(0), bits) == (0, 0)
    assert _cos_series(Fraction(0), bits) == (2, 2, 2)


def test_a_term_of_exactly_two_to_the_minus_bits_is_not_below_it():
    # 1 - 1/2 + 1/4 - ...: t_bits = 2^-bits exactly, so the strict stop rule
    # sums it and stops at t_(bits+1)
    for bits in range(70):
        lo, hi, d = _alternating(Fraction(1), lambda j: (1, 2), bits)
        assert d == 2**(bits + 1)
        assert (Fraction(lo, d), Fraction(hi, d)) == reference_alternating(
            Fraction(1), lambda j: Fraction(1, 2), bits)


@pytest.mark.parametrize("step", [-1, 1])
@pytest.mark.parametrize("series, reference, x, bits", [
    (_sin_series, reference_sin, Fraction(1, 3), 200),
    (_sin_series, reference_sin, Fraction(3, 2), 5),
    (_cos_series, reference_cos, Fraction(5, 4), 64),
    (_atan_series, reference_atan, Fraction(1, 239), 700),
])
def test_an_estimate_off_by_one_term_is_corrected_exactly(
        monkeypatch, step, series, reference, x, bits):
    # one term too few makes the kernel step forward, one too many back
    exact = series(x, bits)
    estimate = rounding._term_ratios

    def off_by_one(a, d0, ratio, bits):
        terms = estimate(a, d0, ratio, bits)
        return terms[:-1] if step < 0 else terms + [ratio(len(terms) + 1)]
    monkeypatch.setattr(rounding, "_term_ratios", off_by_one)
    assert series(x, bits) == exact
    check_kernel(series, reference, x, bits)


def test_high_precision_trig_is_fast(deadline):
    for cached in (rounding._pi_bits, rounding._sin_pi_frac_bits,
                   rounding._cos_pi_frac_bits, rounding._sin_pi_frac,
                   rounding._tan_pi_frac, rounding._cot_pi_frac):
        cached.cache_clear()
    deadline(1)
    tan_pi_frac(Fraction(1, 8), 200)
    cot_pi_frac(Fraction(1, 10), 200)
