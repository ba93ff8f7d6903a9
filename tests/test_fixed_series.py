"""The fixed-point series of rounding.py and the rounding test that settles
each endpoint from it.

`_fixed_series` encloses the two exact partial sums of a series in integers
at scale 2^(bits+guard); `_settled` takes an endpoint from the enclosure when
both its ends round to one grid point, and a near-tie falls back to the exact
`_alternating` path.  The pi, sin and cos enclosures must therefore be the
ones the exact path gives, at the default guard and at guards so narrow that
the fallback decides.
"""
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from polycert import rounding
from polycert.rounding import (_atan_step, _cos_step, _fixed_series, _series,
                               _sin_step, cot_pi_frac, sin_pi_frac, tan_pi_frac)

BUILDERS = (rounding._pi_bits, rounding._sin_pi_frac_bits, rounding._cos_pi_frac_bits)
MEMOS = (rounding._sin_pi_frac, rounding._tan_pi_frac, rounding._cot_pi_frac)


def clear_caches():
    for cached in BUILDERS + MEMOS:
        cached.cache_clear()


def build(c, bits):
    """pi, sin(pi*c) and cos(pi*c) on the 2^-bits grid, from cold caches."""
    clear_caches()
    try:
        return (rounding._pi_bits(bits),
                rounding._sin_pi_frac_bits(c.numerator, c.denominator, bits),
                rounding._cos_pi_frac_bits(c.numerator, c.denominator, bits))
    finally:
        clear_caches()


def build_exact(c, bits):
    """The same enclosures with every endpoint decided by the exact path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rounding, "_fixed_series", lambda *args: None)
        return build(c, bits)


def build_counting_fallbacks(c, bits, guard):
    """build(c, bits) at the given guard, and how often the exact path ran."""
    calls = []
    exact = rounding._alternating

    def counted(*args):
        calls.append(args)
        return exact(*args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rounding, "_GUARD", guard)
        mp.setattr(rounding, "_alternating", counted)
        return build(c, bits), len(calls)


FRACTIONS = st.fractions(0, Fraction(1, 2), max_denominator=400).filter(lambda c: c > 0)


@settings(max_examples=25, deadline=None)
@given(FRACTIONS, st.integers(1, 1700))
@example(Fraction(49, 100), 6)  # the sin series overshoots 1: the upper end is clamped
@example(Fraction(1, 2), 1)
@example(Fraction(1, 7), 1700)
def test_the_rounding_test_gives_the_exact_endpoints(c, bits):
    fixed, fallbacks = build_counting_fallbacks(c, bits, rounding._GUARD)
    assert fixed == build_exact(c, bits)
    assert fallbacks == 0


@settings(max_examples=25, deadline=None)
@given(FRACTIONS, st.integers(1, 1700), st.integers(0, 2))
@example(Fraction(49, 100), 6, 0)
@example(Fraction(49, 100), 6, 2)
def test_a_narrow_guard_falls_back_to_the_same_endpoints(c, bits, guard):
    narrow, fallbacks = build_counting_fallbacks(c, bits, guard)
    assert narrow == build_exact(c, bits)
    if guard == 0:
        # the upper track of a positive term never drops below 2^-bits at
        # scale 2^bits, so no stop rule is decided and every endpoint falls back
        assert fallbacks >= 6


@pytest.mark.parametrize("guard", [1, 2])
def test_guards_of_one_and_two_bits_still_fall_back(guard):
    total = 0
    for n in range(2, 12):
        c = Fraction(1, n)
        for bits in (8, 64, 416):
            narrow, fallbacks = build_counting_fallbacks(c, bits, guard)
            assert narrow == build_exact(c, bits)
            total += fallbacks
    assert total > 0


SERIES = [  # t_0 as a function of x, the step, and the largest x tried
    pytest.param(lambda x: x, _sin_step, Fraction(2), id="sin"),
    pytest.param(lambda x: 1, _cos_step, Fraction(8, 5), id="cos"),
    pytest.param(lambda x: x, _atan_step, Fraction(1, 2), id="atan"),
]


def arguments(upper):
    """0, dyadic and non-dyadic rationals in [0, upper]."""
    dyadic = st.integers(0, 900).flatmap(
        lambda e: st.integers(0, int(upper * 2**e)).map(lambda k: Fraction(k, 2**e)))
    return st.one_of(st.just(Fraction(0)), dyadic,
                     st.fractions(0, upper, max_denominator=10**9))


@pytest.mark.parametrize("first, step, upper", SERIES)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), bits=st.integers(1, 700), guard=st.integers(0, 80))
def test_the_fixed_point_sums_enclose_the_exact_partial_sums(
        first, step, upper, data, bits, guard):
    x = data.draw(arguments(upper))
    fixed = _fixed_series(first(x), x, step, bits, guard)
    if fixed is None:  # the stop rule was left undecided
        assert guard < 64
        return
    lo, hi, d = _series(first(x), x, step, bits)
    k = bits + guard
    for (e0, e1), exact in zip(fixed, (lo, hi)):
        assert e0 <= e1
        assert e0 * d <= exact << k <= e1 * d


def test_a_term_of_exactly_two_to_the_minus_bits_is_not_below_it():
    # 1 - 1/2 + 1/4 - ...: t_bits is exactly 2^-bits, which the fixed-point
    # sums carry exactly, so both kernels sum it and stop at t_(bits+1)
    for bits in range(1, 70):
        lo, hi, d = rounding._alternating(Fraction(1), lambda j: (1, 2), bits)
        assert d == 2**(bits + 1)
        k = bits + rounding._GUARD
        assert _fixed_series(1, Fraction(1), lambda j: (1, 2), bits, rounding._GUARD) == \
            (((lo << k) // d,) * 2, ((hi << k) // d,) * 2)


def test_cold_high_precision_trig_is_fast(deadline):
    # n = 3..8 at 400 digits (1616-bit series) take 25-50 ms on a 2 vCPU
    # x86_64 VM, against ~1.8 s with every endpoint on the exact kernel
    clear_caches()
    deadline(0.25)
    for n in range(3, 9):
        sin_pi_frac(Fraction(1, n), 400)
        tan_pi_frac(Fraction(1, 2 * n), 400)
        cot_pi_frac(Fraction(1, 2 * n), 400)


def test_the_inner_trig_caches_are_bounded():
    for cached in BUILDERS:
        assert cached.cache_info().maxsize == rounding.TRIG_MEMO_SIZE
    clear_caches()
    for n in range(2, rounding.TRIG_MEMO_SIZE + 100):
        sin_pi_frac(Fraction(1, n), 12)
    for cached in BUILDERS + MEMOS:
        assert cached.cache_info().currsize <= rounding.TRIG_MEMO_SIZE
    assert rounding._sin_pi_frac_bits.cache_info().currsize == rounding.TRIG_MEMO_SIZE
