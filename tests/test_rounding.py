import math
import re
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from polycert import rounding
from polycert.poly import Polynomial
from polycert.rounding import (BoundedReal, cot_pi_frac, format_decimal,
                               iroot, nth_root_bounds, sin_pi_frac,
                               tan_pi_frac)
from polycert.sectors import sector_candidates
from sector_reference import _scaled_root, nth_root_bounds as reference_nth_root_bounds

mpmath.mp.dps = 50


def bisect_root(target: Fraction, k: int, iters: int = 80) -> Fraction:
    """Independent oracle: bisection solve of y^k = target."""
    lo, hi = Fraction(0), max(Fraction(1), target)
    for _ in range(iters):
        mid = (lo + hi) / 2
        if mid**k <= target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def in_mp_bounds(b: BoundedReal, expr) -> bool:
    val = mpmath.mpf(expr) if not isinstance(expr, mpmath.mpf) else expr
    return mpmath.mpf(b.lower.numerator) / b.lower.denominator <= val \
        and val <= mpmath.mpf(b.upper.numerator) / b.upper.denominator


def test_iroot_exact():
    assert iroot(8, 3) == 2
    assert iroot(7, 3) == 1
    assert iroot(10**30, 2) == 10**15
    assert iroot(2**100 - 1, 10) == 1023


near_powers = st.builds(lambda r, k, d: r**k + d, st.integers(1, 2**200),
                        st.integers(1, 60), st.integers(0, 2))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(0, 2**3000), near_powers), st.integers(1, 1200))
def test_iroot_is_the_floor_of_the_root(n, k):
    r = iroot(n, k)
    assert r**k <= n < (r + 1)**k


def test_iroot_of_a_large_power_is_fast(deadline):
    deadline(1)
    c = 1009**1009
    assert iroot(c, 1009) == 1009
    for e in range(3, 1200, 2):
        assert iroot(c + 1, e)**e <= c + 1


def test_nth_root_perfect_cube():
    b = nth_root_bounds(8, 3)
    assert b.lower == b.upper == 2


def test_nth_root_zero():
    assert nth_root_bounds(0, 5).upper == 0


def test_nth_root_rational_exact():
    b = nth_root_bounds(Fraction(27, 64), 3)
    assert b.lower == b.upper == Fraction(3, 4)


def test_nth_root_flagship_radicand():
    x = Fraction(10, 2162)
    b = nth_root_bounds(x, 3)
    oracle = bisect_root(x, 3)
    assert b.lower <= oracle <= b.upper
    assert b.lower**3 <= x <= b.upper**3
    assert b.upper - b.lower <= Fraction(1, 10**12)
    assert abs(float(b.lower) - 0.16661) < 1e-4


def test_nth_root_width_discipline():
    for x in (Fraction(2), Fraction(1, 3), Fraction(999, 7), Fraction(10**12)):
        for k in (2, 3, 5, 9):
            b = nth_root_bounds(x, k)
            assert b.lower**k <= x <= b.upper**k
            assert b.meets_target(12)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.fractions(min_value=0, max_denominator=10**15),
                 st.builds(lambda u, v, k: Fraction(u, v)**k, st.integers(0, 10**6),
                           st.integers(1, 10**6), st.integers(1, 9)),
                 st.builds(lambda u, e: Fraction(u, 2**e), st.integers(1, 10**9),
                           st.integers(0, 900))),
       st.integers(1, 9), st.sampled_from([1, 4, 12, 24, 100, 200]))
@example(Fraction(2, 10**200), 2, 12)  # below 2^-48: refined three times
@example(Fraction(27, 64 * 2**96), 3, 1)  # 3/2^34: exact, off the first grid
def test_nth_root_bounds_matches_the_two_root_build(x, k, digits):
    assert nth_root_bounds(x, k, digits) == reference_nth_root_bounds(x, k, digits)


# s = max(16, 4*digits) for each s drawn below
DIGITS_OF = {16: 4, 48: 12, 400: 100}


def coprime(num: int, den: int) -> tuple[int, int]:
    g = math.gcd(num, den)
    return num // g, den // g


@st.composite
def radicands(draw, e: int, s: int) -> tuple[int, int]:
    """Coprime num >= 0 and den >= 1: any, perfect e-th powers, den a power
    of two, or a root below 2^-s."""
    kind = draw(st.sampled_from(["any", "power", "two", "tiny"]))
    if kind == "any":
        num, den = draw(st.integers(0, 10**30)), draw(st.integers(1, 10**30))
    elif kind == "power":
        num, den = draw(st.integers(0, 10**6)) ** e, draw(st.integers(1, 10**6)) ** e
    elif kind == "two":
        num, den = draw(st.integers(0, 10**30)), 2 ** draw(st.integers(0, e * s + 64))
    else:  # num/den < 2^(-e*s)
        num = draw(st.integers(1, 10**6))
        den = (num << (e * s)) + draw(st.integers(1, 10**40))
        den <<= draw(st.integers(0, 3 * e * s))
    return coprime(num, den)


@settings(max_examples=400, deadline=None)
@given(st.data(), st.integers(1, 12), st.sampled_from(sorted(DIGITS_OF)))
def test_the_root_kernel_is_the_scaled_root(data, e, s):
    num, den = data.draw(radicands(e, s))
    assert rounding._root_ends(num, den, e, s) == _scaled_root(num, den, e, s, DIGITS_OF[s])


@pytest.mark.parametrize("num, den, e, s", [
    (2, 10**200, 2, 48), (27, 64 * 2**96, 3, 16), (1, 2**100, 5, 16), (0, 1, 3, 400),
    (7, 1, 1, 16), (7, 3, 1, 48), (2, 1, 12, 400), (10, 2162, 3, 48), (1, 3**120, 3, 48)])
def test_the_root_kernel_is_the_scaled_root_at_the_edges(num, den, e, s):
    assert rounding._root_ends(num, den, e, s) == _scaled_root(num, den, e, s, DIGITS_OF[s])


@pytest.mark.parametrize("root", [
    pytest.param(lambda x: nth_root_bounds(x, 2), id="nth_root_bounds"),
    pytest.param(lambda x: {s.method: s.vertex for s in sector_candidates(
        Polynomial([-x.numerator, 0, x.denominator]))}["neg-sum"], id="sector_neg_sum")])
def test_refine_doubles_until_the_lower_end_is_positive(root, monkeypatch):
    # sqrt(2 * 10^-200) ~ 2^-332: the builds at 48, 96 and 192 bits meet the
    # width target with a lower end of 0, and the one at 384 bits settles it
    builds = []
    refine = rounding._refine

    def counted(build, start, digits, positive=False):
        return refine(lambda p: builds.append(p) or build(p), start, digits, positive)
    monkeypatch.setattr(rounding, "_refine", counted)
    x = Fraction(2, 10**200)
    b = root(x)
    assert builds == [48, 96, 192, 384]
    assert 0 < b.lower and b.lower**2 <= x <= b.upper**2
    assert b.meets_target(12)


def test_pi_bounds():
    b = rounding._pi_bits(4 * 12 + 16)
    assert in_mp_bounds(b, mpmath.pi)
    assert b.upper - b.lower <= Fraction(1, 10**12) * 4


def test_sin_exact_half():
    b = sin_pi_frac(Fraction(1, 2))
    assert b.lower == b.upper == 1


def test_sin_pi_quarter():
    b = sin_pi_frac(Fraction(1, 4))
    assert in_mp_bounds(b, mpmath.sin(mpmath.pi / 4))
    assert b.upper - b.lower <= Fraction(1, 10**12)
    assert abs(float(b.lower) - 0.70710678) < 1e-8


def test_sin_pi_sixth_exact():
    b = sin_pi_frac(Fraction(1, 6))
    assert b.lower == b.upper == Fraction(1, 2)


def test_cot_pi_eighth_silver_ratio():
    # cot(pi/8) = 1 + sqrt(2)
    b = cot_pi_frac(Fraction(1, 8))
    silver = 1 + nth_root_bounds(2, 2, 20).lower
    assert b.lower <= silver <= b.upper or abs(float(b.lower) - float(silver)) < 1e-12
    assert in_mp_bounds(b, 1 + mpmath.sqrt(2))
    assert abs(float(b.lower) - 2.41421356) < 1e-8


def test_trig_monotone_in_precision():
    coarse = sin_pi_frac(Fraction(1, 7), digits=6)
    fine = sin_pi_frac(Fraction(1, 7), digits=20)
    assert coarse.lower <= fine.lower <= fine.upper <= coarse.upper


@pytest.mark.parametrize("n", range(2, 13))
def test_trig_against_mpmath(n):
    assert in_mp_bounds(sin_pi_frac(Fraction(1, n)), mpmath.sin(mpmath.pi / n))
    assert in_mp_bounds(tan_pi_frac(Fraction(1, 2 * n)), mpmath.tan(mpmath.pi / (2 * n)))
    assert in_mp_bounds(cot_pi_frac(Fraction(1, 2 * n)), 1 / mpmath.tan(mpmath.pi / (2 * n)))


def test_trig_at_a_tiny_argument_has_a_positive_lower_end():
    # at one digit the sine's lower end was 0, and cot divided by it
    c, x = Fraction(1, 10**10), mpmath.pi / 10**10
    for fn, value in ((sin_pi_frac, mpmath.sin(x)), (tan_pi_frac, mpmath.tan(x)),
                      (cot_pi_frac, mpmath.cot(x))):
        b = fn(c, 1)
        assert b.lower > 0 and in_mp_bounds(b, value)


def test_cot_pi_half_is_zero():
    b = cot_pi_frac(Fraction(1, 2))
    assert b.lower == b.upper == 0


def test_tan_needs_n_at_least_two():
    with pytest.raises(ValueError):
        tan_pi_frac(Fraction(1, 2))


def test_bounds_must_be_ordered():
    with pytest.raises(ValueError):
        BoundedReal(Fraction(1), Fraction(0))


def test_format_decimal_directed():
    x = Fraction(1, 3)
    assert format_decimal(x, 6, "floor") == "0.333333"
    assert format_decimal(x, 6, "ceil") == "0.333334"
    assert format_decimal(-x, 6, "floor") == "-0.333334"
    assert format_decimal(Fraction(5), 3, "floor") == "5.000"


def test_repr_prints_the_endpoints_exactly():
    assert repr(BoundedReal(Fraction(1, 3), Fraction(2))) == "BoundedReal(1/3, 2)"
    assert repr(BoundedReal.exact(10**400)) == f"BoundedReal({10**400}, {10**400})"


def test_repr_past_the_int_to_text_limit_prints_a_power_of_two():
    # Python converts no int of more than 4300 digits to text by default
    assert repr(BoundedReal.exact(10**5000)) == "BoundedReal(~2^16609, ~2^16609)"
    assert repr(BoundedReal(Fraction(-10**5000), Fraction(1, 3**10000))) == \
        "BoundedReal(-~2^16609, ~2^-15849)"
    assert repr(BoundedReal(Fraction(1, 3), Fraction(10**4299))) == f"BoundedReal(1/3, {10**4299})"


# -- the trig memo and the integer forms of the hot helpers -------------------

MEMOISED = [(sin_pi_frac, "sin", Fraction(1, 2)),
            (tan_pi_frac, "tan", Fraction(1, 4)),
            (cot_pi_frac, "cot", Fraction(1, 2))]
# the ids name the per-function memos that _pi_frac replaced, so they stay
# the ids these tests have always had
MEMO_IDS = ["sin_pi_frac-_sin_pi_frac-c_max0", "tan_pi_frac-_tan_pi_frac-c_max1",
            "cot_pi_frac-_cot_pi_frac-c_max2"]


@pytest.mark.parametrize("public, fn, c_max", MEMOISED, ids=MEMO_IDS)
@pytest.mark.parametrize("digits", [1, 12, 100, 200])
def test_a_memoised_enclosure_equals_a_cold_computation(public, fn, c_max, digits):
    for n in range(2, 17):
        for c in (Fraction(1, n), Fraction(1, 2 * n)):
            if c > c_max:
                continue
            rounding._pi_frac.cache_clear()
            memoised = public(c, digits)
            assert public(c, digits=digits) is memoised  # a keyword call hits
            rounding._pi_frac.cache_clear()
            assert memoised == rounding._pi_frac.__wrapped__(
                fn, c.numerator, c.denominator, digits)


@pytest.mark.parametrize("public, fn, c_max", MEMOISED, ids=MEMO_IDS)
def test_the_trig_memo_is_bounded(public, fn, c_max):
    assert rounding.TRIG_MEMO_SIZE == 256
    assert rounding._pi_frac.cache_info().maxsize == rounding.TRIG_MEMO_SIZE
    rounding._pi_frac.cache_clear()
    memoised = public(c_max, 12)
    # the one memo holds it, keyed on the numerator and denominator
    assert rounding._pi_frac(fn, c_max.numerator, c_max.denominator, 12) is memoised


def test_tan_and_cot_share_the_sin_and_cos_memo():
    rounding._pi_frac.cache_clear()
    tan_pi_frac(Fraction(1, 8), 12)  # misses tan, then sin and cos at 14 digits
    cot_pi_frac(Fraction(1, 8), 12)  # misses cot, then hits cos and sin
    info = rounding._pi_frac.cache_info()
    assert (info.misses, info.hits) == (4, 2)


def test_the_memo_keeps_the_argument_checks():
    # the checks compare numerator and denominator; these are the arguments
    # the Fraction comparisons accepted and refused, with the same messages
    messages = {"sin": "sin_pi_frac expects c in (0, 1/2]",
                "tan": "tan_pi_frac expects c in (0, 1/4]",
                "cot": "cot_pi_frac expects c in (0, 1/2]"}
    for public, fn, c_max in MEMOISED:
        for c in (-1, 0, 1, Fraction(-1, 4), Fraction(1, 5), c_max, Fraction(0),
                  c_max + Fraction(1, 100), c_max - Fraction(1, 10**30),
                  c_max + Fraction(1, 10**30), 0.25, 0.5, "1/4", "3/8", -0.0):
            if 0 < Fraction(c) <= c_max:
                assert public(c, 12) == public(Fraction(c), 12)
            else:
                with pytest.raises(ValueError, match=re.escape(messages[fn])):
                    public(c, 12)
        with pytest.raises(TypeError):
            public(None, 12)


def test_the_trig_memo_keys_hold_ints():
    rounding._pi_frac.cache_clear()
    first = sin_pi_frac(0.25, 12)
    assert sin_pi_frac(Fraction(2, 8), 12) is first  # the same key, a hit
    assert rounding._pi_frac.cache_info().hits == 1
    assert first is rounding._pi_frac("sin", 1, 4, 12)


def reference_format_decimal(x, places=18, direction="floor"):
    """format_decimal through Fraction temporaries."""
    x = Fraction(x)
    scaled = x * 10**places
    if direction == "floor":
        units = scaled.numerator // scaled.denominator
    elif direction == "ceil":
        units = -((-scaled.numerator) // scaled.denominator)
    else:
        raise ValueError(f"unknown rounding direction {direction!r}")
    sign = "-" if units < 0 else ""
    units = abs(units)
    whole, frac = divmod(units, 10**places)
    return f"{sign}{whole}.{frac:0{places}d}"


def reference_meets_target(b, digits):
    """meets_target through Fraction temporaries."""
    scale = max(Fraction(1), abs(b.upper))
    return (b.upper - b.lower) * 10**digits <= scale


rationals = st.one_of(
    st.integers(-10**60, 10**60),
    st.builds(Fraction, st.integers(-10**400, 10**400), st.integers(1, 10**40)),
    st.fractions(-10, 10))


@given(rationals, st.integers(0, 40), st.sampled_from(["floor", "ceil"]))
@example(-Fraction(1, 3), 6, "floor")
@example(-Fraction(1, 3), 6, "ceil")
@example(Fraction(-10**30, 7), 18, "ceil")
def test_format_decimal_matches_the_fraction_form(x, places, direction):
    assert format_decimal(x, places, direction) == \
        reference_format_decimal(x, places, direction)


@given(rationals, st.integers(0, 10**6), st.integers(1, 10**6), st.integers(0, 40))
@example(Fraction(0), 1, 1, 12)              # width exactly 10^-12: meets
@example(Fraction(5), 5, 1, 12)              # 5*10^-12 below 5.000000000005
@example(Fraction(5), 5000001, 1000000, 12)  # 5.000001*10^-12 above it
@example(Fraction(-7), 1, 1, 0)
def test_meets_target_matches_the_fraction_test(lower, w, s, digits):
    lower = Fraction(lower)
    b = BoundedReal(lower, lower + Fraction(w, s * 10**digits))
    assert b.meets_target(digits) == reference_meets_target(b, digits)
