import cmath
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycert.lens import (AdmissibleInterval, DegenerateLensError, Lens,
                           _check_narrow_vertex, combined_region,
                           interval_cot, interval_disk_in_lens,
                           interval_effective, lens_of)
from polycert.poly import parse_polynomial
from polycert.rounding import (BoundedReal, cot_pi_frac, root_of_enclosure,
                               sin_pi_frac)
from polycert.sectors import best_sector

mpmath.mp.dps = 50

FLAGSHIP = parse_polynomial("X^4-10*X^3+2162")


def mp_frac(x) -> Fraction:
    """Exact rational within 1e-30 of an mpmath value."""
    return Fraction(mpmath.nstr(x, 30, strip_zeros=False))


SLACK = Fraction(1, 10**25)


def mp_disk_interval(vt, n):
    """Oracle: the admissible interval endpoints in high precision."""
    vt = mpmath.mpf(vt)
    delta = mpmath.sqrt(1 + 1 / (4 * vt**2) - 1 / (vt * mpmath.sin(mpmath.pi / n)))
    return 1 / (2 * vt) - delta, 1 / (2 * vt) + delta


def test_lens_of_flagship():
    lens = lens_of(FLAGSHIP)
    assert lens.n == 4
    vt_oracle = mpmath.cbrt(mpmath.mpf(10) / 2162)
    assert float(lens.v_tilde.lower) <= vt_oracle <= float(lens.v_tilde.upper) + 1e-15
    assert lens.method == "neg-sum"


def test_lens_of_rejects_nonneg():
    with pytest.raises(DegenerateLensError):
        lens_of(parse_polynomial("X^3+2*X^2+2*X+4"))


def test_lens_of_preconditions():
    with pytest.raises(ValueError):
        lens_of(parse_polynomial("X^2+X+3"))
    with pytest.raises(ValueError):
        lens_of(parse_polynomial("X^4-10*X^3+X"))


def test_lens_of_matches_reciprocal_best_sector():
    f = parse_polynomial("X^4-10*X^3+2162")
    lens = lens_of(f)
    recip_sector = best_sector(f.reciprocal())
    assert lens.v_tilde == recip_sector.vertex


def test_disk_interval_flagship():
    lens = lens_of(FLAGSHIP)
    disk = interval_disk_in_lens(lens)
    vt_oracle = mpmath.cbrt(mpmath.mpf(10) / 2162)
    lo_oracle, hi_oracle = mp_disk_interval(vt_oracle, 4)
    assert disk.contains_int(3)
    # inward rounding: reported interval sits inside the oracle interval
    assert lo_oracle <= float(disk.lo.upper) <= lo_oracle + 1e-6
    assert hi_oracle - 1e-6 <= float(disk.hi.lower) <= hi_oracle
    assert abs(float(disk.lo.upper) - 1.769) < 1e-2
    assert abs(float(disk.hi.lower) - 4.233) < 1e-2


def test_disk_interval_boundary_vertex_rejected():
    # the precondition is an open interval: a vertex at or above half the
    # tangent bound (about 0.2071068 for n = 4) must be rejected
    vt = Fraction(2072, 10**4)
    with pytest.raises(ValueError):
        interval_disk_in_lens(Lens(BoundedReal.exact(vt), 4))


def test_disk_interval_widens_as_vertex_shrinks():
    # grid per degree: ascending vertices must give nested intervals
    for n in range(3, 13):
        bound = Fraction(math.pi) / (4 * n)
        vts = [bound * Fraction(1, 2) * Fraction(4, 5) ** k for k in range(20)]
        prev = None
        for vt in sorted(vts):
            disk = interval_disk_in_lens(Lens(BoundedReal.exact(vt), n))
            if prev is not None:
                assert prev.lo.upper <= disk.lo.upper + Fraction(1, 10**9)
                assert disk.hi.lower <= prev.hi.lower + Fraction(1, 10**9)
            prev = disk


def test_cot_interval_flagship():
    lens = lens_of(FLAGSHIP)
    cot = interval_cot(lens)
    assert cot.contains_int(3)
    assert abs(float(cot.lo.upper) - 2.414) < 1e-2
    assert abs(float(cot.hi.lower) - 3.588) < 1e-2


def test_cot_interval_cubic_oracle():
    lens = Lens(BoundedReal.exact(Fraction(1, 10)), 3)
    cot = interval_cot(lens)
    oracle_lo = mp_frac(1 / mpmath.tan(mpmath.pi / 6))  # sqrt(3)
    assert oracle_lo - SLACK <= cot.lo.upper <= oracle_lo + Fraction(1, 10**9)
    assert abs(cot.hi.lower - (10 - oracle_lo)) < Fraction(1, 10**9)


def test_quartic_family_vertex_condition():
    # b > 216a puts the reciprocal vertex strictly below 1/6 < tan(pi/8)/2
    a, b = 10, 2162
    lens = lens_of(parse_polynomial(f"X^4-{a}*X^3+{b}"))
    assert lens.v_tilde.upper < Fraction(1, 6)
    interval_cot(lens)  # precondition holds


def test_effective_interval():
    lens = Lens(BoundedReal.exact(Fraction(1, 10)), 4)
    eff = interval_effective(lens)
    lo_oracle = mp_frac(8 / mpmath.pi)
    assert lo_oracle - SLACK <= eff.lo.upper <= lo_oracle + Fraction(1, 10**9)
    assert abs(eff.hi.lower - (10 - lo_oracle)) < Fraction(1, 10**9)
    cot = interval_cot(lens)
    assert cot.lo.upper <= eff.lo.upper and eff.hi.lower <= cot.hi.lower


def test_effective_interval_precondition():
    # pi/16 is about 0.19635; anything at or above must be rejected
    vt = Fraction(1964, 10**4)
    with pytest.raises(ValueError):
        interval_effective(Lens(BoundedReal.exact(vt), 4))


def test_interval_inclusions_on_grid():
    for n in range(3, 13):
        bound = Fraction(math.pi) / (4 * n)
        for step in range(6):
            vt = bound * Fraction(1, 2) * Fraction(1, 4) ** step
            lens = Lens(BoundedReal.exact(vt), n)
            disk = interval_disk_in_lens(lens)
            cot = interval_cot(lens)
            eff = interval_effective(lens)
            assert disk.lo.upper <= cot.lo.upper < cot.hi.lower <= disk.hi.lower
            assert cot.lo.upper <= eff.lo.upper and eff.hi.lower <= cot.hi.lower


def test_combined_region_flagship():
    f = FLAGSHIP
    region = combined_region(best_sector(f), lens_of(f))
    assert region.interval is not None
    assert region.admits_int(3)
    assert not region.admits_int(5)
    assert region.admits_int(13)
    assert abs(float(region.ray_lo.upper) - (10 + math.sqrt(2))) < 1e-9


def test_combined_region_simplifications():
    # tiny vertex: the ray alone covers the union
    lens = Lens(BoundedReal.exact(Fraction(1, 100)), 4)
    sector = best_sector(parse_polynomial("X^4+X+1"))
    region = combined_region(sector, lens)
    assert region.simplification == "ray-covers-interval"

    # middle case: vertex between cot(pi/n) and the connected-union threshold
    from polycert.sectors import Sector
    mid = Sector(BoundedReal.exact(3), 4, "neg-sum")
    region2 = combined_region(mid, Lens(BoundedReal.exact(Fraction(1, 100)), 4))
    assert region2.simplification == "connected-above-cot-half"


def test_combined_region_degenerate_lens():
    sector = best_sector(parse_polynomial("X^4+X+1"))
    region = combined_region(sector, None)
    assert region.interval is None and region.notes


def test_inversion_geometry_sample():
    vt, n = 0.15, 4
    lens = Lens(BoundedReal.exact(Fraction(3, 20)), n)
    r = float((lens.radius().lower + lens.radius().upper) / 2)
    cx = float((lens.center_x().lower + lens.center_x().upper) / 2)
    cy = float((lens.center_y_abs().lower + lens.center_y_abs().upper) / 2)
    for sign in (1, -1):
        for t in [0.08 * 1.45**k for k in range(12)]:
            z = vt + t * cmath.exp(sign * 1j * math.pi / n)
            w = 1 / z
            d_plus = abs(w - complex(cx, cy))
            d_minus = abs(w - complex(cx, -cy))
            assert min(abs(d_plus - r), abs(d_minus - r)) < 1e-9


# -- the integer radicand against the interval-arithmetic formula ---------------


def _reference_disk(lens, digits):
    """interval_disk_in_lens as BoundedReal operators, the form the integer
    radicand replaced."""
    _check_narrow_vertex(lens, digits)
    vt = lens.v_tilde
    s = sin_pi_frac(Fraction(1, lens.n), digits)
    half = 1 / (2 * vt)
    radicand = 1 + half * half - 1 / (vt * s)
    delta = root_of_enclosure(radicand, 2, digits)
    return AdmissibleInterval(half - delta, half + delta, "thm_disk_in_lens")


def _reference_cot(lens, digits):
    _check_narrow_vertex(lens, digits)
    cot = cot_pi_frac(Fraction(1, 2 * lens.n), digits)
    return AdmissibleInterval(cot, 1 / lens.v_tilde - cot, "cor_cot")


def _outcome(fn, lens, digits):
    try:
        return fn(lens, digits)
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def _lenses(draw):
    """A positive vertex enclosure, dyadic or not, most of them narrow enough
    for the intervals (below about 0.78/n) and some too wide."""
    n = draw(st.integers(3, 24))
    if draw(st.booleans()):
        s = draw(st.integers(1, 700))
        den, width_den = 1 << s, 1 << (s + draw(st.integers(0, 64)))
    else:
        den, width_den = draw(st.integers(2, 10**40)), draw(st.integers(2, 10**60))
    lower = Fraction(draw(st.integers(1, max(1, den // n))), den)
    width = Fraction(draw(st.integers(0, width_den // n)), width_den)
    return Lens(BoundedReal(lower, lower + width), n)


@settings(max_examples=300, deadline=None)
@given(_lenses(), st.sampled_from([12, 24, 100, 200]))
def test_lens_intervals_match_the_interval_arithmetic_formula(lens, digits):
    for fn, reference in ((interval_disk_in_lens, _reference_disk),
                          (interval_cot, _reference_cot)):
        assert _outcome(fn, lens, digits) == _outcome(reference, lens, digits)
