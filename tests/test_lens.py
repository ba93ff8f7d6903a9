import cmath
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycert import sectors
from polycert.certify import Certifier
from polycert.lens import (DegenerateLensError, Lens, _check_narrow_vertex, _narrow_bound,
                           interval_cot, interval_disk_in_lens, lens_of)
from polycert.poly import Polynomial, parse_polynomial
from polycert.rounding import (BoundedReal, cot_pi_frac, nth_root_bounds,
                               sin_pi_frac, tan_pi_frac)
from polycert.sectors import best_sector

from sector_reference import best_of, reference_candidates

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


def test_lens_of_is_the_lens_of_the_best_reference_sector(fuzz_corpus):
    for f in fuzz_corpus:
        if f.degree() < 3 or f.coefficient(0) == 0:
            continue
        g = f.reciprocal()
        want = best_of(reference_candidates(g if g.leading_coefficient() > 0 else -g))
        if want.vertex.upper == 0:
            with pytest.raises(DegenerateLensError):
                lens_of(f)
            continue
        lens = lens_of(f)
        assert (lens.v_tilde.lower, lens.v_tilde.upper, lens.n, lens.method) == \
            (want.vertex.lower, want.vertex.upper, f.degree(), want.method)


def test_disk_interval_flagship():
    lens = lens_of(FLAGSHIP)
    disk = interval_disk_in_lens(lens)
    vt_oracle = mpmath.cbrt(mpmath.mpf(10) / 2162)
    lo_oracle, hi_oracle = mp_disk_interval(vt_oracle, 4)
    assert disk.contains_int(3)
    # inward rounding: reported interval sits inside the oracle interval
    assert lo_oracle <= float(disk.lo) <= lo_oracle + 1e-6
    assert hi_oracle - 1e-6 <= float(disk.hi) <= hi_oracle
    assert abs(float(disk.lo) - 1.769) < 1e-2
    assert abs(float(disk.hi) - 4.233) < 1e-2


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
                assert prev.lo <= disk.lo + Fraction(1, 10**9)
                assert disk.hi <= prev.hi + Fraction(1, 10**9)
            prev = disk


def test_cot_interval_flagship():
    lens = lens_of(FLAGSHIP)
    cot = interval_cot(lens)
    assert cot.contains_int(3)
    assert abs(float(cot.lo) - 2.414) < 1e-2
    assert abs(float(cot.hi) - 3.588) < 1e-2


def test_cot_interval_cubic_oracle():
    lens = Lens(BoundedReal.exact(Fraction(1, 10)), 3)
    cot = interval_cot(lens)
    oracle_lo = mp_frac(1 / mpmath.tan(mpmath.pi / 6))  # sqrt(3)
    assert oracle_lo - SLACK <= cot.lo <= oracle_lo + Fraction(1, 10**9)
    assert abs(cot.hi - (10 - oracle_lo)) < Fraction(1, 10**9)


def test_quartic_family_vertex_condition():
    # b > 216a puts the reciprocal vertex strictly below 1/6 < tan(pi/8)/2
    a, b = 10, 2162
    lens = lens_of(parse_polynomial(f"X^4-{a}*X^3+{b}"))
    assert lens.v_tilde.upper < Fraction(1, 6)
    interval_cot(lens)  # precondition holds


def test_interval_inclusions_on_grid():
    for n in range(3, 13):
        bound = Fraction(math.pi) / (4 * n)
        for step in range(6):
            vt = bound * Fraction(1, 2) * Fraction(1, 4) ** step
            lens = Lens(BoundedReal.exact(vt), n)
            disk = interval_disk_in_lens(lens)
            cot = interval_cot(lens)
            assert disk.lo <= cot.lo < cot.hi <= disk.hi
            assert all(type(end) is Fraction for end in (disk.lo, disk.hi, cot.lo, cot.hi))


def test_inversion_geometry_sample():
    vt, n = 0.15, 4
    lens = Lens(BoundedReal.exact(Fraction(3, 20)), n)
    r, cx, cy = (float((lo + hi) / 2) for lo, hi in _lens_disks(lens))
    for sign in (1, -1):
        for t in [0.08 * 1.45**k for k in range(12)]:
            z = vt + t * cmath.exp(sign * 1j * math.pi / n)
            w = 1 / z
            d_plus = abs(w - complex(cx, cy))
            d_minus = abs(w - complex(cx, -cy))
            assert min(abs(d_plus - r), abs(d_minus - r)) < 1e-9


# -- the inward ends against the interval-arithmetic formula --------------------
# Enclosures as (lo, hi) pairs, each operation rounded outward by monotonicity.


def _ends(b):
    return b.lower, b.upper


def _add(a, b):
    return a[0] + b[0], a[1] + b[1]


def _sub(a, b):
    return a[0] - b[1], a[1] - b[0]


def _mul(a, b):
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(products), max(products)


def _inv(a):
    if a[0] <= 0 <= a[1]:
        raise ZeroDivisionError("enclosure straddles zero")
    return 1 / a[1], 1 / a[0]


def _lens_disks(lens, digits=12):
    """The radius 1/(2vt sin(pi/n)) of the lens's two disks and the x and |y|
    of their centres, 1/(2vt) and cot(pi/n)/(2vt)."""
    two_vt = _mul((2, 2), _ends(lens.v_tilde))
    s = _ends(sin_pi_frac(Fraction(1, lens.n), digits))
    cot = _ends(cot_pi_frac(Fraction(1, lens.n), digits))
    return _inv(_mul(two_vt, s)), _inv(two_vt), _mul(cot, _inv(two_vt))


def _reference_disk(lens, digits):
    """interval_disk_in_lens in interval arithmetic, both ends of the
    radicand and of its root, the form the inward ends replaced."""
    _check_narrow_vertex(lens, digits)
    vt = _ends(lens.v_tilde)
    s = _ends(sin_pi_frac(Fraction(1, lens.n), digits))
    half = _inv(_mul((2, 2), vt))
    radicand = _sub(_add((1, 1), _mul(half, half)), _inv(_mul(vt, s)))
    if radicand[1] < 0:
        raise ValueError("root of a negative enclosure")
    delta = (nth_root_bounds(max(Fraction(0), radicand[0]), 2, digits).lower,
             nth_root_bounds(radicand[1], 2, digits).upper)
    return _sub(half, delta), _add(half, delta)


def _reference_cot(lens, digits):
    _check_narrow_vertex(lens, digits)
    cot = _ends(cot_pi_frac(Fraction(1, 2 * lens.n), digits))
    return cot, _sub(_inv(_ends(lens.v_tilde)), cot)


def _outcome(fn, lens, digits):
    """fn's inward ends (the reference's lo[1] and hi[0]), or its error."""
    try:
        lo, hi = fn(lens, digits)[:2]
    except ValueError as exc:
        return type(exc), str(exc)
    return (lo[1] if type(lo) is tuple else lo), (hi[0] if type(hi) is tuple else hi)


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


def test_disk_in_lens_takes_one_square_root(monkeypatch):
    import polycert.lens
    import polycert.rounding
    lens = lens_of(FLAGSHIP)
    roots = []
    original = polycert.rounding.nth_root_bounds

    def counted(*args):
        roots.append(args)
        return original(*args)
    monkeypatch.setattr(polycert.rounding, "nth_root_bounds", counted)
    monkeypatch.setattr(polycert.lens, "nth_root_bounds", counted)
    interval_disk_in_lens(lens, 12)
    assert len(roots) == 1


def test_combined_region_ends_are_the_inward_ends():
    # The combined criterion's lens branch compares m with the inward ends of
    # the disk-in-lens interval; its ray branch with the upper end of
    # vertex + 1/sin(pi/n) under q = 1.  Each end is an exact Fraction.
    from polycert.certify import Certifier, certify_combined_report
    ctx = Certifier(FLAGSHIP)
    lens_cert = certify_combined_report(ctx, 3)[0]
    assert lens_cert.region["branch"] == "lens"
    disk = interval_disk_in_lens(lens_of(FLAGSHIP, digits=ctx.digits), ctx.digits)
    lo, hi = lens_cert.checks[1].left, lens_cert.checks[2].right
    assert type(lo) is Fraction and type(hi) is Fraction
    assert (lo, hi) == (disk.lo, disk.hi)
    ray_cert = certify_combined_report(ctx, 13)[0]
    assert ray_cert.region["branch"] == "ray" and ray_cert.witness.q == 1
    sector = best_sector(FLAGSHIP)
    s = sin_pi_frac(Fraction(1, 4), ctx.digits)
    ray_lo = ray_cert.checks[0].left
    assert type(ray_lo) is Fraction
    assert ray_lo == _add(_ends(sector.vertex), _inv(_ends(s)))[1]


def test_the_lens_gate_fires_only_where_the_margin_argument_holds(monkeypatch):
    # the reciprocal's estimate refuses this lens with no lens built ...
    f = parse_polynomial("(X-3)*(X^2+X+7)")
    ctx = Certifier(f, q_max=3)
    assert ctx.lens_intervals == (None, "vertex-too-large")
    assert "lens_status" not in ctx.__dict__
    # ... but not once its ints may be past the bits the margin argument
    # allows: the exact path then gives the same reason
    monkeypatch.setattr(sectors, "_MAX_BITS", 4)
    ctx = Certifier(f, q_max=3)
    plan = ctx.lens_plan[0]
    assert not plan.bounded and not plan.exceeds(_narrow_bound(plan.n, ctx.digits))
    assert ctx.lens_intervals == (None, "vertex-too-large")
    # lens_intervals built the lens: the estimate did not decide
    assert "lens_status" in ctx.__dict__
    assert ctx.lens_status[0] is not None
    assert ctx.certify(1)[1][0] == "vertex-too-large"


@pytest.mark.parametrize("digits", [1, 12, 100])
def test_the_lens_gate_does_not_fire_near_the_bound(digits):
    # X^4 - L*X + 2^30 has the reciprocal vertex L/2^30, exact, within 2^-22
    # of tan(pi/8)/2 in log2 on both sides of it: the estimate decides
    # neither, and the exact vertex decides both
    bound = tan_pi_frac(Fraction(1, 8), digits).lower / 2
    below = math.floor(bound * 2**30)
    for lo, refused in ((below, False), (below + 1, True)):
        assert abs(math.log2(lo) - 30 - math.log2(bound)) < 2**-22
        ctx = Certifier(Polynomial([2**30, -lo, 0, 0, 1]), digits=digits)
        intervals, reason = ctx.lens_intervals
        # lens_intervals went on to build the lens
        assert "lens_status" in ctx.__dict__
        assert ctx.lens_status[0].v_tilde == BoundedReal.exact(Fraction(lo, 2**30))
        assert (intervals is None) == refused
        assert reason == ("vertex-too-large" if refused else "ok")
        assert (ctx.certify(1, ("lens",))[1] == ["vertex-too-large"]) == refused
