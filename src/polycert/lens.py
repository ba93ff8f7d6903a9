"""Zero-free lens regions and the admissible integer intervals they admit.

The lens attached to a polynomial is the inversion (z -> 1/z) of a zero-free
sector of its reciprocal: the intersection of two open disks of radius
1/(2*vt*sin(pi/n)) centered at (1/(2*vt), +-cot(pi/n)/(2*vt)), where vt is
the reciprocal's sector vertex.  All admissible intervals are rounded inward
(shrunk) so integer membership implies the underlying strict inequalities.
"""
from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .poly import Polynomial
from .rounding import (DEFAULT_DIGITS, TRIG_MEMO_SIZE, BoundedReal, _Frozen,
                       cot_pi_frac, format_decimal, nth_root_bounds,
                       power_of_two_text, sin_pi_frac, tan_pi_frac)
from .sectors import _Estimates, planned_sector


class DegenerateLensError(ValueError):
    """The reciprocal's sector vertex is 0, so inversion gives back the same
    wedge at the origin instead of a bounded lens."""


class Lens(_Frozen):
    """The lens of a degree-n polynomial whose reciprocal has the sector
    vertex v_tilde."""

    __slots__ = ("v_tilde", "n", "method")

    def __init__(self, v_tilde: BoundedReal, n: int, method: str = ""):
        if v_tilde.lower <= 0:
            raise ValueError("lens needs a strictly positive reciprocal vertex")
        if n < 3:
            raise ValueError("lens needs degree >= 3")
        object.__setattr__(self, "v_tilde", v_tilde)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "method", method)

    def to_json(self) -> dict:
        return {
            "v_tilde_lower": format_decimal(self.v_tilde.lower, direction="floor"),
            "v_tilde_upper": format_decimal(self.v_tilde.upper, direction="ceil"),
            "n": self.n,
            "method": self.method,
        }


def reciprocal_plan(f: Polynomial) -> _Estimates:
    """The sector plan of f's reciprocal; ValueError when f has no lens."""
    if f.degree() < 3:
        raise ValueError("degree below 3; no lens")
    if f.coefficient(0) == 0:
        raise ValueError("zero constant term; no lens")
    g = f.reciprocal()
    if g.leading_coefficient() < 0:
        g = -g  # same roots; sector producers want a positive leading coefficient
    return _Estimates(g)


def lens_of(f: Polynomial, digits: int = DEFAULT_DIGITS) -> Lens:
    """Lens built from the best zero-free sector of the reciprocal of f;
    ValueError when f has none, DegenerateLensError when it is degenerate."""
    return planned_lens(reciprocal_plan(f), digits)


def planned_lens(plan: _Estimates, digits: int) -> Lens:
    """lens_of from the reciprocal's plan.  The plan's least estimate is
    -inf just when the best vertex is exactly 0; the lens is then
    degenerate, and no sector is built."""
    if plan.least == -math.inf:
        raise DegenerateLensError(
            "reciprocal sector vertex is 0; the region is the origin wedge "
            "of half-angle pi/n itself, not a bounded lens")
    sector = planned_sector(plan, digits)
    return Lens(sector.vertex, plan.n, sector.method)


class AdmissibleInterval(NamedTuple):
    """Open interval of admissible integer arguments, rounded inward: lo is at
    or above the true lower end, hi at or below the true upper end, and a
    point is inside only when lo < m < hi."""

    lo: Fraction
    hi: Fraction
    source: str

    @property
    def empty(self) -> bool:
        return not self.lo < self.hi

    def contains_int(self, m: int) -> bool:
        return self.lo < m < self.hi

    def to_json(self) -> dict:
        return {
            "lo": format_decimal(self.lo, direction="ceil"),
            "hi": format_decimal(self.hi, direction="floor"),
            "source": self.source,
            "empty": self.empty,
        }


@lru_cache(maxsize=TRIG_MEMO_SIZE)
def _narrow_bound(n: int, digits: int) -> Fraction:
    """tan(pi/(2n))/2, rounded down: a lens has admissible intervals just
    when its reciprocal vertex is provably below it.  Memoised beside the
    trig memo, since every Certifier that tries the lens asks for it, of the
    reciprocal's estimates first (Certifier.lens_intervals)."""
    return tan_pi_frac(Fraction(1, 2 * n), digits).lower / 2


def _check_narrow_vertex(lens: Lens, digits: int) -> None:
    """ValueError unless the reciprocal vertex is provably below
    tan(pi/(2n))/2; the vertex is printed .6g, or as a power of two past the
    float range."""
    v = lens.v_tilde.upper
    if not v < _narrow_bound(lens.n, digits):
        text = f"{float(v):.6g}" if v <= sys.float_info.max else power_of_two_text(v)
        raise ValueError(f"reciprocal vertex {text} is not provably below "
                         f"tan(pi/(2*{lens.n}))/2")


def interval_disk_in_lens(lens: Lens, digits: int = DEFAULT_DIGITS) -> AdmissibleInterval:
    """The interval (1/(2vt) - delta, 1/(2vt) + delta) with
    delta = sqrt(1 + 1/(4vt^2) - 1/(vt sin(pi/n))); unit disks centered on
    integer points of this interval fit inside the lens.

    Only the inward ends are built.  vt and s = sin(pi/n) are positive, so
    the radicand's lower end takes vt.upper in the square and vt.lower*s.lower
    in the product; it is one fraction over a common denominator, the same
    canonical Fraction that interval arithmetic gives, and delta is the lower
    end of its one square root."""
    _check_narrow_vertex(lens, digits)
    vt = lens.v_tilde
    (a, b), (c, d) = vt.upper.as_integer_ratio(), vt.lower.as_integer_ratio()
    e, g = sin_pi_frac(Fraction(1, lens.n), digits).lower.as_integer_ratio()
    # 1 + b^2/(4a^2) - (d*g)/(c*e)
    den = 4 * a * a * c * e
    radicand = Fraction(den + b * b * c * e - 4 * a * a * d * g, den)
    delta = nth_root_bounds(max(Fraction(0), radicand), 2, digits).lower
    return AdmissibleInterval(Fraction(d, 2 * c) - delta, Fraction(b, 2 * a) + delta,
                              "thm_disk_in_lens")


def interval_cot(lens: Lens, digits: int = DEFAULT_DIGITS) -> AdmissibleInterval:
    """The interval (cot(pi/(2n)), 1/vt - cot(pi/(2n))), contained in the
    disk-in-lens interval."""
    _check_narrow_vertex(lens, digits)
    cot = cot_pi_frac(Fraction(1, 2 * lens.n), digits).upper
    vt = lens.v_tilde.upper
    return AdmissibleInterval(cot, Fraction(vt.denominator, vt.numerator) - cot, "cor_cot")
