"""Zero-free lens regions and the admissible integer intervals they admit.

The lens attached to a polynomial is the inversion (z -> 1/z) of a zero-free
sector of its reciprocal: the intersection of two open disks of radius
1/(2*vt*sin(pi/n)) centered at (1/(2*vt), +-cot(pi/n)/(2*vt)), where vt is
the reciprocal's sector vertex.  All admissible intervals are rounded inward
(shrunk) so integer membership implies the underlying strict inequalities.
"""
from __future__ import annotations

import sys
from fractions import Fraction
from typing import NamedTuple, Optional

from .poly import Polynomial
from .rounding import (DEFAULT_DIGITS, BoundedReal, _Frozen, cot_pi_frac,
                       format_decimal, nth_root_bounds, pi_bounds,
                       power_of_two_text, sin_pi_frac, tan_pi_frac)
from .sectors import Sector, best_sector


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


def lens_of(f: Polynomial, digits: int = DEFAULT_DIGITS) -> Lens:
    """Lens built from the best zero-free sector of the reciprocal of f;
    ValueError when f has none, DegenerateLensError when it is degenerate."""
    n = f.degree()
    if n < 3:
        raise ValueError("degree below 3; no lens")
    if f.coefficient(0) == 0:
        raise ValueError("zero constant term; no lens")
    g = f.reciprocal()
    if g.leading_coefficient() < 0:
        g = -g  # same roots; sector producers want a positive leading coefficient
    sector = best_sector(g, digits)
    if sector.vertex.upper == 0:
        raise DegenerateLensError(
            "reciprocal sector vertex is 0; the region is the origin wedge "
            "of half-angle pi/n itself, not a bounded lens")
    return Lens(sector.vertex, n, sector.method)


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


def _check_vertex_below(lens: Lens, bound: Fraction, name: str) -> None:
    """ValueError unless the reciprocal vertex is provably below bound; the
    vertex is printed .6g, or as a power of two past the float range."""
    v = lens.v_tilde.upper
    if not v < bound:
        text = f"{float(v):.6g}" if v <= sys.float_info.max else power_of_two_text(v)
        raise ValueError(f"reciprocal vertex {text} is not provably below {name}")


def _check_narrow_vertex(lens: Lens, digits: int) -> None:
    tan = tan_pi_frac(Fraction(1, 2 * lens.n), digits)
    _check_vertex_below(lens, tan.lower / 2, f"tan(pi/(2*{lens.n}))/2")


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


def interval_effective(lens: Lens, digits: int = DEFAULT_DIGITS) -> AdmissibleInterval:
    """The trig-free interval (2n/pi, 1/vt - 2n/pi); needs vt < pi/(4n)."""
    pi = pi_bounds(digits)
    _check_vertex_below(lens, pi.lower / (4 * lens.n), f"pi/(4*{lens.n})")
    bound = 2 * lens.n / pi.lower
    return AdmissibleInterval(bound, 1 / lens.v_tilde.upper - bound, "cor_effective")


class CombinedRegion(NamedTuple):
    """Union of the cot-based lens interval (when available) and the ray to
    the right of vertex + 1/sin(pi/n); ray_lo is at or above that end."""

    interval: Optional[AdmissibleInterval]
    ray_lo: Fraction
    simplification: Optional[str]
    notes: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "intervals": [] if self.interval is None else [self.interval.to_json()],
            "ray_lo": format_decimal(self.ray_lo, direction="ceil"),
            "simplification": self.simplification,
            "notes": list(self.notes),
        }


def combined_region(sector: Sector, lens: Optional[Lens],
                    digits: int = DEFAULT_DIGITS) -> CombinedRegion:
    """Assemble the two-part admissible region, dropping degenerate parts with
    a note and tagging the simplified shapes when the vertex comparisons hold
    with conservative bound directions."""
    n = sector.angle_denominator
    if n < 2:
        raise ValueError("combined region needs degree >= 2")
    inv_sin = 1 / sin_pi_frac(Fraction(1, n), digits).lower
    ray_lo = sector.vertex.upper + inv_sin
    notes: list[str] = []
    interval = None
    if lens is None:
        notes.append("lens degenerate or unavailable; ray part only")
    else:
        try:
            interval = interval_cot(lens, digits)
        except ValueError as exc:
            notes.append(f"lens interval dropped: {exc}")
    simplification = None
    cot_n = cot_pi_frac(Fraction(1, n), digits)
    if sector.vertex.upper <= cot_n.lower:
        simplification = "ray-covers-interval"
    elif interval is not None and not interval.empty:
        threshold = interval.hi - inv_sin
        if cot_n.upper < sector.vertex.lower and sector.vertex.upper < threshold:
            simplification = "connected-above-cot-half"
    return CombinedRegion(interval, ray_lo, simplification, tuple(notes))
