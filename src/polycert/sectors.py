"""Zero-free sector producers.

Each producer returns a Sector whose semantics are: the polynomial has no
root z with Re(z) > vertex and |arg(z - x)| < theta for any real
x >= vertex.upper, where theta is pi/n for a polynomial of degree n.
Vertices are outward-rounded enclosures, so acting on vertex.upper is always
conservative.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .poly import Polynomial, partial_sums, sign_blocks, sign_index_sets
from .rounding import (DEFAULT_DIGITS, BoundedReal, enclose_max, enclose_min,
                       format_decimal, nth_root_bounds)


@dataclass(frozen=True)
class Sector:
    vertex: BoundedReal
    angle_denominator: int
    method: str

    def half_angle_radians(self) -> float:
        return math.pi / self.angle_denominator

    def to_json(self) -> dict:
        return {
            "vertex_lower": format_decimal(self.vertex.lower, direction="floor"),
            "vertex_upper": format_decimal(self.vertex.upper, direction="ceil"),
            "angle": "pi/n",
            "n": self.angle_denominator,
            "method": self.method,
        }


def _require_analyzable(f: Polynomial) -> None:
    if f.degree() < 1:
        raise ValueError("sector producers need degree >= 1")
    if f.leading_coefficient() <= 0:
        raise ValueError("sector producers need a positive leading coefficient")


def sector_nonneg(f: Polynomial) -> Sector:
    """Vertex 0 for polynomials with non-negative coefficients: the imaginary
    part of f is sign-definite off the positive real axis within the sector."""
    _require_analyzable(f)
    if any(c < 0 for c in f.coeffs):
        raise ValueError("sector_nonneg needs all coefficients >= 0")
    return Sector(BoundedReal.exact(0), f.degree(), "nonneg")


def _endpoint_radicals(base: Fraction, exponents: Sequence[int],
                       digits: int) -> BoundedReal:
    """max over the exponent set of base^(1/e).

    base^(1/e) is monotone in e (direction depending on base vs 1), so the
    maximum over a contiguous exponent range is attained at one of the two
    extreme exponents; both are evaluated and the enclosures combined.
    """
    picks = {min(exponents), max(exponents)}
    return enclose_max(*(nth_root_bounds(base, e, digits) for e in picks))


def sector_neg_sum(f: Polynomial, digits: int = DEFAULT_DIGITS) -> Sector:
    """Vertex max_i (L/a_n)^(1/(n-j_i)) where L is the absolute value of the
    sum of the negative coefficients; the max is attained at an endpoint
    index, so only those are evaluated."""
    _require_analyzable(f)
    sets = sign_index_sets(f)
    if not sets.neg_indices:
        return sector_nonneg(f)
    n = f.degree()
    base = Fraction(sets.neg_sum_abs, f.leading_coefficient())
    exps = [n - j for j in (sets.neg_indices[0], sets.neg_indices[-1])]
    return Sector(_endpoint_radicals(base, exps, digits), n, "neg-sum")


def sector_parametrized(f: Polynomial, lambdas: Sequence[Fraction],
                        digits: int = DEFAULT_DIGITS) -> Sector:
    """Vertex max_i (|a_{j_i}| / (lambda_i * a_n))^(1/(n-j_i)) for a chosen
    positive weight vector summing exactly to 1."""
    _require_analyzable(f)
    sets = sign_index_sets(f)
    ell = len(sets.neg_indices)
    if ell == 0:
        raise ValueError("sector_parametrized needs a negative coefficient")
    lams = [Fraction(l) for l in lambdas]
    if len(lams) != ell:
        raise ValueError(f"expected {ell} weights, got {len(lams)}")
    if any(l <= 0 for l in lams):
        raise ValueError("weights must be positive")
    if sum(lams) != 1:
        raise ValueError("weights must sum exactly to 1")
    n = f.degree()
    an = f.leading_coefficient()
    radicals = [
        nth_root_bounds(Fraction(-f.coeffs[j]) / (lam * an), n - j, digits)
        for j, lam in zip(sets.neg_indices, lams)
    ]
    return Sector(enclose_max(*radicals), n, "parametrized")


def sector_min_over_positives(f: Polynomial, digits: int = DEFAULT_DIGITS) -> Sector:
    """Vertex min over the positive indices k above the last negative index of
    max_i (L/a_k)^(1/(k-j_i))."""
    _require_analyzable(f)
    sets = sign_index_sets(f)
    if not sets.neg_indices:
        raise ValueError("sector_min_over_positives needs a negative coefficient")
    candidates = []
    for k in sets.pos_indices_above:
        base = Fraction(sets.neg_sum_abs, f.coeffs[k])
        exps = [k - j for j in (sets.neg_indices[0], sets.neg_indices[-1])]
        candidates.append(_endpoint_radicals(base, exps, digits))
    return Sector(enclose_min(*candidates), f.degree(), "min-over-positives")


def sector_summed_denominator(f: Polynomial, digits: int = DEFAULT_DIGITS) -> Sector:
    """Vertex max{1, max_i (L/d)^(1/(k_1-j_i))} where d sums the positive
    coefficients above the last negative index and k_1 is the lowest of them.

    The clamp at 1 stays even when there is a single such positive index;
    that case is weaker than sector_neg_sum but kept for uniformity.
    """
    _require_analyzable(f)
    sets = sign_index_sets(f)
    if not sets.neg_indices:
        raise ValueError("sector_summed_denominator needs a negative coefficient")
    d = sum(f.coeffs[k] for k in sets.pos_indices_above)
    k1 = sets.pos_indices_above[0]
    base = Fraction(sets.neg_sum_abs, d)
    exps = [k1 - j for j in (sets.neg_indices[0], sets.neg_indices[-1])]
    vertex = enclose_max(BoundedReal.exact(1), _endpoint_radicals(base, exps, digits))
    return Sector(vertex, f.degree(), "summed-denominator")


def sector_sign_blocks(f: Polynomial, digits: int = DEFAULT_DIGITS) -> Sector:
    """Vertex max over sign blocks of max{1, max_i (S-/S+)^(1/(p-i))}, the
    per-block vertices of the run decomposition."""
    _require_analyzable(f)
    partition = sign_blocks(f)
    if partition.sign_changes < 1:
        raise ValueError("sector_sign_blocks needs at least one sign change")
    per_block = []
    for block in partition.blocks:
        if not block.has_negative_part():
            continue
        base = Fraction(block.neg_sum, block.pos_sum)
        exps = [block.pos_lo - i for i in (block.neg_lo, block.neg_hi)]
        per_block.append(enclose_max(BoundedReal.exact(1),
                                     _endpoint_radicals(base, exps, digits)))
    return Sector(enclose_max(*per_block), f.degree(), "sign-blocks")


def sector_shifted(f: Polynomial, alpha) -> Optional[Sector]:
    """Vertex alpha whenever every partial sum at alpha is non-negative
    (exact check); None otherwise."""
    _require_analyzable(f)
    alpha = Fraction(alpha)
    ps = partial_sums(f, alpha)
    if not ps.all_nonneg:
        return None
    return Sector(BoundedReal.exact(alpha), f.degree(), f"shifted:{alpha}")


def sector_candidates(f: Polynomial, digits: int = DEFAULT_DIGITS) -> list[Sector]:
    """Every applicable producer's sector, in the fixed preference order used
    for tie-breaking.  The shifted sectors use alpha in {0, 1}."""
    _require_analyzable(f)
    sets = sign_index_sets(f)
    ell = len(sets.neg_indices)
    out: list[Sector] = []
    if ell == 0:
        out.append(sector_nonneg(f))  # neg-sum would fall back to the same
    else:
        out.append(sector_neg_sum(f, digits))
        out.append(sector_min_over_positives(f, digits))
        out.append(sector_summed_denominator(f, digits))
        # the leading coefficient is positive, so a negative one is a sign change
        out.append(sector_sign_blocks(f, digits))
    for alpha in (0, 1):
        s = sector_shifted(f, alpha)
        if s is not None:
            out.append(s)
    if ell >= 1:
        uniform = [Fraction(1, ell)] * ell
        out.append(sector_parametrized(f, uniform, digits))
    return out


def best_of(sectors: Sequence[Sector]) -> Sector:
    """The sector with the smallest conservative vertex; ties go to the one
    listed earliest."""
    return min(sectors, key=lambda s: s.vertex.upper)


def best_sector(f: Polynomial, digits: int = DEFAULT_DIGITS) -> Sector:
    """The best of sector_candidates."""
    return best_of(sector_candidates(f, digits))
