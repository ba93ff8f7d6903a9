"""Zero-free sector producers.

Each producer returns a Sector whose semantics are: the polynomial has no
root z with Re(z) > vertex and |arg(z - x)| < theta for any real
x >= vertex.upper, where theta is pi/n for a polynomial of degree n.
Vertices are outward-rounded enclosures, so acting on vertex.upper is always
conservative.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .poly import Polynomial, partial_sums, sign_blocks, sign_index_sets
from .rounding import (DEFAULT_DIGITS, BoundedReal, enclose_max, enclose_min,
                       format_decimal, nth_root_bounds)


class Sector(NamedTuple):
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


_ONE = BoundedReal.exact(1)


class _Vertices:
    """The sector vertices of one polynomial at one precision, built from
    radicals base^(1/e) that are each computed once.

    The memo is keyed on ints, not on the Fraction base: hashing a Fraction
    takes a modular inverse of its denominator, which on large coefficients
    costs more than the memo saves.  It lives as long as the object, that is
    one sector_candidates call or one producer call.
    """

    def __init__(self, f: Polynomial, digits: int):
        _require_analyzable(f)
        self.f = f
        self.n = f.degree()
        self.digits = digits
        self.sets = sign_index_sets(f)
        self._roots: dict[tuple[int, int, int], BoundedReal] = {}

    def root(self, base: Fraction, e: int) -> BoundedReal:
        key = (base.numerator, base.denominator, e)
        out = self._roots.get(key)
        if out is None:
            out = self._roots[key] = nth_root_bounds(base, e, self.digits)
        return out

    def endpoint_max(self, base: Fraction, exponents: Sequence[int]) -> BoundedReal:
        """max over the exponent set of base^(1/e).

        base^(1/e) is monotone in e (direction depending on base vs 1), so
        the maximum over a contiguous exponent range is attained at one of
        the two extreme exponents; both are evaluated and the enclosures
        combined.
        """
        return enclose_max(*(self.root(base, e) for e in {min(exponents), max(exponents)}))

    def over_negatives(self, base: Fraction, top: int) -> BoundedReal:
        """endpoint_max of base over the exponents top - j, j a negative index."""
        neg = self.sets.neg_indices
        return self.endpoint_max(base, [top - neg[0], top - neg[-1]])

    def require_negative(self, name: str) -> None:
        if not self.sets.neg_indices:
            raise ValueError(f"{name} needs a negative coefficient")

    def neg_sum(self) -> Sector:
        if not self.sets.neg_indices:
            return sector_nonneg(self.f)
        base = Fraction(self.sets.neg_sum_abs, self.f.leading_coefficient())
        return Sector(self.over_negatives(base, self.n), self.n, "neg-sum")

    def parametrized(self, lambdas: Sequence[Fraction]) -> Sector:
        self.require_negative("sector_parametrized")
        ell = len(self.sets.neg_indices)
        lams = [Fraction(l) for l in lambdas]
        if len(lams) != ell:
            raise ValueError(f"expected {ell} weights, got {len(lams)}")
        if any(l <= 0 for l in lams):
            raise ValueError("weights must be positive")
        if sum(lams) != 1:
            raise ValueError("weights must sum exactly to 1")
        an = self.f.leading_coefficient()
        radicals = [self.root(Fraction(-self.f.coeffs[j]) / (lam * an), self.n - j)
                    for j, lam in zip(self.sets.neg_indices, lams)]
        return Sector(enclose_max(*radicals), self.n, "parametrized")

    def min_over_positives(self) -> Sector:
        self.require_negative("sector_min_over_positives")
        candidates = [self.over_negatives(Fraction(self.sets.neg_sum_abs, self.f.coeffs[k]), k)
                      for k in self.sets.pos_indices_above]
        return Sector(enclose_min(*candidates), self.n, "min-over-positives")

    def summed_denominator(self) -> Sector:
        self.require_negative("sector_summed_denominator")
        above = self.sets.pos_indices_above
        base = Fraction(self.sets.neg_sum_abs, sum(self.f.coeffs[k] for k in above))
        vertex = enclose_max(_ONE, self.over_negatives(base, above[0]))
        return Sector(vertex, self.n, "summed-denominator")

    def sign_blocks(self) -> Sector:
        partition = sign_blocks(self.f)
        if partition.sign_changes < 1:
            raise ValueError("sector_sign_blocks needs at least one sign change")
        per_block = []
        for block in partition.blocks:
            if not block.has_negative_part():
                continue
            base = Fraction(block.neg_sum, block.pos_sum)
            exps = [block.pos_lo - i for i in (block.neg_lo, block.neg_hi)]
            per_block.append(enclose_max(_ONE, self.endpoint_max(base, exps)))
        return Sector(enclose_max(*per_block), self.n, "sign-blocks")


def sector_neg_sum(f: Polynomial, digits: int = DEFAULT_DIGITS) -> Sector:
    """Vertex max_i (L/a_n)^(1/(n-j_i)) where L is the absolute value of the
    sum of the negative coefficients; the max is attained at an endpoint
    index, so only those are evaluated."""
    return _Vertices(f, digits).neg_sum()


def sector_parametrized(f: Polynomial, lambdas: Sequence[Fraction],
                        digits: int = DEFAULT_DIGITS) -> Sector:
    """Vertex max_i (|a_{j_i}| / (lambda_i * a_n))^(1/(n-j_i)) for a chosen
    positive weight vector summing exactly to 1."""
    return _Vertices(f, digits).parametrized(lambdas)


def sector_min_over_positives(f: Polynomial, digits: int = DEFAULT_DIGITS) -> Sector:
    """Vertex min over the positive indices k above the last negative index of
    max_i (L/a_k)^(1/(k-j_i))."""
    return _Vertices(f, digits).min_over_positives()


def sector_summed_denominator(f: Polynomial, digits: int = DEFAULT_DIGITS) -> Sector:
    """Vertex max{1, max_i (L/d)^(1/(k_1-j_i))} where d sums the positive
    coefficients above the last negative index and k_1 is the lowest of them.

    The clamp at 1 stays even when there is a single such positive index;
    that case is weaker than sector_neg_sum but kept for uniformity.
    """
    return _Vertices(f, digits).summed_denominator()


def sector_sign_blocks(f: Polynomial, digits: int = DEFAULT_DIGITS) -> Sector:
    """Vertex max over sign blocks of max{1, max_i (S-/S+)^(1/(p-i))}, the
    per-block vertices of the run decomposition."""
    return _Vertices(f, digits).sign_blocks()


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
    for tie-breaking.  The shifted sectors use alpha in {0, 1}.  The radical
    producers share one _Vertices, so each radical is computed once per call."""
    vertices = _Vertices(f, digits)
    ell = len(vertices.sets.neg_indices)
    out = [vertices.neg_sum()]  # sector_nonneg's when no coefficient is negative
    if ell >= 1:
        out.append(vertices.min_over_positives())
        out.append(vertices.summed_denominator())
        # the leading coefficient is positive, so a negative one is a sign change
        out.append(vertices.sign_blocks())
    for alpha in (0, 1):
        s = sector_shifted(f, alpha)
        if s is not None:
            out.append(s)
    if ell >= 1:
        out.append(vertices.parametrized([Fraction(1, ell)] * ell))
    return out


def best_of(sectors: Sequence[Sector]) -> Sector:
    """The sector with the smallest conservative vertex; ties go to the one
    listed earliest."""
    return min(sectors, key=lambda s: s.vertex.upper)


def best_sector(f: Polynomial, digits: int = DEFAULT_DIGITS) -> Sector:
    """The best of sector_candidates."""
    return best_of(sector_candidates(f, digits))
