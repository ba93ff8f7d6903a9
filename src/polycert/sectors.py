"""Zero-free sector producers.

Each producer returns a Sector whose semantics are: the polynomial has no
root z with Re(z) > vertex and |arg(z - x)| < theta for any real
x >= vertex.upper, where theta is pi/n for a polynomial of degree n.
Vertices are outward-rounded enclosures, so acting on vertex.upper is always
conservative.

Every sector is built from _Estimates, the digit-free plan of one
polynomial: its sign data, and the producers run on floats, which give each
vertex as an estimate of its log2.  _Vertices builds exact vertices from a
plan at one precision, with the radical kernel of nth_root_bounds.  The
producers are _Vertices methods, reached only through a plan:
sector_candidates builds every applicable producer's sector, and
best_sector only those that can win: a candidate whose estimate is at least
2^-19 above log2 of the best vertex.upper built so far is left unbuilt.
The best sector is the first candidate with the least vertex.upper.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from operator import methodcaller
from typing import NamedTuple

from .poly import (Polynomial, SignBlockPartition, partial_sums, sign_blocks,
                   sign_index_sets)
from .rounding import DEFAULT_DIGITS, BoundedReal, Rat, _root_ends, format_decimal


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


class _Vertices:
    """The exact sector vertices of a plan's polynomial at one precision,
    built from radicals base^(1/e) that are each computed once, with the
    plan's sign sets and partition.

    A radical or a vertex is carried as the pair of its ends times 2^s,
    s = max(16, 4*digits), as rounding._root_ends gives them: ints for an
    irrational radical, Fractions only for an exact or a very small one.
    max and min of such pairs are taken end by end, and a producer gives
    its vertex as these scaled ends with its method; as_sector divides the
    two ends by 2^s, so the Sector holds the Fractions that enclosing each
    radical with nth_root_bounds and combining the enclosures would give.
    The memo is keyed on the integers of the base and lives as long as the
    object: one planned_sector or candidate list.  Producers share
    radicals: 28-67% of the requests in the benchmark workloads are found
    in it.

    The producers see radicals, constants and shifts only through root,
    zero, one and shifted.  So the same producers run on float logs in
    _Estimates, whose docstring gives the 2^-20 margin argument.
    """

    def __init__(self, plan: "_Estimates", digits: int):
        self.plan, self.f, self.n, self.sets = plan, plan.f, plan.n, plan.sets
        self.s = max(16, 4 * digits)
        self.zero, self.one = (0, 0), (1 << self.s, 1 << self.s)
        self._roots: dict[tuple[int, int, int], tuple[Rat, Rat]] = {}

    @property
    def partition(self) -> SignBlockPartition:
        return self.plan.partition

    def root(self, num: int, den: int, e: int) -> tuple[Rat, Rat]:
        """(num/den)^(1/e), scaled; num/den need not be in lowest terms."""
        g = math.gcd(num, den)
        key = (num // g, den // g, e)
        out = self._roots.get(key)
        if out is None:
            out = self._roots[key] = _root_ends(*key, self.s)
        return out

    def as_sector(self, ends: tuple[Rat, Rat], method: str) -> Sector:
        """The Sector whose vertex has the scaled ends."""
        scale = 1 << self.s
        lower, upper = (Fraction(x, scale) if type(x) is int else x / scale for x in ends)
        return Sector(BoundedReal(lower, upper), self.n, method)

    def endpoint_max(self, num: int, den: int, e1: int, e2: int) -> tuple[Rat, Rat]:
        """max over the exponents e from e1 to e2 of (num/den)^(1/e).

        base^(1/e) is monotone in e (direction depending on base vs 1), so
        the maximum over a contiguous exponent range is attained at one of
        the two extreme exponents; both are evaluated and the enclosures
        combined.
        """
        ends = self.root(num, den, e1)
        return ends if e1 == e2 else _max(ends, self.root(num, den, e2))

    def over_negatives(self, num: int, den: int, top: int) -> tuple[Rat, Rat]:
        """endpoint_max of num/den over the exponents top - j, j a negative
        index."""
        neg = self.sets.neg_indices
        return self.endpoint_max(num, den, top - neg[0], top - neg[-1])

    def shifted(self, alpha: Rat):
        """The vertex alpha >= 0, or None when a partial sum at alpha is
        negative."""
        if not partial_sums(self.f, alpha).all_nonneg:
            return None
        x = alpha * (1 << self.s)
        return (x, x), f"shifted:{alpha}"

    def neg_sum(self):
        """Vertex max_i (L/a_n)^(1/(n-j_i)), L = |sum of the negative a_j|;
        0 (nonneg) when no a_j is negative."""
        if not self.sets.neg_indices:
            return self.zero, "nonneg"
        ends = self.over_negatives(self.sets.neg_sum_abs, self.f.leading_coefficient(), self.n)
        return ends, "neg-sum"

    def parametrized(self):
        """Vertex max_i (l*|a_{j_i}|/a_n)^(1/(n-j_i)): the weights 1/l over
        the l negative indices j_i."""
        an, ell = self.f.leading_coefficient(), len(self.sets.neg_indices)
        radicals = [self.root(-self.f.coeffs[j] * ell, an, self.n - j)
                    for j in self.sets.neg_indices]
        return _max(*radicals), "parametrized"

    def min_over_positives(self):
        """Vertex min over the positive indices k above the last negative
        index of max_i (L/a_k)^(1/(k-j_i))."""
        candidates = [self.over_negatives(self.sets.neg_sum_abs, self.f.coeffs[k], k)
                      for k in self.sets.pos_indices_above]
        return _min(*candidates), "min-over-positives"

    def summed_denominator(self):
        """Vertex max{1, max_i (L/d)^(1/(k_1-j_i))}, d the sum of the positive
        a_k above the last negative index and k_1 the least such k; clamped
        at 1 even for a single such k, where it is weaker than neg-sum."""
        above = self.sets.pos_indices_above
        d = sum(self.f.coeffs[k] for k in above)
        ends = _max(self.one, self.over_negatives(self.sets.neg_sum_abs, d, above[0]))
        return ends, "summed-denominator"

    def sign_blocks(self):
        """Vertex max over the sign blocks of max{1, max_i (S-/S+)^(1/(p-i))}."""
        per_block = [_max(self.one, self.endpoint_max(block.neg_sum, block.pos_sum,
                                                      block.pos_lo - block.neg_lo,
                                                      block.pos_lo - block.neg_hi))
                     for block in self.partition.blocks if block.has_negative_part()]
        return _max(*per_block), "sign-blocks"


def _max(*ends: tuple[Rat, Rat]) -> tuple[Rat, Rat]:
    """The scaled ends of an enclosure of the maximum of the enclosed reals."""
    lower, upper = zip(*ends)
    return max(lower), max(upper)


def _min(*ends: tuple[Rat, Rat]) -> tuple[Rat, Rat]:
    lower, upper = zip(*ends)
    return min(lower), min(upper)


def _log2(num: int, den: int = 1) -> float:
    """log2(num/den) for ints num >= 0 and den >= 1; -inf at 0."""
    return math.log2(num) - math.log2(den) if num else -math.inf


_MARGIN = 2.0 ** -20
_MAX_BITS = 1 << 28


class _Estimates(_Vertices):
    """The digit-free plan of one polynomial, from which _Vertices builds
    its sectors at any digits: its sign sets, its partition (built when
    first read), its producers, their vertices as floats near their log2
    (logs), and the indices in ascending order of estimate, stable (order),
    and the least estimate (least).  The producers run over the plan
    itself, with no iroot, no Fraction and no Sector: a radical
    (num/den)^(1/e) is (log2 num - log2 den)/e, carried as the pair (x, x)
    so that _max and _min apply, 0 and 1 are -inf and 0.0, and the
    estimate is the first end of the vertex a producer gives.
    least is -inf just when the best vertex is exactly 0: with a negative
    coefficient every radical has a positive base, and with none the
    nonneg sector's vertex is the constant 0.

    max and min are exact on floats, so each estimate is off the log2 of
    its exact vertex V by the rounding of one radical's logs: a few ulps of
    the larger of log2 num and log2 den, far below 2^-20 while the ints,
    coefficients and scaled ends alike, have fewer than 2^28 (_MAX_BITS)
    bits.  bounded says so of the bases, each at most n*max|a_i|; a scaled
    end has some 4*digits bits more.  V lies at or below the vertex's upper
    end, so a candidate whose estimate less 2^-20 is at or above
    log2(b) + 2^-20, for the computed log2 of a rational b of few bits, has
    V > b: its upper end exceeds b.  Any choice of sector is sound; the
    margin only keeps best_sector equal to the first candidate with the
    least upper end.
    exceeds, which refuses, checks bounded first: past it no estimate
    refuses, and the exact vertex decides.  The shifted sectors are
    estimated at their vertex alpha whether or not the shift applies; the
    exact build checks it.
    """

    def __init__(self, f: Polynomial):
        _require_analyzable(f)
        self.f, self.n, self.sets = f, f.degree(), sign_index_sets(f)
        self.zero, self.one = (-math.inf, -math.inf), (0.0, 0.0)
        self.producers = _producers(self)
        self.logs = [produce(self)[0][0] for produce in self.producers]
        self.order = sorted(range(len(self.logs)), key=self.logs.__getitem__)
        self.least = self.logs[self.order[0]]
        self.bounded = max(map(abs, f.coeffs)).bit_length() + self.n.bit_length() < _MAX_BITS

    @cached_property
    def partition(self) -> SignBlockPartition:
        return sign_blocks(self.f)

    def root(self, num: int, den: int, e: int) -> tuple[float, float]:
        x = _log2(num, den) / e
        return x, x

    def shifted(self, alpha: Rat) -> tuple[tuple[float, float], str]:
        return self.root(alpha.numerator, alpha.denominator, 1), "shifted"

    def exceeds(self, b: Fraction) -> bool:
        """Whether the estimates prove every candidate's vertex above
        b > 0, so that the best sector's upper end exceeds b; False, not
        decided, where the margin argument does not hold."""
        return self.bounded and (self.least - _MARGIN
                                 >= _log2(b.numerator, b.denominator) + _MARGIN)


def _producers(vertices: _Vertices) -> list:
    """The producers that apply to the polynomial of vertices, each a call
    on a _Vertices, in the fixed preference order used for tie-breaking.
    The shifted sectors use alpha in {0, 1}; a shift by 1 that does not
    apply gives None."""
    if not vertices.sets.neg_indices:
        # a shift by 0 applies just when no coefficient is negative: the
        # partial sums at 0 are the coefficients
        return [methodcaller("neg_sum"), methodcaller("shifted", 0), methodcaller("shifted", 1)]
    # the leading coefficient is positive, so a negative one is a sign change
    return [*map(methodcaller, ("neg_sum", "min_over_positives", "summed_denominator",
                                "sign_blocks")),
            methodcaller("shifted", 1), methodcaller("parametrized")]


def sector_candidates(f: Polynomial, digits: int = DEFAULT_DIGITS) -> list[Sector]:
    """Every applicable producer's sector, in the fixed preference order used
    for tie-breaking: _planned_candidates of f's plan."""
    return _planned_candidates(_Estimates(f), digits)


def _planned_candidates(plan: _Estimates, digits: int) -> list[Sector]:
    """sector_candidates of the plan's polynomial, sharing one radical memo."""
    vertices = _Vertices(plan, digits)
    built = (produce(vertices) for produce in plan.producers)
    return [vertices.as_sector(*b) for b in built if b is not None]


def best_sector(f: Polynomial, digits: int = DEFAULT_DIGITS) -> Sector:
    """The first of sector_candidates(f, digits) with the least vertex.upper,
    building only the candidates that can win: planned_sector of f's plan."""
    return planned_sector(_Estimates(f), digits)


def planned_sector(plan: _Estimates, digits: int) -> Sector:
    """best_sector of the plan's polynomial at digits.

    The candidates are built exactly, as scaled ends, in the plan's
    order, until one's estimate is past the margin above the best upper
    end so far; every later one is too.  The winner is the least upper
    end, the earliest in preference order among equal ones, so an exact
    vertex 0 ends the search and shifted:1 is checked only while the best
    is near or above 1.  Only the winner becomes a Sector.  All built
    candidates share one radical memo.
    """
    vertices = _Vertices(plan, digits)
    producers, logs = plan.producers, plan.logs
    best, rank, bound = None, 0, math.inf
    for i in plan.order:
        if logs[i] - _MARGIN >= bound:
            break
        built = producers[i](vertices)
        if built is not None and (best is None or (built[0][1], i) < (best[0][1], rank)):
            best, rank = built, i
            upper = built[0][1]
            bound = _log2(upper.numerator, upper.denominator) - vertices.s + _MARGIN
    return vertices.as_sector(*best)
