"""The Fraction-based sector vertices that the sector tests check
sectors.py against, kept verbatim from before the vertices were carried
in integers: each radical is an nth_root_bounds enclosure of Fractions,
built by the old two-iroot grid step, and composite vertices combine
them with enclose_max and enclose_min.  _scaled_root is the integer
radical that sectors.py kept beside rounding's nth_root_bounds before the
two became one kernel (rounding._root_ends), kept verbatim; its
nth_root_bounds is the one here.  sector_nonneg, sector_shifted and
best_of are the public producers and rule that sectors.py had before its
plan became the only way to a sector, kept verbatim (sector_shifted from
before the plan), so nothing here imports the code it checks."""
from fractions import Fraction
from typing import Optional, Sequence

from polycert.poly import Polynomial, partial_sums, sign_blocks, sign_index_sets
from polycert.rounding import (DEFAULT_DIGITS, BoundedReal, Rat, _refine,
                               iroot)
from polycert.sectors import Sector


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


def sector_shifted(f: Polynomial, alpha) -> Optional[Sector]:
    """Vertex alpha whenever every partial sum at alpha is non-negative
    (exact check); None otherwise."""
    _require_analyzable(f)
    alpha = Fraction(alpha)
    ps = partial_sums(f, alpha)
    if not ps.all_nonneg:
        return None
    return Sector(BoundedReal.exact(alpha), f.degree(), f"shifted:{alpha}")


def best_of(sectors: Sequence[Sector]) -> Sector:
    """The sector with the smallest conservative vertex; ties go to the one
    listed earliest."""
    return min(sectors, key=lambda s: s.vertex.upper)


def enclose_max(*values: BoundedReal) -> BoundedReal:
    """Enclosure of the maximum of the enclosed reals."""
    if not values:
        raise ValueError("enclose_max of nothing")
    return BoundedReal(max(v.lower for v in values), max(v.upper for v in values))


def enclose_min(*values: BoundedReal) -> BoundedReal:
    if not values:
        raise ValueError("enclose_min of nothing")
    return BoundedReal(min(v.lower for v in values), min(v.upper for v in values))


def _iroot_ceil(n: int, k: int) -> int:
    r = iroot(n, k)
    return r if r**k == n else r + 1


def nth_root_bounds(x: Rat, k: int, digits: int = DEFAULT_DIGITS) -> BoundedReal:
    """Enclosure of x^(1/k) for x >= 0; exact for perfect rational powers."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("nth_root_bounds expects x >= 0")
    if k < 1:
        raise ValueError("root order must be >= 1")
    if x == 0:
        return BoundedReal.exact(0)
    if k == 1:
        return BoundedReal.exact(x)
    num, den = x.numerator, x.denominator
    rn, rd = iroot(num, k), iroot(den, k)
    if rn**k == num and rd**k == den:
        return BoundedReal.exact(Fraction(rn, rd))

    def build(s: int) -> BoundedReal:
        shifted = num << (k * s)
        return BoundedReal(Fraction(iroot(shifted // den, k), 1 << s),
                           Fraction(_iroot_ceil(-(-shifted // den), k), 1 << s))
    return _refine(build, max(16, 4 * digits), digits, positive=True)


def _scaled_root(num: int, den: int, e: int, s: int, digits: int) -> tuple[Rat, Rat]:
    """The ends of nth_root_bounds(num/den, e, digits) times 2^s, for
    coprime num >= 0 and den >= 1 and s = max(16, 4*digits).

    For e = 1 both ends are the base.  Otherwise, off perfect powers, the
    root is irrational, and at or above 2^-s one iroot gives it as the ints
    [lo, lo + 1].  When den divides 2^(e*s) the root is rational exactly
    when lo^e = num * 2^(e*s) / den, and otherwise only if den is a perfect
    e-th power.  Those roots, and roots below 2^-s, are left to
    nth_root_bounds.  An end off the 2^-s grid is a Fraction."""
    a, rem = divmod(num << (e * s), den)
    if e == 1:
        x = a if rem == 0 else Fraction(num << s, den)
        return x, x
    lo = iroot(a, e)
    if lo and (lo**e != a if rem == 0 else iroot(den, e)**e != den):
        return lo, lo + 1
    root = nth_root_bounds(Fraction(num, den), e, digits)
    return root.lower * (1 << s), root.upper * (1 << s)


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




def reference_candidates(f: Polynomial, digits: int = DEFAULT_DIGITS) -> list[Sector]:
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
