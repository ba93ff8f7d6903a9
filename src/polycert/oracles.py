"""Verification oracles: a simultaneous-iteration numeric root finder used to
cross-check zero-free claims, and an exact exhaustive factor search, with the
integer factoring it needs, that decides irreducibility at desk scale."""
from __future__ import annotations

import cmath
import itertools
import math
import random
import time
from fractions import Fraction
from typing import NamedTuple, Optional

from .arith import _strip_small, has_rational_root, is_prime
from .poly import Polynomial, divide_exact
from .sectors import Sector


class RootSet(NamedTuple):
    roots: tuple[complex, ...]
    residual_bound: float
    converged: bool


def _weierstrass_corrections(coeffs: list[complex], zs: list[complex]) -> list[complex]:
    out = []
    for i, z in enumerate(zs):
        val = 0j
        for c in reversed(coeffs):
            val = val * z + c
        den = 1 + 0j
        for j, w in enumerate(zs):
            if j != i:
                den *= z - w
        if den == 0:
            den = 1e-30
        out.append(val / den)
    return out


def roots_numeric(f: Polynomial, tol: float = 1e-12, max_sweeps: int = 1000) -> RootSet:
    """All complex roots by Weierstrass (Durand-Kerner) iteration.

    Starts from a jittered circle of radius 1 + max|a_i/a_n|; converged means
    the largest per-root update fell below tol.  residual_bound is the final
    maximum correction magnitude, a first-order bound on the distance from
    each approximation to a true root.
    """
    n = f.degree()
    if n < 1:
        raise ValueError("roots_numeric needs degree >= 1")
    an = f.leading_coefficient()
    coeffs = [complex(c) / an for c in f.coeffs]
    radius = 1 + max(abs(c) for c in coeffs[:-1]) if n >= 1 else 1.0
    rng = random.Random(hash(f.coeffs) & 0xFFFFFFFF)
    zs = [
        radius * cmath.exp(2j * cmath.pi * (k + 0.25 * rng.random()) / n + 0.4j / n)
        for k in range(n)
    ]
    converged = False
    for _ in range(max_sweeps):
        ws = _weierstrass_corrections(coeffs, zs)
        zs = [z - w for z, w in zip(zs, ws)]
        if max(abs(w) for w in ws) < tol * max(1.0, max(abs(z) for z in zs)):
            converged = True
            break
    residual = max(abs(w) for w in _weierstrass_corrections(coeffs, zs))
    return RootSet(tuple(zs), residual, converged)


def in_sector(z: complex, sector: Sector, margin: float = 0.0) -> bool:
    """Open-sector membership against the conservative vertex bound.

    The margin is a numerical slack for the whole boundary: the half-angle is
    narrowed by margin and points within margin of the vertex are treated as
    boundary cases (an angular margin alone cannot absorb a radial
    perturbation of a root sitting exactly at the vertex).  margin = 0 is the
    plain open-sector test.
    """
    v = float(sector.vertex.upper)
    w = complex(z) - v
    if w.real <= 0 or abs(w) <= margin:
        return False
    return abs(cmath.phase(w)) < sector.half_angle_radians() - margin


# -- integer factorization at desk scale ----------------------------------


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of composite n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    rng = random.Random(n & 0xFFFFFFFF)
    while True:
        y, c, m = rng.randrange(1, n), rng.randrange(1, n), 128
        g, r, q = 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division plus Pollard-Brent."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    _, exps, rest = _strip_small(n, 1000)
    out = dict(exps)
    stack = [rest]
    while stack:
        m = stack.pop()
        if m > 1 and is_prime(m).is_prime:
            out[m] = out.get(m, 0) + 1
        elif m > 1:
            d = _pollard_brent(m)
            stack.extend((d, m // d))
    return out


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n >= 1."""
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


class FactorSearchResult(NamedTuple):
    status: str  # "irreducible" | "reducible" | "out_of_reach"
    factor: Optional[Polynomial] = None


def _interp_basis(points: list[int]) -> list[list[Fraction]]:
    """Lagrange basis polynomials for the given distinct integer nodes."""
    basis = []
    for i, xi in enumerate(points):
        coeffs = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(points):
            if j == i:
                continue
            # multiply by (X - xj)
            coeffs = [Fraction(0)] + coeffs
            for t in range(len(coeffs) - 1):
                coeffs[t] -= xj * coeffs[t + 1]
            denom *= xi - xj
        basis.append([c / denom for c in coeffs])
    return basis


def irreducible_bruteforce(f: Polynomial, time_budget: float = 10.0) -> FactorSearchResult:
    """Exhaustive factor search: interpolate every candidate divisor of f of
    degree at most deg(f)/2 through divisor tuples of evaluated values and
    test exact division.  Complete at desk scale; out_of_reach on timeout.
    """
    if f.is_zero() or f.degree() < 1:
        raise ValueError("irreducible_bruteforce needs a nonzero polynomial of degree >= 1")
    if f.content() > 1:
        raise ValueError("input must be primitive (divide out the content first)")
    n = f.degree()
    if n == 1:
        return FactorSearchResult("irreducible")

    found, root = has_rational_root(f)
    if found:
        lin = Polynomial([-root.numerator, root.denominator])
        return FactorSearchResult("reducible", lin)

    deadline = time.monotonic() + time_budget

    # Sample small arguments and keep those with the fewest divisors.
    candidates = []
    for x in sorted(range(-2 * n - 2, 2 * n + 3), key=abs):
        val = f.evaluate(x)
        if val != 0:
            candidates.append((len(divisors(abs(val))), abs(x), x, val))
    candidates.sort()

    for d in range(2, n // 2 + 1):
        pts = [c[2] for c in candidates[: d + 1]]
        vals = [c[3] for c in candidates[: d + 1]]
        basis = _interp_basis(pts)
        divisor_sets: list[list[int]] = []
        for idx, v in enumerate(vals):
            ds = divisors(abs(v))
            # sign symmetry g vs -g: pin the first value positive
            divisor_sets.append(ds if idx == 0 else [s * t for t in ds for s in (1, -1)])
        counter = 0
        for combo in itertools.product(*divisor_sets):
            counter += 1
            if counter % 512 == 0 and time.monotonic() > deadline:
                return FactorSearchResult("out_of_reach")
            coeffs = [Fraction(0)] * (d + 1)
            for val, b in zip(combo, basis):
                for t, c in enumerate(b):
                    coeffs[t] += val * c
            if any(c.denominator != 1 for c in coeffs):
                continue
            if coeffs[d] == 0:
                continue  # lower-degree interpolant; covered at smaller d
            g = Polynomial([c.numerator for c in coeffs])
            if f.leading_coefficient() % g.leading_coefficient() != 0:
                continue
            if g.coefficient(0) == 0 or f.coefficient(0) % g.coefficient(0) != 0:
                continue
            if divide_exact(f, g) is not None:
                return FactorSearchResult("reducible", g)
    return FactorSearchResult("irreducible")
