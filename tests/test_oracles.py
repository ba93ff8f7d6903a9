import cmath
import math
import random

import pytest
import sympy

from polycert.oracles import in_sector, irreducible_bruteforce, roots_numeric
from polycert.poly import Polynomial, parse_polynomial
from polycert.rounding import BoundedReal
from polycert.sectors import Sector, best_sector

from conftest import random_polynomial


def _match_roots(found, expected, tol=1e-8):
    left = list(found)
    for e in expected:
        best = min(left, key=lambda z: abs(z - e))
        assert abs(best - e) < tol
        left.remove(best)


def test_roots_factored_quadratic():
    rs = roots_numeric(parse_polynomial("X^2-2*X-3"))
    assert rs.converged
    _match_roots(rs.roots, [3, -1], 1e-10)


def test_roots_of_unity():
    rs = roots_numeric(parse_polynomial("X^6-1"))
    assert rs.converged
    _match_roots(rs.roots, [cmath.exp(2j * cmath.pi * k / 6) for k in range(6)])


def test_flagship_roots_avoid_sector():
    f = parse_polynomial("X^4-10*X^3+2162")
    rs = roots_numeric(f)
    sector = best_sector(f)
    assert sector.vertex.upper == 10
    for z in rs.roots:
        assert not in_sector(z, sector, margin=1e-6 + rs.residual_bound)


def test_roots_vieta(fuzz_corpus):
    for f in fuzz_corpus[:150]:
        rs = roots_numeric(f)
        if not rs.converged:
            continue
        n = f.degree()
        total = sum(rs.roots)
        prod = 1
        for z in rs.roots:
            prod *= z
        assert abs(total - (-f.coefficient(n - 1) / f.leading_coefficient())) \
            <= 1e-8 * max(1.0, abs(total))
        expect = (-1) ** n * f.coefficient(0) / f.leading_coefficient()
        assert abs(prod - expect) <= 1e-8 * max(1.0, abs(prod))


def test_roots_conjugate_closure(fuzz_corpus):
    for f in fuzz_corpus[:60]:
        rs = roots_numeric(f)
        if not rs.converged:
            continue
        for z in rs.roots:
            if abs(z.imag) > 1e-9:
                partner = min(rs.roots, key=lambda w: abs(w - z.conjugate()))
                assert abs(partner - z.conjugate()) < 1e-7 * max(1.0, abs(z))


def test_in_sector_basics():
    s = Sector(BoundedReal.exact(10), 4, "neg-sum")
    assert in_sector(11, s, margin=0.0)
    assert in_sector(complex(11, 0.5), s)  # arg about 0.4636 < pi/4
    assert not in_sector(complex(9.5, 0), s)
    boundary = 10 + cmath.exp(1j * math.pi / 4)
    assert not in_sector(boundary, s, margin=1e-12)


def _exact_quotient(f, g):
    from polycert.poly import divide_exact
    q = divide_exact(f, g)
    assert q is not None
    return q


def test_bruteforce_examples():
    assert irreducible_bruteforce(parse_polynomial("X^2+X+1")).status == "irreducible"
    res = irreducible_bruteforce(parse_polynomial("X^4+4"))
    assert res.status == "reducible"
    # the Sophie Germain split (X^2-2X+2)(X^2+2X+2)
    f = parse_polynomial("X^4+4")
    assert res.factor * _exact_quotient(f, res.factor) == f
    assert sorted(abs(c) for c in res.factor.coeffs) == [1, 2, 2]
    assert irreducible_bruteforce(parse_polynomial("X^4-10*X^3+2162")).status == "irreducible"


def test_bruteforce_rejects_imprimitive():
    with pytest.raises(ValueError):
        irreducible_bruteforce(parse_polynomial("2*X^2+2"))


def test_bruteforce_linear_and_rational_roots():
    assert irreducible_bruteforce(parse_polynomial("X+5")).status == "irreducible"
    res = irreducible_bruteforce(parse_polynomial("2*X^2-3*X+1"))
    assert res.status == "reducible"


def test_bruteforce_planted_products():
    rng = random.Random(99)
    found_all = True
    for _ in range(200):
        g = random_polynomial(rng, 1, 3, 9)
        h = random_polynomial(rng, 1, 2, 9)
        f = (g * h).primitive_part()
        if f.degree() < 2:
            continue
        res = irreducible_bruteforce(f)
        assert res.status == "reducible", f
        assert _exact_quotient(f, res.factor) is not None
    assert found_all


def test_bruteforce_planted_irreducibles():
    rng = random.Random(101)
    count = 0
    while count < 40:
        a = rng.randint(1, 9)
        b = rng.randint(-9, 9)
        c = rng.randint(1, 9)
        quad = Polynomial([c, b, a])
        if b * b - 4 * a * c >= 0 or quad.content() > 1:
            continue
        assert irreducible_bruteforce(quad).status == "irreducible"
        count += 1
    count = 0
    while count < 25:
        cubic = random_polynomial(rng, 3, 3, 9).primitive_part()
        if cubic.degree() != 3:
            continue
        from polycert.arith import has_rational_root
        if has_rational_root(cubic)[0]:
            continue
        assert irreducible_bruteforce(cubic).status == "irreducible"
        count += 1


def test_bruteforce_agrees_with_sympy():
    rng = random.Random(103)
    x = sympy.symbols("x")
    for _ in range(60):
        f = random_polynomial(rng, 2, 5, 12).primitive_part()
        res = irreducible_bruteforce(f)
        if res.status == "out_of_reach":
            continue
        expr = sum(c * x**i for i, c in enumerate(f.coeffs))
        factors = sympy.factor_list(expr)[1]
        n_irreducible = all(deg == 1 for _, deg in [(p, p.as_poly(x).degree() * e)
                                                    for p, e in factors]) \
            and len(factors) == 1 and factors[0][1] == 1
        sym_irreducible = len(factors) == 1 and factors[0][1] == 1 \
            and factors[0][0].as_poly(x).degree() == f.degree()
        assert (res.status == "irreducible") == sym_irreducible
