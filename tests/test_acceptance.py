"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import cmath
import copy
import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from sympy import Poly, symbols

from polycert.arith import is_prime, next_prime
from polycert.certify import (Certifier, certificate_verify, certify_any,
                              certify_combined_report, certify_negative_m,
                              search_m)
from polycert.cli import main
from polycert.lens import (DegenerateLensError, Lens, interval_cot,
                           interval_disk_in_lens, lens_of)
from polycert.oracles import in_sector, irreducible_bruteforce, roots_numeric
from polycert.poly import Polynomial, parse_polynomial, partial_sums
from polycert.rounding import BoundedReal, _pi_bits, cot_pi_frac, sin_pi_frac
from polycert.sectors import sector_candidates
from polycert.poly import sign_index_sets

from conftest import random_polynomial

FLAGSHIP = parse_polynomial("X^4-10*X^3+2162")


@contextmanager
def criterion(n: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n}: FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {n}: PASS - {desc}")


def _vt_grid(n: int, points: int = 20) -> list[Fraction]:
    """Log-spaced reciprocal vertices below pi/(4n), with pi at 20 digits."""
    bound = float(_pi_bits(96).lower) / (4 * n)
    lo, hi = bound / 2000, bound / 2
    ratio = (hi / lo) ** (1 / (points - 1))
    return [Fraction(lo * ratio**i) for i in range(points)]


def test_acceptance_1_flagship_cli(capsys):
    with criterion(1, "flagship quartic certified at m=3 via the cot interval"):
        t0 = time.monotonic()
        code = main(["certify", "X^4-10*X^3+2162", "--m", "3", "--json"])
        elapsed = time.monotonic() - t0
        out = capsys.readouterr().out
        data = json.loads(out)
        assert code == 0
        assert data["criterion"] == "cor310_cot"
        assert data["witness"]["p"] == 1973 and data["witness"]["q"] == 1
        assert data["primality"] == "proven_prime"
        cot = next(i for i in data["region"]["intervals"] if i["source"] == "cor_cot")
        assert abs(float(cot["lo"]) - 2.41) <= 1e-2
        assert abs(float(cot["hi"]) - 3.59) <= 1e-2
        assert irreducible_bruteforce(FLAGSHIP).status == "irreducible"
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_acceptance_2_base10_digit_polynomials():
    with criterion(2, "100 random primes in [1e3, 1e6]: digit polynomials "
                      "certified at m=10; brute force agrees"):
        t0 = time.monotonic()
        rng = random.Random(42)
        primes = set()
        while len(primes) < 100:
            p = next_prime(rng.randrange(10**3, 10**6))
            if p < 10**6:
                primes.add(p)
        for p in sorted(primes):
            assert is_prime(p).status.value == "proven_prime"
            digits = []
            t = p
            while t:
                digits.append(t % 10)
                t //= 10
            f = Polynomial(digits)
            assert f.degree() <= 6
            cert = certify_any(f, 10)
            assert cert is not None and cert.criterion == "cor32_nonneg", p
            assert irreducible_bruteforce(f).status == "irreducible", p
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_acceptance_3_sector_soundness_fuzz(fuzz_corpus):
    with criterion(3, "1000 random polynomials: no numeric root in any "
                      "produced sector"):
        t0 = time.monotonic()
        violations = 0
        skipped = 0
        for f in fuzz_corpus:
            rs = roots_numeric(f)
            if not rs.converged:
                skipped += 1
                continue
            margin = 1e-6 + rs.residual_bound
            for sector in sector_candidates(f):
                for z in rs.roots:
                    if in_sector(z, sector, margin):
                        violations += 1
        assert violations == 0
        assert skipped < 20, f"too many non-converged root sets: {skipped}"
        elapsed = time.monotonic() - t0
        assert elapsed < 120.0, f"took {elapsed:.2f}s"


def test_acceptance_4_lens_soundness_fuzz(fuzz_corpus):
    with criterion(4, "lens regions contain no numeric root"):
        violations = 0
        for f in fuzz_corpus:
            if f.degree() < 3 or f.coefficient(0) == 0:
                continue
            try:
                lens = lens_of(f)
            except DegenerateLensError:
                continue
            rs = roots_numeric(f)
            if not rs.converged:
                continue
            margin = 1e-6 + rs.residual_bound
            # disks of radius 1/(2 vt sin(pi/n)) centred at
            # (1/(2 vt), +-cot(pi/n)/(2 vt)): the smallest radius, the centre
            # farthest out
            vt = lens.v_tilde
            sin = sin_pi_frac(Fraction(1, lens.n))
            cot = cot_pi_frac(Fraction(1, lens.n))
            r = float(1 / (2 * vt.upper * sin.upper))
            cx = float(1 / (2 * vt.lower))
            cy = float(cot.upper / (2 * vt.lower))
            for z in rs.roots:
                d_plus = abs(z - complex(cx, cy))
                d_minus = abs(z - complex(cx, -cy))
                if d_plus < r - margin and d_minus < r - margin:
                    violations += 1
        assert violations == 0


def test_acceptance_5_certifier_soundness_planted():
    with criterion(5, "500 planted reducible polynomials, m in [1,100], "
                      "q_max in {1,3}: zero certificates"):
        rng = random.Random(31337)
        built = 0
        while built < 500:
            dg = rng.randint(1, 4)
            dh = rng.randint(1, min(4, 8 - dg))
            if dg + dh < 2:
                continue
            g = random_polynomial(rng, dg, dg, 10)
            h = random_polynomial(rng, dh, dh, 10)
            f = g * h
            if f.degree() < 2 or f.leading_coefficient() <= 0:
                continue
            built += 1
            for q_max in (1, 3):
                report = search_m(f, 1, 100, q_max=q_max)
                assert report.certificate is None, (f, q_max)


def test_acceptance_6_micro_fixtures():
    with criterion(6, "sign-block sums (7,10,1,9) and reciprocal identity"):
        from polycert.poly import sign_blocks
        part = sign_blocks(parse_polynomial("2*X^9+5*X^8-7*X^5-3*X^3+X^2-8*X-1"))
        b1, b2 = part.blocks
        assert (b1.pos_sum, b1.neg_sum, b2.pos_sum, b2.neg_sum) == (7, 10, 1, 9)
        assert FLAGSHIP.reciprocal() == parse_polynomial("2162*X^4-10*X+1")


def test_acceptance_7_dominance_and_inclusion(fuzz_corpus):
    with criterion(7, "min-over-positives dominates neg-sum; interval chain "
                      "cot within disk-in-lens"):
        for f in fuzz_corpus:
            if not sign_index_sets(f).neg_indices:
                continue
            upper = {s.method: s.vertex.upper for s in sector_candidates(f)}
            assert upper["min-over-positives"] <= upper["neg-sum"], f
        for n in range(3, 13):
            for vt in _vt_grid(n):
                lens = Lens(BoundedReal.exact(vt), n)
                disk = interval_disk_in_lens(lens)
                cot = interval_cot(lens)
                assert disk.lo <= cot.lo, (n, vt)
                assert cot.hi <= disk.hi, (n, vt)


def test_acceptance_8_partial_sum_shift_exhaustive():
    with criterion(8, "all degree-3 polynomials with coefficients in [-3,3]: "
                      "non-negative partial sums imply non-negative shift"):
        t0 = time.monotonic()
        x = symbols("x")
        span = range(-3, 4)
        checked = 0
        for a3 in range(1, 4):
            for a2 in span:
                for a1 in span:
                    for a0 in span:
                        f = Polynomial([a0, a1, a2, a3])
                        if partial_sums(f, 1).all_nonneg:
                            checked += 1
                            shifted = Poly([a3, a2, a1, a0], x).shift(1)
                            assert all(c >= 0 for c in shifted.all_coeffs()), f
        assert checked > 0
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def _acceptance_certificates():
    digit_poly = Polynomial([3, 7, 9, 1])
    certs = [
        certify_any(FLAGSHIP, 3, modes=("lens",)),
        certify_combined_report(Certifier(FLAGSHIP), 13)[0],
        certify_any(digit_poly, 10, modes=("pq",)),
        certify_any(parse_polynomial("3*X^5+X^4-2*X^3+X^2-3*X+1"), 3, modes=("pq",)),
        certify_any(parse_polynomial("2*X^4+2*X^3-2*X-1"), 4, modes=("pq",)),
        certify_any(parse_polynomial("X^2+3"), 3, q_max=4, modes=("pq",)),
        certify_any(parse_polynomial("X^3+3*X+29"), 5, modes=("prime_power",)),
        certify_any(parse_polynomial("X^2+2"), 5, modes=("prime_power",)),
        certify_negative_m(parse_polynomial("X^2+X+1"), -3),
    ]
    rng = random.Random(4)
    for _ in range(10):
        p = next_prime(rng.randrange(10**3, 10**5))
        digits = []
        while p:
            digits.append(p % 10)
            p //= 10
        certs.append(certify_any(Polynomial(digits), 10))
    return certs


def _tamper_paths(data):
    """Semantic single-field tamperings: the claim fields, witness numbers,
    and every recorded decimal bound (precision and search parameters are
    reproducible inputs, not claims)."""
    paths = [
        (("m",), data["m"] + 1),
        (("m",), data["m"] - 1),
        (("criterion",), "thm31_pq" if data["criterion"] != "thm31_pq"
         else "cor32_nonneg"),
        (("polynomial",), [c + 1 for c in data["polynomial"]]),
        (("conditional",), not data["conditional"]),
        (("primality",), "probable_prime" if data["primality"] != "probable_prime"
         else "proven_prime"),
        (("witness", "p"), data["witness"]["p"] + 1),
        (("witness", "k"), data["witness"]["k"] + 1),
        (("witness", "q"), data["witness"]["q"] + 1),
    ]
    for i, chk in enumerate(data["checks"]):
        for field in ("left", "right", "margin"):
            paths.append((("checks", i, field), "1" + chk[field]))
    if "sector" in data["region"]:
        paths.append((("region", "sector", "vertex_upper"),
                      "0.000000000000000001"))
    if "lens" in data["region"]:
        paths.append((("region", "lens", "v_tilde_upper"),
                      "0.999999999999999999"))
    return paths


def test_acceptance_9_replay_and_tamper():
    with criterion(9, "every certificate replays; every single-field tamper "
                      "is rejected"):
        certs = _acceptance_certificates()
        assert all(c is not None for c in certs)
        for cert in certs:
            data = json.loads(json.dumps(cert.to_json()))
            assert certificate_verify(data), cert.criterion
        for cert in certs[:4]:
            base = cert.to_json()
            for path, value in _tamper_paths(base):
                data = copy.deepcopy(base)
                node = data
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = value
                try:
                    ok = certificate_verify(data)
                except Exception:
                    ok = False
                assert not ok, (cert.criterion, path)


def test_acceptance_10_inversion_geometry():
    with criterion(10, "sector boundary maps onto the lens boundary under "
                       "inversion within 1e-9"):
        worst = 0.0
        for n in range(3, 13):
            theta = math.pi / n
            for vt in _vt_grid(n):
                vtf = float(vt)
                r = 1 / (2 * vtf * math.sin(theta))
                cx = 1 / (2 * vtf)
                cy = cx / math.tan(theta)
                lo, hi = vtf / 2, 10 / vtf
                ratio = (hi / lo) ** (1 / 99)
                for sign in (1, -1):
                    for k in range(100):
                        t = lo * ratio**k
                        z = vtf + t * cmath.exp(sign * 1j * theta)
                        w = 1 / z
                        err = min(abs(abs(w - complex(cx, cy)) - r),
                                  abs(abs(w - complex(cx, -cy)) - r))
                        worst = max(worst, err)
        assert worst < 1e-9, worst
