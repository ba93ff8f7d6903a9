"""Byte-identity of region building: one hash over the sector candidates, the
lens and both lens intervals of 300 seeded random polynomials, pinned from
the interval-arithmetic implementation that the integer radicand and the
shared radicals replaced."""
import hashlib
import json
import random

from polycert import (Polynomial, interval_cot, interval_disk_in_lens, lens_of,
                      sector_candidates)

# sha256 of the records below, computed by the BoundedReal-operator lens
# intervals and the per-producer radicals.  Never edit it to make the test pass.
PINNED = "4861c81470d4358c81a317584aa78d5109a72d48937a97ce84ccbc96470a86a1"


def _polynomials(count=300, seed=16):
    """Degrees 2..8, mixed signs, coefficients up to 10^12; every third has a
    dominant constant term, so its reciprocal vertex is small enough for the
    lens intervals."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(2, 8)
        big = 10 ** rng.choice((1, 3, 6, 12))
        coeffs = [rng.choice((0, 1, 1, 1)) * rng.randint(-big, big) for _ in range(n)]
        if i % 3 == 0:
            coeffs[0] = rng.randint(10**6, 10**12)
        if coeffs[0] == 0:
            coeffs[0] = rng.choice((-1, 1)) * rng.randint(1, big)
        coeffs.append(rng.randint(1, big))
        out.append(Polynomial(coeffs))
    return out


def _record(f, digits):
    rec = {"f": list(f.coeffs), "d": digits,
           "sectors": [s.to_json() for s in sector_candidates(f, digits)]}
    try:
        lens = lens_of(f, digits)
    except ValueError as exc:
        rec["lens"] = f"{type(exc).__name__}: {exc}"
        return rec
    rec["lens"] = lens.to_json()
    for fn in (interval_disk_in_lens, interval_cot):
        try:
            rec[fn.__name__] = fn(lens, digits).to_json()
        except ValueError as exc:
            rec[fn.__name__] = f"{type(exc).__name__}: {exc}"
    return rec


def test_region_sweep_matches_the_pinned_hash():
    h = hashlib.sha256()
    built = 0
    for f in _polynomials():
        for digits in (12, 24, 100):
            rec = _record(f, digits)
            built += isinstance(rec.get("interval_disk_in_lens"), dict)
            h.update(json.dumps(rec, sort_keys=True).encode())
    assert built == 165  # the sweep reaches the radicand, not only the checks
    assert h.hexdigest() == PINNED
