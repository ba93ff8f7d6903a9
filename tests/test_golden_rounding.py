"""Golden enclosure endpoints recorded before the series and precision loops
of rounding.py were merged.  Every (lower, upper) pair in golden_rounding.json
must keep coming out exactly as recorded: schema-1 certificates replay only if
the enclosures they were built from are reproduced bit for bit.  A difference
is a behaviour change, so the data file is never regenerated to make this
test pass.
"""
import json
from fractions import Fraction
from pathlib import Path

import pytest

from polycert.rounding import (BoundedReal, cot_pi_frac, nth_root_bounds,
                               pi_bounds, pow_upper, sin_pi_frac, tan_pi_frac)

GOLDEN = json.loads((Path(__file__).parent / "golden_rounding.json")
                    .read_text(encoding="utf-8"))

DIGITS = (1, 3, 6, 12, 25, 50)
HIGH_DIGITS = DIGITS + (100, 200)
F = Fraction


def _pair(b: BoundedReal) -> tuple:
    return b.lower, b.upper


# The trig constants of a degree-n polynomial, sin(pi/n), tan(pi/(2n)) and
# cot(pi/(2n)), under the labels their endpoints were recorded with.
TRIG = {"sin": lambda n, d: sin_pi_frac(F(1, n), d),
        "tan": lambda n, d: tan_pi_frac(F(1, 2 * n), d),
        "cot": lambda n, d: cot_pi_frac(F(1, 2 * n), d)}

# label -> (digits levels, enclosure at a digits level as a tuple of Fractions)
CASES = {"pi_bounds": (HIGH_DIGITS, lambda d: _pair(pi_bounds(d)))}
for _kind in ("sin", "tan", "cot"):
    for _n in range(2, 13):
        CASES[f"trig_bounds {_kind} {_n}"] = (
            HIGH_DIGITS if _n in (4, 7) else DIGITS,
            lambda d, k=_kind, n=_n: _pair(TRIG[k](n, d)))
for _c in (F(1, 3), F(2, 5), F(3, 8), F(1, 7)):
    CASES[f"sin_pi_frac {_c}"] = (DIGITS, lambda d, c=_c: _pair(sin_pi_frac(c, d)))
    CASES[f"cot_pi_frac {_c}"] = (DIGITS, lambda d, c=_c: _pair(cot_pi_frac(c, d)))
for _x, _k in ((F(2), 2), (F(3), 3), (F(10), 5), (F(7, 3), 2), (F(1, 1000), 3),
               (F(10**12 + 1), 4), (F(27, 8), 3)):
    CASES[f"nth_root_bounds {_x} {_k}"] = (
        DIGITS, lambda d, x=_x, k=_k: _pair(nth_root_bounds(x, k, d)))
for _base, _e in ((2, F(1, 2)), (10, F(3, 4)), (7, F(5, 3)), (5, F(2))):
    CASES[f"pow_upper {_base} {_e}"] = (
        DIGITS, lambda d, b=_base, e=_e: (pow_upper(b, e, d),))


def test_every_case_is_recorded():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("label", sorted(CASES))
def test_endpoints_match_golden(label):
    levels, enclose = CASES[label]
    recorded = GOLDEN[label]
    assert sorted(recorded, key=int) == [str(d) for d in levels]
    for d in levels:
        got = [str(x) for x in enclose(d)]
        assert got == recorded[str(d)], f"{label} at digits {d}"
