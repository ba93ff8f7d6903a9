"""Golden enclosure endpoints at the precisions test_golden_rounding.py leaves
out: pi and the sin/tan/cot constants for n = 4 and 7 at 400 digits, twice
the largest digits a certificate records.  Replay asks for no more than a
certificate's own digits, so these cases are goldens of the rounding code
alone, at a precision past every certificate's.  They were recorded from
the Fraction-based series code before the series were summed over
unreduced integers, and the data file is never regenerated to make this
test pass.
"""
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from polycert.rounding import (BoundedReal, _pi_bits, cot_pi_frac,
                               sin_pi_frac, tan_pi_frac)

GOLDEN = json.loads((Path(__file__).parent / "golden_rounding_high.json")
                    .read_text(encoding="utf-8"))


def _pair(b: BoundedReal) -> tuple:
    return b.lower, b.upper


# The trig constants of a degree-n polynomial, sin(pi/n), tan(pi/(2n)) and
# cot(pi/(2n)), under the labels their endpoints were recorded with.
TRIG = {"sin": lambda n, d: sin_pi_frac(F(1, n), d),
        "tan": lambda n, d: tan_pi_frac(F(1, 2 * n), d),
        "cot": lambda n, d: cot_pi_frac(F(1, 2 * n), d)}

# label -> (digits levels, enclosure at a digits level)
# pi keeps the label it was recorded under; at digits d it is _pi_bits(4d + 16)
CASES = {"pi_bounds": ((400,), lambda d: _pair(_pi_bits(4 * d + 16)))}
for _kind in ("sin", "tan", "cot"):
    for _n in (4, 7):
        CASES[f"trig_bounds {_kind} {_n}"] = (
            (400,), lambda d, k=_kind, n=_n: _pair(TRIG[k](n, d)))


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
