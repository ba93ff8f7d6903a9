"""The value records of the package: the NamedTuples and the two slotted
classes, BoundedReal and Lens.  Each builds by position and by keyword with
the same defaults, compares and hashes by value, and refuses assignment."""
import copy
import json
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from polycert.arith import FactorizationWitness, PrimalityResult, PrimalityStatus
from polycert.certify import (Certificate, Certifier, Check, SearchOutcome,
                              SearchReport, certify_combined_report,
                              certify_negative_m)
from polycert.lens import AdmissibleInterval, CombinedRegion, Lens
from polycert.oracles import FactorSearchResult, RootSet
from polycert.poly import (PartialSums, Polynomial, SignBlock, SignBlockPartition,
                           SignIndexSets, parse_polynomial)
from polycert.rounding import BoundedReal
from polycert.sectors import Sector

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text(encoding="utf-8"))

HALF, THIRD = Fraction(1, 2), Fraction(1, 3)
V = BoundedReal(THIRD, HALF)
PROVEN = PrimalityResult(PrimalityStatus.PROVEN_PRIME, "trial")
WITNESS = FactorizationWitness(7, 1, 1, primality=PROVEN)
CHECK = Check("m exceeds vertex", THIRD, Fraction(3))
BLOCK = SignBlock(4, 3, 2, 0, 5, -7)
INTERVAL = AdmissibleInterval(HALF, Fraction(3), "cor_cot")
CERT = Certificate(Polynomial([1, 1, 1]), 2, "thm31_pq", {"kind": "sector"}, WITNESS,
                   (CHECK,), "proven_prime", False, 1, 12)
OUTCOME = SearchOutcome(2, "certified", "thm31_pq")

# class, required values in field order, {optional field: its default}, and
# one field changed to a different value
RECORDS = [
    (SignIndexSets, ((1,), (2, 3), 4), {}, {"neg_sum_abs": 5}),
    (SignBlock, (4, 3, 2, 0, 5, -7), {}, {"neg_sum": -8}),
    (SignBlockPartition, ((BLOCK,), 1), {}, {"sign_changes": 2}),
    (PartialSums, (HALF, (1, Fraction(3, 2)), True), {}, {"alpha": THIRD}),
    (PrimalityResult, (PrimalityStatus.PROVEN_PRIME, "trial"),
     {"factor": None, "note": ""}, {"method": "bpsw"}),
    (FactorizationWitness, (7, 1, 1),
     {"ell": None, "r": None, "s": None,
      "primality": PrimalityResult(PrimalityStatus.UNIT, "unset"), "alternatives": ()},
     {"q": 3}),
    (Sector, (V, 4, "neg-sum"), {}, {"angle_denominator": 5}),
    (AdmissibleInterval, (HALF, Fraction(3), "cor_cot"), {},
     {"source": "thm_disk_in_lens"}),
    (CombinedRegion, (INTERVAL, HALF, None, ("note",)), {}, {"simplification": "x"}),
    (Check, ("m exceeds vertex", THIRD, Fraction(3)), {}, {"left": HALF}),
    (Certificate, (Polynomial([1, 1, 1]), 2, "thm31_pq", {"kind": "sector"}, WITNESS,
                   (CHECK,), "proven_prime", False, 1, 12),
     {"negated_argument": False}, {"m": 3}),
    (SearchOutcome, (2, "certified", "thm31_pq"), {}, {"detail": "cor32_nonneg"}),
    (SearchReport, (1, 5, 2, 1, (OUTCOME,), CERT), {}, {"scanned_hi": 3}),
    (RootSet, ((1j, -1j), 1e-12, True), {}, {"converged": False}),
    (FactorSearchResult, ("irreducible",), {"factor": None}, {"status": "reducible"}),
    (BoundedReal, (THIRD, HALF), {}, {"upper": Fraction(2, 3)}),
    (Lens, (V, 4), {"method": ""}, {"n": 5}),
]
SLOTTED = (BoundedReal, Lens)
# a certificate holds its region as a dict, so it and a report have no hash
UNHASHABLE = (Certificate, SearchReport)


def _names(cls) -> tuple:
    return cls.__slots__ if cls in SLOTTED else cls._fields


@pytest.mark.parametrize("cls, required, defaults, change", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_semantics(cls, required, defaults, change):
    names = _names(cls)
    values = (*required, *defaults.values())
    assert len(names) == len(values)
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    with_defaults = cls(*required)
    assert [getattr(by_position, n) for n in names] == list(values)
    assert by_position == by_keyword == with_defaults
    assert not by_position != by_keyword
    if cls not in UNHASHABLE:
        assert hash(by_position) == hash(by_keyword) == hash(with_defaults)
    else:
        with pytest.raises(TypeError):
            hash(by_position)

    changed = cls(**{**dict(zip(names, values)), **change})
    assert changed != by_position and not changed == by_position

    with pytest.raises(AttributeError):
        setattr(by_position, names[0], values[0])
    with pytest.raises(AttributeError):
        delattr(by_position, names[0])

    if cls in SLOTTED:
        assert not isinstance(by_position, tuple)
        assert copy.copy(by_position) == by_position
        assert copy.deepcopy(by_position) == by_position
        assert pickle.loads(pickle.dumps(by_position)) == by_position
    else:
        # a NamedTuple unpacks, indexes and, but for the witness, whose
        # equality skips primality, compares equal to its plain tuple
        assert tuple(by_position) == values
        assert (by_position == values) == (cls is not FactorizationWitness)
        assert by_position[0] == values[0]
        assert by_position._replace(**change) == changed


@pytest.mark.parametrize("build, message", [
    (lambda: BoundedReal(HALF, THIRD), "inverted bounds [1/2, 1/3]"),
    (lambda: BoundedReal(Fraction(1), Fraction(0)), "inverted bounds [1, 0]"),
    (lambda: Lens(BoundedReal.exact(0), 4), "lens needs a strictly positive reciprocal vertex"),
    (lambda: Lens(BoundedReal(-THIRD, HALF), 4),
     "lens needs a strictly positive reciprocal vertex"),
    (lambda: Lens(V, 2), "lens needs degree >= 3"),
])
def test_slotted_classes_keep_their_checks(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_slotted_reprs():
    assert repr(V) == "BoundedReal(1/3, 1/2)"
    assert repr(Lens(V, 4, "neg-sum")) == (
        "Lens(v_tilde=BoundedReal(1/3, 1/2), n=4, method='neg-sum')")


def test_slotted_classes_are_not_equal_to_other_types():
    assert V != (THIRD, HALF) and V != Lens(V, 4)
    assert BoundedReal.exact(1) != 1


def test_witness_equality_ignores_primality():
    unset = FactorizationWitness(7, 1, 1)
    assert unset == WITNESS and not unset != WITNESS
    assert hash(unset) == hash(WITNESS)
    assert len({unset, WITNESS}) == 1
    assert unset != WITNESS._replace(alternatives=((7, 1, 1),))
    assert unset != (7, 1, 1, None, None, None, unset.primality, ())


def test_negative_m_restates_to_the_golden_json():
    cert = certify_negative_m(parse_polynomial("X^2+X+1"), -3)
    assert cert.negated_argument and cert.m == -3
    assert cert.to_json() == GOLDEN["certificates"]["negative X^2+X+1 m=-3"]


@pytest.mark.parametrize("index", range(len(GOLDEN["combined"])))
def test_combined_certificate_is_built_as_recorded(index):
    data = GOLDEN["combined"][index]
    ctx = Certifier(Polynomial(data["polynomial"]), data["q_max"], data["digits"])
    cert, reason = certify_combined_report(ctx, data["m"])
    assert reason == "ok" and cert.to_json() == data
