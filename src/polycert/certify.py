"""Irreducibility certificates from prime or prime-power values taken inside
a zero-free region.

Only the value witness of a certificate depends on the argument m: the
sector angle depends only on deg f, its vertex only on the coefficients of
f, and the lens comes from the reciprocal's sector.  A Certifier holds that
per-polynomial part for one f (the sector plans of f and its reciprocal,
the best sector, the lens and its admissible intervals or why there are
none, and whether f has a rational root), builds each piece at most
once, and not at all when the estimate decides; the sin and tan bounds come
from the trig memo in rounding.  It decides each m once, from one record of
f(m) and its split: the criteria are taken in one fixed order, and one is
entered only when its witness exists, so a composite f(m) costs its split
and no criterion.  When the split's own trial division settles f(m), a
composite with no witness in any mode, it costs no witness either.
certify_any, search_m and certify_negative_m check their modes once per
call and run through that decision; replay enters the recorded criterion
directly.

Every certificate records the region used, the factorization witness, and
each real-number inequality together with its conservatively rounded bounds
and a strictly positive margin.  certificate_verify first checks that the
recorded witness multiplies out, p^k*q = f(m) modulo 2^61 - 1, so a forged
certificate fails before any region or split is built.  It then re-derives
everything at the recorded precision, once, and compares field for field.
From the certificate replay takes only what the check proved: f(m), and for
a proven prime p > q_max > 1000 times the recorded q, the split of f(m)
built from q.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence

from .arith import (DETERMINISTIC_LIMIT, MAX_Q_MAX, FactorizationWitness,
                    PrimalityStatus, _seeded_split, _Split, has_rational_root, is_prime)
from .lens import (AdmissibleInterval, DegenerateLensError, Lens, interval_cot,
                   interval_disk_in_lens, _narrow_bound, planned_lens,
                   reciprocal_plan)
from .poly import Polynomial
from .rounding import (DEFAULT_DIGITS, MAX_DIGITS, format_decimal, pow_upper,
                       sin_pi_frac)
from .sectors import Sector, _Estimates, _planned_candidates, planned_sector

SCHEMA_VERSION = 1

CRIT_THM_PQ = "thm31_pq"
CRIT_THM_PQ_SQRT = "thm31_sqrt_q"
CRIT_THM_POWER = "thm35_prime_power"
CRIT_THM_POWER_SQRT = "thm35_sqrt"
CRIT_LENS = "thm39_lens"
CRIT_LENS_COT = "cor310_cot"
CRIT_COMBINED = "cor312_combined"
CRIT_NONNEG = "cor32_nonneg"
CRIT_PARTIAL_SUMS = "cor34_partial_sums"
CRIT_LEADING_DOMINANT = "cor35_fujiwara"
CRIT_SINGLE_VARIATION = "cor38_single_variation"

class MalformedCertificateError(ValueError):
    pass


class Check(NamedTuple):
    """A verified strict inequality left < right, both sides conservatively
    rounded before the comparison was made."""

    description: str
    left: Fraction
    right: Fraction

    @property
    def margin(self) -> Fraction:
        return self.right - self.left

    def to_json(self) -> dict:
        return {
            "description": self.description,
            "left": format_decimal(self.left, direction="ceil"),
            "right": format_decimal(self.right, direction="floor"),
            "margin": format_decimal(self.margin, direction="floor"),
        }


def _witness_json(w: FactorizationWitness) -> dict:
    return {
        "p": w.p,
        "k": w.k,
        "q": w.q,
        "ell": w.ell,
        "r": w.r,
        "s": None if w.s is None else str(w.s),
        "alternatives": [list(t) for t in w.alternatives],
    }


class Certificate(NamedTuple):
    polynomial: Polynomial
    m: int
    criterion: str
    region: dict
    witness: FactorizationWitness
    checks: tuple[Check, ...]
    primality_status: str
    conditional: bool
    q_max: int
    digits: int
    negated_argument: bool = False

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "polynomial": list(self.polynomial.coeffs),
            "m": self.m,
            "criterion": self.criterion,
            "region": self.region,
            "witness": _witness_json(self.witness),
            "checks": [c.to_json() for c in self.checks],
            "primality": self.primality_status,
            "conditional": self.conditional,
            "q_max": self.q_max,
            "digits": self.digits,
            "negated_argument": self.negated_argument,
        }


def _finish(f: Polynomial, m: int, criterion: str, region: dict,
            witness: FactorizationWitness, checks: Sequence[Check],
            q_max: int, digits: int) -> Certificate:
    if any(not c.left < c.right for c in checks):
        raise AssertionError("internal error: non-positive margin recorded")
    return Certificate(
        polynomial=f, m=m, criterion=criterion, region=region, witness=witness,
        checks=tuple(checks), primality_status=witness.primality.status.value,
        conditional=witness.primality.status is PrimalityStatus.PROBABLE_PRIME,
        q_max=q_max, digits=digits)


def _sector_tag(plan: _Estimates, sector: Sector, witness: FactorizationWitness,
                used_sqrt: bool) -> str:
    if used_sqrt:
        return CRIT_THM_PQ_SQRT
    if witness.q == 1 and witness.k == 1:
        if sector.method == "nonneg":
            return CRIT_NONNEG
        if sector.method == "shifted:1":
            return CRIT_PARTIAL_SUMS
        if sector.method == "neg-sum":
            if plan.f.leading_coefficient() > plan.sets.neg_sum_abs:
                return CRIT_LEADING_DOMINANT
        if sector.method in ("summed-denominator", "sign-blocks"):
            if plan.partition.sign_changes == 1 and plan.f.evaluate(1) > 0:
                return CRIT_SINGLE_VARIATION
    return CRIT_THM_PQ


def _validate_sector_input(f: Polynomial) -> None:
    if f.degree() < 2:
        raise ValueError("certification needs degree >= 2")
    if f.leading_coefficient() <= 0:
        raise ValueError("certification needs a positive leading coefficient")


# The order criteria are tried in: the lens admits the smallest arguments.
DEFAULT_MODES = ("lens", "pq", "prime_power")
_KNOWN_MODES = frozenset(DEFAULT_MODES)


class Certifier:
    """Everything certifying f needs that does not depend on the argument m.

    Each region is built at most once, when a criterion first asks for it,
    and not at all when the estimate decides; the trig constants are the
    process-wide memo's.  Every region, and f's sign data, comes from the
    sector plans of f and its reciprocal (sectors._Estimates).  They decide
    which sector candidates are built, whether the lens is degenerate, and,
    where they can, the lens criterion's "vertex-too-large", which only
    lens_intervals gives; sectors, every candidate, is built only for
    analyze.

    Each m is decided once (_decide), from one record: f(m), split once per
    q_max (arith._Split) or handed over with its split by replay's witness
    check (_adopt), and the last witness found.  A settled split at q_max,
    whose trial division alone proves f(m) composite with no witness in any
    mode, gives every reason at once, and no witness is asked for.  At
    q_max 1 the lens, pq and prime_power criteria share one split.  The
    criteria are taken in DEFAULT_MODES order.  Where the record, or the
    lens's refusal on f alone (lens_intervals), gives a criterion's reason,
    the reason is appended and the criterion is not entered; a criterion is
    entered only when its witness exists, and reads that witness from the
    record.  So f'(m) is evaluated once, and only for a prime-power
    witness.  The modes, digits, q_max and f are checked once per call
    (_criteria), not once per m.  The record is kept for the latest m
    only, so memory stays flat over any range of arguments.
    """

    def __init__(self, f: Polynomial, q_max: int = 1, digits: int = DEFAULT_DIGITS):
        self.f = f
        self.q_max = q_max
        self.digits = digits
        # the record of the latest m: f(m), its split per q_max, and the
        # last witness found with its (q_max, mode)
        self._m: Optional[int] = None
        self._value = 0
        self._splits: dict[int, _Split] = {}
        self._found: Optional[tuple[tuple[int, str], tuple[FactorizationWitness, str]]] = None

    @cached_property
    def sectors(self) -> list[Sector]:
        """Every applicable producer's sector, in preference order."""
        return _planned_candidates(self.plan, self.digits)

    @cached_property
    def plan(self) -> _Estimates:
        return _Estimates(self.f)

    @cached_property
    def sector(self) -> Sector:
        """The best of sectors, built without the candidates that cannot win."""
        return planned_sector(self.plan, self.digits)

    @cached_property
    def lens_plan(self) -> tuple[Optional[_Estimates], Optional[str]]:
        """The sector plan of f's reciprocal, or None and why f has no lens."""
        try:
            return reciprocal_plan(self.f), None
        except ValueError as exc:
            return None, str(exc)

    @cached_property
    def lens_status(self) -> tuple[Optional[Lens], str, Optional[str]]:
        """(lens, reason, note): the zero-free lens of f, or None with the
        reason tag ("lens-inapplicable" or "lens-degenerate") and lens_of's
        note that says why in words."""
        plan, note = self.lens_plan
        if plan is None:
            return None, "lens-inapplicable", note
        try:
            return planned_lens(plan, self.digits), "ok", None
        except DegenerateLensError as exc:
            return None, "lens-degenerate", str(exc)

    @cached_property
    def lens_intervals(self) -> tuple[Optional[tuple[AdmissibleInterval, ...]], str]:
        """(the lens's disk-in-lens and cot intervals, "ok"), or None and the
        lens criterion's reason.  The reciprocal's estimates give
        "vertex-too-large" where they prove every vertex above lens.py's
        bound, with no lens built; otherwise lens_status's reason, and then
        the exact vertex decides, checked by both intervals."""
        plan = self.lens_plan[0]
        if plan is not None and plan.exceeds(_narrow_bound(plan.n, self.digits)):
            return None, "vertex-too-large"
        lens, reason, _ = self.lens_status
        if lens is None:
            return None, reason
        try:
            disk = interval_disk_in_lens(lens, self.digits)
        except ValueError:
            return None, "vertex-too-large"
        return (disk, interval_cot(lens, self.digits)), "ok"

    @cached_property
    def _sector_degree(self) -> int:
        """deg f, checked once to suit the sector criteria (ValueError)."""
        _validate_sector_input(self.f)
        return self.f.degree()

    @cached_property
    def derivative(self) -> Polynomial:
        """f', whose value at m prime-power witnesses need."""
        return self.f.derivative()

    @cached_property
    def rational_root_exists(self) -> bool:
        """Whether f has a rational root; the square-root radii need none."""
        return has_rational_root(self.f)[0]

    def _adopt(self, m: int, value: int, split: Optional[_Split]) -> None:
        """Take value as f(m), and split as its split at q_max, both computed
        by the caller (replay's witness check)."""
        self._m, self._value, self._found = m, value, None
        self._splits = {} if split is None else {self.q_max: split}

    def _witness(self, m: int, q_max: int, mode: str,
                 ) -> tuple[Optional[FactorizationWitness], str]:
        """extract_witness_report on f(m), read from the record of m: the
        split at q_max decides the mode once, and the witness found is kept
        for the criterion that _decide enters next, so f'(m) is evaluated
        once."""
        if self._m != m:
            self._m, self._value, self._splits, self._found = m, self.f.evaluate(m), {}, None
        found = self._found
        if found is not None and found[0] == (q_max, mode):
            return found[1]
        split = self._splits.get(q_max)
        if split is None:
            split = self._splits[q_max] = _Split(self._value, q_max)
        result = split.witness(mode, self._derivative_value)
        if result[0] is not None:
            self._found = (q_max, mode), result
        return result

    def _derivative_value(self) -> int:
        """f'(m) for the m of the record.  _witness passes this bound method:
        a closure over m would make _witness's locals cells, which measured
        about 3% slower on planted_sweep's searches (Python 3.11)."""
        return self.derivative.evaluate(self._m)

    def _criteria(self, modes: Optional[Sequence[str]]) -> list[tuple[str, Callable]]:
        """(mode, criterion) for each enabled mode, in DEFAULT_MODES order;
        ValueError for no modes, an unknown mode, digits or q_max outside
        the ranges replay accepts, or an f outside the criteria's contract,
        in the order the criteria would raise."""
        if not (1 <= self.digits <= MAX_DIGITS and 1 <= self.q_max <= MAX_Q_MAX):
            raise ValueError(f"digits must be in 1..{MAX_DIGITS} and q_max in 1..{MAX_Q_MAX}")
        if modes is None:
            modes = DEFAULT_MODES
        else:
            modes = tuple(modes)
            if not _KNOWN_MODES.issuperset(modes):
                unknown = sorted(set(modes) - _KNOWN_MODES)
                raise ValueError(f"unknown modes {unknown}; known: {list(DEFAULT_MODES)}")
            if not modes:
                raise ValueError(f"no modes given; known: {list(DEFAULT_MODES)}")
        # the criteria's contract on f (ValueError), which the lens criterion
        # checks only when f has a lens plan
        if ("lens" in modes and self.lens_plan[0] is not None
                or "pq" in modes or "prime_power" in modes):
            self._sector_degree
        namespace = globals()
        return [(mode, namespace[_CRITERIA[mode]]) for mode in DEFAULT_MODES
                if mode in modes]

    def _decide(self, m: int, criteria: list[tuple[str, Callable]],
                ) -> tuple[Optional[Certificate], list[str]]:
        """certify at m with criteria from _criteria.  f(m) is split at
        q_max once.  A settled split (arith._Split) leaves no witness in any
        mode, at q_max or at 1, so every reason is "value-composite", but
        the lens's refusal on f alone, and no witness is asked for.
        Otherwise a criterion is entered only when its witness exists; its
        reason is read from the record of m, or, for the lens, first from
        lens_intervals.  Below m = 1 every criterion is entered, and raises
        or refuses itself."""
        if m >= 1:
            if self._m != m:
                value = self.f.evaluate(m)
                split = _Split(value, self.q_max)
                self._m, self._value, self._splits, self._found = m, value, {self.q_max: split}, None
            else:
                split = self._splits.get(self.q_max)
            if split is not None and split.settled:
                reasons = ["value-composite"] * len(criteria)
                # the lens comes first in DEFAULT_MODES order
                if criteria[0][0] == "lens" and self.lens_intervals[0] is None:
                    reasons[0] = self.lens_intervals[1]
                return None, reasons
        reasons = []
        for mode, criterion in criteria:
            if m < 1:
                reason = "ok"
            elif mode == "lens":
                intervals, reason = self.lens_intervals
                if intervals is not None:
                    reason = self._witness(m, 1, "pq")[1]
            else:
                reason = self._witness(m, self.q_max, mode)[1]
            if reason == "ok":
                cert, reason = criterion(self, m)
                if cert is not None:
                    return cert, reasons
            reasons.append(reason)
        return None, reasons

    def certify(self, m: int, modes: Optional[Sequence[str]] = None,
                ) -> tuple[Optional[Certificate], list[str]]:
        """The first certificate at m from the enabled criteria, tried in
        DEFAULT_MODES order, and the reason of each criterion that failed;
        ValueError for no modes, an unknown mode, or digits or q_max outside
        the ranges replay accepts."""
        return self._decide(m, self._criteria(modes))


# -- criteria ------------------------------------------------------------------


def _sector_report(ctx: Certifier, m: int, mode: str, q_max: int,
                   ) -> tuple[Optional[Certificate], str]:
    """The sector criterion: f(m) = p^k*q and a disk of radius p^s*q around m
    inside the zero-free sector, or of radius (p^s*q)^(1/2) when f has no
    rational root.  Mode "prime_power" takes s = min(ell, k/2) from the
    derivative's p-valuation; mode "pq" is the prime-value case s = 0."""
    f, digits, n = ctx.f, ctx.digits, ctx._sector_degree
    if m < 1:
        raise ValueError("certification needs m >= 1")
    witness, reason = ctx._witness(m, q_max, mode)
    if witness is None:
        return None, reason
    s = 0 if mode == "pq" else witness.s
    vertex = ctx.sector.vertex.upper
    sine = sin_pi_frac(Fraction(1, n), digits).lower
    radius_up = pow_upper(witness.p, s, digits) * witness.q if s else witness.q
    threshold = vertex + radius_up / sine
    used_sqrt = False
    if not m > threshold:
        if radius_up <= 1:
            return None, "outside-region"
        a, b = s.numerator, s.denominator
        sqrt_radius_up = pow_upper(witness.p**a * witness.q**b, Fraction(1, 2 * b), digits)
        threshold = vertex + sqrt_radius_up / sine
        # the rational-root test only where the square-root disk fits
        if not m > threshold or ctx.rational_root_exists:
            return None, "outside-region"
        used_sqrt = True
    radius = "q" if mode == "pq" else "p^s*q"
    desc = (f"m exceeds vertex + sqrt({radius})/sin(pi/n)" if used_sqrt
            else f"m exceeds vertex + {radius}/sin(pi/n)")
    checks = [Check(desc, threshold, Fraction(m))]
    if mode == "pq":
        tag = _sector_tag(ctx.plan, ctx.sector, witness, used_sqrt)
    else:
        tag = CRIT_THM_POWER_SQRT if used_sqrt else CRIT_THM_POWER
    region = {"kind": "sector", "sector": ctx.sector.to_json()}
    return _finish(f, m, tag, region, witness, checks, q_max, digits), "ok"


def certify_sector_pq_report(ctx: Certifier, m: int) -> tuple[Optional[Certificate], str]:
    """f(m) = p*q with p prime: the sector criterion at s = 0."""
    return _sector_report(ctx, m, "pq", ctx.q_max)


def certify_sector_prime_power_report(ctx: Certifier, m: int,
                                      ) -> tuple[Optional[Certificate], str]:
    """f(m) = p^k*q: the sector criterion at s = min(ell, k/2)."""
    return _sector_report(ctx, m, "prime_power", ctx.q_max)


def certify_lens_report(ctx: Certifier, m: int) -> tuple[Optional[Certificate], str]:
    """f(m) prime with a unit disk around m inside the zero-free lens; m must
    lie in the inward-rounded admissible interval.  The cot-based interval is
    recorded as a cross-check and names the criterion when it also contains m.
    The certificate records q_max 1 whatever the context's."""
    if ctx.lens_plan[0] is None:
        return None, "lens-inapplicable"
    ctx._sector_degree  # the sector criteria's contract on f: ValueError
    if m < 1:
        raise ValueError("certification needs m >= 1")
    intervals, reason = ctx.lens_intervals
    if intervals is None:
        return None, reason
    disk, cot = intervals
    lens = ctx.lens_status[0]
    witness, reason = ctx._witness(m, 1, "pq")
    if witness is None:
        return None, reason
    if not disk.contains_int(m):
        return None, "outside-region"
    at = Fraction(m)
    checks = [
        Check("reciprocal vertex below tan(pi/(2n))/2", lens.v_tilde.upper,
              _narrow_bound(lens.n, ctx.digits)),
        Check("m above disk-in-lens interval lower end", disk.lo, at),
        Check("m below disk-in-lens interval upper end", at, disk.hi),
    ]
    tag = CRIT_LENS
    if cot.contains_int(m):
        tag = CRIT_LENS_COT
        checks.append(Check("m above cot interval lower end", cot.lo, at))
        checks.append(Check("m below cot interval upper end", at, cot.hi))
    region = {
        "kind": "lens-interval",
        "lens": lens.to_json(),
        "intervals": [disk.to_json(), cot.to_json()],
    }
    return _finish(ctx.f, m, tag, region, witness, checks, 1, ctx.digits), "ok"


def certify_combined_report(ctx: Certifier, m: int) -> tuple[Optional[Certificate], str]:
    """Union region: the lens interval or the ray beyond vertex + 1/sin(pi/n);
    tries the lens criterion first, then the prime-value sector criterion
    with q = 1 (the context's q_max is only recorded), and records the branch
    that succeeded.  A refusal gives the ray's reason: both branches split
    the same f(m) at q = 1, so the ray's reason is never the less telling."""
    lens_cert, _ = certify_lens_report(ctx, m)
    if lens_cert is not None:
        return _as_combined(lens_cert, "lens", ctx.q_max), "ok"
    ray_cert, ray_reason = _sector_report(ctx, m, "pq", 1)
    if ray_cert is not None:
        return _as_combined(ray_cert, "ray", ctx.q_max), "ok"
    return None, ray_reason


def _as_combined(cert: Certificate, branch: str, q_max: int) -> Certificate:
    region = dict(cert.region, kind="combined", branch=branch)
    return cert._replace(criterion=CRIT_COMBINED, region=region, q_max=q_max)


# Mode -> the name of its criterion, looked up in globals() once per
# certify or search_m call (Certifier._criteria), so that wrappers installed
# on this module's functions apply.  The criteria stay self-contained: each
# checks its region and witness itself, and the decision enters one only
# when its witness exists.
_CRITERIA = {"lens": "certify_lens_report", "pq": "certify_sector_pq_report",
             "prime_power": "certify_sector_prime_power_report",
             "combined": "certify_combined_report"}


# -- entry points ----------------------------------------------------------------


def certify_any(f: Polynomial, m: int, q_max: int = 1,
                digits: int = DEFAULT_DIGITS,
                modes: Optional[Sequence[str]] = None,
                ) -> Optional[Certificate]:
    """First certificate from the enabled criteria in the standard order."""
    return Certifier(f, q_max, digits).certify(m, modes)[0]


class SearchOutcome(NamedTuple):
    m: int
    outcome: str  # certified | value-composite | outside-region | witness-absent
    detail: str


class SearchReport(NamedTuple):
    lo: int
    hi: int
    scanned_hi: int
    q_max: int
    outcomes: tuple[SearchOutcome, ...]
    certificate: Optional[Certificate]


def _classify(reasons: list[str]) -> tuple[str, str]:
    if "outside-region" in reasons:
        return "outside-region", "outside-region"
    if "value-composite" in reasons:
        return "value-composite", "value-composite"
    return "witness-absent", ";".join(sorted(set(reasons)))


# search_m keeps one outcome per scanned m, so the span of one search is capped.
MAX_SEARCH_SPAN = 10**5


def _check_search_range(lo: int, hi: int) -> None:
    if not 1 <= lo <= hi:
        raise ValueError("search range must satisfy 1 <= lo <= hi")
    if hi - lo + 1 > MAX_SEARCH_SPAN:
        raise ValueError(f"search range spans {hi - lo + 1} values; "
                         f"at most {MAX_SEARCH_SPAN} are allowed")


def search_m(f: Polynomial, lo: int, hi: int, q_max: int = 1,
             modes: Optional[Sequence[str]] = None,
             digits: int = DEFAULT_DIGITS,
             exhaustive: bool = False) -> SearchReport:
    """Scan m ascending through one Certifier, whose modes are checked
    once for the whole range; stops at the first certificate unless
    exhaustive.  The range may span at most MAX_SEARCH_SPAN values."""
    _check_search_range(lo, hi)
    _validate_sector_input(f)

    ctx = Certifier(f, q_max, digits)
    criteria = ctx._criteria(modes)
    outcomes: list[SearchOutcome] = []
    certificate = None
    scanned_hi = lo - 1
    for m in range(lo, hi + 1):
        scanned_hi = m
        cert, reasons = ctx._decide(m, criteria)
        if cert is None:
            outcomes.append(SearchOutcome(m, *_classify(reasons)))
            continue
        outcomes.append(SearchOutcome(m, "certified", cert.criterion))
        if certificate is None:
            certificate = cert
        if not exhaustive:
            break
    return SearchReport(lo, hi, scanned_hi, q_max, tuple(outcomes), certificate)


def _negated_form(f: Polynomial) -> Polynomial:
    """+-f(-X), sign chosen so the leading coefficient is positive; shares
    irreducibility with f."""
    g = f.negate_argument()
    return -g if g.leading_coefficient() < 0 else g


def _restated(cert: Optional[Certificate], f: Polynomial, m: int) -> Optional[Certificate]:
    """A certificate for +-f(-X) at -m restated for f at m."""
    if cert is None:
        return None
    return cert._replace(polynomial=f, m=m, negated_argument=True)


def certify_negative_m(f: Polynomial, m: int, q_max: int = 1,
                       digits: int = DEFAULT_DIGITS,
                       modes: Optional[Sequence[str]] = None,
                       ) -> Optional[Certificate]:
    """Certify f at a negative integer m through +-f(-X) at -m; the returned
    certificate references the original polynomial and argument."""
    if m >= 0:
        raise ValueError("certify_negative_m expects m < 0")
    cert, _ = Certifier(_negated_form(f), q_max, digits).certify(-m, modes)
    return _restated(cert, f, m)


# -- replay -------------------------------------------------------------------

_REQUIRED_FIELDS = ("schema", "polynomial", "m", "criterion", "region", "witness",
                    "checks", "primality", "conditional", "q_max", "digits",
                    "negated_argument")


# The mode of the criterion that issues each tag.
_MODE_OF_TAG = {
    **dict.fromkeys((CRIT_THM_PQ, CRIT_THM_PQ_SQRT, CRIT_NONNEG, CRIT_PARTIAL_SUMS,
                     CRIT_LEADING_DOMINANT, CRIT_SINGLE_VARIATION), "pq"),
    **dict.fromkeys((CRIT_THM_POWER, CRIT_THM_POWER_SQRT), "prime_power"),
    **dict.fromkeys((CRIT_LENS, CRIT_LENS_COT), "lens"),
    CRIT_COMBINED: "combined",
}


def _fields(data) -> tuple[Polynomial, int, str, int, int, bool]:
    """(f, m, criterion, q_max, digits, negated) from certificate JSON;
    MalformedCertificateError when its structure is wrong: among them a
    top-level number that is not a JSON integer, and a polynomial, criterion
    or negated_argument of the wrong JSON type."""
    if not isinstance(data, dict):
        raise MalformedCertificateError("certificate must be a JSON object")
    missing = [k for k in _REQUIRED_FIELDS if k not in data]
    if missing:
        raise MalformedCertificateError(f"missing fields: {missing}")
    if data["schema"] != SCHEMA_VERSION:
        raise MalformedCertificateError(f"unsupported schema {data['schema']!r}")
    for key in ("schema", "m", "q_max", "digits"):
        if type(data[key]) is not int:
            raise MalformedCertificateError(f"bad field: {key} is not a JSON integer")
    coeffs, criterion = data["polynomial"], data["criterion"]
    negated = data["negated_argument"]
    if type(coeffs) is not list or any(type(c) is not int for c in coeffs):
        raise MalformedCertificateError("bad field: polynomial is not a list of JSON integers")
    if type(criterion) is not str:
        raise MalformedCertificateError("bad field: criterion is not a JSON string")
    if type(negated) is not bool:
        raise MalformedCertificateError("bad field: negated_argument is not a JSON boolean")
    m, q_max, digits = data["m"], data["q_max"], data["digits"]
    if not (1 <= digits <= MAX_DIGITS and 1 <= q_max <= MAX_Q_MAX):
        raise MalformedCertificateError("digits or q_max out of range")
    if criterion not in _MODE_OF_TAG:
        raise MalformedCertificateError(f"unknown criterion {criterion!r}")
    return Polynomial(coeffs), m, criterion, q_max, digits, negated


def _rebuild(ctx: Certifier, m: int, criterion: str) -> Optional[Certificate]:
    """The certificate the criterion issues at m on ctx now, or None when it
    issues none or raises ValueError."""
    try:
        return globals()[_CRITERIA[_MODE_OF_TAG[criterion]]](ctx, m)[0]
    except ValueError:
        return None


# The modulus of replay's witness check: the Mersenne prime 2^61 - 1.
_MODULUS = (1 << 61) - 1


def _witness_fits(ctx: Certifier, m: int, witness, mode: str) -> bool:
    """Whether the witness object has JSON integers p >= 2, k >= 1, q >= 1
    with p^k * q = f(m) modulo 2^61 - 1, f = ctx.f.  f is evaluated at m by
    Horner's rule over residues, so the test costs O(deg f + log k) steps
    whatever the size of m, the coefficients or k; only a witness that
    passes it has f(m) evaluated exactly, once, for replay to adopt.
    Every witness replay rebuilds passes, so False is replay's verdict too.
    ctx adopts f(m), and for a pq or prime_power criterion at q_max > 1000
    whose witness is p * q with k = 1, q <= q_max < p and p proven prime,
    the split built from q (arith._seeded_split)."""
    if type(witness) is not dict:
        return False
    p, k, q = witness.get("p"), witness.get("k"), witness.get("q")
    if not (type(p) is int and type(k) is int and type(q) is int
            and p >= 2 and k >= 1 and q >= 1):
        return False
    residue, x = 0, m % _MODULUS
    for c in reversed(ctx.f.coeffs):
        residue = (residue * x + c) % _MODULUS
    if residue != pow(p, k, _MODULUS) * q % _MODULUS:
        return False
    value = ctx.f.evaluate(m)
    split = None
    if (mode in ("pq", "prime_power") and k == 1 and q <= ctx.q_max
            and 1000 < ctx.q_max < p < DETERMINISTIC_LIMIT and p * q == value):
        res = is_prime(p)
        if res.status is PrimalityStatus.PROVEN_PRIME:
            split = _seeded_split(p, q, ctx.q_max, res)
    ctx._adopt(m, value, split)
    return True


def _same_types(a, b) -> bool:
    """Whether the equal JSON values a and b also agree in type throughout:
    == holds between True, 1 and 1.0."""
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return all(map(_same_types, a.values(), map(b.__getitem__, a)))
    return type(a) is not list or all(map(_same_types, a, b))


def certificate_verify(cert) -> bool:
    """Check the recorded witness, then re-derive every recorded quantity.

    The witness is checked first (_witness_fits), on the negated form
    +-f(-X) at -m when negated_argument is set, before any region or split
    is built.  The certificate is then recomputed at its recorded
    precision, on the same form, and must match field for field, in value
    and in type; that pins the criterion tag, and every recorded inequality
    is proved from outward-rounded enclosures at those digits.  Structural
    problems raise MalformedCertificateError; any mismatch returns False.
    """
    data = cert.to_json() if isinstance(cert, Certificate) else cert
    f, m, criterion, q_max, digits, negated = _fields(data)
    g, k = (_negated_form(f), -m) if negated else (f, m)
    ctx = Certifier(g, q_max, digits)
    if not _witness_fits(ctx, k, data["witness"], _MODE_OF_TAG[criterion]):
        return False
    replay = _rebuild(ctx, k, criterion)
    if replay is None:
        return False
    rebuilt = (_restated(replay, f, m) if negated else replay).to_json()
    return rebuilt == data and _same_types(rebuilt, data)
