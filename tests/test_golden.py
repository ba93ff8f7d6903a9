"""Golden outputs recorded before the certify layer was restructured around a
per-polynomial context.  Every entry of golden.json must keep coming out
exactly as recorded: certificate JSON, search outcomes, `analyze --json`
output and input errors.  A difference is a behaviour change, so the data
file is never regenerated to make this test pass.
"""
import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from polycert.certify import (certificate_verify, certify_any,
                              certify_negative_m, search_m)
from polycert.cli import main, render_svg
from polycert.poly import Polynomial, parse_polynomial as P

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text(encoding="utf-8"))
FLAGSHIP = P("X^4-10*X^3+2162")


def _digit_polynomial(p: int) -> Polynomial:
    digits = []
    while p:
        digits.append(p % 10)
        p //= 10
    return Polynomial(digits)


CERTIFICATES = {
    "lens flagship m=3": lambda: certify_any(FLAGSHIP, 3, modes=("lens",)),
    "pq X^3+9X^2+7X+3 m=10": lambda: certify_any(P("X^3+9*X^2+7*X+3"), 10, modes=("pq",)),
    "pq 3X^5+X^4-2X^3+X^2-3X+1 m=3":
        lambda: certify_any(P("3*X^5+X^4-2*X^3+X^2-3*X+1"), 3, modes=("pq",)),
    "pq 2X^4+2X^3-2X-1 m=4": lambda: certify_any(P("2*X^4+2*X^3-2*X-1"), 4, modes=("pq",)),
    "pq X^2+3 m=3 q_max=4": lambda: certify_any(P("X^2+3"), 3, q_max=4, modes=("pq",)),
    "pq X^2+1 m=5 q_max=2": lambda: certify_any(P("X^2+1"), 5, q_max=2, modes=("pq",)),
    "prime_power X^3+3X+29 m=5": lambda: certify_any(P("X^3+3*X+29"), 5, modes=("prime_power",)),
    "prime_power X^2+2 m=5": lambda: certify_any(P("X^2+2"), 5, modes=("prime_power",)),
    "prime_power X^2+X+1 m=2": lambda: certify_any(P("X^2+X+1"), 2, modes=("prime_power",)),
    "negative X^2+X+1 m=-3": lambda: certify_negative_m(P("X^2+X+1"), -3),
    "any flagship m=3 digits=50": lambda: certify_any(FLAGSHIP, 3, digits=50),
    "any flagship m=13 q_max=3": lambda: certify_any(FLAGSHIP, 13, q_max=3),
    **{f"any digit polynomial of {p} m=10": (lambda p=p: certify_any(_digit_polynomial(p), 10))
       for p in (1973, 10007, 52361, 99991)},
}

SEARCHES = {
    "(X^2+1)*(X^2+3)": P("(X^2+1)*(X^2+3)"),
    "(X-3)*(X^2+X+7)": P("(X-3)*(X^2+X+7)"),
    "(X-2)*(X^4-10*X^3+2162)": P("(X-2)*(X^4-10*X^3+2162)"),
    "(X^2-7*X+300)*(X^2-2*X+50)": P("(X^2-7*X+300)*(X^2-2*X+50)"),
    "(X^3-20*X^2+3000)*(X+7)": P("(X^3-20*X^2+3000)*(X+7)"),
}

ANALYZED = ["X^4-10*X^3+2162", "X^2+X+1", "X^3-2*X^2+5*X", "X^3+2*X^2+3*X+4",
            "X^3-2*X^2+4*X-21"]

BAD_INPUTS = {
    "degree 1": lambda: certify_any(P("X+1"), 3),
    "degree 1, search": lambda: search_m(P("X+1"), 1, 5),
    "leading coefficient negative": lambda: certify_any(P("5-X^2"), 3),
    "leading coefficient negative, lens tried first":
        lambda: certify_any(P("-X^4+10*X^3-2162"), 3),
    "leading coefficient negative, search": lambda: search_m(P("5-X^2"), 1, 5),
    "m=0": lambda: certify_any(FLAGSHIP, 0),
    "m=0, no lens": lambda: certify_any(P("X^2+X+1"), 0),
    "m=0, pq only": lambda: certify_any(FLAGSHIP, 0, modes=("pq",)),
    "m=0, search": lambda: search_m(FLAGSHIP, 0, 5),
    "m=0, negative-argument": lambda: certify_negative_m(FLAGSHIP, 0),
}


def _outcomes(report) -> list:
    return [[o.m, o.outcome, o.detail] for o in report.outcomes]


@pytest.mark.parametrize("label", sorted(CERTIFICATES))
def test_certificate_json(label):
    cert = CERTIFICATES[label]()
    assert cert is not None
    assert cert.to_json() == GOLDEN["certificates"][label]


@pytest.mark.parametrize("index", range(len(GOLDEN["combined"])))
def test_combined_certificate_replays_exactly(index):
    # certificate_verify rebuilds the certificate and compares it field for
    # field, so this pins the combined criterion's output, q_max included
    data = GOLDEN["combined"][index]
    assert data["criterion"] == "cor312_combined"
    assert certificate_verify(json.loads(json.dumps(data)))


def test_fuzz_certificates(fuzz_corpus):
    certs = []
    for f in fuzz_corpus[:300]:
        for m in range(1, 11):
            cert = certify_any(f, m, 3)
            if cert is not None:
                certs.append(cert.to_json())
    digest = hashlib.sha256(json.dumps(certs, sort_keys=True).encode()).hexdigest()
    assert [len(certs), digest] == GOLDEN["fuzz"]


def test_search_outcomes():
    got = {"flagship 1..20 exhaustive": _outcomes(search_m(FLAGSHIP, 1, 20, exhaustive=True))}
    for label, f in SEARCHES.items():
        for q_max in (1, 3):
            got[f"{label} 1..30 q_max={q_max}"] = _outcomes(search_m(f, 1, 30, q_max))
    assert got == GOLDEN["search"]


@pytest.mark.parametrize("expr", ANALYZED)
def test_analyze_json(expr):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["analyze", expr, "--json"])
    assert [code, out.getvalue()] == GOLDEN["analyze"][expr]


@pytest.mark.parametrize("expr", ["X^4-10*X^3+2162", "X^2+X+1"])
def test_svg(expr):
    digest = hashlib.sha256(render_svg(P(expr)).encode()).hexdigest()
    assert digest == GOLDEN["svg"][expr]


@pytest.mark.parametrize("label", sorted(BAD_INPUTS))
def test_bad_input_errors(label):
    with pytest.raises(Exception) as info:
        BAD_INPUTS[label]()
    assert [type(info.value).__name__, str(info.value)] == GOLDEN["errors"][label]


def test_lens_only_on_degree_one_returns_none():
    assert GOLDEN["lens_only_degree_1"] is None
    assert certify_any(P("X+1"), 3, modes=("lens",)) is None
    assert certify_any(P("X+1"), 0, modes=("lens",)) is None
