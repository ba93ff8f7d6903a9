"""Command-line surface: analyze regions, certify, search, scan families,
verify certificates, and emit JSON or SVG.

Exit codes: 0 success (certificate issued / verification passed), 1 no
certificate (or verification failed), 2 input error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .arith import is_prime, next_prime
from .certify import (DEFAULT_MODES, Certificate, Certifier,
                      MalformedCertificateError, _check_search_range,
                      certificate_verify, certify_any, certify_negative_m,
                      search_m)
from .lens import (combined_region, interval_cot, interval_disk_in_lens,
                   interval_effective)
from .oracles import roots_numeric
from .poly import ParseError, Polynomial, parse_polynomial, sign_blocks
from .rounding import DEFAULT_DIGITS

ENV_DIGITS = "POLYCERT_DIGITS"


@dataclass
class RunConfig:
    command: str
    poly: Optional[Polynomial] = None
    m: Optional[int] = None
    search: Optional[tuple[int, int]] = None
    q_max: int = 1
    modes: tuple[str, ...] = DEFAULT_MODES
    digits: int = DEFAULT_DIGITS
    json_out: bool = False
    plot: Optional[str] = None
    negative_m: bool = False
    family: Optional[dict] = None
    cert_path: Optional[str] = None


def _env_digits() -> int:
    """The default --digits: POLYCERT_DIGITS when set, which must then be an
    integer in 1..200."""
    raw = os.environ.get(ENV_DIGITS)
    if raw is None:
        return DEFAULT_DIGITS
    try:
        val = int(raw)
    except ValueError:
        val = 0
    if not 1 <= val <= 200:
        raise ValueError(f"{ENV_DIGITS} must be an integer in 1..200, got {raw!r}")
    return val


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polycert",
        description="Zero-free sectors and lens regions for integer polynomials, "
                    "with irreducibility certificates from prime values.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_poly_args(p):
        p.add_argument("polynomial", nargs="?",
                       help="expression in X, e.g. \"X^4-10*X^3+2162\"")
        p.add_argument("--coeffs", help="comma-separated coefficients a0,a1,...,an")
        p.add_argument("--digits", type=int,
                       help="relative precision of all rounded bounds (10^-digits); "
                            f"default ${ENV_DIGITS} or {DEFAULT_DIGITS}")
        p.add_argument("--json", action="store_true", help="emit JSON")

    pa = sub.add_parser("analyze", help="report zero-free sectors, lens, intervals")
    add_poly_args(pa)
    pa.add_argument("--plot", help="write an SVG of sector, lens and numeric roots")

    pc = sub.add_parser("certify", help="issue an irreducibility certificate")
    add_poly_args(pc)
    pc.add_argument("--m", type=int, help="integer argument to certify at")
    pc.add_argument("--search", help="scan a range LO..HI for the first certificate")
    pc.add_argument("--q-max", type=int, default=1, dest="q_max",
                    help="largest admissible cofactor q in f(m) = p^k*q")
    pc.add_argument("--prime-power", action="store_true",
                    help="use only the prime-power criterion")
    pc.add_argument("--negative-m", action="store_true",
                    help="allow negative m (certifies through f(-X))")

    ps = sub.add_parser("scan", help="certify a declarative family of polynomials")
    ps.add_argument("family", nargs="?", help="path to a family descriptor JSON file")
    ps.add_argument("--family-json", help="inline family descriptor JSON")
    ps.add_argument("--digits", type=int)
    ps.add_argument("--json", action="store_true")

    pv = sub.add_parser("verify", help="replay a certificate file")
    pv.add_argument("certificate", help="path to a certificate JSON file")
    return parser


def _parse_poly_args(args) -> Polynomial:
    if (args.polynomial is None) == (args.coeffs is None):
        raise ParseError("provide exactly one polynomial source "
                         "(positional expression or --coeffs)", 0)
    return parse_polynomial(args.coeffs if args.coeffs is not None else args.polynomial)


# -- analyze -------------------------------------------------------------------


def _analyze_payload(ctx: Certifier) -> dict:
    f, digits = ctx.f, ctx.digits
    payload: dict = {"polynomial": list(f.coeffs), "degree": f.degree()}
    payload["sectors"] = [s.to_json() for s in ctx.sectors]
    payload["best_sector"] = ctx.sector.to_json()
    if f.leading_coefficient() > 0:
        payload["sign_blocks"] = [
            {"pos_hi": b.pos_hi, "pos_lo": b.pos_lo, "neg_hi": b.neg_hi,
             "neg_lo": b.neg_lo, "pos_sum": b.pos_sum, "neg_sum": b.neg_sum}
            for b in sign_blocks(f).blocks
        ]
    lens, _, note = ctx.lens_status
    payload["lens"] = None if lens is None else lens.to_json()
    payload["lens_note"] = note
    payload["intervals"] = []
    if lens is not None:
        for fn in (interval_disk_in_lens, interval_cot, interval_effective):
            try:
                payload["intervals"].append(fn(lens, digits).to_json())
            except ValueError as exc:
                payload["intervals"].append({"source": fn.__name__, "note": str(exc)})
    if f.degree() >= 2:
        payload["combined"] = combined_region(ctx.sector, lens, digits).to_json()
    else:
        payload["combined"] = None
    return payload


def _print_analysis(payload: dict) -> None:
    print(f"polynomial: {Polynomial(payload['polynomial'])} "
          f"(degree {payload['degree']})")
    print("sectors:")
    for s in payload["sectors"]:
        print(f"  {s['method']:<20} vertex <= {s['vertex_upper']}  angle {s['angle']} "
              f"(n={s['n']})")
    b = payload["best_sector"]
    print(f"best sector: {b['method']} with vertex in "
          f"[{b['vertex_lower']}, {b['vertex_upper']}]")
    if payload.get("sign_blocks"):
        sums = []
        for blk in payload["sign_blocks"]:
            sums.append(f"S+={blk['pos_sum']}" + (
                f", S-={blk['neg_sum']}" if blk["neg_sum"] is not None else ""))
        print("sign blocks: " + " | ".join(sums))
    if payload["lens"] is not None:
        lj = payload["lens"]
        print(f"lens: reciprocal vertex in [{lj['v_tilde_lower']}, "
              f"{lj['v_tilde_upper']}] via {lj['method']}")
        for it in payload["intervals"]:
            if "note" in it:
                print(f"  {it['source']}: {it['note']}")
            else:
                print(f"  {it['source']}: ({it['lo']}, {it['hi']})"
                      + (" [empty]" if it["empty"] else ""))
    elif payload["lens_note"]:
        print(f"lens: {payload['lens_note']}")
    comb = payload["combined"]
    if comb is not None:
        print(f"combined region: ray m > {comb['ray_lo']}"
              + (f"; interval ({comb['intervals'][0]['lo']}, "
                 f"{comb['intervals'][0]['hi']})" if comb["intervals"] else ""))


def _cmd_analyze(cfg: RunConfig) -> int:
    ctx = Certifier(cfg.poly, digits=cfg.digits)
    payload = _analyze_payload(ctx)
    if cfg.plot:
        svg = _svg(ctx)
        with open(cfg.plot, "w", encoding="utf-8") as fh:
            fh.write(svg)
        payload["plot"] = cfg.plot
    if cfg.json_out:
        print(json.dumps(payload, indent=2))
    else:
        _print_analysis(payload)
    return 0


# -- certify -------------------------------------------------------------------


def _print_certificate(cert: Certificate, as_json: bool) -> None:
    if as_json:
        print(json.dumps(cert.to_json(), indent=2))
        return
    w = cert.witness
    head = "CONDITIONAL certificate" if cert.conditional else "certificate"
    print(f"{head}: {cert.polynomial} is irreducible over Q")
    print(f"  criterion {cert.criterion} at m = {cert.m}"
          + (" (via f(-X))" if cert.negated_argument else ""))
    value_desc = f"p = {w.p}" if w.k == 1 else f"p^k = {w.p}^{w.k}"
    if w.q != 1:
        value_desc += f", q = {w.q}"
    print(f"  value witness: {value_desc} ({cert.primality_status})")
    for c in cert.checks:
        cj = c.to_json()
        print(f"  check: {cj['description']}: {cj['left']} < {cj['right']} "
              f"(margin {cj['margin']})")


def _cmd_certify(cfg: RunConfig) -> int:
    f = cfg.poly
    if cfg.search is not None:
        report = search_m(f, cfg.search[0], cfg.search[1], cfg.q_max,
                          cfg.modes, cfg.digits)
        if report.certificate is not None:
            _print_certificate(report.certificate, cfg.json_out)
            return 0
        if not cfg.json_out:
            for o in report.outcomes:
                print(f"m={o.m}: {o.outcome} ({o.detail})", file=sys.stderr)
        print("no certificate found", file=sys.stderr)
        return 1
    m = cfg.m
    if m < 0:
        if not cfg.negative_m:
            print("negative m requires --negative-m", file=sys.stderr)
            return 2
        cert = certify_negative_m(f, m, cfg.q_max, cfg.digits, cfg.modes)
    else:
        cert = certify_any(f, m, cfg.q_max, cfg.digits, cfg.modes)
    if cert is None:
        print("no certificate found", file=sys.stderr)
        return 1
    _print_certificate(cert, cfg.json_out)
    return 0


# -- scan ----------------------------------------------------------------------


# Budgets on one family descriptor, checked before any certification: the
# rows it may produce (and the values of a that quartic_reciprocal walks) ...
MAX_SCAN_ROWS = 1000
# ... and the exponent K of value_shift, whose rows cost more than K^2: on a
# 2 vCPU Xeon with Python 3.11, X^2+X+1 at m = 4 takes ~0.01 s a row at
# K = 256 and ~0.2 s at K = 1024.
MAX_SHIFT_EXPONENT = 1024
# ... and the bit length of m, prime_lo, prime_hi, a_lo and a_hi: a row's
# cost grows with the size of the numbers it certifies (value_shift of
# X^8+X+1 at one m of 64 bits: ~0.08 s a row, on the same machine).
MAX_DESCRIPTOR_BITS = 64

# family -> (required fields, optional integer fields with their defaults)
_FAMILY_FIELDS = {
    "digit_polynomials": (("prime_lo", "prime_hi"), {"base": 10, "limit": 100}),
    "value_shift": (("polynomial", "m"), {"exponent": 1, "count": 10, "prime_lo": 2}),
    "quartic_reciprocal": (("a_lo", "a_hi"), {"per_a": 1}),
}
_SIZED_FIELDS = ("m", "prime_lo", "prime_hi", "a_lo", "a_hi")


def _family_params(desc) -> tuple[str, dict]:
    """The family kind and its fields, defaults filled in.  Raises ValueError
    when the descriptor is malformed or over budget."""
    if not isinstance(desc, dict):
        raise ValueError("family descriptor must be a JSON object")
    kind = desc.get("family")
    if not isinstance(kind, str) or kind not in _FAMILY_FIELDS:
        raise ValueError(f"unknown family kind {kind!r}")
    required, optional = _FAMILY_FIELDS[kind]
    missing = [k for k in required if k not in desc]
    if missing:
        raise ValueError(f"{kind} family needs {missing}")
    params = {**optional, **{k: v for k, v in desc.items() if k in required or k in optional}}
    for k, v in params.items():
        if k != "polynomial" and type(v) is not int:
            raise ValueError(f"{kind} field {k!r} must be an integer, got {v!r}")
        if k in _SIZED_FIELDS and v.bit_length() > MAX_DESCRIPTOR_BITS:
            raise ValueError(f"{kind} field {k!r} has {v.bit_length()} bits; at most "
                             f"{MAX_DESCRIPTOR_BITS} are allowed")
    if kind == "digit_polynomials":
        if params["base"] < 2:
            raise ValueError("base must be >= 2")
        if params["prime_lo"] < params["base"] ** 2:
            raise ValueError("prime_lo must be >= base^2, so every digit "
                             "polynomial has degree >= 2")
        rows = params["limit"]
    elif kind == "value_shift":
        if not isinstance(params["polynomial"], str):
            raise ValueError("value_shift field 'polynomial' must be a string")
        f = params["polynomial"] = parse_polynomial(params["polynomial"])
        if f.degree() < 2 or f.leading_coefficient() <= 0:
            raise ValueError("value_shift needs a polynomial of degree >= 2 with "
                             "a positive leading coefficient")
        if params["m"] < 1:
            raise ValueError("value_shift needs m >= 1")
        if not 1 <= params["exponent"] <= MAX_SHIFT_EXPONENT:
            raise ValueError(f"exponent must be in 1..{MAX_SHIFT_EXPONENT}")
        rows = params["count"]
    else:
        if params["a_lo"] < 1:
            raise ValueError("quartic_reciprocal needs a_lo >= 1")
        span = max(0, params["a_hi"] - params["a_lo"] + 1)
        if span > MAX_SCAN_ROWS:
            raise ValueError(f"a range spans {span} values; at most {MAX_SCAN_ROWS} "
                             "are allowed")
        rows = span * params["per_a"]
    if rows > MAX_SCAN_ROWS:
        raise ValueError(f"family asks for {rows} rows; at most {MAX_SCAN_ROWS} "
                         "are allowed")
    return kind, params


def scan_family(desc: dict, digits: int = DEFAULT_DIGITS) -> dict:
    """Run a declarative family and report one row per instance.

    Families:
      {"family": "digit_polynomials", "base": B, "prime_lo": L, "prime_hi": H,
       "limit": N}                       digit polynomials certified at m = B
      {"family": "value_shift", "polynomial": EXPR, "m": M, "exponent": K,
       "count": N, "prime_lo": optional} g = f + p^K - f(M) certified at M
      {"family": "quartic_reciprocal", "a_lo": .., "a_hi": .., "per_a": N}
                                         X^4 - a*X^3 + b certified at m = 3

    The descriptor is checked before any certification: a malformed one, or
    one over MAX_SCAN_ROWS rows, MAX_SHIFT_EXPONENT or MAX_DESCRIPTOR_BITS,
    raises ValueError.
    """
    kind, params = _family_params(desc)
    rows = []
    if kind == "digit_polynomials":
        base, hi = params["base"], params["prime_hi"]
        p = params["prime_lo"] - 1
        while len(rows) < params["limit"]:
            p = next_prime(p)
            if p > hi:
                break
            digits_of_p = []
            t = p
            while t:
                digits_of_p.append(t % base)
                t //= base
            f = Polynomial(digits_of_p)
            cert = certify_any(f, base, 1, digits)
            rows.append({"prime": p, "polynomial": f.coeffs_csv(),
                         "status": "certified" if cert else "not-certified",
                         "criterion": cert.criterion if cert else None})
    elif kind == "value_shift":
        f, m, k = params["polynomial"], params["m"], params["exponent"]
        fm = f.evaluate(m)
        if k == 1:
            # large enough to keep both the non-negative-coefficient and the
            # non-negative-partial-sums constructions valid
            start = max(2, fm - min(f.evaluate(0), f.evaluate(1)))
        else:
            start = max(2, f.derivative().evaluate(m) + 1)
        start = max(start, params["prime_lo"])
        p = start - 1
        modes = ("lens", "pq") if k == 1 else ("prime_power",)
        for _ in range(params["count"]):
            p = next_prime(p)
            g = f + (p**k - fm)
            cert = certify_any(g, m, 1, digits, modes)
            rows.append({"p": p, "polynomial": g.coeffs_csv(),
                         "status": "certified" if cert else "not-certified",
                         "criterion": cert.criterion if cert else None})
    else:
        for a in range(params["a_lo"], params["a_hi"] + 1):
            found = 0
            b = 216 * a
            while found < params["per_a"]:
                b += 1
                if 81 - 27 * a + b <= 1:
                    continue
                if not is_prime(81 - 27 * a + b).is_prime:
                    continue
                found += 1
                f = Polynomial([b, 0, 0, -a, 1])
                cert = certify_any(f, 3, 1, digits)
                rows.append({"a": a, "b": b, "polynomial": f.coeffs_csv(),
                             "status": "certified" if cert else "not-certified",
                             "criterion": cert.criterion if cert else None})
    certified = sum(1 for r in rows if r["status"] == "certified")
    return {"family": kind, "rows": rows, "certified": certified,
            "total": len(rows)}


def _cmd_scan(cfg: RunConfig) -> int:
    report = scan_family(cfg.family, cfg.digits)
    if cfg.json_out:
        print(json.dumps(report, indent=2))
    else:
        for row in report["rows"]:
            keys = [k for k in row if k not in ("status", "criterion", "polynomial")]
            params = ", ".join(f"{k}={row[k]}" for k in keys)
            crit = f" via {row['criterion']}" if row["criterion"] else ""
            print(f"{params}: {row['status']}{crit}")
        print(f"certified {report['certified']}/{report['total']}")
    return 0


# -- verify ---------------------------------------------------------------------


def _cmd_verify(cfg: RunConfig) -> int:
    try:
        with open(cfg.cert_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read certificate: {exc}", file=sys.stderr)
        return 2
    try:
        ok = certificate_verify(data)
    except MalformedCertificateError as exc:
        print(f"malformed certificate: {exc}", file=sys.stderr)
        return 2
    print("certificate verified" if ok else "certificate REJECTED")
    return 0 if ok else 1


# -- SVG ------------------------------------------------------------------------


def render_svg(f: Polynomial, digits: int = DEFAULT_DIGITS,
               width: int = 800, height: int = 600) -> str:
    """Deterministic SVG of the best sector, the lens (when defined), and the
    numerically approximated roots."""
    return _svg(Certifier(f, digits=digits), width, height)


def _svg(ctx: Certifier, width: int = 800, height: int = 600) -> str:
    best = ctx.sector
    v = float(best.vertex.upper)
    theta = best.half_angle_radians()
    lens = ctx.lens_status[0]
    roots = roots_numeric(ctx.f).roots

    xs = [0.0, v * 1.3 + 1] + [z.real for z in roots]
    ys = [1.0] + [abs(z.imag) for z in roots]
    if lens is not None:
        xs.append(float(1 / lens.v_tilde.lower) * 1.1)
    x_min, x_max = min(xs) - 1, max(xs) + 1
    y_max = max(ys) + 1
    span_x, span_y = x_max - x_min, 2 * y_max
    scale = min((width - 40) / span_x, (height - 40) / span_y)

    def px(x: float) -> str:
        return f"{20 + (x - x_min) * scale:.6f}"

    def py(y: float) -> str:
        return f"{height / 2 - y * scale:.6f}"

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<line x1="{px(x_min)}" y1="{py(0)}" x2="{px(x_max)}" y2="{py(0)}" '
             'stroke="black" stroke-width="1"/>',
             f'<line x1="{px(0)}" y1="{py(-y_max)}" x2="{px(0)}" y2="{py(y_max)}" '
             'stroke="black" stroke-width="1"/>']
    # sector wedge
    if theta >= math.pi / 2 - 1e-12:
        parts.append(f'<polygon points="{px(v)},{py(y_max)} {px(v)},{py(-y_max)} '
                     f'{px(x_max)},{py(-y_max)} {px(x_max)},{py(y_max)}" '
                     'fill="steelblue" fill-opacity="0.2" stroke="steelblue"/>')
    else:
        reach = x_max - v
        parts.append(f'<polygon points="{px(v)},{py(0)} '
                     f'{px(x_max)},{py(reach * math.tan(theta))} '
                     f'{px(x_max)},{py(-reach * math.tan(theta))}" '
                     'fill="steelblue" fill-opacity="0.2" stroke="steelblue"/>')
    # lens as two circular arcs meeting at 0 and 1/vt
    if lens is not None:
        vt = float((lens.v_tilde.lower + lens.v_tilde.upper) / 2)
        r = 1 / (2 * vt * math.sin(math.pi / lens.n)) * scale
        tip = 1 / vt
        parts.append(
            f'<path d="M {px(0)} {py(0)} A {r:.6f} {r:.6f} 0 0 1 {px(tip)} {py(0)} '
            f'A {r:.6f} {r:.6f} 0 0 1 {px(0)} {py(0)} Z" '
            'fill="seagreen" fill-opacity="0.25" stroke="seagreen"/>')
    for z in roots:
        parts.append(f'<circle cx="{px(z.real)}" cy="{py(z.imag)}" r="4" '
                     'fill="crimson"/>')
    parts.append(f'<circle cx="{px(v)}" cy="{py(0)}" r="3" fill="steelblue"/>')
    parts.append("</svg>")
    return "\n".join(parts)


# -- entry ------------------------------------------------------------------------


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig(command=args.command)
    if args.command != "verify":
        cfg.digits = _env_digits() if args.digits is None else args.digits
        if not 1 <= cfg.digits <= 200:
            raise ValueError("--digits must be between 1 and 200")
    cfg.json_out = getattr(args, "json", False)
    if args.command in ("analyze", "certify"):
        cfg.poly = _parse_poly_args(args)
    if args.command == "analyze":
        cfg.plot = args.plot
    if args.command == "certify":
        cfg.q_max = args.q_max
        if cfg.q_max < 1:
            raise ValueError("--q-max must be >= 1")
        cfg.negative_m = args.negative_m
        if args.prime_power:
            cfg.modes = ("prime_power",)
        if (args.m is None) == (args.search is None):
            raise ValueError("provide exactly one of --m or --search LO..HI")
        cfg.m = args.m
        if args.search is not None:
            try:
                lo, hi = args.search.split("..")
                cfg.search = (int(lo), int(hi))
            except ValueError:
                raise ValueError("--search wants LO..HI") from None
            _check_search_range(*cfg.search)
    if args.command == "scan":
        if (args.family is None) == (args.family_json is None):
            raise ValueError("provide exactly one family source")
        if args.family_json is not None:
            cfg.family = json.loads(args.family_json)
        else:
            with open(args.family, "r", encoding="utf-8") as fh:
                cfg.family = json.load(fh)
        _family_params(cfg.family)
    if args.command == "verify":
        cfg.cert_path = args.certificate
    return cfg


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # let --coeffs values start with a minus sign
    for i, a in enumerate(argv[:-1]):
        if a == "--coeffs":
            argv[i:i + 2] = [f"--coeffs={argv[i + 1]}"]
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except (ParseError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    dispatch = {"analyze": _cmd_analyze, "certify": _cmd_certify,
                "scan": _cmd_scan, "verify": _cmd_verify}
    try:
        return dispatch[cfg.command](cfg)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
