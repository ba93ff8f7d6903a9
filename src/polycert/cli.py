"""Command-line surface: analyze regions, certify, search, scan families,
verify certificates, and emit JSON or SVG.

Exit codes: 0 success (certificate issued / verification passed), 1 no
certificate (or verification failed), 2 input error, 3 internal error (an
unexpected exception, reported in one line; never a verdict), 141 stdout
closed by its reader (128 + SIGPIPE, as a shell reports it; nothing printed).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional, Sequence

from .arith import MAX_Q_MAX, is_prime, next_prime
from .certify import (DEFAULT_MODES, Certificate, Certifier,
                      MalformedCertificateError, _check_search_range,
                      certificate_verify, certify_any, certify_negative_m,
                      search_m)
from .lens import interval_cot, interval_disk_in_lens
from .poly import ParseError, Polynomial, parse_polynomial
from .rounding import DEFAULT_DIGITS, MAX_DIGITS

ENV_DIGITS = "POLYCERT_DIGITS"


def _env_digits() -> int:
    """The default --digits: POLYCERT_DIGITS when set, which must then be an
    integer in 1..MAX_DIGITS."""
    raw = os.environ.get(ENV_DIGITS)
    if raw is None:
        return DEFAULT_DIGITS
    try:
        val = int(raw)
    except ValueError:
        val = 0
    if not 1 <= val <= MAX_DIGITS:
        raise ValueError(f"{ENV_DIGITS} must be an integer in 1..{MAX_DIGITS}, got {raw!r}")
    return val


def _build_parser() -> tuple[argparse.ArgumentParser, set[str]]:
    """The parser, and the option strings of its commands."""
    parser = argparse.ArgumentParser(
        prog="polycert", allow_abbrev=False,
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

    pa = sub.add_parser("analyze", allow_abbrev=False,
                        help="report zero-free sectors, lens, intervals")
    add_poly_args(pa)
    pa.add_argument("--plot", help="write an SVG of sector, lens and numeric roots")

    pc = sub.add_parser("certify", allow_abbrev=False,
                        help="issue an irreducibility certificate")
    add_poly_args(pc)
    pc.add_argument("--m", type=int, help="integer argument to certify at")
    pc.add_argument("--search", help="scan a range LO..HI for the first certificate")
    pc.add_argument("--q-max", type=int, default=1, dest="q_max",
                    help="largest admissible cofactor q in f(m) = p^k*q")
    pc.add_argument("--prime-power", action="store_true",
                    help="use only the prime-power criterion")
    pc.add_argument("--negative-m", action="store_true",
                    help="allow negative m (certifies through f(-X))")

    ps = sub.add_parser("scan", allow_abbrev=False,
                        help="certify a declarative family of polynomials")
    ps.add_argument("family", nargs="?", help="path to a family descriptor JSON file")
    ps.add_argument("--family-json", help="inline family descriptor JSON")
    ps.add_argument("--digits", type=int)
    ps.add_argument("--json", action="store_true")

    pv = sub.add_parser("verify", allow_abbrev=False,
                        help="replay a certificate file")
    pv.add_argument("certificate", help="path to a certificate JSON file")
    options = {s for p in sub.choices.values() for s in p._option_string_actions}
    return parser, options


def _is_polynomial(arg: str) -> bool:
    """Whether a command-line argument that starts with a minus sign is a
    polynomial (an expression in X or a coefficient list), not an option."""
    return arg[:1] == "-" and (arg[1:2].isdigit() or arg[1:2] != "-" and "x" in arg.lower())


def _parse_poly_args(args) -> Polynomial:
    if (args.polynomial is None) == (args.coeffs is None):
        raise ParseError("provide exactly one polynomial source "
                         "(positional expression or --coeffs)", 0)
    return parse_polynomial(args.coeffs if args.coeffs is not None else args.polynomial)


# -- analyze -------------------------------------------------------------------

# analyze prints every coefficient and bound in decimal, and Python turns no
# int of more than sys.get_int_max_str_digits() digits (4300 by default, 0
# for no limit) into text.  The bounds run at most a few digits longer than
# the largest coefficient, so analyze takes coefficients of up to this many
# digits fewer than that limit.
ANALYZE_DIGIT_MARGIN = 100


def _check_printable(f: Polynomial) -> None:
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and any(abs(c) >= 10 ** (limit - ANALYZE_DIGIT_MARGIN) for c in f.coeffs):
        raise ValueError(f"analyze prints coefficients of at most {limit - ANALYZE_DIGIT_MARGIN} "
                         f"digits (Python converts ints of at most {limit} digits to text)")


def _analyze_payload(ctx: Certifier) -> dict:
    f, digits = ctx.f, ctx.digits
    payload: dict = {"polynomial": list(f.coeffs), "degree": f.degree()}
    payload["sectors"] = [s.to_json() for s in ctx.sectors]
    payload["best_sector"] = ctx.sector.to_json()
    payload["sign_blocks"] = [
        {"pos_hi": b.pos_hi, "pos_lo": b.pos_lo, "neg_hi": b.neg_hi,
         "neg_lo": b.neg_lo, "pos_sum": b.pos_sum, "neg_sum": b.neg_sum}
        for b in ctx.plan.partition.blocks
    ]
    lens, _, note = ctx.lens_status
    payload["lens"] = None if lens is None else lens.to_json()
    payload["lens_note"] = note
    payload["intervals"] = []
    if lens is not None:
        for fn in (interval_disk_in_lens, interval_cot):
            try:
                payload["intervals"].append(fn(lens, digits).to_json())
            except ValueError as exc:
                payload["intervals"].append({"source": fn.__name__, "note": str(exc)})
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
    if payload["sign_blocks"]:
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


def _cmd_analyze(args) -> int:
    ctx = Certifier(args.poly, digits=args.digits)
    payload = _analyze_payload(ctx)
    if args.plot:
        svg = _svg(ctx)
        try:
            with open(args.plot, "w", encoding="utf-8") as fh:
                fh.write(svg)
        except OSError as exc:
            print(f"cannot write plot: {exc}", file=sys.stderr)
            return 2
        payload["plot"] = args.plot
    if args.json:
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


def _cmd_certify(args) -> int:
    if args.search is not None:
        report = search_m(args.poly, *args.search, args.q_max, args.modes, args.digits)
        cert = report.certificate
        if cert is None and not args.json:
            for o in report.outcomes:
                print(f"m={o.m}: {o.outcome} ({o.detail})", file=sys.stderr)
    else:
        certify = certify_negative_m if args.m < 0 else certify_any
        cert = certify(args.poly, args.m, args.q_max, args.digits, args.modes)
    if cert is None:
        print("no certificate found", file=sys.stderr)
        return 1
    _print_certificate(cert, args.json)
    return 0


# -- scan ----------------------------------------------------------------------


# Budgets on one family descriptor, checked before any certification: the
# rows it may produce (and the values of a that quartic_reciprocal walks) ...
MAX_SCAN_ROWS = 1000
# ... and the exponent K of value_shift: on a 2 vCPU Xeon with Python 3.11,
# X^2+X+1 at m = 4 takes ~0.4 ms a row at K = 256 and ~2 ms at K = 1024.
MAX_SHIFT_EXPONENT = 1024
# ... and the bit length of m, prime_lo, prime_hi, a_lo, a_hi and of every
# coefficient of the value_shift polynomial: a row's cost grows with the size
# of the numbers it certifies (value_shift of X^8+X+1 at one m of 64 bits:
# ~0.08 s a row, on the same machine).
MAX_DESCRIPTOR_BITS = 64
# ... and the bits of p^exponent in a value_shift row, estimated as
# exponent * (bit_length(first p tried) + 1), and of f(m).  Even with p grown
# over MAX_SCAN_ROWS primes, p^exponent - f(m) stays below Python's
# 4300-digit limit on int -> str conversion (~14300 bits; at worst ~13500,
# from p < 1024 at exponent 1024).
MAX_SHIFT_BITS = 12000
# ... and the bits of the first p itself, which bound the time of a row:
# next_prime takes ~20 ms at 512 bits, ~0.5 s at 1024 and ~5 s at 2048.
# X^8+X+1 at m = 2^64 - 1 starts at exactly 512 bits (~0.06 s a row).
MAX_SHIFT_START_BITS = 512

# family -> (required fields, optional integer fields with their defaults)
_FAMILY_FIELDS = {
    "digit_polynomials": (("prime_lo", "prime_hi"), {"base": 10, "limit": 100}),
    "value_shift": (("polynomial", "m"), {"exponent": 1, "count": 10, "prime_lo": 2}),
    "quartic_reciprocal": (("a_lo", "a_hi"), {"per_a": 1}),
}
_SIZED_FIELDS = ("m", "prime_lo", "prime_hi", "a_lo", "a_hi")


def _horner(g: Polynomial, m: int, pos_bits: int, neg_bits: int) -> int:
    """g(m) by Horner's rule, unless a running value shows first that g(m) is
    positive with more than pos_bits bits, or negative with more than
    neg_bits: then that running value, which has the sign of g(m) and at
    most its bits.  With m >= 2 and every |coefficient| below 2^c, a running
    value of at least 2^(c+1) never shrinks again and keeps its sign, so one
    of more than max(bits, c) + 1 bits settles it."""
    c = max(abs(a).bit_length() for a in g.coeffs)
    pos, neg = max(pos_bits, c) + 1, max(neg_bits, c) + 1
    value = 0
    for a in reversed(g.coeffs):
        value = value * m + a
        if m > 1 and value.bit_length() > (pos if value > 0 else neg):
            break
    return value


def _shift_start(f: Polynomial, m: int, k: int, prime_lo: int) -> int:
    """The first p a value_shift scan tries is the next prime from here.
    Raises ValueError once this start is known to have more than
    MAX_SHIFT_START_BITS bits, or f(m), which every row's constant term
    p^k - f(m) carries, more than MAX_SHIFT_BITS.  Both may be known before
    Horner's rule is done."""
    fm = _horner(f, m, MAX_SHIFT_START_BITS if k == 1 else MAX_SHIFT_BITS,
                 MAX_SHIFT_BITS)
    if k == 1:
        # large enough to keep both the non-negative-coefficient and the
        # non-negative-partial-sums constructions valid; as shift > -2^c, a
        # positive value that stopped Horner's rule early still gives a
        # start of more than MAX_SHIFT_START_BITS bits
        value, shift = fm, -min(f.evaluate(0), f.evaluate(1))
    else:
        # a negative f'(m) starts at max(2, prime_lo), whatever its size
        value, shift = _horner(f.derivative(), m, MAX_SHIFT_START_BITS, 0), 1
    start = max(2, value + shift, prime_lo)
    if start.bit_length() > MAX_SHIFT_START_BITS:
        raise ValueError(f"the first p would have more than {MAX_SHIFT_START_BITS} bits")
    if abs(fm).bit_length() > MAX_SHIFT_BITS:
        raise ValueError(f"f(m) would have more than {MAX_SHIFT_BITS} bits, the "
                         "budget of a row's constant term p^exponent - f(m)")
    return start


def _family_params(desc) -> tuple[str, dict]:
    """The family kind and its fields, defaults filled in, and for
    value_shift the parsed polynomial and the first p to try ("start").
    Raises ValueError when the descriptor is malformed or over budget."""
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
        coeff_bits = max(abs(c).bit_length() for c in f.coeffs)
        if coeff_bits > MAX_DESCRIPTOR_BITS:
            raise ValueError(f"value_shift polynomial has a coefficient of {coeff_bits} "
                             f"bits; at most {MAX_DESCRIPTOR_BITS} are allowed")
        if params["m"] < 1:
            raise ValueError("value_shift needs m >= 1")
        k = params["exponent"]
        if not 1 <= k <= MAX_SHIFT_EXPONENT:
            raise ValueError(f"exponent must be in 1..{MAX_SHIFT_EXPONENT}")
        params["start"] = _shift_start(f, params["m"], k, params["prime_lo"])
        bits = k * (params["start"].bit_length() + 1)
        if bits > MAX_SHIFT_BITS:
            raise ValueError(f"p^exponent would have about {bits} bits; at most "
                             f"{MAX_SHIFT_BITS} are allowed")
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


def _family_instances(kind: str, params: dict):
    """(row fields, polynomial, m, modes) for each instance of a checked
    family, in row order."""
    if kind == "digit_polynomials":
        base = params["base"]
        p = params["prime_lo"] - 1
        for _ in range(params["limit"]):
            p = next_prime(p)
            if p > params["prime_hi"]:
                return
            digits_of_p = []
            t = p
            while t:
                digits_of_p.append(t % base)
                t //= base
            yield {"prime": p}, Polynomial(digits_of_p), base, None
    elif kind == "value_shift":
        f, m, k = params["polynomial"], params["m"], params["exponent"]
        fm = f.evaluate(m)
        p = params["start"] - 1
        modes = ("lens", "pq") if k == 1 else ("prime_power",)
        for _ in range(params["count"]):
            p = next_prime(p)
            yield {"p": p}, f + (p**k - fm), m, modes
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
                yield {"a": a, "b": b}, Polynomial([b, 0, 0, -a, 1]), 3, None


def _run_scan(kind: str, params: dict, digits: int) -> dict:
    """Certify each instance of a family checked by _family_params."""
    rows = []
    for fields, f, m, modes in _family_instances(kind, params):
        cert = certify_any(f, m, 1, digits, modes)
        rows.append({**fields, "polynomial": f.coeffs_csv(),
                     "status": "certified" if cert else "not-certified",
                     "criterion": cert.criterion if cert else None})
    certified = sum(1 for r in rows if r["status"] == "certified")
    return {"family": kind, "rows": rows, "certified": certified,
            "total": len(rows)}


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
    one over MAX_SCAN_ROWS rows, MAX_SHIFT_EXPONENT, MAX_DESCRIPTOR_BITS,
    MAX_SHIFT_BITS or MAX_SHIFT_START_BITS, raises ValueError.
    """
    return _run_scan(*_family_params(desc), digits)


def _cmd_scan(args) -> int:
    report = _run_scan(*args.family, args.digits)
    if args.json:
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


def _cmd_verify(args) -> int:
    try:
        with open(args.certificate, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
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


_SVG_WIDTH, _SVG_HEIGHT = 800, 600


def render_svg(f: Polynomial, digits: int = DEFAULT_DIGITS) -> str:
    """Deterministic SVG of the best sector, the lens (when defined), and the
    numerically approximated roots.  Raises ValueError when a coordinate of
    the picture falls outside the float range."""
    return _svg(Certifier(f, digits=digits))


def _svg(ctx: Certifier) -> str:
    try:
        return _draw(ctx)
    except OverflowError:
        raise ValueError("the plot's coordinates fall outside the float range; "
                         "no plot written") from None


def _num(x: float) -> str:
    if not math.isfinite(x):
        raise OverflowError(x)
    return f"{x:.6f}"


def _draw(ctx: Certifier) -> str:
    width, height = _SVG_WIDTH, _SVG_HEIGHT
    best = ctx.sector
    v = float(best.vertex.upper)
    theta = best.half_angle_radians()
    lens = ctx.lens_status[0]
    from .oracles import roots_numeric  # numeric, for the picture only
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
        return _num(20 + (x - x_min) * scale)

    def py(y: float) -> str:
        return _num(height / 2 - y * scale)

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
        r = _num(1 / (2 * vt * math.sin(math.pi / lens.n)) * scale)
        tip = 1 / vt
        parts.append(
            f'<path d="M {px(0)} {py(0)} A {r} {r} 0 0 1 {px(tip)} {py(0)} '
            f'A {r} {r} 0 0 1 {px(0)} {py(0)} Z" '
            'fill="seagreen" fill-opacity="0.25" stroke="seagreen"/>')
    for z in roots:
        parts.append(f'<circle cx="{px(z.real)}" cy="{py(z.imag)}" r="4" '
                     'fill="crimson"/>')
    parts.append(f'<circle cx="{px(v)}" cy="{py(0)}" r="3" fill="steelblue"/>')
    parts.append("</svg>")
    return "\n".join(parts)


# -- entry ------------------------------------------------------------------------


def _check_args(args) -> None:
    """Validate the parsed arguments and fill in what the commands read:
    digits (from POLYCERT_DIGITS when --digits is absent), poly, modes, the
    --search pair and the checked family as (kind, params)."""
    if args.command != "verify":
        if args.digits is None:
            args.digits = _env_digits()
        if not 1 <= args.digits <= MAX_DIGITS:
            raise ValueError(f"--digits must be between 1 and {MAX_DIGITS}")
    if args.command in ("analyze", "certify"):
        args.poly = _parse_poly_args(args)
    if args.command == "analyze":
        _check_printable(args.poly)
    if args.command == "certify":
        if not 1 <= args.q_max <= MAX_Q_MAX:
            raise ValueError(f"--q-max must be in 1..{MAX_Q_MAX}")
        args.modes = ("prime_power",) if args.prime_power else DEFAULT_MODES
        if (args.m is None) == (args.search is None):
            raise ValueError("provide exactly one of --m or --search LO..HI")
        if args.m is not None and args.m < 0 and not args.negative_m:
            raise ValueError("negative m requires --negative-m")
        if args.search is not None:
            try:
                lo, hi = args.search.split("..")
                args.search = (int(lo), int(hi))
            except ValueError:
                raise ValueError("--search wants LO..HI") from None
            _check_search_range(*args.search)
    if args.command == "scan":
        if (args.family is None) == (args.family_json is None):
            raise ValueError("provide exactly one family source")
        try:
            if args.family_json is not None:
                desc = json.loads(args.family_json)
            else:
                with open(args.family, "r", encoding="utf-8") as fh:
                    desc = json.load(fh)
        except RecursionError as exc:  # JSON nested past the recursion limit
            raise ValueError(f"family descriptor: {exc}") from None
        args.family = _family_params(desc)


def _run(args) -> int:
    """Check the arguments and run the command: exit 0, 1 or 2."""
    try:
        _check_args(args)
    except (ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    dispatch = {"analyze": _cmd_analyze, "certify": _cmd_certify,
                "scan": _cmd_scan, "verify": _cmd_verify}
    try:
        return dispatch[args.command](args)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # let polynomials start with a minus sign: argparse takes "-1,0,1" or
    # "-10*X^3+X^4+2162" for an option but " -1,0,1" for a value, whose space
    # is then dropped.  One after an option the parser does not know stays as
    # typed, so that both are reported as unrecognized.
    parser, options = _build_parser()
    minus = {a for prev, a in zip(["", *argv], argv) if _is_polynomial(a)
             and not (prev[:1] == "-" and not _is_polynomial(prev)
                      and "=" not in prev and prev not in options)}
    args = parser.parse_args([" " + a if a in minus else a for a in argv])
    for name, value in list(vars(args).items()):
        if isinstance(value, str) and value[:1] == " " and value[1:] in minus:
            setattr(args, name, value[1:])
    try:
        return _run(args)
    except BrokenPipeError:
        # the reader of stdout has gone (`| head`): drop the rest silently,
        # and leave the interpreter's final flush nothing to fail on
        sys.stdout = open(os.devnull, "w")
        return 141
    except Exception as exc:  # exit codes 0 and 1 are verdicts, so never these
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
