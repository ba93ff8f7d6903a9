"""Exact integer-coefficient polynomials and their sign data.

Coefficients are stored densely by exponent, constant term first, as
arbitrary-precision ints.  Everything in this module is exact: evaluation,
the shift by one, partial sums, and the sign bookkeeping that feeds the zero-free
region producers.
"""
from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

Rat = Union[int, Fraction]


class ParseError(ValueError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _as_int(c) -> int:
    if isinstance(c, Fraction):
        if c.denominator != 1:
            raise ValueError(f"non-integer coefficient {c}")
        return c.numerator
    return operator.index(c)


class Polynomial:
    """Dense integer polynomial a_0 + a_1*X + ... + a_n*X^n.

    Immutable; trailing zero coefficients are stripped so the stored leading
    coefficient is nonzero unless the polynomial is identically zero.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Sequence[Rat]):
        cs = [_as_int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- basic queries ------------------------------------------------------

    def degree(self) -> int:
        """Index of the last nonzero coefficient; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading_coefficient(self) -> int:
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def content(self) -> int:
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive_part(self) -> "Polynomial":
        c = self.content()
        if c <= 1:
            return self
        return Polynomial([a // c for a in self.coeffs])

    # -- exact operations ---------------------------------------------------

    def evaluate(self, x):
        """Horner evaluation; exact for int/Fraction x, works for complex too."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def reciprocal(self) -> "Polynomial":
        """Coefficient reversal a_n + a_{n-1}*X + ... + a_0*X^n.

        Requires a nonzero constant term (so the reversal is an involution)
        and degree >= 1.
        """
        if self.degree() < 1:
            raise ValueError("reciprocal needs degree >= 1")
        if self.coeffs[0] == 0:
            raise ValueError("reciprocal needs a nonzero constant term")
        return Polynomial(self.coeffs[::-1])

    def negate_argument(self) -> "Polynomial":
        """The polynomial with X replaced by -X."""
        return Polynomial([c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs)])

    # -- arithmetic (the parser's +, - and *, negation, and tests; powers are
    # _ExprParser.power, which charges the parse budget) -------------------

    def __add__(self, other: "Polynomial | int") -> "Polynomial":
        oc = other.coeffs if isinstance(other, Polynomial) else (int(other),)
        n = max(len(self.coeffs), len(oc))
        return Polynomial([self.coefficient(i) + (oc[i] if i < len(oc) else 0) for i in range(n)])

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial | int") -> "Polynomial":
        return self + (-other if isinstance(other, Polynomial) else -int(other))

    def __rsub__(self, other: int) -> "Polynomial":
        return (-self) + int(other)

    def __mul__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, Polynomial):
            if self.is_zero() or other.is_zero():
                return Polynomial([])
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            terms = [(j, b) for j, b in enumerate(other.coeffs) if b]
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in terms:
                        out[i + j] += a * b
            return Polynomial(out)
        return Polynomial([c * int(other) for c in self.coeffs])

    __rmul__ = __mul__

    # -- presentation -------------------------------------------------------

    def coeffs_csv(self) -> str:
        """Canonical coefficient-list form "a0,a1,...,an"."""
        if not self.coeffs:
            return "0"
        return ",".join(str(c) for c in self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = " - " if c < 0 else (" + " if parts else "")
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "X" if i == 1 else f"X^{i}"
                body = var if mag == 1 else f"{mag}*{var}"
            parts.append(f"{sign}{body}" if parts or c < 0 else body)
        out = "".join(parts)
        return out if not out.startswith(" - ") else "-" + out[3:]

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)


def _shift_by_one(cs: list[Rat]) -> list[Rat]:
    """Coefficients of p(X + 1), constant term first, by additions only."""
    cs = list(cs)
    n = len(cs) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            cs[j] += cs[j + 1]
    return cs


def divide_exact(f: Polynomial, g: Polynomial) -> Polynomial | None:
    """Quotient f/g when g divides f exactly over the integers, else None
    (long division in ints: a step that leaves them already means None)."""
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if f.is_zero():
        return Polynomial([])
    rem, lead, dg = list(f.coeffs), g.leading_coefficient(), g.degree()
    quo = [0] * (len(rem) - dg)
    for pos in range(len(quo) - 1, -1, -1):
        q, r = divmod(rem[pos + dg], lead)
        if r:
            return None
        quo[pos] = q
        if q:
            for j, b in enumerate(g.coeffs):
                rem[pos + j] -= q * b
    return Polynomial(quo) if quo and not any(rem) else None


# -- sign data -------------------------------------------------------------


class SignIndexSets(NamedTuple):
    """Indices of negative coefficients, positive indices above them, and the
    absolute value of the sum of the negative coefficients."""

    neg_indices: tuple[int, ...]
    pos_indices_above: tuple[int, ...]
    neg_sum_abs: int


class SignBlock(NamedTuple):
    """One maximal positive run followed by the next maximal negative run.

    Index bounds are inclusive exponent ranges over nonzero coefficients;
    the trailing block of a polynomial with an even number of sign changes
    has no negative part (neg_* fields are None).
    """

    pos_hi: int
    pos_lo: int
    neg_hi: int | None
    neg_lo: int | None
    pos_sum: int
    neg_sum: int | None

    def has_negative_part(self) -> bool:
        return self.neg_hi is not None


class SignBlockPartition(NamedTuple):
    blocks: tuple[SignBlock, ...]
    sign_changes: int


class PartialSums(NamedTuple):
    """The sums alpha^j*a_n + alpha^(j-1)*a_{n-1} + ... + a_{n-j}, j = 0..n."""

    alpha: Fraction
    sums: tuple[Rat, ...]
    all_nonneg: bool


def partial_sums(f: Polynomial, alpha: Rat) -> PartialSums:
    """The sums by one Horner pass, in ints when alpha is an integer."""
    if f.degree() < 1:
        raise ValueError("partial_sums needs degree >= 1")
    alpha = Fraction(alpha)
    if alpha < 0:
        raise ValueError("partial_sums expects alpha >= 0")
    step = alpha.numerator if alpha.denominator == 1 else alpha
    sums = [f.leading_coefficient()]
    for c in reversed(f.coeffs[:-1]):
        sums.append(step * sums[-1] + c)
    return PartialSums(alpha, tuple(sums), all(s >= 0 for s in sums))


def _require_positive_leading(f: Polynomial) -> None:
    if f.leading_coefficient() <= 0:
        raise ValueError("sign analysis requires a positive leading coefficient")


def sign_index_sets(f: Polynomial) -> SignIndexSets:
    _require_positive_leading(f)
    neg = tuple(i for i, c in enumerate(f.coeffs) if c < 0)
    floor = neg[-1] if neg else -1
    pos_above = tuple(i for i, c in enumerate(f.coeffs) if c > 0 and i > floor)
    return SignIndexSets(neg, pos_above, abs(sum(f.coeffs[i] for i in neg)))


def sign_blocks(f: Polynomial) -> SignBlockPartition:
    """Partition the nonzero coefficients, scanned from the leading one down,
    into maximal same-sign runs, paired as (positive run, negative run)."""
    _require_positive_leading(f)
    nonzero = [(i, c) for i, c in enumerate(f.coeffs) if c != 0]
    nonzero.reverse()  # leading coefficient first

    runs: list[tuple[int, list[tuple[int, int]]]] = []
    for i, c in nonzero:
        s = 1 if c > 0 else -1
        if runs and runs[-1][0] == s:
            runs[-1][1].append((i, c))
        else:
            runs.append((s, [(i, c)]))
    sign_changes = len(runs) - 1

    blocks = []
    r = 0
    while r < len(runs):
        _, pos_run = runs[r]
        pos_hi, pos_lo = pos_run[0][0], pos_run[-1][0]
        pos_sum = sum(abs(c) for _, c in pos_run)
        if r + 1 < len(runs):
            _, neg_run = runs[r + 1]
            blocks.append(SignBlock(pos_hi, pos_lo, neg_run[0][0], neg_run[-1][0],
                                    pos_sum, sum(abs(c) for _, c in neg_run)))
        else:
            blocks.append(SignBlock(pos_hi, pos_lo, None, None, pos_sum, None))
        r += 2
    return SignBlockPartition(tuple(blocks), sign_changes)


# -- parsing ---------------------------------------------------------------

_OPS = set("+-*/^()")
# Each level of parentheses costs the recursive-descent parser five frames.
MAX_NESTING = 100
# The work one parse may spend building its polynomial, charged before each
# sum, product, quotient and negation is formed.  A product of p and q costs
# terms(p) * terms(q) * words(p) * words(q) + 8 * (len(p) + len(q)), with
# terms the nonzero coefficients, words = 1 + bits // 64 of the largest one
# and len the number of coefficients, each of which costs about 8 word
# products to write; a power costs the products of its square-and-multiply
# chain, and a sum, quotient or negation 8 * len * words of each operand.
# Within it the slowest inputs, dense products of small coefficients such as
# (1+X)(1+X^2)...(1+X^1024) squared, parse in ~0.5 s on a 2 vCPU x86_64 VM
# (Python 3.11); X^100000 costs 2.2 * 10^6, 10^5000 and (X+1)^700 less.
MAX_PARSE_WORK = 6 * 10**6


def _read_int(text: str, what: str, pos: int) -> int:
    """int(text), or a ParseError that shows at most the first digits of
    text and names sys.get_int_max_str_digits() when that limit refused it."""
    try:
        return int(text)
    except ValueError:
        pass
    shown = repr(text) if len(text) <= 24 else f"{text[:12]!r}... ({len(text)} characters)"
    body = text[1:] if text[:1] in ("+", "-") else text
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and body.isdecimal() and len(body) > limit:
        raise ParseError(f"{what} {shown} has more than {limit} digits, "
                         "the most Python converts to an int", pos)
    raise ParseError(f"bad {what} {shown}", pos)


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", _read_int(text[i:j], "integer literal", i), i))
            i = j
        elif ch in ("X", "x"):
            tokens.append(("var", "X", i))
            i += 1
        elif ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, len(text)))
    return tokens


class _ExprParser:
    """Precedence-climbing parser producing an exact integer polynomial."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.work = 0

    def charge(self, cost: int, pos: int) -> None:
        self.work += cost
        if self.work > MAX_PARSE_WORK:
            raise ParseError("polynomial too large to build: more than "
                             f"{MAX_PARSE_WORK} word operations", pos)

    def product(self, p: Polynomial, q: Polynomial, pos: int) -> Polynomial:
        self.charge(_terms(p) * _terms(q) * _words(p) * _words(q)
                    + 8 * (len(p.coeffs) + len(q.coeffs)), pos)
        return p * q

    def power(self, p: Polynomial, e: int, pos: int) -> Polynomial:
        result = Polynomial([1])
        while e:
            if e & 1:
                result = self.product(result, p, pos)
            e >>= 1
            if e:
                p = self.product(p, p, pos)
        return result

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> Polynomial:
        p = self.parse_expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing {tok[1]!r}", tok[2])
        return p

    def parse_expr(self) -> Polynomial:
        p = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.advance()
            rhs = self.parse_term()
            self.charge(_size(p) + _size(rhs), pos)
            p = p + rhs if op == "+" else p - rhs
        return p

    def parse_term(self) -> Polynomial:
        p = self.parse_unary()
        while True:
            kind, _, pos = self.peek()
            if kind == "*":
                self.advance()
                p = self.product(p, self.parse_unary(), pos)
            elif kind == "/":
                self.advance()
                d = self.parse_unary()
                if d.degree() != 0:
                    raise ParseError("division only by integer constants", pos)
                dv = d.coefficient(0)
                if dv == 0:
                    raise ParseError("division by zero", pos)
                self.charge(_size(p), pos)
                if any(c % dv for c in p.coeffs):
                    raise ParseError(f"coefficients not divisible by {dv}", pos)
                p = Polynomial([c // dv for c in p.coeffs])
            elif kind in ("var", "("):
                # implicit multiplication: 3X, 2(X+1), (X+1)(X-1)
                p = self.product(p, self.parse_unary(), pos)
            else:
                return p

    def parse_unary(self) -> Polynomial:
        sign = 1
        pos = self.peek()[2]
        while self.peek()[0] in ("+", "-"):
            if self.advance()[0] == "-":
                sign = -sign
        p = self.parse_power()
        if sign > 0:
            return p
        self.charge(_size(p), pos)
        return -p

    def parse_power(self) -> Polynomial:
        p = self.parse_atom()
        if self.peek()[0] == "^":
            self.advance()
            e, pos = self.parse_exponent()
            if e < 0:
                raise ParseError("negative exponent makes a non-polynomial", pos)
            if e > 100000:
                raise ParseError("exponent too large", pos)
            p = self.power(p, e, pos)
        return p

    def parse_exponent(self) -> tuple[int, int]:
        tok = self.peek()
        if tok[0] == "(":
            self.advance()
            sign = 1
            while self.peek()[0] in ("+", "-"):
                if self.advance()[0] == "-":
                    sign = -sign
            val = self.expect("int")
            self.expect(")")
            return sign * val[1], val[2]
        if tok[0] == "-":
            self.advance()
            val = self.expect("int")
            return -val[1], val[2]
        val = self.expect("int")
        return val[1], val[2]

    def parse_atom(self) -> Polynomial:
        tok = self.advance()
        if tok[0] == "int":
            return Polynomial([tok[1]])
        if tok[0] == "var":
            return Polynomial([0, 1])
        if tok[0] == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested more than {MAX_NESTING} deep", tok[2])
            self.depth += 1
            p = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return p
        raise ParseError(f"unexpected {tok[1]!r}", tok[2])


def _terms(p: Polynomial) -> int:
    return sum(1 for c in p.coeffs if c)


def _words(p: Polynomial) -> int:
    return 1 + max((c.bit_length() for c in p.coeffs), default=0) // 64


def _size(p: Polynomial) -> int:
    """The parse-budget cost of a sum, quotient or negation, per operand."""
    return 8 * len(p.coeffs) * _words(p)


def parse_polynomial(text: str) -> Polynomial:
    """Parse either a comma-separated coefficient list "a0,a1,...,an" or an
    expression in one variable X with integer literals, +, -, *, ^, ()."""
    text = text.replace("−", "-")  # unicode minus
    if "," in text:
        coeffs = []
        offset = 0
        for piece in text.split(","):
            s = piece.strip()
            coeffs.append(_read_int(s, "coefficient", offset) if s else 0)
            offset += len(piece) + 1
        return Polynomial(coeffs)
    return _ExprParser(text).parse()
