"""Directed-rounding rational enclosures for the irrational quantities used
by the region computations (radicals, sin, tan, cot).

Every value is carried as an exact rational enclosure [lower, upper], a
BoundedReal with no arithmetic of its own: each producer builds the two ends
it returns, each rounded outward, so an inequality verified against the
appropriate end of an enclosure holds for the enclosed real number.
Producers tighten until the width is at most 10^-digits relative to
max(1, |upper|).

The series hold the numerics: sin and cos, each given as a first term and a
step (p, q) with t_j = t_(j-1) * x^2 * p/q, and pi through Machin's arctan
formula.  `_fixed_series` is the one series routine.  It sums a series in
integers at scale 2^(bits+_GUARD), every step rounded outward, stops at the
first term whose rounded-up value is below 2^-bits, and returns an integer
lower bound on the lower and an upper bound on the upper of the two partial
sums on either side of that term, which bracket the limit.  Each endpoint is
that bound floored (or ceiled) onto the 2^-bits grid, so it is sound at any
guard of at least one bit; the guard only decides how close it lies to the
grid point of the exact partial sum, and at 64 bits it is that point in
every case measured.

`_refine` is the one precision loop: it doubles the working precision until
an enclosure meets the digits target, and every producer here calls it.  Its
one precondition: each doubling must make the enclosure narrower, with no
lower limit on the width, or the loop never ends, so every producer takes
an exact rational argument.

`_root_ends` is the one radical kernel, under `nth_root_bounds` and the
sector vertices alike; it calls `_refine` only for a root below 2^-s.

`sin_pi_frac`, `tan_pi_frac` and `cot_pi_frac` check their argument in
integers, then call `_pi_frac(fn, num, den, digits)` on c = num/den, one
`lru_cache` of at most `TRIG_MEMO_SIZE` entries over sin, cos, tan and cot,
keyed on ints.  sin and cos are refined until their lower ends are above 0,
and tan and cot are the quotients of the memo's sin and cos built end by
end: [top.lower/bottom.upper, top.upper/bottom.lower].  A cot after a tan at
the same c reuses both.  Below it only pi is memoised, per bits.
A process therefore computes each enclosure once, however many polynomials
of one degree it certifies and replays.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Union

Rat = Union[int, Fraction]

DEFAULT_DIGITS = 12
# The largest digits accepted from a user: --digits, POLYCERT_DIGITS and a
# certificate's "digits" field.
MAX_DIGITS = 200
# The entries of each of the two trig memos: sin, cos, tan and cot per
# (fn, num, den, digits), and pi on the 2^-bits grid.  The keys hold
# c = num/den = 1/n or 1/(2n) for n up to a degree and digits up to
# MAX_DIGITS (replay computes at the recorded digits only); a fixed bound
# keeps a process that walks through degrees or digits from growing either
# memo.
TRIG_MEMO_SIZE = 256
# The extra bits of the fixed-point series sums; at least 1, or a series
# never stops.  The rounding error of J terms, about J * 2^-(bits+_GUARD),
# moves an endpoint off the grid point of the exact partial sum only when
# that sum lies this close to a grid point.
_GUARD = 64


class _Frozen:
    """Base of the immutable slotted classes: equal, hashed, copied and
    printed by the values of their __slots__, which __init__ sets through
    object.__setattr__."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return self.__class__, self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class BoundedReal(_Frozen):
    """An enclosure lower <= x <= upper.  Not a tuple, whose + would
    silently concatenate two enclosures."""

    __slots__ = ("lower", "upper")

    def __init__(self, lower: Fraction, upper: Fraction):
        if lower > upper:
            raise ValueError(f"inverted bounds [{lower}, {upper}]")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def exact(cls, x: Rat) -> "BoundedReal":
        x = Fraction(x)
        return cls(x, x)

    def meets_target(self, digits: int) -> bool:
        """Width at most 10^-digits relative to max(1, |upper|), compared
        cross-multiplied in integers."""
        a, b = self.lower.numerator, self.lower.denominator
        c, d = self.upper.numerator, self.upper.denominator
        return (c * b - a * d) * 10**digits <= b * max(d, abs(c))

    def __repr__(self) -> str:
        return f"BoundedReal({_exact_text(self.lower)}, {_exact_text(self.upper)})"


def _exact_text(x: Fraction) -> str:
    """x exactly, or power_of_two_text(x) when Python refuses to convert its
    numerator or denominator to decimal (sys.get_int_max_str_digits)."""
    try:
        return str(x)
    except ValueError:
        return power_of_two_text(x)


def power_of_two_text(x: Fraction) -> str:
    """x as its sign and ~2^k, k the bits of its numerator less those of its
    denominator: for a number too large to print otherwise."""
    sign = "-" if x < 0 else ""
    return f"{sign}~2^{abs(x.numerator).bit_length() - x.denominator.bit_length()}"


# -- integer roots -----------------------------------------------------------


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0, exactly."""
    if n < 0:
        raise ValueError("iroot of a negative number")
    if k < 1:
        raise ValueError("iroot exponent must be >= 1")
    if n in (0, 1) or k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    # Newton from a float estimate of the root: one step from any x > 0
    # lands at or above the floor of the root (AM-GM), and the descent from
    # there takes a few steps, where a start at a power of two above the
    # root would shrink by only a factor (k-1)/k a step
    shift = max(0, n.bit_length() - 64)
    q = (math.log2(n >> shift) + shift) / k
    s = max(0, int(q) - 52)
    x = (int(2.0 ** (q - s)) + 1) << s
    x = ((k - 1) * x + n // x ** (k - 1)) // k
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x**k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x


def _refine(build, start: int, digits: int, positive: bool = False) -> BoundedReal:
    """build(p) for p = start, 2*start, 4*start, ... until the enclosure meets
    the digits target (and, if positive, has a lower end above 0).  The width
    of build(p) must go to 0 as p grows."""
    p = start
    while True:
        out = build(p)
        if out.meets_target(digits) and (out.lower > 0 or not positive):
            return out
        p *= 2


def _root_ends(num: int, den: int, e: int, s: int) -> tuple[Rat, Rat]:
    """The ends of an enclosure of (num/den)^(1/e) times 2^s, for coprime
    num >= 0 and den >= 1, e >= 1 and s >= 16.

    One iroot gives lo = floor(2^s (num/den)^(1/e)).  When den divides
    num * 2^(e*s) the root is rational just when lo is exact; otherwise
    just when den and num are perfect e-th powers, den tested first.  An exact root is
    both ends; an irrational one at or above 2^-s is the ints [lo, lo + 1].
    A root below 2^-s is refined from 2^-s on until its lower end is
    positive, every build at most 2^-s wide, which meets the digits target
    of s // 4; its ends are Fractions, like those of an exact root off the
    2^-s grid."""
    a, rem = divmod(num << (e * s), den)
    if e == 1:
        x = a if rem == 0 else Fraction(num << s, den)
        return x, x
    lo = iroot(a, e)
    if rem == 0 and lo**e == a:
        return lo, lo
    if rem and (rd := iroot(den, e))**e == den and (rn := iroot(num, e))**e == num:
        x = Fraction(rn << s, rd)
        return x, x
    if lo:
        return lo, lo + 1

    def build(p: int) -> BoundedReal:
        lo = iroot((num << (e * p)) // den, e)
        return BoundedReal(Fraction(lo, 1 << p), Fraction(lo + 1, 1 << p))
    root = _refine(build, s, s // 4, positive=True)
    return root.lower * (1 << s), root.upper * (1 << s)


def nth_root_bounds(x: Rat, k: int, digits: int = DEFAULT_DIGITS) -> BoundedReal:
    """Enclosure of x^(1/k) for x >= 0; exact for perfect rational powers.
    The kernel's ends at s = max(16, 4*digits) meet the width target."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("nth_root_bounds expects x >= 0")
    if k < 1:
        raise ValueError("root order must be >= 1")
    s = max(16, 4 * digits)
    lower, upper = _root_ends(x.numerator, x.denominator, k, s)
    return BoundedReal(Fraction(lower, 1 << s), Fraction(upper, 1 << s))


def pow_upper(base: int, exponent: Fraction, digits: int = DEFAULT_DIGITS) -> Fraction:
    """Rational upper bound on base^exponent for integer base >= 1, exponent >= 0."""
    if base < 1 or exponent < 0:
        raise ValueError("pow_upper expects base >= 1 and exponent >= 0")
    a, b = exponent.numerator, exponent.denominator
    if b == 1:
        return Fraction(base**a)
    return nth_root_bounds(Fraction(base**a), b, digits).upper


# -- pi and trig enclosures ---------------------------------------------------


def _sin_step(j: int) -> tuple[int, int]:
    return 1, (2 * j) * (2 * j + 1)


def _cos_step(j: int) -> tuple[int, int]:
    return 1, (2 * j - 1) * (2 * j)


def _atan_step(j: int) -> tuple[int, int]:
    return 2 * j - 1, 2 * j + 1


def _fixed_series(first: Rat, x: Fraction, step, bits: int, guard: int) -> tuple[int, int]:
    """Bracket the limit of first - t_1 + t_2 - ..., t_j = t_(j-1) * x^2 * p/q
    with (p, q) = step(j), whose terms decrease from t_1 on: (lo, hi) with
    lo <= 2^(bits+guard) * S <= hi for both partial sums S on either side of
    the first term t_J whose rounded-up value is below 2^-bits.

    Each term is carried as an integer pair [t0, t1] around
    2^(bits+guard) * t_j, each step rounded outward, and so is each partial
    sum.  The loop needs guard >= 1: the rounded-up t1 is at least 1 while
    t_j > 0, so at guard 0 it never drops below 2^guard = 1."""
    k = bits + guard
    one = 1 << guard  # 2^-bits at scale 2^k
    x2 = Fraction(x) ** 2
    if x2.denominator >> 64:  # x^2 enters as its floor and ceiling at scale 2^k
        (m0, m1), shift, div = _scaled(x2, k), k, 1
    else:  # exactly, as for arctan(1/5) and arctan(1/239)
        m0 = m1 = x2.numerator
        shift, div = 0, x2.denominator
    t0, t1 = _scaled(Fraction(first), k)
    s0, s1 = t0, t1
    j = 0
    while True:
        j += 1
        p, q = step(j)
        q *= div
        t0 = (t0 * m0 >> shift) * p // q
        t1 = -((-(t1 * m1) >> shift) * p // q)
        prev0, prev1 = s0, s1
        if j % 2:
            s0, s1 = s0 - t1, s1 - t0
        else:
            s0, s1 = s0 + t0, s1 + t1
        if t1 < one:
            return min(s0, prev0), max(s1, prev1)


def _scaled(x: Fraction, k: int) -> tuple[int, int]:
    """floor and ceiling of 2^k * x."""
    n = x.numerator << k
    return n // x.denominator, -(-n // x.denominator)


def _on_grid(lo: int, hi: int, shift: int, bits: int) -> BoundedReal:
    """[lo / 2^shift, hi / 2^shift] rounded outward onto the 2^-bits grid."""
    return BoundedReal(Fraction(lo >> shift, 1 << bits),
                       Fraction(-(-hi >> shift), 1 << bits))


@lru_cache(maxsize=TRIG_MEMO_SIZE)
def _pi_bits(bits: int) -> BoundedReal:
    # Machin: pi = 16*arctan(1/5) - 4*arctan(1/239), each bracket taken at
    # bits + 8 and the combination put on the 2^-bits grid
    a_lo, a_hi = _fixed_series(Fraction(1, 5), Fraction(1, 5), _atan_step, bits + 8, _GUARD)
    b_lo, b_hi = _fixed_series(Fraction(1, 239), Fraction(1, 239), _atan_step, bits + 8, _GUARD)
    return _on_grid(16 * a_lo - 4 * b_hi, 16 * a_hi - 4 * b_lo, _GUARD + 8, bits)


def _sin_cos_bits(cos: bool, c: Fraction, bits: int) -> BoundedReal:
    """sin(pi*c), or cos(pi*c) if cos, for c in (0, 1/2] on the 2^-bits grid.
    Both are monotone there, so the lower end comes from the series at one end
    of an enclosure of pi*c, on the 2^-(bits+8) grid, and the upper end, at
    most 1, from the other."""
    pi, k = _pi_bits(bits + 8), bits + 8
    x_lo = Fraction(_scaled(pi.lower * c, k)[0], 1 << k)
    x_hi = Fraction(_scaled(pi.upper * c, k)[1], 1 << k)
    low, high = (x_hi, x_lo) if cos else (x_lo, x_hi)  # cos decreases
    step = _cos_step if cos else _sin_step
    lo = _fixed_series(1 if cos else low, low, step, bits, _GUARD)[0]
    hi = _fixed_series(1 if cos else high, high, step, bits, _GUARD)[1]
    return _on_grid(lo, min(hi, 1 << (bits + _GUARD)), _GUARD, bits)


# The values the enclosures give exactly, keyed on (fn, numerator, denominator).
_EXACT = {("sin", 1, 2): 1, ("sin", 1, 6): Fraction(1, 2), ("tan", 1, 4): 1,
          ("cot", 1, 2): 0, ("cot", 1, 4): 1}


@lru_cache(maxsize=TRIG_MEMO_SIZE)
def _pi_frac(fn: str, num: int, den: int, digits: int) -> BoundedReal:
    """fn(pi*num/den) for fn in "sin", "cos", "tan" and "cot", meeting the
    digits target; num/den is in lowest terms with den > 0, and the public
    functions check it.  tan and cot are the quotients of the memoised sin
    and cos, both with a positive lower end, so each quotient takes the
    lower end of one over the upper end of the other.  The key holds ints:
    hashing a Fraction costs more than the lookup it serves."""
    if (fn, num, den) in _EXACT:
        return BoundedReal.exact(_EXACT[fn, num, den])
    if fn in ("sin", "cos"):
        c = Fraction(num, den)
        return _refine(lambda bits: _sin_cos_bits(fn == "cos", c, bits),
                       4 * digits + 16, digits, positive=True)
    top, bottom = ("sin", "cos") if fn == "tan" else ("cos", "sin")

    def quotient(work: int) -> BoundedReal:
        t, b = _pi_frac(top, num, den, work), _pi_frac(bottom, num, den, work)
        return BoundedReal(t.lower / b.upper, t.upper / b.lower)
    return _refine(quotient, digits + 2, digits)


def _ratio(c) -> tuple[int, int]:
    """c as (numerator, denominator) in lowest terms, denominator > 0."""
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator, c.denominator


def sin_pi_frac(c: Fraction, digits: int = DEFAULT_DIGITS) -> BoundedReal:
    """Enclosure of sin(pi*c) for rational c in (0, 1/2]."""
    num, den = _ratio(c)
    if not 0 < 2 * num <= den:
        raise ValueError("sin_pi_frac expects c in (0, 1/2]")
    return _pi_frac("sin", num, den, digits)


def tan_pi_frac(c: Fraction, digits: int = DEFAULT_DIGITS) -> BoundedReal:
    """Enclosure of tan(pi*c) for rational c in (0, 1/4]."""
    num, den = _ratio(c)
    if not 0 < 4 * num <= den:
        raise ValueError("tan_pi_frac expects c in (0, 1/4]")
    return _pi_frac("tan", num, den, digits)


def cot_pi_frac(c: Fraction, digits: int = DEFAULT_DIGITS) -> BoundedReal:
    """Enclosure of cot(pi*c) for rational c in (0, 1/2]."""
    num, den = _ratio(c)
    if not 0 < 2 * num <= den:
        raise ValueError("cot_pi_frac expects c in (0, 1/2]")
    return _pi_frac("cot", num, den, digits)


# -- decimal rendering --------------------------------------------------------


def format_decimal(x: Rat, places: int = 18, direction: str = "floor") -> str:
    """Deterministic fixed-point decimal string, rounded in the stated
    direction so a printed upper bound stays an upper bound."""
    scaled, den = x.numerator * 10**places, x.denominator
    if direction == "floor":
        units = scaled // den
    elif direction == "ceil":
        units = -(-scaled // den)
    else:
        raise ValueError(f"unknown rounding direction {direction!r}")
    sign = "-" if units < 0 else ""
    units = abs(units)
    whole, frac = divmod(units, 10**places)
    return f"{sign}{whole}.{frac:0{places}d}"
