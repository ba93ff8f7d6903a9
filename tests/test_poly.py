import functools
import operator
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from polycert import poly
from polycert.poly import (MAX_NESTING, MAX_PARSE_WORK, ParseError, PartialSums,
                           Polynomial, divide_exact, parse_polynomial,
                           partial_sums, sign_blocks, sign_index_sets)

coeff_lists = st.lists(st.integers(-50, 50), min_size=1, max_size=9)


def test_parse_simple():
    assert parse_polynomial("X^2+1").coeffs == (1, 0, 1)


def test_parse_quartic():
    assert parse_polynomial("X^4 - 10*X^3 + 2162").coeffs == (2162, 0, 0, -10, 1)


def test_parse_distributes():
    assert parse_polynomial("3*(X+1)").coeffs == (3, 3)


def test_parse_coeff_list():
    assert parse_polynomial("2162,0,0,-10,1").coeffs == (2162, 0, 0, -10, 1)


def test_parse_implicit_multiplication():
    assert parse_polynomial("2X^2") == parse_polynomial("2*X^2")
    assert parse_polynomial("(X+1)(X-1)").coeffs == (-1, 0, 1)


def test_parse_division_exact_only():
    assert parse_polynomial("(2*X^2+4)/2").coeffs == (2, 0, 1)
    with pytest.raises(ParseError):
        parse_polynomial("X/2")
    with pytest.raises(ParseError):
        parse_polynomial("X/(X+1)")


def test_parse_negative_exponent_rejected():
    for text in ("X^(-1)", "X^-1"):
        with pytest.raises(ParseError):
            parse_polynomial(text)


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("X^2 + $")
    assert err.value.position == 6


INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_int_digit_limit = pytest.mark.skipif(
    not INT_DIGITS, reason="this Python converts text of any length to an int")


@needs_int_digit_limit
def test_a_literal_past_the_int_digit_limit_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        parse_polynomial("X^2+1" + "0" * INT_DIGITS)
    assert str(err.value) == (
        f"integer literal '100000000000'... ({INT_DIGITS + 1} characters) has more "
        f"than {INT_DIGITS} digits, the most Python converts to an int (at position 4)")
    assert err.value.position == 4
    assert parse_polynomial("X+" + "9" * INT_DIGITS) == Polynomial([10**INT_DIGITS - 1, 1])


@needs_int_digit_limit
def test_a_coefficient_past_the_int_digit_limit_is_shown_short():
    with pytest.raises(ParseError) as err:
        parse_polynomial("1,-" + "7" * (INT_DIGITS + 1))
    assert str(err.value) == (
        f"coefficient '-77777777777'... ({INT_DIGITS + 2} characters) has more "
        f"than {INT_DIGITS} digits, the most Python converts to an int (at position 2)")


def test_a_bad_coefficient_is_shown_short():
    with pytest.raises(ParseError) as err:
        parse_polynomial("1,2," + "x" * 5000)
    assert str(err.value) == "bad coefficient 'xxxxxxxxxxxx'... (5000 characters) (at position 4)"
    with pytest.raises(ParseError, match=r"^bad coefficient '1\.5' \(at position 2\)$"):
        parse_polynomial("1,1.5")


def test_evaluate_flagship():
    f = parse_polynomial("X^4-10*X^3+2162")
    assert f.evaluate(3) == 1973


def test_evaluate_zero_polynomial():
    assert Polynomial([]).evaluate(10**6) == 0


def test_evaluate_digit_polynomial():
    # digits of 1973 in base 10, little-endian
    f = Polynomial([3, 7, 9, 1])
    assert f.evaluate(10) == 1973


@given(coeff_lists, st.integers(-100, 100))
def test_horner_matches_power_sum(coeffs, m):
    f = Polynomial(coeffs)
    naive = sum(c * m**i for i, c in enumerate(f.coeffs))
    assert f.evaluate(m) == naive


def test_horner_matches_power_sum_thousand_pairs():
    import random
    rng = random.Random(2024)
    for _ in range(1000):
        f = Polynomial([rng.randint(-10**6, 10**6)
                        for _ in range(rng.randint(1, 12))])
        m = rng.randint(-10**6, 10**6)
        assert f.evaluate(m) == sum(c * m**i for i, c in enumerate(f.coeffs))


def test_derivative():
    f = parse_polynomial("X^4-10*X^3+2162")
    assert f.derivative().coeffs == (0, 0, -30, 4)
    assert Polynomial([5]).derivative().is_zero()
    assert parse_polynomial("X^2+X+1").derivative().evaluate(2) == 5


def test_reciprocal_flagship():
    f = parse_polynomial("X^4-10*X^3+2162")
    assert f.reciprocal() == parse_polynomial("2162*X^4-10*X+1")


def test_reciprocal_palindrome_and_reversal():
    assert parse_polynomial("X+1").reciprocal().coeffs == (1, 1)
    assert parse_polynomial("2*X^2+3*X+5").reciprocal().coeffs == (2, 3, 5)


def test_reciprocal_rejects_zero_constant():
    with pytest.raises(ValueError):
        parse_polynomial("X^2+X").reciprocal()


@given(coeff_lists)
def test_reciprocal_involution(coeffs):
    f = Polynomial(coeffs)
    if f.degree() < 1 or f.coefficient(0) == 0:
        return
    assert f.reciprocal().reciprocal() == f


def test_shift_examples():
    # the shift by one that Descartes' root isolation in arith uses
    assert poly._shift_by_one([1, -2, 1]) == [0, 0, 1]
    # (X+1)^3 - 2(X+1)^2 expands to X^3 + X^2 - X - 1
    assert poly._shift_by_one([0, 0, -2, 1]) == [-1, -1, 1, 1]
    assert poly._shift_by_one([Fraction(1, 2), 0, 1]) == [Fraction(3, 2), 2, 1]


def test_divide_exact_examples():
    P = parse_polynomial
    assert divide_exact(P("X^2-1"), P("X+1")) == P("X-1")
    assert divide_exact(P("X^2"), P("2*X")) is None  # quotient X/2
    assert divide_exact(P("X^2+1"), P("X+1")) is None  # remainder 2
    assert divide_exact(P("X+1"), P("X^2+1")) is None
    assert divide_exact(Polynomial([]), P("X+1")) == Polynomial([])


@given(coeff_lists, coeff_lists)
def test_divide_exact_undoes_a_product(a, b):
    f, g = Polynomial(a), Polynomial(b)
    if g.is_zero():
        return
    assert divide_exact(f * g, g) == f
    if g.degree() >= 1:
        assert divide_exact(f * g + 1, g) is None  # remainder 1


def test_partial_sums_examples():
    ps = partial_sums(parse_polynomial("X^2-2*X+1"), 1)
    assert ps.sums == (1, -1, 0)
    assert not ps.all_nonneg

    ps = partial_sums(parse_polynomial("X^3-X^2-X+2"), 1)
    assert ps.sums == (1, 0, -1, 1)
    assert not ps.all_nonneg

    ps = partial_sums(parse_polynomial("3*X^3+X+7"), Fraction(5, 2))
    assert ps.all_nonneg


@given(coeff_lists, st.fractions(0, 4))
def test_partial_sums_recurrence(coeffs, alpha):
    f = Polynomial(coeffs)
    if f.degree() < 1:
        return
    ps = partial_sums(f, alpha)
    n = f.degree()
    assert ps.sums[0] == f.coeffs[-1]
    for j in range(n):
        assert ps.sums[j + 1] == alpha * ps.sums[j] + f.coeffs[n - j - 1]


def reference_partial_sums(f, alpha):
    """partial_sums as one Fraction Horner pass, for any alpha."""
    alpha = Fraction(alpha)
    sums = [Fraction(f.leading_coefficient())]
    for c in reversed(f.coeffs[:-1]):
        sums.append(alpha * sums[-1] + c)
    return PartialSums(alpha, tuple(sums), all(s >= 0 for s in sums))


@given(coeff_lists, st.one_of(st.integers(0, 5), st.fractions(0, 4)))
def test_partial_sums_match_the_fraction_pass(coeffs, alpha):
    f = Polynomial(coeffs)
    if f.degree() < 1:
        return
    assert partial_sums(f, alpha) == reference_partial_sums(f, alpha)


def test_partial_sums_at_an_integer_alpha_are_ints():
    ps = partial_sums(parse_polynomial("X^3-X^2-X+2"), Fraction(1))
    assert all(type(s) is int for s in ps.sums)


def test_sign_index_sets_reciprocal_quartic():
    sets = sign_index_sets(parse_polynomial("2162*X^4-10*X+1"))
    assert sets.neg_indices == (1,)
    assert sets.pos_indices_above == (4,)
    assert sets.neg_sum_abs == 10


def test_sign_index_sets_nonneg():
    sets = sign_index_sets(parse_polynomial("X^3+2*X+1"))
    assert sets.neg_indices == ()
    assert sets.neg_sum_abs == 0


def test_sign_index_sets_two_negatives():
    sets = sign_index_sets(parse_polynomial("X^3+100*X^2-X-1"))
    assert sets.neg_indices == (0, 1)
    assert sets.pos_indices_above == (2, 3)
    assert sets.neg_sum_abs == 2


def test_sign_index_sets_requires_positive_leading():
    with pytest.raises(ValueError):
        sign_index_sets(parse_polynomial("-X^2+1"))


def test_sign_blocks_worked_example():
    f = parse_polynomial("2*X^9+5*X^8-7*X^5-3*X^3+X^2-8*X-1")
    part = sign_blocks(f)
    assert part.sign_changes == 3
    assert len(part.blocks) == 2
    b1, b2 = part.blocks
    assert (b1.pos_sum, b1.neg_sum) == (7, 10)
    assert (b2.pos_sum, b2.neg_sum) == (1, 9)
    assert (b1.pos_hi, b1.pos_lo, b1.neg_hi, b1.neg_lo) == (9, 8, 5, 3)
    assert (b2.pos_hi, b2.pos_lo, b2.neg_hi, b2.neg_lo) == (2, 2, 1, 0)


def test_sign_blocks_all_positive():
    part = sign_blocks(parse_polynomial("X^2+X+1"))
    assert part.sign_changes == 0
    assert len(part.blocks) == 1
    assert not part.blocks[0].has_negative_part()


def test_sign_blocks_single_change():
    part = sign_blocks(parse_polynomial("X^2-1"))
    assert part.sign_changes == 1
    assert (part.blocks[0].pos_sum, part.blocks[0].neg_sum) == (1, 1)


@given(coeff_lists)
def test_sign_blocks_cover_nonzero_indices(coeffs):
    f = Polynomial(coeffs)
    if f.degree() < 0 or f.leading_coefficient() <= 0:
        return
    part = sign_blocks(f)
    covered = set()
    for b in part.blocks:
        covered.update(i for i in range(b.pos_lo, b.pos_hi + 1) if f.coefficient(i) != 0)
        if b.has_negative_part():
            covered.update(i for i in range(b.neg_lo, b.neg_hi + 1) if f.coefficient(i) != 0)
    nonzero = {i for i, c in enumerate(f.coeffs) if c != 0}
    assert covered == nonzero
    signs = [1 if f.coefficient(i) > 0 else -1
             for i in sorted(nonzero, reverse=True)]
    flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert part.sign_changes == flips
    assert len(part.blocks) == flips // 2 + 1


def test_negate_argument():
    assert parse_polynomial("X^2+X").negate_argument().coeffs == (0, -1, 1)
    assert parse_polynomial("X^3").negate_argument().coeffs == (0, 0, 0, -1)
    f = parse_polynomial("X^2+X")
    assert f.negate_argument().evaluate(2) == f.evaluate(-2) == 2


def test_canonical_coeff_csv():
    assert parse_polynomial("X^4-10*X^3+2162").coeffs_csv() == "2162,0,0,-10,1"


@given(coeff_lists, st.integers(-30, 30))
def test_negate_argument_is_substitution(coeffs, m):
    f = Polynomial(coeffs)
    assert f.negate_argument().evaluate(m) == f.evaluate(-m)


def nested(depth: int) -> str:
    return "(" * depth + "X+1" + ")" * depth


def test_parentheses_nested_to_the_limit_parse():
    assert parse_polynomial(nested(MAX_NESTING)) == parse_polynomial("X+1")


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 1000])
def test_parentheses_nested_past_the_limit_are_a_parse_error(deadline, depth):
    deadline(1)
    with pytest.raises(ParseError, match=f"nested more than {MAX_NESTING} deep") as err:
        parse_polynomial(nested(depth))
    assert err.value.position == MAX_NESTING


# -- the parse budget -----------------------------------------------------------


def doubling_product(k: int) -> str:
    """(1+X)(1+X^2)...(1+X^(2^k)) = 1 + X + ... + X^(2^(k+1)-1): short text,
    a dense result with coefficients of one bit."""
    return "*".join(f"(1+X^{2**i})" for i in range(k + 1))


def parse_work(text: str) -> int:
    parser = poly._ExprParser(text)
    parser.parse()
    return parser.work


@pytest.mark.parametrize("text, expected", [
    ("X^100000", Polynomial([0] * 100000 + [1])),
    ("10^5000", Polynomial([10**5000])),
    ("X^60000+X+1", Polynomial([1, 1] + [0] * 59998 + [1])),
])
def test_large_inputs_within_the_budget_parse(deadline, text, expected):
    deadline(2)
    assert parse_polynomial(text) == expected
    assert parse_work(text) < MAX_PARSE_WORK / 2


@pytest.mark.parametrize("text", [
    f"({doubling_product(10)})^2",   # dense, one-bit coefficients
    "(X^1000+1)^250",               # sparse, long
    "(X+1)^770",
    "(10^100*X+1)^42",
    "(10^20000)^4",
])
def test_the_costliest_admitted_inputs_parse_within_a_second(deadline, text):
    # each is within 1.5x of the budget, the next size up is refused; on a
    # 2 vCPU x86_64 VM the slowest of them takes ~0.5 s
    assert MAX_PARSE_WORK / 1.5 < parse_work(text) <= MAX_PARSE_WORK
    deadline(1)
    parse_polynomial(text)


@pytest.mark.parametrize("text", [
    f"({doubling_product(11)})^2",
    "(X^1000+1)^300",
    "(X+1)^1500",
    "(X+1)^3000",
    "(X+1)^20000",
    "(10^100*X+1)^100",
    "(10^100000)^100000",
    "(X^100000)^100000",
    "X^100000" + "+1" * 20,
    "X^100000" + "/1" * 20,
    "X^100000" + "*-1" * 20,
])
def test_inputs_past_the_budget_are_a_parse_error(deadline, text):
    deadline(1)
    with pytest.raises(ParseError, match=f"more than {MAX_PARSE_WORK} word operations"):
        parse_polynomial(text)


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=5), st.integers(0, 12))
def test_a_parsed_power_is_the_polynomial_power(coeffs, e):
    f = Polynomial(coeffs)
    assert parse_polynomial(f"({f})^{e}") == functools.reduce(operator.mul, [f] * e, Polynomial([1]))
