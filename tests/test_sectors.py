import math
import random
from fractions import Fraction
from operator import methodcaller

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import Poly, symbols

from polycert.certify import Certifier
from polycert.lens import Lens, interval_disk_in_lens
from polycert.poly import Polynomial, parse_polynomial, sign_blocks, sign_index_sets
from polycert.rounding import nth_root_bounds
from polycert.sectors import _Estimates, _Vertices, best_sector, sector_candidates

from conftest import random_polynomial
from sector_reference import best_of, reference_candidates


def candidate(f, method, digits=12):
    """The sector of f's candidates with the method, or None."""
    return {s.method: s for s in sector_candidates(f, digits)}.get(method)


def methods(f):
    return [s.method for s in sector_candidates(f)]


def shifted(f, alpha):
    """The plan's sector of vertex alpha for f, or None where a partial sum
    at alpha is negative."""
    vertices = _Vertices(_Estimates(f), 12)
    built = vertices.shifted(Fraction(alpha))
    return None if built is None else vertices.as_sector(*built)


def sympy_shift(f, alpha):
    """The coefficients of f(X + alpha), from sympy."""
    x = symbols("x")
    return Poly(list(reversed(f.coeffs)), x).shift(alpha).all_coeffs()


def test_nonneg_digit_cubic():
    s = candidate(parse_polynomial("X^3+9*X^2+7*X+3"), "nonneg")
    assert s.vertex.lower == s.vertex.upper == 0
    assert s.angle_denominator == 3
    assert s.half_angle_radians() == math.pi / 3


def test_nonneg_linear():
    s = candidate(parse_polynomial("X"), "nonneg")
    assert s.angle_denominator == 1 and s.vertex.upper == 0


def test_nonneg_rejects_negative_coeff():
    assert "nonneg" not in methods(parse_polynomial("X^2-1"))


def test_neg_sum_reciprocal_quartic():
    s = candidate(parse_polynomial("2162*X^4-10*X+1"), "neg-sum")
    cube = nth_root_bounds(Fraction(10, 2162), 3)
    assert s.vertex.lower == cube.lower and s.vertex.upper == cube.upper
    assert abs(float(s.vertex.upper) - 0.16661) < 1e-4


def test_neg_sum_two_negatives_exact():
    # both negative endpoints: max(sqrt(5), 5) = 5; real roots are 3 and -1
    s = candidate(parse_polynomial("X^2-2*X-3"), "neg-sum")
    assert s.vertex.upper == 5


def test_neg_sum_quartic_family():
    s = candidate(parse_polynomial("X^4-10*X^3+2162"), "neg-sum")
    assert s.vertex.lower == s.vertex.upper == 10


def test_parametrized_even_split():
    # weights 1/2 each: max(2*1/2, (2*1/2)^(1/2)) = 1
    s = candidate(parse_polynomial("2*X^2-X-1"), "parametrized")
    assert s.vertex.upper == 1


def test_parametrized_single_weight():
    s = candidate(parse_polynomial("X^3-X"), "parametrized")
    assert s.vertex.upper == 1


def test_min_over_positives_uses_big_coefficient():
    s = candidate(parse_polynomial("X^3+100*X^2-X-1"), "min-over-positives")
    root = nth_root_bounds(Fraction(2, 100), 2)
    assert s.vertex.upper == root.upper
    assert abs(float(s.vertex.upper) - math.sqrt(0.02)) < 1e-9


def test_min_over_positives_single_k_matches_neg_sum():
    f = parse_polynomial("2162*X^4-10*X+1")
    assert candidate(f, "min-over-positives").vertex == candidate(f, "neg-sum").vertex


def test_summed_denominator_clamps_at_one():
    s = candidate(parse_polynomial("X^3+100*X^2-X-1"), "summed-denominator")
    assert s.vertex.upper == 1


def test_summed_denominator_cubic():
    # roots are -1, 2, -2; L=8 over d=2 at k1=2 gives max(2, 4) = 4
    s = candidate(parse_polynomial("X^3+X^2-4*X-4"), "summed-denominator")
    assert s.vertex.upper == 4


def test_summed_denominator_single_variation_balanced():
    # positive run sums to 3 >= L = 2, so the clamp takes over
    s = candidate(parse_polynomial("X^3+2*X^2-X-1"), "summed-denominator")
    assert s.vertex.upper == 1


def test_sign_blocks_worked_example():
    s = candidate(parse_polynomial("2*X^9+5*X^8-7*X^5-3*X^3+X^2-8*X-1"), "sign-blocks")
    assert s.vertex.upper == 9
    assert s.angle_denominator == 9


def test_sign_blocks_single_change_dominant():
    s = candidate(parse_polynomial("5*X^3+2*X^2-X-2"), "sign-blocks")
    assert s.vertex.upper == 1


def test_sign_blocks_balanced_ratio():
    s = candidate(parse_polynomial("X^2-X"), "sign-blocks")
    assert s.vertex.upper == 1


def test_sign_blocks_need_a_change():
    assert "sign-blocks" not in methods(parse_polynomial("X^2+1"))


def test_shifted_zero_for_nonneg():
    s = candidate(parse_polynomial("X^2+3*X+1"), "shifted:0")
    assert s is not None and s.vertex.upper == 0


def test_shifted_absent_when_sums_dip():
    f = parse_polynomial("X^3-X^2-X+2")
    assert "shifted:1" not in methods(f) and shifted(f, 1) is None


def test_shifted_square():
    s = shifted(parse_polynomial("X^2-2*X+1"), 2)
    assert s is not None and s.vertex.upper == 2 and s.method == "shifted:2"


def test_shift_soundness(fuzz_corpus):
    for f in fuzz_corpus[:300]:
        for alpha in (0, 1, 2):
            s = shifted(f, alpha)
            if s is not None:
                assert all(c >= 0 for c in sympy_shift(f, alpha)), (f, alpha)


def test_best_sector_nonneg():
    s = best_sector(parse_polynomial("X^3+9*X^2+7*X+3"))
    assert s.method == "nonneg" and s.vertex.upper == 0


def test_best_sector_prefers_min_over_positives():
    s = best_sector(parse_polynomial("X^3+100*X^2-X-1"))
    assert s.method == "min-over-positives"
    assert abs(float(s.vertex.upper) - 0.1414) < 1e-3


def test_best_sector_flagship():
    s = best_sector(parse_polynomial("X^4-10*X^3+2162"))
    assert s.method == "neg-sum"
    assert s.vertex.upper == 10


def test_dominance_min_over_vs_neg_sum(fuzz_corpus):
    for f in fuzz_corpus[:300]:
        if not sign_index_sets(f).neg_indices:
            continue
        assert candidate(f, "min-over-positives").vertex.upper <= candidate(f, "neg-sum").vertex.upper


def test_endpoint_rule_matches_full_max():
    rng = random.Random(7)
    for _ in range(1000):
        f = random_polynomial(rng, 2, 8, 20)
        sets = sign_index_sets(f)
        if not sets.neg_indices:
            continue
        n = f.degree()
        base = Fraction(sets.neg_sum_abs, f.leading_coefficient())
        full_upper = max(nth_root_bounds(base, n - j).upper for j in sets.neg_indices)
        full_lower = max(nth_root_bounds(base, n - j).lower for j in sets.neg_indices)
        v = candidate(f, "neg-sum").vertex
        # both enclose the same true maximum, so they must overlap
        assert full_lower <= v.upper and v.lower <= full_upper


def test_vertex_width_discipline(fuzz_corpus):
    for f in fuzz_corpus[:200]:
        for s in sector_candidates(f):
            assert s.vertex.lower <= s.vertex.upper
            assert s.vertex.meets_target(12)


def test_sector_json_shape():
    s = best_sector(parse_polynomial("X^4-10*X^3+2162"))
    j = s.to_json()
    assert set(j) == {"vertex_lower", "vertex_upper", "angle", "n", "method"}
    assert j["angle"] == "pi/n" and j["n"] == 4


@pytest.fixture
def radical_calls(monkeypatch):
    """The (base, e, digits) of every radical the producers compute, one
    call of the radical kernel each; its s is 4*digits at every digits
    used here."""
    import polycert.sectors as sectors_module
    calls = []
    original = sectors_module._root_ends

    def counting(num, den, e, s):
        calls.append((Fraction(num, den), e, s // 4))
        return original(num, den, e, s)
    monkeypatch.setattr(sectors_module, "_root_ends", counting)
    return calls


def test_candidates_compute_the_shared_radical_once(radical_calls):
    # all five radical producers of the flagship reciprocal need (10/2162)^(1/3)
    g = parse_polynomial("2162*X^4-10*X+1")
    for digits in (12, 24, 100):
        radical_calls.clear()
        sector_candidates(g, digits)
        assert radical_calls == [(Fraction(10, 2162), 3, digits)]


def test_candidates_compute_each_radical_once_per_call(radical_calls):
    f = parse_polynomial("3*X^8-5*X^7+2*X^6-7*X^4+X^3+4*X^2-6*X+9")
    assert sum(b.has_negative_part() for b in sign_blocks(f).blocks) == 3
    needed = set()
    for method in ("neg_sum", "min_over_positives", "summed_denominator",
                   "sign_blocks", "parametrized"):
        methodcaller(method)(_Vertices(_Estimates(f), 12))
        needed.update(radical_calls)
        radical_calls.clear()
    for _ in range(2):  # the second call computes them again: no memo outlives a call
        radical_calls.clear()
        sector_candidates(f)
        assert len(radical_calls) == len(set(radical_calls)) == len(needed) > 4
        assert set(radical_calls) == needed


CLOSE_RADICALS = Polynomial([-635, 0, 1008, 1270])
CLAMP_TIE = Polynomial([-5, 1, 4, 2, 1])
# P/Q is a convergent of sqrt(2): min-over-positives' vertex Q/P is 10^-33
# above neg-sum's (1/2)^(1/2), both are estimated at -0.5, the float log2 of
# neg-sum's upper end at 24 digits is -0.5 too, and the former's upper end
# is the lesser
P, Q = 14398739476117879, 10181446324101389
FLOAT_TIE = Polynomial([-Q, P, 2 * Q])


def test_best_sector_builds_fewer_radicals(radical_calls):
    f = parse_polynomial("3*X^8-5*X^7+2*X^6-7*X^4+X^3+4*X^2-6*X+9")
    sector_candidates(f)
    every = len(radical_calls)
    radical_calls.clear()
    best_sector(f)
    assert len(radical_calls) < every
    radical_calls.clear()
    best_sector(parse_polynomial("2162*X^4-10*X+1"))
    assert radical_calls == [(Fraction(10, 2162), 3, 12)]
    # min-over-positives (635/1008)^(1/2) is 2^-22 below neg-sum (1/2)^(1/3):
    # both are built, and the lesser wins
    radical_calls.clear()
    assert best_sector(CLOSE_RADICALS).method == "min-over-positives"
    assert {(Fraction(635, 1008), 2, 12), (Fraction(1, 2), 3, 12)} <= set(radical_calls)


def test_best_sector_examples_are_what_they_say():
    tie = {s.method: s.vertex.upper for s in sector_candidates(parse_polynomial("2162*X^4-10*X+1"))}
    assert tie["min-over-positives"] == tie["neg-sum"]
    clamp = sector_candidates(CLAMP_TIE)
    assert best_of(clamp).method == "summed-denominator"
    assert {s.method: s.vertex.upper for s in clamp}["shifted:1"] == 1 == best_of(clamp).vertex.upper
    close = {s.method: s.vertex.upper for s in sector_candidates(CLOSE_RADICALS)}
    assert 0 < 1 - close["min-over-positives"] / close["neg-sum"] < Fraction(1, 2**20)
    assert _Estimates(FLOAT_TIE).logs[:2] == [-0.5] * 2
    floats = {s.method: s.vertex.upper for s in sector_candidates(FLOAT_TIE, 24)}
    upper = floats["neg-sum"]
    assert math.log2(upper.numerator) - math.log2(upper.denominator) == -0.5
    assert upper > floats["min-over-positives"] == Fraction(Q, P)
    assert Fraction(Q, P) ** 2 > Fraction(1, 2)


@st.composite
def vertex_polynomials(draw):
    """Polynomials whose radicals are irrational, exact (some off every
    2^-s grid, some on it), of exponent 1, or below 2^-4d: random ones with
    zero coefficients and a negative one just below the top (exponent 1),
    a*X^n - b*X^j with b/a = (v/u)^(n-j), and ones whose leading
    coefficient dwarfs the rest."""
    n = draw(st.integers(1, 8))
    size = draw(st.sampled_from([3, 20, 10**6, 10**12]))
    coeffs = draw(st.lists(st.one_of(st.just(0), st.integers(-size, size)),
                           min_size=n, max_size=n))
    lead = draw(st.integers(1, size))
    shape = draw(st.sampled_from(["random", "top", "power", "tiny"]))
    if shape == "top":
        coeffs[-1] = -draw(st.integers(1, size))
    elif shape == "power":
        j = draw(st.integers(0, n - 1))
        u, v = (draw(st.sampled_from([1, 2, 3, 4, 7, 8, 9, 2**17, 3**5, 10**6]))
                for _ in range(2))
        w = draw(st.integers(1, 5))
        coeffs[j] = -(v ** (n - j)) * w
        lead = u ** (n - j) * w
    elif shape == "tiny":
        lead <<= draw(st.sampled_from([8, 70, 900, 6500]))
    return Polynomial(coeffs + [lead])


@settings(max_examples=300, deadline=None)
@given(vertex_polynomials(), st.sampled_from([1, 4, 12, 24, 100, 200]))
@example(Polynomial([-2, 0, 10**200]), 12)  # a root below 2^-48
@example(Polynomial([-1, 2**40]), 12)  # exponent 1, on the 2^-48 grid
@example(Polynomial([-1, 0, 0, 3**3 * 2**51]), 1)  # 1/(3 * 2^17): off the grid
@example(Polynomial([-1, 0, 2**36]), 1)  # 2^-18: dyadic, below the 2^-16 grid
def test_candidates_match_the_fraction_vertices(f, digits):
    got, want = sector_candidates(f, digits), reference_candidates(f, digits)
    assert [(s.method, s.angle_denominator) for s in got] == \
        [(s.method, s.angle_denominator) for s in want]
    for s, r in zip(got, want):
        assert type(s.vertex.lower) is type(s.vertex.upper) is Fraction
        assert (s.vertex.lower, s.vertex.upper) == (r.vertex.lower, r.vertex.upper)


@settings(max_examples=300, deadline=None)
@given(vertex_polynomials(), st.sampled_from([1, 4, 12, 24, 100, 200]))
@example(parse_polynomial("2162*X^4-10*X+1"), 12)  # min-over-positives ties neg-sum
@example(CLAMP_TIE, 12)  # shifted:1 ties the summed-denominator clamp at 1
@example(Polynomial([3, 7, 9, 1]), 12)  # vertex 0 ends the search
@example(CLOSE_RADICALS, 12)  # two radicals within 2^-20, both built
@example(FLOAT_TIE, 24)  # within float error, the later candidate wins
def test_best_sector_matches_the_best_fraction_vertex(f, digits):
    got, want = best_sector(f, digits), best_of(reference_candidates(f, digits))
    assert (got.method, got.angle_denominator) == (want.method, want.angle_denominator)
    assert type(got.vertex.lower) is type(got.vertex.upper) is Fraction
    assert (got.vertex.lower, got.vertex.upper) == (want.vertex.lower, want.vertex.upper)
    ctx = Certifier(f, digits=digits)
    assert ctx.sector == best_of(ctx.sectors)


def exact_lens_reason(f, digits):
    """The lens criterion's refusal from the reciprocal's exact sector
    candidates, every one built, and the interval, or "ok"."""
    if f.degree() < 3 or f.coefficient(0) == 0:
        return "lens-inapplicable"
    g = f.reciprocal()
    sector = best_of(sector_candidates(g if g.leading_coefficient() > 0 else -g, digits))
    if sector.vertex.upper == 0:
        return "lens-degenerate"
    try:
        interval_disk_in_lens(Lens(sector.vertex, f.degree(), sector.method), digits)
    except ValueError:
        return "vertex-too-large"
    return "ok"


def assert_the_plan_refuses_as_the_exact_lens(f, digits, ms):
    want = exact_lens_reason(f, digits)
    ctx = Certifier(f, digits=digits)
    plan = ctx.lens_plan[0]
    assert (plan is None) == (want == "lens-inapplicable")
    assert ctx.lens_intervals[1] == want
    assert (ctx.lens_status[1] == "lens-degenerate") == (want == "lens-degenerate")
    # the same certificates and reasons as with the estimate's gate off: an
    # unbounded plan does not refuse
    exact = Certifier(f, digits=digits)
    if plan is not None:
        exact.lens_plan[0].bounded = False
    modes = None if f.degree() >= 2 else ("lens",)
    for m in ms:
        got, ref = ctx.certify(m, modes), exact.certify(m, modes)
        assert got[1] == ref[1]
        assert (got[0] and got[0].to_json()) == (ref[0] and ref[0].to_json())


@settings(max_examples=300, deadline=None)
@given(vertex_polynomials(), st.sampled_from([1, 12, 100, 200]), st.integers(1, 40))
@example(Polynomial([3, 7, 9, 1]), 12, 1)  # the reciprocal has vertex 0
@example(parse_polynomial("(X-3)*(X^2+X+7)"), 12, 1)  # refused by the estimate
def test_the_plan_refuses_the_lens_as_the_exact_lens_does(f, digits, m):
    assert_the_plan_refuses_as_the_exact_lens(f, digits, [m])


@pytest.mark.parametrize("digits", [1, 12, 100, 200])
def test_the_plan_refuses_the_fuzz_lenses_as_the_exact_lens_does(fuzz_corpus, digits):
    for f in fuzz_corpus:
        assert_the_plan_refuses_as_the_exact_lens(f, digits, [1, 2])
