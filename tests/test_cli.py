import json
import math
import os
import sys

import pytest

import polycert.cli as cli
from polycert.arith import MAX_Q_MAX, next_prime
from polycert.certify import certificate_verify
from polycert.cli import (MAX_DESCRIPTOR_BITS, MAX_SCAN_ROWS, MAX_SHIFT_BITS,
                          MAX_SHIFT_EXPONENT, MAX_SHIFT_START_BITS, _shift_start,
                          main, render_svg, scan_family)
from polycert.poly import parse_polynomial


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_certify_flagship_exit_zero(capsys):
    code, out, _ = run(capsys, "certify", "X^4-10*X^3+2162", "--m", "3")
    assert code == 0
    assert "cor310_cot" in out


def test_certify_json_round_trip(capsys):
    code, out, _ = run(capsys, "certify", "X^4-10*X^3+2162", "--m", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == json.loads(json.dumps(data))
    assert certificate_verify(data)
    assert data["criterion"] == "cor310_cot"


def test_certify_an_expression_that_starts_with_a_minus_sign(capsys):
    # argparse took "-10*X^3+X^4+2162" for an option
    code, out, _ = run(capsys, "certify", "-10*X^3+X^4+2162", "--m", "3", "--json")
    assert code == 0
    assert out == run(capsys, "certify", "X^4-10*X^3+2162", "--m", "3", "--json")[1]
    code, _, err = run(capsys, "certify", "-10*X^^3+X^4+2162", "--m", "3")
    assert code == 2 and "(at position 6)" in err


def test_a_positional_coefficient_list_may_start_with_a_minus_sign(capsys):
    # argparse took "-1,0,1" for an option
    code, out, _ = run(capsys, "analyze", "-1,0,1", "--json")
    assert code == 0
    assert out == run(capsys, "analyze", "--coeffs", "-1,0,1", "--json")[1]


def test_a_leading_minus_expression_after_a_flag_is_the_polynomial(capsys):
    code, out, _ = run(capsys, "certify", "--json", "-10*X^3+X^4+2162", "--m", "3")
    assert code == 0
    assert out == run(capsys, "certify", "X^4-10*X^3+2162", "--m", "3", "--json")[1]


@pytest.mark.parametrize("value", ["-1,0,1", "-X^2+1"])
def test_a_leading_minus_value_of_an_unknown_option_stays_unrecognized(capsys, value):
    # the polynomial rule leaves the value of a misspelt option as typed
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--coeff", value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --coeff {value}" in capsys.readouterr().err


def test_certify_prime_power_flag(capsys):
    code, out, _ = run(capsys, "certify", "X^2+X+1", "--m", "2", "--prime-power",
                       "--json")
    assert code == 0
    assert json.loads(out)["criterion"] == "thm35_prime_power"


def test_certify_reducible_search_exit_one(capsys):
    code, _, err = run(capsys, "certify", "(X^2+1)*(X^2+3)", "--search", "1..50")
    assert code == 1
    assert "no certificate" in err


def test_certify_search_names_missing_lens(capsys):
    code, _, err = run(capsys, "certify", "X^2-10", "--search", "1..2")
    assert code == 1
    assert "m=1: witness-absent (lens-inapplicable;value-nonpositive)" in err


def test_certify_search_finds_first(capsys):
    code, out, _ = run(capsys, "certify", "X^4-10*X^3+2162", "--search", "1..20",
                       "--json")
    assert code == 0
    assert json.loads(out)["m"] == 3


def test_certify_negative_m(capsys):
    code, out, _ = run(capsys, "certify", "X^2+X+1", "--m", "-3", "--negative-m",
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert data["m"] == -3 and data["negated_argument"]
    code2, _, err = run(capsys, "certify", "X^2+X+1", "--m", "-3")
    assert code2 == 2
    assert err == "input error: negative m requires --negative-m\n"


@pytest.mark.parametrize("q_max", ["0", str(MAX_Q_MAX + 1)])
@pytest.mark.parametrize("where", [["--m", "3"], ["--m", "5"], ["--search", "1..5"]])
def test_certify_q_max_out_of_range_is_an_input_error(capsys, q_max, where):
    # the lens criterion ignores q_max, so at m = 3 a late check would
    # certify before it ever looked at the bound
    code, out, err = run(capsys, "certify", "X^4-10*X^3+2162", *where, "--q-max", q_max)
    assert code == 2 and out == ""
    assert err == f"input error: --q-max must be in 1..{MAX_Q_MAX}\n"


def test_certify_q_max_at_the_bound_is_accepted(capsys):
    code, _, _ = run(capsys, "certify", "X^4-10*X^3+2162", "--m", "3",
                     "--q-max", str(MAX_Q_MAX))
    assert code == 0


def test_parse_error_exit_two(capsys):
    code, _, err = run(capsys, "certify", "X^^2", "--m", "3")
    assert code == 2
    assert "input error" in err


def test_conflicting_sources_exit_two(capsys):
    code, _, _ = run(capsys, "certify", "X^2+1", "--coeffs", "1,0,1", "--m", "3")
    assert code == 2


def test_analyze_text(capsys):
    code, out, _ = run(capsys, "analyze", "X^4-10*X^3+2162")
    assert code == 0
    assert "neg-sum" in out and "lens" in out
    assert "2.41" in out  # cot interval lower end


def test_analyze_coeffs_block_sums(capsys):
    code, out, _ = run(capsys, "analyze", "--coeffs", "-1,-8,1,-3,0,-7,0,0,5,2")
    assert code == 0
    assert "S+=7, S-=10" in out
    assert "S+=1, S-=9" in out


def test_analyze_json_payload(capsys):
    code, out, _ = run(capsys, "analyze", "X^4-10*X^3+2162", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["best_sector"]["method"] == "neg-sum"
    assert [i["source"] for i in data["intervals"]] == ["thm_disk_in_lens", "cor_cot"]
    assert "combined" not in data


def test_analyze_parse_error(capsys):
    code, _, err = run(capsys, "analyze", "X^2 + $")
    assert code == 2


def test_verify_cli_matrix(tmp_path, capsys):
    code, out, _ = run(capsys, "certify", "X^4-10*X^3+2162", "--m", "3", "--json")
    data = json.loads(out)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(data))
    assert run(capsys, "verify", str(good))[0] == 0

    data_bad = dict(data, m=2)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data_bad))
    assert run(capsys, "verify", str(bad))[0] == 1

    data_schema = dict(data, schema=99)
    ugly = tmp_path / "ugly.json"
    ugly.write_text(json.dumps(data_schema))
    assert run(capsys, "verify", str(ugly))[0] == 2

    assert run(capsys, "verify", str(tmp_path / "missing.json"))[0] == 2


def test_verify_of_an_infinite_number_is_an_input_error(tmp_path, capsys):
    code, out, _ = run(capsys, "certify", "X^4-10*X^3+2162", "--m", "3", "--json")
    path = tmp_path / "inf.json"
    path.write_text(out.replace('"m": 3', '"m": 1e400'))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert err.startswith("malformed certificate: bad field")


@pytest.mark.parametrize("old, new, code", [
    ('"m": 3,', '"m": 3.0,', 2),  # a top-level number must be a JSON integer
    ('"k": 1,', '"k": true,', 1),  # equal to 1, but not the rebuilt type
    ('"negated_argument": false', '"negated_argument": "no"', 2),  # not a boolean
])
def test_verify_of_a_type_confused_certificate(tmp_path, capsys, old, new, code):
    out = run(capsys, "certify", "X^4-10*X^3+2162", "--m", "3", "--json")[1]
    assert out.count(old) == 1
    path = tmp_path / "confused.json"
    path.write_text(out.replace(old, new))
    assert run(capsys, "verify", str(path))[0] == code


def test_verify_of_json_nested_past_the_recursion_limit(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert err.startswith("cannot read certificate: maximum recursion depth exceeded")


@pytest.mark.parametrize("from_file", [False, True])
def test_scan_of_json_nested_past_the_recursion_limit(tmp_path, capsys, from_file):
    text = "[" * 100_000
    path = tmp_path / "deep.json"
    path.write_text(text)
    source = [str(path)] if from_file else ["--family-json", text]
    code, out, err = run(capsys, "scan", *source)
    assert code == 2 and out == ""
    assert err.startswith("input error: family descriptor: maximum recursion depth exceeded")


def test_svg_deterministic(tmp_path, capsys):
    f = parse_polynomial("X^4-10*X^3+2162")
    assert render_svg(f) == render_svg(f)
    out1 = tmp_path / "a.svg"
    code, _, _ = run(capsys, "analyze", "X^4-10*X^3+2162", "--plot", str(out1))
    assert code == 0
    text = out1.read_text()
    assert text.startswith("<svg") and "</svg>" in text
    assert text == render_svg(f)


def test_plot_outside_the_float_range_is_refused(tmp_path, capsys):
    plot = tmp_path / "o.svg"
    code, out, err = run(capsys, "analyze", "X^2-10^400*X+1", "--plot", str(plot))
    assert code == 2 and out == ""
    assert err == ("error: the plot's coordinates fall outside the float range; "
                   "no plot written\n")
    assert not plot.exists()


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_plot_to_an_unwritable_path_is_an_input_error(tmp_path, capsys, where):
    plot = tmp_path / "missing" / "x.svg" if where == "missing directory" else tmp_path
    code, out, err = run(capsys, "analyze", "X^2+X+1", "--plot", str(plot))
    assert code == 2 and out == ""
    assert err.startswith("cannot write plot: ")
    assert list(tmp_path.iterdir()) == []


def test_scan_digit_family(capsys):
    report = scan_family({"family": "digit_polynomials", "base": 10,
                          "prime_lo": 1000, "prime_hi": 1100, "limit": 10})
    assert report["certified"] == report["total"] == 10
    assert all(r["criterion"] == "cor32_nonneg" for r in report["rows"])


def test_scan_value_shift_prime_power_family(capsys):
    report = scan_family({"family": "value_shift", "polynomial": "X^2+X+1",
                          "m": 4, "exponent": 2, "count": 5})
    assert report["certified"] == 5
    assert all(r["criterion"] == "thm35_prime_power" for r in report["rows"])


def test_scan_value_shift_plain_family():
    report = scan_family({"family": "value_shift", "polynomial": "X^3+2*X+1",
                          "m": 3, "exponent": 1, "count": 5})
    assert report["certified"] == 5


def test_scan_value_shift_partial_sums_family():
    # base polynomial has a negative coefficient but non-negative partial sums
    report = scan_family({"family": "value_shift", "polynomial": "X^3-X^2+X+1",
                          "m": 3, "exponent": 1, "count": 8})
    assert report["certified"] == 8


def test_scan_quartic_family_cli(capsys):
    code, out, _ = run(capsys, "scan", "--family-json",
                       '{"family": "quartic_reciprocal", "a_lo": 1, "a_hi": 4}')
    assert code == 0
    assert "certified 4/4" in out


def test_scan_bad_family(capsys):
    code, _, err = run(capsys, "scan", "--family-json", '{"family": "nope"}')
    assert code == 2


@pytest.mark.parametrize("argv, unknown", [
    (["scan", "--family", "desc.json"], "--family"),  # once read as --family-json
    (["certify", "X^4-10*X^3+2162", "--m", "3", "--q", "3"], "--q 3"),  # as --q-max
    # a polynomial after an unknown option stays as typed (cli._is_polynomial)
    (["analyze", "--coeff", "-1,0,1"], "--coeff -1,0,1"),
    (["certify", "-10*X^3+X^4+2162", "--m", "3", "--q", "3"], "--q 3"),  # past the
    # leading-minus rewrite
])
def test_abbreviated_options_are_unrecognized(capsys, argv, unknown):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {unknown}" in capsys.readouterr().err


@pytest.mark.parametrize("desc", [
    '{"family": "digit_polynomials"}',
    '[1]',
    '{"family": ["digit_polynomials"]}',
    '{"family": "digit_polynomials", "prime_lo": 2, "prime_hi": 1000}',
    '{"family": "digit_polynomials", "prime_lo": 1000.5, "prime_hi": 2000}',
    '{"family": "value_shift", "polynomial": "X+1", "m": 3}',
    '{"family": "value_shift", "polynomial": "X^2+1", "m": 0}',
    '{"family": "quartic_reciprocal", "a_lo": 1, "a_hi": "4"}',
])
def test_scan_malformed_descriptor_is_an_input_error(capsys, desc):
    code, out, err = run(capsys, "scan", "--family-json", desc)
    assert code == 2 and out == ""
    assert err.startswith("input error: ")


@pytest.mark.parametrize("desc", [
    {"family": "value_shift", "polynomial": "X^2+X+1", "m": 4,
     "exponent": 16384, "count": 3},
    {"family": "value_shift", "polynomial": "X^2+X+1", "m": 4, "count": 10**9},
    {"family": "digit_polynomials", "prime_lo": 1000, "prime_hi": 10**12,
     "limit": 10**9},
    {"family": "quartic_reciprocal", "a_lo": 1, "a_hi": 10**12, "per_a": 0},
    {"family": "quartic_reciprocal", "a_lo": 1, "a_hi": 100, "per_a": 11},
    {"family": "value_shift", "polynomial": "X^2+X+1", "m": 65536,
     "exponent": 1024, "count": 1},
    # a first p of 5959 bits: ~10 min in next_prime without the start budget
    {"family": "value_shift", "polynomial": "X^94+X+1", "m": 2**64 - 1,
     "exponent": 2, "count": 1},
    # a first p of 1920 bits: ~2 s a row without the start budget
    {"family": "value_shift", "polynomial": "X^30+X+1", "m": 2**64 - 1,
     "exponent": 1, "count": 1},
    {"family": "value_shift", "polynomial": f"X^2+X+{2**64}", "m": 4, "count": 1},
    # f(m) and f'(m) have ~3.8 million bits: evaluating either one in full
    # took ~25 s before the start budget was checked inside Horner's rule
    {"family": "value_shift", "polynomial": "X^60000+X+1", "m": 2**64 - 1, "count": 1},
    {"family": "value_shift", "polynomial": "X^60000+X+1", "m": 2**64 - 1,
     "exponent": 2, "count": 1},
    # f(4) = -4^19999 * (2^64 - 5): the first p is 2, but every row's
    # constant term p^exponent - f(4) has ~40000 bits, past Python's int ->
    # str limit; without the budget on f(m) the scan certified for ~2.7 s
    # and then failed to print its row
    {"family": "value_shift", "polynomial": f"X^20000-{2**64 - 1}*X^19999", "m": 4,
     "count": 1},
    {"family": "value_shift", "polynomial": f"X^20000-{2**64 - 1}*X^19999", "m": 4,
     "exponent": 2, "count": 1},
])
def test_scan_over_budget_descriptor_fails_fast(capsys, deadline, desc):
    deadline(1)
    code, _, err = run(capsys, "scan", "--family-json", json.dumps(desc))
    assert code == 2 and err.startswith("input error: ")
    with pytest.raises(ValueError):
        scan_family(desc)


def test_scan_checks_its_descriptor_once(monkeypatch, capsys):
    calls = {"_family_params": 0, "_shift_start": 0}
    for name in calls:
        def counted(*a, _fn=getattr(cli, name), _name=name):
            calls[_name] += 1
            return _fn(*a)
        monkeypatch.setattr(cli, name, counted)
    desc = {"family": "value_shift", "polynomial": "X^8+X+1", "m": 2**64 - 1, "count": 1}
    code, out, _ = run(capsys, "scan", "--family-json", json.dumps(desc))
    assert code == 0 and out.endswith("certified 1/1\n")
    assert calls == {"_family_params": 1, "_shift_start": 1}


@pytest.mark.parametrize("desc", [
    {"family": "value_shift", "polynomial": "X^8+X+1", "m": 10**60, "count": 1},
    {"family": "value_shift", "polynomial": "X^2+X+1", "m": 4, "prime_lo": 2**64},
    {"family": "digit_polynomials", "prime_lo": 10**30, "prime_hi": 10**30 + 10**6},
    {"family": "digit_polynomials", "prime_lo": 1000, "prime_hi": 2**64, "limit": 5},
    {"family": "quartic_reciprocal", "a_lo": 2**64, "a_hi": 2**64},
    {"family": "quartic_reciprocal", "a_lo": 1, "a_hi": 2**70},
])
def test_scan_oversized_numbers_are_an_input_error(capsys, deadline, desc):
    deadline(1)
    code, out, err = run(capsys, "scan", "--family-json", json.dumps(desc))
    assert code == 2 and out == ""
    assert err.startswith("input error: ")
    assert f"bits; at most {MAX_DESCRIPTOR_BITS} are allowed" in err
    with pytest.raises(ValueError, match="bits"):
        scan_family(desc)


def test_scan_numbers_of_the_largest_size_are_accepted():
    desc = {"family": "value_shift", "polynomial": "X^2+X+1", "m": 2**64 - 1, "count": 1}
    assert scan_family(desc)["total"] == 1
    # the first p has exactly MAX_SHIFT_START_BITS bits, and the largest
    # coefficient MAX_DESCRIPTOR_BITS
    m = 2**64 - 1
    assert _shift_start(parse_polynomial("X^8+X+1"), m, 1, 2).bit_length() \
        == MAX_SHIFT_START_BITS
    desc = {"family": "value_shift", "polynomial": "X^8+X+1", "m": m, "count": 1}
    assert scan_family(desc)["total"] == 1
    desc = {"family": "value_shift", "polynomial": f"X^2+X+{2**64 - 1}", "m": 4,
            "count": 1}
    assert scan_family(desc)["total"] == 1
    # f(4) < -2^2000: Horner's running value passes the start budget's bit
    # count, but below zero, so the scan still starts at max(2, prime_lo)
    f = parse_polynomial(f"X^1000-{2**64 - 1}*X^999")
    assert _shift_start(f, 4, 1, 2) == 2


def test_shift_budget_keeps_every_row_printable():
    # The worst scan the budget admits: the largest start of b bits, the
    # largest exponent its estimate allows, and MAX_SCAN_ROWS primes on from
    # it.  Past b = 20 the primes grow by less than one bit, which the
    # estimate already counts.
    limit_bits = 4300 * math.log2(10)  # Python's int -> str limit
    for b in range(1, 21):
        k = min(MAX_SHIFT_EXPONENT, MAX_SHIFT_BITS // (b + 1))
        p = (1 << b) - 1
        for _ in range(MAX_SCAN_ROWS):
            p = next_prime(p)
        assert k * math.log2(p) < limit_bits
        assert b < 14 or p.bit_length() <= b + 1


def test_scan_of_a_prime_exponent_past_1000(deadline):
    deadline(2)
    desc = {"family": "value_shift", "polynomial": "X^2+X+1", "m": 4,
            "prime_lo": 1009, "exponent": 1009, "count": 1}
    row, = scan_family(desc)["rows"]
    assert (row["p"], row["criterion"]) == (1009, "thm35_prime_power")


@pytest.mark.parametrize("exponent", [1, 2])
def test_shift_start_budgets_the_bits_of_f_of_m(exponent):
    # |f(4)| = 4^(n-1) * (2^64 - 5) has 2(n-1) + 64 bits
    n = (MAX_SHIFT_BITS - 64) // 2 + 1
    at_budget = parse_polynomial(f"X^{n}-{2**64 - 1}*X^{n - 1}")
    assert abs(at_budget.evaluate(4)).bit_length() == MAX_SHIFT_BITS
    assert _shift_start(at_budget, 4, exponent, 2) == 2
    with pytest.raises(ValueError, match=rf"f\(m\) would have more than {MAX_SHIFT_BITS}"):
        _shift_start(at_budget * parse_polynomial("X"), 4, exponent, 2)


def test_certify_value_with_a_huge_constant_term_ends(capsys, deadline):
    deadline(2)
    code, out, err = run(capsys, "certify", "X^2+X+10^5000", "--m", "2", "--json")
    assert code == 1 and out == ""
    assert "no certificate found" in err


def test_digits_env_default(monkeypatch, capsys):
    monkeypatch.setenv("POLYCERT_DIGITS", "15")
    code, out, _ = run(capsys, "certify", "X^4-10*X^3+2162", "--m", "3", "--json")
    assert code == 0
    assert json.loads(out)["digits"] == 15


@pytest.mark.parametrize("value", ["abc", "5000", "0", ""])
@pytest.mark.parametrize("argv", [
    ["certify", "X^4-10*X^3+2162", "--m", "3", "--json"],
    ["analyze", "X^4-10*X^3+2162"],
    ["scan", "--family-json", '{"family": "quartic_reciprocal", "a_lo": 1, "a_hi": 1}'],
])
def test_bad_digits_env_is_an_input_error(monkeypatch, capsys, value, argv):
    monkeypatch.setenv("POLYCERT_DIGITS", value)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("input error: POLYCERT_DIGITS")


def test_verify_ignores_digits_env(monkeypatch, tmp_path, capsys):
    code, out, _ = run(capsys, "certify", "X^4-10*X^3+2162", "--m", "3", "--json")
    path = tmp_path / "cert.json"
    path.write_text(out)
    monkeypatch.setenv("POLYCERT_DIGITS", "abc")
    assert run(capsys, "verify", str(path))[:2] == (0, "certificate verified\n")


def test_certify_search_span_is_an_input_error(capsys):
    code, _, err = run(capsys, "certify", "(X^2+1)*(X^2+3)", "--search", "1..100000000")
    assert code == 2
    assert "input error" in err and "search range spans" in err


def test_certify_with_a_reciprocal_vertex_past_the_float_range(capsys, deadline):
    deadline(2)
    code, out, err = run(capsys, "certify", "X^4-10^4000*X^3+2162", "--m", "3")
    assert (code, out, err) == (1, "", "no certificate found\n")


def test_unexpected_exception_is_an_internal_error(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom\non two lines")

    monkeypatch.setattr(cli, "_cmd_certify", broken)
    code, out, err = run(capsys, "certify", "X^4-10*X^3+2162", "--m", "3")
    assert (code, out, err) == (3, "", "internal error: RuntimeError: boom on two lines\n")


@pytest.mark.parametrize("depth, code", [(100, 0), (101, 2), (1000, 2)])
def test_deeply_nested_parentheses(capsys, deadline, depth, code):
    deadline(1)
    got, _, err = run(capsys, "analyze", "(" * depth + "X" + ")" * depth)
    assert got == code
    assert ("input error: parentheses nested more than 100 deep (at position 100)\n"
            == err) == (code == 2)


class ClosedPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_a_closed_stdout_pipe_ends_quietly(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdout", ClosedPipe())
    code = main(["analyze", "X^4-10*X^3+2162", "--json"])
    replaced = sys.stdout
    replaced.close()
    assert code == 141
    assert replaced.name == os.devnull
    assert capsys.readouterr().err == ""


def test_analyze_of_a_power_past_the_parse_budget_ends(capsys, deadline):
    deadline(2)
    code, out, err = run(capsys, "analyze", "(X+1)^20000")
    assert code == 2 and out == ""
    assert err.startswith("input error: polynomial too large to build")


INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not INT_DIGITS, reason="this Python converts text of any length to an int")
@pytest.mark.parametrize("argv, what, position", [
    (["analyze", "X^2+1" + "0" * 5000], "integer literal", 4),
    (["analyze", "--coeffs", "1" + "0" * 5000 + ",1,1"], "coefficient", 0),
    (["certify", "X^2+1" + "0" * 5000, "--m", "3"], "integer literal", 4),
], ids=["analyze", "coeffs", "certify"])
def test_a_literal_past_the_int_digit_limit_is_a_short_input_error(capsys, argv, what, position):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == (f"input error: {what} '100000000000'... (5001 characters) has more than "
                   f"{INT_DIGITS} digits, the most Python converts to an int "
                   f"(at position {position})\n")
    assert len(err.encode()) < 300


@pytest.mark.parametrize("digits, code", [(4199, 0), (4200, 2), (5000, 2)])
@pytest.mark.parametrize("as_json", [False, True])
def test_analyze_names_the_int_to_text_limit(capsys, digits, code, as_json):
    # 10^d has d + 1 digits: analyze takes 4200 with the default limit of 4300
    args = ["analyze", f"X^4-10^{digits}*X^3+2162"] + (["--json"] if as_json else [])
    got, out, err = run(capsys, *args)
    assert got == code
    if code == 2:
        assert out == ""
        assert err == ("input error: analyze prints coefficients of at most 4200 digits "
                       "(Python converts ints of at most 4300 digits to text)\n")
    else:
        assert err == "" and out
