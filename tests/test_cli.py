import json

import pytest

from polycert.certify import certificate_verify
from polycert.cli import MAX_DESCRIPTOR_BITS, main, render_svg, scan_family
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
    assert [i["source"] for i in data["intervals"]] == \
        ["thm_disk_in_lens", "cor_cot", "cor_effective"]


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


def test_svg_deterministic(tmp_path, capsys):
    f = parse_polynomial("X^4-10*X^3+2162")
    assert render_svg(f) == render_svg(f)
    out1 = tmp_path / "a.svg"
    code, _, _ = run(capsys, "analyze", "X^4-10*X^3+2162", "--plot", str(out1))
    assert code == 0
    text = out1.read_text()
    assert text.startswith("<svg") and "</svg>" in text
    assert text == render_svg(f)


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
])
def test_scan_over_budget_descriptor_fails_fast(capsys, deadline, desc):
    deadline(1)
    code, _, err = run(capsys, "scan", "--family-json", json.dumps(desc))
    assert code == 2 and err.startswith("input error: ")
    with pytest.raises(ValueError):
        scan_family(desc)


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
