"""The public names of the polycert package.  A name added to or removed
from `polycert.__all__` must show up here as a reviewed edit."""
import os
import subprocess
import sys
import textwrap

import polycert

PUBLIC = [
    "AdmissibleInterval", "BoundedReal", "Certificate", "Certifier", "Check",
    "DegenerateLensError", "FactorSearchResult", "FactorizationWitness",
    "Lens", "MalformedCertificateError", "ParseError", "PartialSums",
    "Polynomial", "PrimalityResult", "PrimalityStatus", "RootSet",
    "SearchReport", "Sector", "SignBlock", "SignBlockPartition",
    "SignIndexSets", "arith", "best_sector", "certificate_verify",
    "certify", "certify_any", "certify_negative_m", "extract_witness_report",
    "has_rational_root", "in_sector", "interval_cot", "interval_disk_in_lens",
    "irreducible_bruteforce", "is_prime", "lens", "lens_of", "nth_root_bounds",
    "oracles", "p_adic_valuation", "parse_polynomial", "partial_sums", "poly",
    "roots_numeric", "rounding", "search_m", "sector_candidates", "sectors",
    "sign_blocks", "sign_index_sets",
]


def test_public_names_are_pinned():
    assert len(PUBLIC) == 49
    assert sorted(polycert.__all__) == PUBLIC


def test_oracle_names_resolve_on_first_use():
    from polycert import oracles
    assert polycert.oracles is oracles
    assert polycert.roots_numeric is oracles.roots_numeric
    assert polycert.RootSet is oracles.RootSet


def test_cli_import_leaves_the_oracles_out(tmp_path):
    # the oracles (cmath, brute force) cost start-up time every CLI process
    # would pay; only the SVG plot and the tests use them.  The runtime is
    # standard-library only: the test dependencies stay out of sys.modules
    # through a whole analyze, certify and verify.
    src = os.path.dirname(os.path.dirname(polycert.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = textwrap.dedent("""
        import contextlib, os, sys
        import polycert, polycert.cli
        print('polycert.oracles' in sys.modules)
        flagship, path = "X^4-10*X^3+2162", sys.argv[1]
        with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
            assert polycert.cli.main(["analyze", flagship, "--json"]) == 0
            with open(path, "w") as fh, contextlib.redirect_stdout(fh):
                assert polycert.cli.main(["certify", flagship, "--m", "3", "--json"]) == 0
            assert polycert.cli.main(["verify", path]) == 0
        print(sorted({"mpmath", "sympy", "hypothesis"} & sys.modules.keys()))
    """)
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "cert.json")],
                         env=env, check=True, capture_output=True, text=True).stdout
    assert out == "False\n[]\n"


def test_cli_import_leaves_dataclasses_out():
    # the records are NamedTuples and slotted classes: `dataclasses` (with
    # `inspect`, `ast` and `dis`) and its per-class generated code would add
    # ~20 ms to every CLI process
    src = os.path.dirname(os.path.dirname(polycert.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, polycert.cli; print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
