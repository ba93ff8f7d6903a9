"""Certified zero-free sectors and lens regions for integer polynomials, and
irreducibility certificates from prime or prime-power values taken inside
those regions."""

from .arith import (FactorizationWitness, PrimalityResult, PrimalityStatus,
                    extract_witness_report, has_rational_root, is_prime,
                    p_adic_valuation)
from .certify import (Certificate, Certifier, Check, MalformedCertificateError,
                      SearchReport, certificate_verify, certify_any,
                      certify_negative_m, search_m)
from .lens import (AdmissibleInterval, DegenerateLensError, Lens, interval_cot,
                   interval_disk_in_lens, lens_of)
from .poly import (ParseError, PartialSums, Polynomial, SignBlock,
                   SignBlockPartition, SignIndexSets, parse_polynomial,
                   partial_sums, sign_blocks, sign_index_sets)
from .rounding import BoundedReal, nth_root_bounds
from .sectors import Sector, best_sector, sector_candidates

__version__ = "0.1.0"

# The numeric oracles (cmath, brute force) serve tests and the SVG plot only,
# so they are imported on first use, not with the package.
_ORACLE_NAMES = ("FactorSearchResult", "RootSet", "in_sector",
                 "irreducible_bruteforce", "roots_numeric")

__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + ["oracles", *_ORACLE_NAMES])


def __getattr__(name: str):
    if name == "oracles" or name in _ORACLE_NAMES:
        from importlib import import_module
        oracles = import_module(".oracles", __name__)
        return oracles if name == "oracles" else getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
