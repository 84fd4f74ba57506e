"""Exact arithmetic in cyclotomic fields Q(zeta_n) and their integer rings.

Covers cyclotomic polynomials and their discriminants, power-basis field
arithmetic with Galois action, norms, traces and units (including the
real-times-root-of-unity decomposition of units), exact Bernoulli numbers
with the regularity criterion for primes, and an exhaustive Case I Fermat
search.  All arithmetic is exact; there is no floating point anywhere.
"""

from .errors import (
    ConductorMismatchError,
    InternalInvariantError,
    IrregularPrimeError,
    NotIntegralError,
)
from .fermat import (
    SearchReport,
    case_i_search,
    check_regular_and_search,
    merge_reports,
)
from .ntheory import divisors, factorize, is_prime, moebius, totient
from .polys import (
    Poly,
    cyclotomic_poly,
    discr_prime_pow,
    discriminant,
    poly_from_str,
    poly_to_str,
    resultant,
)
from .regularity import (
    RegularityReport,
    bernoulli,
    irregular_pairs,
    is_regular_prime,
    vsc_denominator,
)
from .ring import (
    CycElt,
    UnitDecomposition,
    decompose_unit,
    factor_sum_pth_powers,
    is_root_of_unity,
    zeta_pow,
)

__all__ = [
    "ConductorMismatchError",
    "CycElt",
    "InternalInvariantError",
    "IrregularPrimeError",
    "NotIntegralError",
    "Poly",
    "RegularityReport",
    "SearchReport",
    "UnitDecomposition",
    "bernoulli",
    "case_i_search",
    "check_regular_and_search",
    "cyclotomic_poly",
    "decompose_unit",
    "discr_prime_pow",
    "discriminant",
    "divisors",
    "factor_sum_pth_powers",
    "factorize",
    "irregular_pairs",
    "is_prime",
    "is_regular_prime",
    "is_root_of_unity",
    "merge_reports",
    "moebius",
    "poly_from_str",
    "poly_to_str",
    "resultant",
    "totient",
    "vsc_denominator",
    "zeta_pow",
]
