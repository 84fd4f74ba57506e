"""Exhaustive desk-scale search for Case I Fermat counterexamples.

For an odd prime p, searches x^p + y^p = z^p over 1 <= x <= y <= bound with
gcd(xyz, p) = 1.  Because p is odd, any solution in integers with xyz != 0
maps under sign flips and rearrangement to one in this box (negating a
variable negates its p-th power, so every sign pattern rearranges to a sum
of two positive p-th powers equal to a third), so the box search is
exhaustive up to the bound.

The optional pruning filter uses t^p = t (mod p): any solution has
z = z^p = x^p + y^p = x + y (mod p), so a pair with p | x + y would force
p | z and cannot yield a coprime solution.  The filter tests the pair
alone, before any z is looked for, so `pruned_by_filter` counts pairs.

z needs no root extraction: z^p = x^p + y^p < 2y^p gives z < 2y, and for a
fixed x it grows with y, so one pointer walks forward through the list of
p-th powers of 0..2*bound.  The search is partitionable over disjoint
x-ranges with a deterministic merge.
"""

from __future__ import annotations

from dataclasses import dataclass

from .regularity import is_regular_prime
from .errors import IrregularPrimeError
from .ntheory import check_odd_prime

__all__ = [
    "MAX_BOUND",
    "MAX_POWER_BITS",
    "SearchReport",
    "case_i_search",
    "check_regular_and_search",
    "merge_reports",
]

# Largest accepted bound (a search tests bound*(bound+1)/2 pairs), and size in
# bits of the list of p-th powers of 0..2*bound, taken as 2*bound + 1 entries
# of p * bit_length(2*bound + 1) bits each.
MAX_BOUND, MAX_POWER_BITS = 10_000, 1 << 30


@dataclass(frozen=True)
class SearchReport:
    p: int
    bound: int
    candidates_examined: int
    pruned_by_filter: int
    solutions: tuple[tuple[int, int, int], ...]


def _check_search(p, bound):
    """Reject a box too large to search, before any trial division of p."""
    if not 0 <= bound <= MAX_BOUND:
        raise ValueError(f"bound must be in 0..{MAX_BOUND}")
    size = 2 * bound + 1
    if size * size.bit_length() * p > MAX_POWER_BITS:
        raise ValueError(f"p-th powers of 0..2*bound would exceed {MAX_POWER_BITS} bits")
    check_odd_prime(p)


def case_i_search(p: int, bound: int, use_filter: bool = True, x_range=None) -> SearchReport:
    """Search the box 1 <= x <= y <= bound for x^p + y^p = z^p with
    gcd(xyz, p) = 1.  `x_range = (lo, hi)` restricts x to a chunk for
    partitioned runs; every (x, y) pair in the box counts as a candidate
    whether or not it survives the coprimality screen or the filter.
    """
    _check_search(p, bound)
    lo, hi = x_range if x_range is not None else (1, bound)
    lo, hi = max(lo, 1), min(hi, bound)
    candidates = 0
    pruned = 0
    solutions = []
    pth = [v**p for v in range(2 * bound + 1)]
    for x in range(lo, hi + 1):
        candidates += bound - x + 1
        if x % p == 0:
            continue
        xp, z = pth[x], x
        for y in range(x, bound + 1):
            if y % p == 0:
                continue
            if use_filter and (x + y) % p == 0:
                pruned += 1
                continue
            s = xp + pth[y]
            while pth[z] < s:
                z += 1
            if pth[z] == s and z % p:
                solutions.append((x, y, z))
    return SearchReport(
        p=p,
        bound=bound,
        candidates_examined=candidates,
        pruned_by_filter=pruned,
        solutions=tuple(solutions),
    )


def merge_reports(reports) -> SearchReport:
    """Combine chunked reports from the same (p, bound) search."""
    reports = list(reports)
    if not reports:
        raise ValueError("nothing to merge")
    p, bound = reports[0].p, reports[0].bound
    if any(r.p != p or r.bound != bound for r in reports):
        raise ValueError("reports come from different searches")
    sols = sorted(t for r in reports for t in r.solutions)
    return SearchReport(
        p=p,
        bound=bound,
        candidates_examined=sum(r.candidates_examined for r in reports),
        pruned_by_filter=sum(r.pruned_by_filter for r in reports),
        solutions=tuple(sols),
    )


def check_regular_and_search(p: int, bound: int, use_filter: bool = True) -> SearchReport:
    """The regularity-gated pipeline: verify p is an odd regular prime,
    then run the box search; irregular primes are rejected with their
    irregular pairs named."""
    _check_search(p, bound)
    report = is_regular_prime(p)
    if not report.regular:
        raise IrregularPrimeError(p, report.pairs)
    return case_i_search(p, bound, use_filter=use_filter)
