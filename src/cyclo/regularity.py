"""Exact Bernoulli numbers and the regularity criterion for primes.

Bernoulli numbers use the B_1 = -1/2 convention.  The even ones come from
the tangent numbers T_k = E_(2k-1) (Brent and Harvey, "Fast computation of
Bernoulli, Tangent and Secant numbers", 2011):

    B_2k = (-1)^(k-1) * 2k * T_k / (4^k * (4^k - 1)),

and the zigzag numbers E_n come from the Seidel-Entringer boustrophedon by
integer additions alone.  One row of the triangle is kept beside an
append-only memo table; both grow together under a lock, so concurrent
readers are safe.  Indices above MAX_INDEX are refused before any work.

A prime p >= 5 is regular exactly when p divides no numerator among
B_2, B_4, ..., B_(p-3); the even indices where it does are its irregular
pairs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .ntheory import divisors, is_prime

__all__ = [
    "MAX_INDEX",
    "RegularityReport",
    "bernoulli",
    "irregular_pairs",
    "is_regular_prime",
    "vsc_denominator",
]

# Largest accepted Bernoulli index: a cold table up to it took 8.4-9.5 s
# and peaked at 51 MB (each pass over _row builds the new row beside the
# old one) on a 2-vCPU Xeon VM with Python 3.11 (4000 took 10-15 s, 3000
# took 4.8 s).
MAX_INDEX = 3500

# _table holds B_0..B_(2k+1) and _row is row 2k of the boustrophedon, stored
# as [0, E_(2k-1), ..., E_2k, E_2k] for k >= 1; odd rows run the other way.
_table: list[Fraction] = [Fraction(1), Fraction(-1, 2)]
_row: list[int] = [1]
_lock = threading.Lock()


def _extend_table() -> None:
    """Advance _row two rows, then append B_2k and B_(2k+1) = 0.  Caller
    holds _lock."""
    row = _row
    row[::-1] = accumulate(reversed(row))  # odd row 2k-1: suffix sums, ending in 0
    row.append(0)
    row[:] = accumulate(row, initial=0)  # even row 2k: 0, then prefix sums
    k = len(_table) // 2
    q = 4**k
    b = Fraction(2 * k * row[1], q * (q - 1))
    _table.extend((b if k % 2 else -b, Fraction(0)))


def bernoulli(m: int) -> Fraction:
    """Exact B_m (B_1 = -1/2) for 0 <= m <= MAX_INDEX.

    >>> bernoulli(12)
    Fraction(-691, 2730)
    """
    if m < 0:
        raise ValueError("index must be >= 0")
    if m > MAX_INDEX:
        raise ValueError(f"index must be <= {MAX_INDEX}")
    if m >= len(_table):
        with _lock:
            while m >= len(_table):
                _extend_table()
    return _table[m]


def vsc_denominator(m: int) -> int:
    """von Staudt-Clausen denominator of B_m for even m >= 2: the product
    of all primes q with (q-1) | m."""
    if m < 2 or m % 2:
        raise ValueError("index must be even and >= 2")
    out = 1
    for d in divisors(m):
        if is_prime(d + 1):
            out *= d + 1
    return out


def _check_criterion_size(p: int) -> None:
    """The criterion for p reads B_(p-3); refuse p before its primality test
    when that index is above MAX_INDEX."""
    if p - 3 > MAX_INDEX:
        raise ValueError(f"p must be <= {MAX_INDEX + 3} (the criterion reads B_(p-3))")


def irregular_pairs(p: int) -> list[tuple[int, int]]:
    """All pairs (p, k) with k even, 2 <= k <= p-3, and p | numerator(B_k)."""
    _check_criterion_size(p)
    if p < 5 or not is_prime(p):
        raise ValueError("odd prime >= 5 required")
    return [(p, k) for k in range(2, p - 2, 2) if bernoulli(k).numerator % p == 0]


@dataclass(frozen=True)
class RegularityReport:
    p: int
    regular: bool
    pairs: tuple[tuple[int, int], ...]


def is_regular_prime(p: int) -> RegularityReport:
    """Classify p by the Bernoulli criterion.

    For p in {2, 3} the criterion range B_2..B_(p-3) is empty and the
    verdict is regular.
    """
    _check_criterion_size(p)
    if not is_prime(p):
        raise ValueError("prime required")
    if p <= 3:
        return RegularityReport(p=p, regular=True, pairs=())
    pairs = tuple(irregular_pairs(p))
    return RegularityReport(p=p, regular=not pairs, pairs=pairs)
