"""Exact Bernoulli numbers and the regularity criterion for primes.

Bernoulli numbers use the B_1 = -1/2 convention and are computed by the
defining recurrence with an append-only memo table (guarded by a lock, so
concurrent readers are safe).  A prime p >= 5 is regular exactly when p
divides no numerator among B_2, B_4, ..., B_(p-3); the even indices where
it does are its irregular pairs.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction

from .ntheory import divisors, is_prime

__all__ = [
    "RegularityReport",
    "bernoulli",
    "irregular_pairs",
    "is_regular_prime",
    "vsc_denominator",
]

_table: list[Fraction] = [Fraction(1)]
_lock = threading.Lock()


def bernoulli(m: int) -> Fraction:
    """Exact B_m (B_1 = -1/2), via the recurrence

        B_m = -1/(m+1) * sum_{j=0}^{m-1} C(m+1, j) B_j.

    >>> bernoulli(12)
    Fraction(-691, 2730)
    """
    if m < 0:
        raise ValueError("index must be >= 0")
    if m >= len(_table):
        with _lock:
            for i in range(len(_table), m + 1):
                acc = Fraction(0)
                for j, bj in enumerate(_table):
                    if bj:
                        acc += math.comb(i + 1, j) * bj
                _table.append(-acc / (i + 1))
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


def irregular_pairs(p: int) -> list[tuple[int, int]]:
    """All pairs (p, k) with k even, 2 <= k <= p-3, and p | numerator(B_k)."""
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
    if not is_prime(p):
        raise ValueError("prime required")
    if p <= 3:
        return RegularityReport(p=p, regular=True, pairs=())
    pairs = tuple(irregular_pairs(p))
    return RegularityReport(p=p, regular=not pairs, pairs=pairs)
