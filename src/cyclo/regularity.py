"""Exact Bernoulli numbers and the regularity criterion for primes.

Bernoulli numbers use the B_1 = -1/2 convention.  The even ones come from
the tangent numbers T_k (Brent and Harvey, "Fast computation of
Bernoulli, Tangent and Secant numbers", 2011):

    B_2k = (-1)^(k-1) * 2k * T_k / (4^k * (4^k - 1)),

and T_k comes from their tangent-number recurrence, each entry of their
triangle divided by a factorial so that a step is one small multiple and one
addition of integers, in place.  One column of it is kept beside an
append-only memo table of the reduced numerators of B_0, B_2, B_4, ...,
plain ints; both grow under a lock, and a reader sees a prefix of the table,
so concurrent readers are safe.  The denominators are not stored: by von
Staudt-Clausen that of B_m is `vsc_denominator(m)`.  B_1 = -1/2 and the odd
B_m = 0 (m >= 3) are answered without the table.  Indices above MAX_INDEX
are refused before any work.

A prime p >= 5 is regular exactly when p divides no numerator among
B_2, B_4, ..., B_(p-3); the even indices where it does are its irregular
pairs.  The criterion scans the stored numerators directly.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count, repeat
from math import gcd
from operator import mod, not_

from .ntheory import divisors, is_prime

__all__ = [
    "MAX_INDEX",
    "RegularityReport",
    "bernoulli",
    "irregular_pairs",
    "is_regular_prime",
    "vsc_denominator",
]

# Largest accepted Bernoulli index: a cold table up to it took 2.2-2.9 s
# in-process (2.0-2.5 s as a CLI run) and peaked at 24 MB on a 2-vCPU Xeon VM
# with Python 3.11 (4000: 3.2-5.1 s and 26 MB; 3000: 1.3-2.0 s and 21 MB).
MAX_INDEX = 3500

# _table[k] is the numerator of B_2k in lowest terms, with its sign; its
# denominator is vsc_denominator(2k) for k >= 1.  _column is column k of Brent
# and Harvey's tangent triangle, V_1(k) = (k-1)! and V_i(k) = (k-i) * V_i(k-1)
# + (k-i+2) * V_(i-1)(k), each entry divided by (k-i)!: [U_1(k), ..., U_k(k)]
# with U_1(k) = 1, U_i(k) = U_i(k-1) + (k-i+2)(k-i+1) * U_(i-1)(k) and
# U_k(k) = V_k(k) = T_k.
_table: list[int] = [1]
_column: list[int] = []
_lock = threading.Lock()


def _extend_table(k: int) -> None:
    """Grow the table through B_2k, taking _lock only when it is shorter: each
    step advances _column to column j, then appends B_2j from T_j."""
    if k < len(_table):
        return
    column = _column
    with _lock:
        while k >= len(_table):
            j = len(_table)
            u = 0
            for i, c in enumerate(range(j + 1, 2, -1)):  # c = j-i+1 for U_(i+1)(j); U_0(j) = 0
                u = column[i] = column[i] + c * (c - 1) * u
            column.append(2 * u if column else 1)  # T_j = 2 * U_(j-1)(j), and T_1 = 1
            q = 4**j
            num = 2 * j * column[-1]
            _table.append((num if j % 2 else -num) // gcd(num, q * (q - 1)))


def bernoulli(m: int) -> Fraction:
    """Exact B_m (B_1 = -1/2) for 0 <= m <= MAX_INDEX.

    >>> bernoulli(12)
    Fraction(-691, 2730)
    """
    if m < 0:
        raise ValueError("index must be >= 0")
    if m > MAX_INDEX:
        raise ValueError(f"index must be <= {MAX_INDEX}")
    if m % 2:
        return Fraction(-1, 2) if m == 1 else Fraction(0)
    k = m // 2
    _extend_table(k)
    return Fraction(_table[k], vsc_denominator(m) if k else 1)


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
    _extend_table((p - 3) // 2)
    divisible = map(not_, map(mod, _table[1 : (p - 1) // 2], repeat(p)))
    return [(p, k) for k in compress(count(2, 2), divisible)]


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
