"""Exact Bernoulli numbers and the regularity criterion for primes.

Bernoulli numbers use the B_1 = -1/2 convention.  The even ones come from
the tangent numbers T_k = E_(2k-1) (Brent and Harvey, "Fast computation of
Bernoulli, Tangent and Secant numbers", 2011):

    B_2k = (-1)^(k-1) * 2k * T_k / (4^k * (4^k - 1)),

and the zigzag numbers E_n come from the Seidel-Entringer boustrophedon by
integer additions alone, in place.  One row of the triangle is kept beside
an append-only memo table of B_0, B_2, B_4, ... as reduced numerators and
denominators, plain ints; they grow together under a lock, so concurrent
readers are safe.  B_1 = -1/2 and the odd B_m = 0 (m >= 3) are answered
without the table.  Indices above MAX_INDEX are refused before any work.

A prime p >= 5 is regular exactly when p divides no numerator among
B_2, B_4, ..., B_(p-3); the even indices where it does are its irregular
pairs.  The criterion scans the stored numerators directly.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, count, islice, repeat
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

# Largest accepted Bernoulli index: a cold table up to it took 4.5-6.3 s
# in-process (6.3-7.6 s as a CLI run) and peaked at 37 MB on a 2-vCPU Xeon
# VM with Python 3.11 (4000 took 8.7 s and 44 MB, 3000 took 3.4 s and
# 31 MB).
MAX_INDEX = 3500

# _table[k] is the numerator of B_2k in lowest terms, with its sign, and
# _denominators[k] its (positive) denominator; _row is row 2k of the
# boustrophedon, [0, E_(2k-1), ..., E_2k, E_2k] for k >= 1.  The
# denominator is appended first, so a reader that sees _table[k] without
# the lock also sees _denominators[k].
_table: list[int] = [1]
_denominators: list[int] = [1]
_row: list[int] = [1]
_lock = threading.Lock()


def _extend_table() -> None:
    """Advance _row two rows, then append B_2k.  Caller holds _lock."""
    row = _row
    for _ in range(2):  # row n: 0, then the prefix sums of row n-1 read backwards
        row.reverse()
        row.insert(0, 0)
        sums = accumulate(row)
        for start in range(0, len(row), 256):  # in place: `sums` reads a block before it is written
            row[start : start + 256] = islice(sums, 256)
    k = len(_table)
    q = 4**k
    num, den = 2 * k * row[1], q * (q - 1)
    g = gcd(num, den)
    _denominators.append(den // g)
    _table.append((num if k % 2 else -num) // g)


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
    if k >= len(_table):
        with _lock:
            while k >= len(_table):
                _extend_table()
    return Fraction(_table[k], _denominators[k])


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
    bernoulli(p - 3)  # extends the table through B_(p-3)
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
