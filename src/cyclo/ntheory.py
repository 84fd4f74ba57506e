"""Elementary number-theoretic helpers on arbitrary-precision integers.

Everything here is exact: rationals are `fractions.Fraction` (always reduced,
denominator positive, zero canonically 0/1) and no floating point is used
anywhere in the package.  Conductors and moduli at desk scale are small, so
factorization is plain trial division.
"""

from __future__ import annotations

__all__ = [
    "check_odd_prime",
    "divisors",
    "factorize",
    "is_prime",
    "moebius",
    "totient",
]


def is_prime(n: int) -> bool:
    """Deterministic primality test: n >= 2 is its own least prime factor."""
    return n >= 2 and _least_factor(n) == n


def check_odd_prime(p: int) -> int:
    """Return p if it is an odd prime, else raise ValueError."""
    if p == 2 or not is_prime(p):
        raise ValueError("odd prime required")
    return p


def _least_factor(n: int, d: int = 2) -> int:
    """Least prime factor of n >= 2, by trial division from d, which is 2 or
    odd and not above that factor."""
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1 if d == 2 else 2
    return n


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as a sorted list of (prime, exponent)."""
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    out = []
    d = 2
    while n > 1:
        d = _least_factor(n, d)
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        out.append((d, e))
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def totient(n: int) -> int:
    """Euler's totient: the number of 1 <= k <= n coprime to n.

    >>> totient(1), totient(9), totient(100)
    (1, 6, 40)
    """
    if n < 1:
        raise ValueError("totient requires n >= 1")
    result = n
    for p, _ in factorize(n):
        result = result // p * (p - 1)
    return result


def moebius(n: int) -> int:
    """Moebius function: 0 if n has a squared prime factor, else (-1)^#primes."""
    if n < 1:
        raise ValueError("moebius requires n >= 1")
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1
