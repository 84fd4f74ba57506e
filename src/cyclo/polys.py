"""Dense polynomial arithmetic with exact coefficients.

A polynomial is a tuple of coefficients low-to-high, trailing coefficient
nonzero; the zero polynomial is the empty tuple and its ``degree`` is None
(a marker, never a number).  Coefficients are Python ints or Fractions;
integral values are normalized to int so that integer polynomials stay on
the fast int path.

Includes the n-th cyclotomic polynomial (recursive exact division, cached),
resultants by a fraction-free subresultant remainder sequence, polynomial
discriminants, and the closed-form discriminant of prime-power cyclotomic
fields.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction

from .errors import InternalInvariantError
from .ntheory import factorize, is_prime, totient

__all__ = [
    "MAX_CONDUCTOR",
    "Poly",
    "check_conductor",
    "cyclotomic_poly",
    "discr_prime_pow",
    "discriminant",
    "format_scalar",
    "parse_scalar",
    "poly_from_str",
    "poly_to_str",
    "resultant",
]


def _scalar(c):
    """Normalize an exact scalar: Fractions with denominator 1 become int."""
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    raise TypeError(f"exact coefficient required (int or Fraction), got {type(c).__name__}")


def _div(a, b):
    """Exact scalar division a/b, staying int when possible."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return q if r == 0 else Fraction(a, b)
    return _scalar(Fraction(a) / Fraction(b))


def _exact_int_div(a, b):
    q, r = divmod(a, b)
    if r:
        raise InternalInvariantError("inexact division in subresultant sequence")
    return q


class Poly:
    """Immutable dense polynomial over the exact scalars."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_scalar(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def monomial(cls, k, c=1):
        """c * X^k"""
        return cls([0] * k + [c])

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def is_integral(self):
        return all(isinstance(c, int) for c in self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({self.coeffs!r})"

    def __str__(self):
        return poly_to_str(self)

    @staticmethod
    def _coerce(other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly([other])
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] += ai * bj
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial power must be a non-negative integer")
        result = Poly([1])
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        g = other.coeffs
        dg, lg = len(g) - 1, g[-1]
        r = list(self.coeffs)
        q = [0] * max(len(r) - dg, 0)
        while len(r) > dg:
            shift = len(r) - 1 - dg
            c = r[-1] if lg == 1 else _div(r[-1], lg)
            q[shift] = c
            for i, gc in enumerate(g):
                r[shift + i] -= c * gc
            while r and r[-1] == 0:
                r.pop()
        return Poly(q), Poly(r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, x):
        """Horner evaluation."""
        result = 0
        for c in reversed(self.coeffs):
            result = result * x + c
        return _scalar(result) if isinstance(result, (int, Fraction)) else result

    def derivative(self):
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def compose_xpow(self, k):
        """f(X^k): spread coefficients k apart."""
        if k < 1:
            raise ValueError("compose_xpow requires k >= 1")
        if not self.coeffs:
            return Poly()
        out = [0] * ((len(self.coeffs) - 1) * k + 1)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return Poly(out)


# Largest accepted conductor.  Element arithmetic in Q(zeta_n) builds lists of
# up to n coordinates (reduction, Galois images, zeta_n^j), so every entry
# point bounds n before anything of that size is allocated.
MAX_CONDUCTOR = 100_000


def check_conductor(n) -> int:
    """Return n if it is an int in 1..MAX_CONDUCTOR, else raise ValueError."""
    if not isinstance(n, int) or not 1 <= n <= MAX_CONDUCTOR:
        raise ValueError(f"conductor must be an integer in 1..{MAX_CONDUCTOR}")
    return n


@functools.cache
def cyclotomic_poly(n: int) -> Poly:
    """The n-th cyclotomic polynomial, monic of degree phi(n).

    Built by recursive exact division: with p the largest prime factor of n
    and m = n // p, Phi_n(X) = Phi_m(X^p) / Phi_m(X) when p does not divide
    m, and Phi_n(X) = Phi_m(X^p) when it does.  Cached per process (the
    cache is a thread-safe idempotent memo).  n must pass check_conductor.

    >>> cyclotomic_poly(12)
    Poly((1, 0, -1, 0, 1))
    """
    check_conductor(n)
    if n == 1:
        return Poly((-1, 1))
    p = factorize(n)[-1][0]
    m = n // p
    lifted = cyclotomic_poly(m).compose_xpow(p)
    if m % p == 0:
        return lifted
    q, r = divmod(lifted, cyclotomic_poly(m))
    if r:
        raise InternalInvariantError("cyclotomic division left a remainder")
    return q


def _prem(A, B):
    """Pseudo-remainder over Z: lc(B)^(deg A - deg B + 1) * A mod B, scaled
    once up front so that each step divides its lead exactly by lc(B)."""
    dB, lb = len(B) - 1, B[-1]
    scale = lb ** max(len(A) - dB, 0)
    R = [c * scale for c in A]
    for top in range(len(R) - 1, dB - 1, -1):
        q = _exact_int_div(R[top], lb)
        if q:
            shift = top - dB
            for i in range(dB):
                R[shift + i] -= q * B[i]
    del R[dB:]
    while R and R[-1] == 0:
        R.pop()
    return R


def resultant(f: Poly, g: Poly) -> int:
    """Res(f, g) for nonzero integer polynomials, by the fraction-free
    subresultant remainder sequence."""
    if not f or not g:
        raise ValueError("resultant of zero polynomial")
    if not (f.is_integral() and g.is_integral()):
        raise ValueError("resultant requires integer coefficients")
    A, B = list(f.coeffs), list(g.coeffs)
    s = 1
    if len(A) < len(B):
        if ((len(A) - 1) * (len(B) - 1)) % 2:
            s = -s
        A, B = B, A
    if len(B) == 1:
        return s * B[0] ** (len(A) - 1)
    gg = 1
    hh = 1
    while True:
        dA, dB = len(A) - 1, len(B) - 1
        delta = dA - dB
        if dA % 2 and dB % 2:
            s = -s
        R = _prem(A, B)
        A = B
        denom = gg * hh**delta
        B = [_exact_int_div(c, denom) for c in R]
        if not B:
            return 0
        gg = A[-1]
        if delta > 0:
            hh = _exact_int_div(gg**delta, hh ** (delta - 1))
        if len(B) == 1:
            dA = len(A) - 1
            return s * _exact_int_div(B[0] ** dA, hh ** (dA - 1))


def discriminant(f: Poly) -> int:
    """disc(f) = (-1)^(d(d-1)/2) * Res(f, f') for monic integer f, d = deg f >= 1."""
    if not f or f.degree < 1 or not f.is_monic() or not f.is_integral():
        raise ValueError("discriminant requires a monic integer polynomial of degree >= 1")
    d = f.degree
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * resultant(f, f.derivative())


def discr_prime_pow(p: int, k: int) -> int:
    """Field discriminant of the p^k-th cyclotomic field by the closed form

        (-1)^(phi(p^k)/2) * p^(p^(k-1) * ((p-1)*k - 1))

    evaluated with truncated natural-number semantics (the /2 is floor
    division and the inner subtraction floors at 0), which extends the
    odd-p and p=2, k>1 cases to cover (2, 1) as well.  p^k must be at
    most MAX_CONDUCTOR.
    """
    # checked before any trial division of p; p^k >= 2^k > MAX_CONDUCTOR once
    # k reaches its bit length, so p^k is built only when it is small
    if p > MAX_CONDUCTOR or (p > 1 and (k >= MAX_CONDUCTOR.bit_length() or p**k > MAX_CONDUCTOR)):
        raise ValueError(f"conductor p^k must be an integer in 1..{MAX_CONDUCTOR}")
    if not is_prime(p):
        raise ValueError("p must be prime")
    if k < 1:
        raise ValueError("k must be >= 1")
    phi = totient(p**k)
    sign = -1 if (phi // 2) % 2 else 1
    inner = max((p - 1) * k - 1, 0)
    return sign * p ** (p ** (k - 1) * inner)


def format_scalar(c) -> str:
    """Canonical text for an exact scalar: `3`, `-3`, or `p/q`."""
    c = _scalar(c)
    if isinstance(c, int):
        return str(c)
    return f"{c.numerator}/{c.denominator}"


_SCALAR_RE = re.compile(r"[+-]?\d+(?:/[1-9]\d*)?")


def parse_scalar(text: str):
    """Inverse of format_scalar; accepts integers and p/q fractions only."""
    t = text.strip()
    if not _SCALAR_RE.fullmatch(t):
        raise ValueError(f"malformed scalar literal: {text!r}")
    return _scalar(Fraction(t))


def poly_to_str(f: Poly) -> str:
    """Coefficient-list text, low-to-high: X^2 - 1 prints as `[-1,0,1]`."""
    return "[" + ",".join(format_scalar(c) for c in f.coeffs) + "]"


def poly_from_str(text: str) -> Poly:
    """Parse the coefficient-list text format (inverse of poly_to_str)."""
    t = text.strip()
    if not (t.startswith("[") and t.endswith("]")):
        raise ValueError(f"malformed polynomial literal: {text!r}")
    body = t[1:-1].strip()
    if not body:
        return Poly()
    return Poly([parse_scalar(tok) for tok in body.split(",")])
