"""Dense polynomial arithmetic with exact coefficients.

A polynomial is a tuple of coefficients low-to-high, trailing coefficient
nonzero; the zero polynomial is the empty tuple and its ``degree`` is None
(a marker, never a number).  Coefficients are Python ints or Fractions;
integral values are normalized to int so that integer polynomials stay on
the fast int path.  One product, `_mul_lists`, serves `Poly` and the ring's
products and norms: one big-int product of packed slots for dense int lists
with entries below 2^63, else a loop over the nonzero entries.

Includes the n-th cyclotomic polynomial from its Moebius product form, one
strided pass per binomial factor (cached; the passes also serve reduction
modulo Phi_n in `ring`), resultants by a fraction-free subresultant
remainder sequence, which can also track the cofactor that inverts a
polynomial modulo another, polynomial discriminants, and the closed-form
discriminant of prime-power cyclotomic fields.  Nothing here divides one
polynomial by another except as that sequence's pseudo-remainder.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
import struct
from fractions import Fraction

from .errors import InternalInvariantError
from .ntheory import divisors, is_prime, moebius, totient

__all__ = [
    "MAX_CONDUCTOR",
    "Poly",
    "check_conductor",
    "cyclotomic_poly",
    "discr_prime_pow",
    "discriminant",
    "resultant",
    "resultant_cofactor",
]


def _scalar(c):
    """Normalize an exact scalar: Fractions with denominator 1 become int."""
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    raise TypeError(f"exact coefficient required (int or Fraction), got {type(c).__name__}")


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
        """Coefficient-list text, low-to-high: X^2 - 1 prints as `[-1,0,1]`."""
        return _list_to_str(self.coeffs)

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
        return Poly(_mul_lists(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def derivative(self):
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])


# Least nonzero entries per operand for the packed route.  Python 3.11, 2-vCPU
# Xeon VM: +-9 products took 5.2 us packed, 5.7 by the loop at 8 x 8, 5.5 and
# 9.9 at 12 x 12; a field_ops pass 63-66 ms at _DENSE 6-12, 67 at 24, 88 looped.
_DENSE = 8


def _mul_lists(a, b):
    """The product of coefficient lists a and b, len(a) + len(b) - 1 entries.
    Packed (Kronecker substitution) when each has >= _DENSE nonzero entries, all
    ints, and B = max|a| max|b| min(len a, len b), a bound on every entry, is
    below 2^63: the lists are packed in two's complement into slots of the
    least of 8, 16, 32, 64 bits that hold B, read as signed ints and multiplied
    once; the sign bit of each slot, added to the product and XORed out, keeps
    the slots from borrowing.  Else a loop over the nonzero entries of both: a
    sparse factor such as a scalar or X^j costs len(a) * (its nonzero entries)."""
    if a and b and min(len(a) - a.count(0), len(b) - b.count(0)) >= _DENSE:
        bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
        for code, bits in (("b", 8), ("h", 16), ("i", 32), ("q", 64)):  # struct code, slot bits
            if bound < 1 << (bits - 1):
                size = len(a) + len(b) - 1
                signs = int.from_bytes((bytes(bits // 8 - 1) + b"\x80") * size, "little")
                try:
                    x, y = (int.from_bytes(struct.pack(f"<{len(v)}{code}", *v), "little") for v in (a, b))
                except struct.error:  # a Fraction entry: the loop below
                    break
                product = ((x - ((x & signs) << 1)) * (y - ((y & signs) << 1)) + signs) ^ signs
                return list(struct.unpack(f"<{size}{code}", product.to_bytes(size * bits // 8, "little")))
    terms = [(j, bj) for j, bj in enumerate(b) if bj]
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in terms:
                out[i + j] += ai * bj
    return out


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
def _product_form(n: int):
    """(phi(n), ups, downs) with Phi_n = prod (1 - X^d) over d in ups divided
    by prod (1 - X^d) over d in downs, for n > 1: the Moebius product over
    the divisors d of n with moebius(n/d) = 1 and -1.  Cached per process
    (a thread-safe idempotent memo)."""
    ds = [(d, moebius(n // d)) for d in divisors(n)]
    return totient(n), tuple(d for d, mu in ds if mu == 1), tuple(d for d, mu in ds if mu == -1)


def _times_binomials(c, ups, downs):
    """c times prod (1 - X^d) over ups, divided by prod (1 - X^d) over downs,
    as power series truncated at len(c), in place; the ring passes ints only.
    Each factor is one strided pass (Arnold and Monagan, Math. Comp. 80, 2011):
    a difference at stride d, or prefix sums at stride d, taken per residue
    class or per block of d, whichever needs fewer steps.  Differences go
    first, so the entries stay small.  ups and downs are ascending, and a
    factor with d >= len(c) changes nothing and ends its list."""
    size = len(c)
    for d in itertools.takewhile(size.__gt__, ups):
        c[d:] = map(operator.sub, c[d:], c[:-d])
    for d in itertools.takewhile(size.__gt__, downs):
        if d * d < size:
            for r in range(d):
                c[r::d] = itertools.accumulate(c[r::d])
        else:
            for j in range(d, size, d):
                c[j : j + d] = map(operator.add, c[j : j + d], c[j - d : j])
    return c


@functools.cache
def cyclotomic_poly(n: int) -> Poly:
    """The n-th cyclotomic polynomial, monic of degree phi(n).

    For n > 1 it is the product form of `_product_form`, built as a power
    series truncated at degree phi(n) + 1 by `_times_binomials`; nothing is
    divided.  Cached per process (the cache is a thread-safe idempotent
    memo).  n must pass check_conductor.

    >>> cyclotomic_poly(12)
    Poly((1, 0, -1, 0, 1))
    """
    check_conductor(n)
    if n == 1:
        return Poly((-1, 1))
    phi, ups, downs = _product_form(n)
    return Poly(_times_binomials([1] + [0] * phi, ups, downs))


def _prem(A, B, Q=None):
    """Pseudo-remainder over Z: lc(B)^e * A mod B, e = deg A - deg B + 1, for
    coefficient lists.  The top 2 * deg B + 2 entries of A are scaled by
    lc(B)^e up front; any others are scaled only as they enter the deg B + 1
    entries a step touches, and dropped once their quotient is read, so a
    long quotient holds O(deg B) scaled entries.  Each step divides its lead
    exactly by lc(B).  A list Q of e zeros receives the pseudo-quotient:
    lc(B)^e * A = Q * B + R."""
    dB, lb = len(B) - 1, B[-1]
    top = max(len(A) - dB, 0)
    scale, lo = lb**top, top - dB - 2
    R = A[:lo] + [c * scale for c in A[lo:]] if lo > 0 else [c * scale for c in A]
    for shift in range(top - 1, -1, -1):
        if shift < lo:
            R[shift] *= scale
            R[shift + dB + 1] = 0
        q = _exact_int_div(R[shift + dB], lb)
        if q:
            for i in range(dB):
                R[shift + i] -= q * B[i]
            if Q is not None:
                Q[shift] = q
    del R[dB:]
    while R and R[-1] == 0:
        R.pop()
    return R


def _remainder_sequence(A, B, track=None):
    """The fraction-free subresultant remainder sequence (Collins; Brown and
    Traub) of integer lists with len(A) >= len(B) >= 2, run to a remainder of
    degree 0 or to zero: (s, A, B, h, u) with B that remainder, A the one
    before, h the last scale and s the resultant's sign.  track = (u_A, u_B)
    gives the cofactors of A and B in a fixed x * A + y * B; u is then that
    of the last remainder, each one (lc^e * u_A - Q * u_B) / denom from the
    step's pseudo-quotient Q, by the same checked division as the remainder."""
    s, gg, hh = 1, 1, 1
    u0, u1 = track or (None, None)
    while True:
        dA, dB = len(A) - 1, len(B) - 1
        delta = dA - dB
        if dA % 2 and dB % 2:
            s = -s
        Q = [0] * (delta + 1) if track else None
        R = _prem(A, B, Q)
        denom = gg * hh**delta
        if track:
            u = [B[-1] ** (delta + 1) * c for c in u0] + [0] * (delta + len(u1) - len(u0))
            # subtracts Q * u1 in place; _mul_lists takes a second list and pass (inverse got slower)
            for i, q in enumerate(Q):
                for j, c in enumerate(u1):
                    u[i + j] -= q * c
            while u and not u[-1]:
                u.pop()
            u0, u1 = u1, [_exact_int_div(c, denom) for c in u]
        A = B
        B = [_exact_int_div(c, denom) for c in R]
        if not B:
            return s, A, B, hh, u1
        gg = A[-1]
        if delta > 0:
            hh = _exact_int_div(gg**delta, hh ** (delta - 1))
        if len(B) == 1:
            return s, A, B, hh, u1


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
    sign, A, B, hh, _ = _remainder_sequence(A, B)
    if not B:
        return 0
    return s * sign * _exact_int_div(B[0] ** (len(A) - 1), hh ** (len(A) - 2))


def resultant_cofactor(f: Poly, g: Poly):
    """(t, c), t a list low to high, with t * g = c (mod f) for a monic integer
    f and an integer g coprime to it (reduced modulo f first if longer): c is
    the last remainder of the sequence `resultant` takes.  When deg g >=
    deg f - 1, as for dense elements, or deg g <= 1 (where the lc(g)^e below,
    e = deg f, costs far more than the sequence), the sequence tracks t; else
    it tracks f's cofactor u, shorter than g, and t = (c - u * f) / g, the
    pseudo-quotient of `_prem` over lc(g)^e, both divisions checked exact.

    >>> resultant_cofactor(Poly([1, 0, 1]), Poly([1, 1]))  # (1 - X)(1 + X) = 2 mod X^2 + 1
    ([1, -1], 2)
    """
    A, B = list(f.coeffs), list(g.coeffs)
    if len(B) > len(A):
        g = Poly(_prem(B, A))
        B = list(g.coeffs)
    direct = len(B) <= 2 or len(B) >= len(A) - 1
    last, u = B, [1] if direct else []
    if len(B) > 1:
        _, _, last, _, u = _remainder_sequence(A, B, ([], [1]) if direct else ([1], []))
    if not last:
        raise InternalInvariantError("cofactor of a polynomial that shares a factor with the modulus")
    if direct:
        return u, last[0]
    rest = list((last[0] - Poly(u) * f).coeffs)
    Q = [0] * (len(rest) - len(B) + 1)
    scale = B[-1] ** len(Q)
    if _prem(rest, B, Q) or any(q % scale for q in Q):
        raise InternalInvariantError("inexact division in subresultant sequence")
    return [q // scale for q in Q], last[0]


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


_SCALAR_RE = re.compile(r"[+-]?\d+(?:/[1-9]\d*)?")


def _parse_scalar(text: str):
    """An exact scalar from its `str` text: integers and p/q fractions only."""
    t = text.strip()
    if not _SCALAR_RE.fullmatch(t):
        raise ValueError(f"malformed scalar literal: {text!r}")
    return _scalar(Fraction(t))


def _list_to_str(cs) -> str:
    """The list text `[c0,c1,...]` of exact scalars."""
    return "[" + ",".join(map(str, cs)) + "]"


def _list_from_str(text: str) -> list:
    """The scalars of the list text `[c0,c1,...]` (inverse of `_list_to_str`)."""
    t = text.strip()
    if not (t.startswith("[") and t.endswith("]")):
        raise ValueError(f"malformed list literal: {text!r}")
    body = t[1:-1].strip()
    return [_parse_scalar(tok) for tok in body.split(",")] if body else []
