"""Exact arithmetic in the cyclotomic field Q(zeta_n) in the power basis.

An element is a vector of phi(n) exact coordinates over the power basis
1, zeta, ..., zeta^(phi(n)-1), kept reduced modulo the n-th cyclotomic
polynomial.  Every construction, product, Galois image and inverse goes
through one map, `_reduce`: exponents fold modulo n, then the remainder
is taken by synthetic division by the cached monic Phi_n.  The reduced
form is unique, so equality is coordinate comparison.  Integer
coordinates are stored as int; the elements with all integer coordinates
are exactly the members of Z[zeta_n] (for prime-power n this ring is the
full ring of integers; for other n the predicate means membership in
Z[zeta_n], nothing more).

Nothing divides polynomials over Q: the trace reads a table of Ramanujan
sums, and the inverse is an integer conjugate product over the norm.

Everything is immutable and every operation is a pure function; the only
shared state is the per-conductor Ramanujan-sum table here and the Phi_n
cache in `polys`, both idempotent caches.

>>> z = CycElt.zeta(5)
>>> (1 + z) * (1 + z**4)
CycElt.parse('5:[1,0,-1,-1]')
>>> (1 - z).norm()
5
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConductorMismatchError, InternalInvariantError, NotIntegralError
from .ntheory import divisors, is_prime, moebius, totient
from .polys import Poly, _scalar, check_conductor, cyclotomic_poly, format_scalar, parse_scalar, resultant

__all__ = [
    "CycElt",
    "UnitDecomposition",
    "decompose_unit",
    "factor_sum_pth_powers",
    "is_root_of_unity",
    "parse_literal",
    "zeta_pow",
]


def _reduce(n, raw):
    """The canonical length-phi(n) form of sum raw[i] * zeta^i: fold the
    exponents modulo n (zeta^n = 1), then take the remainder of the
    division by the monic Phi_n, top coefficient first.  Each step applies
    only the nonzero lower terms of Phi_n; the cleared top entry is never
    read again."""
    phi = cyclotomic_poly(n).coeffs
    d = len(phi) - 1
    vec = [0] * max(d, min(n, len(raw)))
    for i, c in enumerate(raw):
        if c:
            vec[i % n] += c
    if len(vec) > d:
        terms = [(i, p) for i, p in enumerate(phi[:d]) if p]
        for j in range(len(vec) - 1, d - 1, -1):
            c = vec[j]
            if c:
                shift = j - d
                for i, p in terms:
                    vec[shift + i] -= c * p
    return tuple(_scalar(c) for c in vec[:d])


def _mul_vecs(n, a, b):
    d = len(a)
    prod = [0] * (2 * d - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] += ai * bj
    return _reduce(n, prod)


@functools.cache
def _ramanujan_sums(n):
    """Tr(zeta^i) for i = 0 .. phi(n)-1: the Ramanujan sums c_n(i), by von
    Sterneck's formula c_n(i) = moebius(n/g) * phi(n) / phi(n/g), g = gcd(i, n)."""
    d = totient(n)
    return tuple(moebius(n // g) * (d // totient(n // g)) for g in (math.gcd(i, n) for i in range(d)))


class CycElt:
    """An element of Q(zeta_n), canonically reduced in the power basis.

    The constructor accepts a scalar or any-length coordinate sequence and
    reduces it modulo the n-th cyclotomic polynomial, so it doubles as the
    canonicalization map.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs=()):
        check_conductor(n)
        if isinstance(coeffs, (int, Fraction)):
            coeffs = (coeffs,)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", _reduce(n, [_scalar(c) for c in coeffs]))

    def __setattr__(self, name, value):
        raise AttributeError("CycElt is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def one(cls, n):
        return cls(n, (1,))

    @classmethod
    def zeta(cls, n, j=1):
        return zeta_pow(n, j)

    @classmethod
    def parse(cls, text: str) -> "CycElt":
        """Parse the element literal `n:[c0,c1,...]` (ints or p/q fractions)."""
        return cls(*parse_literal(text))

    # -- presentation ------------------------------------------------------

    def __str__(self):
        return f"{self.n}:[{','.join(format_scalar(c) for c in self.coeffs)}]"

    def __repr__(self):
        return f"CycElt.parse({str(self)!r})"

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycElt):
            if other.n != self.n:
                raise ConductorMismatchError("conductor mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return CycElt(self.n, (other,))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycElt(self.n, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycElt(self.n, [-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycElt(self.n, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = CycElt.__new__(CycElt)
        object.__setattr__(out, "n", self.n)
        object.__setattr__(out, "coeffs", _mul_vecs(self.n, self.coeffs, other.coeffs))
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k):
        if not isinstance(k, int):
            raise ValueError("exponent must be an integer")
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        result = CycElt.one(self.n)
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- field structure ---------------------------------------------------

    def as_poly(self) -> Poly:
        return Poly(self.coeffs)

    def as_scalar(self):
        """The rational value, if the element lies in Q; error otherwise."""
        if any(self.coeffs[1:]):
            raise ValueError("element is not rational")
        return self.coeffs[0]

    def is_integral(self):
        """Member of Z[zeta_n]: every power-basis coordinate is an integer."""
        return all(isinstance(c, int) for c in self.coeffs)

    def galois(self, k: int) -> "CycElt":
        """Apply the automorphism zeta -> zeta^k; k must be coprime to n."""
        n = self.n
        if math.gcd(k, n) != 1:
            raise ValueError("galois index must be coprime to the conductor")
        k %= n
        raw = [0] * n
        for i, c in enumerate(self.coeffs):
            if c:
                raw[(i * k) % n] += c
        return CycElt(n, raw)

    def conj(self) -> "CycElt":
        """Complex conjugation: the automorphism zeta -> zeta^(n-1)."""
        return self.galois(self.n - 1)

    def is_real(self):
        """Fixed by complex conjugation."""
        return self.conj() == self

    def _cleared(self):
        """(m, A): the least m >= 1 with A = m*self integral, A as int coordinates."""
        m = math.lcm(*(c.denominator for c in self.coeffs))
        return m, [int(c * m) for c in self.coeffs]

    def norm(self):
        """Field norm down to Q: the product of all Galois conjugates.

        Computed as Res(Phi_n, A) for the coordinate polynomial A, with
        denominators cleared first and the matching power divided back out.
        """
        if not self:
            return 0
        m, ints = self._cleared()
        r = resultant(cyclotomic_poly(self.n), Poly(ints))
        return _scalar(Fraction(r, m ** cyclotomic_poly(self.n).degree))

    def trace(self):
        """Field trace down to Q: the sum of all Galois conjugates, taken
        as sum c_i * Tr(zeta^i) with Tr(zeta^i) the Ramanujan sum c_n(i)."""
        return _scalar(sum(c * t for c, t in zip(self.coeffs, _ramanujan_sums(self.n)) if c))

    def inverse(self) -> "CycElt":
        """Multiplicative inverse, fraction-free: with self = A/m for integral
        A, the cofactor C = prod of sigma_k(A) over k != 1 coprime to n gives
        A*C = N(A), so self^-1 = m*C / N(A).  Only integer ring products are
        formed; the single division comes last."""
        if not self:
            raise ZeroDivisionError("division by zero")
        n = self.n
        m, ints = self._cleared()
        a = CycElt(n, ints)
        cof = CycElt.one(n)
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                cof = cof * a.galois(k)
        norm = (a * cof).coeffs
        if any(norm[1:]) or not norm[0]:
            raise InternalInvariantError("conjugate product is not a nonzero rational")
        return CycElt(n, [Fraction(c * m, norm[0]) for c in cof.coeffs])

    def is_unit(self):
        """Unit of Z[zeta_n], i.e. norm +-1; requires integer coordinates."""
        if not self.is_integral():
            raise NotIntegralError("not an algebraic integer in the power basis")
        return abs(self.norm()) == 1


def parse_literal(text: str) -> tuple[int, list]:
    """Split the element literal `n:[c0,c1,...]` into the conductor and the
    coordinates.  Only the syntax is checked; CycElt(n, coeffs) checks n."""
    try:
        head, _, body = text.partition(":")
        n = int(head.strip())
        body = body.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError
        inner = body[1:-1].strip()
        coeffs = [parse_scalar(tok) for tok in inner.split(",")] if inner else []
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed element literal: {text!r}") from exc
    return n, coeffs


def zeta_pow(n: int, j: int) -> CycElt:
    """zeta_n^j in canonical form (j is taken mod n)."""
    return CycElt(n, [0] * (j % check_conductor(n)) + [1])


def is_root_of_unity(a: CycElt):
    """(True, order) for the minimal m with a^m = 1, else (False, None).

    Every root of unity in Q(zeta_n) has order dividing 2n, so only the
    divisors of 2n are scanned.
    """
    one = CycElt.one(a.n)
    for m in divisors(2 * a.n):
        if a**m == one:
            return True, m
    return False, None


@dataclass(frozen=True)
class UnitDecomposition:
    """A unit u split as u = x * zeta^m with x a real unit and 0 <= m < n."""

    x: CycElt
    m: int


def decompose_unit(u: CycElt) -> UnitDecomposition:
    """Split a unit u of Z[zeta_p] (p an odd prime) as u = x * zeta_p^m
    with x a real unit and m in [0, p).

    The quotient w = u / conj(u) is a root of unity; for odd p it is always
    a plain power zeta^e, and m solves 2m = e (mod p).  All postconditions
    are re-verified before returning, so a bug cannot masquerade as the
    classical argument.
    """
    p = u.n
    if p == 2 or not is_prime(p):
        raise ValueError("odd prime conductor required")
    if not u.is_unit():
        raise ValueError("not a unit of Z[zeta]")
    w = u * u.conj().inverse()
    e = next((j for j in range(p) if w == zeta_pow(p, j)), None)
    if e is None:
        if any(w == -zeta_pow(p, j) for j in range(p)):
            raise InternalInvariantError("decomposition impossible")
        raise InternalInvariantError("unit conjugate quotient is not a root of unity")
    m = (e * pow(2, -1, p)) % p
    x = u * zeta_pow(p, -m)
    if not (x.is_real() and x.is_unit() and x * zeta_pow(p, m) == u):
        raise InternalInvariantError("unit decomposition postcondition failed")
    return UnitDecomposition(x=x, m=m)


def factor_sum_pth_powers(x: int, y: int, p: int) -> list[CycElt]:
    """The p factors (x + zeta^i * y), i = 0..p-1, whose product is the
    scalar x^p + y^p in Q(zeta_p)."""
    if p == 2 or not is_prime(p):
        raise ValueError("odd prime required")
    return [CycElt(p, (x,)) + zeta_pow(p, i) * y for i in range(p)]
