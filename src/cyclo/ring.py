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

Nothing divides polynomials over Q, and products clear denominators
first, so the product loop multiplies ints only.  The trace reads a table
of Ramanujan sums.  The norm goes through the real subfield
Q(zeta_n)+ = Q(zeta + 1/zeta) of index 2: N(a) is the norm of the real
element a * conj(a), read off the autocorrelation of the coordinates
without a ring product, and taken as a resultant with the minimal
polynomial Psi_n of zeta + 1/zeta, of half the degree of Phi_n.  Above
phi(n) = MAX_REAL_NORM_PHI, where Psi_n's coefficients grow large, the
norm is Res(Phi_n, A).  The inverse is an integer conjugate product over
the norm: the conjugates are multiplied along a polycyclic sequence of
generators of the Galois group (Z/n)^*, each orbit by doubling, in
O(log n) ring products per generator.

Everything is immutable and every operation is a pure function; the only
shared state is the per-conductor Ramanujan-sum, orbit-step and Psi_n
tables here and the Phi_n cache in `polys`, all idempotent caches.

>>> z = CycElt.zeta(5)
>>> (1 + z) * (1 + z**4)
CycElt.parse('5:[1,0,-1,-1]')
>>> (1 - z).norm()
5
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConductorMismatchError, InternalInvariantError, NotIntegralError
from .ntheory import check_odd_prime, divisors, moebius, totient
from .polys import Poly, _scalar, check_conductor, cyclotomic_poly, format_scalar, parse_scalar, resultant

__all__ = [
    "MAX_INVERSE_WORK",
    "CycElt",
    "UnitDecomposition",
    "decompose_unit",
    "factor_sum_pth_powers",
    "is_root_of_unity",
    "parse_literal",
    "zeta_pow",
]


def _reduce(n, raw, fractions=True):
    """The canonical length-phi(n) form of sum raw[i] * zeta^i: fold the
    exponents modulo n (zeta^n = 1), then take the remainder of the
    division by the monic Phi_n, top coefficient first.  Each step applies
    only the nonzero lower terms of Phi_n; the cleared top entry is never
    read again.  With fractions=False the caller promises int entries, and
    the coordinates are returned without normalizing each one."""
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
    return tuple(_scalar(c) for c in vec[:d]) if fractions else tuple(vec[:d])


def _cleared(vec):
    """(m, ints): the least m >= 1 with m*vec integral, and m*vec as ints."""
    m = math.lcm(*(c.denominator for c in vec))
    return (1, vec) if m == 1 else (m, [c.numerator * (m // c.denominator) for c in vec])


def _divided(vec, m):
    """vec / m as normalized scalars; m is a nonzero int."""
    return vec if m == 1 else tuple(_scalar(Fraction(c, m)) for c in vec)


def _mul_vecs(n, a, b):
    """The reduced product of two coordinate vectors.  Denominators are
    cleared once per operand, so the loop multiplies ints only, and it runs
    over the nonzero entries of both: a product with a sparse factor such
    as a scalar or zeta^j costs d * (its nonzero entries)."""
    ma, a = _cleared(a)
    mb, b = _cleared(b)
    terms = [(j, bj) for j, bj in enumerate(b) if bj]
    prod = [0] * (2 * len(a) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in terms:
                prod[i + j] += ai * bj
    return _divided(_reduce(n, prod, fractions=False), ma * mb)


def _galois_vec(n, vec, k):
    """The reduced image of vec under zeta -> zeta^k."""
    raw = [0] * n
    for i, c in enumerate(vec):
        if c:
            raw[(i * k) % n] += c
    return _reduce(n, raw)


@functools.cache
def _ramanujan_sums(n):
    """Tr(zeta^i) for i = 0 .. phi(n)-1: the Ramanujan sums c_n(i), by von
    Sterneck's formula c_n(i) = moebius(n/g) * phi(n) / phi(n/g), g = gcd(i, n)."""
    d = totient(n)
    return tuple(moebius(n // g) * (d // totient(n // g)) for g in (math.gcd(i, n) for i in range(d)))


def _theta_form(c):
    """c[0] + sum c[k] * V_k(theta) over k >= 1 as theta-coefficients, low
    to high, where V_0 = 2, V_1 = theta, V_(k+1) = theta * V_k - V_(k-1),
    so that V_k(zeta + 1/zeta) = zeta^k + zeta^-k.  One Clenshaw pass:
    b_k = c[k] + theta * b_(k+1) - b_(k+2), and the sum is
    c[0] + theta * b_1 - 2 * b_2."""
    b1, b2 = [], []
    for ck in reversed(c[1:]):
        bk = [ck, *b1]
        bk[: len(b2)] = map(operator.sub, bk, b2)
        b1, b2 = bk, b1
    out = [c[0], *b1]
    out[: len(b2)] = (x - 2 * y for x, y in zip(out, b2))
    return out


@functools.cache
def _real_cyclotomic(n):
    """Psi_n, the minimal polynomial of theta = zeta_n + 1/zeta_n for n >= 3,
    of degree phi(n)/2: Phi_n is palindromic, so
    Phi_n(X) = X^(phi/2) * Psi_n(X + 1/X), and Psi_n is the theta-form of
    the coefficients of Phi_n from the middle one up."""
    phi = cyclotomic_poly(n).coeffs
    return Poly(_theta_form(phi[len(phi) // 2 :]))


@functools.cache
def _orbit_steps(n):
    """A polycyclic sequence ((g_1, o_1), ...) for the unit group (Z/n)^*.

    With H_0 = {1}, g_i is the least unit outside H_(i-1) and o_i the least
    o with g_i^o in H_(i-1); then H_i is the disjoint union of the cosets
    g_i^j * H_(i-1), j < o_i, and the product of the o_i is phi(n).  The
    group need not be cyclic; for prime n with 2 a primitive root this is
    the single step (2, n - 1)."""
    group = {1 % n}
    steps = []
    for g in range(2, n):
        if g in group or math.gcd(g, n) != 1:
            continue
        powers = [1]
        while powers[-1] * g % n not in group:
            powers.append(powers[-1] * g % n)
        o = len(powers)
        group = {x * y % n for x in group for y in powers}
        steps.append((g, o))
    return tuple(steps)


def _chain(n, vec, g, length):
    """prod of sigma_(g^j)(vec) over 0 <= j < length (length >= 1), by
    doubling: chain(2L) = chain(L) * sigma_(g^L)(chain(L)) and
    chain(L + 1) = vec * sigma_g(chain(L))."""
    if length == 1:
        return vec
    half = _chain(n, vec, g, length // 2)
    out = _mul_vecs(n, half, _galois_vec(n, half, pow(g, length // 2, n)))
    if length % 2:
        out = _mul_vecs(n, vec, _galois_vec(n, out, g))
    return out


# Largest `_inverse_work` that `inverse` (so also `/`, negative powers and
# `elt inv`) accepts.  On a 2-vCPU Xeon VM with Python 3.11 an inverse took
# 0.7-2.2 s per million of the estimate over prime and composite n, dense
# and sparse elements; 1409:[1,2] (estimate 3.97e6) took about 6 s.
MAX_INVERSE_WORK = 4_000_000

# Largest phi(n) for which `norm` takes the half-degree resultant over the
# real subfield; above it `norm` takes Res(Phi_n, A).  Psi_n is built once
# per n and its coefficients have about phi/3 bits.  On a 2-vCPU Xeon VM with
# Python 3.11, building it took 3 ms at phi = 502, 13.5 ms at 1008, 49 ms at
# 2002 and 0.22 s at 4000.  The norm of 1 + 2 zeta took about as long by
# either resultant (1.1 against 1.5 ms at 1008); a dense norm was 3-4x faster
# through Psi_n, but already took 16 s at 1008.  Past this bound the one-off
# build outweighs what a sparse norm saves.
MAX_REAL_NORM_PHI = 1000


def _inverse_work(n, ints):
    """bits(|A|_1) * (d^2 + (n - d) * w) for integer coordinates A, with
    d = phi(n) and w the nonzero terms of Phi_n: the inverse has d
    coordinates of about d * log2 |A|_1 bits, a ring product costs d^2
    multiply-adds and reducing a Galois image (n - d) * w."""
    d = len(ints)
    w = sum(1 for c in cyclotomic_poly(n).coeffs if c)
    return sum(map(abs, ints)).bit_length() * (d * d + (n - d) * w)


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

    @classmethod
    def _of(cls, n, coeffs):
        """An element from already-reduced coordinates, unchecked."""
        out = cls.__new__(cls)
        object.__setattr__(out, "n", n)
        object.__setattr__(out, "coeffs", coeffs)
        return out

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
        return CycElt._of(self.n, _mul_vecs(self.n, self.coeffs, other.coeffs))

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
        return CycElt._of(n, _galois_vec(n, self.coeffs, k % n))

    def conj(self) -> "CycElt":
        """Complex conjugation: the automorphism zeta -> zeta^(n-1)."""
        return self.galois(self.n - 1)

    def is_real(self):
        """Fixed by complex conjugation."""
        return self.conj() == self

    def norm(self):
        """Field norm down to Q: the product of all Galois conjugates.

        With self = A/m for integral A, N(self) = N(A) / m^phi(n).  The
        zero coordinates below and above the support of A are dropped first
        (zeta^j has norm 1 for n >= 3).  Up to MAX_REAL_NORM_PHI the norm
        goes through the real subfield: N(A) = N(A * conj(A)) over Q(zeta)+,
        and A * conj(A) = c_0 + sum c_k (zeta^k + zeta^-k) with c_k the
        autocorrelation sum A_i * A_(i+k) (k > n/2 folded onto n - k), so
        N(A) = Res(Psi_n, B) for B the theta-form of c: a resultant of half
        the degree.  Above the bound, where building Psi_n costs more than
        it saves, N(A) = Res(Phi_n, A).

        >>> CycElt.parse('7:[1,2]').norm() == 43
        True
        """
        if not self:
            return 0
        n, d = self.n, len(self.coeffs)
        m, ints = _cleared(self.coeffs)
        support = [i for i, c in enumerate(ints) if c]
        a = ints[support[0] : support[-1] + 1]
        if n > 2 and d <= MAX_REAL_NORM_PHI:
            half = n // 2
            c = [0] * min(len(a), half + 1)
            for k in range(len(a)):
                c[k if k <= half else n - k] += sum(map(operator.mul, a, a[k:]))
            r = resultant(_real_cyclotomic(n), Poly(_theta_form(c)))
        else:
            r = resultant(cyclotomic_poly(n), Poly(a))
        return _scalar(Fraction(r, m**d))

    def trace(self):
        """Field trace down to Q: the sum of all Galois conjugates, taken
        as sum c_i * Tr(zeta^i) with Tr(zeta^i) the Ramanujan sum c_n(i)."""
        return _scalar(sum(c * t for c, t in zip(self.coeffs, _ramanujan_sums(self.n)) if c))

    def inverse(self) -> "CycElt":
        """Multiplicative inverse, fraction-free: with self = A/m for integral
        A, the cofactor C = prod of sigma_k(A) over the units k != 1 mod n
        gives A*C = N(A), so self^-1 = m*C / N(A).

        C is built over the orbit steps (g, o) of (Z/n)^*: while full is the
        product of the conjugates of A over a subgroup H, the coset factor
        T = prod of sigma_(g^j)(full) over 0 < j < o extends it to the next
        subgroup, and C collects every T.  Each T is a doubling chain, so
        the ring products number O(log n) per step.  Only integer products
        are formed; the single division comes last.  An element whose
        `_inverse_work` exceeds MAX_INVERSE_WORK is refused before any
        product."""
        if not self:
            raise ZeroDivisionError("division by zero")
        n = self.n
        m, ints = _cleared(self.coeffs)
        if _inverse_work(n, ints) > MAX_INVERSE_WORK:
            raise ValueError(f"inverse work estimate exceeds {MAX_INVERSE_WORK}")
        full, cof = ints, (1,) + (0,) * (len(ints) - 1)
        for g, o in _orbit_steps(n):
            t = _galois_vec(n, _chain(n, full, g, o - 1), g)
            cof = _mul_vecs(n, cof, t)
            full = _mul_vecs(n, full, t)
        if any(full[1:]) or not full[0]:
            raise InternalInvariantError("conjugate product is not a nonzero rational")
        return CycElt._of(n, _divided(tuple(c * m for c in cof), full[0]))

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

    The quotient u / conj(u) is a root of unity; for odd p it is always a
    plain power zeta^e, and m solves 2m = e (mod p).  e is found without
    division: padded to length p (mod X^p - 1), zeta^e * conj(u) is conj(u)
    rotated by e, and two length-p vectors are equal in Q(zeta_p) exactly
    when their difference is constant.  All postconditions are re-verified
    before returning, so a bug cannot masquerade as the classical argument.
    """
    p = check_odd_prime(u.n)
    if not u.is_unit():
        raise ValueError("not a unit of Z[zeta]")
    pad = list(u.coeffs) + [0]
    bar = [pad[-i % p] for i in range(p)]

    def equal_up_to_constant(e, sign):
        # u == sign * zeta^e * conj(u); a mismatch usually shows in a few terms
        c = pad[0] - sign * bar[-e]
        return all(pad[i] - sign * bar[i - e] == c for i in range(1, p))

    e = next((j for j in range(p) if equal_up_to_constant(j, 1)), None)
    if e is None:
        if any(equal_up_to_constant(j, -1) for j in range(p)):
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
    check_odd_prime(check_conductor(p))
    return [CycElt(p, (x,)) + zeta_pow(p, i) * y for i in range(p)]
