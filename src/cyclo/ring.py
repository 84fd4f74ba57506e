"""Exact arithmetic in the cyclotomic field Q(zeta_n) in the power basis.

An element is a vector of phi(n) exact coordinates over the power basis
1, zeta, ..., zeta^(phi(n)-1), kept reduced modulo the n-th cyclotomic
polynomial.  Every construction, product, Galois image and inverse goes
through one map, `_reduce`: exponents fold modulo n, then the remainder
is taken through the product form Phi_n = prod (1 - X^d)^moebius(n/d),
one strided pass per factor for the quotient and one for its product
with Phi_n, so a reduction of k places costs about k per factor and no
polynomial is divided.  The reduced form is unique, so equality is
coordinate comparison.  Integer coordinates are stored as int; the
elements with all integer coordinates are exactly the members of
Z[zeta_n] (for prime-power n this ring is the full ring of integers; for
other n the predicate means membership in Z[zeta_n], nothing more).

Nothing divides polynomials over Q, and products clear denominators
first, so the product loop multiplies ints only.  The trace reads a table
of Ramanujan sums.  The norm and the inverse share one resultant pair.
Up to phi(n) = MAX_REAL_NORM_PHI it lives in the real subfield
Q(zeta_n)+ = Q(zeta + 1/zeta) of index 2: N(a) is the norm of the real
element a * conj(a), read off the autocorrelation of the coordinates
without a ring product, as a resultant with the minimal polynomial Psi_n
of zeta + 1/zeta, of half the degree of Phi_n; above it, where Psi_n's
coefficients grow large, the pair is Phi_n and a.  The inverse tracks a
cofactor along the same subresultant sequence, which ends in an integer
c = t * g modulo f: a^-1 = conj(a) * t(zeta + 1/zeta) / c, or t / c.

Everything is immutable and every operation is a pure function; the only
shared state is the per-conductor Ramanujan-sum and Psi_n tables here and
the Phi_n and product-form caches in `polys`, all idempotent caches.

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
from .polys import Poly, _product_form, _scalar, _times_binomials, check_conductor, cyclotomic_poly
from .polys import format_scalar, parse_scalar
from .polys import resultant, resultant_cofactor

__all__ = [
    "MAX_INVERSE_WORK",
    "MAX_NORM_WORK",
    "MAX_ROOT_WORK",
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
    exponents modulo n (zeta^n = 1), then take the remainder r = v - q * Phi_n
    of the folded v, both products by the strided passes of the product
    form.  Phi_n is palindromic for n > 1, so the reversed quotient is the
    reversed top of v times 1/Phi_n, truncated: the same passes with the
    roles of the two factor lists swapped.  With fractions=False the caller
    promises int entries, and the coordinates are returned without
    normalizing each one."""
    d, ups, downs = _product_form(n)
    vec = [0] * max(d, min(n, len(raw)))
    for i, c in enumerate(raw):
        if c:
            vec[i % n] += c
    if len(vec) > d:
        q = _times_binomials(vec[: d - 1 : -1], downs, ups)[::-1][:d]
        vec = map(operator.sub, vec[:d], _times_binomials(q + [0] * (d - len(q)), ups, downs))
    return tuple(map(_scalar, vec)) if fractions else tuple(vec)


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


# Largest phi(n) for which `norm` takes the half-degree resultant over the
# real subfield; above it `norm` takes Res(Phi_n, A).  Psi_n is built once
# per n and its coefficients have about phi/3 bits.  On a 2-vCPU Xeon VM with
# Python 3.11, building it took 3 ms at phi = 502, 13.5 ms at 1008, 49 ms at
# 2002 and 0.22 s at 4000.  The norm of 1 + 2 zeta took about as long by
# either resultant (1.1 against 1.5 ms at 1008); a dense norm was 3-4x faster
# through Psi_n, but already took 16 s at 1008.  Past this bound the one-off
# build outweighs what a sparse norm saves.
MAX_REAL_NORM_PHI = 1000


# Largest `_norm_work` that `norm` (so also `is_unit`, `decompose_unit` and
# the `elt norm`, `elt is-unit` and `unit-decompose` commands) accepts.  On a
# 2-vCPU Xeon VM with Python 3.11, norms of dense elements (primes 151-1009,
# coordinates up to 10^6) took 3-5 s per billion of the estimate, elements
# whose coordinates fill a block of d/4 to d/64 places 7-15 s per billion,
# and products of 3 or 10 cyclotomic units under 0.2 s per billion, since
# the estimate bounds the size of their norm by the worst case.  Just inside
# the limit the slowest of twelve element shapes, a block of d/8 small
# coordinates at p = 1381, took 7.2 s; a dense element at p = 643 took 2.1 s.
MAX_NORM_WORK = 600_000_000


def _norm_work(n, d, a, real, squares, lag1):
    """An estimate of the cost of the resultant that `norm` takes for the
    windowed integer coordinates a (a[0], a[-1] != 0), with
    squares = sum a_i^2 and lag1 = sum a_i * a_(i+1), in word operations
    plus bits held.  m >= k are the degrees of the two polynomials and lead
    the leading coefficient of the element's one.  The first
    pseudo-remainder scales its m+1 entries by lead^(m-k+1), and the
    subresultant chain makes about k^2 products of numbers as large as the
    norm, whose size is bounded by d * log2 |B|_2 for B = A and for
    B = A * (1 - zeta) (with N(1 - zeta) >= 1); the second is far smaller
    for runs such as the cyclotomic unit 1 + zeta + ... + zeta^(j-1)."""
    if real:
        deg_f, deg_g, lead = d // 2, min(len(a), n // 2 + 1) - 1, a[0] * a[-1]
    else:
        deg_f, deg_g, lead = d, len(a) - 1, a[-1]
    m, k = max(deg_f, deg_g), min(deg_f, deg_g)
    steps = 2 * (squares - lag1)  # |A * (1 - X)|_2^2
    size = d * min(squares, steps).bit_length() // 2
    if k == 0:  # the resultant is a single power
        return size
    lam = abs(lead).bit_length() - 1 if deg_g <= deg_f else 0
    w = 1 + (size + (m - k) * lam) // 64
    w1 = 1 + (m - k + 1) * lam // 64
    return k * k * w * w + (m - k + 1) * k * w1 + (m + 1) * (m - k + 1) * lam + size


# Largest `_norm_work` of the resultant pair plus `_output_work` that `inverse`
# (so `/`, negative powers and `elt inv`) accepts.  On a 2-vCPU Xeon VM with
# Python 3.11 dense, block, p/q and composite inverses took 9-28 s per billion
# of it (sparse ones less), the most for blocks on the Phi_n route; just
# inside it the slowest of eight families, a block at 1423, took 4.6 s.
MAX_INVERSE_WORK = 250_000_000


def _output_work(n, d, start, real, squares, lag1):
    """The word operations of `inverse` after the subresultant sequence, all
    of it for sparse elements with large coordinates: d gcds of numbers of
    `words` words, the norm's size bound; over the real subfield a product
    of d^2 and the reduction of its fewer than 2d places; over Phi_n the
    reduction of t / zeta^start, n places after the fold.  A reduction of k
    places takes at most k per factor of Phi_n's product form."""
    words = 1 + d * min(squares, 2 * (squares - lag1)).bit_length() // 128
    _, ups, downs = _product_form(n)
    passes = len(ups) + len(downs)
    clear = d * d + passes * min(n, 2 * d) if real else passes * n if start else 0
    return words * (d * words + clear)


def _resultant_pair(n, ints, inverse=False):
    """(real, f, g, start) with f monic and Res(f, g) = N(A) for the integer
    coordinates ints (not all zero) of A, from the window of A between its
    first (start) and last nonzero ones (zeta^j has norm 1 for n >= 3).  Up
    to MAX_REAL_NORM_PHI (real): A * conj(A) = c_0 + sum c_k (zeta^k +
    zeta^-k), c_k the autocorrelation sums (k > n/2 folded onto n - k), so
    f = Psi_n and g the theta-form of c; above it f = Phi_n, g the window.
    Refused before anything is built when `_norm_work` exceeds MAX_NORM_WORK,
    or with inverse, when it plus `_output_work` exceeds MAX_INVERSE_WORK."""
    d = len(ints)
    nonzero = list(map(bool, ints))
    start = nonzero.index(True)
    a = ints[start : d - nonzero[::-1].index(True)]
    real = n > 2 and d <= MAX_REAL_NORM_PHI
    squares, lag1 = sum(map(operator.mul, a, a)), sum(map(operator.mul, a, a[1:]))
    work, limit = _norm_work(n, d, a, real, squares, lag1), MAX_NORM_WORK
    if inverse:
        work, limit = work + _output_work(n, d, start, real, squares, lag1), MAX_INVERSE_WORK
    if work > limit:
        raise ValueError(f"{'inverse' if inverse else 'norm'} work estimate exceeds {limit}")
    if not real:
        return real, cyclotomic_poly(n), Poly(a), start
    half = n // 2
    c = [squares, lag1][: len(a)] + [0] * (min(len(a), half + 1) - 2)
    for k in range(2, len(a)):
        c[k if k <= half else n - k] += sum(map(operator.mul, a, a[k:]))
    return real, _real_cyclotomic(n), Poly(_theta_form(c)), start


def _zeta_form(t):
    """zeta^D * t(zeta + 1/zeta), a polynomial in zeta of degree 2D, for
    theta-coefficients t of degree D: Horner's rule in the basis 1, V_1, ...,
    where theta * 1 = V_1, theta * V_1 = V_2 + 2 (V_0 = 2) and theta * V_k =
    V_(k+1) + V_(k-1) for k >= 2."""
    e = []
    for tk in reversed(t):
        e += [0, 0]
        e = [tk + 2 * e[1], *map(operator.add, e, e[2:])]
    return e[:0:-1] + e


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

        With self = A/m for integral A, N(self) = N(A) / m^phi(n), and N(A)
        is the resultant of the pair that `_resultant_pair` builds: of half
        the degree over the real subfield up to MAX_REAL_NORM_PHI, else
        Res(Phi_n, A).  An element whose `_norm_work` exceeds MAX_NORM_WORK
        is refused before any resultant.

        >>> CycElt.parse('7:[1,2]').norm() == 43
        True
        """
        if not self:
            return 0
        m, ints = _cleared(self.coeffs)
        _, f, g, _ = _resultant_pair(self.n, ints)
        r = resultant(f, g)
        return r if m == 1 else _scalar(Fraction(r, m ** len(ints)))

    def trace(self):
        """Field trace down to Q: the sum of all Galois conjugates, taken
        as sum c_i * Tr(zeta^i) with Tr(zeta^i) the Ramanujan sum c_n(i)."""
        return _scalar(sum(c * t for c, t in zip(self.coeffs, _ramanujan_sums(self.n)) if c))

    def inverse(self) -> "CycElt":
        """Multiplicative inverse, fraction-free, from the norm's resultant
        pair (f, g) of A = m * self: the sequence ends in an integer
        c = t * g (mod f) for g's cofactor t.  Over the real subfield
        g(theta) = A * conj(A), so self^-1 = m * conj(A) * t(zeta + 1/zeta) / c;
        over Phi_n, g = A / zeta^start and self^-1 = m * t / (zeta^start * c).
        The one division, by c, comes last.  Refused before any resultant or
        product above MAX_INVERSE_WORK (see `_resultant_pair`).

        >>> a = CycElt.parse('7:[1,2]')
        >>> a * a.inverse() == 1
        True
        """
        if not self:
            raise ZeroDivisionError("division by zero")
        n = self.n
        m, ints = _cleared(self.coeffs)
        real, f, g, start = _resultant_pair(n, ints, inverse=True)
        t, c = resultant_cofactor(f, g)
        if real:
            # conj(A) / zeta^D, small integers: A_i sits at -i - D mod n
            bar = _reduce(n, [0] * ((2 - len(t) - len(ints)) % n) + [*reversed(ints)], fractions=False)
            vec = _mul_vecs(n, bar, _zeta_form(t))
        else:
            vec = _reduce(n, [0] * (-start % n) + t, fractions=False)
        return CycElt._of(n, _divided(tuple(x * m for x in vec), c))

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


# Largest `d * (nonzero coordinates) * (words of the largest one)` that
# `is_root_of_unity` accepts: its one product, a * conj(a), runs over the
# nonzero coordinates of a against the d of conj(a).  On a 2-vCPU Xeon VM with
# Python 3.11, dense elements (primes 1009-5477, coordinates +-9 to 2^1000)
# and blocks (at 9973-99991) took 60-170 s per billion of it; just inside the
# limit the slowest of six shapes, a dense 1000-bit element at 1367, took
# 3.2 s, and a dense +-9 one at 5477 2.8 s.
MAX_ROOT_WORK = 30_000_000


def is_root_of_unity(a: CycElt):
    """(True, order) for the minimal m with a^m = 1, else (False, None).

    A root of unity is integral with a * conj(a) = 1, and by Kronecker's
    theorem such an element is one (conjugation commutes with the Galois
    group, so every conjugate has absolute value 1); anything else is
    rejected before any power.  Every root of unity in Q(zeta_n) has order
    dividing 2n, so only the divisors of 2n are scanned.  An integral
    element above MAX_ROOT_WORK is refused with ValueError before any
    product.
    """
    one = CycElt.one(a.n)
    if not a.is_integral():
        return False, None
    nonzero = [c for c in a.coeffs if c]
    words = 1 + max(map(abs, nonzero), default=0).bit_length() // 64
    if len(a.coeffs) * len(nonzero) * words > MAX_ROOT_WORK:
        raise ValueError(f"root-of-unity work estimate exceeds {MAX_ROOT_WORK}")
    if a * a.conj() != one:
        return False, None
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
    scalar x^p + y^p in Q(zeta_p).  Each factor is one reduction of the
    coordinates of x + y * X^i, written into a single list."""
    check_odd_prime(check_conductor(p))
    raw = [x] + [0] * (p - 1)
    factors = []
    for i in range(p):
        raw[i] += y
        factors.append(CycElt._of(p, _reduce(p, raw)))
        raw[i] -= y
    return factors
