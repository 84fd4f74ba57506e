"""Exact arithmetic in the cyclotomic field Q(zeta_n) in the power basis.

An element is a vector of phi(n) exact coordinates over the power basis
1, zeta, ..., zeta^(phi(n)-1), kept reduced modulo the n-th cyclotomic
polynomial.  Every construction, product, Galois image and inverse goes
through one map, `_reduce`: exponents fold modulo n, then the remainder
is taken through the product form Phi_n = prod (1 - X^d)^moebius(n/d),
one strided pass per factor for the quotient and one for its product
with Phi_n, so a reduction of k places costs about k per factor and no
polynomial is divided.  An element is stored as integer coordinates over
one denominator in lowest terms, a unique form, so equality is coordinate
comparison; those of denominator 1 are exactly the members of Z[zeta_n]
(for prime-power n this ring is the full ring of integers; for other n
the predicate means membership in Z[zeta_n], nothing more).

Nothing divides polynomials over Q, and sums and products (over the lcm
and the product of the denominators) run on ints.  The trace reads a table
of Ramanujan sums.  The norm takes whichever of two routes a cost model,
fitted to timings of both, says is cheaper (`_norm_route`).  Each reads the
real element A * conj(A) = c_0 + sum c_k (zeta^k + zeta^-k) off the
autocorrelation c of the coordinates, with no ring product.  Evaluation
(dense elements): N(A) is the product of its values at the real conjugates
of a Hensel-lifted root of unity modulo a prime power above the Parseval
bound on N(A).  Resultant (sparse windows, large coordinates): the
resultant of the theta-form of c with the minimal polynomial Psi_n of
theta = zeta + 1/zeta, of half the degree of Phi_n, in the real subfield
Q(zeta_n)+ of index 2; above phi(n) = MAX_REAL_NORM_PHI, where Psi_n's
coefficients grow large, Res(Phi_n, A) instead.  The inverse tracks a
cofactor along that subresultant sequence, which ends in an integer
c = t * g modulo f: a^-1 = conj(a) * t(zeta + 1/zeta) / c, or t / c.

Everything is immutable and every operation is a pure function; the only
shared state is the per-conductor Ramanujan-sum and Psi_n tables, primes
l = 1 (mod n) and lifted roots of unity, and the last two exponent tables
here, and the Phi_n and product-form caches in `polys`, all idempotent.

>>> z = CycElt.zeta(5)
>>> (1 + z) * (1 + z**4)
CycElt.parse('5:[1,0,-1,-1]')
>>> (1 - z).norm()
5
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from array import array
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConductorMismatchError, InternalInvariantError, NotIntegralError
from .ntheory import check_odd_prime, divisors, factorize, is_prime, moebius, totient
from .polys import Poly, _list_from_str, _list_to_str, _mul_lists, _product_form, _scalar, _times_binomials
from .polys import check_conductor, cyclotomic_poly, resultant, resultant_cofactor

__all__ = [
    "MAX_FACTOR_WORK",
    "MAX_INVERSE_WORK",
    "MAX_MUL_WORK",
    "MAX_NORM_WORK",
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
    exponents modulo n (zeta^n = 1), then take the remainder r = v - q * Phi_n
    of the folded v, both products by the strided passes of the product
    form.  Phi_n is palindromic for n > 1, so the reversed quotient is the
    reversed top of v times 1/Phi_n, truncated: the same passes with the
    roles of the two factor lists swapped.  The entries are ints."""
    d, ups, downs = _product_form(n)
    vec = [0] * max(d, min(n, len(raw)))
    for i, c in enumerate(raw):
        if c:
            vec[i % n] += c
    if len(vec) > d:
        q = _times_binomials(vec[: d - 1 : -1], downs, ups)[::-1][:d]
        vec = map(operator.sub, vec[:d], _times_binomials(q + [0] * (d - len(q)), ups, downs))
    return tuple(vec)


def _mul_vecs(n, a, b):
    """The reduced product of two integer coordinate vectors."""
    return _reduce(n, _mul_lists(a, b))


def _over_lcm(cs):
    """(nums, den): the exact scalars cs as ints nums over den, the lcm of
    their denominators."""
    cs = [_scalar(c) for c in cs]
    den = math.lcm(*(c.denominator for c in cs))
    return (cs if den == 1 else [c.numerator * (den // c.denominator) for c in cs]), den


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
    by_gcd = {g: moebius(n // g) * (d // totient(n // g)) for g in divisors(n)}
    return tuple(by_gcd[math.gcd(i, n)] for i in range(d))


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


# Largest estimate, `_evaluation_work` or `_norm_work` for the route that
# `norm` takes, that `norm` (so also `is_unit`, `decompose_unit` and the
# `elt norm`, `elt is-unit` and `unit-decompose` commands) accepts.  On a
# 2-vCPU Xeon VM with Python 3.11, the evaluation took 3.4-4.4 s per billion
# of its estimate (dense elements with +-9 to 385-bit coordinates, blocks of
# d/4 to d/32, products of ten cyclotomic units), and the resultant, on the
# shapes it still takes, 0.4-7.1 s per billion: sparse pairs at 24251 the
# least, blocks of d/40 to d/64 at 2100-3600 the most.  Just inside the
# limit the slowest, a block of d/48 at 3049 on the resultant, took 3.3 s;
# a dense element at 1747 took 1.9 s.  The limit stays where the resultant
# alone put it, since `unit-decompose` takes two norms of about this size.
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
    if k == 0:  # a single power, squared in words with its decimal form
        return (1 + size // 64) ** 2
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


def _window(ints):
    """(start, a, squares, lag1) for integer coordinates ints, not all zero:
    a is the window of ints between its first (start) and last nonzero ones
    (zeta^j has norm 1 for n >= 3), squares = sum a_i^2 and lag1 = sum
    a_i * a_(i+1)."""
    nonzero = list(map(bool, ints))
    start = nonzero.index(True)
    a = ints[start : len(ints) - nonzero[::-1].index(True)]
    return start, a, sum(map(operator.mul, a, a)), sum(map(operator.mul, a, a[1:]))


def _autocorrelation(n, a, squares, lag1):
    """c with A * conj(A) = c_0 + sum c_k (zeta^k + zeta^-k) for the window a
    of A: c_k the autocorrelation sums, k > n/2 folded onto n - k."""
    half = n // 2
    c = [squares, lag1][: len(a)] + [0] * (min(len(a), half + 1) - 2)
    for k in range(2, len(a)):
        c[k if k <= half else n - k] += sum(map(operator.mul, a, a[k:]))
    return c


def _resultant_pair(n, a, real, squares, lag1):
    """(f, g) with f monic and Res(f, g) = N(A) for the window a of the
    integer coordinates of A.  Over the real subfield (real, n > 2):
    A * conj(A) is the real element of `_autocorrelation`, so f = Psi_n and
    g is its theta-form; otherwise f = Phi_n and g the window."""
    if not real:
        return cyclotomic_poly(n), Poly(a)
    return _real_cyclotomic(n), Poly(_theta_form(_autocorrelation(n, a, squares, lag1)))


@functools.cache
def _prime_root(n):
    """(l, omega): the least prime l = 1 (mod n) above 2, and omega of exact
    order n modulo l, omega = g^((l-1)/n) for the least g = 2, 3, ... with
    omega^(n/q) != 1 for every prime q | n.  Cached per process (a
    thread-safe idempotent memo)."""
    ell = next(l for l in itertools.count(n + 1, n) if l > 2 and is_prime(l))
    primes = [q for q, _ in factorize(n)]
    roots = (pow(g, (ell - 1) // n, ell) for g in itertools.count(2))
    return ell, next(w for w in roots if all(pow(w, n // q, ell) != 1 for q in primes))


# n -> (k, W, V): W = omega (mod l) with W^n = 1 (mod l^k), V = W^(n-1), at
# the highest precision k lifted so far.  An entry is replaced whole, so a
# thread reads an older or a newer one, and both are valid.
_LIFTED_ROOTS = {}


def _lifted_root(n, e):
    """(W, W^-1) modulo l^k for some k >= e: the Newton (Hensel) lift of omega
    of `_prime_root` on X^n - 1, whose derivative n X^(n-1) = n / W is a
    unit mod l (l does not divide n).  Each step doubles the precision,
    from the highest one lifted so far for this n."""
    ell, omega = _prime_root(n)
    k, w, v = _LIFTED_ROOTS.get(n, (1, omega, pow(omega, n - 1, ell)))
    if k < e:
        steps = [e]
        while steps[-1] > 2 * k:
            steps.append((steps[-1] + 1) // 2)
        for k in reversed(steps):
            mod = ell**k
            w = (w - (pow(w, n, mod) - 1) * w * pow(n, -1, mod)) % mod
        v = pow(w, n - 1, mod)
        _LIFTED_ROOTS[n] = (k, w, v)
    return w, v


@functools.lru_cache(maxsize=2)
def _kept_conjugate_rows(n, lags):
    """The rows m * k mod n, m = 1..lags, for k in 1..n/2 prime to n (one k
    of each pair +-k of (Z/n)^*), as 4-byte arrays, kept for the last two
    (n, lags): (phi(n)/2) * lags * 4 bytes, 3.1 MB for a dense n = 1759, and
    as much again while they are built.  Row k is the stride-k slice of
    0, 1, ..., n-1 repeated past lags * k."""
    ramp = array("i", range(n)) * (lags // 2 + 1)
    return tuple(ramp[k : (lags + 1) * k : k] for k in range(1, (n + 1) // 2) if math.gcd(k, n) == 1)


def _evaluated_norm(n, d, a, squares, lag1):
    """N(A) for n >= 3 and d = phi(n), from the window a of A (`_window`).

    By Parseval over the n-th roots of unity and AM-GM, 0 < N(A) <=
    (n s / d)^(d/2) for s = |A|_2^2 and for s = |A * (1 - zeta)|_2^2
    (N(1 - zeta) >= 1), so N(A) is its residue modulo M = l^e, e the least
    with l^e above the smaller bound.  With Phi_n(W) = 0 (mod M), checked,
    N(A) = prod B(W^k) (mod M) over k in (Z/n)^* modulo +-1, B(W^k) =
    c_0 + sum c_m (W^mk + W^-mk) the value of A * conj(A), c the
    `_autocorrelation`: n/2 products for the sums W^j + W^-j, then len(c)
    products of a small number by one below M per value."""
    ell, _ = _prime_root(n)
    bound = (n * min(squares, 2 * (squares - lag1))) ** d // d**d  # N(A)^2 <= bound
    e = bound.bit_length() // (2 * ell.bit_length() - 2) + 1
    ell2, mod2 = ell * ell, ell ** (2 * e)
    while mod2 // ell2 > bound:
        mod2 //= ell2
        e -= 1
    mod = ell**e
    w, v = _lifted_root(n, e)
    s1 = (w + v) % mod
    sums = [2, s1]  # W^j + W^-j by s_(j+1) = s_1 * s_j - s_(j-1)
    for _ in range(n // 2 - 1):
        sums.append((s1 * sums[-1] - sums[-2]) % mod)
    # Phi_n is palindromic: Phi_n(W) / W^(d/2) = phi_(d/2) + sum phi_(d/2+j) * s_j
    phi = cyclotomic_poly(n).coeffs
    if (w * v - 1) % mod or (phi[d // 2] + sum(map(operator.mul, phi[d // 2 + 1 :], sums[1:]))) % mod:
        raise InternalInvariantError("the lifted root of unity is not a root of Phi_n modulo l^e")
    sums += sums[n - n // 2 - 1 : 0 : -1]  # s_(n-j) = s_j
    c = _autocorrelation(n, a, squares, lag1)
    c0, lags, norm = c[0], c[1:], 1
    for row in _kept_conjugate_rows(n, len(lags)):
        norm = norm * (c0 + sum(map(operator.mul, lags, map(sums.__getitem__, row)))) % mod
    return norm


def _evaluation_work(n, d, lags, s):
    """An estimate of the cost of `_evaluated_norm` for an autocorrelation of
    lags + 1 entries and its s, in the units of `_norm_work` (about 4 ns,
    its rate on dense norms): w the words of M ((d/2) log2(n s / d), to an
    eighth of a bit) and cw those of s; (n + d)/2 products and remainders of
    w words, and lags products of cw by w words per value.  The weights were
    fitted to timings of both routes."""
    w = 1 + d * ((n * s) ** 8 // d**8).bit_length() // 1024
    cw = 1 + s.bit_length() // 64
    return (n + d) * (59 + 6 * w * w // 5) + d * lags * (35 + w * cw) + 370


def _norm_route(n, d, a, squares, lag1):
    """(evaluate, work): whether `norm` takes `_evaluated_norm` (n >= 3)
    over the resultant, and the estimate of the route it takes.  The
    comparison adds what `_norm_work`, a count of word operations, leaves
    out: about 100 units per coefficient step of the resultant, 2000 a call."""
    real = n > 2 and d <= MAX_REAL_NORM_PHI
    work = _norm_work(n, d, a, real, squares, lag1)
    if n > 2:
        lags = min(len(a), n // 2 + 1) - 1
        evaluation = _evaluation_work(n, d, lags, min(squares, 2 * (squares - lag1)))
        steps = d * lags // 2 if real else d * (len(a) - 1)
        if evaluation < work + 100 * steps + 2000:
            return True, evaluation
    return False, work


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
    canonicalization map.  Stored, and operated on, as ints `_nums` over one
    denominator `_den` >= 1 in lowest terms; `coeffs` shows ints and Fractions.
    """

    __slots__ = ("n", "_nums", "_den")

    def __init__(self, n, coeffs=()):
        check_conductor(n)
        if isinstance(coeffs, (int, Fraction)):
            coeffs = (coeffs,)
        nums, den = _over_lcm(coeffs)
        self._store(n, _reduce(n, nums), den)

    def __setattr__(self, name, value):
        raise AttributeError("CycElt is immutable")

    def _store(self, n, nums, den):
        """Set n and nums / den, for a tuple of reduced ints and den != 0, in lowest terms."""
        g = math.gcd(den, *nums) if den > 0 else -math.gcd(den, *nums)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_nums", nums if g == 1 else tuple(c // g for c in nums))
        object.__setattr__(self, "_den", den // g)

    @classmethod
    def _of(cls, n, nums, den):
        """The element nums / den (see `_store`), unchecked."""
        out = cls.__new__(cls)
        out._store(n, nums, den)
        return out

    @property
    def coeffs(self):
        """The phi(n) coordinates, each an int or a Fraction in lowest terms."""
        den = self._den
        return self._nums if den == 1 else tuple(c and _scalar(Fraction(c, den)) for c in self._nums)

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
        return f"{self.n}:{_list_to_str(self.coeffs)}"

    def __repr__(self):
        return f"CycElt.parse({str(self)!r})"

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycElt(self.n, other)
        if not isinstance(other, CycElt):
            return NotImplemented
        return self.n == other.n and self._den == other._den and self._nums == other._nums

    def __hash__(self):
        # a rational element equals its value, so it hashes as its value
        return hash((self.n, self._den, self._nums) if any(self._nums[1:]) else self.as_scalar())

    def __bool__(self):
        return any(self._nums)

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycElt):
            if other.n != self.n:
                raise ConductorMismatchError("conductor mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return CycElt(self.n, (other,))
        return None

    def _combine(self, other, op):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        den = math.lcm(self._den, other._den)
        a, b = (x._nums if x._den == den else [c * (den // x._den) for c in x._nums] for x in (self, other))
        return CycElt._of(self.n, tuple(map(op, a, b)), den)

    def __add__(self, other):
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __neg__(self):
        return CycElt._of(self.n, tuple(-c for c in self._nums), self._den)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycElt._of(self.n, _mul_vecs(self.n, self._nums, other._nums), self._den * other._den)

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
        if any(self._nums[1:]):
            raise ValueError("element is not rational")
        return _scalar(Fraction(self._nums[0], self._den))

    def is_integral(self):
        """Member of Z[zeta_n]: every power-basis coordinate is an integer."""
        return self._den == 1

    def galois(self, k: int) -> "CycElt":
        """Apply the automorphism zeta -> zeta^k; k must be coprime to n."""
        n = self.n
        if math.gcd(k, n) != 1:
            raise ValueError("galois index must be coprime to the conductor")
        return CycElt._of(n, _galois_vec(n, self._nums, k % n), self._den)

    def conj(self) -> "CycElt":
        """Complex conjugation: the automorphism zeta -> zeta^(n-1)."""
        return self.galois(self.n - 1)

    def is_real(self):
        """Fixed by complex conjugation."""
        return self.conj() == self

    def norm(self):
        """Field norm down to Q: the product of all Galois conjugates.

        With self = A/m for integral A, N(self) = N(A) / m^phi(n).  N(A)
        takes the route `_norm_route` estimates cheaper: the values of
        A * conj(A) at a root of Phi_n modulo a prime power
        (`_evaluated_norm`), or the resultant of `_resultant_pair`.  An
        element whose estimate for that route, plus the square of the words
        of m^phi(n) when m > 1, exceeds MAX_NORM_WORK is refused before
        either runs.

        >>> CycElt.parse('7:[1,2]').norm() == 43
        True
        """
        if not self:
            return 0
        n, m, ints = self.n, self._den, self._nums
        d = len(ints)
        _, a, squares, lag1 = _window(ints)
        evaluate, work = _norm_route(n, d, a, squares, lag1)
        if m > 1:  # m^d, the quotient's gcd and its decimal form
            work += (1 + d * m.bit_length() // 64) ** 2
        if work > MAX_NORM_WORK:
            raise ValueError(f"norm work estimate exceeds {MAX_NORM_WORK}")
        if evaluate:
            r = _evaluated_norm(n, d, a, squares, lag1)
        else:
            r = resultant(*_resultant_pair(n, a, n > 2 and d <= MAX_REAL_NORM_PHI, squares, lag1))
        return r if m == 1 else _scalar(Fraction(r, m**d))

    def trace(self):
        """Field trace down to Q: the sum of all Galois conjugates, taken
        as sum c_i * Tr(zeta^i) with Tr(zeta^i) the Ramanujan sum c_n(i)."""
        return _scalar(Fraction(sum(map(operator.mul, self._nums, _ramanujan_sums(self.n))), self._den))

    def inverse(self) -> "CycElt":
        """Multiplicative inverse, fraction-free, from the norm's resultant
        pair (f, g) of A = m * self: the sequence ends in an integer
        c = t * g (mod f) for g's cofactor t.  Over the real subfield
        g(theta) = A * conj(A), so self^-1 = m * conj(A) * t(zeta + 1/zeta) / c;
        over Phi_n, g = A / zeta^start and self^-1 = m * t / (zeta^start * c).
        c becomes the denominator.  A monomial A = c * zeta^start is
        inverted as m / (c * zeta^start) before any estimate; any other
        element is refused before any resultant or product when
        `_norm_work` plus `_output_work` exceeds MAX_INVERSE_WORK.

        >>> a = CycElt.parse('7:[1,2]')
        >>> a * a.inverse() == 1
        True
        """
        if not self:
            raise ZeroDivisionError("division by zero")
        n, m, ints = self.n, self._den, self._nums
        d = len(ints)
        start, a, squares, lag1 = _window(ints)
        if len(a) == 1:
            return CycElt._of(n, _reduce(n, [0] * (-start % n) + [m]), a[0])
        real = n > 2 and d <= MAX_REAL_NORM_PHI
        work = _norm_work(n, d, a, real, squares, lag1) + _output_work(n, d, start, real, squares, lag1)
        if work > MAX_INVERSE_WORK:
            raise ValueError(f"inverse work estimate exceeds {MAX_INVERSE_WORK}")
        t, c = resultant_cofactor(*_resultant_pair(n, a, real, squares, lag1))
        if real:
            # conj(A) / zeta^D, small integers: A_i sits at -i - D mod n
            bar = _reduce(n, [0] * ((2 - len(t) - len(ints)) % n) + [*reversed(ints)])
            vec = _mul_vecs(n, bar, _zeta_form(t))
        else:
            vec = _reduce(n, [0] * (-start % n) + t)
        return CycElt._of(n, tuple(x * m for x in vec), c)

    def is_unit(self):
        """Unit of Z[zeta_n], i.e. norm +-1; requires integer coordinates."""
        if not self.is_integral():
            raise NotIntegralError("not an algebraic integer in the power basis")
        return abs(self.norm()) == 1


def parse_literal(text: str) -> tuple[int, list]:
    """Split the element literal `n:[c0,c1,...]` into the conductor and the
    coordinates.  Only the syntax is checked; CycElt(n, coeffs) checks n."""
    head, _, body = text.partition(":")
    try:
        return int(head.strip()), _list_from_str(body, "element")
    except ValueError as exc:
        raise ValueError(f"malformed element literal: {text!r}") from exc


def zeta_pow(n: int, j: int) -> CycElt:
    """zeta_n^j in canonical form (j is taken mod n)."""
    return CycElt(n, [0] * (j % check_conductor(n)) + [1])


def is_root_of_unity(a: CycElt):
    """(True, order) for the minimal m with a^m = 1, else (False, None).

    The roots of unity in Q(zeta_n) are the +-zeta^k, all integral.
    For the least prime l = 1 (mod n) above 2 and an omega of exact order n
    mod l, zeta -> omega maps Z[zeta_n] to F_l (Phi_n(omega) = 0 mod l) and
    sends the +-zeta^k to distinct +-omega^k (for even n, -1 = omega^(n/2)).
    So a(omega), looked up among the n powers of omega, names the only
    candidate +-zeta^k, and one coordinate comparison decides.  The cost is
    O(n) plus one pass over the coordinates and one reduction, with no ring
    product or power, so no size limit is needed.
    """
    n = a.n
    if not a.is_integral():
        return False, None
    ell, omega = _prime_root(n)
    powers = list(itertools.accumulate(range(n - 1), lambda w, _: w * omega % ell, initial=1))
    value = sum(c % ell * w for c, w in zip(a.coeffs, powers)) % ell
    index = {w: k for k, w in enumerate(powers)}
    sign = 1 if value in index else -1
    k = index.get(sign * value % ell)
    if k is None or a.coeffs != tuple(sign * c for c in zeta_pow(n, k).coeffs):
        return False, None
    return True, 2 * n // math.gcd(2 * n, 2 * k + n * (sign < 0))


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


# Largest `_check_mul_work` estimate that `elt mul` accepts.  On a 2-vCPU Xeon
# VM with Python 3.11, in-process products of two literals took 4.4-9.1 s per
# billion of it: the most for 3000 coordinates of 100 bits at 99991, the least
# for 100-300 coordinates of 6400-14000 bits.  Just inside the limit (0.98 of
# it) two 4950-coordinate literals of 101 bits at 99991 took 4.3-5.0 s; two
# dense 10000-coordinate literals of +-9 (12.1 s) are refused.
MAX_MUL_WORK = 600_000_000


def _check_mul_work(a, b):
    """a, if a * b fits MAX_MUL_WORK.  The estimate is (nonzero coordinates
    of a) * (those of b) products of coordinates, each a fixed cost plus the
    product of the words of the two operands' largest coordinates once
    denominators are cleared."""

    def terms_and_words(x):
        bits = max(abs(c) // math.gcd(c, x._den) for c in x._nums).bit_length() + x._den.bit_length()
        return sum(map(bool, x._nums)), 1 + bits // 64

    (ta, wa), (tb, wb) = terms_and_words(a), terms_and_words(b)
    if ta * tb * (20 + wa * wb) > MAX_MUL_WORK:
        raise ValueError(f"mul work estimate exceeds {MAX_MUL_WORK}")
    return a


# Largest `_check_factor_work` estimate that `factor_sum_pth_powers` (so
# `cyclo factor`) accepts.  On a 2-vCPU Xeon VM with Python 3.11 a coordinate
# took 0.35-0.5 us (64 units) to build, check and print, and x^p + y^p 6.6 ns
# per square word (1 unit) to print.  Just inside the limit `factor 2791 1 1`
# took 2.0-3.0 s (91 MB), p = 97 with a 4300-digit x and y = 0 2.8 s, and the
# slowest shape found, 732-bit x and 40-bit y at 1601, 4.2-4.7 s (1.9 s norm).
MAX_FACTOR_WORK = 500_000_000


def _check_factor_work(x, y, p):
    """p, if it is an odd prime and `cyclo factor p x y` fits MAX_FACTOR_WORK."""
    check_odd_prime(check_conductor(p))
    bits = max(abs(c.numerator).bit_length() + c.denominator.bit_length() - 1 for c in (x, y))
    if p * (p - 1) * 64 + (1 + p * bits // 64) ** 2 > MAX_FACTOR_WORK:
        raise ValueError(f"factor work estimate exceeds {MAX_FACTOR_WORK}")
    return p


def factor_sum_pth_powers(x: int, y: int, p: int) -> list[CycElt]:
    """The p factors (x + zeta^i * y), i = 0..p-1, whose product is the
    scalar x^p + y^p in Q(zeta_p).  Each factor is one reduction of the
    coordinates of x + y * X^i, written into a single list; refused by
    `_check_factor_work` before any is built."""
    _check_factor_work(x, y, p)
    (x, y), den = _over_lcm((x, y))
    raw = [x] + [0] * (p - 1)
    factors = []
    for i in range(p):
        raw[i] += y
        factors.append(CycElt._of(p, _reduce(p, raw), den))
        raw[i] -= y
    return factors
