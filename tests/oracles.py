"""Independent reference implementations used to derive expected values.

Each oracle takes a different route than the library: brute-force
counts, coefficient products by a double loop over every pair and
autocorrelations one lag at a time, the Moebius product over sparse
binomials, polynomial long division over Q, Phi_n by recursive exact
division, the reduction modulo Phi_n by folding and dividing, Sylvester
determinants via Bareiss elimination, Galois-conjugate folding, norms
modulo a prime q = 1 (mod n) by the values at the n-th roots of unity mod q, the
factors of x^p + y^p folded back together, multiplication-matrix traces,
traces by von Sterneck's table of Ramanujan sums, the extended Euclidean
inverse over Q, the inverse by a sequential cofactor product over the
Galois conjugates and by doubling chains over the Galois orbits, roots
of unity by a power per divisor of 2n, the exponent of u / conj(u) by
the rotations of conj(u), the Case I search by a binary-search p-th
root per pair and by a z-pointer over every pair, its
sieve by a mask looked up by x^p mod q for each x, its size cut by a
pointer walked per chunk and its pruned count x by x, Bernoulli
numbers by the defining recurrence over Fractions, irregular pairs by
one Fraction numerator per index, and the text of a scalar by its type.
They are deliberately slow and simple.
"""

import functools
import math
import operator
from fractions import Fraction
from functools import reduce

from cyclo.errors import InternalInvariantError
from cyclo.fermat import SearchReport
from cyclo.ntheory import divisors, factorize, totient
from cyclo.polys import Poly, _scalar, cyclotomic_poly
from cyclo.ring import CycElt, _galois_vec, _mul_vecs


def phi_brute(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def moebius_brute(n):
    mu, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            mu = -mu
        d += 1
    return -mu if n > 1 else mu


# -- cyclotomic polynomial via the Moebius product --------------------------


def _mul_binomial(coeffs, m):
    """coeffs * (X^m - 1), on plain lists."""
    out = [0] * (len(coeffs) + m)
    for i, c in enumerate(coeffs):
        out[i + m] += c
        out[i] -= c
    while out and out[-1] == 0:
        out.pop()
    return out


def _div_binomial(coeffs, m):
    """Exact division of coeffs by (X^m - 1), on plain lists."""
    D = len(coeffs) - 1
    q = [0] * (D - m + 1)
    for i in range(D - m, -1, -1):
        q[i] = coeffs[i + m] + (q[i + m] if i + m <= D - m else 0)
    assert _mul_binomial(q, m) == coeffs, "inexact binomial division"
    return q


def cyclotomic_moebius(n):
    """Phi_n as prod over d | n of (X^(n/d) - 1)^moebius(d), coefficient list."""
    pos = [n // d for d in range(1, n + 1) if n % d == 0 and moebius_brute(d) == 1]
    neg = [n // d for d in range(1, n + 1) if n % d == 0 and moebius_brute(d) == -1]
    coeffs = [1]
    for m in pos:
        coeffs = _mul_binomial(coeffs, m)
    for m in neg:
        coeffs = _div_binomial(coeffs, m)
    return Poly(coeffs)


# -- polynomial division over Q ----------------------------------------------


def _div(a, b):
    """Exact scalar division a/b, staying int when possible."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return q if r == 0 else Fraction(a, b)
    return _scalar(Fraction(a) / Fraction(b))


def poly_divmod(f, g):
    """(q, r) with f = q * g + r and deg r < deg g, by long division over Q."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    g = g.coeffs
    dg, lg = len(g) - 1, g[-1]
    r = list(f.coeffs)
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


def poly_eval(f, x):
    """f(x) by Horner's rule."""
    result = 0
    for c in reversed(f.coeffs):
        result = result * x + c
    return _scalar(result)


def poly_pow(f, k):
    """f^k for an integer k >= 0, by repeated squaring."""
    result = Poly([1])
    while k:
        if k & 1:
            result = result * f
        f = f * f
        k >>= 1
    return result


def compose_xpow(f, k):
    """f(X^k): coefficients spread k apart."""
    out = [0] * ((len(f.coeffs) - 1) * k + 1) if f else []
    for i, c in enumerate(f.coeffs):
        out[i * k] = c
    return Poly(out)


@functools.cache
def recursive_cyclotomic(n):
    """Phi_n by recursive exact division: with p the largest prime factor of
    n and m = n // p, Phi_n(X) = Phi_m(X^p) / Phi_m(X) when p does not
    divide m, and Phi_m(X^p) when it does."""
    if n == 1:
        return Poly((-1, 1))
    p = factorize(n)[-1][0]
    m = n // p
    lifted = compose_xpow(recursive_cyclotomic(m), p)
    if m % p == 0:
        return lifted
    q, r = poly_divmod(lifted, recursive_cyclotomic(m))
    assert not r, "cyclotomic division left a remainder"
    return q


def fold_divide_reduce(n, raw):
    """The canonical coordinates of sum raw[i] * zeta^i: fold the exponents
    modulo n, then take the remainder of the division by the monic Phi_n,
    top coefficient first, applying only the nonzero lower terms of Phi_n."""
    phi = recursive_cyclotomic(n).coeffs
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


def cyclotomic_by_definition(n, _memo={}):
    """Phi_n by the literal definition (X^n - 1) / prod of proper-divisor
    cyclotomics, all recursively from this same definition."""
    if n in _memo:
        return _memo[n]
    f = Poly.monomial(n) - 1
    for d in range(1, n):
        if n % d == 0:
            f, r = poly_divmod(f, cyclotomic_by_definition(d))
            assert not r
    _memo[n] = f
    return f


# -- resultant via the Sylvester matrix --------------------------------------


def bareiss_det(M):
    M = [row[:] for row in M]
    n = len(M)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k] != 0:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def sylvester_resultant(f, g):
    m, n = f.degree, g.degree
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    size = m + n
    M = [[0] * i + fc + [0] * (size - i - len(fc)) for i in range(n)]
    M += [[0] * i + gc + [0] * (size - i - len(gc)) for i in range(m)]
    return bareiss_det(M)


# -- coefficient convolutions --------------------------------------------------


def schoolbook_product(a, b):
    """The product of coefficient lists a and b, every pair of entries, zeros
    included."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def autocorrelation(n, a):
    """c_k = sum a[i] * a[i + k], one lag k at a time, k > n/2 folded onto
    n - k: A * conj(A) = c_0 + sum c_k (zeta^k + zeta^-k) for the window a."""
    half = n // 2
    c = [0] * min(len(a), half + 1)
    for k in range(len(a)):
        c[k if k <= half else n - k] += sum(map(operator.mul, a, a[k:]))
    return c


# -- norm and trace by alternate routes ---------------------------------------


def conjugate_product_norm(a):
    """Product of all Galois conjugates, folded in the ring."""
    conjs = [a.galois(k) for k in range(1, a.n + 1) if math.gcd(k, a.n) == 1]
    return reduce(lambda u, v: u * v, conjs).as_scalar()


def folded_product(factors):
    """The product of the factors by a left fold in the ring: how `cyclo
    factor` once checked that its factors multiply to x^p + y^p."""
    return reduce(lambda u, v: u * v, factors)


def residue_norm(a, q):
    """N(a) mod q for integral a and a prime q = 1 (mod n): Phi_n splits
    mod q as prod (X - omega^k) over k prime to n, omega of exact order n,
    so N(a) = Res(Phi_n, a) = prod a(omega^k) (mod q), each value by Horner
    from a's last nonzero coordinate down."""
    n, top_down = a.n, Poly(a.coeffs).coeffs[::-1]
    primes = [r for r, _ in factorize(n)]
    roots = (pow(g, (q - 1) // n, q) for g in range(2, q))
    omega = next(w for w in roots if all(pow(w, n // r, q) != 1 for r in primes))
    out = 1
    for k in range(1, n + 1):
        if math.gcd(k, n) == 1:
            x, value = pow(omega, k, q), 0
            for c in top_down:
                value = (value * x + c) % q
            out = out * value % q
    return out


def mult_matrix_trace(a):
    """Trace of the phi(n) x phi(n) multiplication-by-a matrix."""
    return sum((a * CycElt.zeta(a.n, i)).coeffs[i] for i in range(totient(a.n)))


def ramanujan_trace(a):
    """Tr(a) as sum a_i * c_n(i), each Ramanujan sum from von Sterneck's
    table c_n(i) = moebius(n/g) * phi(n) / phi(n/g), g = gcd(i, n): one gcd
    per coordinate."""
    n, d = a.n, totient(a.n)
    by_gcd = {g: moebius_brute(n // g) * (d // totient(n // g)) for g in divisors(n)}
    return _scalar(sum(c * by_gcd[math.gcd(i, n)] for i, c in enumerate(a.coeffs)))


# -- inverse by an alternate route ----------------------------------------------


def cleared(a):
    """(m, ints): the least m >= 1 with m * a integral, and the coordinates
    of m * a, read off a.coeffs one Fraction at a time."""
    m = math.lcm(*(c.denominator for c in a.coeffs))
    return m, [int(c * m) for c in a.coeffs]


def euclid_inverse(a):
    """Multiplicative inverse, by the extended Euclidean algorithm
    against the (irreducible) n-th cyclotomic polynomial."""
    if not a:
        raise ZeroDivisionError("division by zero")
    r0, r1 = cyclotomic_poly(a.n), Poly(a.coeffs)
    t0, t1 = Poly(), Poly([1])
    while r1.degree > 0:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, t0 - q * t1
    if not r1:
        raise InternalInvariantError("nonzero element shares a factor with the modulus")
    c = r1.coeffs[0]
    return CycElt(a.n, [_scalar(Fraction(t) / Fraction(c)) for t in t1.coeffs])


def sequential_cofactor_inverse(a):
    """Multiplicative inverse as m*C / N(A) for A = m*a integral, with the
    cofactor C = prod of sigma_k(A) over k != 1 coprime to n built by
    phi(n) - 2 sequential ring products."""
    if not a:
        raise ZeroDivisionError("division by zero")
    n = a.n
    m, ints = cleared(a)
    a = CycElt(n, ints)
    cof = CycElt(n, 1)
    for k in range(2, n):
        if math.gcd(k, n) == 1:
            cof = cof * a.galois(k)
    norm = (a * cof).coeffs
    if any(norm[1:]) or not norm[0]:
        raise InternalInvariantError("conjugate product is not a nonzero rational")
    return CycElt(n, [Fraction(c * m, norm[0]) for c in cof.coeffs])


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


def orbit_chain_inverse(a):
    """Multiplicative inverse as m*C / N(A) for A = m*a integral, with the
    cofactor C = prod of sigma_k(A) over the units k != 1 mod n built over
    the orbit steps (g, o) of (Z/n)^*: while full is the product of the
    conjugates of A over a subgroup H, the coset factor
    T = prod of sigma_(g^j)(full) over 0 < j < o extends it to the next
    subgroup, and C collects every T.  Each T is a doubling chain, so the
    ring products number O(log n) per step; no work limit."""
    if not a:
        raise ZeroDivisionError("division by zero")
    n = a.n
    m, ints = cleared(a)
    full, cof = ints, (1,) + (0,) * (len(ints) - 1)
    for g, o in _orbit_steps(n):
        t = _galois_vec(n, _chain(n, full, g, o - 1), g)
        cof = _mul_vecs(n, cof, t)
        full = _mul_vecs(n, full, t)
    if any(full[1:]) or not full[0]:
        raise InternalInvariantError("conjugate product is not a nonzero rational")
    return CycElt(n, [Fraction(c * m, full[0]) for c in cof])


def divisor_scan_root_of_unity(a):
    """(True, order) for the least m dividing 2n with a^m = 1, else
    (False, None): a power of a for every divisor of 2n."""
    one = CycElt(a.n, 1)
    for m in divisors(2 * a.n):
        if a**m == one:
            return True, m
    return False, None


def rotation_exponent(u):
    """e with u = zeta^e * conj(u) for a unit u of Z[zeta_p], p an odd prime:
    padded to length p (mod X^p - 1), zeta^e * conj(u) is conj(u) rotated by
    e, and two length-p vectors are equal in Q(zeta_p) exactly when their
    difference is constant, so each rotation is compared in turn (O(p^2)).
    Raises InternalInvariantError when no rotation of +-conj(u) matches."""
    p = u.n
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
    return e


# -- Case I search by bisection roots --------------------------------------------


def perfect_pth_root(s: int, p: int):
    """The integer z with z^p = s, or None; binary search, exact only."""
    if s < 1:
        raise ValueError("s must be >= 1")
    lo, hi = 1, 1 << (s.bit_length() // p + 1)
    while lo <= hi:
        mid = (lo + hi) // 2
        v = mid**p
        if v == s:
            return mid
        if v < s:
            lo = mid + 1
        else:
            hi = mid - 1
    return None


def bisection_case_i_search(p, bound, use_filter=True, x_range=None):
    """The Case I box search with a binary-search root of x^p + y^p for
    every pair that survives the coprimality screen and the filter, and a
    re-check of every hit; p must be an odd prime."""
    lo, hi = x_range if x_range is not None else (1, bound)
    lo, hi = max(lo, 1), min(hi, bound)
    candidates = 0
    pruned = 0
    solutions = []
    pth = {v: v**p for v in range(lo, bound + 1)}
    for x in range(lo, hi + 1):
        xp = pth[x]
        for y in range(x, bound + 1):
            candidates += 1
            if x % p == 0 or y % p == 0:
                continue
            if use_filter and (x + y) % p == 0:
                pruned += 1
                continue
            s = xp + pth[y]
            z = perfect_pth_root(s, p)
            if z is None or z % p == 0:
                continue
            if x**p + y**p == z**p and math.gcd(x * y * z, p) == 1 and x * y * z != 0:
                solutions.append((x, y, z))
    return SearchReport(
        p=p,
        bound=bound,
        candidates_examined=candidates,
        pruned_by_filter=pruned,
        solutions=tuple(sorted(solutions)),
    )


def pointer_walk_case_i_search(p, bound, use_filter=True, x_range=None):
    """The Case I box search over every pair: for each x, one pointer walks
    forward through the p-th powers of 0..2*bound to the least z with
    z^p >= x^p + y^p (z < 2y, and z grows with y); p must be an odd prime."""
    lo, hi = x_range if x_range is not None else (1, bound)
    lo, hi = max(lo, 1), min(hi, bound)
    candidates = 0
    pruned = 0
    solutions = []
    pth = [v**p for v in range(2 * bound + 1)]
    for x in range(lo, hi + 1):
        candidates += bound - x + 1
        if x % p == 0:
            continue
        xp, z = pth[x], x
        for y in range(x, bound + 1):
            if y % p == 0:
                continue
            if use_filter and (x + y) % p == 0:
                pruned += 1
                continue
            s = xp + pth[y]
            while pth[z] < s:
                z += 1
            if pth[z] == s and z % p:
                solutions.append((x, y, z))
    return SearchReport(
        p=p,
        bound=bound,
        candidates_examined=candidates,
        pruned_by_filter=pruned,
        solutions=tuple(solutions),
    )


def per_x_pruned(p, bound, x_range=None):
    """The pairs the Case I filter prunes, x by x: for each x of the chunk
    prime to p, the y in x..bound with y = -x (mod p)."""
    lo, hi = x_range if x_range is not None else (1, bound)
    pruned = 0
    for x in range(max(lo, 1), min(hi, bound) + 1):
        first = x + (-2 * x) % p  # least y >= x with y = -x (mod p)
        if x % p and first <= bound:
            pruned += (bound - first) // p + 1
    return pruned


def power_keyed_sieves(p, bound, qs):
    """[(q, {a: mask})] for each q in qs, a prime = 1 (mod p): a runs over
    the p-th-power residues mod q, 0 included, and bit y of mask, y in
    0..bound, is set when a + y^p mod q is again one."""
    out = []
    for q in qs:
        powers = [pow(y, p, q) for y in range(q)]
        residues = set(powers)
        masks = {a: sum(1 << y for y in range(bound + 1) if (a + powers[y % q]) % q in residues) for a in residues}
        out.append((q, masks))
    return out


def walked_tops(start, hi, x0, pth, bound):
    """top(x) for x in start..hi (x0 <= start), the largest y <= bound with
    (y+1)^p - y^p <= x^p, by a pointer walked from start - 1 for the chunk.
    x0 and pth are those of `fermat._powers(p, bound)`."""
    tops, top = [], start - 1
    for x in range(start, hi + 1):
        xp = pth[x - x0]
        while top < bound and pth[top + 2 - x0] - pth[top + 1 - x0] <= xp:
            top += 1
        tops.append(top)
    return tops


def power_lookup_sieve(p, bound, use_filter, start, hi, x0, pth, coprime, sieves):
    """The Case I sieve of `fermat._sieve`, each x looking its masks up in
    sieves (`power_keyed_sieves`) by pow(x, p, q), cutting y at its
    `walked_tops`, and formatting and scanning its mask whether or not any
    bit is left.  x0, pth and coprime are those of `fermat._table(p, bound)`."""
    for x, top in zip(range(start, hi + 1), walked_tops(start, hi, x0, pth, bound)):
        if x % p == 0:
            continue
        mask = coprime & (coprime >> x % p) if use_filter else coprime
        for q, masks in sieves:
            mask &= masks[pow(x, p, q)]
        bits = format((mask & (1 << top + 1) - (1 << x)) >> x, "b")[::-1]  # bits[i]: y = x + i
        ys, i = [], bits.find("1")
        while i >= 0:
            ys.append(x + i)
            i = bits.find("1", i + 1)
        if ys:
            yield x, ys


# -- scalar text by type ----------------------------------------------------------


def format_scalar(c):
    """The text of an exact scalar, coordinate by coordinate: `3`, `-3`, or
    `p/q` in lowest terms, by type."""
    c = _scalar(c)
    if isinstance(c, int):
        return str(c)
    return f"{c.numerator}/{c.denominator}"


# -- Bernoulli numbers by the defining recurrence, irregular pairs by numerators ---


def recurrence_bernoulli(m: int, _table=[Fraction(1)]) -> Fraction:
    """Exact B_m (B_1 = -1/2), via the recurrence

        B_m = -1/(m+1) * sum_{j=0}^{m-1} C(m+1, j) B_j

    with an append-only memo table; not safe for concurrent first calls."""
    if m < 0:
        raise ValueError("index must be >= 0")
    for i in range(len(_table), m + 1):
        acc = Fraction(0)
        for j, bj in enumerate(_table):
            if bj:
                acc += math.comb(i + 1, j) * bj
        _table.append(-acc / (i + 1))
    return _table[m]


def fraction_irregular_pairs(p: int, B) -> list[tuple[int, int]]:
    """Irregular pairs of the prime p >= 5 by reading the numerator of each
    B(k) = B_k, one Fraction per even index k = 2..p-3."""
    return [(p, k) for k in range(2, p - 2, 2) if B(k).numerator % p == 0]


def rand_elt(rng, n, lo=-9, hi=9, max_den=1):
    """Random element with coordinates in [lo, hi] (over max_den > 1,
    random denominators up to max_den)."""
    d = totient(n)
    if max_den > 1:
        return CycElt(n, [Fraction(rng.randint(lo, hi), rng.randint(1, max_den)) for _ in range(d)])
    return CycElt(n, [rng.randint(lo, hi) for _ in range(d)])
