import math
import random
import sys
import threading
import tracemalloc
from fractions import Fraction
from functools import reduce

import pytest

from cyclo import ring
from cyclo.errors import ConductorMismatchError, InternalInvariantError, NotIntegralError
from cyclo.ntheory import totient
from cyclo.polys import MAX_CONDUCTOR, Poly, check_conductor, cyclotomic_poly, resultant
from cyclo.ring import (
    CycElt,
    decompose_unit,
    factor_sum_pth_powers,
    is_root_of_unity,
    zeta_pow,
)
from oracles import (
    conjugate_product_norm,
    euclid_inverse,
    mult_matrix_trace,
    rand_elt,
    sequential_cofactor_inverse,
)

RING_CONDUCTORS = (3, 4, 5, 7, 8, 9, 12)


def cyclotomic_unit(p, k):
    """(1 - zeta^k) / (1 - zeta) = 1 + zeta + ... + zeta^(k-1)."""
    z = CycElt.zeta(p)
    return (1 - z**k) * (1 - z).inverse()


# -- canonical reduction ------------------------------------------------------


def test_reduce_examples():
    assert CycElt(5, [0, 0, 0, 0, 1]).coeffs == (-1, -1, -1, -1)
    assert CycElt(5, [0, 0, 0, 0, 0, 1]) == CycElt.one(5)
    assert CycElt(4, [0, 0, 1]).coeffs == (-1, 0)


def test_reduce_length_is_phi_n():
    for n in RING_CONDUCTORS:
        assert len(CycElt.zeta(n).coeffs) == totient(n)


def test_reduce_idempotent():
    rng = random.Random(3)
    for n in RING_CONDUCTORS:
        for _ in range(20):
            a = rand_elt(rng, n, max_den=3)
            assert CycElt(n, a.coeffs) == a


@pytest.mark.parametrize("n", range(1, 65))
def test_reduce_matches_poly_remainder(n):
    """Construction is the remainder of the raw polynomial modulo Phi_n,
    for raw coordinate lists shorter than, as long as and longer than n."""
    rng = random.Random(n)
    phi = cyclotomic_poly(n)
    d = phi.degree
    for length in (0, 1, d, n, 2 * d - 1, 3 * n):
        for make in (lambda: rng.randint(-9, 9), lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 5))):
            raw = [make() for _ in range(length)]
            rem = (Poly(raw) % phi).coeffs
            assert CycElt(n, raw).coeffs == rem + (0,) * (d - len(rem))


def test_reduce_memory_is_linear_in_n():
    """A large conductor costs buffers of size n, not an (n - phi(n)) x phi(n) table."""
    cyclotomic_poly.cache_clear()
    tracemalloc.start()
    try:
        a = CycElt(9699, [1, 1])
        assert (a * a).coeffs[:4] == (1, 2, 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000


def test_equality_is_coefficient_comparison():
    a = CycElt(5, [1, 2, 0, 0])
    b = CycElt(5, [Fraction(2, 2), Fraction(4, 2)])
    assert a == b and hash(a) == hash(b)
    assert a != CycElt(5, [1, 2, 1, 0])


def test_rejects_bad_conductor_and_floats():
    with pytest.raises(ValueError):
        CycElt(0, [1])
    with pytest.raises(TypeError):
        CycElt(5, [0.5])
    with pytest.raises(ValueError):
        CycElt(5.0, [1])


@pytest.mark.parametrize("n", [0, -3, 100003, 10**30, 2**1100], ids=["0", "-3", "100003", "10**30", "2**1100"])
def test_conductor_checked_before_allocation(n):
    for build in (lambda: CycElt(n, [1, 1]), lambda: zeta_pow(n, -1), lambda: cyclotomic_poly(n)):
        with pytest.raises(ValueError, match="conductor must be an integer in 1..100000"):
            build()


def test_conductor_cap_bounds():
    assert check_conductor(1) == 1 and check_conductor(MAX_CONDUCTOR) == MAX_CONDUCTOR
    for bad in (0, MAX_CONDUCTOR + 1, 5.0, "5"):
        with pytest.raises(ValueError):
            check_conductor(bad)


# -- ring operations -----------------------------------------------------------


def test_mul_examples():
    z3 = CycElt.zeta(3)
    assert z3 * z3**2 == CycElt.one(3)
    z4 = CycElt.zeta(4)
    assert ((1 + z4) ** 2).coeffs == (0, 2)
    z5 = CycElt.zeta(5)
    assert (1 + z5) * CycElt.one(5) == 1 + z5


def test_conductor_mismatch():
    with pytest.raises(ConductorMismatchError, match="conductor mismatch"):
        CycElt.zeta(5) * CycElt.zeta(7)
    with pytest.raises(ConductorMismatchError):
        CycElt.zeta(5) + CycElt.zeta(7)


def test_ring_axioms_on_randoms():
    rng = random.Random(17)
    for n in RING_CONDUCTORS:
        for _ in range(100):
            a, b, c = (rand_elt(rng, n) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c


def test_zeta_pow_examples():
    assert zeta_pow(5, 0) == CycElt.one(5)
    assert zeta_pow(5, 7) == zeta_pow(5, 2)
    assert zeta_pow(5, 4).coeffs == (-1, -1, -1, -1)
    assert zeta_pow(5, -1) == zeta_pow(5, 4)


def test_pow_negative_exponent_goes_through_inverse():
    z = CycElt.zeta(7)
    a = 1 + z
    assert a**-2 == (a.inverse()) ** 2
    assert a**-1 * a == CycElt.one(7)
    with pytest.raises(ZeroDivisionError):
        CycElt.zero(7) ** -1


# -- Galois action --------------------------------------------------------------


def test_galois_examples():
    z = CycElt.zeta(5)
    a = 1 + z
    assert a.galois(1) == a
    assert z.galois(2) == z**2
    assert (1 + z).galois(4).coeffs == (0, -1, -1, -1)


def test_galois_rejects_noncoprime():
    with pytest.raises(ValueError):
        CycElt.zeta(6).galois(3)


def test_galois_composition_and_identity():
    rng = random.Random(23)
    for n in RING_CONDUCTORS:
        units = [k for k in range(1, n + 1) if math.gcd(k, n) == 1]
        for _ in range(20):
            a = rand_elt(rng, n, max_den=2)
            j, k = rng.choice(units), rng.choice(units)
            assert a.galois(k).galois(j) == a.galois((j * k) % n)
            assert a.galois(1) == a


def test_conj_examples():
    z = CycElt.zeta(5)
    assert z.conj() == z**4
    assert CycElt(7, Fraction(3, 2)).conj() == CycElt(7, Fraction(3, 2))
    assert (z + z**4).conj() == z + z**4
    assert (1 + z).conj() == 1 + z**4


def test_conj_is_involution():
    rng = random.Random(29)
    for n in RING_CONDUCTORS:
        for _ in range(20):
            a = rand_elt(rng, n)
            assert a.conj().conj() == a


# -- norm and trace --------------------------------------------------------------


def test_norm_examples():
    z = CycElt.zeta(5)
    assert CycElt(5, 3).norm() == 3**4
    assert CycElt(5, Fraction(-3, 2)).norm() == Fraction(81, 16)
    assert (1 - z).norm() == 5  # Phi_5(1)
    assert (1 + z).norm() == 1  # Phi_5(-1)
    assert CycElt.zero(5).norm() == 0


def test_trace_examples():
    z = CycElt.zeta(5)
    assert CycElt.one(5).trace() == 4
    assert z.trace() == -1  # sum of primitive 5th roots = moebius(5)
    assert CycElt(5, Fraction(2, 3)).trace() == Fraction(8, 3)
    assert CycElt(6, [Fraction(1, 2), Fraction(1, 2)]).trace() == Fraction(3, 2)
    # p/q coordinates with an integral trace still give an int
    for a in (CycElt(5, Fraction(1, 4)), CycElt(4, [0, Fraction(1, 3)]), CycElt(1, Fraction(6, 2))):
        assert type(a.trace()) is int


def test_norm_multiplicative_trace_additive():
    rng = random.Random(31)
    for n in (3, 5, 8, 12, 15, 30):
        for _ in range(20):
            a, b = rand_elt(rng, n, max_den=2), rand_elt(rng, n)
            assert (a * b).norm() == a.norm() * b.norm()
            assert (a + b).trace() == a.trace() + b.trace()


def test_norm_trace_match_oracles():
    rng = random.Random(37)
    for n in (1, 2, 3, 4, 5, 7, 9, 12, 16, 21):
        for _ in range(10):
            a = rand_elt(rng, n, max_den=2)
            assert a.norm() == conjugate_product_norm(a)
            assert a.trace() == mult_matrix_trace(a)


@pytest.mark.parametrize("n", (1, 2, 6, 10, 14, 18, 30))
def test_trace_edge_cases_match_oracle(n):
    # n = 1, 2 and n = 2 mod 4, where Phi_n(X) = Phi_(n/2)(-X)
    rng = random.Random(53 + n)
    zero = CycElt.zero(n)
    assert zero.trace() == 0 and type(zero.trace()) is int
    for max_den in (1, 4):
        for _ in range(10):
            a = rand_elt(rng, n, max_den=max_den)
            t = a.trace()
            assert t == mult_matrix_trace(a)
            assert type(t) is (int if Fraction(t).denominator == 1 else Fraction)


def test_norm_trace_galois_invariant():
    rng = random.Random(41)
    for n in RING_CONDUCTORS:
        units = [k for k in range(1, n + 1) if math.gcd(k, n) == 1]
        for _ in range(10):
            a = rand_elt(rng, n)
            k = rng.choice(units)
            assert a.galois(k).norm() == a.norm()
            assert a.galois(k).trace() == a.trace()


# -- inversion and units ----------------------------------------------------------


def test_inverse_examples():
    z = CycElt.zeta(5)
    assert z.inverse() == z**4
    assert CycElt(5, 2).inverse() == CycElt(5, Fraction(1, 2))
    assert (1 + z) * (1 + z).inverse() == CycElt.one(5)


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError, match="division by zero"):
        CycElt.zero(5).inverse()


def test_inverse_on_randoms():
    rng = random.Random(43)
    for n in RING_CONDUCTORS:
        count = 0
        while count < 100:
            a = rand_elt(rng, n, max_den=2)
            if not a:
                continue
            count += 1
            assert a * a.inverse() == CycElt.one(n)


@pytest.mark.parametrize("n", (1, 2, 3, 4, 6, 8, 9, 12, 15, 16, 20, 21, 25, 27))
def test_inverse_matches_euclid_oracle(n):
    # n = 2 mod 4 and prime powers included; phi(n) <= 20 keeps the oracle cheap
    rng = random.Random(47 + n)
    elts = [CycElt(n, Fraction(-7, 3)), CycElt.zeta(n) + 1]
    elts += [rand_elt(rng, n, max_den=max_den) for max_den in (1, 1, 5, 5)]
    for a in filter(None, elts):
        inv = euclid_inverse(a)
        assert a.inverse() == inv and repr(a.inverse()) == repr(inv)
        assert repr(3 / a) == repr(inv * 3)
        assert repr(a**-2) == repr(inv * inv)


@pytest.mark.parametrize("n", [*range(1, 121), 168, 210])
def test_inverse_matches_sequential_cofactor_oracle(n):
    # cyclic unit groups (prime powers, twice a prime power) and groups of
    # two and three orbit steps; euclid_inverse only where it is cheap
    rng = random.Random(71 + n)
    elts = [rand_elt(rng, n), rand_elt(rng, n, max_den=5)]
    if totient(n) <= 48:
        elts += [CycElt(n, Fraction(5, -3)), CycElt.zeta(n) + 2]
    for a in filter(None, elts):
        inv = sequential_cofactor_inverse(a)
        assert a.inverse() == inv and repr(a.inverse()) == repr(inv)
        assert repr(3 / a) == repr(inv * 3)
        assert repr(a**-2) == repr(inv * inv)
        if totient(n) <= 16:
            assert repr(inv) == repr(euclid_inverse(a))


def test_orbit_steps_examples():
    assert ring._orbit_steps(1) == ring._orbit_steps(2) == ()
    assert ring._orbit_steps(7) == ((2, 3), (3, 2))
    assert ring._orbit_steps(11) == ((2, 10),)
    assert ring._orbit_steps(8) == ((3, 2), (5, 2))
    assert ring._orbit_steps(84) == ((5, 6), (11, 2), (13, 2))


def test_orbit_steps_cover_the_group():
    for n in range(1, 501):
        steps = ring._orbit_steps(n)
        cosets = [1 % n]
        for g, o in steps:
            assert g == min(k for k in range(n) if math.gcd(k, n) == 1 and k not in cosets)
            assert pow(g, o, n) in cosets and all(pow(g, j, n) not in cosets for j in range(1, o))
            cosets = [h * pow(g, j, n) % n for j in range(o) for h in cosets]
        assert sorted(cosets) == [k for k in range(n) if math.gcd(k, n) == 1]
        assert math.prod(o for _, o in steps) == totient(n)


def test_mul_vecs_matches_fraction_schoolbook():
    rng = random.Random(73)
    for n in (1, 3, 5, 8, 12, 15, 21):
        phi = cyclotomic_poly(n)
        sparse = [CycElt(n, 3), zeta_pow(n, n - 1), CycElt(n, Fraction(2, 3)) + zeta_pow(n, n // 2) * 5]
        for k in range(20):
            a, b = (rand_elt(rng, n, max_den=rng.choice((1, 4))).coeffs for _ in range(2))
            if k < 2 * len(sparse):  # a sparse factor on either side
                a, b = (a, sparse[k // 2].coeffs)[:: 1 - 2 * (k % 2)]
            prod = [Fraction(0)] * (2 * len(a) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    prod[i + j] += Fraction(x) * Fraction(y)
            rem = (Poly(prod) % phi).coeffs
            want = rem + (0,) * (phi.degree - len(rem))
            got = ring._mul_vecs(n, a, b)
            assert got == want
            assert [type(c) for c in got] == [type(c) for c in want]
    # integral products of p/q inputs come back as int
    prod = ring._mul_vecs(3, (Fraction(1, 2), Fraction(3, 4)), (4, 0))
    assert prod == (2, 3) and all(type(c) is int for c in prod)


def test_inverse_refuses_large_work_before_any_product(monkeypatch):
    def no_products(*args):
        raise AssertionError("a ring product ran before the size check")

    monkeypatch.setattr(ring, "_mul_vecs", no_products)
    for lit in ("1423:[1,2]", "6006:[1,2]", "99991:[1,1]", "131:[" + ",".join([str(10**400)] * 2) + "]"):
        a = CycElt.parse(lit)
        for attempt in (a.inverse, lambda: 1 / a, lambda: a**-1):
            with pytest.raises(ValueError, match="inverse work estimate exceeds"):
                attempt()


def test_inverse_work_estimate_at_the_cap():
    # [1,2] at p: d = p - 1, bits(|A|_1) = bits(3) = 2, Phi_p has w = p terms, n - d = 1
    assert ring._inverse_work(1409, [1, 2] + [0] * 1406) == 2 * (1408**2 + 1409) <= ring.MAX_INVERSE_WORK
    assert ring._inverse_work(1423, [1, 2] + [0] * 1420) > ring.MAX_INVERSE_WORK


def test_is_unit_examples():
    z = CycElt.zeta(5)
    assert CycElt.one(5).is_unit()
    assert (1 + z).is_unit()
    assert not (1 - z).is_unit()
    with pytest.raises(NotIntegralError, match="not an algebraic integer"):
        CycElt(5, Fraction(1, 2)).is_unit()


def test_unit_inverse_is_integral():
    z = CycElt.zeta(7)
    for u in (1 + z, cyclotomic_unit(7, 3), -z**2):
        assert u.is_unit()
        assert u.inverse().is_integral()


def test_is_root_of_unity_examples():
    z = CycElt.zeta(5)
    assert is_root_of_unity(z**3) == (True, 5)
    assert is_root_of_unity(CycElt(5, -1)) == (True, 2)
    assert is_root_of_unity(CycElt.one(5)) == (True, 1)
    assert is_root_of_unity(1 + z) == (False, None)


def _full_degree_norm(a):
    """N(a) as Res(Phi_n, A) / m^phi(n), with a = A/m: the route that
    `norm` takes above MAX_REAL_NORM_PHI, called here through `resultant`."""
    if not a:
        return 0
    m = math.lcm(*(Fraction(c).denominator for c in a.coeffs))
    r = resultant(cyclotomic_poly(a.n), Poly([c * m for c in a.coeffs]))
    q = Fraction(r, m ** len(a.coeffs))
    return int(q) if q.denominator == 1 else q


def _norm_test_elements(rng, n, width, max_shift):
    """Integer, p/q, sparse and zeta^j-shifted sparse elements: the first
    three have their nonzero coordinates in the first `width` places, and
    the last is the sparse one times zeta^j, 0 <= j < max_shift."""
    d = totient(n)
    w = min(width, d)
    sparse = [rng.choice((0, 0, 0, rng.randint(-5, 5))) for _ in range(w)]
    return [
        CycElt(n, [rng.randint(-9, 9) for _ in range(w)]),
        CycElt(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(w)]),
        CycElt(n, sparse),
        CycElt(n, sparse) * zeta_pow(n, rng.randrange(max_shift)),
    ]


@pytest.mark.parametrize("n", range(1, 151))
def test_norm_matches_full_degree_resultant(n):
    rng = random.Random(83 + n)
    for a in _norm_test_elements(rng, n, totient(n), n):
        got = a.norm()
        want = _full_degree_norm(a)
        assert got == want and type(got) is type(want)
        if totient(n) <= 24:
            assert got == conjugate_product_norm(a)


# conductors whose phi(n) straddles the bound, a prime and a composite on each
# side: 997 (phi 996), 1111 (1000), 1009 (1008), 1073 (1008)
NEAR_REAL_NORM_BOUND = (997, 1111, 1009, 1073)


@pytest.mark.parametrize("n", NEAR_REAL_NORM_BOUND)
def test_norm_near_the_real_subfield_bound(n, monkeypatch):
    assert {totient(k) <= ring.MAX_REAL_NORM_PHI for k in NEAR_REAL_NORM_BOUND} == {True, False}
    degrees = []

    def recording_resultant(f, g):
        degrees.append(f.degree)
        return resultant(f, g)

    rng = random.Random(89 + n)
    elts = _norm_test_elements(rng, n, 12, 40) + [CycElt(n, [1, 2]), CycElt(n, [3, 0, -1]) * zeta_pow(n, n // 2)]
    wants = [_full_degree_norm(a) for a in elts]
    monkeypatch.setattr(ring, "resultant", recording_resultant)
    for a, want in zip(elts, wants):
        got = a.norm()
        assert got == want and type(got) is type(want)
    d = totient(n)
    assert degrees == [d // 2 if d <= ring.MAX_REAL_NORM_PHI else d] * len(elts)


@pytest.mark.parametrize("n", [*range(3, 80), 210, 997, 1111])
def test_real_cyclotomic_lifts_to_cyclotomic(n):
    # X^(phi/2) * Psi_n(X + 1/X) = sum psi_k * (X^2 + 1)^k * X^(phi/2 - k) = Phi_n
    psi = ring._real_cyclotomic(n)
    half = totient(n) // 2
    assert psi.degree == half and psi.is_monic()
    lifted, power = Poly(), Poly([1])
    for k, c in enumerate(psi.coeffs):
        lifted = lifted + Poly.monomial(half - k, c) * power
        power = power * Poly([1, 0, 1])
    assert lifted == cyclotomic_poly(n)


def test_theta_form_examples():
    # V_1 = theta, V_2 = theta^2 - 2, V_3 = theta^3 - 3 theta
    assert ring._theta_form([5]) == [5]
    assert ring._theta_form([0, 1]) == [0, 1]
    assert ring._theta_form([0, 0, 1]) == [-2, 0, 1]
    assert ring._theta_form([1, 2, 3, 4]) == [1 - 6, 2 - 12, 3, 4]
    assert ring._real_cyclotomic(5) == Poly([-1, 1, 1])  # theta^2 + theta - 1
    assert ring._real_cyclotomic(8) == Poly([-2, 0, 1])  # (zeta_8 + zeta_8^-1)^2 = 2


def test_is_real_examples():
    z = CycElt.zeta(5)
    assert CycElt(5, Fraction(7, 3)).is_real()
    assert (z + z**4).is_real()
    assert not (1 + z).is_real()


def test_caches_are_thread_safe():
    rng = random.Random(61)
    elts = [rand_elt(rng, n, max_den=3) for n in (7, 9, 12, 15, 16, 20, 21)]
    serial = [(a.inverse(), a.trace(), a.norm()) for a in elts]
    for cache in (ring._ramanujan_sums, ring._orbit_steps, ring._real_cyclotomic, cyclotomic_poly):
        cache.cache_clear()
    results = [None] * 4
    start = threading.Barrier(len(results), timeout=30)

    def work(slot):
        start.wait()
        results[slot] = [(a.inverse(), a.trace(), a.norm()) for a in elts]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(results))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [serial] * len(results)


# -- unit decomposition -------------------------------------------------------------


def test_decompose_unit_examples():
    z = CycElt.zeta(5)
    d = decompose_unit(z)
    assert (d.x, d.m) == (CycElt.one(5), 1)
    d = decompose_unit(CycElt(5, -1))
    assert (d.x, d.m) == (CycElt(5, -1), 0)
    d = decompose_unit(1 + z)
    assert d.x == z**2 + z**3 and d.m == 3


def test_decompose_unit_postconditions_on_cyclotomic_units():
    for p in (5, 7):
        z = CycElt.zeta(p)
        for k in range(2, p):
            u = cyclotomic_unit(p, k)
            d = decompose_unit(u)
            assert 0 <= d.m < p
            assert d.x.is_real() and d.x.is_unit()
            assert d.x * z**d.m == u


def test_decompose_unit_m_is_unique():
    for p in (5, 7):
        z = CycElt.zeta(p)
        for k in range(2, p):
            u = cyclotomic_unit(p, k)
            real_ms = [m for m in range(p) if (u * zeta_pow(p, -m)).is_real()]
            assert real_ms == [decompose_unit(u).m]


@pytest.mark.parametrize("p", [3, 5, 101, 4001])
def test_norm_of_one_plus_two_zeta_closed_form(p):
    # prod over k of (1 + 2 zeta^k) = (-2)^(p-1) Phi_p(-1/2) = (2^p + 1) / 3;
    # 4001 took about 1 s when each pseudo-remainder step rescaled the whole row
    assert CycElt(p, [1, 2]).norm() == (2**p + 1) // 3


def test_decompose_unit_rejects_non_units():
    z = CycElt.zeta(5)
    with pytest.raises(ValueError, match="not a unit"):
        decompose_unit(1 - z)
    with pytest.raises(ValueError, match="odd prime"):
        decompose_unit(CycElt.one(4))
    with pytest.raises(NotIntegralError):
        decompose_unit(CycElt(5, Fraction(1, 2)))


def test_decompose_unit_calls_no_inverse(monkeypatch):
    def no_inverse(self):
        raise AssertionError("decompose_unit called inverse")

    z = CycElt.zeta(7)
    u = -(z**3) * cyclotomic_unit(7, 3)
    monkeypatch.setattr(CycElt, "inverse", no_inverse)
    d = decompose_unit(u)
    assert d.x * z**d.m == u and d.x.is_real()


@pytest.mark.parametrize("p", [3, 5, 11, 13, 31, 101])
def test_decompose_unit_matches_brute_force(p):
    rng = random.Random(79 + p)
    z = CycElt.zeta(p)
    for _ in range(6):
        u = CycElt.one(p)
        for _ in range(rng.randint(0, 2)):
            u = u * cyclotomic_unit(p, rng.randint(2, p - 1))
        u = rng.choice((1, -1)) * z ** rng.randrange(p) * u
        d = decompose_unit(u)
        assert [m for m in range(p) if (u * zeta_pow(p, -m)).is_real()] == [d.m]
        assert d.x * z**d.m == u


def test_decompose_unit_error_branches(monkeypatch):
    # only a non-unit can reach them, so the unit test is bypassed
    monkeypatch.setattr(CycElt, "is_unit", lambda self: True)
    z = CycElt.zeta(5)
    with pytest.raises(InternalInvariantError, match="decomposition impossible"):
        decompose_unit(z**2 * (z - z**4))  # equal to -zeta^4 times its conjugate
    with pytest.raises(InternalInvariantError, match="not a root of unity"):
        decompose_unit(2 + z)


# -- the factorization identity -------------------------------------------------------


@pytest.mark.parametrize("x,y,p,expected", [(1, 0, 5, 1), (1, 1, 3, 2), (2, 1, 5, 33)])
def test_factor_examples(x, y, p, expected):
    factors = factor_sum_pth_powers(x, y, p)
    assert len(factors) == p
    prod = reduce(lambda u, v: u * v, factors)
    assert prod.as_scalar() == expected == x**p + y**p


def test_factor_identity_exhaustive():
    for p in (3, 5, 7, 11, 13):
        for x in range(-20, 21):
            for y in range(-20, 21):
                prod = reduce(lambda u, v: u * v, factor_sum_pth_powers(x, y, p))
                assert prod.as_scalar() == x**p + y**p


def test_factor_rejects_even_or_composite():
    with pytest.raises(ValueError):
        factor_sum_pth_powers(1, 1, 2)
    with pytest.raises(ValueError):
        factor_sum_pth_powers(1, 1, 9)


def test_factor_checks_conductor_before_primality():
    # 2^61 - 1 is prime; trial division to its square root took over 30 s
    with pytest.raises(ValueError, match="conductor must be an integer"):
        factor_sum_pth_powers(1, 1, 2**61 - 1)


# -- literals ----------------------------------------------------------------------


def test_literal_roundtrip():
    texts = ["5:[1,1,0,0]", "5:[1/2,-3,0,7/4]", "1:[4]", "12:[0,1,0,0]"]
    for text in texts:
        e = CycElt.parse(text)
        assert CycElt.parse(str(e)) == e
        assert str(CycElt.parse(str(e))) == str(e)


def test_literal_canonicalizes_long_input():
    e = CycElt.parse("5:[0,0,0,0,1]")
    assert str(e) == "5:[-1,-1,-1,-1]"


@pytest.mark.parametrize("bad", ["5:", "5:[1,", "[1,2]", "x:[1]", "5:[1,0.5]", "5:[1/0]"])
def test_literal_rejects_malformed(bad):
    with pytest.raises(ValueError, match="malformed element literal"):
        CycElt.parse(bad)
