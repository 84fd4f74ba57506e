import math
import operator
import random
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import pytest

from cyclo import polys, ring
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
    _orbit_steps,
    cleared,
    conjugate_product_norm,
    divisor_scan_root_of_unity,
    euclid_inverse,
    fold_divide_reduce,
    folded_product,
    mult_matrix_trace,
    orbit_chain_inverse,
    poly_divmod,
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
            rem = poly_divmod(Poly(raw), phi)[1].coeffs
            assert CycElt(n, raw).coeffs == rem + (0,) * (d - len(rem))


@pytest.mark.parametrize("n", [*range(1, 301), 420, 1155, 2310, 4620, 30030])
def test_reduce_matches_fold_and_divide(n):
    """The strided passes give the coordinates, and their int or Fraction
    types, of the old route: fold modulo X^n - 1, then divide by Phi_n.  The
    oracle is slow on long p/q vectors past n = 300 (0.9 s at length 1919 at
    4620), and at 30030 on any long vector (3 s for an int one of length
    2 phi - 1, 98 s for a p/q one), so those lengths are capped there."""
    rng = random.Random(n)
    d = totient(n)
    longest = (2 * d - 1, d + 37) if n == 30030 else (2 * n + 5, 2 * n + 5 if n <= 300 else 2 * d)
    lengths = {0, 1, d - 1, d, d + 1, d + 37, n - 1, n, n + 1, 2 * d - 1, 2 * n + 5, rng.randint(0, 2 * n + 5)}
    for length in sorted(lengths):
        for frac in (False, True):
            if length > longest[frac]:
                continue
            raw = [rng.randint(-9, 9) for _ in range(length)]
            if frac:
                raw = [ring._scalar(Fraction(c, rng.randint(1, 5))) for c in raw]
            got, want = CycElt(n, raw).coeffs, fold_divide_reduce(n, raw)
            assert got == want and [type(c) for c in got] == [type(c) for c in want], (n, length, frac)
            if not frac:
                assert ring._reduce(n, raw) == want


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


def test_hash_agrees_with_equality():
    a = CycElt(5, 3)
    assert a == 3 and 3 in {a} and a in {3} and len({a, 3}) == 1
    half = CycElt(5, Fraction(1, 2))
    assert hash(half) == hash(Fraction(1, 2)) and len({half, Fraction(1, 2), Fraction(2, 4)}) == 1
    assert hash(CycElt(7, [0, Fraction(-4, 6)])) == hash(CycElt(7, [0, Fraction(2, -3)]))
    # elements of different conductors are unequal, so a set holds both
    assert CycElt(5, 1) != CycElt(7, 1) and not CycElt(5, 1) == CycElt(7, 1)
    assert len({CycElt(5, 1), CycElt(7, 1)}) == 2
    assert CycElt.zeta(5) != CycElt.zeta(7)


def test_elements_are_immutable_and_refuse_non_scalars():
    z = CycElt.zeta(5)
    with pytest.raises(AttributeError, match="immutable"):
        z.n = 7
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(z, "x")
        with pytest.raises(TypeError):
            op("x", z)
    assert (z == "x") is False
    with pytest.raises(ValueError, match="integer"):
        z**1.5
    with pytest.raises(ValueError, match="not rational"):
        z.as_scalar()
    assert CycElt(5, Fraction(2, 3)).as_scalar() == Fraction(2, 3)


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
    # n = 2 mod 4 and prime powers included; phi(n) <= 20 keeps the oracle cheap.
    # c * zeta^j for every j < n: monomials of the power basis for j < phi(n)
    rng = random.Random(47 + n)
    elts = [CycElt(n, Fraction(-7, 3)), CycElt.zeta(n) + 1]
    elts += [zeta_pow(n, j) * (1, -2, Fraction(5, 3), Fraction(-7, 4))[j % 4] for j in range(n)]
    elts += [rand_elt(rng, n, max_den=max_den) for max_den in (1, 1, 5, 5)]
    for a in filter(None, elts):
        inv = euclid_inverse(a)
        assert a.inverse() == inv and repr(a.inverse()) == repr(inv)
        assert repr(3 / a) == repr(inv * 3)
        assert repr(a**-2) == repr(inv * inv)


def test_monomial_inverse_needs_no_estimate(monkeypatch):
    def no_work(*args):
        raise AssertionError("a monomial's inverse ran an estimate or a resultant")

    for name in ("_norm_work", "_output_work", "_resultant_pair"):
        monkeypatch.setattr(ring, name, no_work)
    cases = [
        (CycElt(30030, Fraction(5, 3)), CycElt(30030, Fraction(3, 5))),
        (CycElt(30030, [0, 0, 0, 2]), zeta_pow(30030, -3) * Fraction(1, 2)),
        (CycElt(99991, [0] * 7 + [Fraction(-1, 4)]), zeta_pow(99991, -7) * -4),
        (CycElt(2, -3), CycElt(2, Fraction(-1, 3))),
    ]
    for a, want in cases:
        assert a.inverse() == want and a * want == 1
    b = CycElt(30030, [1, Fraction(2, 7), -3])
    assert b / Fraction(5, 3) == b * Fraction(3, 5)


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
        assert repr(orbit_chain_inverse(a)) == repr(inv)
        if totient(n) <= 16:
            assert repr(inv) == repr(euclid_inverse(a))


@pytest.mark.parametrize(
    "lit",
    [
        "211:[1,2]",
        "401:[1,2]",
        # phi(2310) = 480: Psi_2310 has degree 240, and B(theta) = A * conj(A),
        # of degree 297 here, is reduced modulo it first
        "2310:[" + ",".join(str({3: 3, 11: -1, 31: 2, 300: 1}.get(i, 0)) for i in range(301)) + "]",
    ],
    ids=["211", "401", "2310-sparse"],
)
def test_inverse_matches_orbit_chain_oracle_past_phi_120(lit):
    a = CycElt.parse(lit)
    inv = orbit_chain_inverse(a)
    assert a.inverse() == inv and repr(a.inverse()) == repr(inv)
    assert repr((a / 3) ** -1) == repr(inv * 3)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 9, 12, 15, 16, 20, 21, 28, 36, 45, 60])
def test_inverse_through_phi_n_matches_oracle(monkeypatch, n):
    # with the real-subfield route switched off every conductor takes
    # Res(Phi_n, A), windows starting past zeta^0 included
    monkeypatch.setattr(ring, "MAX_REAL_NORM_PHI", 0)
    rng = random.Random(83 + n)
    d = totient(n)
    elts = [rand_elt(rng, n), rand_elt(rng, n, max_den=4), CycElt(n, [0] * (d // 2) + [2, 3])]
    elts += [zeta_pow(n, d - 1) * 5, CycElt(n, [0, Fraction(3, 2)])]
    for a in filter(None, elts):
        inv = sequential_cofactor_inverse(a)
        assert a.inverse() == inv and repr(a.inverse()) == repr(inv)
        assert a.norm() == conjugate_product_norm(a)


def test_zeta_form_examples():
    # zeta^D * t(zeta + 1/zeta) for t of degree D
    assert ring._zeta_form([7]) == [7]
    assert ring._zeta_form([0, 1]) == [1, 0, 1]  # zeta * theta = 1 + zeta^2
    assert ring._zeta_form([0, 0, 1]) == [1, 0, 2, 0, 1]  # theta^2 = V_2 + 2
    assert ring._zeta_form([5, -1, 0, 1]) == [1, 0, 2, 5, 2, 0, 1]  # theta^3 - theta + 5
    rng = random.Random(89)
    for n in (7, 11, 13, 16, 24):
        for _ in range(5):
            t = [rng.randint(-9, 9) for _ in range(rng.randint(1, totient(n) // 2))]
            theta = zeta_pow(n, 1) + zeta_pow(n, n - 1)
            want = sum((theta**k * c for k, c in enumerate(t)), CycElt.zero(n)) * zeta_pow(n, len(t) - 1)
            assert CycElt(n, ring._zeta_form(t)) == want


def test_orbit_steps_examples():
    assert _orbit_steps(1) == _orbit_steps(2) == ()
    assert _orbit_steps(7) == ((2, 3), (3, 2))
    assert _orbit_steps(11) == ((2, 10),)
    assert _orbit_steps(8) == ((3, 2), (5, 2))
    assert _orbit_steps(84) == ((5, 6), (11, 2), (13, 2))


def test_orbit_steps_cover_the_group():
    for n in range(1, 501):
        steps = _orbit_steps(n)
        cosets = [1 % n]
        for g, o in steps:
            assert g == min(k for k in range(n) if math.gcd(k, n) == 1 and k not in cosets)
            assert pow(g, o, n) in cosets and all(pow(g, j, n) not in cosets for j in range(1, o))
            cosets = [h * pow(g, j, n) % n for j in range(o) for h in cosets]
        assert sorted(cosets) == [k for k in range(n) if math.gcd(k, n) == 1]
        assert math.prod(o for _, o in steps) == totient(n)


def _schoolbook(n, a, b):
    """The product of two coordinate vectors over Fractions, one coordinate
    at a time, reduced by the fold-and-divide oracle."""
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    terms = [(j, Fraction(y)) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        for j, y in terms if x else ():
            prod[i + j] += x * y
    return fold_divide_reduce(n, prod)


def _assert_stored_as(x, want):
    """x is stored as ints over a denominator >= 1 prime to them, and its
    coeffs are want, in value and in int or Fraction type."""
    assert x._den >= 1 and math.gcd(x._den, *x._nums) == 1
    assert all(type(c) is int for c in (x._den, *x._nums))
    got = x.coeffs
    assert got == tuple(want) and list(map(type, got)) == list(map(type, want))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 9, 12, 15, 20, 30030])
def test_stored_form_matches_fraction_oracles(n):
    """Every operation leaves an element in lowest terms whose coeffs are the
    Fraction result of the oracles, coordinate by coordinate.  At 30030 the
    operands fill the first three places and the galois index is 17, so that
    the oracle reduces few places; conj is checked there through
    conj(a) * zeta^2, which lies in the first three places too, and the
    inverse, which fills all 5760, through a * a^-1 = 1."""
    rng = random.Random(113 + n)
    d = totient(n)
    width = 3 if n == 30030 else d

    def frac():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    one = (1,) + (0,) * (d - 1)
    for _ in range(3 if n == 30030 else 8):
        raw_a = [frac() for _ in range(width)]
        raw_b = [frac() for _ in range(width)]
        x, y = frac(), frac() or Fraction(1, 3)
        a, b = CycElt(n, raw_a), CycElt(n, raw_b)
        _assert_stored_as(a, fold_divide_reduce(n, raw_a))
        _assert_stored_as(b, fold_divide_reduce(n, raw_b))
        ca, cb = a.coeffs, b.coeffs
        _assert_stored_as(CycElt(n, [c * 6 for c in raw_a]), fold_divide_reduce(n, [c * 6 for c in raw_a]))
        _assert_stored_as(a + b, [polys._scalar(u + v) for u, v in zip(map(Fraction, ca), cb)])
        _assert_stored_as(a - b, [polys._scalar(u - v) for u, v in zip(map(Fraction, ca), cb)])
        _assert_stored_as(a - a, (0,) * d)
        _assert_stored_as(x + a, fold_divide_reduce(n, [ca[0] + x, *ca[1:]]))
        _assert_stored_as(y - a, fold_divide_reduce(n, [y - ca[0], *(-c for c in ca[1:])]))
        _assert_stored_as(-a, [-c for c in ca])
        _assert_stored_as(a * b, _schoolbook(n, ca, cb))
        _assert_stored_as(a * y, _schoolbook(n, ca, [y]))
        _assert_stored_as(a**3, _schoolbook(n, _schoolbook(n, ca, ca), ca))
        k = 17 if n == 30030 else rng.choice([k for k in range(1, n + 1) if math.gcd(k, n) == 1])
        raw = [0] * n
        for i, c in enumerate(ca[:width]):
            raw[i * k % n] += c
        _assert_stored_as(a.galois(k), fold_divide_reduce(n, raw))
        _assert_stored_as(a / y, _schoolbook(n, ca, [1 / y]))
        if n == 30030:
            bar = a.conj()
            _assert_stored_as(bar * zeta_pow(n, 2), fold_divide_reduce(n, ca[2::-1]))
            _assert_stored_as(bar, bar.coeffs)
            continue
        _assert_stored_as(a.conj(), fold_divide_reduce(n, [ca[-i % n] if -i % n < d else 0 for i in range(n)]))
        if a:
            inv = euclid_inverse(a).coeffs
            _assert_stored_as(a.inverse(), inv)
            assert _schoolbook(n, ca, inv) == one
            _assert_stored_as(b / a, _schoolbook(n, cb, inv))
            _assert_stored_as(a**-2, _schoolbook(n, inv, inv))
    if n == 30030:
        a = CycElt(n, [Fraction(1, 2), 1])
        inv = a.inverse()
        _assert_stored_as(inv, inv.coeffs)
        assert _schoolbook(n, a.coeffs, inv.coeffs) == one
    if n in (3, 7):
        for x, y in [(Fraction(1, 2), Fraction(-3, 4)), (Fraction(4, 6), 2), (Fraction(1, 2), Fraction(1, 2))]:
            for i, fac in enumerate(factor_sum_pth_powers(x, y, n)):
                raw = [x] + [0] * (n - 1)
                raw[i] += y
                _assert_stored_as(fac, fold_divide_reduce(n, raw))


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
            rem = poly_divmod(Poly(prod), phi)[1].coeffs
            want = rem + (0,) * (phi.degree - len(rem))
            got = (CycElt(n, a) * CycElt(n, b)).coeffs
            assert got == want
            assert [type(c) for c in got] == [type(c) for c in want]
            if all(type(c) is int for c in a + b):
                assert ring._mul_vecs(n, a, b) == want
    # integral products of p/q inputs come back as int
    prod = (CycElt(3, (Fraction(1, 2), Fraction(3, 4))) * CycElt(3, (4, 0))).coeffs
    assert prod == (2, 3) and all(type(c) is int for c in prod)


def _inverse_work_of(a):
    """The estimate `inverse` checks against ring.MAX_INVERSE_WORK."""
    _, ints = cleared(a)
    support = [i for i, c in enumerate(ints) if c]
    d, window = len(ints), ints[support[0] : support[-1] + 1]
    squares, lag1 = (sum(u * v for u, v in zip(window, window[k:])) for k in (0, 1))
    real = a.n > 2 and d <= ring.MAX_REAL_NORM_PHI
    return ring._norm_work(a.n, d, window, real, squares, lag1) + ring._output_work(
        a.n, d, support[0], real, squares, lag1
    )


def test_inverse_refuses_large_work_before_any_product(monkeypatch):
    def no_work(*args):
        raise AssertionError("a ring product or resultant ran before the size check")

    rng = random.Random(107)
    big = [
        CycElt(99991, [1, 1]),
        CycElt(99991, [1, 2]),
        CycElt(131, [10**400] * 2),
        CycElt(30030, [0, 1, 2]),  # 4e8; 1.7 s with the limit lifted (94 s by fold-and-divide)
        CycElt(997, [1, 10**30]),  # 1e5-bit coordinates; the gcds alone took 5.6 s
        CycElt(101, [rng.randint(-(2**385), 2**385) for _ in range(100)]),  # one took 10.5 s
        CycElt(1381, [rng.randint(-9, 9) for _ in range(172)]),  # a block of d/8; one took 16.8 s
    ]
    monkeypatch.setattr(ring, "_mul_vecs", no_work)
    monkeypatch.setattr(polys, "_remainder_sequence", no_work)
    monkeypatch.setattr(polys, "_prem", no_work)
    for a in big:
        assert _inverse_work_of(a) > ring.MAX_INVERSE_WORK
        for attempt in (a.inverse, lambda: 1 / a, lambda: a**-1):
            with pytest.raises(ValueError, match=f"inverse work estimate exceeds {ring.MAX_INVERSE_WORK}"):
                attempt()


def test_inverse_work_estimate_at_the_cap():
    # [1,2] at 1409 on the Phi_n route: words = 1 + 1408 * bits(5) // 128 = 34;
    # a window starting at 3 adds the reduction of t / zeta^3: n places, by
    # the 2 factors of Phi_1409 = (1 - X^1409) / (1 - X)
    assert ring._output_work(1409, 1408, 0, False, 5, 2) == 34 * 1408 * 34
    assert ring._output_work(1409, 1408, 3, False, 5, 2) == 34 * (1408 * 34 + 2 * 1409)
    # over the real subfield: a product of d^2 and the reduction of min(n, 2d) = 7 places by 2 factors
    assert ring._output_work(7, 6, 0, True, 5, 2) == 1 * (6 * 1 + 36 + 2 * 7)
    # 30030 has 64 factors; its reduction of t / zeta^start costs 64 * n per word
    assert ring._output_work(30030, 5760, 1, False, 1, 0) == 46 * (5760 * 46 + 64 * 30030)
    for lit in ("1409:[1,2]", "1423:[1,2]", "6006:[1,2]"):
        assert _inverse_work_of(CycElt.parse(lit)) * 50 < ring.MAX_INVERSE_WORK
    assert _inverse_work_of(CycElt(30030, [1, 2])) <= ring.MAX_INVERSE_WORK
    assert _inverse_work_of(CycElt(16007, [1, 2])) > ring.MAX_INVERSE_WORK
    # the benchmark's inverse workload: phi <= 48, coordinates up to 9 in size
    rng = random.Random(109)
    for n in (21, 44, 84):
        a = CycElt(n, [rng.choice((-9, 9)) for _ in range(totient(n))])
        assert _inverse_work_of(a) * 1000 < ring.MAX_INVERSE_WORK


def _norm_work_of(a):
    """`ring._norm_work` of an element, windowed the way `norm` windows it."""
    _, ints = cleared(a)
    support = [i for i, c in enumerate(ints) if c]
    d, window = len(ints), ints[support[0] : support[-1] + 1]
    squares, lag1 = (sum(u * v for u, v in zip(window, window[k:])) for k in (0, 1))
    return ring._norm_work(a.n, d, window, a.n > 2 and d <= ring.MAX_REAL_NORM_PHI, squares, lag1)


def _norm_route_of(a):
    """`ring._norm_route` of an element, windowed the way `norm` windows it:
    (evaluate, work) for the route that `norm` takes."""
    _, ints = cleared(a)
    _, window, squares, lag1 = ring._window(ints)
    return ring._norm_route(a.n, len(ints), window, squares, lag1)


def _binomial_unit(p, j):
    """(1 + zeta_p)^j, a unit of Z[zeta_p] for odd p, from its coordinates."""
    return CycElt(p, [math.comb(j, i) for i in range(j + 1)])


def test_norm_refuses_large_work_before_any_resultant(monkeypatch):
    def no_work(*args):
        raise AssertionError("a resultant or an evaluation ran before the size check")

    rng = random.Random(97)
    big = [
        CycElt(2003, [rng.randint(-9, 9) for _ in range(2002)]),
        CycElt(1381, [rng.randint(-(10**20), 10**20) for _ in range(173)] + [7]),  # a block of d/8
        _binomial_unit(2003, 1000),
        CycElt(40009, [1, 2]),  # its first pseudo-remainder would hold 200 MB
        CycElt(99991, [3, 10**40]),
    ]
    monkeypatch.setattr(ring, "resultant", no_work)
    monkeypatch.setattr(ring, "_evaluated_norm", no_work)
    monkeypatch.setattr(ring, "_autocorrelation", no_work)
    for a in big:
        assert _norm_route_of(a)[1] > ring.MAX_NORM_WORK
        for attempt in (a.norm, a.is_unit):
            with pytest.raises(ValueError, match="norm work estimate exceeds 600000000"):
                attempt()
    with pytest.raises(ValueError, match="norm work estimate exceeds"):
        decompose_unit(_binomial_unit(2003, 1000))


def test_norm_charges_a_single_power_and_the_denominator(monkeypatch):
    # c^phi(n) and m^phi(n) with their decimal forms cost the square of their
    # words: 10^4299 at 1009 was estimated at 14.4M and took 1.9 s, and a
    # 4001-digit m has 13.4 Mbit at 1009 and 1.33 Gbit at 99991
    m = 10**4000 + 7
    # just inside the limit at 1009; N(1 + zeta) = 1 for odd prime n
    assert CycElt(1009, 10**466).norm() == 10 ** (466 * 1008)
    assert CycElt(1009, [Fraction(1, 3)] * 2).norm() == Fraction(1, 3**1008)
    big = [
        CycElt(1009, 10**470),
        CycElt(3001, 10**4300 - 1),
        CycElt(1009, [Fraction(1, m)] * 2),
        CycElt(99991, [Fraction(1, m)] * 2),
    ]

    def no_work(*args):
        raise AssertionError("a resultant or an evaluation ran before the size check")

    monkeypatch.setattr(ring, "resultant", no_work)
    monkeypatch.setattr(ring, "_evaluated_norm", no_work)
    for a in big:
        start = time.monotonic()
        with pytest.raises(ValueError, match="norm work estimate exceeds 600000000"):
            a.norm()
        assert time.monotonic() - start < 1


def test_norm_serves_by_evaluation_what_the_resultant_refused():
    # the dense element took 46 s by resultant, the block of d/8 16.8 s; both
    # were refused when the resultant was the only route
    rng = random.Random(97)
    served = [
        CycElt(1009, [rng.randint(-9, 9) for _ in range(1008)]),
        CycElt(1381, [rng.randint(-9, 9) for _ in range(173)] + [7]),
    ]
    for a in served:
        evaluate, work = _norm_route_of(a)
        assert evaluate and work <= ring.MAX_NORM_WORK < _norm_work_of(a)
        start = time.monotonic()
        assert a.norm() > 1 and a.is_unit() is False
        assert time.monotonic() - start < 10


def test_norm_work_estimate_keeps_the_served_inputs_far_below_the_limit():
    rng = random.Random(101)
    # every conductor of the benchmark's ring workload (phi <= 48), dense
    for n in range(3, 200):
        d = totient(n)
        if n % 4 != 2 and d <= 48:
            a = CycElt(n, [rng.choice((-9, -4, 1, 5, 9)) for _ in range(d)])
            assert _norm_work_of(a) * 1000 < ring.MAX_NORM_WORK
            assert _norm_route_of(a)[1] * 1000 < ring.MAX_NORM_WORK
    assert _norm_work_of(CycElt(99991, [1, 1])) * 200 < ring.MAX_NORM_WORK
    # a run of ones is bounded through A * (1 - zeta) = 1 - zeta^j; random
    # signs over the same window (37 s for one such norm) are not
    run = CycElt(1409, [1] * 704)
    signs = CycElt(1409, [rng.choice((-1, 1)) for _ in range(704)])
    assert _norm_work_of(run) * 2 < ring.MAX_NORM_WORK < _norm_work_of(signs)
    # a single coordinate takes one power, however long the conductor,
    # charged with its decimal form as the square of its words
    assert _norm_work_of(CycElt(99991, [0, 2])) == (1 + 99990 * 3 // 2 // 64) ** 2
    for a in (CycElt(16007, [1, 2]), _binomial_unit(211, 30), run):
        assert _norm_work_of(a) <= ring.MAX_NORM_WORK


def test_norm_work_estimate_examples():
    # full route, k = 1: m = 4000, lead 2 (one bit per step), |A|_2^2 = 5 (3 bits)
    size = 4000 * 3 // 2
    w, w1 = 1 + (size + 3999) // 64, 1 + 4000 // 64
    assert ring._norm_work(4001, 4000, [1, 2], False, 5, 2) == w * w + 4000 * w1 + 4001 * 4000 + size
    # real route: Psi_7 has degree 3; the window [1, 2] gives degree 1 and lead 1 * 2
    size = 6 * 3 // 2
    w, w1 = 1 + (size + 2) // 64, 1 + 3 // 64
    assert ring._norm_work(7, 6, [1, 2], True, 5, 2) == w * w + 3 * w1 + 4 * 3 + size


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


@pytest.mark.parametrize("n", range(1, 61))
def test_root_of_unity_matches_divisor_scan(n):
    rng = random.Random(89 + n)
    z = zeta_pow(n, 1)
    for k in range(n):
        for a in (zeta_pow(n, k), -zeta_pow(n, k)):
            got = is_root_of_unity(a)
            assert got[0] and got == divisor_scan_root_of_unity(a), (n, k)
    others = [CycElt.zero(n), 1 + z, 2 * z, rand_elt(rng, n, -2, 2), rand_elt(rng, n, max_den=3)]
    for a in others:
        assert is_root_of_unity(a) == divisor_scan_root_of_unity(a), (n, a)


def test_non_roots_of_unity_are_rejected_before_any_power():
    # not integral, yet a * conj(a) = 1: (3 + 4i) / 5
    assert is_root_of_unity(CycElt.parse("4:[3/5,4/5]")) == (False, None)
    for text in ("1009:[2,1]", "2003:[1,1]"):
        start = time.monotonic()
        assert is_root_of_unity(CycElt.parse(text)) == (False, None)
        assert time.monotonic() - start < 1, text


@pytest.mark.parametrize("n", [105, 120, 210])
def test_every_root_of_unity_matches_divisor_scan(n):
    for k in range(n):
        for a in (zeta_pow(n, k), -zeta_pow(n, k)):
            assert is_root_of_unity(a) == divisor_scan_root_of_unity(a), (n, k)


def test_root_of_unity_takes_no_ring_product_or_power(monkeypatch):
    rng = random.Random(113)
    dense = CycElt(2003, [rng.randint(-9, 9) for _ in range(2002)])
    # the divisor scan took 21 s at 3003 and 58 s at 5005, and gave these orders
    roots = [
        (zeta_pow(3003, 1440), 1001),
        (zeta_pow(5005, 2880), 1001),
        (zeta_pow(90090, 17280), 1001),
        (-zeta_pow(99991, 5), 199982),
        (-zeta_pow(2003, 5), 4006),
    ]
    # dense elements up to the conductor cap, and one with 1100-bit coordinates
    others = [
        dense,
        CycElt(99991, [rng.randint(-9, 9) for _ in range(99990)]),
        CycElt(30030, [rng.randint(-9, 9) for _ in range(5760)]),
        CycElt(1367, [rng.randint(-(2**1100), 2**1100) for _ in range(1366)]),
    ]

    def no_product(*args):
        raise AssertionError("is_root_of_unity formed a ring product or power")

    monkeypatch.setattr(ring, "_mul_vecs", no_product)
    monkeypatch.setattr(CycElt, "__pow__", no_product)
    for a, expected in [(a, (True, order)) for a, order in roots] + [(a, (False, None)) for a in others]:
        start = time.monotonic()
        assert is_root_of_unity(a) == expected, a.n
        assert time.monotonic() - start < 1, a.n


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


def _both_routes(a):
    """N(a) by each route that `norm` chooses between, whichever it takes:
    (evaluated, resultant), evaluated None for n <= 2."""
    m, ints = cleared(a)
    n, d = a.n, len(ints)
    _, window, squares, lag1 = ring._window(ints)
    real = n > 2 and d <= ring.MAX_REAL_NORM_PHI
    by_resultant = resultant(*ring._resultant_pair(n, window, real, squares, lag1))
    by_evaluation = None
    if n > 2:
        by_evaluation = ring._evaluated_norm(n, d, window, squares, lag1)
    return [None if r is None else polys._scalar(Fraction(r, m**d)) for r in (by_evaluation, by_resultant)]


@pytest.mark.parametrize("n", range(1, 151))
def test_norm_matches_full_degree_resultant(n):
    rng = random.Random(83 + n)
    for a in _norm_test_elements(rng, n, totient(n), n):
        got = a.norm()
        want = _full_degree_norm(a)
        assert got == want and type(got) is type(want)
        if a:
            by_evaluation, by_resultant = _both_routes(a)
            assert by_resultant == want and by_evaluation in (want, None)
        if totient(n) <= 24:
            assert got == conjugate_product_norm(a)


def test_full_degree_comparison_reaches_both_routes():
    # the elements of test_norm_matches_full_degree_resultant, by the route that `norm` takes
    routes = set()
    for n in range(1, 151):
        rng = random.Random(83 + n)
        routes.update(_norm_route_of(a)[0] for a in _norm_test_elements(rng, n, totient(n), n) if a)
    assert routes == {True, False}


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 31, 101, 211])
def test_evaluated_norm_of_constants(p):
    # N(c) = c^(p-1) is within a factor sqrt(e) of the bound (p c^2 / (p-1))^((p-1)/2),
    # so a modulus one power of l short of the bound gives a wrong norm
    for c in (1, 2, -3, 5, 7, -10, 99, 2**40 + 1):
        assert ring._evaluated_norm(p, p - 1, [c], c * c, 0) == c ** (p - 1), c
        assert CycElt(p, [c]).norm() == c ** (p - 1)


def test_evaluated_norm_checks_the_lifted_root(monkeypatch):
    a = CycElt(15, [3, -1, 4, 1, -5, 9, 2, 6])
    want = _full_degree_norm(a)
    assert _norm_route_of(a)[0] and a.norm() == want
    lifted = ring._lifted_root
    ell, omega = ring._prime_root(15)
    # omega itself, not lifted past l; and a lifted root of order 5, not 15
    for bad in (lambda n, e: (omega, pow(omega, -1, ell**e)), lambda n, e: tuple(x**3 for x in lifted(n, e))):
        monkeypatch.setattr(ring, "_lifted_root", bad)
        with pytest.raises(InternalInvariantError, match="not a root of Phi_n"):
            a.norm()
    monkeypatch.setattr(ring, "_lifted_root", lifted)
    assert a.norm() == want


def test_lifted_root_is_a_root_of_phi_n_at_every_precision():
    for n in (3, 4, 12, 15, 47, 105, 211):
        ell, omega = ring._prime_root(n)
        ring._LIFTED_ROOTS.pop(n, None)
        for e in (1, 2, 3, 5, 9, 4, 40, 33):
            mod = ell**e
            w, v = ring._lifted_root(n, e)
            assert w % ell == omega and w * v % mod == 1
            assert sum(c * pow(w, i, mod) for i, c in enumerate(cyclotomic_poly(n).coeffs)) % mod == 0


# (n, lags) at full width (n // 2) and short, tables of 115 to 254016 entries;
# at 99991 the entries pass 65535, which a 2-byte array refuses
@pytest.mark.parametrize("n,lags", [(47, 23), (47, 5), (211, 105), (211, 3), (1009, 504), (1009, 17), (99991, 3)])
def test_kept_conjugate_rows_are_the_exponent_rows(n, lags):
    rows = ring._kept_conjugate_rows(n, lags)
    want = [[m * k % n for m in range(1, lags + 1)] for k in range(1, (n + 1) // 2) if math.gcd(k, n) == 1]
    assert [list(row) for row in rows] == want
    assert {row.itemsize for row in rows} == {4}
    assert n < 65536 or max(map(max, rows)) > 65535
    assert ring._kept_conjugate_rows.cache_info().maxsize == 2


def test_evaluated_norm_of_a_dense_211_matches_the_resultant():
    # a full-width table: 105 rows of 105 exponents
    a = CycElt(211, [random.Random(211).randint(-9, 9) for _ in range(210)])
    window = ring._window(cleared(a)[1])[1]
    assert min(len(window), 211 // 2 + 1) - 1 == 105 and _norm_route_of(a)[0]
    by_evaluation, by_resultant = _both_routes(a)
    assert by_evaluation == by_resultant == a.norm()


def test_norm_route_choice_examples():
    rng = random.Random(131)
    dense = [CycElt(n, [rng.randint(-9, 9) for _ in range(totient(n))]) for n in (7, 47, 105, 211, 643)]
    for a in dense:
        assert _norm_route_of(a)[0], a.n
    # sparse windows, huge coordinates, single coordinates and n <= 2 keep the resultant
    for text in ("997:[1,2]", "4001:[1,2]", f"211:[{10**30},{3 * 10**29 + 7}]", "99991:[1,1]", "211:[5]", "2:[7]"):
        assert not _norm_route_of(CycElt.parse(text))[0], text


# conductors whose phi(n) straddles the bound, a prime and a composite on each
# side: 997 (phi 996), 1111 (1000), 1009 (1008), 1073 (1008)
NEAR_REAL_NORM_BOUND = (997, 1111, 1009, 1073)


@pytest.mark.parametrize("n", NEAR_REAL_NORM_BOUND)
def test_norm_near_the_real_subfield_bound(n, monkeypatch):
    assert {totient(k) <= ring.MAX_REAL_NORM_PHI for k in NEAR_REAL_NORM_BOUND} == {True, False}
    degrees, evaluated = [], []

    def recording_resultant(f, g):
        degrees.append(f.degree)
        return resultant(f, g)

    def recording_evaluation(*args):
        evaluated.append(args[0])
        return evaluate(*args)

    rng = random.Random(89 + n)
    elts = _norm_test_elements(rng, n, 12, 40) + [CycElt(n, [1, 2]), CycElt(n, [3, 0, -1]) * zeta_pow(n, n // 2)]
    wants = [_full_degree_norm(a) for a in elts]
    # a dense element, whose norm by resultant takes tens of seconds here
    elts.append(CycElt(n, [rng.randint(-9, 9) for _ in range(totient(n))]))
    routes = [_norm_route_of(a)[0] for a in elts]
    evaluate = ring._evaluated_norm
    monkeypatch.setattr(ring, "resultant", recording_resultant)
    monkeypatch.setattr(ring, "_evaluated_norm", recording_evaluation)
    for a, want in zip(elts, wants):
        got = a.norm()
        assert got == want and type(got) is type(want)
    assert elts[-1].norm() > 1
    d = totient(n)
    assert degrees == [d // 2 if d <= ring.MAX_REAL_NORM_PHI else d] * routes.count(False)
    assert evaluated == [n] * routes.count(True) and routes[-1]


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
    assert all(_norm_route_of(a)[0] for a in elts)  # the norms take the evaluation
    serial = [(a.inverse(), a.trace(), a.norm(), is_root_of_unity(a)) for a in elts]
    for cache in (ring._ramanujan_sums, ring._real_cyclotomic, ring._prime_root, ring._kept_conjugate_rows):
        cache.cache_clear()
    cyclotomic_poly.cache_clear()
    polys._product_form.cache_clear()
    ring._LIFTED_ROOTS.clear()
    results = [None] * 4
    start = threading.Barrier(len(results), timeout=30)

    def work(slot):
        start.wait()
        results[slot] = [(a.inverse(), a.trace(), a.norm(), is_root_of_unity(a)) for a in elts]

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


def test_decompose_unit_checks_its_postcondition(monkeypatch):
    # the decomposition is re-verified before it is returned: a real part
    # that fails is_real must raise, not be handed back
    u = 1 + CycElt.zeta(5)
    assert decompose_unit(u).m == 3
    monkeypatch.setattr(CycElt, "is_real", lambda self: False)
    with pytest.raises(InternalInvariantError, match="postcondition"):
        decompose_unit(u)


# -- the factorization identity -------------------------------------------------------


@pytest.mark.parametrize("x,y,p,expected", [(1, 0, 5, 1), (1, 1, 3, 2), (2, 1, 5, 33)])
def test_factor_examples(x, y, p, expected):
    factors = factor_sum_pth_powers(x, y, p)
    assert len(factors) == p
    assert folded_product(factors) == expected == x**p + y**p


def test_factor_identity_exhaustive():
    for p in (3, 5, 7, 11, 13):
        for x in range(-20, 21):
            for y in range(-20, 21):
                assert folded_product(factor_sum_pth_powers(x, y, p)) == x**p + y**p


def test_factor_matches_ring_construction():
    # one reduction of x + y * X^i against the ring operations it replaced
    for p in (3, 5, 7, 13, 47):
        for x, y in [(2, 1), (-3, 5), (0, 0), (Fraction(1, 2), Fraction(-3, 4)), (Fraction(4, 2), 7)]:
            got = factor_sum_pth_powers(x, y, p)
            want = [CycElt(p, x) + zeta_pow(p, i) * y for i in range(p)]
            assert got == want and list(map(repr, got)) == list(map(repr, want))
            assert [tuple(map(type, a.coeffs)) for a in got] == [tuple(map(type, a.coeffs)) for a in want]


def test_factor_rejects_even_or_composite():
    with pytest.raises(ValueError):
        factor_sum_pth_powers(1, 1, 2)
    with pytest.raises(ValueError):
        factor_sum_pth_powers(1, 1, 9)


def test_factor_refuses_large_work_before_any_factor(monkeypatch):
    def no_reduce(*args, **kwargs):
        raise AssertionError("a factor was built before the work check")

    monkeypatch.setattr(ring, "_reduce", no_reduce)
    x = 10**4000 - 1
    # 99991 factors of 99990 coordinates each; 2797 is the least prime
    # refused at x = y = 1, and 109 the least with 4000-digit x
    for args in [(1, 1, 99991), (1, 1, 2797), (x, x, 109), (x, 1, 109)]:
        start = time.monotonic()
        with pytest.raises(ValueError, match=f"factor work estimate exceeds {ring.MAX_FACTOR_WORK}"):
            factor_sum_pth_powers(*args)
        assert time.monotonic() - start < 1, args


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


@pytest.mark.parametrize(
    "bad",
    ["5:", "5:[1,", "[1,2]", "x:[1]", "5:[1,0.5]", "5:[1/0]", "5:[1,,2]", "5:1,2]", "5:[1,2", "5:[,]", "5:[1 2]", "5:[[1]]"],
)
def test_literal_rejects_malformed(bad):
    with pytest.raises(ValueError, match="malformed element literal"):
        CycElt.parse(bad)
