import random
from fractions import Fraction

import pytest

from cyclo.ntheory import factorize, is_prime, totient
from cyclo.polys import (
    MAX_CONDUCTOR,
    Poly,
    _prem,
    cyclotomic_poly,
    discr_prime_pow,
    discriminant,
    poly_from_str,
    poly_to_str,
    resultant,
)
from oracles import cyclotomic_by_definition, cyclotomic_moebius, sylvester_resultant

X = Poly((0, 1))


def test_normalization_strips_trailing_zeros():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly([0, 0]).coeffs == ()
    assert Poly([Fraction(4, 2)]).coeffs == (2,)


def test_degree_of_zero_is_a_marker():
    assert Poly().degree is None
    assert Poly([5]).degree == 0
    assert (X**3).degree == 3


def test_rejects_floats():
    with pytest.raises(TypeError):
        Poly([0.5])


@pytest.mark.parametrize(
    "f,x,expected",
    [
        (Poly([1, 1, 1, 1, 1]), 1, 5),
        (Poly(), 7, 0),
        (Poly([-1, 1]), 1, 0),
    ],
)
def test_eval_examples(f, x, expected):
    assert f(x) == expected


def test_divmod_examples():
    assert divmod(X**2 - 1, X - 1) == (X + 1, Poly())
    assert divmod(X**3, X) == (X**2, Poly())
    assert divmod(X**2 + 1, X + 1) == (X - 1, Poly([2]))


def test_divmod_contract_on_randoms():
    rng = random.Random(5)
    for _ in range(200):
        f = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(0, 7))])
        g = Poly([rng.randint(-9, 9) for _ in range(rng.randint(0, 4))] + [rng.choice([-3, -1, 1, 2])])
        q, r = divmod(f, g)
        assert q * g + r == f
        assert not r or r.degree < g.degree


def test_division_by_zero_poly():
    with pytest.raises(ZeroDivisionError):
        divmod(X, Poly())


@pytest.mark.parametrize(
    "n,coeffs",
    [
        (1, (-1, 1)),
        (5, (1, 1, 1, 1, 1)),
        (6, (1, -1, 1)),
        (12, (1, 0, -1, 0, 1)),
    ],
)
def test_cyclotomic_examples(n, coeffs):
    assert cyclotomic_poly(n) == Poly(coeffs) == cyclotomic_moebius(n)


def test_cyclotomic_rejects_zero():
    with pytest.raises(ValueError):
        cyclotomic_poly(0)


def test_cyclotomic_matches_literal_definition():
    for n in range(1, 161):
        assert cyclotomic_poly(n) == cyclotomic_by_definition(n)


def test_cyclotomic_divisor_product():
    for n in range(1, 121):
        prod = Poly([1])
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic_poly(d)
        assert prod == Poly.monomial(n) - 1


def test_cyclotomic_monic_degree_and_constant_term():
    for n in range(1, 501):
        f = cyclotomic_poly(n)
        assert f.is_monic()
        assert f.degree == totient(n)
        if n >= 2:
            assert f(0) == 1


def test_cyclotomic_at_one_detects_prime_powers():
    for n in range(2, 501):
        fac = factorize(n)
        expected = fac[0][0] if len(fac) == 1 else 1
        assert cyclotomic_poly(n)(1) == expected


def test_cyclotomic_prime_power_composition():
    for p in (2, 3, 5, 7):
        pk = p * p
        while pk <= 512:
            k = 0
            m = pk
            while m > 1:
                m //= p
                k += 1
            assert cyclotomic_poly(pk) == cyclotomic_poly(p).compose_xpow(p ** (k - 1))
            pk *= p


@pytest.mark.parametrize(
    "f,g,expected",
    [
        (X - 2, X - 3, -1),  # product formula: 2 - 3
        (X**2 + 1, X, 1),  # g(i) * g(-i) = 1
    ],
)
def test_resultant_examples(f, g, expected):
    assert resultant(f, g) == expected
    assert sylvester_resultant(f, g) == expected


def test_resultant_with_constant():
    f = X**3 + 2 * X - 7
    assert resultant(f, Poly([5])) == 5**3
    assert resultant(Poly([5]), f) == 5**3
    assert resultant(Poly([4]), Poly([9])) == 1


def test_resultant_rejects_zero_and_rationals():
    with pytest.raises(ValueError):
        resultant(Poly(), X)
    with pytest.raises(ValueError):
        resultant(X, Poly())
    with pytest.raises(ValueError):
        resultant(Poly([Fraction(1, 2)]), X)


def test_resultant_matches_sylvester_on_randoms():
    rng = random.Random(42)
    for _ in range(400):
        f = Poly([rng.randint(-9, 9) for _ in range(rng.randint(0, 6))] + [rng.choice([-9, -2, -1, 1, 3, 7])])
        g = Poly([rng.randint(-9, 9) for _ in range(rng.randint(0, 6))] + [rng.choice([-5, -1, 1, 2, 9])])
        if rng.random() < 0.4 and f.degree >= 2:
            cs = list(f.coeffs)
            cs[rng.randrange(f.degree)] = 0
            f = Poly(cs)
        assert resultant(f, g) == sylvester_resultant(f, g)


def test_resultant_zero_on_common_factor():
    h = X + 1
    assert resultant(h * (2 * X + 3), h * (X**2 - 1)) == 0


def test_resultant_multiplicative_in_second_argument():
    rng = random.Random(7)
    for _ in range(100):
        mk = lambda: Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] + [1])
        f, g, h = mk(), mk(), mk()
        assert resultant(f, g * h) == resultant(f, g) * resultant(f, h)


@pytest.mark.parametrize(
    "f,expected",
    [
        (X - 1, 1),
        (X**2 + 1, -4),  # b^2 - 4c with b=0, c=1
    ],
)
def test_discriminant_examples(f, expected):
    assert discriminant(f) == expected


def test_discriminant_of_phi5_via_resultant():
    f = cyclotomic_poly(5)
    assert discriminant(f) == 125
    assert sylvester_resultant(f, f.derivative()) == 125  # sign (+1)^(4*3/2)


def test_discriminant_rejects_bad_inputs():
    with pytest.raises(ValueError):
        discriminant(Poly([3]))
    with pytest.raises(ValueError):
        discriminant(2 * X + 1)


@pytest.mark.parametrize(
    "p,k,expected",
    [(3, 1, -3), (5, 1, 125), (3, 2, -19683), (2, 2, -4), (2, 1, 1)],
)
def test_discr_prime_pow_examples(p, k, expected):
    assert discr_prime_pow(p, k) == expected
    assert discriminant(cyclotomic_poly(p**k)) == expected


def test_discr_prime_pow_rejects_composite():
    with pytest.raises(ValueError):
        discr_prime_pow(6, 1)
    with pytest.raises(ValueError):
        discr_prime_pow(3, 0)


def test_discr_prime_pow_size_checked_first():
    # p^k above the conductor cap is refused without building p^k or
    # trial-dividing p; each of these ran for more than 30 s unchecked
    for p, k in [(7, 9), (2, 10**8), (2, 17), (3, 11), (317, 2), (2**127 - 1, 1), (100003, 1)]:
        with pytest.raises(ValueError, match=f"conductor p\\^k must be an integer in 1..{MAX_CONDUCTOR}"):
            discr_prime_pow(p, k)
    assert discr_prime_pow(2, 16) == 2 ** (2**15 * 15)
    assert discr_prime_pow(313, 2) == 313 ** (313 * 623)


def test_prem_matches_division_over_q():
    rng = random.Random(4)
    for _ in range(400):
        B = [rng.choice([0, rng.randint(-9, 9)]) for _ in range(rng.randint(0, 6))]
        B.append(rng.choice([1, -1, 2, -3, 6]))
        A = [rng.choice([0, rng.randint(-50, 50)]) for _ in range(rng.randint(0, 12))]
        A.append(rng.randint(1, 9))
        scale = B[-1] ** max(len(A) - len(B) + 1, 0)
        R = _prem(A, B)
        assert all(isinstance(c, int) for c in R) and (not R or R[-1])
        assert Poly(R) == (Poly(A) * scale) % Poly(B)


def test_discr_formula_matches_oracle_small():
    for p in (2, 3, 5, 7, 11, 13):
        for k in (1, 2, 3):
            if totient(p**k) <= 30:
                assert discr_prime_pow(p, k) == discriminant(cyclotomic_poly(p**k))


def test_discr_sign_pattern_odd_p():
    for p in (3, 5, 7, 11, 13, 17, 19):
        for k in (1, 2):
            phi = totient(p**k)
            negative = discr_prime_pow(p, k) < 0
            assert negative == ((phi // 2) % 2 == 1)


@pytest.mark.parametrize(
    "text",
    ["[-1,1]", "[]", "[5]", "[1/2,-3,7/4]", "[-1,0,1]"],
)
def test_poly_text_roundtrip(text):
    assert poly_to_str(poly_from_str(text)) == text


def test_poly_text_rejects_garbage():
    with pytest.raises(ValueError):
        poly_from_str("1,2,3")
    with pytest.raises(ValueError):
        poly_from_str("[1,x]")
