import math
import operator
import random
import struct
import tracemalloc
from fractions import Fraction

import pytest

from cyclo import polys
from cyclo.errors import InternalInvariantError
from cyclo.ntheory import factorize, is_prime, totient
from cyclo.polys import (
    MAX_CONDUCTOR,
    Poly,
    _list_from_str,
    _prem,
    cyclotomic_poly,
    discr_prime_pow,
    discriminant,
    resultant,
    resultant_cofactor,
)
from oracles import (
    compose_xpow,
    cyclotomic_by_definition,
    cyclotomic_moebius,
    poly_divmod,
    poly_eval,
    poly_pow,
    recursive_cyclotomic,
    schoolbook_product,
    sylvester_resultant,
)

X = Poly((0, 1))
X2, X3 = poly_pow(X, 2), poly_pow(X, 3)


def test_normalization_strips_trailing_zeros():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly([0, 0]).coeffs == ()
    assert Poly([Fraction(4, 2)]).coeffs == (2,)


def test_degree_of_zero_is_a_marker():
    assert Poly().degree is None
    assert Poly([5]).degree == 0
    assert (X3).degree == 3


def test_rejects_floats():
    with pytest.raises(TypeError):
        Poly([0.5])


def test_poly_is_immutable_hashable_and_refuses_non_scalars():
    f = Poly([1, 2])
    with pytest.raises(AttributeError, match="immutable"):
        f.coeffs = (3,)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(f, "x")
        with pytest.raises(TypeError):
            op("x", f)
    assert (Poly([3]) == 3) is False
    assert hash(f) == hash(Poly([1, 2, 0])) and len({f, Poly([1, 2])}) == 1
    assert str(f) == "[1,2]"


@pytest.mark.parametrize(
    "f,x,expected",
    [
        (Poly([1, 1, 1, 1, 1]), 1, 5),
        (Poly(), 7, 0),
        (Poly([-1, 1]), 1, 0),
    ],
)
def test_eval_examples(f, x, expected):
    assert poly_eval(f, x) == expected


def test_divmod_examples():
    assert poly_divmod(X2 - 1, X - 1) == (X + 1, Poly())
    assert poly_divmod(X3, X) == (X2, Poly())
    assert poly_divmod(X2 + 1, X + 1) == (X - 1, Poly([2]))


def test_divmod_contract_on_randoms():
    rng = random.Random(5)
    for _ in range(200):
        f = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(0, 7))])
        g = Poly([rng.randint(-9, 9) for _ in range(rng.randint(0, 4))] + [rng.choice([-3, -1, 1, 2])])
        q, r = poly_divmod(f, g)
        assert q * g + r == f
        assert not r or r.degree < g.degree


def test_division_by_zero_poly():
    with pytest.raises(ZeroDivisionError):
        poly_divmod(X, Poly())


# -- the coefficient product: packed and looped routes --------------------------

# a bound max|a| * max|b| * min(len a, len b) and the struct code of the slots
# that hold it; 2^63 and above take the loop
SLOT_EDGES = [
    (2**7 - 1, "b"),
    (2**7, "h"),
    (2**15 - 1, "h"),
    (2**15, "i"),
    (2**31 - 1, "i"),
    (2**31, "q"),
    (2**63 - 1, "q"),
    (2**63, None),
]


def _signed(rng, length, bits, zeros=0.3):
    return [rng.randint(-(2**bits), 2**bits) if rng.random() >= zeros else 0 for _ in range(length)]


def _product_cases():
    """Seeded signed pairs: empty, all-zero and one-term lists, 1 x 300 and
    2 x 300, runs of 8 equal entries whose middle product entry is +-B at or
    just below each slot edge, and random lengths, sizes and zeros."""
    rng = random.Random(27)
    cases = [([], []), ([], [3, 1]), ([0], [0]), ([0, 0, 0], [0, 0]), ([0, 0, 0], [5, -3]), ([7], [-3])]
    cases += [([0, 0, 4, 0], [-2, 0, 9]), ([-9], _signed(rng, 40, 4)), (_signed(rng, 1, 8), _signed(rng, 300, 8))]
    cases += [(_signed(rng, 2, 4), _signed(rng, 300, 4)), (_signed(rng, 2, 62), _signed(rng, 300, 62))]
    for edge, _ in SLOT_EDGES:
        run = [edge // 8] * 8
        cases += [([edge], [1]), ([-edge, 3], [-1]), (run, [1] * 8), (run, [-1] * 8), ([-c for c in run], [1] * 8)]
        cases.append(([(edge // 8) * rng.choice((-1, 1)) for _ in range(8)], [rng.choice((-1, 1)) for _ in range(8)]))
    for _ in range(300):
        bits = rng.choice((1, 4, 7, 8, 15, 20, 31, 40, 62, 64, 100))
        cases.append((_signed(rng, rng.randint(1, 40), bits), _signed(rng, rng.randint(1, 40), bits)))
    return cases


@pytest.mark.parametrize("dense", [0, 8, math.inf], ids=["packed", "threshold", "loop"])
def test_mul_lists_matches_schoolbook_on_both_routes(monkeypatch, dense):
    monkeypatch.setattr(polys, "_DENSE", dense)
    for a, b in _product_cases():
        for x, y in ((a, b), (b, a)):
            want = schoolbook_product(x, y)
            assert polys._mul_lists(x, y) == want, (x, y)
            assert polys._mul_lists(tuple(x), tuple(y)) == want, (x, y)


def _packed_codes(monkeypatch, a, b):
    """The struct codes with which `_mul_lists(a, b)` unpacks a product: one
    code when it takes the packed route, none when it takes the loop."""
    codes = []

    class Spy:
        error, pack = struct.error, staticmethod(struct.pack)

        @staticmethod
        def unpack(fmt, data):
            codes.append(fmt[-1])
            return struct.unpack(fmt, data)

    with monkeypatch.context() as mp:
        mp.setattr(polys, "struct", Spy)
        assert polys._mul_lists(a, b) == schoolbook_product(a, b)
    return codes


@pytest.mark.parametrize("edge,code", SLOT_EDGES)
def test_mul_lists_packs_in_the_least_slot_that_holds_the_bound(monkeypatch, edge, code):
    monkeypatch.setattr(polys, "_DENSE", 1)
    assert _packed_codes(monkeypatch, [edge], [1]) == ([code] if code else [])
    assert _packed_codes(monkeypatch, [-1] * 8, [edge // 8] * 8) == ([code] if code else [])


def test_mul_lists_packs_only_dense_int_lists(monkeypatch):
    dense = [(-1) ** i for i in range(polys._DENSE)]
    sparse = [0, 5] * (polys._DENSE - 1) + [0]  # one nonzero entry short
    half = [Fraction(1, 2)] + dense[1:]
    assert _packed_codes(monkeypatch, dense, dense) == ["b"]
    assert _packed_codes(monkeypatch, dense, sparse) == _packed_codes(monkeypatch, sparse, dense) == []
    assert _packed_codes(monkeypatch, half, dense) == _packed_codes(monkeypatch, dense, half) == []


def test_poly_products_of_fractions_above_the_dense_threshold():
    # the packed route reads ints only: a Fraction anywhere sends the product
    # to the loop, which is exact over Q
    length = polys._DENSE + 4
    ints = list(range(-length, 0))
    halves = [Fraction(1, 2)] * length
    thirds = [Fraction(1, 3)] * length
    mixed = [Fraction(1, 2), 3] * (length // 2)
    for a, b in [(halves, thirds), (mixed, ints), (ints, mixed), (mixed, mixed), (ints, ints[::-1])]:
        assert Poly(a) * Poly(b) == Poly(schoolbook_product(a, b))
    assert (Poly(halves) * Poly(thirds)).coeffs[length - 1] == Fraction(length, 6)


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
    """The product form equals Phi_n by its literal definition and by
    recursive exact division."""
    for n in [*range(1, 400), 2310, 4620]:
        assert cyclotomic_poly(n) == cyclotomic_by_definition(n) == recursive_cyclotomic(n)


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
            assert poly_eval(f, 0) == 1


def test_cyclotomic_at_one_detects_prime_powers():
    for n in range(2, 501):
        fac = factorize(n)
        expected = fac[0][0] if len(fac) == 1 else 1
        assert poly_eval(cyclotomic_poly(n), 1) == expected


def test_cyclotomic_prime_power_composition():
    for p in (2, 3, 5, 7):
        pk = p * p
        while pk <= 512:
            k = 0
            m = pk
            while m > 1:
                m //= p
                k += 1
            assert cyclotomic_poly(pk) == compose_xpow(cyclotomic_poly(p), p ** (k - 1))
            pk *= p


@pytest.mark.parametrize(
    "f,g,expected",
    [
        (X - 2, X - 3, -1),  # product formula: 2 - 3
        (X2 + 1, X, 1),  # g(i) * g(-i) = 1
    ],
)
def test_resultant_examples(f, g, expected):
    assert resultant(f, g) == expected
    assert sylvester_resultant(f, g) == expected


def test_resultant_with_constant():
    f = X3 + 2 * X - 7
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
    assert resultant(h * (2 * X + 3), h * (X2 - 1)) == 0


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
        (X2 + 1, -4),  # b^2 - 4c with b=0, c=1
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
        assert Poly(R) == poly_divmod(Poly(A) * scale, Poly(B))[1]


def test_prem_writes_the_pseudo_quotient():
    rng = random.Random(6)
    for _ in range(400):
        B = [rng.randint(-9, 9) for _ in range(rng.randint(0, 5))] + [rng.choice([1, -1, 2, -3, 6])]
        A = [rng.randint(-50, 50) for _ in range(rng.randint(len(B) - 1, 12))] + [rng.randint(1, 9)]
        Q = [0] * (len(A) - len(B) + 1)
        R = _prem(A, B, Q)
        scale = B[-1] ** len(Q)
        assert R == _prem(A, B)
        assert Poly(A) * scale == Poly(Q) * Poly(B) + Poly(R)


def test_prem_holds_only_a_window_of_scaled_entries():
    # lc(B)^e * A for A = Phi_16007 and B = 2X + 1 would hold 16007 entries
    # of about 16007 bits (32 MB); the window holds two
    A = list(cyclotomic_poly(16007).coeffs)
    tracemalloc.start()
    try:
        R = _prem(A, [1, 2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert R == [resultant(cyclotomic_poly(16007), Poly([1, 2]))]
    assert peak < 1_000_000


def _random_coprime_pair(rng, max_deg):
    """A monic f and a g coprime to it, with Res(f, g) != 0."""
    while True:
        f = Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, max_deg))] + [1])
        g = Poly([rng.choice([0, rng.randint(-9, 9)]) for _ in range(rng.randint(0, max_deg + 2))] + [rng.choice([-3, -1, 1, 2, 5])])
        if resultant(f, g):
            return f, g


def test_resultant_cofactor_inverts_modulo_f():
    rng = random.Random(8)
    for _ in range(300):
        f, g = _random_coprime_pair(rng, 7)
        t, c = resultant_cofactor(f, g)
        assert c and all(isinstance(x, int) for x in t)
        assert len(t) <= f.degree
        assert not poly_divmod(Poly(t) * g - c, f)[1]
    assert resultant_cofactor(X3 + 1, Poly([-4])) == ([1], -4)
    with pytest.raises(InternalInvariantError, match="shares a factor"):
        resultant_cofactor(X2 - 1, X3 - X)


def test_resultant_cofactor_does_not_pay_in_resultant(monkeypatch):
    calls = []
    sequence = polys._remainder_sequence

    def spy(A, B, track=None):
        calls.append(track)
        return sequence(A, B, track)

    monkeypatch.setattr(polys, "_remainder_sequence", spy)
    resultant(cyclotomic_poly(11), Poly([3, 1, 4, 1, 5]))
    resultant_cofactor(cyclotomic_poly(11), Poly([3, 1, 4, 1, 5]))  # tracks Phi_11's cofactor
    resultant_cofactor(cyclotomic_poly(11), Poly([3, 1, 4, 1, 5, 9, 2, 6, 5, 3]))  # tracks g's own
    # two terms track g's own: t from f's cofactor would take lc(g)^(deg f)
    resultant_cofactor(cyclotomic_poly(11), Poly([3, -5]))
    assert calls == [None, ([1], []), ([], [1]), ([], [1])]


@pytest.mark.parametrize("g", [(3, 1, 4, 1, 5), (3, 1, 4, 1, 5, 9, 2, 6, 5, 3), (2, -7, 1, 8, 2, 8, 1, 8, 2, 8, 4)])
def test_cofactor_divisions_are_checked(monkeypatch, g):
    # a pseudo-quotient off by one in the third step makes the cofactor
    # update inexact; the checked division must say so instead of returning
    # a wrong cofactor
    prem, steps = polys._prem, []

    def corrupt(A, B, Q=None):
        R = prem(A, B, Q)
        if Q is not None:
            steps.append(B)
            if len(steps) == 3:
                Q[0] += 1
        return R

    f = cyclotomic_poly(11)
    t, c = resultant_cofactor(f, Poly(g))
    assert not poly_divmod(Poly(t) * Poly(g) - c, f)[1]
    monkeypatch.setattr(polys, "_prem", corrupt)
    with pytest.raises(InternalInvariantError, match="inexact division"):
        resultant_cofactor(f, Poly(g))


@pytest.mark.parametrize("fault", ["remainder", "quotient"])
def test_short_route_division_is_checked(monkeypatch, fault):
    # t = (c - u * f) / g is the pseudo-quotient of the one _prem call whose
    # dividend is longer than f; a nonzero remainder, or a quotient entry
    # not divisible by lc(g)^e = 2^e, must raise instead of returning t
    f, g = cyclotomic_poly(11), Poly([3, 1, 4, 1, 2])
    t, c = resultant_cofactor(f, g)
    assert not poly_divmod(Poly(t) * g - c, f)[1]
    prem = polys._prem

    def corrupt(A, B, Q=None):
        R = prem(A, B, Q)
        if len(A) <= len(f.coeffs):
            return R
        if fault == "quotient":
            Q[0] += 1
            return R
        return R + [1]

    monkeypatch.setattr(polys, "_prem", corrupt)
    with pytest.raises(InternalInvariantError, match="inexact division"):
        resultant_cofactor(f, g)


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
    assert str(Poly(_list_from_str(text))) == text


def test_poly_text_rejects_garbage():
    with pytest.raises(ValueError):
        _list_from_str("1,2,3")
    with pytest.raises(ValueError):
        _list_from_str("[1,x]")
