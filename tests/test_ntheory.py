import math

import pytest

from cyclo.ntheory import divisors, is_prime, moebius, totient
from oracles import moebius_brute, phi_brute


@pytest.mark.parametrize("n,expected", [(1, 1), (9, 6), (100, 40)])
def test_totient_examples(n, expected):
    assert totient(n) == expected
    assert phi_brute(n) == expected


def test_totient_matches_brute_force():
    for n in range(1, 200):
        assert totient(n) == phi_brute(n)


def test_totient_multiplicative_on_coprime_args():
    for a in range(1, 51):
        for b in range(1, 51):
            if math.gcd(a, b) == 1:
                assert totient(a * b) == totient(a) * totient(b)


def test_totient_divisor_sum():
    for n in range(1, 1001):
        assert sum(totient(d) for d in divisors(n)) == n


def test_totient_rejects_zero():
    with pytest.raises(ValueError):
        totient(0)


@pytest.mark.parametrize("n,expected", [(1, 1), (12, 0), (6, 1)])
def test_moebius_examples(n, expected):
    assert moebius(n) == expected
    assert moebius_brute(n) == expected


def test_moebius_divisor_sum():
    assert sum(moebius(d) for d in divisors(1)) == 1
    for n in range(2, 1001):
        assert sum(moebius(d) for d in divisors(n)) == 0


def test_is_prime_small():
    sieve = [True] * 200
    sieve[0] = sieve[1] = False
    for i in range(2, 200):
        if sieve[i]:
            for j in range(i * i, 200, i):
                sieve[j] = False
    for n in range(200):
        assert is_prime(n) == sieve[n]
