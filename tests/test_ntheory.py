import math

import pytest

from cyclo.ntheory import check_odd_prime, divisors, factorize, is_prime, moebius, totient
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


def test_factorize_and_moebius_reject_zero():
    with pytest.raises(ValueError, match="n >= 1"):
        factorize(0)
    with pytest.raises(ValueError, match="n >= 1"):
        moebius(0)


@pytest.mark.parametrize("n,expected", [(1, 1), (12, 0), (6, 1)])
def test_moebius_examples(n, expected):
    assert moebius(n) == expected
    assert moebius_brute(n) == expected


def test_moebius_divisor_sum():
    assert sum(moebius(d) for d in divisors(1)) == 1
    for n in range(2, 1001):
        assert sum(moebius(d) for d in divisors(n)) == 0


def test_is_prime_small():
    sieve = [True] * 20001
    sieve[0] = sieve[1] = False
    for i in range(2, 20001):
        if sieve[i]:
            for j in range(i * i, 20001, i):
                sieve[j] = False
    for n in range(20001):
        assert is_prime(n) == sieve[n]
    # squares of primes sit on the d * d <= n edge of trial division; the
    # Carmichael numbers 561, 41041 and 825265 pass every Fermat test
    for n in (49, 3481, 46337**2, 561, 41041, 825265, 46337 * 46349, 0, 1, -1, -2, -3, -49):
        assert not is_prime(n), n
    for n in (2, 3, 46337, 46349, 2**31 - 1):
        assert is_prime(n), n


def test_check_odd_prime():
    assert [check_odd_prime(p) for p in (3, 5, 101)] == [3, 5, 101]
    for p in (2, 1, 0, -3, 9, 91):
        with pytest.raises(ValueError, match="odd prime required"):
            check_odd_prime(p)
