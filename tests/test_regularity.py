import sys
import threading
import time
from fractions import Fraction
from math import gcd

import pytest

from cyclo import regularity
from cyclo.ntheory import is_prime
from cyclo.regularity import MAX_INDEX, bernoulli, irregular_pairs, is_regular_prime, vsc_denominator
from oracles import (
    boustrophedon_tangents,
    fraction_irregular_pairs,
    recurrence_bernoulli,
    relative_class_number,
    tangent_bernoulli_table,
)


def mod_p(value: Fraction, p: int) -> int:
    assert value.denominator % p != 0
    return value.numerator * pow(value.denominator, -1, p) % p


@pytest.mark.parametrize(
    "m,expected",
    [
        (0, Fraction(1)),
        (1, Fraction(-1, 2)),
        (2, Fraction(1, 6)),
        (12, Fraction(-691, 2730)),
    ],
)
def test_bernoulli_examples(m, expected):
    assert bernoulli(m) == expected


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_odd_indices_vanish():
    for m in range(3, 100, 2):
        assert bernoulli(m) == 0


@pytest.mark.parametrize("m,expected", [(2, 6), (4, 30), (12, 2730)])
def test_vsc_denominator_examples(m, expected):
    assert vsc_denominator(m) == expected


def test_vsc_denominator_rejects_odd_or_small():
    with pytest.raises(ValueError):
        vsc_denominator(3)
    with pytest.raises(ValueError):
        vsc_denominator(0)


def test_von_staudt_clausen():
    for m in range(2, 1201, 2):
        assert bernoulli(m).denominator == vsc_denominator(m), m


def test_bernoulli_is_in_lowest_terms_over_the_table():
    for m in range(2, 1201, 2):
        b, k, q = bernoulli(m), m // 2, 4 ** (m // 2)
        assert gcd(b.numerator, b.denominator) == 1 and b.denominator == vsc_denominator(m), m
        assert b * q * (q - 1) == (-1) ** (k - 1) * m * regularity._table[k], m  # the table holds T_k


def test_table_holds_tangent_numbers():
    bernoulli(14)
    assert regularity._table[:8] == [1, 1, 2, 16, 272, 7936, 353792, 22368256]  # B_0's 1, then OEIS A000182


def test_even_denominators_squarefree():
    for m in range(2, 61, 2):
        den = bernoulli(m).denominator
        d = 2
        while d * d <= den:
            assert den % (d * d) != 0
            d += 1


def test_kummer_congruence():
    for p in (5, 7, 11):
        for m in range(2, 41, 2):
            if m % (p - 1) == 0:
                continue
            for mp in range(m + p - 1, 41, p - 1):
                assert mod_p(bernoulli(m) / m, p) == mod_p(bernoulli(mp) / mp, p)


def test_irregular_pairs_examples():
    assert irregular_pairs(7) == []
    # T_5 = 7936 = 2^8 * 31 but B_10 = 5/66: a test on tangent numbers fails here
    assert irregular_pairs(31) == []
    assert irregular_pairs(37) == [(37, 32)]
    assert irregular_pairs(691) == [(691, 12), (691, 200)]  # numerator of B_12 is -691


def test_irregular_pairs_match_recurrence_oracle():
    for p in filter(is_prime, range(5, 600)):
        assert irregular_pairs(p) == fraction_irregular_pairs(p, recurrence_bernoulli), p


def test_irregular_pairs_match_fraction_numerators_up_to_the_cap():
    table = [bernoulli(k) for k in range(MAX_INDEX + 1)]
    for p in filter(is_prime, range(5, MAX_INDEX + 4)):
        assert irregular_pairs(p) == fraction_irregular_pairs(p, table.__getitem__), p


def _valuation(x, p):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def test_wieferich_prime_needs_the_full_valuation():
    p = 1093  # 2^(p-1) = 1 (mod p^2): p^2 divides 4^k - 1 at k = 182 and 364
    bernoulli(p - 3)
    for k in (182, 364):
        assert _valuation(regularity._table[k], p) == _valuation(4**k - 1, p) == 2, k
        assert bernoulli(2 * k).numerator % p, k
    assert irregular_pairs(p) == fraction_irregular_pairs(p, bernoulli)


def test_irregular_pairs_are_genuine_divisibilities():
    for p, k in irregular_pairs(37) + irregular_pairs(59) + irregular_pairs(67):
        assert k % 2 == 0 and 2 <= k <= p - 3
        assert bernoulli(k).numerator % p == 0


# h^-_p for the primes 5 <= p <= 67 (Washington, Introduction to Cyclotomic Fields, GTM 83, tables)
RELATIVE_CLASS_NUMBERS = {
    **dict.fromkeys((5, 7, 11, 13, 17, 19), 1),
    **{23: 3, 29: 8, 31: 9, 37: 37, 41: 121, 43: 211, 47: 695, 53: 4889, 59: 41241, 61: 76301, 67: 853513},
}


@pytest.mark.parametrize("p,h", RELATIVE_CLASS_NUMBERS.items())
def test_relative_class_numbers(p, h):
    assert relative_class_number(p) == h


def test_irregular_exactly_when_p_divides_the_relative_class_number():
    for p in filter(is_prime, range(5, 450)):  # Kummer: p | h_p exactly when p | h^-_p
        assert (relative_class_number(p) % p == 0) == bool(irregular_pairs(p)), p


def test_irregular_pairs_rejects_bad_input():
    with pytest.raises(ValueError):
        irregular_pairs(4)
    with pytest.raises(ValueError):
        irregular_pairs(3)


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_small_primes_regular(p):
    report = is_regular_prime(p)
    assert report.regular and report.pairs == ()


@pytest.mark.parametrize("p", [37, 59, 67])
def test_known_irregular_primes(p):
    report = is_regular_prime(p)
    assert not report.regular
    assert report.pairs


def test_regular_iff_no_pairs():
    for p in (5, 7, 11, 37, 101, 103):
        report = is_regular_prime(p)
        assert report.regular == (len(report.pairs) == 0)


def test_is_regular_prime_rejects_composite():
    with pytest.raises(ValueError):
        is_regular_prime(15)


def test_concurrent_readers_see_consistent_table():
    results = [None] * 8
    expected = bernoulli(120)

    def worker(i):
        results[i] = (bernoulli(120), bernoulli(60), bernoulli(7))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == (expected, bernoulli(60), 0) for r in results)


def _cold_table():
    """Drop every computed Bernoulli number past B_0 and rewind the
    tangent column to column 0."""
    with regularity._lock:
        del regularity._table[1:]
        regularity._column.clear()


@pytest.mark.parametrize("order", ["ascending", "one_jump"])
def test_bernoulli_matches_recurrence_oracle(order):
    _cold_table()
    if order == "one_jump":
        bernoulli(600)
    for m in range(601):
        got, want = bernoulli(m), recurrence_bernoulli(m)
        assert got == want and type(got) is type(want), m


@pytest.mark.parametrize("order", ["ascending_primes", "one_jump"])
def test_table_matches_boustrophedon_oracle(order):
    _cold_table()
    if order == "ascending_primes":  # the regularity_scan workload's way: a few columns per call
        for p in filter(is_prime, range(5, 1204)):
            irregular_pairs(p)
    bernoulli(1200)
    assert regularity._table == [1, *boustrophedon_tangents(600)]
    nums, dens = tangent_bernoulli_table(600)
    for k, (num, den) in enumerate(zip(nums, dens)):  # the oracle reduces its own Fractions
        b = bernoulli(2 * k)
        assert (b.numerator, b.denominator) == (num, den), 2 * k


def test_irregular_pairs_never_call_bernoulli(monkeypatch):
    def no_bernoulli(m):
        raise AssertionError("irregular_pairs went through bernoulli")

    monkeypatch.setattr(regularity, "bernoulli", no_bernoulli)
    _cold_table()
    for p in (37, 59, 67, 101, 103):
        want = fraction_irregular_pairs(p, recurrence_bernoulli)
        assert want and irregular_pairs(p) == want, p
        assert len(regularity._table) == (p - 1) // 2, p  # B_0 through B_(p-3)


def test_table_extends_safely_from_threads():
    targets = (150, 300, 450, 600)
    _cold_table()
    serial = [bernoulli(m) for m in range(max(targets) + 1)]
    _cold_table()
    results = [None] * len(targets)
    start = threading.Barrier(len(targets), timeout=30)

    def work(slot):
        start.wait()
        bernoulli(targets[slot])
        results[slot] = [bernoulli(m) for m in range(max(targets) + 1)]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(targets))]
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
    assert results == [serial] * len(targets)


def test_table_grows_in_small_steps_from_threads():
    primes = list(filter(is_prime, range(5, 500)))
    _cold_table()
    serial = {p: irregular_pairs(p) for p in primes}
    _cold_table()
    workers = 4
    results = [{} for _ in range(workers)]
    start = threading.Barrier(workers, timeout=30)

    def work(slot):
        start.wait()
        for p in primes[slot::workers]:  # ascending, interleaved with the other threads
            results[slot][p] = irregular_pairs(p)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
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
    assert {p: pairs for result in results for p, pairs in result.items()} == serial
    assert len(regularity._column) == len(regularity._table) - 1


def test_sizes_checked_before_work():
    huge = 2**127 - 1  # prime; trial division of it does not end
    computed = len(regularity._table)
    start = time.monotonic()
    with pytest.raises(ValueError, match=f"index must be <= {MAX_INDEX}"):
        bernoulli(MAX_INDEX + 1)
    with pytest.raises(ValueError, match=f"index must be <= {MAX_INDEX}"):
        bernoulli(huge)
    for p in (MAX_INDEX + 4, huge):
        with pytest.raises(ValueError, match=rf"p must be <= {MAX_INDEX + 3}"):
            irregular_pairs(p)
        with pytest.raises(ValueError, match=rf"p must be <= {MAX_INDEX + 3}"):
            is_regular_prime(p)
    assert time.monotonic() - start < 1
    assert len(regularity._table) == computed


def test_odd_indices_and_the_ends_need_no_table():
    _cold_table()
    start = time.monotonic()
    odd = bernoulli(MAX_INDEX - 1)
    assert odd == 0 and type(odd) is Fraction
    with pytest.raises(ValueError, match=f"index must be <= {MAX_INDEX}"):
        bernoulli(MAX_INDEX + 1)
    for m in (0, 1):
        got, want = bernoulli(m), recurrence_bernoulli(m)
        assert got == want and type(got) is type(want), m
    assert time.monotonic() - start < 1
    assert len(regularity._table) == 1
