"""Published answers the benchmark checks the program against.

IRREGULAR_PAIRS maps every irregular prime p < 1000 to the even indices k,
2 <= k <= p - 3, with p | numerator(B_k).  Its keys are OEIS A000928 below
1000 (64 primes), as tabulated by Buhler, Crandall and Sompolski,
"Irregular primes to one million", Math. Comp. 59 (1992).  The indices
agree with Voronoi's congruence, which `voronoi_indices` evaluates without
any Bernoulli number; the smoke test re-derives part of the table that way.
"""

IRREGULAR_PAIRS = {
    37: (32,), 59: (44,), 67: (58,), 101: (68,), 103: (24,), 131: (22,), 149: (130,),
    157: (62, 110), 233: (84,), 257: (164,), 263: (100,), 271: (84,), 283: (20,),
    293: (156,), 307: (88,), 311: (292,), 347: (280,), 353: (186, 300),
    379: (100, 174), 389: (200,), 401: (382,), 409: (126,), 421: (240,), 433: (366,),
    461: (196,), 463: (130,), 467: (94, 194), 491: (292, 336, 338), 523: (400,),
    541: (86,), 547: (270, 486), 557: (222,), 577: (52,), 587: (90, 92), 593: (22,),
    607: (592,), 613: (522,), 617: (20, 174, 338), 619: (428,), 631: (80, 226),
    647: (236, 242, 554), 653: (48,), 659: (224,), 673: (408, 502), 677: (628,),
    683: (32,), 691: (12, 200), 727: (378,), 751: (290,), 757: (514,), 761: (260,),
    773: (732,), 797: (220,), 809: (330, 628), 811: (544,), 821: (744,), 827: (102,),
    839: (66,), 877: (868,), 881: (162,), 887: (418,), 929: (520, 820), 953: (156,),
    971: (166,),
}

TABLE_LIMIT = 1000


def primes_between(lo, hi):
    """Primes lo <= p <= hi by a sieve (the harness's own, not the program's)."""
    sieve = bytearray([1]) * (hi + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(hi**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [p for p in range(max(lo, 2), hi + 1) if sieve[p]]


def voronoi_indices(p):
    """Even k in [2, p-3] with p | numerator(B_k), by Voronoi's congruence

        (a^k - 1) B_k / k = a^(k-1) * sum_{j<p} j^(k-1) floor(j a / p)  (mod p)

    with the least a >= 2 for which a^k != 1 (mod p)."""
    out = []
    for k in range(2, p - 2, 2):
        a = 2
        while pow(a, k, p) == 1:
            a += 1
        if sum(pow(j, k - 1, p) * (j * a // p) for j in range(1, p)) % p == 0:
            out.append(k)
    return tuple(out)
