"""The four benchmark workloads.

Each workload turns a seed into inputs, warms the caches it keeps warm, and
returns a `Job`: the ordered operations of one closed-loop pass and the
checks on their results.  Operations call cyclo through module attributes
at call time (``cyclo.cli.run``, ``cyclo.case_i_search``, ...) so that the
traced pass sees every call.  Every check compares against a published
answer or an algebraic identity; none of them is skipped or loosened.
"""

import contextlib
import io
import json
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce

import cyclo
import cyclo.cli
from expected import IRREGULAR_PAIRS, TABLE_LIMIT, primes_between


@dataclass
class Job:
    """One pass.  `ops[i]` is called with the list of earlier results; each
    check is (op indexes it covers, predicate on the results, reason)."""

    ops: list = field(default_factory=list)
    checks: list = field(default_factory=list)

    def op(self, fn):
        self.ops.append(fn)
        return len(self.ops) - 1

    def check(self, covered, predicate, reason):
        self.checks.append((tuple(covered), predicate, reason))


def _totient(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def _units_mod(n):
    return [k for k in range(1, n) if math.gcd(k, n) == 1]


# -- regularity_scan --------------------------------------------------------


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cyclo.cli.run(argv)
    return code, buf.getvalue()


def _pairs_answer(result, p, want):
    code, out = result
    if code != 0:
        return False
    doc = json.loads(out)
    return doc["inputs"] == {"p": p} and doc["result"]["pairs"] == [[p, k] for k in want]


def regularity_scan(seed, upto=450, irregular=IRREGULAR_PAIRS):
    """`cyclo pairs p --json` in-process for every prime 5 <= p <= upto, in
    ascending order, from a cold Bernoulli table.  The job list is fixed, so
    the seed does not change it."""
    if upto >= TABLE_LIMIT:
        raise ValueError(f"the irregular-pairs table covers p < {TABLE_LIMIT}")
    job = Job()
    for p in primes_between(5, upto):
        i = job.op(lambda r, p=p: _run_cli(["pairs", str(p), "--json"]))
        want = irregular.get(p, ())
        job.check(
            (i,),
            lambda r, i=i, p=p, want=want: _pairs_answer(r[i], p, want),
            f"pairs {p} != {want} (A000928)",
        )
    return job


# -- case1_search -----------------------------------------------------------


def _chunk_bounds(rng, bound, chunks):
    """Cut 1..bound into `chunks` x-ranges of roughly equal candidate count
    (x contributes bound - x + 1 candidates), each cut jittered by the seed."""
    total = bound * (bound + 1) // 2
    cuts = [(i + rng.uniform(-0.15, 0.15)) * total / chunks for i in range(1, chunks)]
    bounds, lo, acc = [], 1, 0
    for x in range(1, bound + 1):
        acc += bound - x + 1
        if cuts and acc >= cuts[0]:
            bounds.append((lo, x))
            lo = x + 1
            cuts.pop(0)
    bounds.append((lo, bound))
    return bounds


def _expected_pruned(p, bound):
    """Pairs x <= y <= bound, both prime to p, with p | x + y."""
    count = 0
    for x in range(1, bound + 1):
        if x % p:
            first = x + (-2 * x) % p  # least y >= x with y = -x (mod p)
            if first <= bound:
                count += (bound - first) // p + 1
    return count


def _search_answer(reports, p, bound):
    merged = cyclo.merge_reports(reports)
    return (
        merged == cyclo.case_i_search(p, bound)
        and merged.candidates_examined == bound * (bound + 1) // 2
        and merged.pruned_by_filter == _expected_pruned(p, bound)
        and merged.solutions == ()
    )


def case1_search(seed, primes=(5, 7, 11, 13), bound=360, chunks=16):
    """`case_i_search` for each p, one seed-chosen x-range chunk per
    operation, the chunks of all primes in seed-shuffled order."""
    rng = random.Random(seed)
    plan = [(p, xr) for p in primes for xr in _chunk_bounds(rng, bound, chunks)]
    rng.shuffle(plan)
    job = Job()
    for p, xr in plan:
        job.op(lambda r, p=p, xr=xr: cyclo.case_i_search(p, bound, x_range=xr))
    for p in primes:
        idx = [i for i, (q, _) in enumerate(plan) if q == p]
        job.check(
            idx,
            lambda r, idx=idx, p=p: _search_answer([r[i] for i in idx], p, bound),
            f"case1 p={p} bound={bound}: merged chunks != unchunked run, "
            "candidates != B(B+1)/2, pruned count wrong, or a solution",
        )
    return job


# -- field_ops --------------------------------------------------------------


def _field_conductors(max_phi):
    # n = 2 (mod 4) gives the same field as n/2, so those conductors are left out
    return [n for n in range(3, 4 * max_phi) if n % 4 != 2 and _totient(n) <= max_phi]


def _rand_vec(rng, d, lo=-9, hi=9):
    while True:
        v = [rng.randint(lo, hi) for _ in range(d)]
        if any(v):
            return v


def _cyclotomic_unit(rng, p, factors=2):
    """Coordinates of +-zeta^j * prod (1 - zeta^a)/(1 - zeta) in Z[zeta_p],
    multiplied out in Z[x]/(x^p - 1) and folded by 1 + x + ... + x^(p-1) = 0.
    The number of factors is fixed, which keeps the work nearly the same from
    seed to seed."""
    poly = [0] * p
    poly[rng.randrange(p)] = rng.choice((1, -1))
    for _ in range(factors):
        a = rng.randint(2, p - 1)
        factor = [1] * a + [0] * (p - a)  # 1 + x + ... + x^(a-1)
        poly = [sum(poly[i] * factor[(k - i) % p] for i in range(p)) for k in range(p)]
    top = poly[p - 1]
    return [c - top for c in poly[: p - 1]]


def _warm(n):
    cyclo.CycElt.zeta(n) * cyclo.CycElt.zeta(n)  # fills the Phi_n and reduction-row caches


def _decomposition_holds(dec, u):
    x, m = dec.x, dec.m
    return (
        0 <= m < u.n
        and x.is_integral()
        and x.conj() == x
        and abs(x.norm()) == 1
        and x * cyclo.CycElt.zeta(u.n, m) == u
    )


def field_ops(seed, max_phi=48, groups_per_conductor=1, max_unit_prime=47):
    """Seeded ring operations over every conductor with phi(n) <= max_phi,
    caches warm, no inversion outside `decompose_unit`.  Each group of
    operations is checked by identities between its own results."""
    rng = random.Random(seed)
    job = Job()
    op, check = job.op, job.check
    for n in _field_conductors(max_phi):
        d = _totient(n)
        _warm(n)
        for _ in range(groups_per_conductor):
            a = cyclo.CycElt(n, _rand_vec(rng, d))
            b = cyclo.CycElt(n, _rand_vec(rng, d))
            k = rng.choice(_units_mod(n)[1:] or [1])
            add = op(lambda r, a=a, b=b: a + b)
            mul = op(lambda r, a=a, b=b: a * b)
            gal = op(lambda r, a=a, k=k: a.galois(k))
            conj = op(lambda r, b=b: b.conj())
            na = op(lambda r, a=a: a.norm())
            nb = op(lambda r, b=b: b.norm())
            nab = op(lambda r, i=mul: r[i].norm())
            ngal = op(lambda r, i=gal: r[i].norm())
            nconj = op(lambda r, i=conj: r[i].norm())
            ta = op(lambda r, a=a: a.trace())
            tb = op(lambda r, b=b: b.trace())
            tab = op(lambda r, i=add: r[i].trace())
            unit = op(lambda r, a=a: a.is_unit())
            check((mul, na, nb, nab), lambda r, i=(nab, na, nb): r[i[0]] == r[i[1]] * r[i[2]],
                  f"N(ab) != N(a)N(b) at n={n}")
            check((gal, na, ngal), lambda r, i=(ngal, na): r[i[0]] == r[i[1]],
                  f"N(galois(a)) != N(a) at n={n}")
            check((conj, nb, nconj), lambda r, i=(nconj, nb): r[i[0]] == r[i[1]],
                  f"N(conj(b)) != N(b) at n={n}")
            check((add, ta, tb, tab), lambda r, i=(tab, ta, tb): r[i[0]] == r[i[1]] + r[i[2]],
                  f"Tr(a+b) != Tr(a)+Tr(b) at n={n}")
            check((unit, na), lambda r, i=(unit, na): r[i[0]] == (abs(r[i[1]]) == 1),
                  f"is_unit(a) disagrees with N(a) at n={n}")
    for p in primes_between(5, max_unit_prime):
        for _ in range(groups_per_conductor):
            u = cyclo.CycElt(p, _cyclotomic_unit(rng, p))
            x, y = rng.randint(1, 40), rng.randint(1, 40)
            is_unit = op(lambda r, u=u: u.is_unit())
            dec = op(lambda r, u=u: cyclo.decompose_unit(u))
            fac = op(lambda r, x=x, y=y, p=p:
                     reduce(operator.mul, cyclo.factor_sum_pth_powers(x, y, p)))
            want = (x**p + y**p,) + (0,) * (p - 2)
            check((is_unit,), lambda r, i=is_unit: r[i] is True,
                  f"cyclotomic unit of Z[zeta_{p}] not a unit")
            check((dec,), lambda r, i=dec, u=u: _decomposition_holds(r[i], u),
                  f"decompose_unit postcondition fails at p={p}")
            check((fac,), lambda r, i=fac, want=want: r[i].coeffs == want,
                  f"product of the factors != {x}^{p} + {y}^{p}")
    return job


# -- field_inverse ----------------------------------------------------------

# conductor -> rounds; a round is an integer inverse, a p/q inverse and a quotient
INVERSE_ROUNDS = {n: 1 for n in (21, 28, 35, 39, 40, 44, 45, 52, 56, 60, 63, 72, 84)}


def _fixed_size_vec(rng, d, den=1):
    """Coordinates with seeded signs and magnitudes 5..9; position i gets
    the denominator 1 + i % den.  Inversion cost grows with coordinate size,
    so bounding the sizes both ways keeps the work nearly the same from seed
    to seed."""
    return [Fraction(rng.choice((-1, 1)) * rng.randint(5, 9), 1 + i % den) for i in range(d)]


def field_inverse(seed, rounds=INVERSE_ROUNDS):
    """Inverses and quotients at 21 <= n <= 84, integer and p/q coordinates."""
    rng = random.Random(seed)
    job = Job()
    for n, count in rounds.items():
        d = _totient(n)
        _warm(n)
        one = (1,) + (0,) * (d - 1)
        for _ in range(count):
            for den in (1, 3):
                a = cyclo.CycElt(n, _fixed_size_vec(rng, d, den=den))
                i = job.op(lambda r, a=a: a.inverse())
                job.check((i,), lambda r, i=i, a=a, one=one: (r[i] * a).coeffs == one,
                          f"a * a^-1 != 1 at n={n}")
            num = cyclo.CycElt(n, _fixed_size_vec(rng, d))
            den = cyclo.CycElt(n, _fixed_size_vec(rng, d, den=3))
            i = job.op(lambda r, num=num, den=den: num / den)
            job.check((i,), lambda r, i=i, num=num, den=den: r[i] * den == num,
                      f"(a / b) * b != a at n={n}")
    return job


WORKLOADS = {
    "regularity_scan": regularity_scan,
    "case1_search": case1_search,
    "field_ops": field_ops,
    "field_inverse": field_inverse,
}

# sizes for the smoke test: every workload finishes in well under a second
TINY = {
    "regularity_scan": dict(upto=70),
    "case1_search": dict(primes=(5, 7), bound=40, chunks=4),
    "field_ops": dict(max_phi=6, groups_per_conductor=1, max_unit_prime=7),
    "field_inverse": dict(rounds={21: 1, 28: 1}),
}
