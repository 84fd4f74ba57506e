"""Exhaustive desk-scale search for Case I Fermat counterexamples.

For an odd prime p, searches x^p + y^p = z^p over 1 <= x <= y <= bound with
gcd(xyz, p) = 1.  Because p is odd, any solution in integers with xyz != 0
maps under sign flips and rearrangement to one in this box (negating a
variable negates its p-th power, so every sign pattern rearranges to a sum
of two positive p-th powers equal to a third), so the box search is
exhaustive up to the bound.

The optional pruning filter uses t^p = t (mod p): any solution has
z = z^p = x^p + y^p = x + y (mod p), so a pair with p | x + y would force
p | z and cannot yield a coprime solution.  `pruned_by_filter` counts these
pairs, with p prime to x and y, in closed form per residue class of x mod p
(`_pruned`): along the class each x has one such y fewer than the x before
it, so the class adds an arithmetic series.

Most pairs are ruled out without being looked at.  For each x one int bit
mask over y keeps the y that pass three sound sieves, all as whole-int
operations on masks stored in the table of the search:

- y prime to p and, with the filter, p not dividing x + y: one mask per
  residue of x mod p;
- for each auxiliary prime q = 1 (mod p) with q <= 2*bound + 1,
  x^p + y^p must be a p-th-power residue mod q, 0 included, as z^p is.  The
  y that pass have period q, and their mask is one list index by x mod q;
  the period-q patterns are cached per (p, q).  This is the auxiliary-prime
  argument behind Sophie Germain's theorem (Ribenboim, 13 Lectures on
  Fermat's Last Theorem, Lecture IV).  The search takes the first four
  such primes, and more while a cost model fitted to timings says that the
  pairs left to test cost more than another sieve (`_auxiliary_primes`);
- the size cut y <= top(x): z >= y + 1 needs (y+1)^p - y^p <= x^p.
  top(x) never decreases as x grows, so one pointer walk stores the window
  x..top(x) of every x.

The masks of consecutive x are combined by maps that walk the stored
lists in step with x, and only an x whose mask keeps some y is scanned
for its set bits.  Each y that survives is tested exactly:
z^p = x^p + y^p <= 2*y^p gives z <= 2^(1/p) * y, and z is found by
bisection in the list of p-th powers from the first x the size cut admits
up to the least Z with Z^p > 2*bound^p, starting from the z of the
previous y.  The search is partitionable over disjoint x-ranges with a
deterministic merge.

That power list, the auxiliary primes, the masks and the windows depend
on (p, bound) alone, so they are built once per search and shared by all
its x-range chunks, across threads.  The shared tables keep at most
MAX_POWER_BITS bits of powers and masks, the least recently used search
evicted first.
"""

from __future__ import annotations

import functools
import threading
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from itertools import cycle, islice, repeat
from operator import and_, rshift, sub
from typing import NamedTuple

from .regularity import is_regular_prime
from .errors import IrregularPrimeError
from .ntheory import check_odd_prime, is_prime

__all__ = [
    "MAX_BOUND",
    "MAX_POWER_BITS",
    "SearchReport",
    "case_i_search",
    "check_regular_and_search",
    "merge_reports",
]

# Largest accepted bound (a search covers bound*(bound+1)/2 pairs), and a
# limit on the size in bits of the p-th powers the search builds, estimated
# as 2*bound + 1 entries of p * bit_length(2*bound + 1) bits each (the list
# holds at most 2^(1/p) * bound + 1 of them).  The tables shared between
# searches keep at most as many bits in all.
MAX_BOUND, MAX_POWER_BITS = 10_000, 1 << 30

# The cost model by which _auxiliary_primes sizes the sieves, in steps of
# one x's mask ANDed with one sieve, fitted to cold case_i_search timings
# at bounds 360 to 10^4 (p = 3 to 101): a pair left to the exact test costs
# PAIR_STEPS, and building the sieve of a prime q costs BUILD_STEPS * q.
PAIR_STEPS, BUILD_STEPS = 20, 70


@dataclass(frozen=True)
class SearchReport:
    p: int
    bound: int
    candidates_examined: int
    pruned_by_filter: int
    solutions: tuple[tuple[int, int, int], ...]


def _check_search(p, bound):
    """Reject a box too large to search, before any trial division of p."""
    if not 0 <= bound <= MAX_BOUND:
        raise ValueError(f"bound must be in 0..{MAX_BOUND}")
    size = 2 * bound + 1
    if size * size.bit_length() * p > MAX_POWER_BITS:
        raise ValueError(f"p-th powers of 0..2*bound would exceed {MAX_POWER_BITS} bits")
    check_odd_prime(p)


def _auxiliary_primes(p, bound, windows):
    """The primes q = 1 (mod p) with q <= 2*bound + 1 that the search sieves
    by, ascending: the first four, then each next q for as long as the
    pairs that the sieves so far leave to the exact test cost more than the
    sieve of q (PAIR_STEPS, BUILD_STEPS).  The pairs left are estimated as
    those of the windows (`_windows`), times the share (p-1)(p-2)/p^2 that
    the filter keeps, times the share _passing(p, q)/q^2 of each sieve."""
    xs, qs = len(windows), []
    left, scale = sum(map(int.bit_length, windows)) * (p - 1) * (p - 2), p * p  # left / scale pairs
    for q in filter(is_prime, range(2 * p + 1, 2 * bound + 2, 2 * p)):
        if len(qs) >= 4 and left * PAIR_STEPS <= scale * (xs + BUILD_STEPS * q):
            break
        qs.append(q)
        left, scale = left * _passing(p, q), scale * q * q
    return qs


@functools.cache
def _residue_patterns(p, q):
    """(powers, patterns) for a prime q = 1 (mod p): powers[r] = r^p mod q
    for r = 0..q-1, and patterns = {a: bits} over the p-th-power residues a
    mod q, 0 included, where bit r of bits is set when a + r^p mod q is
    again such a residue, so a pair with x^p = a (mod q) can only be a
    solution when y mod q is a set bit."""
    powers = list(map(pow, range(q), repeat(p), repeat(q)))
    classes = {}
    for r, c in enumerate(powers):
        classes[c] = classes.get(c, 0) | 1 << r
    return powers, {a: sum(bits for c, bits in classes.items() if (a + c) % q in classes) for a in classes}


def _passing(p, q):
    """How many of the q^2 residue pairs (x, y) mod q the sieve of q keeps:
    the class 0 of x^p holds one residue x, and every other class p."""
    patterns = _residue_patterns(p, q)[1]
    return p * sum(map(int.bit_count, patterns.values())) - (p - 1) * patterns[0].bit_count()


def _periodic(bits, period, length):
    """bits, whose set bits lie below `period`, repeated with that period
    over at least `length` bits."""
    while period < length:
        bits |= bits << period
        period *= 2
    return bits


def _least(holds, lo, hi):
    """The least v in lo..hi with holds(v), else max(lo, hi + 1), by
    bisection; holds must be monotone (false, then true)."""
    hi += 1
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _powers(p, bound):
    """(x0, pth): x0 is the least x in 1..bound that the size cut admits,
    i.e. with (x+1)^p - x^p <= x^p (x0 > bound if there is none), and pth
    lists the p-th powers of x0..Z for the least Z with Z^p > 2*bound^p
    (Z > bound), or nothing when x0 > bound.  The cut is monotone in x, so
    a chunk lo..hi starts at max(lo, x0)."""
    x0 = _least(lambda x: (x + 1) ** p <= 2 * x**p, 1, bound)
    if x0 > bound:
        return x0, []
    limit = 2 * bound**p
    top_z = _least(lambda z: z**p > limit, bound + 1, 2 * bound)
    return x0, list(map(pow, range(x0, top_z + 1), repeat(p)))


def _windows(x0, pth, bound):
    """For x = x0..bound, the mask (1 << top(x) - x + 1) - 1 of the y in
    x..top(x), bit i for y = x + i, where top(x) is the largest y <= bound
    with (y+1)^p - y^p <= x^p.  That step grows with y and x^p with x, so
    top(x) is one pointer walk over the steps."""
    n = bound - x0 + 1
    steps = list(map(sub, pth[1 : n + 1], pth[:n]))  # steps[i]: y = x0 + i
    windows, top = [], 0  # top: the steps at most x^p, top(x) - x0 + 1
    for i, xp in enumerate(pth[:n]):
        while top < n and steps[top] <= xp:
            top += 1
        windows.append((1 << top - i) - 1)
    return windows


class _Table(NamedTuple):
    """What a search derives from (p, bound) alone:

    - x0 and pth, from `_powers`;
    - coprime, the mask of the y prime to p over bound + 1 + p bits;
    - sieves, (q, by_residue) for each auxiliary prime q: by_residue[r] is
      the y mask of an x = r (mod q), the period-q pattern of the class of
      r^p mod q expanded to bound + 1 bits, one int per class shared by
      the slots of its r;
    - filters, where filters[r] is the y mask of an x = r (mod p) under the
      filter, the y prime to p with p not dividing r + y; filters[0] is 0,
      as no x = 0 (mod p) is searched;
    - windows, from `_windows`."""

    x0: int
    pth: list
    coprime: int
    sieves: list
    filters: list
    windows: list

    def bits(self):
        """An upper bound on the bits the table holds: each distinct mask
        once, q.bit_length() bits per by_residue slot (enough to name its
        class), each filter and window, and the powers; like the masks and
        powers, the slots are counted without the interpreter's per-object
        overhead.  pth is not empty."""
        masks = self.coprime.bit_length() + sum(map(int.bit_length, self.filters + self.windows))
        for q, by_residue in self.sieves:
            masks += sum({id(m): m.bit_length() for m in by_residue}.values()) + q * q.bit_length()
        return masks + len(self.pth) * self.pth[-1].bit_length()


def _table(p, bound):
    x0, pth = _powers(p, bound)
    windows = _windows(x0, pth, bound)
    coprime = _periodic((1 << p) - 2, p, bound + 1 + p)
    sieves = []
    for q in _auxiliary_primes(p, bound, windows):
        powers, patterns = _residue_patterns(p, q)
        expanded = {a: _periodic(bits, q, bound + 1) for a, bits in patterns.items()}
        sieves.append((q, list(map(expanded.__getitem__, powers))))
    filters = [0, *(coprime & coprime >> r for r in range(1, p))]
    return _Table(x0, pth, coprime, sieves, filters, windows)


class _Tables:
    """A thread-safe cache of `_table` per (p, bound), keeping at most
    MAX_POWER_BITS bits (`_Table.bits`) and evicting the least recently used
    first; a table larger than that on its own is kept alone.  Tables are
    built outside the lock, so two threads may build the same one and the
    first inserted is kept."""

    def __init__(self):
        self._lock = threading.Lock()
        self._tables = OrderedDict()  # (p, bound) -> (bits, table), oldest first
        self.bits = 0

    def get(self, p, bound):
        key = p, bound
        with self._lock:
            if key in self._tables:
                self._tables.move_to_end(key)
                return self._tables[key][1]
        table = _table(p, bound)
        entry = table.bits(), table
        with self._lock:
            if self._tables.setdefault(key, entry) is entry:
                # summed apart, so a reader without the lock never sees a total above the limit
                bits = self.bits + entry[0]
                while bits > MAX_POWER_BITS and len(self._tables) > 1:
                    bits -= self._tables.popitem(last=False)[1][0]
                self.bits = bits
        return table


_TABLES = _Tables()


def _sieve(p, bound, use_filter, start, hi, table):
    """(x, ys) for each x in start..hi prime to p that keeps some y, where
    ys lists ascending the y in x..bound that pass every sieve: y prime to
    p, p not dividing x + y with the filter, x^p + y^p a p-th-power residue
    or 0 mod each auxiliary prime, and y <= top(x).  table is
    `_table(p, bound)` and start >= table.x0.  The masks of x run through
    the table's lists in step with x, all in maps."""
    x0, _, coprime, sieves, filters, windows = table
    xs = range(start, hi + 1)
    keep = filters if use_filter else [0, *repeat(coprime, p - 1)]
    masks = islice(cycle(keep), start % p, None)
    for q, by_residue in sieves:
        masks = map(and_, masks, islice(cycle(by_residue), start % q, None))
    for x, mask in zip(xs, map(and_, map(rshift, masks, xs), islice(windows, start - x0, None))):
        if mask:
            ys = []
            while mask:  # bit i of mask: y = x + i
                low = mask & -mask
                ys.append(x + low.bit_length() - 1)
                mask ^= low
            yield x, ys


def _pruned(p, bound, lo, hi):
    """The pairs the filter prunes for x in lo..hi (1 <= lo, hi <= bound):
    x and y in x..bound prime to p with y = -x (mod p).  Such an x = r
    (mod p), r != 0, has (bound - x - delta) // p + 1 of them, delta = -2r
    mod p: 0 for x > bound - delta, and one fewer than x - p had.  So each
    class of lo..hi adds an arithmetic series, and the count loops over the
    at most p residues of lo..hi alone."""
    count = 0
    for x in range(lo, min(hi, lo + p - 1) + 1):
        if x % p:
            t = (hi - x) // p + 1  # the x of the class in lo..hi
            count += t * ((bound - x - (-2 * x % p)) // p + 1) - t * (t - 1) // 2
    return count


def case_i_search(p: int, bound: int, use_filter: bool = True, x_range=None) -> SearchReport:
    """Search the box 1 <= x <= y <= bound for x^p + y^p = z^p with
    gcd(xyz, p) = 1.  `x_range = (lo, hi)` restricts x to a chunk for
    partitioned runs; every (x, y) pair in the box counts as a candidate
    whether or not it survives the coprimality screen or the filter.  The
    p-th powers and masks are built once per (p, bound) and shared by its
    chunks; at most MAX_POWER_BITS bits of them are kept in all.
    """
    _check_search(p, bound)
    lo, hi = x_range if x_range is not None else (1, bound)
    lo, hi = max(lo, 1), min(hi, bound)
    candidates = max(0, hi - lo + 1) * (2 * bound + 2 - lo - hi) // 2
    pruned = _pruned(p, bound, lo, hi) if use_filter else 0
    solutions = []
    # the cut is monotone in x, so a chunk whose last x it refuses needs no table
    if lo <= hi and (hi + 1) ** p <= 2 * hi**p:
        table = _TABLES.get(p, bound)
        x0, pth = table.x0, table.pth
        for x, ys in _sieve(p, bound, use_filter, max(lo, x0), hi, table):
            xp, z = pth[x - x0], x + 1 - x0
            for y in ys:
                s = xp + pth[y - x0]
                z = bisect_left(pth, s, z)  # z^p >= s, from the z of the last y
                if pth[z] == s and (z + x0) % p:
                    solutions.append((x, y, z + x0))
    return SearchReport(
        p=p,
        bound=bound,
        candidates_examined=candidates,
        pruned_by_filter=pruned,
        solutions=tuple(solutions),
    )


def merge_reports(reports) -> SearchReport:
    """Combine chunked reports from the same (p, bound) search."""
    reports = list(reports)
    if not reports:
        raise ValueError("nothing to merge")
    p, bound = reports[0].p, reports[0].bound
    if any(r.p != p or r.bound != bound for r in reports):
        raise ValueError("reports come from different searches")
    sols = sorted(t for r in reports for t in r.solutions)
    return SearchReport(
        p=p,
        bound=bound,
        candidates_examined=sum(r.candidates_examined for r in reports),
        pruned_by_filter=sum(r.pruned_by_filter for r in reports),
        solutions=tuple(sols),
    )


def check_regular_and_search(p: int, bound: int, use_filter: bool = True) -> SearchReport:
    """The regularity-gated pipeline: verify p is an odd regular prime,
    then run the box search; irregular primes are rejected with their
    irregular pairs named."""
    _check_search(p, bound)
    report = is_regular_prime(p)
    if not report.regular:
        raise IrregularPrimeError(p, report.pairs)
    return case_i_search(p, bound, use_filter=use_filter)
