import math
import random
import sys
import threading

import pytest

from cyclo.errors import IrregularPrimeError
from cyclo import fermat
from cyclo.fermat import (
    MAX_BOUND,
    MAX_POWER_BITS,
    case_i_search,
    check_regular_and_search,
    merge_reports,
)
from oracles import (
    bisection_case_i_search,
    per_x_pruned,
    perfect_pth_root,
    pointer_walk_case_i_search,
    power_keyed_sieves,
    power_lookup_sieve,
    walked_tops,
)


@pytest.mark.parametrize("s,p,expected", [(32, 5, 2), (33, 5, None), (1, 7, 1)])
def test_perfect_pth_root_examples(s, p, expected):
    assert perfect_pth_root(s, p) == expected


def test_perfect_pth_root_rejects_nonpositive():
    with pytest.raises(ValueError):
        perfect_pth_root(0, 5)


def test_perfect_pth_root_exhaustive():
    for p in (3, 5, 7, 11):
        for z in range(1, 101):
            assert perfect_pth_root(z**p, p) == z
            if z >= 2:
                assert perfect_pth_root(z**p - 1, p) is None
                assert perfect_pth_root(z**p + 1, p) is None


@pytest.mark.parametrize("p,bound", [(3, 10), (5, 20)])
def test_search_finds_nothing(p, bound):
    for use_filter in (True, False):
        report = case_i_search(p, bound, use_filter=use_filter)
        assert report.solutions == ()


def test_search_empty_range():
    report = case_i_search(7, 0)
    assert report.candidates_examined == 0
    assert report.pruned_by_filter == 0
    assert report.solutions == ()


def test_search_rejects_even_or_composite_p():
    with pytest.raises(ValueError, match="odd prime"):
        case_i_search(2, 10)
    with pytest.raises(ValueError, match="odd prime"):
        case_i_search(9, 10)


def test_candidate_count_is_closed_form():
    for p in (3, 5):
        for bound in (0, 1, 7, 20):
            for use_filter in (True, False):
                report = case_i_search(p, bound, use_filter=use_filter)
                assert report.candidates_examined == bound * (bound + 1) // 2


def test_filter_soundness():
    for p in (3, 5, 7):
        bound = 15
        filtered = case_i_search(p, bound, use_filter=True)
        unfiltered = case_i_search(p, bound, use_filter=False)
        assert filtered.solutions == unfiltered.solutions == ()
        assert unfiltered.pruned_by_filter == 0
        # re-derive the pruned set and show each pruned pair has no Case I z
        pruned = [
            (x, y)
            for x in range(1, bound + 1)
            for y in range(x, bound + 1)
            if x % p and y % p and (x + y) % p == 0
        ]
        assert len(pruned) == filtered.pruned_by_filter
        for x, y in pruned:
            z = perfect_pth_root(x**p + y**p, p)
            assert z is None or math.gcd(z, p) != 1
            if z is not None:
                assert (x + y - z) % p != 0 or z % p == 0


def test_partitioned_search_merges_to_whole():
    full = case_i_search(5, 18)
    chunks = [case_i_search(5, 18, x_range=(lo, lo + 5)) for lo in (1, 7, 13)]
    assert merge_reports(chunks) == full
    # degenerate chunking
    assert merge_reports([full]) == full


def test_merge_rejects_mixed_reports():
    with pytest.raises(ValueError):
        merge_reports([case_i_search(5, 10), case_i_search(7, 10)])
    with pytest.raises(ValueError):
        merge_reports([])


def test_pipeline_accepts_regular_prime():
    report = check_regular_and_search(5, 20)
    assert report.solutions == ()
    assert report.candidates_examined == 210


def test_pipeline_rejects_irregular_prime():
    with pytest.raises(IrregularPrimeError, match=r"37 is irregular: pairs \(37, 32\)"):
        check_regular_and_search(37, 10)


def test_pipeline_rejects_two():
    with pytest.raises(ValueError, match="odd prime required"):
        check_regular_and_search(2, 10)


X_RANGES = [None, (1, 1), (3, 9), (-4, 2), (0, 100), (12, 40), (9, 3), (41, 60)]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101])
def test_search_matches_bisection_oracle(p):
    # No Case I solution exists, so this pins the counters and that z stays
    # inside the power list for every box and chunk, against both oracles.
    # The chunk edges sit on each side of the first x the size cut admits,
    # which ends the chunks that build no power list; 101 has no auxiliary
    # prime in these boxes.
    for bound in (0, 1, 2, 3, 6, 13, 27, 40):
        first = fermat._powers(p, bound)[0]
        edges = [(first - 1, first - 1), (first, first), (1, first - 1), (first, bound)]
        for use_filter in (True, False):
            for x_range in X_RANGES + edges:
                got = case_i_search(p, bound, use_filter=use_filter, x_range=x_range)
                want = bisection_case_i_search(p, bound, use_filter=use_filter, x_range=x_range)
                assert got == want, (p, bound, use_filter, x_range)
                assert got == pointer_walk_case_i_search(p, bound, use_filter, x_range)


def test_search_size_checked_before_work():
    for bound in (MAX_BOUND + 1, 10**8, 10**30, -1):
        with pytest.raises(ValueError, match=f"bound must be in 0..{MAX_BOUND}"):
            case_i_search(5, bound)
        with pytest.raises(ValueError, match=f"bound must be in 0..{MAX_BOUND}"):
            check_regular_and_search(5, bound)
    # a huge p is refused before its trial division or any power is built
    huge_prime = 2**127 - 1
    for bound in (0, 2):
        with pytest.raises(ValueError, match=str(MAX_POWER_BITS)):
            case_i_search(huge_prime, bound)
        with pytest.raises(ValueError, match=str(MAX_POWER_BITS)):
            check_regular_and_search(huge_prime, bound)
    assert case_i_search(3, MAX_BOUND, x_range=(MAX_BOUND, MAX_BOUND)).candidates_examined == 1


# -- the sieve ------------------------------------------------------------------


def _aux_primes_brute(p, bound):
    """Every prime q = 1 (mod p) with q <= 2*bound + 1, by trial division."""
    return [q for q in range(3, 2 * bound + 2) if q % p == 1 and all(q % d for d in range(2, math.isqrt(q) + 1))]


def _auxiliary_primes(p, bound):
    """The auxiliary primes of the (p, bound) search."""
    return fermat._auxiliary_primes(p, bound, fermat._windows(*fermat._powers(p, bound), bound))


SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_residue_patterns_match_brute_force(p):
    # the auxiliary primes at the bound cap, class by class
    qs = _auxiliary_primes(p, MAX_BOUND)
    assert len(qs) >= 4 and qs == _aux_primes_brute(p, 40 * p)[: len(qs)]
    for q in qs:
        residues = {pow(r, p, q) for r in range(q)}
        powers, patterns = fermat._residue_patterns(p, q)
        assert powers == [pow(r, p, q) for r in range(q)]
        assert set(patterns) == residues
        assert 0 in residues and len(residues) == (q - 1) // p + 1
        for a, bits in patterns.items():
            assert bits < 1 << q
            want = {r for r in range(q) if (a + pow(r, p, q)) % q in residues}
            assert {r for r in range(q) if bits >> r & 1} == want, (p, q, a)
        # the expanded mask keeps the period
        for a, bits in patterns.items():
            wide = fermat._periodic(bits, q, 5 * q + 3)
            assert all((wide >> y & 1) == (bits >> (y % q) & 1) for y in range(5 * q + 3))


def test_auxiliary_primes_stay_below_twice_the_bound():
    assert _auxiliary_primes(5, 360) == [11, 31, 41, 61]
    assert _auxiliary_primes(101, 302) == []  # 607 = 6 * 101 + 1 is the first
    assert _auxiliary_primes(101, 303) == [607]
    assert _auxiliary_primes(3571, MAX_BOUND) == []  # 7143 and 14285 are composite
    for p in SMALL_PRIMES:
        for bound in (0, 1, 5, 17, 60):
            assert _auxiliary_primes(p, bound) == _aux_primes_brute(p, bound)[:4]


def test_auxiliary_primes_are_a_prefix_of_every_candidate():
    # the fitted rule takes at least the first four primes, in order, and
    # never skips one
    for p in SMALL_PRIMES + [37, 101]:
        for bound in (0, 1, 5, 17, 60, 150, 360, 1000, 3000, MAX_BOUND):
            qs, every = _auxiliary_primes(p, bound), _aux_primes_brute(p, bound)
            assert qs == every[: len(qs)] and len(qs) >= min(4, len(every)), (p, bound)


def test_auxiliary_prime_counts_of_the_fit():
    # four at bound 360 for the benchmark's primes, more in the larger
    # boxes of small p, where the pairs left dominate, and four for 37 at
    # the cap, where its next prime, 1481, costs more than it saves
    assert [len(_auxiliary_primes(p, 360)) for p in (5, 7, 11, 13)] == [4, 4, 4, 4]
    assert [len(_auxiliary_primes(p, MAX_BOUND)) for p in (3, 5, 7, 37)] == [10, 7, 7, 4]


def _brute_survivors(p, bound, use_filter, lo, hi):
    """{x: ys} of every pair in the box that each sieve keeps, pair by pair."""
    qs = _auxiliary_primes(p, bound)
    residues = {q: {pow(r, p, q) for r in range(q)} for q in qs}
    out = {}
    for x in range(max(lo, 1), min(hi, bound) + 1):
        ys = [
            y
            for y in range(x, bound + 1)
            if x % p
            and y % p
            and not (use_filter and (x + y) % p == 0)
            and all((x**p + y**p) % q in residues[q] for q in qs)
            and (y + 1) ** p - y**p <= x**p
        ]
        if ys:
            out[x] = ys
    return out


def _survivors(p, bound, use_filter, lo, hi):
    lo, hi = max(lo, 1), min(hi, bound)
    table = fermat._table(p, bound)
    return dict(fermat._sieve(p, bound, use_filter, max(lo, table.x0), hi, table))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101])
def test_sieve_keeps_exactly_the_pairs_each_test_keeps(p):
    # the masks against the pair-by-pair tests, so a pair the cut drops has
    # (y+1)^p - y^p > x^p, and a pair it keeps does not
    bounds = (0, 1, 5, 13, 40, 90) + ((310,) if p == 101 else ())
    for bound in bounds:
        for use_filter in (True, False):
            for lo, hi in [(1, bound), (1, 1), (7, 30), (29, 29), (bound, bound)]:
                got = _survivors(p, bound, use_filter, lo, hi)
                assert got == _brute_survivors(p, bound, use_filter, lo, hi), (p, bound, lo, hi)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101])
def test_sieve_matches_power_lookup_sieve(p):
    # the masks indexed by x mod q, and only nonzero masks scanned, against
    # the lookup by x^p mod q that scans every x
    for bound in (5, 40, 150, 360):
        table = fermat._table(p, bound)
        sieves = power_keyed_sieves(p, bound, [q for q, _ in table.sieves])
        for use_filter in (True, False):
            for lo, hi in [(1, bound), (7, min(30, bound)), (bound - 2, bound)]:
                start = max(lo, table.x0)
                got = list(fermat._sieve(p, bound, use_filter, start, hi, table))
                want = power_lookup_sieve(p, bound, use_filter, start, hi, *table[:3], sieves)
                assert got == list(want), (p, bound, use_filter, lo, hi)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101])
def test_residue_lists_match_power_lookup(p):
    for bound in (40, 360, 1000):
        table = fermat._table(p, bound)
        sieves = power_keyed_sieves(p, bound, [q for q, _ in table.sieves])
        assert len(sieves) == len(table.sieves) == len(_auxiliary_primes(p, bound))
        for (q, by_residue), (_, masks) in zip(table.sieves, sieves):
            assert len(by_residue) == q
            for x in range(3 * q + 1):
                assert by_residue[x % q] & (1 << bound + 1) - 1 == masks[pow(x, p, q)], (p, bound, q, x)
            # one int per class, shared by the slots of its residues
            assert len({id(m) for m in by_residue}) == len(masks)
        if table.pth:
            distinct = [{id(m): m for m in by_residue}.values() for _, by_residue in table.sieves]
            held = sum(m.bit_length() for masks in distinct for m in masks)
            held += table.coprime.bit_length() + sum(v.bit_length() for v in table.pth)
            assert table.bits() >= held


@pytest.mark.parametrize("p", SMALL_PRIMES + [101])
def test_stored_cut_matches_its_definition(p):
    # top(x) read off each stored window: the largest y <= bound with
    # (y+1)^p - y^p <= x^p, and what a chunk's own walk from its start gave
    for bound in (0, 1, 5, 40, 360, MAX_BOUND):
        table = fermat._table(p, bound)
        x0, xs = table.x0, range(table.x0, bound + 1)
        assert len(table.windows) == len(xs)
        tops = [x + w.bit_length() - 1 for x, w in zip(xs, table.windows)]
        for x, w, top in zip(xs, table.windows, tops):
            assert w == (1 << top - x + 1) - 1 and x <= top <= bound, (p, bound, x)
            assert (top + 1) ** p - top**p <= x**p, (p, bound, x)
            assert top == bound or (top + 2) ** p - (top + 1) ** p > x**p, (p, bound, x)
        for start in xs[:: max(1, len(xs) // 3)]:
            assert tops[start - x0 :] == walked_tops(start, bound, x0, table.pth, bound), (p, bound, start)


def test_chunks_far_above_the_first_x_match_the_whole_search(monkeypatch):
    # each chunk reads its cut from the table, where it used to walk the
    # pointer up from its own start
    monkeypatch.setattr(fermat, "_TABLES", fermat._Tables())
    for p, bound in [(3, 150), (5, 360), (7, 360), (13, 360), (37, 1000), (101, 400)]:
        x0 = fermat._powers(p, bound)[0]
        cuts = [x0 + (bound - x0) * k // 6 for k in range(1, 6)]
        chunks = [(1, x0), *zip([x0 + 1, *(c + 1 for c in cuts)], [*cuts, bound])]
        chunks += [(bound - 1, bound - 1), (bound, bound + 4)]
        for use_filter in (True, False):
            reports = [case_i_search(p, bound, use_filter, xr) for xr in chunks]
            assert merge_reports(reports[:-2]) == case_i_search(p, bound, use_filter), (p, bound)
            for xr, report in zip(chunks[3:], reports[3:]):
                assert report == pointer_walk_case_i_search(p, bound, use_filter, xr), (p, bound, xr)


def test_table_bits_bound_every_field():
    # every int a table holds, each object once, against bits(); a field
    # added to _Table fails the first assert until bits() and this count it
    for p, bound in [(3, 40), (5, 360), (13, 1000), (101, 400), (3571, 5200)]:
        table = fermat._table(p, bound)
        assert table._fields == ("x0", "pth", "coprime", "sieves", "filters", "windows")
        held = [table.x0, *table.pth, table.coprime, *table.filters, *table.windows]
        held += [v for q, by_residue in table.sieves for v in (q, *by_residue)]
        assert table.bits() >= sum(v.bit_length() for v in {id(v): v for v in held}.values()), (p, bound)


def _pruned_ranges(rng, p, bound):
    """Chunks that are empty, reversed, a single x, at or past the bound,
    and seeded ones that cross residue classes of p."""
    fixed = [None, (1, bound), (0, 0), (-7, -1), (5, 4), (bound, 1), (1, 1), (bound, bound)]
    fixed += [(bound, bound + 9), (bound + 1, bound + 9), (bound - 1, bound + 3)]
    seeded = []
    for _ in range(6):
        lo = rng.randint(-3, bound + 3)
        seeded.append((lo, lo + rng.randint(-1, 3 * p)))
    return fixed + seeded


def test_pruned_count_matches_per_x_loop():
    rng = random.Random(1715)
    for p in (3, 5, 7, 11, 13, 101, 3571):
        for bound in [*range(61), 360, MAX_BOUND]:
            for x_range in _pruned_ranges(rng, p, bound):
                lo, hi = x_range if x_range is not None else (1, bound)
                got = fermat._pruned(p, bound, max(lo, 1), min(hi, bound))
                assert got == per_x_pruned(p, bound, x_range), (p, bound, x_range)
    # through the search, filter on and off, where no table is built
    for x_range in [None, (3, 60), (61, 200)]:
        assert case_i_search(3571, 360, x_range=x_range).pruned_by_filter == per_x_pruned(3571, 360, x_range)
        assert case_i_search(3571, 360, use_filter=False, x_range=x_range).pruned_by_filter == 0


def test_size_cut_drops_only_pairs_too_far_apart():
    for p in (3, 5, 7, 11, 13):
        bound = 150
        kept = _survivors(p, bound, False, 1, bound)
        for x in range(1, bound + 1):
            for y in range(x, bound + 1):
                if y not in kept.get(x, ()) and x % p and y % p and (y + 1) ** p - y**p <= x**p:
                    # dropped by a residue sieve, never by the cut
                    assert any(
                        (x**p + y**p) % q not in {pow(r, p, q) for r in range(q)}
                        for q in _auxiliary_primes(p, bound)
                    ), (p, x, y)
        for x, ys in kept.items():
            assert all((y + 1) ** p - y**p <= x**p for y in ys)


def test_powers_start_at_the_cut_and_end_past_every_z():
    for p in (3, 5, 7, 13, 101):
        for bound in (1, 4, 10, 60, 200):
            x0, pth = fermat._powers(p, bound)
            for lo, hi in [(1, bound), (3, min(8, bound)), (bound, bound)]:
                # a chunk starts at max(lo, x0), the first x of lo..hi the cut admits
                admitted = [x for x in range(lo, hi + 1) if (x + 1) ** p - x**p <= x**p]
                assert max(lo, x0) == admitted[0] if admitted else max(lo, x0) > hi
            if x0 > bound:
                assert pth == []
                continue
            top_z = x0 + len(pth) - 1
            assert pth == [v**p for v in range(x0, top_z + 1)]
            assert (top_z - 1) ** p <= 2 * bound**p < top_z**p and top_z > bound


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101])
def test_search_matches_pointer_walk_in_larger_boxes(p):
    # every auxiliary prime is in play here (for 101, 607 from bound 303 on)
    for bound in (150, 310):
        for use_filter in (True, False):
            for x_range in [None, (1, 75), (76, bound), (bound - 3, bound + 3)]:
                got = case_i_search(p, bound, use_filter=use_filter, x_range=x_range)
                assert got == pointer_walk_case_i_search(p, bound, use_filter, x_range), (bound, x_range)


def test_residue_patterns_cache_is_thread_safe(monkeypatch):
    serial = [case_i_search(p, 120) for p in (7, 11, 13)]
    fermat._residue_patterns.cache_clear()
    monkeypatch.setattr(fermat, "_TABLES", fermat._Tables())
    results = [None] * 4
    barrier = threading.Barrier(len(results), timeout=30)

    def work(slot):
        barrier.wait()
        results[slot] = [case_i_search(p, 120) for p in (7, 11, 13)]

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


# -- the tables shared by a search's chunks --------------------------------------


def _seeded_chunks(rng, bound, pieces):
    """x-ranges that cover 1..bound, the outer ones reaching past it."""
    cuts = sorted(rng.sample(range(1, bound), pieces - 1))
    edges = [-3] + cuts + [bound + 5]
    return [(a + 1 if i else a, b) for i, (a, b) in enumerate(zip(edges, edges[1:]))]


def _retained_bits(tables):
    return sum(bits for bits, _ in tables._tables.values())


def test_interleaved_chunks_of_different_searches_merge_to_the_whole(monkeypatch):
    monkeypatch.setattr(fermat, "_TABLES", fermat._Tables())
    rng = random.Random(2027)
    searches = [(p, bound) for p in (3, 5, 7, 13, 101) for bound in (150, 310)]
    plan = [(s, xr) for s in searches for xr in _seeded_chunks(rng, s[1], 6)]
    rng.shuffle(plan)
    reports = {s: [] for s in searches}
    for (p, bound), xr in plan:
        reports[p, bound].append(case_i_search(p, bound, x_range=xr))
    for (p, bound), chunks in reports.items():
        merged = merge_reports(chunks)
        assert merged == case_i_search(p, bound) == pointer_walk_case_i_search(p, bound), (p, bound)


def test_shared_tables_under_thread_stress(monkeypatch):
    searches = [(p, bound) for p in (3, 5, 7, 13) for bound in (90, 150)]
    serial = {s: case_i_search(*s) for s in searches}
    # a limit every search passes, too small to keep every table, so they are evicted
    limit = max(p * (2 * bound + 1) * (2 * bound + 1).bit_length() for p, bound in searches)
    sizes = [fermat._table(*s).bits() for s in searches]
    assert max(sizes) <= limit < sum(sizes)
    tables = fermat._Tables()
    monkeypatch.setattr(fermat, "_TABLES", tables)
    monkeypatch.setattr(fermat, "MAX_POWER_BITS", limit)
    results = [None] * 6
    over = []
    barrier = threading.Barrier(len(results), timeout=30)

    def work(slot):
        rng = random.Random(slot)
        plan = [(s, xr) for s in searches for xr in _seeded_chunks(rng, s[1], 5)]
        rng.shuffle(plan)
        got = {s: [] for s in searches}
        barrier.wait()
        for s, xr in plan:
            got[s].append(case_i_search(*s, x_range=xr))
            if tables.bits > limit:
                over.append(tables.bits)
        results[slot] = {s: merge_reports(chunks) for s, chunks in got.items()}

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(results))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [serial] * len(results)
    assert over == [] and tables.bits == _retained_bits(tables) <= limit
    assert len(tables._tables) < len(searches)


class _RecordingTables(fermat._Tables):
    """`_Tables` that records every value assigned to `bits`, with the
    number of tables kept at that moment."""

    def __init__(self):
        self.assigned = []
        super().__init__()

    @property
    def bits(self):
        return self._bits

    @bits.setter
    def bits(self, value):
        self._bits = value
        self.assigned.append((value, len(self._tables)))


def test_tables_never_show_a_total_above_the_limit(monkeypatch):
    # a limit that holds the first two tables but not (7, 60) alone, which
    # the size check still admits: no value assigned to bits exceeds it
    # unless that table is kept alone
    searches = [(3, 40), (5, 40), (3, 20), (7, 60), (3, 40), (5, 40), (3, 40)]
    sizes = {s: fermat._table(*s).bits() for s in searches}
    limit = sizes[3, 40] + sizes[5, 40]
    size = 2 * 60 + 1
    assert 7 * size * size.bit_length() <= limit < sizes[7, 60]
    tables = _RecordingTables()
    monkeypatch.setattr(fermat, "_TABLES", tables)
    monkeypatch.setattr(fermat, "MAX_POWER_BITS", limit)
    for p, bound in searches:
        assert case_i_search(p, bound) == pointer_walk_case_i_search(p, bound)
        assert tables.bits == _retained_bits(tables) and list(tables._tables)[-1] == (p, bound)
    assert tables.assigned[0] == (0, 0) and len(tables.assigned) == len(searches)  # the last one is a hit
    assert [v for v, kept in tables.assigned if v > limit] == [sizes[7, 60]]
    assert all(v <= limit or kept == 1 for v, kept in tables.assigned)


def test_tables_at_the_bound_cap_stay_within_the_bit_limit(monkeypatch):
    tables = fermat._Tables()
    monkeypatch.setattr(fermat, "_TABLES", tables)
    # the size cut admits x >= 5152 for 3571, so these chunks build no table
    for x_range in [(1, 5151), (9, 3), (MAX_BOUND + 1, MAX_BOUND + 9)]:
        assert case_i_search(3571, MAX_BOUND, x_range=x_range).solutions == ()
    assert tables.bits == 0 and not tables._tables
    for p in (3, 5, 3571):
        assert case_i_search(p, MAX_BOUND, x_range=(MAX_BOUND, MAX_BOUND)).solutions == ()
        assert tables.bits == _retained_bits(tables) <= MAX_POWER_BITS
        for _, table in tables._tables.values():
            assert sum(v.bit_length() for v in table.pth) <= table.bits()
    assert list(tables._tables) == [(3, MAX_BOUND), (5, MAX_BOUND), (3571, MAX_BOUND)]
