import math

import pytest

from cyclo.errors import IrregularPrimeError
from cyclo.fermat import (
    MAX_BOUND,
    MAX_POWER_BITS,
    case_i_search,
    check_regular_and_search,
    merge_reports,
)
from oracles import bisection_case_i_search, perfect_pth_root


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


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_search_matches_bisection_oracle(p):
    # No Case I solution exists, so this pins the counters and that the
    # z-pointer stays inside the power list for every box and chunk.
    for bound in (0, 1, 2, 3, 6, 13, 27, 40):
        for use_filter in (True, False):
            for x_range in X_RANGES:
                got = case_i_search(p, bound, use_filter=use_filter, x_range=x_range)
                want = bisection_case_i_search(p, bound, use_filter=use_filter, x_range=x_range)
                assert got == want, (p, bound, use_filter, x_range)


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
