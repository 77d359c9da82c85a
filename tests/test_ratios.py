"""Tests for the candidate-ratio space utilities."""
from fractions import Fraction

import numpy as np
import pytest

from repro.core.ratios import all_candidate_ratios, candidate_in, geometric_grid


def test_all_candidate_ratios_small():
    got = all_candidate_ratios(2, 2)
    assert got == [Fraction(1, 2), Fraction(1), Fraction(2)]


def test_all_candidate_ratios_are_reduced_and_sorted():
    rs = all_candidate_ratios(6, 6)
    assert rs == sorted(rs)
    assert len(rs) == len(set(rs))
    for f in rs:
        assert 1 <= f.numerator <= 6 and 1 <= f.denominator <= 6


def test_all_candidate_ratios_count_farey():
    # |distinct i/j for i,j<=n| = 2*|Farey_n| - 3 hmm — just check against brute set
    n = 8
    brute = {Fraction(i, j) for i in range(1, n + 1) for j in range(1, n + 1)}
    assert set(all_candidate_ratios(n, n)) == brute


def _brute_candidates(lo, hi, max_num, max_den):
    return sorted(
        f
        for f in {
            Fraction(i, j)
            for i in range(1, max_num + 1)
            for j in range(1, max_den + 1)
        }
        if lo < f < hi
    )


@pytest.mark.parametrize("seed", range(20))
def test_candidate_in_agrees_with_bruteforce(seed):
    rng = np.random.default_rng(seed)
    max_num = int(rng.integers(1, 12))
    max_den = int(rng.integers(1, 12))
    lo = Fraction(int(rng.integers(0, 30)), int(rng.integers(1, 30)))
    hi = lo + Fraction(int(rng.integers(1, 20)), int(rng.integers(1, 20)))
    got = candidate_in(lo, hi, max_num, max_den)
    brute = _brute_candidates(lo, hi, max_num, max_den)
    if brute:
        assert got in brute
    else:
        assert got is None


def test_candidate_in_strictness():
    # interval (1, 2) with denominators up to 2: only 3/2 qualifies
    assert candidate_in(Fraction(1), Fraction(2), 3, 2) == Fraction(3, 2)
    # open interval excludes endpoints
    assert candidate_in(Fraction(1), Fraction(1), 5, 5) is None
    assert candidate_in(Fraction(3, 2), Fraction(3, 2), 5, 5) is None


def test_candidate_in_empty_interval():
    assert candidate_in(Fraction(2), Fraction(1), 5, 5) is None
    # (4.5, 4.8) has no fraction with num<=5, den<=5
    assert candidate_in(Fraction(9, 2), Fraction(24, 5), 5, 5) is None


def test_candidate_in_prefers_geometric_middle():
    # in (1/4, 4) with plenty of candidates, the split should be near 1
    got = candidate_in(Fraction(1, 4), Fraction(4), 10, 10)
    assert Fraction(1, 2) <= got <= Fraction(2)


def test_geometric_grid_covers_range():
    g = geometric_grid(0.1, 10.0, 0.5)
    assert g[0] == pytest.approx(0.1)
    assert g[-1] >= 10.0
    for a, b in zip(g, g[1:]):
        assert b == pytest.approx(a * 1.5)


def test_geometric_grid_single_point():
    assert geometric_grid(2.0, 2.0, 0.5) == [2.0]


def test_geometric_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        geometric_grid(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        geometric_grid(2.0, 1.0, 0.5)


@pytest.mark.parametrize("eps", [0.0, -0.5, float("nan"), float("inf")])
def test_geometric_grid_rejects_bad_eps(eps):
    """eps <= 0 never reached hi (the grid grew without end); nan
    returned [lo, nan]."""
    with pytest.raises(ValueError, match="eps"):
        geometric_grid(0.5, 2.0, eps)
