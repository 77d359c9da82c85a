"""Tests for the candidate-ratio space utilities."""
from fractions import Fraction
from math import floor, log, sqrt

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


def _scan_candidate_in(lo, hi, max_num, max_den):
    """The denominator scan ``candidate_in`` used to run, kept as an oracle:
    for every j ≤ max_den, the i nearest the float target·j inside the
    interval; O(max_den) per call."""
    if lo >= hi:
        return None
    target = sqrt(float(lo) * float(hi)) if float(lo) > 0 else float(hi) / 2
    best = None
    best_d = float("inf")
    for j in range(1, max_den + 1):
        i_min = floor(lo * j) + 1  # smallest i with i/j > lo
        i_max_f = hi * j
        i_max = (
            i_max_f.numerator // i_max_f.denominator
            if i_max_f.denominator > 1
            else int(i_max_f) - 1
        )  # largest i with i/j < hi
        i_max = min(i_max, max_num)
        if i_min > i_max:
            continue
        i = min(max(round(target * j), i_min), i_max)
        f = Fraction(i, j)
        d = abs(log(float(f)) - log(target)) if target > 0 else float(f)
        if d < best_d:
            best_d = d
            best = f
    return best


def _target(lo, hi):
    return Fraction(sqrt(float(lo) * float(hi)) if lo > 0 else float(hi) / 2)


def _log_dist(f, t):
    """exp(|log(f/t)|), exactly."""
    return max(f / t, t / f)


def _in_bounds(f, lo, hi, max_num, max_den):
    return lo < f < hi and f.numerator <= max_num and f.denominator <= max_den


def test_candidate_in_never_log_farther_than_the_scan():
    rng = np.random.default_rng(7)
    for _ in range(3_000):
        max_num = int(rng.integers(1, 200))
        max_den = int(rng.integers(1, 200))
        lo = Fraction(int(rng.integers(0, 400)), int(rng.integers(1, 200)))
        hi = lo + Fraction(int(rng.integers(1, 100)), int(rng.integers(1, 200)))
        got = candidate_in(lo, hi, max_num, max_den)
        want = _scan_candidate_in(lo, hi, max_num, max_den)
        assert (got is None) == (want is None), (lo, hi, max_num, max_den)
        if got is not None:
            assert _in_bounds(got, lo, hi, max_num, max_den)
            t = _target(lo, hi)
            assert _log_dist(got, t) <= _log_dist(want, t), (lo, hi, max_num, max_den)


def _simplest_between(x, y):
    """The fraction with the smallest denominator in the open interval
    (x, y), 0 ≤ x < y (y may be None for +∞), by continued fractions."""
    n = floor(x) + 1
    if y is None or n < y:
        return Fraction(n)
    fl = n - 1  # x and y lie in [fl, fl + 1]
    inner = _simplest_between(1 / (y - fl), None if x == fl else 1 / (x - fl))
    return fl + 1 / inner


def test_candidate_in_with_bounds_the_scan_cannot_run():
    rng = np.random.default_rng(11)
    big = 10**12
    for _ in range(200):
        lo = Fraction(int(rng.integers(1, 2**40)), int(rng.integers(1, 2**40)))
        hi = lo * (1 + Fraction(1, int(rng.integers(10**6, 10**10))))
        max_num, max_den = int(rng.integers(big, 2 * big)), int(rng.integers(big, 2 * big))
        max_num = max(max_num, floor(hi * max_den) + 1)  # only the denominator binds
        got = candidate_in(lo, hi, max_num, max_den)
        assert got is not None and _in_bounds(got, lo, hi, max_num, max_den)
        t = _target(lo, hi)
        if got != t:
            between = _simplest_between(min(got, t), max(got, t))
            assert between.denominator > max_den  # so none smaller than got's either


def test_candidate_in_between_endpoints_closer_than_a_float_ulp():
    # two neighbours on the 2^-64 grid round to the same float, so the float
    # target is not strictly inside; the exact midpoint is used instead
    k = 3 * 2**62 + 5
    lo, hi = Fraction(k, 2**64), Fraction(k + 1, 2**64)
    assert float(lo) == float(hi)
    got = candidate_in(lo, hi, 2**66, 2**66)
    assert got is not None and _in_bounds(got, lo, hi, 2**66, 2**66)
    assert got == Fraction(2 * k + 1, 2**65)


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
