"""Property tests of the theory the algorithms rest on (DESIGN.md §2).

These do not test code paths so much as the *lemmas*: if one of them
were false, the fast algorithms would be quietly wrong on some input,
so each is checked against exhaustive enumeration on random graphs.
"""
import itertools
from fractions import Fraction

import numpy as np
import pytest

from repro.core.bruteforce import brute_force_dds
from repro.core.density import rho2_frac, skewed2_frac
from repro.core.exact import _settle_interval, solve_ratio
from repro.core.ratios import all_candidate_ratios
from repro.core.approx import core_approx
from repro.core.xycore import LocalEngine
from repro.graph.local import EdgeArrays


def q2(a: Fraction, r: Fraction) -> Fraction:
    """q(a,r)² = (r/a + a/r + 2)/4, the square of the DC-lemma stretch
    factor q(a,r) = ½(sqrt(r/a) + sqrt(a/r)) ≥ 1 — rational, so exact."""
    return (r / a + a / r + 2) / 4


def test_q_factor_identity_and_growth():
    one, two, four = Fraction(1), Fraction(2), Fraction(4)
    assert q2(one, one) == 1
    assert q2(two, two) == 1
    assert q2(one, four) > q2(one, two) > 1
    # symmetric in log-space
    assert q2(one, four) == q2(four, one)


def test_q_factor_links_rho_and_skewed():
    """rho² = skewed² * q(a, own_ratio)² — the DC-lemma identity."""
    m, ns, nt, i, j = 7, 6, 2, 1, 3  # own ratio 3, a = 1/3
    a = Fraction(i, j)
    r = Fraction(ns, nt)
    assert rho2_frac(m, ns, nt) == skewed2_frac(m, ns, nt, i, j) * q2(a, r)


def _random_tiny(seed, n_hi=8, m_hi=20):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, n_hi))
    m = int(rng.integers(2, m_hi))
    pairs = np.unique(
        np.stack([rng.integers(0, n, m), rng.integers(0, n, m)], 1), axis=0
    )
    return EdgeArrays(pairs[:, 0].copy(), pairs[:, 1].copy())


def _all_pairs(e):
    s_all = np.unique(e.src).tolist()
    t_all = np.unique(e.dst).tolist()
    for ks in range(1, len(s_all) + 1):
        for S in itertools.combinations(s_all, ks):
            for kt in range(1, len(t_all) + 1):
                for T in itertools.combinations(t_all, kt):
                    yield np.array(S), np.array(T)


@pytest.mark.parametrize("seed", range(10))
def test_dc_lemma(seed):
    """After solving ratio a to its argmax (S,T) with c=|S|/|T|, no pair
    with true ratio in [min(a,c), max(a,c)] is denser than (S,T)."""
    e = _random_tiny(seed)
    i, j = (2, 1) if seed % 2 else (1, 2)
    sol = solve_ratio(e, i, j, Fraction(0))
    assert sol is not None
    a = Fraction(i, j)
    c = Fraction(len(sol.S), len(sol.T))
    lo, hi = min(a, c), max(a, c)
    settled_rho2 = sol.rho2
    for S, T in _all_pairs(e):
        r = Fraction(len(S), len(T))
        if lo <= r <= hi:
            m = e.edges_between(S, T)
            assert Fraction(m * m, len(S) * len(T)) <= settled_rho2


@pytest.mark.parametrize("seed", range(10))
def test_width_lemma(seed):
    """If F(a) <= g, any pair with q(a, ratio) <= rho_best/g has
    rho <= rho_best — the radius-settling rule of Core-Exact."""
    e = _random_tiny(seed + 40)
    i, j = 1, 1
    a = Fraction(i, j)
    # exact F(a)²
    sol = solve_ratio(e, i, j, Fraction(0))
    f_a2 = skewed2_frac(sol.edges_st, len(sol.S), len(sol.T), i, j)
    stretch2 = Fraction(169, 100)  # pretend the incumbent is 30% above F(a)
    rho_best2 = f_a2 * stretch2
    for S, T in _all_pairs(e):
        r = Fraction(len(S), len(T))
        if q2(a, r) <= stretch2:
            m = e.edges_between(S, T)
            assert rho2_frac(m, len(S), len(T)) <= rho_best2


@pytest.mark.parametrize("seed", range(10))
def test_rho_equals_skewed_times_q(seed):
    """The identity rho² = rho_a² * q(a, own_ratio)² for every pair."""
    e = _random_tiny(seed + 80)
    for S, T in itertools.islice(_all_pairs(e), 50):
        m = e.edges_between(S, T)
        for i, j in [(1, 1), (2, 3)]:
            lhs = rho2_frac(m, len(S), len(T))
            rhs = skewed2_frac(m, len(S), len(T), i, j) * q2(
                Fraction(i, j), Fraction(len(S), len(T))
            )
            assert lhs == rhs


@pytest.mark.parametrize("seed", range(8))
def test_dds_contained_in_its_core(seed):
    """Containment lemma: the DDS lies in the [⌈ρ/(2√a)⌉,⌈ρ√a/2⌉]-core."""
    from math import ceil, sqrt

    e = _random_tiny(seed + 120)
    opt = brute_force_dds(e)
    if opt.edges_st == 0:
        return
    a = len(opt.S) / len(opt.T)
    x = max(1, ceil(opt.rho / (2 * sqrt(a)) - 1e-9))
    y = max(1, ceil(opt.rho * sqrt(a) / 2 - 1e-9))
    core = LocalEngine().core(e, x, y)
    assert set(opt.S.tolist()) <= set(core.src.tolist())
    assert set(opt.T.tolist()) <= set(core.dst.tolist())


@pytest.mark.parametrize("seed", range(8))
def test_max_xy_core_is_2_approximation(seed):
    """sqrt(max xy) >= rho_opt / 2 — the Core-Approx guarantee."""
    e = _random_tiny(seed + 160)
    opt = brute_force_dds(e)
    assert core_approx(e).stats["xy"] ** 0.5 >= opt.rho / 2 - 1e-9


@pytest.mark.parametrize("seed", range(8))
def test_core_density_lower_bound_lemma(seed):
    """rho([x,y]-core) >= sqrt(xy) for every nonempty core."""
    e = _random_tiny(seed + 200, n_hi=10, m_hi=30)
    for x in range(1, 4):
        for y in range(1, 4):
            c = LocalEngine().core(e, x, y)
            if c.m:
                assert rho2_frac(c.m, c.n_src, c.n_dst) >= x * y


def _size_profile(e):
    """{(|S|, |T|): every |E(S,T)| some pair of those sizes has}."""
    prof = {}
    for S, T in _all_pairs(e):
        prof.setdefault((len(S), len(T)), set()).add(e.edges_between(S, T))
    return prof


@pytest.mark.parametrize("seed", range(30))
def test_settle_interval_is_sound(seed):
    """Core-Exact's settle rule, one probe at a time: for every candidate
    a and every ρ_best² the probe may meet, no pair whose ratio lies in
    the settled interval is denser than ρ_best² (brute force)."""
    e = _random_tiny(seed + 240, n_hi=6, m_hi=16)
    prof = _size_profile(e)
    densities = {rho2_frac(m, ks, kt) for (ks, kt), ms in prof.items() for m in ms}
    top = {}  # ratio -> ρ² of the densest pair with that ratio
    for (ks, kt), ms in prof.items():
        r = Fraction(ks, kt)
        top[r] = max(top.get(r, Fraction(0)), rho2_frac(max(ms), ks, kt))

    def assert_settled(lo, hi, rho2_best):
        assert all(d <= rho2_best for r, d in top.items() if lo <= r <= hi)

    ns, nt = len(np.unique(e.src)), len(np.unique(e.dst))
    for a in all_candidate_ratios(ns, nt):
        i, j = a.numerator, a.denominator
        skew = {k: skewed2_frac(max(ms), *k, i, j) for k, ms in prof.items()}
        f2 = max(skew.values())  # F(a)²
        for rho2_best in densities:
            if rho2_best >= f2:  # a failed probe with the tightest F_ub
                assert_settled(*_settle_interval(a, rho2_best, f2, a), rho2_best)
            for (ks, kt), v in skew.items():  # a solved probe, argmax (S, T)
                if v == f2 and rho2_best >= rho2_frac(max(prof[ks, kt]), ks, kt):
                    c = Fraction(ks, kt)
                    assert_settled(*_settle_interval(a, rho2_best, f2, c), rho2_best)
