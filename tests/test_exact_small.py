"""The exact algorithms against brute force and against each other."""
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from repro import datasets
from repro.core import exact
from repro.core.approx import bs_approx, core_approx, ks_approx
from repro.core.bruteforce import brute_force_dds
from repro.core.density import skewed2_frac
from repro.core.result import DDSResult
from repro.core.xycore import LocalEngine
from repro.core.exact import (
    _level,
    _thresholds,
    _widen_factor,
    core_exact,
    dc_exact,
    exact_dds,
    solve_ratio,
)
from repro.graph import generators as gen
from repro.graph.local import EdgeArrays, dedup, empty_edges


def _random_tiny(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    m = int(rng.integers(2, 22))
    pairs = np.unique(
        np.stack([rng.integers(0, n, m), rng.integers(0, n, m)], 1), axis=0
    )
    return EdgeArrays(pairs[:, 0].copy(), pairs[:, 1].copy())


@pytest.mark.parametrize("seed", range(25))
def test_exact_matches_bruteforce(seed):
    e = _random_tiny(seed)
    assert exact_dds(e).rho2 == brute_force_dds(e).rho2


@pytest.mark.parametrize("seed", range(25))
def test_dc_exact_matches_bruteforce(seed):
    e = _random_tiny(seed + 1000)
    assert dc_exact(e).rho2 == brute_force_dds(e).rho2


@pytest.mark.parametrize("seed", range(25))
def test_core_exact_matches_bruteforce(seed):
    e = _random_tiny(seed + 2000)
    assert core_exact(e).rho2 == brute_force_dds(e).rho2


@pytest.mark.parametrize(
    "delta",
    [Fraction(0), Fraction(1, 20), Fraction(1, 5), Fraction(1, 2)],
    ids=["0.0", "0.05", "0.2", "0.5"],
)
def test_core_exact_delta_invariance(delta, monkeypatch):
    """The probe depth δ trades work for pruning but never the answer."""
    monkeypatch.setattr(exact, "_PROBE_DELTA", delta)
    e = gen.powerlaw_directed(40, 200, seed=12)
    assert core_exact(e).rho2 == dc_exact(e).rho2


@pytest.mark.parametrize(
    "name,builder",
    [
        ("xs-er", lambda: gen.er_directed(40, 160, seed=11)),
        ("xs-pl", lambda: gen.powerlaw_directed(40, 200, seed=12)),
        ("xs-plant", lambda: gen.planted_dds(40, 80, s_size=6, t_size=8, seed=13)),
    ],
)
def test_all_exact_algorithms_agree(name, builder):
    e = builder()
    ex, dc, ce = exact_dds(e), dc_exact(e), core_exact(e)
    assert ex.rho2 == dc.rho2 == ce.rho2


@pytest.mark.parametrize("name", ["s-er", "s-pl"])
def test_core_exact_matches_dc_exact_midscale(name):
    """Cross-algorithm agreement where brute force cannot go (m ≈ 580)."""
    e = datasets.load_local(name)
    opt2 = dc_exact(e).rho2
    assert core_exact(e).rho2 == opt2
    assert core_approx(e).rho2 * 4 >= opt2


def test_exact_on_planted_block_finds_it():
    e = gen.planted_dds(60, 60, s_size=5, t_size=6, p_block=1.0, seed=3)
    r = core_exact(e)
    assert set(np.arange(5)) <= set(r.S.tolist())
    assert r.rho >= (5 * 6) ** 0.5 - 1e-9


def test_exact_empty_graph():
    xs = datasets.load_local("xs-er")
    for algo in (exact_dds, dc_exact, core_exact):
        r = algo(empty_edges())
        assert r.rho == 0.0
        assert r.stats.keys() == algo(xs).stats.keys()


def test_exact_single_edge():
    e = EdgeArrays(np.array([3]), np.array([7]))
    for algo in (exact_dds, dc_exact, core_exact):
        assert algo(e).rho == pytest.approx(1.0)


def test_dc_solves_far_fewer_ratios_than_exact():
    e = gen.er_directed(40, 160, seed=11)
    ex, dc = exact_dds(e), dc_exact(e)
    assert dc.stats["ratios_solved"] < ex.stats["ratios_solved"] / 3


def test_core_exact_solves_fewest_ratios():
    e = gen.er_directed(40, 160, seed=11)
    dc, ce = dc_exact(e), core_exact(e)
    assert ce.stats["ratios_solved"] < dc.stats["ratios_solved"]


def test_core_exact_stats_present():
    e = gen.powerlaw_directed(40, 200, seed=12)
    st = core_exact(e).stats
    for key in ("ratios_solved", "ratios_skipped_empty_core", "cuts", "approx_rho"):
        assert key in st


def test_core_exact_stats_schema_does_not_depend_on_the_winner():
    """Core-Exact reports one key set whether Core-Approx's seed or a flow
    solve is the answer; Core-Approx's own keys do not leak into it."""
    hub = gen.powerlaw_directed(60, 150, seed=0)  # densest pair: a hub star
    er = gen.er_directed(40, 160, seed=11)
    seeded, solved = core_exact(hub), core_exact(er)
    assert seeded.rho2 == core_approx(hub).rho2
    assert solved.rho2 > core_approx(er).rho2
    assert set(seeded.stats) == set(solved.stats)
    assert isinstance(seeded.stats["core_sizes"], list)


def _pairs(e):
    return set(zip(e.src.tolist(), e.dst.tolist()))


@pytest.mark.parametrize("name", ["xs-er", "xs-pl", "xs-plant", "s-er", "s-pl", "m-plant"])
def test_core_exact_probes_lie_above_the_base_floor(name, monkeypatch):
    """Every ratio probe runs from the one product core built after seeding,
    has x·y above its floor, and gets the core it would get from the input."""
    e = datasets.load_local(name)
    real = LocalEngine.core
    calls = []  # (state, x, y, floor, core) of core_exact's own fixpoints
    phase = {"seeded": False, "solving": False}

    def core(self, state, x, y, floor=0):
        out = real(self, state, x, y, floor)
        if phase["seeded"] and not phase["solving"]:
            calls.append((state, x, y, floor, out))
        return out

    def seeding(*args, **kwargs):
        res = core_approx(*args, **kwargs)
        phase["seeded"] = True
        return res

    def solving(*args, **kwargs):
        phase["solving"] = True
        try:
            return solve_ratio(*args, **kwargs)
        finally:
            phase["solving"] = False

    monkeypatch.setattr(LocalEngine, "core", core)
    monkeypatch.setattr(exact, "core_approx", seeding)
    monkeypatch.setattr(exact, "solve_ratio", solving)
    res = core_exact(e)

    (_, bx, by, floor, base), *probes = calls
    seed_rho2 = max(core_approx(e).rho2, Fraction(e.m**2, e.n_src * e.n_dst))
    assert (bx, by) == (1, 1)
    assert floor == math.floor(seed_rho2 * (1 - exact._PROBE_DELTA) ** 2 / 4) - 1
    assert len(probes) == res.stats["core_probes_exact"] - 1 > 0
    for state, x, y, _, got in probes:
        assert state is base and x * y > floor
        assert _pairs(got) == _pairs(real(LocalEngine(), e, x, y))


def test_m_plant_search_counters():
    """On m-plant, the graph of the gated exact-planted workload, Core-Approx
    needs at most half of the 128 core probes it made with no product floor,
    and Core-Exact's flow work is what it was without the floor, less the
    cuts that only rediscovered the level-core: each solved ratio's core is
    lifted to, and one cut confirms it."""
    e = datasets.load_local("m-plant")
    assert core_approx(e).stats["core_probes"] <= 64
    st = core_exact(e).stats
    assert st["cuts"] == 4
    assert st["cuts"] == st["ratios_solved"]
    assert st["ratios_solved"] == 4
    assert st["ratios_skipped_empty_core"] == 9
    assert st["max_flow_nodes"] == 102
    assert st["core_sizes"] == [1921] * 7


def test_core_exact_lifts_to_a_planted_block_and_cuts_once():
    """A complete 6×9 block in sparse noise: every solved ratio's level-core
    is lifted to, and its one cut only confirms that nothing lies above."""
    e = gen.planted_dds(100, 80, s_size=6, t_size=9, p_block=1.0, seed=2)
    r = core_exact(e)
    st = r.stats
    assert st["ratios_solved"] > 0
    assert st["cuts"] == st["ratios_solved"]
    assert st["lifts"] == st["ratios_solved"]
    assert r.S.tolist() == list(range(6)) and r.T.tolist() == list(range(91, 100))
    assert r.edges_st == 54


@pytest.mark.parametrize(
    "name,builder",
    [
        ("s-er", lambda: datasets.load_local("s-er")),
        ("er-8-30-2", lambda: gen.er_directed(8, 30, seed=2)),
        *[(f"tiny-{s}", lambda s=s: _random_tiny(s)) for s in (3008, 3009, 3012, 3028, 3038)],
    ],
)
def test_core_exact_beats_a_full_pair_seeded_by_core_approx_alone(name, builder):
    """Where the full pair is denser than Core-Approx's core, Core-Exact,
    seeded by Core-Approx alone, still returns the optimum, and lifts λ to
    some level-core's own μ on the way."""
    e = builder()
    assert Fraction(e.m**2, e.n_src * e.n_dst) > core_approx(e).rho2
    r = core_exact(e)
    want = dc_exact(e) if name == "s-er" else brute_force_dds(e)
    assert r.rho2 == want.rho2
    assert r.stats["lifts"] >= 1


# --- subroutine-level tests -------------------------------------------------


def test_thresholds_are_safe_lower_bounds():
    # at λ=2 (ρ_a level 4), a=1: every argmax vertex has degree >= 2 → x=y=2
    assert _thresholds(Fraction(2), 1, 1) == (2, 2)
    # never rounds past the true value just below an integer
    assert _thresholds(Fraction(19999999999, 10**10), 1, 1) == (2, 2)
    assert _thresholds(Fraction(1, 20), 1, 1) == (1, 1)
    # λ·j = 4 is an integer and stays 4; λ·i = 4/3 rounds up to 2
    assert _thresholds(Fraction(4, 3), 1, 3) == (4, 2)


def test_level_rounds_down_and_is_exact_on_rational_roots():
    # ρ_a² = 9 at a = 1: μ-level √(9/4) = 3/2 exactly
    assert _level(Fraction(9), 1, 1) == Fraction(3, 2)
    # ρ_a² = 8·(4/5)² at a = 2/1: √(8·16/25/8) = 4/5 exactly
    assert _level(Fraction(8) * Fraction(4, 5) ** 2, 2, 1) == Fraction(4, 5)
    for rho2, i, j in [(Fraction(2), 1, 1), (Fraction(825, 31), 3, 2)]:
        lam = _level(rho2, i, j)
        assert 4 * i * j * lam**2 < rho2  # irrational root: strictly below
        assert 4 * i * j * (lam + Fraction(1, 2**60)) ** 2 > rho2  # and close


def test_widen_factor_monotone_and_safe():
    assert _widen_factor(Fraction(1)) == Fraction(1)
    assert _widen_factor(Fraction(1, 2)) == Fraction(1)
    b1, b2 = _widen_factor(Fraction(11, 10) ** 2), _widen_factor(Fraction(3, 2) ** 2)
    assert 1 < b1 < b2
    # q(a, a·β)² = (β + 1/β + 2)/4 must stay <= r2 (the safety direction),
    # and the radius is tight: one step of 2⁻⁶⁰ further already breaks it
    rational_roots = (Fraction(101, 100) ** 2, Fraction(5, 4) ** 2, Fraction(4))
    for r2 in (*rational_roots, Fraction(2), Fraction(825, 31)):
        beta = _widen_factor(r2)
        assert isinstance(beta, Fraction)
        assert (beta + 1 / beta + 2) / 4 <= r2
        up = beta + Fraction(1, 2**60)
        assert (up + 1 / up + 2) / 4 > r2


@pytest.mark.parametrize("seed", range(8))
def test_solve_ratio_returns_fixed_ratio_optimum(seed):
    """Dinkelbach must find max skewed density for the given ratio."""
    e = _random_tiny(seed + 300)
    i, j = 2, 1
    sol = solve_ratio(e, i, j, Fraction(0))
    # brute force F(a)
    s_all = np.unique(e.src).tolist()
    t_all = np.unique(e.dst).tolist()
    best = Fraction(0)
    for ks in range(1, len(s_all) + 1):
        for S in itertools.combinations(s_all, ks):
            for kt in range(1, len(t_all) + 1):
                for T in itertools.combinations(t_all, kt):
                    m = e.edges_between(np.array(S), np.array(T))
                    best = max(best, skewed2_frac(m, ks, kt, i, j))
    assert sol is not None
    assert skewed2_frac(sol.edges_st, len(sol.S), len(sol.T), i, j) == best


def _max_edges_by_size(e):
    """``best[ks, kt]``: the most edges any pair with |S| = ks and |T| = kt
    spans (for each S, the kt destinations it reaches most)."""
    c = e.compact()
    adj = np.zeros((c.src_ids.n, c.dst_ids.n), dtype=np.int64)
    adj[c.src_ids.ids, c.dst_ids.ids] = 1
    ns, nt = adj.shape
    best = np.zeros((ns + 1, nt + 1), dtype=np.int64)
    for ks in range(1, ns + 1):
        for S in itertools.combinations(range(ns), ks):
            top = np.cumsum(np.sort(adj[list(S)].sum(axis=0))[::-1])
            np.maximum(best[ks, 1:], top, out=best[ks, 1:])
    return best


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("i,j", [(1, 1), (2, 1), (1, 3), (3, 2)])
@pytest.mark.parametrize("prune_cores", [False, True])
def test_solve_ratio_bound_at_each_probe_level(seed, i, j, prune_cores):
    """At start levels 0, below, at and above F(a)'s μ, ``solve_ratio``
    either returns an F(a)-argmax whose |E(S,T)| is the true count, or
    None, and then F(a)² ≤ 4ij·λ₀², the bound a failed probe settles by."""
    e = _random_tiny(seed + 500)
    best = _max_edges_by_size(e)
    sizes = [(ks, kt) for ks in range(1, best.shape[0]) for kt in range(1, best.shape[1])]
    f2 = max(skewed2_frac(int(best[ks, kt]), ks, kt, i, j) for ks, kt in sizes)
    mu = max(Fraction(int(best[ks, kt]), j * ks + i * kt) for ks, kt in sizes)
    assert 4 * i * j * mu**2 == f2
    for lam0 in (Fraction(0), mu / 2, mu * Fraction(99, 100), mu, mu * 3 / 2):
        sol = solve_ratio(e, i, j, lam0, prune_cores=prune_cores)
        if sol is None:
            assert 4 * i * j * lam0**2 >= f2
        else:
            assert skewed2_frac(sol.edges_st, len(sol.S), len(sol.T), i, j) == f2
            assert sol.edges_st == e.edges_between(sol.S, sol.T)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("i,j", [(1, 1), (2, 1), (1, 3)])
def test_each_lift_is_a_pair_above_the_level(seed, i, j, monkeypatch):
    """Every lift makes a pair the incumbent and raises λ to exactly that
    pair's μ, recounted on the input; the levels strictly increase."""
    e = _random_tiny(seed + 700)
    events = []  # ("level", λ) at each prune, ("lift", pair) at each lift
    real_thresholds, real_of_edges = exact._thresholds, DDSResult.of_edges

    def thresholds(lam, i_, j_):
        events.append(("level", lam))
        return real_thresholds(lam, i_, j_)

    def of_edges(cls, c, st):
        pair = real_of_edges(c, st)
        events.append(("lift", pair))
        return pair

    monkeypatch.setattr(exact, "_thresholds", thresholds)
    monkeypatch.setattr(DDSResult, "of_edges", classmethod(of_edges))
    stats = {}
    sol = solve_ratio(e, i, j, Fraction(0), prune_cores=True, stats=stats)
    levels = [v for kind, v in events if kind == "level"]
    assert levels == sorted(set(levels))  # strictly increasing
    lifts = [k for k, (kind, _) in enumerate(events) if kind == "lift"]
    assert len(lifts) == stats["lifts"] >= 1  # from level 0 the whole graph lifts
    for k in lifts:
        pair = events[k][1]
        mu = Fraction(e.edges_between(pair.S, pair.T), j * len(pair.S) + i * len(pair.T))
        assert pair.edges_st == e.edges_between(pair.S, pair.T)
        assert events[k + 1] == ("level", mu)  # the next prune is at its μ
    assert sol is not None


def _repeated_edges():
    """(0,5) three times: counted once, the densest pair has ρ = 1.5."""
    return EdgeArrays(np.array([0, 0, 0, 1, 1]), np.array([5, 5, 5, 5, 6]))


@pytest.mark.parametrize(
    "algo", [core_approx, core_exact, dc_exact, exact_dds, ks_approx, bs_approx]
)
def test_algorithms_reject_duplicate_edges(algo):
    with pytest.raises(ValueError, match="duplicate"):
        algo(_repeated_edges())


def test_duplicate_reproducer_after_dedup_matches_bruteforce():
    e = dedup(_repeated_edges())
    assert brute_force_dds(e).rho == 1.5
    for algo in (core_exact, dc_exact, exact_dds):
        assert algo(e).rho2 == brute_force_dds(e).rho2
