"""Approximation algorithms: guarantees, determinism, edge cases."""
import numpy as np
import pytest

from repro import datasets
from repro.core.approx import bs_approx, core_approx, ks_approx
from repro.core.bruteforce import brute_force_dds
from repro.core.exact import core_exact
from repro.graph import generators as gen
from repro.graph.local import EdgeArrays, empty_edges


def _random_tiny(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    m = int(rng.integers(2, 22))
    pairs = np.unique(
        np.stack([rng.integers(0, n, m), rng.integers(0, n, m)], 1), axis=0
    )
    return EdgeArrays(pairs[:, 0].copy(), pairs[:, 1].copy())


@pytest.mark.parametrize("seed", range(20))
def test_core_approx_guarantee(seed):
    """ρ(core_approx) ≥ ρ_opt / 2 (deterministic 2-approximation)."""
    e = _random_tiny(seed)
    opt = brute_force_dds(e)
    got = core_approx(e)
    assert got.rho2 * 4 >= opt.rho2


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("eps", [0.1, 0.5])
def test_ks_approx_guarantee(seed, eps):
    """ρ(ks_approx) ≥ ρ_opt / (2(1+ε))."""
    e = _random_tiny(seed + 500)
    opt = brute_force_dds(e)
    got = ks_approx(e, eps=eps)
    factor = 2 * (1 + eps)
    assert float(got.rho2) * factor**2 >= float(opt.rho2) - 1e-9


@pytest.mark.parametrize("seed", range(20))
def test_bs_approx_guarantee(seed):
    """ρ(bs_approx) ≥ ρ_opt / (2(1+ε)²)."""
    eps = 0.5
    e = _random_tiny(seed + 900)
    opt = brute_force_dds(e)
    got = bs_approx(e, eps=eps)
    factor = 2 * (1 + eps) ** 2
    assert float(got.rho2) * factor**2 >= float(opt.rho2) - 1e-9


@pytest.mark.parametrize(
    "algo", [core_approx, ks_approx, bs_approx], ids=["core", "ks", "bs"]
)
def test_approx_empty_graph(algo):
    r = algo(empty_edges())
    assert r.rho == 0.0
    assert r.stats.keys() == algo(datasets.load_local("xs-er")).stats.keys()


@pytest.mark.parametrize(
    "algo", [core_approx, ks_approx, bs_approx], ids=["core", "ks", "bs"]
)
def test_approx_single_edge_is_exact(algo):
    e = EdgeArrays(np.array([0]), np.array([1]))
    assert algo(e).rho == pytest.approx(1.0)


@pytest.mark.parametrize(
    "algo", [core_approx, ks_approx, bs_approx], ids=["core", "ks", "bs"]
)
def test_approx_deterministic(algo):
    e = gen.powerlaw_directed(120, 700, seed=15)
    a, b = algo(e), algo(e)
    assert a.rho2 == b.rho2
    assert np.array_equal(np.sort(a.S), np.sort(b.S))


def test_core_approx_reports_core_params():
    e = gen.planted_dds(100, 100, s_size=8, t_size=10, p_block=1.0, seed=4)
    r = core_approx(e)
    assert r.stats["xy"] == r.stats["x"] * r.stats["y"]
    assert r.rho >= r.stats["xy"] ** 0.5 - 1e-9  # lower-bound theorem


def test_core_approx_on_planted_block_close_to_exact():
    e = gen.planted_dds(300, 400, s_size=10, t_size=12, p_block=1.0, seed=9)
    exact = core_exact(e)
    approx = core_approx(e)
    assert approx.rho >= 0.5 * exact.rho
    # on a planted near-clique the core approximation is near-exact
    assert approx.rho >= 0.9 * exact.rho


def test_ks_tracks_best_snapshot_not_last():
    """Peeling must return the densest intermediate graph, not the end."""
    e = gen.planted_dds(60, 60, s_size=5, t_size=6, p_block=1.0, seed=3)
    r = ks_approx(e, eps=0.5)
    assert r.rho > 1.0


@pytest.mark.parametrize("eps", [0.0, -0.5, float("nan")])
@pytest.mark.parametrize("algo", [ks_approx, bs_approx], ids=["ks", "bs"])
def test_grid_approx_rejects_bad_eps(algo, eps):
    """Also on the empty graph, which returns before any grid is built."""
    for e in (gen.er_directed(20, 60, seed=1), empty_edges()):
        with pytest.raises(ValueError, match="eps"):
            algo(e, eps=eps)


def test_bs_rounds_logarithmic():
    e = gen.powerlaw_directed(2000, 20000, seed=5)
    r = bs_approx(e, eps=0.5)
    # paper-style bound: rounds per ratio ~ O(log n); allow slack ×4
    per_ratio = r.stats["peel_rounds"] / r.stats["ratios"]
    assert per_ratio <= 4 * np.log2(2000)


@pytest.mark.parametrize("seed", range(5))
def test_approx_ordering_quality(seed):
    """All three approximations land within their factor of core_exact
    on mid-size graphs (cross-validation without brute force)."""
    e = gen.er_directed(60, 400, seed=seed)
    opt = core_exact(e)
    assert core_approx(e).rho >= opt.rho / 2 - 1e-9
    assert ks_approx(e, eps=0.5).rho >= opt.rho / 3 - 1e-9
    assert bs_approx(e, eps=0.5).rho >= opt.rho / 4.5 - 1e-9
