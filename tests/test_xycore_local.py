"""Tests for [x,y]-core semantics (local engine) and the max-x·y search."""
import numpy as np
import pytest

from repro.core.approx import core_approx
from repro.core.xycore import LocalEngine, y_max_for_x
from repro.graph import generators as gen
from repro.graph.local import EdgeArrays


def _y_max_core(e, x):
    """y_max(x) and its [x, y_max(x)]-core, on the local engine."""
    y, core, _ = y_max_for_x(e, x, LocalEngine(), {"core_probes": 0}, 0, e.m)
    return y, core


def _e(pairs):
    a = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return EdgeArrays(a[:, 0].copy(), a[:, 1].copy())


def _degrees_ok(core: EdgeArrays, x, y):
    if core.m == 0:
        return True
    _, s_inv = np.unique(core.src, return_inverse=True)
    _, t_inv = np.unique(core.dst, return_inverse=True)
    return np.bincount(s_inv).min() >= x and np.bincount(t_inv).min() >= y


def test_core_degree_invariant_handmade():
    # K_{2,2} from {0,1} to {2,3} plus a pendant edge 4->2
    e = _e([(0, 2), (0, 3), (1, 2), (1, 3), (4, 2)])
    c = LocalEngine().core(e, 2, 2)
    assert _degrees_ok(c, 2, 2)
    assert set(c.src.tolist()) == {0, 1}
    assert set(c.dst.tolist()) == {2, 3}


def test_core_11_keeps_everything():
    e = _e([(0, 1), (2, 3)])
    c = LocalEngine().core(e, 1, 1)
    assert c.m == 2


def test_core_empty_when_too_demanding():
    e = _e([(0, 1), (1, 2)])
    assert LocalEngine().core(e, 2, 1).m == 0
    assert LocalEngine().core(e, 1, 3).m == 0


def test_core_cascading_deletion():
    # chain where removing the tail unravels everything for x=1,y=2
    e = _e([(0, 1), (1, 2), (2, 3)])
    assert LocalEngine().core(e, 1, 2).m == 0


@pytest.mark.parametrize("seed", range(6))
def test_core_invariant_and_maximality_random(seed):
    rng = np.random.default_rng(seed)
    e = gen.er_directed(30, 150, seed=seed)
    x = int(rng.integers(1, 5))
    y = int(rng.integers(1, 5))
    c = LocalEngine().core(e, x, y)
    assert _degrees_ok(c, x, y)
    if c.m:
        # maximality: no removed edge has both endpoints inside the core
        s_set, t_set = np.unique(c.src), np.unique(c.dst)
        inside = np.isin(e.src, s_set) & np.isin(e.dst, t_set)
        assert inside.sum() == c.m


@pytest.mark.parametrize("seed", range(4))
def test_cores_nested_in_x_and_y(seed):
    e = gen.powerlaw_directed(60, 400, seed=seed)
    def pairs(c):
        return set(zip(c.src.tolist(), c.dst.tolist()))

    c11 = pairs(LocalEngine().core(e, 1, 1))
    c21 = pairs(LocalEngine().core(e, 2, 1))
    c12 = pairs(LocalEngine().core(e, 1, 2))
    c22 = pairs(LocalEngine().core(e, 2, 2))
    assert c21 <= c11 and c12 <= c11 and c22 <= c21 and c22 <= c12


def test_y_max_monotone_nonincreasing():
    e = gen.powerlaw_directed(80, 500, seed=2)
    ys = [_y_max_core(e, x)[0] for x in range(1, 8)]
    assert all(a >= b for a, b in zip(ys, ys[1:]))


def test_y_max_value_is_tight():
    e = gen.er_directed(40, 300, seed=3)
    eng = LocalEngine()
    y, core = _y_max_core(e, 2)
    assert eng.m(eng.core(e, 2, y)) > 0
    assert eng.m(eng.core(e, 2, y + 1)) == 0


def test_y_max_empty_graph():
    from repro.graph.local import empty_edges

    y, core = _y_max_core(empty_edges(), 1)
    assert y == 0 and core is None  # no core beats the floor 0


def _out_hub():
    """``er_directed(200, 300, seed=3)`` plus an out-star from vertex 0 to
    100 new leaves: vertex 0's out-star is the max-x·y core, and its floor
    d_out_max − 1 cuts off every x > 1 that can only pair with y = 1."""
    e = gen.er_directed(200, 300, seed=3)
    star = np.stack([np.zeros(100, np.int64), np.arange(200, 300)], axis=1)
    pairs = np.unique(np.vstack([np.stack([e.src, e.dst], axis=1), star]), axis=0)
    return _e(pairs)


_GRAPHS = {
    **{str(s): (lambda s=s: gen.er_directed(25, 140, seed=s + 10)) for s in range(5)},
    **{f"pl-{s}": (lambda s=s: gen.powerlaw_directed(60, 240, seed=s + 10)) for s in range(5)},
    "out-hub": _out_hub,
}


@pytest.mark.parametrize("graph", list(_GRAPHS))
def test_max_xy_core_is_exact_maximum(graph):
    """B&B result must equal the brute-force max over all x of x*y_max(x),
    also where the skip rule refuses seeds (the power-law and out-hub
    graphs)."""
    e = _GRAPHS[graph]()
    st = core_approx(e).stats
    x_ub = e.out_degree_max()
    brute = max(x * _y_max_core(e, x)[0] for x in range(1, x_ub + 1))
    assert st["x"] * st["y"] == st["xy"] == brute


def test_out_hub_seeds_obey_the_skip_rule():
    """On an out-hub graph a seed that cannot beat the star floor is
    skipped like any scanned x, so at most three x are searched."""
    e = _out_hub()
    st = core_approx(e).stats
    assert st["xy"] == e.out_degree_max()
    assert st["x_evaluated"] <= 3


def test_max_xy_core_on_planted_block():
    e = gen.planted_dds(100, 100, s_size=8, t_size=10, p_block=1.0, seed=4)
    # the planted 8x10 complete block is a [10,8]-core
    assert core_approx(e).stats["xy"] >= 80


def test_max_xy_core_empty():
    from repro.graph.local import empty_edges

    r = core_approx(empty_edges())
    assert (r.stats["x"], r.stats["y"], r.edges_st) == (0, 0, 0)


def test_core_density_lower_bound():
    """Theory check: any nonempty [x,y]-core has rho >= sqrt(x*y)."""
    from repro.core.density import rho2_frac

    e = gen.powerlaw_directed(150, 900, seed=6)
    for x, y in [(1, 1), (2, 2), (1, 4), (3, 1)]:
        c = LocalEngine().core(e, x, y)
        if c.m:
            assert rho2_frac(c.m, c.n_src, c.n_dst) >= x * y


# ---------------------------------------------------------------------------
# the product floor
# ---------------------------------------------------------------------------


def _tiny_graph(seed):
    """A random graph of at most 12 edges, small enough to enumerate."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 6))
    pairs = np.unique(rng.integers(0, n, size=(int(rng.integers(4, 13)), 2)), axis=0)
    return EdgeArrays(pairs[:, 0].copy(), pairs[:, 1].copy())


def _brute_product_core(e, x, y, floor):
    """Union of every edge subset in which each edge has d_out ≥ x, d_in ≥ y
    and d_out·d_in > floor (degrees counted in the subset): such subsets are
    closed under union, so the union is the largest one."""
    subsets = (np.arange(2**e.m)[:, None] >> np.arange(e.m)) & 1  # one row per subset
    same_src = (e.src[:, None] == e.src[None, :]).astype(np.int64)
    same_dst = (e.dst[:, None] == e.dst[None, :]).astype(np.int64)
    d_out, d_in = subsets @ same_src, subsets @ same_dst
    ok = (d_out >= x) & (d_in >= y) & (d_out * d_in > floor)
    feasible = np.all(ok | (subsets == 0), axis=1)
    return set(np.flatnonzero(subsets[feasible].any(axis=0)).tolist())


def _edge_ids(e, sub):
    """Positions in ``e`` of the edges of ``sub``."""
    index = {p: k for k, p in enumerate(zip(e.src.tolist(), e.dst.tolist()))}
    return {index[p] for p in zip(sub.src.tolist(), sub.dst.tolist())}


def _pairs(e):
    return set(zip(e.src.tolist(), e.dst.tolist()))


def _true_y_max(e, x):
    eng = LocalEngine()
    return max((y for y in range(1, e.m + 1) if eng.core(e, x, y).m), default=0)


FLOORS = range(0, 10)


@pytest.mark.parametrize("seed", range(12))
def test_product_core_is_the_brute_force_maximum(seed):
    e = _tiny_graph(seed)
    eng = LocalEngine()
    for x in range(1, 4):
        for floor in FLOORS:
            got = _edge_ids(e, eng.core(e, x, 1, floor))
            assert got == _brute_product_core(e, x, 1, floor), (x, floor)


@pytest.mark.parametrize("seed", range(12))
def test_product_core_holds_every_core_above_the_floor(seed):
    e = _tiny_graph(seed)
    eng = LocalEngine()
    for x in range(1, 4):
        for floor in FLOORS:
            base = eng.core(e, x, 1, floor)
            held = _edge_ids(e, base)
            for x2 in range(x, e.m + 1):
                for y2 in range(1, e.m + 1):
                    if x2 * y2 > floor:
                        core = eng.core(e, x2, y2)
                        assert _edge_ids(e, core) <= held
                        assert _pairs(eng.core(base, x2, y2)) == _pairs(core)


@pytest.mark.parametrize("seed", range(12))
def test_y_max_for_x_above_and_below_the_floor(seed):
    e = _tiny_graph(seed)
    eng = LocalEngine()
    nonempty = [(x2, y2) for x2 in range(1, e.m + 1) for y2 in range(1, e.m + 1)
                if eng.core(e, x2, y2).m]
    for x in range(1, 4):
        y_true = _true_y_max(e, x)
        for floor in FLOORS:
            for y_hi in (e.m, y_true, y_true + 2):
                st = {"core_probes": 0}
                y, core, _ = y_max_for_x(e, x, eng, st, floor, y_hi)
                if x * y_true > floor:
                    assert y == y_true, (x, floor, y_hi)
                    assert _pairs(core) == _pairs(eng.core(e, x, y_true))
                else:
                    assert core is None, (x, floor, y_hi)
                    # y bounds every core at x' >= x above the floor, up to y_hi
                    for x2, y2 in nonempty:
                        if x2 >= x and y2 <= y_hi and x2 * y2 > floor:
                            assert y2 <= y, (x, floor, y_hi, x2, y2)
                assert st["core_probes"] >= 1
