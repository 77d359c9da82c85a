"""Tests for the DDS decision network (vertex-only min-cut reduction)."""
import itertools
from fractions import Fraction
from math import sqrt

import networkx as nx
import numpy as np
import pytest

from repro.core import exact
from repro.datasets import load_local
from repro.flow.network import build_dds_network, network_nodes, solve_level
from repro.graph import generators as gen
from repro.graph.local import EdgeArrays


def _mu_level(g, i, j):
    """A rational μ-level near the ρ_a-level g = 2·√(ij)·λ."""
    return Fraction(g / (2 * sqrt(i * j))).limit_denominator(100)


def _brute_h(src, dst, i, j, lam):
    """max over all (S,T) of |E(S,T)| - λ*(j|S| + i|T|)."""
    s_all = sorted(set(src.tolist()))
    t_all = sorted(set(dst.tolist()))
    best = Fraction(0)  # empty selection
    for ks in range(len(s_all) + 1):
        for S in itertools.combinations(s_all, ks):
            for kt in range(len(t_all) + 1):
                for T in itertools.combinations(t_all, kt):
                    m = sum(1 for u, v in zip(src, dst) if u in S and v in T)
                    best = max(best, m - lam * (j * len(S) + i * len(T)))
    return best


def _tiny_graph(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    m = int(rng.integers(2, 9))
    pairs = np.unique(
        np.stack([rng.integers(0, n, m), rng.integers(0, n, m)], 1), axis=0
    )
    return pairs[:, 0].copy(), pairs[:, 1].copy()


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("i,j", [(1, 1), (2, 1), (1, 3), (3, 2)])
@pytest.mark.parametrize("g", [0.3, 1.0, 2.5])
def test_h_matches_bruteforce(seed, i, j, g):
    src, dst = _tiny_graph(seed)
    lam = _mu_level(g, i, j)
    h, S, T = solve_level(EdgeArrays(src, dst), i, j, lam)
    assert h == _brute_h(src, dst, i, j, lam)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("i,j", [(1, 1), (2, 1), (1, 3), (3, 2)])
def test_h_matches_bruteforce_at_non_dyadic_level(seed, i, j):
    """λ = 1/3 has no exact float; the integer network must still be exact."""
    src, dst = _tiny_graph(seed)
    h, S, T = solve_level(EdgeArrays(src, dst), i, j, Fraction(1, 3))
    assert h == _brute_h(src, dst, i, j, Fraction(1, 3))


@pytest.mark.parametrize("seed", range(6))
def test_witness_attains_h(seed):
    """The decoded (S,T) must itself achieve the reported objective."""
    src, dst = _tiny_graph(seed + 50)
    i, j = 2, 3
    lam = _mu_level(0.8, i, j)
    e = EdgeArrays(src, dst)
    h, S, T = solve_level(e, i, j, lam)
    if len(S) == 0:
        assert h == 0
        return
    m_st = e.edges_between(S, T)
    assert m_st - lam * (j * len(S) + i * len(T)) == h


def test_high_level_selects_nothing():
    src = np.array([0, 1, 2], dtype=np.int64)
    dst = np.array([1, 2, 0], dtype=np.int64)
    h, S, T = solve_level(EdgeArrays(src, dst), 1, 1, lam=Fraction(50))
    assert h == 0
    assert len(S) == 0 and len(T) == 0


def test_zero_level_selects_everything():
    src = np.array([0, 1, 2], dtype=np.int64)
    dst = np.array([1, 2, 0], dtype=np.int64)
    h, S, T = solve_level(EdgeArrays(src, dst), 1, 1, lam=Fraction(0))
    # at λ=0 selecting all edges costs nothing and earns m
    assert h == 3
    assert set(S) == {0, 1, 2} and set(T) == {0, 1, 2}


def test_empty_graph():
    z = np.array([], dtype=np.int64)
    h, S, T = solve_level(EdgeArrays(z, z), 1, 1, Fraction(1))
    assert h == 0 and len(S) == 0 and len(T) == 0


def test_network_shape():
    src = np.array([0, 0, 1], dtype=np.int64)
    dst = np.array([1, 2, 2], dtype=np.int64)
    net = build_dds_network(EdgeArrays(src, dst), 1, 2, Fraction(2, 3))
    # nodes: s, t, 2 sources, 2 destinations; no node per edge
    assert net.dinic.n == network_nodes(2, 2) == 2 + 2 + 2
    # arcs: one per edge, s→u_out and u_out→t per source, v_in→t per destination
    assert len(net.dinic.to) // 2 == 3 + 2 * 2 + 2
    assert all(isinstance(c, int) for c in net.dinic.cap)
    assert (net.m, net.q) == (3, 3)
    assert list(net.src_labels) == [0, 1]
    assert list(net.dst_labels) == [1, 2]


def test_mismatched_arrays_rejected():
    with pytest.raises(ValueError):
        build_dds_network(
            EdgeArrays(np.array([0, 1]), np.array([1])), 1, 1, Fraction(1)
        )


# --- networkx as an independent min-cut oracle -------------------------------


def _nx_network(src, dst, i, j, lam):
    """The vertex network at level λ, built here from the edge list alone."""
    p, q = lam.numerator, lam.denominator
    g = nx.DiGraph()
    g.add_nodes_from(["s", "t"])
    for u, d in zip(*np.unique(src, return_counts=True)):
        g.add_edge("s", ("out", int(u)), capacity=q * int(d))
        g.add_edge(("out", int(u)), "t", capacity=p * j)
    for v in np.unique(dst):
        g.add_edge(("in", int(v)), "t", capacity=p * i)
    for u, v in zip(src.tolist(), dst.tolist()):
        g.add_edge(("out", u), ("in", v), capacity=q)
    return g


def _nx_min_cut(src, dst, i, j, lam):
    """``(h, S, T)`` at level λ from networkx's maximum flow: S and T are
    the vertices whose nodes the residual graph reaches from s, the source
    side of the smallest minimum cut."""
    g = _nx_network(src, dst, i, j, lam)
    value, flow = nx.maximum_flow(g, "s", "t")
    seen, todo = {"s"}, ["s"]
    while todo:
        u = todo.pop()
        room = [v for v, d in g.succ[u].items() if flow[u][v] < d["capacity"]]
        room += [v for v in g.pred[u] if flow[v][u] > 0]
        for v in room:
            if v not in seen:
                seen.add(v)
                todo.append(v)
    side = sorted(x for x in seen if x not in ("s", "t"))
    h = Fraction(lam.denominator * len(src) - value, lam.denominator)
    return h, [x for kind, x in side if kind == "out"], [x for kind, x in side if kind == "in"]


def _oracle_graph(seed):
    make = gen.er_directed if seed % 2 else gen.powerlaw_directed
    e = make(40, int(np.random.default_rng(seed).integers(100, 301)), seed=seed)
    assert 100 <= e.m <= 300
    return e


# levels at, above and below the full graph's own μ
SCALES = [Fraction(1), Fraction(11, 10), Fraction(9, 10)]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("i,j", [(1, 1), (2, 3), (5, 1)])
@pytest.mark.parametrize("scale", SCALES)
def test_h_matches_networkx_min_cut(seed, i, j, scale):
    """On graphs of 100–300 edges, where enumeration cannot go, h and the
    decoded (S,T) must be networkx's: the same value, and exactly the
    smallest minimum cut's source side, not just some pair attaining h.

    Dinkelbach's steps are followed to its last level, where h = 0 and the
    empty pair ties the densest one, so a larger minimum cut shows."""
    e = _oracle_graph(seed)
    lam = scale * Fraction(e.m, j * e.n_src + i * e.n_dst)
    while True:
        h, S, T = solve_level(e, i, j, lam)
        assert (h, S.tolist(), T.tolist()) == _nx_min_cut(e.src, e.dst, i, j, lam)
        m_st = e.edges_between(S, T)
        assert m_st - lam * (j * len(S) + i * len(T)) == h
        if h == 0:
            break
        lam = Fraction(m_st, j * len(S) + i * len(T))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("i,j", [(1, 1), (2, 3), (5, 1)])
@pytest.mark.parametrize("scale", SCALES)
def test_greedy_start_is_a_feasible_flow(seed, i, j, scale):
    """The start flow the greedy pass writes into a fresh network respects
    every arc's capacity, is conserved at every inner node, and has the
    value the network records."""
    e = _oracle_graph(seed)
    lam = scale * Fraction(e.m, j * e.n_src + i * e.n_dst)
    net = build_dds_network(e, i, j, lam)
    g = _nx_network(e.src, e.dst, i, j, lam)
    labels = {0: "s", 1: "t"}
    labels.update({2 + k: ("out", int(u)) for k, u in enumerate(net.src_labels)})
    ns = len(net.src_labels)
    labels.update({2 + ns + k: ("in", int(v)) for k, v in enumerate(net.dst_labels)})
    to, cap = net.dinic.to, net.dinic.cap
    balance = [0] * net.dinic.n
    arcs = set()
    for k in range(0, len(to), 2):
        tail, head = to[k + 1], to[k]
        flow = cap[k + 1]  # a reverse arc starts empty, so it holds the flow
        assert 0 <= flow <= flow + cap[k] == g.edges[labels[tail], labels[head]]["capacity"]
        arcs.add((labels[tail], labels[head]))
        balance[tail] -= flow
        balance[head] += flow
    assert arcs == set(g.edges)
    assert balance[2:] == [0] * (net.dinic.n - 2)
    assert net.greedy_flow == -balance[0] == balance[1]


@pytest.fixture(scope="module")
def m_plant_levels():
    """The (edges, i, j, λ) of every decision network Core-Exact solves on m-plant."""
    calls = []

    def record(e, i, j, lam):
        calls.append((e, i, j, lam))
        return solve_level(e, i, j, lam)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "solve_level", record)
        exact.core_exact(load_local("m-plant"))
    assert len(calls) == 4
    return calls


def _assert_no_short_path(net):
    """Every path s→u_out→t and s→u_out→v_in→t of the network's start flow
    holds a saturated arc, and no path has four arcs: a u_out whose
    u_out→t has room carries nothing on any u_out→v_in."""
    to, cap = net.dinic.to, net.dinic.cap
    res = {(to[k + 1], to[k]): cap[k] for k in range(0, len(to), 2)}
    flow = {(to[k + 1], to[k]): cap[k + 1] for k in range(0, len(to), 2)}
    u_nodes = range(2, 2 + len(net.src_labels))
    short = {u for u in u_nodes if res[0, u] > 0}
    assert all(res[u, 1] == 0 for u in short)
    edges = [(u, v) for u, v in res if u in short and v != 1]
    assert all(res[u, v] == 0 or res[v, 1] == 0 for u, v in edges)
    roomy = {u for u in u_nodes if res[u, 1] > 0}
    assert all(flow[u, v] == 0 for u, v in flow if u in roomy and v != 1)


# the sorted edge order the generators give, and a seeded permutation of it
# (edges collected from a DataFrame come in no particular order)
EDGE_ORDERS = [pytest.param(seed, False, id=str(seed)) for seed in range(6)] + [
    pytest.param(seed, True, id=f"{seed}-shuffled") for seed in range(6)
]


@pytest.mark.parametrize("seed,shuffled", EDGE_ORDERS)
@pytest.mark.parametrize("i,j", [(1, 1), (2, 3), (5, 1)])
@pytest.mark.parametrize("scale", SCALES)
def test_start_flow_leaves_no_length3_path(seed, shuffled, i, j, scale):
    """The greedy start blocks every augmenting path of four arcs or fewer:
    for each edge (u,v) whose s→u_out has room, it saturated u_out→v_in or
    v_in→t (and u_out→t), so Dinic searches only longer paths. This holds
    whatever order the edges come in."""
    e = _oracle_graph(seed)
    if shuffled:
        perm = np.random.default_rng(seed).permutation(e.m)
        e = EdgeArrays(e.src[perm], e.dst[perm])
    lam = scale * Fraction(e.m, j * e.n_src + i * e.n_dst)
    _assert_no_short_path(build_dds_network(e, i, j, lam))


@pytest.mark.parametrize("call", range(4))
def test_start_flow_leaves_no_length3_path_on_m_plant(m_plant_levels, call):
    """The same on each of the four networks Core-Exact builds on m-plant."""
    _assert_no_short_path(build_dds_network(*m_plant_levels[call]))
