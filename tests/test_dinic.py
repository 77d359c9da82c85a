"""Unit tests for the Dinic max-flow substrate."""
import itertools
from math import inf

import networkx as nx
import numpy as np
import pytest

from repro.flow.dinic import Dinic


def _dinic(n, arcs):
    """The network on ``n`` nodes with ``arcs`` [(u, v, cap), ...] and no
    start flow."""
    tail, head, cap = [a[0] for a in arcs], [a[1] for a in arcs], [a[2] for a in arcs]
    return Dinic(n, tail, head, cap, [0] * len(cap))


def test_single_edge():
    d = _dinic(2, [(0, 1, 3.0)])
    assert d.max_flow(0, 1) == pytest.approx(3.0)


def test_two_parallel_edges():
    d = _dinic(2, [(0, 1, 3.0), (0, 1, 4.5)])
    assert d.max_flow(0, 1) == pytest.approx(7.5)


def test_series_bottleneck():
    d = _dinic(3, [(0, 1, 5.0), (1, 2, 2.0)])
    assert d.max_flow(0, 2) == pytest.approx(2.0)


def test_disconnected():
    d = _dinic(3, [(0, 1, 5.0)])
    assert d.max_flow(0, 2) == pytest.approx(0.0)


def test_no_edges():
    d = _dinic(2, [])
    assert d.max_flow(0, 1) == pytest.approx(0.0)


def test_classic_diamond():
    # s=0, a=1, b=2, t=3
    d = _dinic(4, [(0, 1, 10), (0, 2, 10), (1, 2, 1), (1, 3, 5), (2, 3, 10)])
    assert d.max_flow(0, 3) == pytest.approx(15.0)


def test_infinite_capacity_passthrough():
    d = _dinic(3, [(0, 1, 7.0), (1, 2, inf)])
    assert d.max_flow(0, 2) == pytest.approx(7.0)


def test_cut_side_contains_source_only_when_saturated():
    d = _dinic(2, [(0, 1, 2.0)])
    d.max_flow(0, 1)
    assert d.min_cut_source_side() == [0]


def _brute_min_cut(n, edges, s, t):
    """Enumerate all s/t bipartitions; min total capacity of crossing edges."""
    best = float("inf")
    others = [v for v in range(n) if v not in (s, t)]
    for bits in itertools.product([0, 1], repeat=len(others)):
        side = {s}
        for v, b in zip(others, bits):
            if b:
                side.add(v)
        cap = sum(c for (u, v, c) in edges if u in side and v not in side)
        best = min(best, cap)
    return best


def _nx_max_flow(n, edges, s, t):
    """networkx's max-flow value on the same arcs (parallel arcs summed)."""
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    for u, v, c in edges:
        prev = g.edges[u, v]["capacity"] if g.has_edge(u, v) else 0
        g.add_edge(u, v, capacity=prev + c)
    return nx.maximum_flow_value(g, s, t)


@pytest.mark.parametrize("seed", range(12))
def test_random_networks_match_bruteforce_mincut(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 8))
    n_edges = int(rng.integers(4, 16))
    edges = []
    for _ in range(n_edges):
        u, v = rng.integers(0, n, 2)
        if u == v:
            continue
        c = float(rng.integers(1, 10))
        edges.append((int(u), int(v), c))
    flow = _dinic(n, edges).max_flow(0, n - 1)
    assert flow == pytest.approx(_brute_min_cut(n, edges, 0, n - 1))
    assert flow == _nx_max_flow(n, edges, 0, n - 1)


@pytest.mark.parametrize("seed", range(8))
def test_min_cut_source_side_is_valid_cut(seed):
    """The residual-reachable set must form a cut whose capacity == flow."""
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(4, 9))
    edges = []
    for _ in range(int(rng.integers(5, 20))):
        u, v = rng.integers(0, n, 2)
        if u == v:
            continue
        c = float(rng.integers(1, 8))
        edges.append((int(u), int(v), c))
    d = _dinic(n, edges)
    flow = d.max_flow(0, n - 1)
    assert flow == _nx_max_flow(n, edges, 0, n - 1)
    side = set(d.min_cut_source_side())
    assert 0 in side and (n - 1) not in side or flow == 0
    cap = sum(c for (u, v, c) in edges if u in side and v not in side)
    assert cap == pytest.approx(flow)


@pytest.mark.parametrize("seed", range(4))
def test_arcs_are_laid_out_as_documented(seed):
    """Arc k has id 2k (tail→head) and its twin id 2k+1 (head→tail); the
    residual caps are cap − flow forward and flow on the twin; each node
    lists the ids of the arcs leaving it in ascending order."""
    rng = np.random.default_rng(200 + seed)
    n = int(rng.integers(3, 9))
    tail, head = rng.integers(0, n, 20), rng.integers(0, n, 20)
    cap = rng.integers(0, 9, 20).tolist()
    flow = [int(rng.integers(0, c + 1)) for c in cap]
    d = Dinic(n, tail, head, cap, flow)
    assert d.n == n and len(d.to) == len(d.cap) == 40
    for k, (u, v, c, f) in enumerate(zip(tail.tolist(), head.tolist(), cap, flow)):
        assert (d.to[2 * k], d.cap[2 * k]) == (v, c - f)
        assert (d.to[2 * k + 1], d.cap[2 * k + 1]) == (u, f)
    leaving = [[] for _ in range(n)]
    for k, (u, v) in enumerate(zip(tail.tolist(), head.tolist())):
        leaving[u].append(2 * k)
        leaving[v].append(2 * k + 1)
    assert d.graph == [sorted(ids) for ids in leaving]


def test_max_flow_adds_to_a_starting_flow():
    """s→a→t and s→t, capacity 5 each, starting from 3 units on s→a→t:
    ``max_flow`` returns the 7 it adds, and the cut is the same."""
    tail, head = np.array([0, 1, 0]), np.array([1, 2, 2])
    d = Dinic(3, tail, head, [5, 5, 5], [3, 3, 0])
    assert d.max_flow(0, 2) == 7
    assert d.min_cut_source_side() == [0]


def _residual_reach(d, s):
    """Oracle: the nodes a depth-first search reaches from ``s`` over arcs
    with residual capacity left."""
    seen = [False] * d.n
    seen[s] = True
    stack = [s]
    while stack:
        u = stack.pop()
        for k in d.graph[u]:
            v = d.to[k]
            if d.cap[k] > 0 and not seen[v]:
                seen[v] = True
                stack.append(v)
    return [v for v, b in enumerate(seen) if b]


def _random_arcs(rng, n, n_arcs):
    tail, head = rng.integers(0, n, n_arcs), rng.integers(0, n, n_arcs)
    keep = tail != head
    return tail[keep], head[keep], rng.integers(0, 9, int(keep.sum())).tolist()


@pytest.mark.parametrize("seed", range(12))
def test_cut_is_the_residual_reach_after_add_edge(seed):
    """After ``max_flow`` from zero flow the cut is exactly what a fresh
    search of the residual graph reaches from ``s``."""
    rng = np.random.default_rng(300 + seed)
    n = int(rng.integers(3, 10))
    tail, head, cap = _random_arcs(rng, n, int(rng.integers(3, 30)))
    d = Dinic(n, tail, head, cap, [0] * len(cap))
    d.max_flow(0, n - 1)
    assert d.min_cut_source_side() == _residual_reach(d, 0)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("start", ["partial", "maximum"])
def test_cut_is_the_residual_reach_from_a_starting_flow(seed, start):
    """The same from a feasible start flow: a maximum flow of the network
    with capacities cut down at random, or a maximum flow of the network
    itself, from which ``max_flow`` adds nothing and runs no phase."""
    rng = np.random.default_rng(400 + seed)
    n = int(rng.integers(3, 10))
    tail, head, cap = _random_arcs(rng, n, int(rng.integers(3, 30)))
    low = cap if start == "maximum" else [int(rng.integers(0, c + 1)) for c in cap]
    pre = Dinic(n, tail, head, low, [0] * len(low))
    pre_value = pre.max_flow(0, n - 1)
    flow = pre.cap[1::2]  # a reverse residual holds its arc's flow
    d = Dinic(n, tail, head, cap, flow)
    full = Dinic(n, tail, head, cap, [0] * len(cap))
    added = d.max_flow(0, n - 1)
    assert pre_value + added == full.max_flow(0, n - 1)
    if start == "maximum":
        assert added == 0
    assert d.min_cut_source_side() == _residual_reach(d, 0)
