"""Unit tests for the Dinic max-flow substrate."""
import itertools
from math import inf

import networkx as nx
import numpy as np
import pytest

from repro.flow.dinic import Dinic


def test_single_edge():
    d = Dinic(2)
    d.add_edge(0, 1, 3.0)
    assert d.max_flow(0, 1) == pytest.approx(3.0)


def test_two_parallel_edges():
    d = Dinic(2)
    d.add_edge(0, 1, 3.0)
    d.add_edge(0, 1, 4.5)
    assert d.max_flow(0, 1) == pytest.approx(7.5)


def test_series_bottleneck():
    d = Dinic(3)
    d.add_edge(0, 1, 5.0)
    d.add_edge(1, 2, 2.0)
    assert d.max_flow(0, 2) == pytest.approx(2.0)


def test_disconnected():
    d = Dinic(3)
    d.add_edge(0, 1, 5.0)
    assert d.max_flow(0, 2) == pytest.approx(0.0)


def test_no_edges():
    d = Dinic(2)
    assert d.max_flow(0, 1) == pytest.approx(0.0)


def test_classic_diamond():
    # s=0, a=1, b=2, t=3
    d = Dinic(4)
    d.add_edge(0, 1, 10)
    d.add_edge(0, 2, 10)
    d.add_edge(1, 2, 1)
    d.add_edge(1, 3, 5)
    d.add_edge(2, 3, 10)
    assert d.max_flow(0, 3) == pytest.approx(15.0)


def test_infinite_capacity_passthrough():
    d = Dinic(3)
    d.add_edge(0, 1, 7.0)
    d.add_edge(1, 2, inf)
    assert d.max_flow(0, 2) == pytest.approx(7.0)


def test_negative_capacity_rejected():
    d = Dinic(2)
    with pytest.raises(ValueError):
        d.add_edge(0, 1, -1.0)


def test_cut_side_contains_source_only_when_saturated():
    d = Dinic(2)
    d.add_edge(0, 1, 2.0)
    d.max_flow(0, 1)
    assert d.min_cut_source_side(0) == [0]


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
    d = Dinic(n)
    for _ in range(n_edges):
        u, v = rng.integers(0, n, 2)
        if u == v:
            continue
        c = float(rng.integers(1, 10))
        edges.append((int(u), int(v), c))
        d.add_edge(int(u), int(v), c)
    flow = d.max_flow(0, n - 1)
    assert flow == pytest.approx(_brute_min_cut(n, edges, 0, n - 1))
    assert flow == _nx_max_flow(n, edges, 0, n - 1)


@pytest.mark.parametrize("seed", range(8))
def test_min_cut_source_side_is_valid_cut(seed):
    """The residual-reachable set must form a cut whose capacity == flow."""
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(4, 9))
    edges = []
    d = Dinic(n)
    for _ in range(int(rng.integers(5, 20))):
        u, v = rng.integers(0, n, 2)
        if u == v:
            continue
        c = float(rng.integers(1, 8))
        edges.append((int(u), int(v), c))
        d.add_edge(int(u), int(v), c)
    flow = d.max_flow(0, n - 1)
    assert flow == _nx_max_flow(n, edges, 0, n - 1)
    side = set(d.min_cut_source_side(0))
    assert 0 in side and (n - 1) not in side or flow == 0
    cap = sum(c for (u, v, c) in edges if u in side and v not in side)
    assert cap == pytest.approx(flow)


@pytest.mark.parametrize("seed", range(4))
def test_from_arcs_lays_out_arcs_as_add_edge(seed):
    """Arcs built from arrays get the ids, per-node order and capacities
    that ``add_edge`` calls in the same order give."""
    rng = np.random.default_rng(200 + seed)
    n = int(rng.integers(3, 9))
    tail, head = rng.integers(0, n, 20), rng.integers(0, n, 20)
    caps = rng.integers(0, 9, 20).tolist()
    by_calls = Dinic(n)
    for u, v, c in zip(tail.tolist(), head.tolist(), caps):
        by_calls.add_edge(u, v, c)
    by_arrays = Dinic.from_arcs(n, tail, head, [x for c in caps for x in (c, 0)])
    assert (by_arrays.n, by_arrays.to, by_arrays.graph, by_arrays.cap) == (
        by_calls.n, by_calls.to, by_calls.graph, by_calls.cap
    )
    assert by_arrays.max_flow(0, n - 1) == by_calls.max_flow(0, n - 1)


def test_max_flow_adds_to_a_starting_flow():
    """s→a→t and s→t, capacity 5 each, starting from 3 units on s→a→t:
    ``max_flow`` returns the 7 it adds, and the cut is the same."""
    tail, head = np.array([0, 1, 0]), np.array([1, 2, 2])
    d = Dinic.from_arcs(3, tail, head, [2, 3, 2, 3, 5, 0])
    assert d.max_flow(0, 2) == 7
    assert d.min_cut_source_side(0) == [0]
