"""Approximation algorithms for DDS.

- ``core_approx`` — the paper's contribution: return the nonempty
  [x,y]-core maximizing x·y. Guarantee (DESIGN.md §2): that core has
  ρ ≥ sqrt(xy) ≥ ρ_opt/2 — a deterministic 2-approximation whose cost
  is a handful of core fixpoints instead of any flow or ratio sweep.

- ``ks_approx`` — baseline: exact greedy peeling (Charikar-style,
  adapted to the directed objective per Khuller–Saha) for every ratio in
  a (1+ε) geometric grid. 2(1+ε)-approximation; the per-vertex peel is
  inherently sequential, so it runs on the driver (it is the *baseline*;
  the paper's point is precisely that this sweep is wasteful).

- ``bs_approx`` — baseline: Bahmani-style *batch* peeling per grid
  ratio: every round removes all S-vertices with out-degree ≤
  (1+ε)·2m·c_S/D and all T-vertices with in-degree ≤ (1+ε)·2m·c_T/D
  (D = c_S|S| + c_T|T|). If no vertex qualifies, summing the two
  negations gives 2m > (1+ε)·2m — contradiction — so every round makes
  progress and the peel finishes in O(log n) rounds, which is what makes
  it a dataflow algorithm. 2(1+ε)²-approximation (grid × peel losses).
  Its rounds run on Spark while the state is above the driver budget
  and in numpy below it, like the [x,y]-core fixpoint's.

Every algorithm reports the best snapshot under the *true* density ρ
(exact Fraction comparisons), which only tightens the guarantees since
ρ ≥ ρ_a for every ratio a.
"""
from __future__ import annotations

import heapq
from math import sqrt

import numpy as np

from repro.core.density import rho2_frac
from repro.core.ratios import geometric_grid
from repro.core.result import DDSResult
from repro.core.xycore import degree_round, engine_for, max_xy_core, to_driver, to_local
from repro.graph.local import EdgeArrays, check_no_duplicates


def core_approx(edges) -> DDSResult:
    """The paper's 2-approximation: the max-x·y nonempty [x,y]-core."""
    check_no_duplicates(edges)
    core = max_xy_core(edges)
    e = core.edges
    s_set = np.unique(e.src)
    t_set = np.unique(e.dst)
    stats = dict(core.stats)
    stats.update({"x": core.x, "y": core.y, "xy": core.x * core.y})
    return DDSResult(S=s_set, T=t_set, edges_st=e.m, stats=stats)


# ---------------------------------------------------------------------------
# KS-Approx: exact sequential peel per grid ratio (baseline)
# ---------------------------------------------------------------------------


def _peel_one_ratio(e: EdgeArrays, a: float):
    """Exact greedy peel for skewed density at ratio ``a``.

    Repeatedly removes the vertex-role minimizing degree/cost, where the
    S-role of u costs c_S = 1/(2√a) and the T-role of v costs c_T = √a/2.
    Returns the snapshot (S, T, m) with the best *true* ρ.
    """
    c_s = 1.0 / (2.0 * sqrt(a))
    c_t = sqrt(a) / 2.0
    s_lab, s_inv = np.unique(e.src, return_inverse=True)
    t_lab, t_inv = np.unique(e.dst, return_inverse=True)
    ns, nt = len(s_lab), len(t_lab)
    out_deg = np.bincount(s_inv, minlength=ns).astype(np.int64)
    in_deg = np.bincount(t_inv, minlength=nt).astype(np.int64)
    # adjacency: edge ids per S-node / T-node
    order_s = np.argsort(s_inv, kind="stable")
    start_s = np.searchsorted(s_inv[order_s], np.arange(ns + 1))
    order_t = np.argsort(t_inv, kind="stable")
    start_t = np.searchsorted(t_inv[order_t], np.arange(nt + 1))

    alive_edge = np.ones(e.m, dtype=bool)
    alive_s = np.ones(ns, dtype=bool)
    alive_t = np.ones(nt, dtype=bool)
    heap: list[tuple[float, int, int, int]] = []  # (score, side, idx, deg-at-push)
    for k in range(ns):
        heapq.heappush(heap, (out_deg[k] / c_s, 0, k, out_deg[k]))
    for k in range(nt):
        heapq.heappush(heap, (in_deg[k] / c_t, 1, k, in_deg[k]))

    m_alive, ns_alive, nt_alive = e.m, ns, nt
    best = rho2_frac(m_alive, ns_alive, nt_alive)
    best_step = 0
    removals: list[tuple[int, int]] = []
    while m_alive > 0 and heap:
        _, side, k, d = heapq.heappop(heap)
        if side == 0:
            if not alive_s[k] or d != out_deg[k]:
                continue
            alive_s[k] = False
            ns_alive -= 1
            for eid in order_s[start_s[k] : start_s[k + 1]]:
                if alive_edge[eid]:
                    alive_edge[eid] = False
                    m_alive -= 1
                    tk = t_inv[eid]
                    in_deg[tk] -= 1
                    if alive_t[tk]:
                        heapq.heappush(heap, (in_deg[tk] / c_t, 1, tk, in_deg[tk]))
        else:
            if not alive_t[k] or d != in_deg[k]:
                continue
            alive_t[k] = False
            nt_alive -= 1
            for eid in order_t[start_t[k] : start_t[k + 1]]:
                if alive_edge[eid]:
                    alive_edge[eid] = False
                    m_alive -= 1
                    sk = s_inv[eid]
                    out_deg[sk] -= 1
                    if alive_s[sk]:
                        heapq.heappush(heap, (out_deg[sk] / c_s, 0, sk, out_deg[sk]))
        removals.append((side, k))
        cur = rho2_frac(m_alive, ns_alive, nt_alive)
        if cur > best:
            best = cur
            best_step = len(removals)
    # rebuild the best snapshot
    alive_s[:] = True
    alive_t[:] = True
    for side, k in removals[:best_step]:
        (alive_s if side == 0 else alive_t)[k] = False
    s_set = s_lab[alive_s]
    t_set = t_lab[alive_t]
    m_best = int(
        (np.isin(e.src, s_set) & np.isin(e.dst, t_set)).sum()
    )
    return s_set, t_set, m_best


def ks_approx(e: EdgeArrays, *, eps: float = 0.5) -> DDSResult:
    """Baseline 2(1+ε)-approx: exact peel per ratio of a (1+ε) grid."""
    check_no_duplicates(e)
    stats = {"ratios": 0, "eps": eps}
    if e.m == 0:
        z = np.array([], dtype=np.int64)
        return DDSResult(z, z, 0, stats)
    ns, nt = e.n_src, e.n_dst
    grid = geometric_grid(1.0 / nt, float(ns), eps)
    best: DDSResult | None = None
    for a in grid:
        s_set, t_set, m = _peel_one_ratio(e, a)
        cand = DDSResult(s_set, t_set, m, {})
        if cand.better_than(best):
            best = cand
    assert best is not None
    stats["ratios"] = len(grid)
    best.stats = stats
    return best


# ---------------------------------------------------------------------------
# BS-Approx: batch peel, on Spark while above the driver budget
# ---------------------------------------------------------------------------


def _bs_peel(state, counts: tuple[int, int, int], a: float, eps: float):
    """One batch peel at ratio ``a`` from ``state`` with ``counts``
    (n_src, n_dst, m); returns the best-true-ρ state, its ρ², and the
    number of rounds."""
    c_s = 1.0 / (2.0 * sqrt(a))
    c_t = sqrt(a) / 2.0
    ns, nt, m = counts
    best, best_rho2, rounds = state, rho2_frac(m, ns, nt), 0
    while m:
        state = to_driver(state, m)
        denom = c_s * ns + c_t * nt
        thr_out = (1.0 + eps) * 2.0 * m * c_s / denom
        thr_in = (1.0 + eps) * 2.0 * m * c_t / denom
        state = degree_round(state, thr_out, thr_in)
        ns, nt, m_next = engine_for(state).counts(state)
        if m_next == m:  # cannot happen (see module docstring) — safety only
            break
        m, rounds = m_next, rounds + 1
        if (cur := rho2_frac(m, ns, nt)) > best_rho2:
            best, best_rho2 = state, cur
    return best, best_rho2, rounds


def bs_approx(edges, *, eps: float = 0.5) -> DDSResult:
    """Batch-peel baseline on an EdgeArrays or an edge DataFrame.

    A DataFrame peels as Spark rounds while it holds more than
    ``DRIVER_EDGE_BUDGET`` edges and in numpy after one collect (a
    DataFrame within the budget is collected once on entry). Each
    ratio's best snapshot is kept as it is peeled, never replayed.
    """
    check_no_duplicates(edges)
    ns, nt, m = counts = engine_for(edges).counts(edges)
    stats = {"ratios": 0, "eps": eps, "peel_rounds": 0}
    if m == 0:
        z = np.array([], dtype=np.int64)
        return DDSResult(z, z, 0, stats)
    edges = to_driver(edges, m)
    grid = geometric_grid(1.0 / nt, float(ns), eps)
    best, best_rho2 = edges, rho2_frac(m, ns, nt)
    for a in grid:
        state, rho2, r = _bs_peel(edges, counts, a, eps)
        stats["peel_rounds"] += r
        if rho2 > best_rho2:
            best, best_rho2 = state, rho2
    stats["ratios"] = len(grid)
    e = to_local(best)
    return DDSResult(np.unique(e.src), np.unique(e.dst), e.m, stats)
