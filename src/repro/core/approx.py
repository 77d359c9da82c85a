"""Approximation algorithms for DDS.

- ``core_approx`` — the paper's contribution: return the nonempty
  [x,y]-core maximizing x·y. Guarantee (DESIGN.md §2): that core has
  ρ ≥ sqrt(xy) ≥ ρ_opt/2 — a deterministic 2-approximation whose cost
  is a handful of core fixpoints instead of any flow or ratio sweep.
  ``y_max(x)`` is non-increasing in x, so its branch-and-bound over x
  never decomposes a core that provably cannot win.

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
from repro.core.ratios import check_eps, geometric_grid
from repro.core.result import DDSResult
from repro.core.xycore import degree_round, engine_for, to_driver, to_local, y_max_for_x
from repro.graph.local import EdgeArrays, check_no_duplicates, empty_edges


def core_approx(edges, m: int | None = None) -> DDSResult:
    """The paper's 2-approximation: the nonempty [x,y]-core maximizing
    x·y, found exactly by branch-and-bound.

    Only a product above the floor max(best x·y found, d_out_max − 1,
    d_in_max − 1) can win: the [d_out_max,1]- and [1,d_in_max]-cores
    contain the stars of the top-degree vertices, so are never empty. Every
    x is visited by one rule, geometric seeds (x = 1,2,4,…) first to set a
    good incumbent early, then the rest ascending. A visit reads the y
    bound and product core recorded for x's predecessor (x//2 for a seed,
    x − 1 in the scan) and skips x when x times that bound cannot beat the
    floor. Otherwise ``y_max_for_x`` searches x at the current floor from
    that core: it builds the product core holding every [x,y]-core above
    the floor and probes only the y above ``floor``//x, so an x that cannot
    win costs one fixpoint. An empty product core ends the search: no
    x' ≥ x can beat the floor, which only rises.

    Correctness of the skip rule: the y a searched x returns bounds the y'
    of every [x',y']-core with x' ≥ x that beats the floor then, so also a
    later, higher one; below the floor it is capped by the product core's
    max in-degree, so it need not bound y_max(x). A skipped x inherits its
    predecessor's bound and product core, which still bound and hold every
    such core at x' ≥ x. So an x' is only skipped when no core at x' can
    beat the floor, and the bound caps (and so passes on to) the y
    searched at x'. The winning product is at least the larger star's and
    beats every incumbent before it, so it is above the floor whenever the
    search reaches the winning x: that x is neither skipped nor cut off,
    its y_max is found exactly, and a later x only replaces it with a
    larger product. The winning (x, y) and its core are those of the same
    search without a floor.

    The product cores nest (the one at x with a higher floor lies inside
    the one at any x' < x, and the maximal core of any superset of it is
    itself), so a search from the predecessor's core finds what one from
    the full graph would. A DataFrame input within ``DRIVER_EDGE_BUDGET``
    is collected once on entry (``to_driver``); a caller that has already
    entered and counted ``edges`` (Core-Exact) passes its edge count ``m``,
    so a DataFrame above the budget is not headed a second time. Duplicate
    edges are rejected once on the driver. The winning core reaches the
    driver once, on return: above the budget each incumbent stays a Spark
    state until it is known to win.
    """
    edges = to_driver(edges, m)
    check_no_duplicates(edges)
    eng = engine_for(edges)
    stats: dict = {"core_probes": 0, "x_evaluated": 0, "x_skipped": 0}
    x_ub, y_ub = eng.max_out_degree(edges), eng.max_in_degree(edges)
    star = max(x_ub, y_ub) - 1  # a star core beats this
    best = (0, 0, empty_edges())  # (x, y, core as engine state)
    seen: dict = {0: (y_ub, edges)}  # visited x -> (y bound, product core)

    def visit(x: int, prev: int) -> bool:
        """Skip or search x from prev's entry; False once no x' ≥ x can
        beat the floor."""
        nonlocal best
        y, base = seen[prev]
        floor = max(best[0] * best[1], star)
        if x * y <= floor:
            stats["x_skipped"] += 1
        else:
            y, core, base = y_max_for_x(base, x, eng, stats, floor, y)
            stats["x_evaluated"] += 1
            if core is not None:  # x·y beats the floor, so the best product too
                best = (x, y, core)
            if eng.m(base) == 0:  # it holds every core at x' ≥ x above the floor
                return False
        seen[x] = (y, base)
        return True

    x = 1
    while x <= x_ub and visit(x, x // 2):
        x *= 2
    for x in range(2, min(x, x_ub + 1)):  # below a seed that ended the search
        if x not in seen and not visit(x, x - 1):
            break
        del seen[x - 1]
    x, y, core = best
    stats.update({"x": x, "y": y, "xy": x * y})
    return DDSResult.of_edges(to_local(core), stats)


# ---------------------------------------------------------------------------
# KS-Approx: exact sequential peel per grid ratio (baseline)
# ---------------------------------------------------------------------------


def _peel_one_ratio(e: EdgeArrays, a: float):
    """Exact greedy peel for skewed density at ratio ``a``.

    Repeatedly removes the vertex-role minimizing degree/cost, where the
    S-role (side 0) of u costs 1/(2√a) and the T-role (side 1) of v costs
    √a/2. ``e`` must be compacted: every id of its spaces is a vertex.
    Returns the snapshot (S, T, m) with the best *true* ρ.
    """
    cost = (1.0 / (2.0 * sqrt(a)), sqrt(a) / 2.0)
    space = (e.src_ids, e.dst_ids)
    ids = [d.ids for d in space]
    deg = [d.degrees() for d in space]
    # adjacency: edge ids per vertex of each side
    order = [np.argsort(x, kind="stable") for x in ids]
    start = [np.searchsorted(x[o], np.arange(d.n + 1)) for x, o, d in zip(ids, order, space)]

    alive_edge = np.ones(e.m, dtype=bool)
    alive = [np.ones(d.n, dtype=bool) for d in space]
    heap: list[tuple[float, int, int, int]] = []  # (score, side, idx, deg-at-push)
    for side in (0, 1):
        for k in range(space[side].n):
            heapq.heappush(heap, (deg[side][k] / cost[side], side, k, deg[side][k]))

    m_alive, n_alive = e.m, [space[0].n, space[1].n]
    best = rho2_frac(m_alive, *n_alive)
    best_step = 0
    removals: list[tuple[int, int]] = []
    while m_alive > 0 and heap:
        _, side, k, d = heapq.heappop(heap)
        if not alive[side][k] or d != deg[side][k]:
            continue
        alive[side][k] = False
        n_alive[side] -= 1
        other = 1 - side
        o_ids, o_deg, o_alive, o_cost = ids[other], deg[other], alive[other], cost[other]
        for eid in order[side][start[side][k] : start[side][k + 1]]:
            if alive_edge[eid]:
                alive_edge[eid] = False
                m_alive -= 1
                ok = o_ids[eid]
                o_deg[ok] -= 1
                if o_alive[ok]:
                    heapq.heappush(heap, (o_deg[ok] / o_cost, other, ok, o_deg[ok]))
        removals.append((side, k))
        cur = rho2_frac(m_alive, *n_alive)
        if cur > best:
            best = cur
            best_step = len(removals)
    # rebuild the best snapshot
    for side in (0, 1):
        alive[side][:] = True
    for side, k in removals[:best_step]:
        alive[side][k] = False
    s_set = space[0].labels[alive[0]]
    t_set = space[1].labels[alive[1]]
    return s_set, t_set, e.edges_between(s_set, t_set)


def ks_approx(e: EdgeArrays, *, eps: float = 0.5) -> DDSResult:
    """Baseline 2(1+ε)-approx: exact peel per ratio of a (1+ε) grid."""
    check_eps(eps)
    check_no_duplicates(e)
    stats = {"ratios": 0, "eps": eps}
    if e.m == 0:
        return DDSResult.of_edges(empty_edges(), stats)
    e = e.compact()  # the peel counts every id of the space as a vertex
    grid = geometric_grid(1.0 / e.dst_ids.n, float(e.src_ids.n), eps)
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
    check_eps(eps)
    edges = to_driver(edges)
    ns, nt, m = counts = engine_for(edges).counts(edges)
    stats = {"ratios": 0, "eps": eps, "peel_rounds": 0}
    if m == 0:
        return DDSResult.of_edges(empty_edges(), stats)
    check_no_duplicates(edges)
    grid = geometric_grid(1.0 / nt, float(ns), eps)
    best, best_rho2 = edges, rho2_frac(m, ns, nt)
    for a in grid:
        state, rho2, r = _bs_peel(edges, counts, a, eps)
        stats["peel_rounds"] += r
        if rho2 > best_rho2:
            best, best_rho2 = state, rho2
    stats["ratios"] = len(grid)
    return DDSResult.of_edges(to_local(best), stats)
