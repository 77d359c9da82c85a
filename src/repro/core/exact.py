"""Exact DDS algorithms: Exact (baseline), DC-Exact, Core-Exact.

All three share one subroutine, ``solve_ratio``: Dinkelbach iteration on
the fixed-ratio skewed density ρ_a (see DESIGN.md §2). For a = i/j,
ρ_a = 2√(ij)·μ with the rational μ(S,T) = |E(S,T)|/(j|S|+i|T|), so
Dinkelbach runs on exact ``Fraction`` levels λ of μ; they strictly
increase, so it terminates at F(a) = max ρ_a together with an argmax
pair. A level comes from a min cut or, for free, from the μ of the graph
the step would cut (a pruned core, or the whole graph) whenever that is
higher; each solve still ends with a cut that finds nothing above λ.
DC-Exact solves from level 0, so its first level is the whole graph's μ
and every solve returns a pair.
The algorithms differ *only* in how much of the candidate-ratio
space they solve and on how small a subgraph each flow network is built —
exactly the axes of the paper's contribution:

- ``exact_dds`` (baseline, Khuller–Saha style): every candidate ratio
  i/j, flow networks on the whole graph.

- ``dc_exact``: divide-and-conquer on the ratio space. **DC lemma**
  (proved here): let (S,T) attain F(a) and c = |S|/|T|. For any pair P
  with true ratio r, ρ(P) = ρ_a(P)·q(a,r) where
  q(a,r) = ½(√(r/a)+√(a/r)) is ≥ 1 and increases with |log(r/a)|.
  Hence for r between a and c:
  ρ(P) ≤ F(a)·q(a,r) ≤ F(a)·q(a,c) = ρ(S,T) — one exact solve settles
  the whole closed ratio interval [min(a,c), max(a,c)].

- ``core_exact``: DC plus the paper's core optimizations: ρ_best is
  seeded by Core-Approx alone (≥ ρ_opt/2; a denser full pair is found
  like any other, for free by a lift when a probe's level-core is the
  whole graph); any h-argmax at level λ lives in
  the [⌈λj⌉, ⌈λi⌉]-core (removing a lower-degree vertex from an argmax
  would strictly raise h), so each ratio's network is built only on that
  core, the core is re-shrunk as Dinkelbach's level grows, and a ratio
  whose core at level ρ_best is already empty is skipped outright (it
  cannot contain the optimum unless ρ_best = ρ_opt already, because the
  DDS itself satisfies the degree bounds at its own ratio). Every probed
  ratio, solved or not, yields an exact upper bound F_ub ≥ F(a), and the
  same identity settles every r with q(a,r) ≤ ρ_best/F_ub; the radius
  (``_widen_factor``) is exact ``Fraction`` arithmetic rounded down.

Both DC algorithms share one work-list loop, ``_sweep``.
"""
from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, isqrt

from repro.core.approx import core_approx
from repro.core.density import skewed2_frac
from repro.core.ratios import all_candidate_ratios, candidate_in
from repro.core.result import DDSResult
from repro.core.xycore import LocalEngine, engine_for, to_driver, to_local
from repro.flow.network import network_nodes, solve_level
from repro.graph.local import EdgeArrays, check_no_duplicates, empty_edges

_ROOT_DIGITS = 2**64  # resolution of a value rounded down from an irrational root
_PROBE_DELTA = Fraction(1, 5)  # δ: Core-Exact probes each ratio at ρ_best·(1−δ)


def _sqrt_down(x: Fraction) -> Fraction:
    """A Fraction never above √x, and equal to it whenever √x is rational."""
    n, d = x.numerator, x.denominator
    return Fraction(isqrt(n * d * _ROOT_DIGITS**2), d * _ROOT_DIGITS)


def _level(rho2: Fraction, i: int, j: int) -> Fraction:
    """The μ-level of ρ_a = √rho2: a Fraction never above √(rho2/(4ij)),
    and equal to it whenever that root is rational.

    Rounding down is the safe direction: "no pair above λ" then also holds
    at the root. The resolution only decides whether a μ lying between λ
    and an irrational root costs one extra Dinkelbach step.
    """
    return _sqrt_down(rho2 / (4 * i * j))


def _thresholds(lam: Fraction, i: int, j: int) -> tuple[int, int]:
    """Degree bounds (x, y) every h-argmax at level λ satisfies."""
    return max(1, ceil(lam * j)), max(1, ceil(lam * i))


def solve_ratio(
    e: EdgeArrays,
    i: int,
    j: int,
    lam0: Fraction,
    *,
    prune_cores: bool = False,
    stats: dict | None = None,
) -> DDSResult | None:
    """Dinkelbach on μ = ρ_a/(2√(ij)), a = i/j, starting at level ``lam0``.

    Returns the F(a)-argmax pair if some pair has μ > ``lam0``, else None
    (meaning F(a) ≤ 2√(ij)·lam0). With ``prune_cores`` every iteration
    first shrinks the graph to the [x(λ),y(λ)]-core; cores are nested as λ
    grows, so shrinking the *current* core is valid.

    The graph left after a prune (the whole graph without ``prune_cores``)
    is itself a pair, and its μ is exact and free. While that μ is above λ
    the pair becomes the incumbent and λ rises to it (a *lift*, counted in
    ``stats["lifts"]``); Dinkelbach converges from any level a pair
    attains. So a flow network is built only once the graph's own μ is at
    most λ, and no cut is spent on rediscovering that pair.

    Each step reads everything off its min cut. The cut is the smallest
    one, so it selects nothing exactly when h = 0, which ends the
    iteration; otherwise h = |E(S,T)| − λ·(j|S| + i|T|) gives |E(S,T)|
    exactly, and its μ is the next level.
    """
    st = stats if stats is not None else {}
    cur = e
    lam = lam0
    best: DDSResult | None = None
    nodes = 0
    while True:
        if prune_cores:
            x, y = _thresholds(lam, i, j)
            cur = LocalEngine().core(cur, x, y)
            st.setdefault("core_sizes", []).append(cur.m)
        if cur.m == 0:
            return best
        mu = Fraction(cur.m, j * cur.n_src + i * cur.n_dst)
        if mu > lam:  # strict: a prune that removes nothing then moves on to a cut
            best = DDSResult.of_edges(cur, {})
            lam = mu
            st["lifts"] = st.get("lifts", 0) + 1
            continue
        h, s_sel, t_sel = solve_level(cur, i, j, lam)
        st["cuts"] = st.get("cuts", 0) + 1
        if not nodes:  # cores nest, so a call's first network is its largest
            nodes = network_nodes(cur.n_src, cur.n_dst)
            st["max_flow_nodes"] = max(st.get("max_flow_nodes", 0), nodes)
        if h == 0:  # the empty pair attains h: no pair above λ, converged
            return best
        w = j * len(s_sel) + i * len(t_sel)
        m_st = int(h + lam * w)  # h = |E(S,T)| − λw exactly
        best = DDSResult(s_sel, t_sel, m_st)
        lam = Fraction(m_st, w)


def _sweep(lo: Fraction, hi: Fraction, ns: int, nt: int, settle) -> None:
    """Settle every candidate ratio in the open interval (lo, hi): pick one
    with ``candidate_in``, let ``settle`` return the closed interval around
    it that is settled, and search the open gaps on either side in turn."""
    work = [(lo, hi)]
    while work:
        lo, hi = work.pop()
        a = candidate_in(lo, hi, ns, nt)
        if a is None:
            continue
        s_lo, s_hi = settle(a)
        work.append((lo, s_lo))
        work.append((s_hi, hi))


def exact_dds(e: EdgeArrays) -> DDSResult:
    """Baseline Exact: solve *every* candidate ratio on the whole graph."""
    check_no_duplicates(e)
    stats: dict = {
        "algo": "exact", "cuts": 0, "lifts": 0, "max_flow_nodes": 0, "ratios_solved": 0,
    }
    if e.m == 0:
        return DDSResult.of_edges(empty_edges(), stats)
    best = DDSResult.of_edges(e, {})
    ratios = all_candidate_ratios(e.n_src, e.n_dst)
    for a in ratios:
        i, j = a.numerator, a.denominator
        sol = solve_ratio(e, i, j, _level(best.rho2, i, j), stats=stats)
        if sol is not None and sol.better_than(best):
            best = sol
    stats["ratios_solved"] = len(ratios)
    best.stats = stats
    return best


def dc_exact(e: EdgeArrays) -> DDSResult:
    """Divide-and-conquer over the ratio space (no core pruning)."""
    check_no_duplicates(e)
    stats: dict = {
        "algo": "dc-exact", "ratios_solved": 0, "cuts": 0, "lifts": 0, "max_flow_nodes": 0,
    }
    if e.m == 0:
        return DDSResult.of_edges(empty_edges(), stats)
    best: DDSResult | None = None
    ns, nt = e.n_src, e.n_dst

    def settle(a: Fraction) -> tuple[Fraction, Fraction]:
        """Solve ratio a to its F(a)-argmax, of ratio c; settles [a, c] or [c, a]."""
        nonlocal best
        i, j = a.numerator, a.denominator
        # from level 0 the full graph's own μ lifts it, so a pair comes back
        sol = solve_ratio(e, i, j, Fraction(0), stats=stats)
        stats["ratios_solved"] += 1
        if sol.better_than(best):
            best = sol
        c = Fraction(len(sol.S), len(sol.T))
        return min(a, c), max(a, c)

    # every argmax ratio lies in [a_min, a_max], so these two solves settle
    # [a_min, c(a_min)] and [c(a_max), a_max]
    a_min, a_max = Fraction(1, nt), Fraction(ns, 1)
    lo = settle(a_min)[1]
    hi = settle(a_max)[0] if a_max != a_min else lo
    _sweep(lo, hi, ns, nt, settle)
    best.stats = stats
    return best


def _widen_factor(r2: Fraction) -> Fraction:
    """Largest β on the 1/_ROOT_DIGITS grid with q(a, a·β)² ≤ r2.

    q(a, a·β)² = (β + 1/β + 2)/4, and β + 1/β increases for β ≥ 1, so the
    bound holds up to the larger root of β + 1/β = k, k = 4·r2 − 2:
    β = (k + √(k² − 4))/2. The square root is rounded down and β is then
    floored onto the grid, so the result never exceeds the root (settling
    a smaller radius is always safe) and the interval endpoints built from
    it keep small denominators.
    """
    if r2 <= 1:
        return Fraction(1)
    k = 4 * r2 - 2
    beta = (k + _sqrt_down(k * k - 4)) / 2
    return Fraction(floor(beta * _ROOT_DIGITS), _ROOT_DIGITS)


def _settle_interval(
    a: Fraction, rho2_best: Fraction, f_ub2: Fraction, c: Fraction
) -> tuple[Fraction, Fraction]:
    """The closed ratio interval a probe of ratio a settles.

    Sound when F(a)² ≤ ``f_ub2``, F(a)² ≤ ``rho2_best``, and, for c ≠ a,
    c = |S|/|T| of an F(a)-argmax (S, T) with ρ(S,T)² ≤ ``rho2_best``: no
    pair whose ratio lies in the interval is then denser than ``rho2_best``.
    """
    beta = _widen_factor(rho2_best / f_ub2)
    return min(a / beta, c), max(a * beta, c)


def core_exact(edges) -> DDSResult:
    """Core-Exact: Core-Approx seeding + core-pruned DC (the paper's best).

    ``edges`` may be an EdgeArrays or an edge DataFrame. A DataFrame
    within ``DRIVER_EDGE_BUDGET`` edges is collected to the driver once on
    entry, and everything after runs locally. A larger one stays on Spark
    for three steps: its entry head (Core-Approx gets the counted state),
    Core-Approx, and the product core below, whose Catalyst rounds run
    until it is within the budget or reaches its fixpoint. The product
    core is then collected once, whatever its size, and every probe,
    prune and cut after that runs on the driver: max-flow needs every
    nonempty probe core there, and all of them lie inside it.

    ρ_best starts at Core-Approx's pair, with ρ ≥ ρ_opt/2. On near-regular
    graphs the full pair can be denser; it needs no seed of its own, since
    a probe whose level-core is the whole graph lifts λ to the full pair's
    μ with no flow, and the sweep is exact from any seed a pair attains.

    Each ratio a = i/j is probed at the μ-level λ of ρ_a = ρ_best·(1−δ),
    δ = ``_PROBE_DELTA``, rounded down to a Fraction (`_level`). Every
    probe ends with an exact upper bound F_ub² ≥ F(a)²:

    - solved (the level-core's own μ or a min cut is above λ): Dinkelbach
      runs to the F(a)-argmax (S, T), and F_ub² = F(a)² = ρ_a(S,T)². A
      core whose μ is above λ lifts λ to it and is pruned again, so a
      flow network is built only on a core whose μ is at most λ;
    - failed (empty level-core, or no pair above λ): F(a) ≤ 2√(ij)·λ, so
      F_ub² = 4ij·λ².

    Any pair with ratio r has ρ ≤ F(a)·q(a,r) ≤ ρ_best whenever
    q(a,r)² ≤ ρ_best²/F_ub², which holds on [a/β, a·β] for
    β = `_widen_factor(ρ_best²/F_ub²)`. One rule settles every probed
    ratio: [min(a/β, c), max(a·β, c)], where c = |S|/|T| when solved (the
    DC-lemma interval) and c = a otherwise.

    Every probe is searched from one product core of the input, built once
    after seeding with floor F = ⌊ρ_best²(1−δ)²/4⌋ − 1 and counted as a
    core probe. It holds every [x,y]-core with x·y > F (``LocalEngine.core``),
    and every probe is one: x ≥ λj and y ≥ λi give x·y ≥ λ²ij, and `_level`
    falls short of √v, v = ρ_best²(1−δ)²/(4ij), by less than 2⁻⁶⁴, so
    λ²ij > ρ_best²(1−δ)²/4 − 2⁻⁶⁴·√(ρ_best²(1−δ)²·ij) > F, as long as
    ρ_best²·ij < 2¹²⁸ (ρ² ≤ m and i, j ≤ m: any graph under 2⁴² edges).
    ρ_best only grows after F is set. So each probe's core is the same
    searched from the product core as from the full input.
    """
    stats: dict = {
        "algo": "core-exact",
        "ratios_solved": 0,
        "ratios_skipped_empty_core": 0,
        "core_probes_exact": 0,
        "cuts": 0, "lifts": 0, "max_flow_nodes": 0,
        "core_sizes": [],  # also when no ratio is solved
        "approx_rho": 0.0, "approx_core_probes": 0,
    }
    edges = to_driver(edges)
    eng = engine_for(edges)
    ns, nt, m = eng.counts(edges)
    if m == 0:
        return DDSResult.of_edges(empty_edges(), stats)
    approx = core_approx(edges, m)  # rejects duplicate edges
    stats["approx_rho"] = approx.rho
    stats["approx_core_probes"] = approx.stats["core_probes"]
    best: DDSResult = approx
    # one product core holds every probe's core (see the docstring)
    base = to_local(eng.core(edges, 1, 1, floor(best.rho2 * (1 - _PROBE_DELTA) ** 2 / 4) - 1))
    stats["core_probes_exact"] += 1

    def settle(a: Fraction) -> tuple[Fraction, Fraction]:
        """Probe/solve ratio a; returns the settled closed ratio interval."""
        nonlocal best
        i, j = a.numerator, a.denominator
        lam_probe = _level(best.rho2 * (1 - _PROBE_DELTA) ** 2, i, j)
        x, y = _thresholds(lam_probe, i, j)
        core = LocalEngine().core(base, x, y)
        stats["core_probes_exact"] += 1
        sol = None
        if core.m == 0:
            stats["ratios_skipped_empty_core"] += 1
        else:
            sol = solve_ratio(core, i, j, lam_probe, prune_cores=True, stats=stats)
            stats["ratios_solved"] += 1
        if sol is None:
            c, f_ub2 = a, 4 * i * j * lam_probe**2
        else:
            if sol.better_than(best):
                best = sol
            c = Fraction(len(sol.S), len(sol.T))
            f_ub2 = skewed2_frac(sol.edges_st, len(sol.S), len(sol.T), i, j)
        return _settle_interval(a, best.rho2, f_ub2, c)

    # seed slightly beyond the candidate range so the extreme candidates
    # themselves are reachable through the open-interval search
    _sweep(Fraction(1, nt) / 2, Fraction(ns, 1) * 2, ns, nt, settle)
    best.stats = stats
    return best
