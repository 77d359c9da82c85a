"""The DDS algorithms on edge DataFrames: parity with their EdgeArrays runs,
and the entry handoff: how many Spark jobs and collects reach the driver."""
import uuid
from fractions import Fraction
from math import floor

import numpy as np
import pytest

from repro import datasets
from repro.core import xycore
from repro.core.approx import bs_approx, core_approx
from repro.core.exact import core_exact
from repro.core.xycore import LocalEngine
from repro.graph import generators as gen
from repro.graph.local import EdgeArrays, empty_edges

ALGOS = [core_approx, bs_approx, core_exact]


def pairs(e: EdgeArrays) -> list[tuple[int, int]]:
    return sorted(zip(e.src.tolist(), e.dst.tolist()))


@pytest.fixture(scope="module")
def graph_pair(spark):
    e = gen.powerlaw_directed(50, 250, seed=19)
    return e, gen.to_spark(spark, e).cache()


@pytest.fixture
def spark_jobs(spark):
    """``spark_jobs(fn, *args)`` runs ``fn(*args)`` in a Spark job group of
    its own and returns its result and the number of jobs the group ran."""
    sc = spark.sparkContext

    def run(fn, *args):
        group = f"spark-jobs-{uuid.uuid4().hex}"
        sc.setJobGroup(group, group)
        try:
            out = fn(*args)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        sc._jsc.sc().listenerBus().waitUntilEmpty()  # job starts reach the tracker
        return out, len(sc.statusTracker().getJobIdsForGroup(group))

    return run


def test_core_approx_df_parity(spark, graph_pair):
    local, df = graph_pair
    a, b = core_approx(local), core_approx(df)
    assert a.rho2 == b.rho2
    assert set(a.S.tolist()) == set(b.S.tolist())
    assert set(a.T.tolist()) == set(b.T.tolist())


def test_core_approx_small_df_collects_once(spark, graph_pair, count_calls):
    """A DataFrame within the driver budget is handed off once, on entry."""
    local, df = graph_pair
    collects = count_calls(xycore, "collect_edges")
    assert core_approx(df).rho2 == core_approx(local).rho2
    assert collects[0] == 1


@pytest.mark.parametrize("eps", [0.5, 1.0])
def test_bs_approx_df_parity(spark, graph_pair, spark_only, df_rounds, eps):
    local, df = graph_pair
    a, b = bs_approx(local, eps=eps), bs_approx(df, eps=eps)
    assert a.rho2 == b.rho2
    assert df_rounds[0] >= 1


def test_bs_approx_mixed_path_parity(spark, graph_pair, monkeypatch, count_calls, df_rounds):
    """Budget m/2: every peel starts as Spark rounds and finishes in numpy."""
    local, df = graph_pair
    monkeypatch.setattr(xycore, "DRIVER_EDGE_BUDGET", local.m // 2)
    collects = count_calls(xycore, "collect_edges")
    a, b = bs_approx(local, eps=1.0), bs_approx(df, eps=1.0)
    assert a.rho2 == b.rho2
    assert set(a.S.tolist()) == set(b.S.tolist())
    assert set(a.T.tolist()) == set(b.T.tolist())
    assert a.stats["peel_rounds"] == b.stats["peel_rounds"]
    # some rounds ran on Spark, the rest in numpy after a collect
    assert 1 <= df_rounds[0] < b.stats["peel_rounds"] and collects[0] >= 1


def test_bs_approx_small_df_collects_once(spark, graph_pair, count_calls):
    """A DataFrame within the driver budget is handed off once, on entry."""
    local, df = graph_pair
    collects = count_calls(xycore, "collect_edges")
    assert bs_approx(df).rho2 == bs_approx(local).rho2
    assert collects[0] == 1


@pytest.mark.parametrize("algo", ALGOS)
def test_small_df_entry_is_one_spark_job(spark, graph_pair, count_calls, spark_jobs, algo):
    """A DataFrame within the driver budget reaches the driver in one Spark
    job, its one bounded collect: no count or aggregation runs before it."""
    local, df = graph_pair
    df.count()  # fill the cache outside the measured call
    collects = count_calls(xycore, "collect_edges")
    r, jobs = spark_jobs(algo, df)
    assert (jobs, collects[0]) == (1, 1)
    assert r.rho2 == algo(local).rho2


@pytest.mark.parametrize("algo", ALGOS)
def test_driver_budget_boundary(spark, monkeypatch, df_rounds, algo):
    """Budget m: the input is collected on entry and no Spark round runs.
    Budget m − 1: it stays on Spark, and the answer and stats are the same."""
    local = gen.er_directed(10, 30, seed=5)
    df = gen.to_spark(spark, local).cache()

    def run(budget):
        monkeypatch.setattr(xycore, "DRIVER_EDGE_BUDGET", budget)
        before = df_rounds[0]
        entered = xycore.to_driver(df)
        return entered, algo(df), df_rounds[0] - before

    entered, at_m, rounds = run(local.m)
    assert isinstance(entered, EdgeArrays) and entered.m == local.m
    assert rounds == 0
    entered, below_m, rounds = run(local.m - 1)
    assert entered is df
    assert rounds >= 1
    assert at_m.rho2 == below_m.rho2 == algo(local).rho2
    assert at_m.S.tolist() == below_m.S.tolist()
    assert at_m.T.tolist() == below_m.T.tolist()
    assert at_m.stats == below_m.stats


@pytest.mark.parametrize("budget", [xycore.DRIVER_EDGE_BUDGET, 0])
@pytest.mark.parametrize("algo", ALGOS)
def test_df_empty_entry(spark, monkeypatch, algo, budget):
    """An empty DataFrame, collected on entry even at budget 0, reports the
    stats keys of the empty EdgeArrays run."""
    monkeypatch.setattr(xycore, "DRIVER_EDGE_BUDGET", budget)
    df = gen.to_spark(spark, gen.er_directed(5, 3, seed=1)).filter("src < 0")
    r = algo(df)
    assert r.rho == 0.0
    assert r.stats.keys() == algo(empty_edges()).stats.keys()


def test_bs_approx_df_empty(spark):
    df = gen.to_spark(spark, gen.er_directed(5, 3, seed=1)).filter("src < 0")
    r = bs_approx(df)
    assert r.rho == 0.0


@pytest.fixture
def collects(monkeypatch):
    """Every ``collect_edges`` call of one test: (DataFrame, limit, EdgeArrays returned)."""
    log = []
    fn = xycore.collect_edges

    def logged(edges, limit=None):
        out = fn(edges, limit)
        log.append((edges, limit, out))
        return out

    monkeypatch.setattr(xycore, "collect_edges", logged)
    return log


@pytest.mark.parametrize(
    "n,m,seed,full_pair",
    [(10, 30, 5, False), (8, 30, 2, True)],
    ids=["er-10-30-5", "full-pair-8-30-2"],
)
def test_core_exact_heads_once_above_budget(spark, monkeypatch, collects, n, m, seed, full_pair):
    """Above the budget, Core-Exact collects one bounded head on entry and
    hands Core-Approx the state it has entered, not the input again. The
    second graph's densest pair is the full pair, which beats Core-Approx:
    it is still the answer with no seed of its own."""
    local = gen.er_directed(n, m, seed=seed)
    df = gen.to_spark(spark, local).cache()
    want = core_exact(local)
    assert (want.edges_st == local.m) == full_pair
    monkeypatch.setattr(xycore, "DRIVER_EDGE_BUDGET", local.m - 1)
    got = core_exact(df)
    assert [limit for _, limit, _ in collects if limit is not None] == [local.m]
    assert got.rho2 == want.rho2
    assert got.S.tolist() == want.S.tolist() and got.T.tolist() == want.T.tolist()


def test_core_approx_collects_its_core_once(spark, spark_only, collects):
    """With every round on Spark, Core-Approx keeps each incumbent core as a
    Spark state and collects only the winner, once, on return."""
    local = datasets.load_local("xs-pl")
    df = gen.to_spark(spark, local).cache()
    r = core_approx(df)
    unbounded = [out for _, limit, out in collects if limit is None]
    assert len(unbounded) == 1
    whole = unbounded[0]
    want = core_approx(local)
    assert pairs(whole) == pairs(LocalEngine().core(local, want.stats["x"], want.stats["y"]))
    assert whole.m == r.edges_st
    assert np.unique(whole.src).tolist() == r.S.tolist()
    assert np.unique(whole.dst).tolist() == r.T.tolist()


def test_core_exact_collects_its_product_core_once_above_budget(
    spark, spark_only, count_calls, collects
):
    """With every round on Spark, Core-Exact's Spark phase ends at its
    product core. It makes two unbounded collects, Core-Approx's winning
    core and then the product core at floor F = ⌊ρ_approx²·(4/5)²/4⌋ − 1,
    and every probe, prune and cut after them runs on the driver."""
    local = gen.er_directed(10, 30, seed=5)
    df = gen.to_spark(spark, local).cache()
    want = core_exact(local)
    approx = core_approx(local)
    cores = count_calls(xycore.DataFrameEngine, "core")
    got = core_exact(df)
    whole = [out for _, limit, out in collects if limit is None]
    assert len(whole) == 2
    winner, product = whole
    assert np.unique(winner.src).tolist() == approx.S.tolist()
    assert np.unique(winner.dst).tolist() == approx.T.tolist()
    f = floor(approx.rho2 * Fraction(4, 5) ** 2 / 4) - 1
    assert pairs(product) == pairs(LocalEngine().core(local, 1, 1, f))
    assert cores[0] == got.stats["approx_core_probes"] + 1
    assert (got.rho2, got.S.tolist(), got.T.tolist()) == (want.rho2, want.S.tolist(), want.T.tolist())
    assert got.stats == want.stats


def test_core_exact_df_parity(spark, graph_pair):
    local, df = graph_pair
    a, b = core_exact(local), core_exact(df)
    assert a.rho2 == b.rho2


def test_core_exact_df_matches_bruteforce(spark):
    from repro.core.bruteforce import brute_force_dds
    from repro.graph.local import EdgeArrays

    rng = np.random.default_rng(7)
    pairs = np.unique(
        np.stack([rng.integers(0, 7, 15), rng.integers(0, 7, 15)], 1), axis=0
    )
    local = EdgeArrays(pairs[:, 0].copy(), pairs[:, 1].copy())
    df = gen.to_spark(spark, local)
    assert core_exact(df).rho2 == brute_force_dds(local).rho2


def test_tpch_graph_algorithms_run(spark):
    """End-to-end on the TPC-H-lite-derived order→part graph."""
    from repro import datasets

    df = datasets.load_spark("tpch-op-xs", spark).cache()
    r = core_approx(df)
    assert r.rho > 0
    # order ids and part ids live in disjoint ranges (bipartite input)
    assert r.S.max() < 1_000_000_000 <= r.T.min()


@pytest.mark.parametrize("algo", [core_approx, bs_approx, core_exact])
def test_dataframe_with_duplicate_edges_rejected(spark, algo):
    """A DataFrame within the driver budget is checked once collected, as an
    EdgeArrays is on entry (core_approx used to return E=4 on |S|=3, |T|=1)."""
    from repro.graph.schema import EDGE_SCHEMA

    rows = [(0, 1), (0, 1), (0, 2), (1, 1), (1, 2), (2, 1)]
    df = spark.createDataFrame(rows, schema=EDGE_SCHEMA)
    with pytest.raises(ValueError, match="duplicate"):
        algo(df)
