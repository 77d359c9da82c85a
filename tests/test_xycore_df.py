"""DataFrame engine parity with the local engine for [x,y]-cores.

Tests that inspect the DataFrame an engine returns set the driver budget
to 0, so every round runs on Spark; the mixed-path test sets it to half
the graph, so a probe starts on Spark and finishes on the driver.
"""
import numpy as np
import pytest

from repro.core import xycore
from repro.core.approx import core_approx
from repro.core.exact import core_exact
from repro.core.xycore import DataFrameEngine, LocalEngine, to_local, y_max_for_x
from repro.graph import generators as gen
from repro.graph.local import EdgeArrays, collect_edges
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def graph_pair(spark):
    e = gen.powerlaw_directed(60, 350, seed=17)
    return e, gen.to_spark(spark, e).cache()


def _pairs(e):
    return set(zip(e.src.tolist(), e.dst.tolist()))


def _same_result(a, b):
    """Whole-result equality: S, T, |E(S,T)| and every stat."""
    assert (a.S.tolist(), a.T.tolist(), a.edges_st) == (b.S.tolist(), b.T.tolist(), b.edges_st)
    assert a.stats == b.stats


@pytest.mark.parametrize(
    "x,y,floor",
    [(1, 1, 0), (2, 2, 0), (3, 1, 0), (1, 4, 0), (2, 5, 0), (2, 1, 16)],
    # the ids of the floor-0 cases predate the floor
    ids=["1-1", "2-2", "3-1", "1-4", "2-5", "2-1-floor16"],
)
def test_xy_core_parity(spark, graph_pair, spark_only, df_rounds, x, y, floor):
    """The Spark rounds' core equals numpy's; at floor 16 the product rule
    removes a third of the [2,1]-core's edges."""
    local, df = graph_pair
    c_local = LocalEngine().core(local, x, y, floor)
    c_df = collect_edges(DataFrameEngine().core(df, x, y, floor))
    assert _pairs(c_local) == _pairs(c_df)
    assert df_rounds[0] >= 1


def test_xy_core_df_empty_result(spark, graph_pair, spark_only, df_rounds):
    _, df = graph_pair
    c = DataFrameEngine().core(df, 1000, 1000)
    assert c.count() == 0
    assert df_rounds[0] >= 1


def test_df_engine_counts(spark, graph_pair):
    local, df = graph_pair
    eng = DataFrameEngine()
    assert eng.counts(df) == (local.n_src, local.n_dst, local.m)
    assert eng.max_out_degree(df) == local.out_degree_max()
    assert eng.max_in_degree(df) == local.in_degree_max()


def test_df_engine_degree_bounds_zero_on_empty(spark, graph_pair):
    _, df = graph_pair
    eng = DataFrameEngine()
    empty = df.filter("src < 0")
    assert eng.max_out_degree(empty) == 0
    assert eng.max_in_degree(empty) == 0
    assert eng.counts(empty) == (0, 0, 0)


@pytest.mark.parametrize("x", [1, 2, 3])
def test_y_max_parity(spark, graph_pair, x):
    local, df = graph_pair
    st_l, st_d = {"core_probes": 0}, {"core_probes": 0}
    y_l, core_l, _ = y_max_for_x(local, x, LocalEngine(), st_l, 0, local.m)
    y_d, core_d, _ = y_max_for_x(df, x, DataFrameEngine(), st_d, 0, local.m)
    assert (y_l, st_l) == (y_d, st_d)
    assert _pairs(core_l) == _pairs(to_local(core_d))


def test_max_xy_core_parity(spark, graph_pair):
    local, df = graph_pair
    _same_result(core_approx(local), core_approx(df))


def test_xy_core_df_degree_invariant_via_oracle(spark, graph_pair, spark_only, df_rounds):
    """Every surviving source has >= x out-edges — checked in SQL."""
    _, df = graph_pair
    core = DataFrameEngine().core(df, 2, 3)
    assert df_rounds[0] >= 1
    from pyspark.sql import functions as F

    viol = (
        core.groupBy("src").agg(F.count(F.lit(1)).alias("d")).filter("d < 2")
    )
    assert viol.count() == 0
    assert_equivalent(
        viol,
        "SELECT src, count(*) d FROM c GROUP BY src HAVING count(*) < 2",
        c=core,
    )


def test_mixed_path_parity(spark, graph_pair, monkeypatch, count_calls, df_rounds):
    """Budget m/2: probes start as Spark rounds and finish on the driver."""
    local, df = graph_pair
    monkeypatch.setattr(xycore, "DRIVER_EDGE_BUDGET", local.m // 2)
    collects = count_calls(xycore, "collect_edges")

    c_local = LocalEngine().core(local, 4, 4)
    assert c_local.m <= local.m // 2
    c_df = DataFrameEngine().core(df, 4, 4)
    assert isinstance(c_df, EdgeArrays)
    assert _pairs(c_df) == _pairs(c_local)
    assert df_rounds[0] >= 1 and collects[0] == 1

    _same_result(core_approx(local), core_approx(df))

    rounds, n_collects = df_rounds[0], collects[0]
    assert core_exact(df).rho2 == core_exact(local).rho2
    assert df_rounds[0] > rounds and collects[0] > n_collects
