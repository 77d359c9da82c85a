"""The Spark→driver handoff, ``collect_edges``: the rows it returns, the
tasks its stages run, and the arrays it hands out."""
import uuid

import numpy as np
import pytest

from repro.core import xycore
from repro.core.approx import bs_approx, core_approx, ks_approx
from repro.core.exact import core_exact, dc_exact, exact_dds
from repro.graph import generators as gen
from repro.graph.local import EdgeArrays, collect_edges


@pytest.fixture(scope="module")
def wide_df(spark):
    """A cached, filled edge DataFrame over 64 partitions, and its rows."""
    df = gen.to_spark(spark, gen.powerlaw_directed(50, 250, seed=19)).repartition(64).cache()
    rows = sorted((r[0], r[1]) for r in df.collect())
    return df, rows


def pairs(e: EdgeArrays) -> list[tuple[int, int]]:
    return sorted(zip(e.src.tolist(), e.dst.tolist()))


def test_entry_handoff_runs_one_task_wave(spark, wide_df):
    """Every stage of the entry collect runs at most one task per core,
    however many partitions the input has."""
    df, _ = wide_df
    assert df.rdd.getNumPartitions() == 64
    sc = spark.sparkContext
    group = f"handoff-{uuid.uuid4().hex}"
    sc.setJobGroup(group, group)
    try:
        entered = xycore.to_driver(df)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    tracker = sc.statusTracker()
    stages = [s for j in tracker.getJobIdsForGroup(group) for s in tracker.getJobInfo(j).stageIds]
    # stages skipped because their output is cached complete no task
    ran = [info.numCompletedTasks for s in stages if (info := tracker.getStageInfo(s)) is not None]
    assert isinstance(entered, EdgeArrays)
    assert 1 <= max(ran) <= sc.defaultParallelism


def test_collect_edges_returns_the_rows(spark, wide_df):
    """The same multiset of (src, dst) pairs as ``DataFrame.collect``."""
    df, rows = wide_df
    got = collect_edges(df)
    assert got.src.dtype == got.dst.dtype == np.int64  # Arrow may hand back read-only arrays
    assert pairs(got) == rows


def test_collect_edges_limit(spark, wide_df):
    """With ``limit``, exactly min(m, limit) distinct input rows."""
    df, rows = wide_df
    m = len(rows)
    for limit in (0, 1, m // 2, m, m + 1):
        got = pairs(collect_edges(df, limit))
        assert len(got) == min(m, limit)
        assert len(set(got)) == len(got) and set(got) <= set(rows)


def test_collect_edges_reads_columns_by_name(spark, wide_df):
    """A frame holding its columns in (dst, src) order gives the same pairs."""
    df, rows = wide_df
    swapped = df.select("dst", "src")
    assert swapped.columns == ["dst", "src"]
    assert pairs(collect_edges(swapped)) == rows
    assert len(pairs(collect_edges(swapped, 5))) == 5


def test_collect_edges_empty(spark):
    df = gen.to_spark(spark, gen.er_directed(5, 3, seed=1)).filter("src < 0")
    got = collect_edges(df)
    assert got.m == 0
    assert got.src.dtype == got.dst.dtype == np.int64


@pytest.mark.parametrize("algo", [core_approx, bs_approx, ks_approx, core_exact, dc_exact, exact_dds])
def test_algorithms_never_write_edge_arrays(algo):
    """A collected edge set may be read-only, so no algorithm writes into an
    ``EdgeArrays``' arrays: on read-only input each gives the same answer."""
    e = gen.planted_dds(60, 300, s_size=6, t_size=8, p_block=0.8, seed=3)
    src, dst = e.src.copy(), e.dst.copy()
    src.flags.writeable = dst.flags.writeable = False
    a, b = algo(e), algo(EdgeArrays(src, dst))
    assert a.rho2 == b.rho2
    assert a.S.tolist() == b.S.tolist() and a.T.tolist() == b.T.tolist()
