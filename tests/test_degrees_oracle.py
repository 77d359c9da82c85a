"""Degree/summary aggregates cross-checked against the DuckDB oracle."""
import pytest

from repro.graph import generators as gen
from repro.core.xycore import DataFrameEngine
from repro.graph.degrees import in_degrees, out_degrees
from repro.graph.schema import normalize_edges
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def edges(spark):
    return gen.to_spark(spark, gen.powerlaw_directed(300, 2000, seed=8)).cache()


def test_out_degrees_oracle(spark, edges):
    assert_equivalent(
        out_degrees(edges).withColumnRenamed("out_deg", "d"),
        "SELECT src, count(*) AS d FROM e GROUP BY src",
        e=edges,
    )


def test_in_degrees_oracle(spark, edges):
    assert_equivalent(
        in_degrees(edges).withColumnRenamed("in_deg", "d"),
        "SELECT dst, count(*) AS d FROM e GROUP BY dst",
        e=edges,
    )


def test_degree_summary_oracle(spark, edges):
    """m, distinct endpoints and max degrees from the DataFrame engine."""
    eng = DataFrameEngine()
    n_src, n_dst, m = eng.counts(edges)
    summary = spark.createDataFrame(
        [(m, n_src, n_dst, eng.max_out_degree(edges), eng.max_in_degree(edges))],
        ["m", "n_src", "n_dst", "max_out_deg", "max_in_deg"],
    )
    assert_equivalent(
        summary,
        """
        WITH o AS (SELECT src, count(*) c FROM e GROUP BY src),
             i AS (SELECT dst, count(*) c FROM e GROUP BY dst)
        SELECT (SELECT count(*) FROM e) AS m,
               (SELECT count(DISTINCT src) FROM e) AS n_src,
               (SELECT count(DISTINCT dst) FROM e) AS n_dst,
               (SELECT max(c) FROM o) AS max_out_deg,
               (SELECT max(c) FROM i) AS max_in_deg
        """,
        e=edges,
    )


def test_normalize_edges_dedup_oracle(spark):
    import pandas as pd

    raw = spark.createDataFrame(
        pd.DataFrame({"src": [1, 1, 2, 2], "dst": [2, 2, 3, 3]})
    )
    assert_equivalent(
        normalize_edges(raw),
        "SELECT DISTINCT src, dst FROM r",
        r=raw,
    )


def test_edges_between_matches_sql(spark, edges):
    """|E(S,T)| computed locally == SQL count with IN-lists."""
    from repro.graph.local import collect_edges
    import numpy as np

    e = collect_edges(edges)
    s_set = np.unique(e.src)[:20]
    t_set = np.unique(e.dst)[:30]
    got = e.edges_between(s_set, t_set)
    import duckdb

    con = duckdb.connect()
    con.register("e", edges.toPandas())
    (expected,) = con.execute(
        f"SELECT count(*) FROM e WHERE src IN ({','.join(map(str, s_set))}) "
        f"AND dst IN ({','.join(map(str, t_set))})"
    ).fetchone()
    con.close()
    assert got == expected
