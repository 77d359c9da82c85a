"""Smoke tests for the table jobs (each drives its table end-to-end)."""
import sys
from pathlib import Path

import pytest
from pyspark.sql import SparkSession

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "jobs"))

import table_accuracy  # noqa: E402
import table_approx  # noqa: E402
import table_datasets  # noqa: E402
import table_exact  # noqa: E402
import table_pruning  # noqa: E402
import table_scalability  # noqa: E402


def test_table_datasets(spark):
    rows = table_datasets.run(spark, ["xs-er", "xs-pl"])
    assert [r["dataset"] for r in rows] == ["xs-er", "xs-pl"]
    for r in rows:
        assert r["m"] > 0 and r["core_x"] >= 1 and r["core_y"] >= 1


def test_table_exact():
    rows = table_exact.run(["xs-er"])
    (r,) = rows
    assert r["rho_opt"] > 0
    assert r["core_s"] <= r["exact_s"]  # core-based must win on xs tier
    assert r["dc_ratios"] < r["exact_ratios"]


def test_table_exact_skips_baseline():
    rows = table_exact.run(["xs-pl"], skip_exact=True)
    assert rows[0]["exact_s"] == "n/a"


def test_table_approx(spark):
    rows = table_approx.run(spark, ["xs-er", "xs-plant"], eps=0.5, engine="local")
    for r in rows:
        assert r["core_rho"] > 0 and r["ks_rho"] > 0 and r["bs_rho"] > 0


def test_table_approx_df_matches_local(spark):
    """The ``--engine df`` branch hands DataFrames to the same algorithms."""
    names = ["xs-er", "xs-plant"]
    local = table_approx.run(spark, names, eps=0.5, engine="local")
    df = table_approx.run(spark, names, eps=0.5, engine="df")
    for a, b in zip(local, df):
        for key in ("ks_rho", "bs_rho", "core_rho", "core_xy"):
            assert a[key] == b[key]


def test_table_accuracy():
    rows = table_accuracy.run(["xs-er", "xs-plant"], eps=0.5)
    for r in rows:
        for key in ("core_acc", "ks_acc", "bs_acc"):
            assert 0.4 <= r[key] <= 1.0 + 1e-9


def test_table_scalability():
    rows = table_scalability.run([0], eps=1.0, with_exact=False)
    assert rows[0]["m"] > 10_000
    assert "core_approx_s" in rows[0]


def test_table_pruning():
    rows = table_pruning.run(["xs-er", "xs-pl"])
    for r in rows:
        assert r["ratios_solved"] + r["ratios_skipped"] < r["candidate_ratios"]
        assert 0 < r["shrink"] <= 1.0
        assert r["flow_nodes_max"] <= r["flow_nodes_full"]
        assert r["lifts"] > 0  # each set has a solved ratio whose core lifts λ
        assert r["core_s"] >= 0


def test_print_table_smoke(capsys):
    from _util import print_table

    print_table([{"a": 1, "b": "xx"}], "demo")
    out = capsys.readouterr().out
    assert "demo" in out and "xx" in out


JOB_MAINS = [  # job, argv, table title, whether the job uses Spark
    (table_datasets, ["--sets", "xs-er"], "T1: dataset statistics", True),
    (table_exact, ["--sets", "xs-er"], "T2: exact algorithm efficiency", False),
    (table_approx, ["--sets", "xs-er"], "T3: approximation efficiency", True),
    (table_accuracy, ["--sets", "xs-er"], "T4: approximation accuracy", False),
    (table_scalability, ["--scales", "0", "--eps", "1.0", "--no-exact"], "T5: scalability", False),
    (table_pruning, ["--sets", "xs-er"], "T6: Core-Exact pruning effectiveness", False),
]


@pytest.mark.parametrize(
    "job,argv,title,uses_spark", JOB_MAINS, ids=[j[0].__name__ for j in JOB_MAINS]
)
def test_job_main_prints_its_table(job, argv, title, uses_spark, request, monkeypatch, capsys):
    """Each entry point parses its options and prints its table. A job that
    never reads Spark may not start a session; a Spark job gets the test
    session, whose ``stop`` is disabled for the rest of the run."""
    if uses_spark:
        spark = request.getfixturevalue("spark")
        monkeypatch.setattr(job, "get_spark", lambda app: spark)
        monkeypatch.setattr(spark, "stop", lambda: None)
    else:

        def no_session(*args, **kwargs):
            raise AssertionError(f"{job.__name__} starts a SparkSession it never uses")

        monkeypatch.setattr(SparkSession.Builder, "getOrCreate", no_session)
    monkeypatch.setattr(sys, "argv", [f"{job.__name__}.py", *argv])
    job.main()
    assert f"== {title}" in capsys.readouterr().out
