"""Shared plumbing for the table jobs."""
from __future__ import annotations

import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from pyspark.sql import SparkSession  # noqa: E402

# calls per timed table cell; the cell reports their median wall
TIMED_CALLS = 3
# spark.sql.shuffle.partitions of the jobs' session (perfbench/run.py uses
# the same value, so approx-df matches the table jobs)
SHUFFLE_PARTITIONS = 16


def get_spark(app: str) -> SparkSession:
    """Session for standalone (spark-submit / python) execution.

    Sets the test fixture's per-session configs, with
    ``SHUFFLE_PARTITIONS`` shuffle partitions; master/memory come from
    spark-submit or default to local[*].
    """
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )


def timed(fn, *args, **kw):
    """``(fn(*args, **kw), its median wall seconds over TIMED_CALLS calls,
    rounded to ms)``. Single calls on a shared host spread by ±30%; the
    algorithms are deterministic, so every call returns the same answer."""
    walls = []
    for _ in range(TIMED_CALLS):
        t0 = time.perf_counter()
        out = fn(*args, **kw)
        walls.append(time.perf_counter() - t0)
    return out, round(statistics.median(walls), 3)


def print_table(rows: list[dict], title: str) -> None:
    """Render rows as a fixed-width table (the job's reproducible output)."""
    print(f"\n== {title} ==")
    if not rows:
        print("(no rows)")
        return
    cols = list(rows[0].keys())
    widths = {
        c: max(len(str(c)), *(len(str(r.get(c, ""))) for r in rows)) for c in cols
    }
    print(" | ".join(str(c).ljust(widths[c]) for c in cols))
    print("-+-".join("-" * widths[c] for c in cols))
    for r in rows:
        print(" | ".join(str(r.get(c, "")).ljust(widths[c]) for c in cols))
