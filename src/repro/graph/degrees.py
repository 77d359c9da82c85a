"""Degree aggregates over edge DataFrames.

These are the primitive the whole core machinery reduces to: one
``groupBy``+``count`` per side per peeling round. Kept as standalone
functions so tests can oracle-check them against DuckDB SQL.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph.schema import DST, SRC


def out_degrees(edges: DataFrame) -> DataFrame:
    """``(src, out_deg)`` — number of out-edges per source vertex."""
    return edges.groupBy(SRC).agg(F.count(F.lit(1)).alias("out_deg"))


def in_degrees(edges: DataFrame) -> DataFrame:
    """``(dst, in_deg)`` — number of in-edges per destination vertex."""
    return edges.groupBy(DST).agg(F.count(F.lit(1)).alias("in_deg"))

