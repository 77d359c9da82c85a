"""Edge-DataFrame schema and normalization.

A directed graph is a DataFrame with two non-null long columns,
``src`` and ``dst``. The graph model follows the paper: undirected
multiplicity is meaningless for density, so edges are deduplicated;
self-loops are legal (S and T may overlap in the DDS problem) and are
kept.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import LongType, StructField, StructType

SRC = "src"
DST = "dst"

EDGE_SCHEMA = StructType(
    [StructField(SRC, LongType(), False), StructField(DST, LongType(), False)]
)


def normalize_edges(edges: DataFrame) -> DataFrame:
    """Cast to long, drop nulls, deduplicate.

    Idempotent — safe to call on already-normalized frames.
    """
    return (
        edges.select(
            F.col(SRC).cast("long").alias(SRC), F.col(DST).cast("long").alias(DST)
        )
        .dropna()
        .dropDuplicates([SRC, DST])
    )
