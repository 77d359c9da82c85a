"""Deterministic directed-graph generators (dataset substitutes).

The paper evaluates on real directed graphs (social / web / citation)
that are not available offline. These generators produce synthetic
stand-ins with the properties that actually drive the algorithms'
relative costs — degree skew, density of the densest region, and size —
as documented in DESIGN.md §4. All are deterministic in ``seed``.

``tpch_order_part`` additionally derives a directed bipartite-ish graph
from the provided TPC-H-lite generator (order → part via lineitem), so
the reproduction exercises the repo's standard synthetic-data path.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro import synth_data
from repro.graph.local import EdgeArrays, dedup
from repro.graph.schema import DST, EDGE_SCHEMA, SRC, normalize_edges


# Degree exponent of both sides of a power-law graph.
POWERLAW_ALPHA = 2.2


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _dedup_pairs(src: np.ndarray, dst: np.ndarray) -> EdgeArrays:
    return dedup(EdgeArrays(src.astype(np.int64), dst.astype(np.int64)))


def er_directed(n: int, m: int, *, seed: int = 0) -> EdgeArrays:
    """Directed Erdős–Rényi-style graph: ``~m`` uniform random edges, no
    self-loops.

    Sampling is with replacement followed by dedup, so the realized edge
    count is slightly below ``m`` at high density — irrelevant for the
    experiments, which only consume the realized graph.
    """
    g = _rng(seed)
    src = g.integers(0, n, m)
    dst = g.integers(0, n, m)
    keep = src != dst
    return _dedup_pairs(src[keep], dst[keep])


def powerlaw_directed(n: int, m: int, *, seed: int = 0) -> EdgeArrays:
    """Directed Chung–Lu graph: endpoint ``i`` drawn ∝ ``(i+1)^(-1/(α-1))``,
    no self-loops.

    Produces power-law in/out degree distributions with exponent
    ``α = POWERLAW_ALPHA`` on both sides, matching the skew regime of the
    paper's web/social datasets.
    """
    g = _rng(seed)
    w = np.arange(1, n + 1, dtype=np.float64) ** (-1.0 / (POWERLAW_ALPHA - 1.0))
    w /= w.sum()
    src = g.choice(n, size=m, p=w)
    dst = g.choice(n, size=m, p=w)
    # decorrelate the two hubs so the graph is not trivially one block
    perm = g.permutation(n)
    dst = perm[dst]
    keep = src != dst
    return _dedup_pairs(src[keep], dst[keep])


def planted_dds(
    n: int,
    m_noise: int,
    *,
    s_size: int,
    t_size: int,
    p_block: float = 0.8,
    seed: int = 0,
) -> EdgeArrays:
    """ER background plus a dense planted S×T block.

    ``S = {0..s_size-1}``, ``T = {n-t_size..n-1}`` (disjoint for
    clarity); each S×T edge appears with probability ``p_block``. Used
    for accuracy stress tests: the planted block dominates the density
    landscape, so approximation quality is directly observable.
    """
    if s_size + t_size > n:
        raise ValueError("planted blocks must fit disjointly in [0, n)")
    g = _rng(seed)
    noise = er_directed(n, m_noise, seed=seed + 1)
    s_idx, t_idx = np.meshgrid(
        np.arange(s_size), np.arange(n - t_size, n), indexing="ij"
    )
    mask = g.random(s_idx.shape) < p_block
    return _dedup_pairs(
        np.concatenate([noise.src, s_idx[mask].ravel()]),
        np.concatenate([noise.dst, t_idx[mask].ravel()]),
    )


def tpch_order_part(spark: SparkSession, *, sf: float = 0.01, seed: int = 0) -> DataFrame:
    """Directed graph order→part from TPC-H-lite lineitem.

    Bipartite by construction (orders and parts live in disjoint id
    spaces), heavy-tailed on the part side — a stand-in for the paper's
    rating/bipartite-style datasets, built on the provided
    ``synth_data`` module.
    """
    li = synth_data.lineitem(spark, sf=sf, seed=seed)
    part_offset = 1_000_000_000  # keep part ids disjoint from order ids
    edges = li.select(
        F.col("l_orderkey").cast("long").alias(SRC),
        (F.col("l_partkey").cast("long") + F.lit(part_offset)).alias(DST),
    )
    return normalize_edges(edges)


def to_spark(spark: SparkSession, e: EdgeArrays) -> DataFrame:
    """Lift local edge arrays into a normalized edge DataFrame."""
    pdf = pd.DataFrame(
        {SRC: np.asarray(e.src, dtype=np.int64), DST: np.asarray(e.dst, dtype=np.int64)}
    )
    return normalize_edges(spark.createDataFrame(pdf, schema=EDGE_SCHEMA))
