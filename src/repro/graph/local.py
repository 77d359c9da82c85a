"""Local (driver-side) mirror of an edge set, as numpy arrays.

The exact DDS algorithms interleave min-cut solves (inherently
sequential, see DESIGN.md) with core pruning. After core pruning the
residual graphs are small — the paper's central observation — so they
are mirrored to the driver as two int64 arrays and processed with
vectorized numpy kernels.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame

from repro.graph.schema import DST, SRC


@dataclass(frozen=True)
class EdgeArrays:
    """An immutable edge list: parallel ``src``/``dst`` int64 arrays."""

    src: np.ndarray
    dst: np.ndarray

    def __post_init__(self) -> None:
        if len(self.src) != len(self.dst):
            raise ValueError("src/dst length mismatch")

    @property
    def m(self) -> int:
        return len(self.src)

    @property
    def n_src(self) -> int:
        return len(np.unique(self.src))

    @property
    def n_dst(self) -> int:
        return len(np.unique(self.dst))

    def out_degree_max(self) -> int:
        if self.m == 0:
            return 0
        _, counts = np.unique(self.src, return_counts=True)
        return int(counts.max())

    def in_degree_max(self) -> int:
        if self.m == 0:
            return 0
        _, counts = np.unique(self.dst, return_counts=True)
        return int(counts.max())

    def edges_between(self, s_set: np.ndarray, t_set: np.ndarray) -> int:
        """|E(S,T)| — edges whose source is in S and destination in T."""
        if self.m == 0 or len(s_set) == 0 or len(t_set) == 0:
            return 0
        mask = np.isin(self.src, s_set) & np.isin(self.dst, t_set)
        return int(mask.sum())


def empty_edges() -> EdgeArrays:
    z = np.array([], dtype=np.int64)
    return EdgeArrays(z, z)


def dedup(e: EdgeArrays) -> EdgeArrays:
    """Remove duplicate (src, dst) pairs."""
    if e.m == 0:
        return e
    pairs = np.stack([e.src, e.dst], axis=1)
    uniq = np.unique(pairs, axis=0)
    return EdgeArrays(uniq[:, 0].copy(), uniq[:, 1].copy())


def check_no_duplicates(edges) -> None:
    """Raise ``ValueError`` if an ``EdgeArrays`` holds a (src, dst) pair twice.

    Density counts a pair once, so a repeated pair inflates |E(S,T)| and
    every algorithm's answer. The algorithms call this on entry rather than
    ``EdgeArrays`` on construction, which every fixpoint round does. Edge
    DataFrames pass unchecked: ``normalize_edges`` deduplicates them.
    """
    if not isinstance(edges, EdgeArrays) or edges.m < 2:
        return
    order = np.lexsort((edges.dst, edges.src))
    s, d = edges.src[order], edges.dst[order]
    if np.any((s[1:] == s[:-1]) & (d[1:] == d[:-1])):
        raise ValueError("duplicate (src, dst) edges; remove them with dedup()")


def collect_edges(edges: DataFrame) -> EdgeArrays:
    """Mirror an edge DataFrame to the driver (Arrow path via toPandas)."""
    pdf = edges.select(SRC, DST).toPandas()
    return EdgeArrays(
        pdf[SRC].to_numpy(dtype=np.int64), pdf[DST].to_numpy(dtype=np.int64)
    )
