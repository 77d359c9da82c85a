"""Local (driver-side) mirror of an edge set, as numpy arrays.

The exact DDS algorithms interleave min-cut solves (inherently
sequential, see DESIGN.md) with core pruning. After core pruning the
residual graphs are small — the paper's central observation — so they
are mirrored to the driver as two int64 label arrays and processed with
vectorized numpy kernels.

This is the only module that maps vertex labels to dense ids. An edge set
computes them once, lazily, with one ``np.unique`` per side; every subset
taken with ``select`` (each core round's survivors) inherits them in its
parent's id space, so a degree count is one ``np.bincount``. A kernel that
needs one id per vertex present (a flow network, the KS-Approx peel, a
result's S and T) calls ``compact``: a ``bincount`` and a ``cumsum`` remap.
Neither sorts, and labels are never rewritten.

Graph rows reach the driver from Spark only through ``collect_edges``. It
reads in one task wave, at most one task per core (``defaultParallelism``)
however many partitions the input has, and turns Arrow's columns into int64
numpy arrays with no pandas frame between. Those arrays may be read-only,
so no code writes into an ``EdgeArrays``' arrays.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from pyspark.sql import DataFrame

from repro.graph.schema import DST, SRC


@dataclass(frozen=True)
class DenseIds:
    """Per-edge dense vertex ids of one side, in an id space of ``len(labels)``."""

    ids: np.ndarray  # per edge: its vertex's position in ``labels``
    labels: np.ndarray  # sorted distinct labels of the edge set the space was built on

    @staticmethod
    def of(labels: np.ndarray) -> "DenseIds":
        uniq, inv = np.unique(labels, return_inverse=True)
        uniq.flags.writeable = False  # results hand these out as S and T
        return DenseIds(inv, uniq)

    @property
    def n(self) -> int:
        return len(self.labels)

    def degrees(self) -> np.ndarray:
        """Edges per id, over the whole id space."""
        return np.bincount(self.ids, minlength=self.n)

    def compact(self) -> "DenseIds":
        """These ids in the space of the labels that occur (kept in order)."""
        present = self.degrees() > 0
        if present.all():
            return self
        return DenseIds((np.cumsum(present) - 1)[self.ids], self.labels[present])

    def mask(self, members: np.ndarray) -> np.ndarray:
        """A boolean array over the id space, true at the ids of ``members``
        (labels; those outside the space are ignored)."""
        out = np.zeros(self.n, dtype=bool)
        pos = np.searchsorted(self.labels, members)
        hit = pos < self.n
        pos = pos[hit]
        out[pos[self.labels[pos] == members[hit]]] = True
        return out


@dataclass(frozen=True)
class EdgeArrays:
    """An immutable edge list: parallel ``src``/``dst`` int64 label arrays,
    and their dense ids (``src_ids``/``dst_ids``), computed on first use
    or inherited from the edge set this one was selected from."""

    src: np.ndarray
    dst: np.ndarray
    _ids: tuple[DenseIds, DenseIds] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.src) != len(self.dst):
            raise ValueError("src/dst length mismatch")

    def _dense(self) -> tuple[DenseIds, DenseIds]:
        if self._ids is None:
            object.__setattr__(self, "_ids", (DenseIds.of(self.src), DenseIds.of(self.dst)))
        return self._ids

    @property
    def src_ids(self) -> DenseIds:
        return self._dense()[0]

    @property
    def dst_ids(self) -> DenseIds:
        return self._dense()[1]

    def compact(self) -> "EdgeArrays":
        """This edge set with each id space cut down to the vertices that
        occur in it, so ``src_ids.labels``/``dst_ids.labels`` are its
        distinct sources and destinations; ``self`` if none is absent."""
        s, t = self._dense()
        cs, ct = s.compact(), t.compact()
        if cs is s and ct is t:
            return self
        return EdgeArrays(self.src, self.dst, (cs, ct))

    def select(self, keep: np.ndarray) -> "EdgeArrays":
        """The edges where ``keep`` is true, in this edge set's id space."""
        s, t = self._dense()
        return EdgeArrays(
            self.src[keep], self.dst[keep],
            (DenseIds(s.ids[keep], s.labels), DenseIds(t.ids[keep], t.labels)),
        )

    @property
    def m(self) -> int:
        return len(self.src)

    @property
    def n_src(self) -> int:
        return int(np.count_nonzero(self.src_ids.degrees()))

    @property
    def n_dst(self) -> int:
        return int(np.count_nonzero(self.dst_ids.degrees()))

    def out_degree_max(self) -> int:
        return int(self.src_ids.degrees().max()) if self.m else 0

    def in_degree_max(self) -> int:
        return int(self.dst_ids.degrees().max()) if self.m else 0

    def edges_between(self, s_set: np.ndarray, t_set: np.ndarray) -> int:
        """|E(S,T)| — edges whose source is in S and destination in T."""
        if self.m == 0 or len(s_set) == 0 or len(t_set) == 0:
            return 0
        s, t = self._dense()
        return int(np.count_nonzero(s.mask(s_set)[s.ids] & t.mask(t_set)[t.ids]))


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
    every algorithm's answer. The algorithms call this on entry, after a
    DataFrame within the driver budget has been collected, rather than
    ``EdgeArrays`` on construction, which every fixpoint round does. Edge
    DataFrames above the budget pass unchecked: ``normalize_edges``
    deduplicates them.
    """
    if not isinstance(edges, EdgeArrays) or edges.m < 2:
        return
    s, t = edges.src_ids, edges.dst_ids
    # one int64 key per pair; each side's n is at most the edge count of the
    # set its ids were built on, so keys stay below 2⁶³ under 3·10⁹ edges
    key = np.sort(s.ids * t.n + t.ids)
    if np.any(key[1:] == key[:-1]):
        raise ValueError("duplicate (src, dst) edges; remove them with dedup()")


def collect_edges(edges: DataFrame, limit: int | None = None) -> EdgeArrays:
    """Mirror an edge DataFrame to the driver in one Spark job; with
    ``limit``, only ``limit`` of its rows (all of them if it has fewer).

    This is the one Spark→driver transfer of graph rows. They are read in
    one task wave: ``coalesce`` merges the input's partitions into at most
    ``defaultParallelism`` tasks (one per core), and the ``limit``, if any,
    applies after it. The ``src`` and ``dst`` columns are read off the Arrow
    table by name, in whatever order the frame holds them, straight to
    numpy with no pandas frame between; the arrays may be read-only.
    """
    df = edges.coalesce(edges.sparkSession.sparkContext.defaultParallelism)
    tbl = (df if limit is None else df.limit(limit)).toArrow()
    return EdgeArrays(
        *(tbl.column(c).to_numpy().astype(np.int64, copy=False) for c in (SRC, DST))
    )
