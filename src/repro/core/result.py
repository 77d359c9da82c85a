"""Result record shared by every DDS algorithm."""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from repro.core.density import rho2_frac
from repro.graph.local import EdgeArrays


@dataclass
class DDSResult:
    """A (S, T) pair with its density and run instrumentation.

    ``rho2`` is the exact squared density ``|E(S,T)|² / (|S|·|T|)`` as a
    Fraction — densities themselves are irrational, but their squares
    are rational, so all best-pair comparisons in this codebase are
    exact. ``stats`` carries per-algorithm instrumentation (ratios
    solved/skipped, min-cut calls, flow-network sizes, peel rounds …)
    consumed by the pruning-effectiveness table (T6).
    """

    S: np.ndarray
    T: np.ndarray
    edges_st: int
    stats: dict = field(default_factory=dict)

    @classmethod
    def of_edges(cls, e: EdgeArrays, stats: dict) -> "DDSResult":
        """The pair an edge set spans: its distinct sources and
        destinations, with all of its edges (empty if it has none)."""
        c = e.compact()
        return cls(c.src_ids.labels, c.dst_ids.labels, c.m, stats)

    @property
    def rho2(self) -> Fraction:
        return rho2_frac(self.edges_st, len(self.S), len(self.T))

    @property
    def rho(self) -> float:
        return float(self.rho2) ** 0.5

    def better_than(self, other: "DDSResult | None") -> bool:
        """Exact comparison on squared densities."""
        return other is None or self.rho2 > other.rho2

    def __repr__(self) -> str:  # compact: arrays elided
        return (
            f"DDSResult(|S|={len(self.S)}, |T|={len(self.T)}, "
            f"E={self.edges_st}, rho={self.rho:.6f})"
        )
