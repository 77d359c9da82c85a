"""DDS decision network for a fixed ratio ``a = i/j`` and level ``λ``.

For fixed ``a = i/j`` the skewed density of a pair ``(S,T)`` is

    rho_a(S,T) = 2·√(ij)·mu(S,T),   mu(S,T) = |E(S,T)| / (j*|S| + i*|T|)

(see DESIGN.md), so maximising ``rho_a`` is maximising the rational
``mu``, and the decision "does some pair have mu > λ" reduces to whether

    h(λ) = max_{S,T} [ |E(S,T)| - λ*(j*|S| + i*|T|) ]  >  0.

With ``λ = p/q`` in lowest terms, ``q*h`` is an integer min-cut problem on
a vertex-only network (one node per candidate source and destination):

    s --(q*d_out(u))--> u_out --(p*j)--> t
                        u_out --(q)----> v_in --(p*i)--> t    per edge (u,v)

A cut with source side ``{s} ∪ S_out ∪ T_in`` costs
``q*m - q*|E(S,T)| + p*(j*|S| + i*|T|)``, so ``q*h = q*m - mincut`` and the
maximizing pair is read off the source side. All capacities are integers,
so the cut value and ``h`` are exact.

The network is built on an ``EdgeArrays``: its compacted dense ids
(``EdgeArrays.compact``) number the nodes in sorted label order, and its
``degrees()`` give the source capacities, so this module derives no ids
of its own.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from repro.flow.dinic import Dinic
from repro.graph.local import EdgeArrays


def network_nodes(n_src: int, n_dst: int) -> int:
    """Node count of the decision network on ``n_src`` sources and
    ``n_dst`` destinations: s, t and one node per candidate vertex."""
    return 2 + n_src + n_dst


@dataclass
class DDSNetwork:
    """A built decision network plus the label maps needed to decode cuts."""

    dinic: Dinic
    src_labels: np.ndarray  # S-side node k+2        -> vertex label src_labels[k]
    dst_labels: np.ndarray  # T-side node k+2+len(S) -> vertex label dst_labels[k]
    m: int  # edge count
    q: int  # denominator of the level; every capacity is scaled by it

    def solve(self) -> tuple[Fraction, np.ndarray, np.ndarray]:
        """Max-flow; returns ``(h, S, T)`` with ``h = (q*m - mincut)/q``.

        ``S``/``T`` are vertex-label arrays of the maximizing pair (empty
        when the maximizer is the empty selection, i.e. ``h == 0``).
        """
        cut_value = self.dinic.max_flow(0, 1)
        h = Fraction(self.q * self.m - cut_value, self.q)
        side = self.dinic.min_cut_source_side(0)
        ns, nt = len(self.src_labels), len(self.dst_labels)
        s_sel = [k - 2 for k in side if 2 <= k < 2 + ns]
        t_sel = [k - 2 - ns for k in side if 2 + ns <= k < 2 + ns + nt]
        return h, self.src_labels[s_sel], self.dst_labels[t_sel]


def build_dds_network(e: EdgeArrays, i: int, j: int, lam: Fraction) -> DDSNetwork:
    """Build the decision network for the edge set ``e``.

    S-side and T-side candidate sets are the distinct sources and
    destinations of ``e``, in sorted label order; ``e`` may be a core that
    keeps its parent's id space. ``lam`` is a non-negative rational level.
    """
    p, q = lam.numerator, lam.denominator
    e = e.compact()
    s, t = e.src_ids, e.dst_ids
    ns, nt = s.n, t.n
    # node ids: 0=s, 1=t, 2..2+ns-1 = u_out, 2+ns..2+ns+nt-1 = v_in
    net = Dinic(network_nodes(ns, nt))
    for k, d in enumerate(s.degrees().tolist()):
        net.add_edge(0, 2 + k, q * d)
        net.add_edge(2 + k, 1, p * j)
    for k in range(nt):
        net.add_edge(2 + ns + k, 1, p * i)
    for u, v in zip(s.ids.tolist(), t.ids.tolist()):
        net.add_edge(2 + u, 2 + ns + v, q)
    return DDSNetwork(net, s.labels, t.labels, e.m, q)


def solve_level(
    e: EdgeArrays, i: int, j: int, lam: Fraction
) -> tuple[Fraction, np.ndarray, np.ndarray]:
    """One-shot: build the network and return ``(h, S, T)`` at level ``lam``."""
    if e.m == 0:
        return Fraction(0), np.array([], dtype=np.int64), np.array([], dtype=np.int64)
    return build_dds_network(e, i, j, lam).solve()
