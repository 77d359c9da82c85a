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
of its own. The arcs go to the ``Dinic`` constructor in four plain groups,
s→u_out, u_out→t, v_in→t and u_out→v_in, each with its capacity and start
flow; Dinic lays out the residuals.

Before Dinic runs, one greedy pass routes a start flow. Each
``u_out→t`` carries ``min(q*d_out(u), p*j)``; the surplus of ``s→u_out``
beyond it goes over the edges in edge order, each edge ``(u,v)`` of a
``u`` with surplus sending ``min(q, surplus, room of v_in→t)`` into
``v_in``. This is a blocking flow on the short paths ``s→u_out→t`` and
``s→u_out→v_in→t``, for any edge order: a ``u`` left with surplus has a
saturated ``u_out→t``, and each of its edges was visited while the
surplus lasted, so it saturated ``u_out→v_in`` or ``v_in→t``, whose room
only falls. The flow is feasible (``s→u_out`` carries exactly what
``u_out``'s arcs route), and on the core-pruned networks it is most of
the maximum flow. A ``u_out`` whose ``u_out→t`` has room had no surplus
and sent nothing to any ``v_in``, so no augmenting path has four arcs
either, and Dinic is left only the paths of five arcs or more, those
that go back along some edge's ``u_out→v_in``. The cut read off
afterwards is the nodes reachable from ``s`` in the residual graph,
which Dinic's last BFS labelled: the unique minimal minimum cut,
whatever flow it was reached from, so ``h``, ``S`` and ``T`` do not
depend on the greedy start.
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
    greedy_flow: int  # value of the flow the residual capacities start from

    def solve(self) -> tuple[Fraction, np.ndarray, np.ndarray]:
        """Max-flow; returns ``(h, S, T)`` with ``h = (q*m - mincut)/q``.

        ``S``/``T`` are vertex-label arrays of the maximizing pair (empty
        when the maximizer is the empty selection, i.e. ``h == 0``).
        """
        cut_value = self.greedy_flow + self.dinic.max_flow(0, 1)
        h = Fraction(self.q * self.m - cut_value, self.q)
        reach = np.zeros(self.dinic.n, dtype=bool)
        reach[self.dinic.min_cut_source_side()] = True
        ns = len(self.src_labels)
        return h, self.src_labels[reach[2:2 + ns]], self.dst_labels[reach[2 + ns:]]


def build_dds_network(e: EdgeArrays, i: int, j: int, lam: Fraction) -> DDSNetwork:
    """Build the decision network for the edge set ``e``, carrying the
    start flow of the one greedy pass (the module docstring).

    S-side and T-side candidate sets are the distinct sources and
    destinations of ``e``, in sorted label order; ``e`` may be a core that
    keeps its parent's id space. ``lam`` is a non-negative rational level.
    """
    p, q = lam.numerator, lam.denominator
    pj, pi = p * j, p * i
    e = e.compact()
    s, t = e.src_ids, e.dst_ids
    ns, nt = s.n, t.n

    # greedy start in one pass; capacities may exceed int64, so it runs on
    # Python ints. u_out→t takes what it can of s→u_out's capacity; the
    # surplus goes, in edge order, along u's edges into every v_in→t with room
    cap_s = [q * d for d in s.degrees().tolist()]  # s→u_out
    to_t = [min(c, pj) for c in cap_s]  # u_out→t
    over = [c - f for c, f in zip(cap_s, to_t)]  # surplus u_out→t cannot take
    v_room = [pi] * nt  # residual of v_in→t
    through = [0] * e.m  # flow on each edge's u_out→v_in
    for k, (u, v) in enumerate(zip(s.ids.tolist(), t.ids.tolist())):
        r = over[u]
        if r:
            b = v_room[v]
            f = q if q < r else r  # comparisons: min() would cost a call per edge
            if f > b:
                f = b
            if f:
                v_room[v] = b - f
                over[u] = r - f
                through[k] = f
    sent = [c - r for c, r in zip(cap_s, over)]  # s→u_out carries what u_out sends on

    # node ids: 0=s, 1=t, 2..2+ns-1 = u_out, 2+ns..2+ns+nt-1 = v_in; arcs in
    # four groups: s→u_out and u_out→t per source, v_in→t per destination,
    # u_out→v_in per edge
    u_nodes = np.arange(2, 2 + ns, dtype=np.int64)
    v_nodes = np.arange(2 + ns, 2 + ns + nt, dtype=np.int64)
    tail = np.concatenate([np.zeros(ns, dtype=np.int64), u_nodes, v_nodes, s.ids + 2])
    head = np.concatenate([u_nodes, np.ones(ns + nt, dtype=np.int64), t.ids + (2 + ns)])
    cap = cap_s + [pj] * ns + [pi] * nt + [q] * e.m
    flow = sent + to_t + [pi - r for r in v_room] + through
    net = Dinic(network_nodes(ns, nt), tail, head, cap, flow)
    return DDSNetwork(net, s.labels, t.labels, e.m, q, sum(sent))


def solve_level(
    e: EdgeArrays, i: int, j: int, lam: Fraction
) -> tuple[Fraction, np.ndarray, np.ndarray]:
    """One-shot: build the network and return ``(h, S, T)`` at level ``lam``."""
    return build_dds_network(e, i, j, lam).solve()
