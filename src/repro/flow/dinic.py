"""Dinic's max-flow with min-cut extraction (pure Python, array-based).

Used on the *core-pruned* DDS decision networks, which the paper's whole
contribution keeps small — so a driver-side sequential solver is the
appropriate substrate (see DESIGN.md "Layering decision").

Capacities are non-negative integers (the DDS network scales a rational
density level to integers), so every residual comparison is an exact
``cap > 0`` and the flow value is exact: there is no epsilon.

A network may start from a feasible flow: the constructor takes one
capacity and one start flow per arc and lays out the residuals itself, and
``max_flow`` then returns only the amount it adds. Within a phase the
depth-first search keeps its path: after pushing along it, it retreats to
the tail of the first arc the push saturated rather than restarting from
``s``, so the unsaturated prefix of the path is not searched for again.

Neither changes the cut. ``max_flow`` ends with a BFS that finds no path
to ``t``, so its fresh level array labels exactly the nodes reachable from
``s`` in the final residual graph; ``min_cut_source_side`` reads them off
it without a second search. That set is the unique minimal minimum cut
whichever maximum flow was found.
"""
from __future__ import annotations

import numpy as np


class Dinic:
    """Max-flow on a directed network with ``n`` nodes.

    Arcs are stored in flat parallel lists (``to``, ``cap``): arc ``k``
    of the input has id ``2k`` (``tail[k]→head[k]``) and its residual twin
    id ``2k+1`` (``head[k]→tail[k]``), so an arc id's twin is ``id^1`` — the
    usual competitive-programming layout, chosen because Python object
    graphs are slow. ``graph[u]`` lists the ids of the arcs leaving ``u``
    in ascending order.
    """

    def __init__(
        self, n: int, tail: np.ndarray, head: np.ndarray, cap: list[int], flow: list[int]
    ) -> None:
        """The network with arcs ``tail[k]→head[k]`` of capacity ``cap[k]``,
        carrying the feasible flow ``flow[k]`` (all zeros for no flow)."""
        self.n = n
        ends = np.empty(2 * len(tail), dtype=np.int64)
        ends[0::2], ends[1::2] = tail, head  # arc 2k leaves tail[k], its twin head[k]
        order = np.argsort(ends, kind="stable").tolist()
        bounds = np.cumsum(np.bincount(ends, minlength=n)).tolist()
        self.graph = [order[a:b] for a, b in zip([0, *bounds], bounds)]  # node -> arc ids
        ends[0::2], ends[1::2] = head, tail
        self.to: list[int] = ends.tolist()
        self.cap: list[int] = [0] * len(ends)  # forward residual cap − flow, then reverse flow
        self.cap[0::2] = [c - f for c, f in zip(cap, flow)]
        self.cap[1::2] = flow

    # -- internals ---------------------------------------------------------
    def _bfs(self, s: int, t: int) -> bool:
        self.level = lvl = [-1] * self.n
        lvl[s] = 0
        q = [s]
        to, cap, graph = self.to, self.cap, self.graph
        while q and lvl[t] < 0:  # nodes past t's layer reach t by no level path
            nq = []
            for u in q:
                lu = lvl[u] + 1
                for k in graph[u]:
                    v = to[k]
                    if cap[k] > 0 and lvl[v] < 0:
                        lvl[v] = lu
                        nq.append(v)
            q = nq
        return lvl[t] >= 0

    # -- public API --------------------------------------------------------
    def max_flow(self, s: int, t: int) -> int:
        """Augment to a maximum s→t flow; returns the value added to the
        flow the residual capacities started from. The last BFS, which
        finds no path to ``t``, leaves the cut in ``self.level``."""
        to, cap, graph = self.to, self.cap, self.graph
        flow = 0
        while self._bfs(s, t):
            lvl = self.level
            it = [0] * self.n  # per node: position of the next arc to try
            path: list[int] = []  # arc ids from s to u in the level graph
            u = s
            while True:
                if u == t:
                    f = min([cap[k] for k in path])
                    flow += f
                    cut = len(path)
                    for x in range(cut - 1, -1, -1):
                        k = path[x]
                        cap[k] -= f
                        cap[k ^ 1] += f
                        if not cap[k]:
                            cut = x
                    del path[cut:]  # back to the tail of the first saturated arc
                    u = to[path[-1]] if path else s
                    continue
                arcs, i, want = graph[u], it[u], lvl[u] + 1
                na = len(arcs)
                while i < na:
                    k = arcs[i]
                    if cap[k] > 0 and lvl[to[k]] == want:
                        break
                    i += 1
                it[u] = i
                if i < na:
                    path.append(k)
                    u = to[k]
                    continue
                lvl[u] = -1  # dead end: prune from level graph
                if u == s:
                    break
                k = path.pop()
                u = to[k ^ 1]  # tail of the popped arc
                it[u] += 1
        return flow

    def min_cut_source_side(self) -> list[int]:
        """Nodes reachable from ``s`` in the residual graph: the S-side of
        the smallest minimum st-cut.

        Valid only after :meth:`max_flow`, whose last BFS labelled them.
        """
        return [v for v, lv in enumerate(self.level) if lv >= 0]
