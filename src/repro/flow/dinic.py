"""Dinic's max-flow with min-cut extraction (pure Python, array-based).

Used on the *core-pruned* DDS decision networks, which the paper's whole
contribution keeps small — so a driver-side sequential solver is the
appropriate substrate (see DESIGN.md "Layering decision").

Capacities are non-negative integers (the DDS network scales a rational
density level to integers), so every residual comparison is an exact
``cap > 0`` and the flow value is exact: there is no epsilon.
"""
from __future__ import annotations


class Dinic:
    """Max-flow on a directed network with ``n`` nodes.

    Edges are stored in flat parallel lists (``to``, ``cap``) where edge
    ``k`` and its reverse ``k^1`` are adjacent — the usual competitive-
    programming layout, chosen because Python object graphs are slow.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.graph: list[list[int]] = [[] for _ in range(n)]  # node -> edge ids
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, cap: int) -> int:
        """Add a directed edge u→v with capacity ``cap``; returns its id."""
        if cap < 0:
            raise ValueError(f"negative capacity {cap!r} on edge {u}->{v}")
        k = len(self.to)
        self.to.append(v)
        self.cap.append(cap)
        self.graph[u].append(k)
        self.to.append(u)
        self.cap.append(0)
        self.graph[v].append(k + 1)
        return k

    # -- internals ---------------------------------------------------------
    def _bfs(self, s: int, t: int) -> bool:
        self.level = lvl = [-1] * self.n
        lvl[s] = 0
        q = [s]
        to, cap, graph = self.to, self.cap, self.graph
        while q:
            nq = []
            for u in q:
                lu = lvl[u]
                for k in graph[u]:
                    v = to[k]
                    if cap[k] > 0 and lvl[v] < 0:
                        lvl[v] = lu + 1
                        nq.append(v)
            q = nq
        return lvl[t] >= 0

    def _augment(self, s: int, t: int) -> int:
        """Find one augmenting path in the level graph and push along it.

        Uses the per-node edge iterators (``self.iter``) so repeated calls
        within one phase amortize to a blocking flow. Returns 0 when the
        level graph admits no further path.
        """
        to, cap, lvl, it, graph = self.to, self.cap, self.level, self.iter, self.graph
        path: list[int] = []  # edge ids along current path
        u = s
        while True:
            if u == t:
                f = min(cap[k] for k in path)
                for k in path:
                    cap[k] -= f
                    cap[k ^ 1] += f
                return f
            advanced = False
            while it[u] < len(graph[u]):
                k = graph[u][it[u]]
                v = to[k]
                if cap[k] > 0 and lvl[v] == lvl[u] + 1:
                    path.append(k)
                    u = v
                    advanced = True
                    break
                it[u] += 1
            if advanced:
                continue
            lvl[u] = -1  # dead end: prune from level graph
            if u == s:
                return 0
            k = path.pop()
            u = to[k ^ 1]  # tail of the popped edge
            it[u] += 1

    # -- public API --------------------------------------------------------
    def max_flow(self, s: int, t: int) -> int:
        """Compute the maximum s→t flow value."""
        flow = 0
        while self._bfs(s, t):
            self.iter = [0] * self.n
            while (f := self._augment(s, t)) > 0:
                flow += f
        return flow

    def min_cut_source_side(self, s: int) -> list[int]:
        """Nodes reachable from ``s`` in the residual graph.

        Valid only after :meth:`max_flow`; this is the S-side of a
        minimum st-cut.
        """
        seen = [False] * self.n
        seen[s] = True
        q = [s]
        to, cap, graph = self.to, self.cap, self.graph
        while q:
            u = q.pop()
            for k in graph[u]:
                v = to[k]
                if cap[k] > 0 and not seen[v]:
                    seen[v] = True
                    q.append(v)
        return [i for i, b in enumerate(seen) if b]
