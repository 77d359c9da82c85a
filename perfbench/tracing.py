"""Per-layer spans and counters, recorded from outside the program.

``Tracer.patched()`` swaps each layer's public functions for timing
wrappers and puts the originals back on exit. ``repro.core.exact`` and
``repro.core.xycore`` bind some of these functions by name at import, so
each is patched in every module that holds it; the run cross-checks the
span counts against the counters the algorithms keep in ``DDSResult.stats``.

Span times are inclusive. ``self_time`` is a span's time minus the time of
the spans it encloses, so the self time of the top-level call is the part of
its wall that no layer accounts for.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

import repro.core.approx as approx
import repro.core.exact as exact
import repro.core.ratios as ratios
import repro.core.xycore as xycore
import repro.flow.network as network
import repro.graph.local as local
from repro.core.xycore import DataFrameEngine, LocalEngine
from repro.flow.dinic import Dinic


def _count_network(tr: "Tracer", net) -> None:
    tr.counts["flow.nodes"] += net.dinic.n
    tr.counts["flow.arcs"] += len(net.dinic.to) // 2  # each arc has a residual twin


def _count_approx(tr: "Tracer", res) -> None:
    for k in ("core_probes", "x_evaluated", "x_skipped"):
        tr.counts[f"approx.{k}"] += res.stats[k]


def _count_rows(tr: "Tracer", edges) -> None:
    tr.counts["graph.collect.rows"] += edges.m


_AUX = ("m", "counts", "max_out_degree", "max_in_degree")

# (owner, attribute, span name, hook run on the result)
PATCHES = [
    (exact, "core_exact", "exact.core_exact", None),
    (exact, "solve_ratio", "exact.solve_ratio", None),
    (exact, "solve_level", "flow.solve_level", None),
    (network, "solve_level", "flow.solve_level", None),
    (network, "build_dds_network", "flow.build", _count_network),
    (Dinic, "max_flow", "flow.max_flow", None),
    (Dinic, "min_cut_source_side", "flow.min_cut", None),
    (exact, "candidate_in", "ratios.candidate_in", None),
    (ratios, "candidate_in", "ratios.candidate_in", None),
    (exact, "core_approx", "approx.core_approx", _count_approx),
    (approx, "core_approx", "approx.core_approx", _count_approx),
    (LocalEngine, "core", "xycore.local_core", None),
    *[(LocalEngine, a, "xycore.local_aux", None) for a in _AUX],
    (DataFrameEngine, "core", "xycore.df_core", None),
    *[(DataFrameEngine, a, "xycore.df_aux", None) for a in _AUX],
    (xycore, "collect_edges", "graph.collect", _count_rows),
    (local, "collect_edges", "graph.collect", _count_rows),
]


class Tracer:
    """Span times, span call counts and named counters of one traced call."""

    def __init__(self) -> None:
        self.time: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[list[float]] = []  # child seconds of each open span

    def spans(self) -> int:
        """Wrapper calls made: spans entered plus counted calls."""
        return sum(self.calls.values()) + self.counts["xycore.df_rounds"]

    @staticmethod
    def span_cost(n: int = 20_000) -> float:
        """Seconds one span wrapper adds to a call, measured on a no-op."""

        def noop():
            return None

        wrapped = Tracer()._wrap("noop", noop, None)
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        t1 = time.perf_counter()
        for _ in range(n):
            wrapped()
        t2 = time.perf_counter()
        return max(0.0, ((t2 - t1) - (t1 - t0)) / n)

    def _wrap(self, name: str, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            self._open.append(children)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._open.pop()
                self.time[name] += dt
                self.self_time[name] += dt - children[0]
                self.calls[name] += 1
                if self._open:
                    self._open[-1][0] += dt
            if hook is not None:
                hook(self, out)
            return out

        return traced

    def _count(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def patched(self, dataframe_cls=None):
        """Trace every layer while inside; ``dataframe_cls`` also counts
        ``localCheckpoint`` calls, one per DataFrame fixpoint round."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in PATCHES]
        for (owner, attr, name, hook), (_, _, fn) in zip(PATCHES, saved):
            setattr(owner, attr, self._wrap(name, fn, hook))
        if dataframe_cls is not None:
            fn = dataframe_cls.localCheckpoint
            saved.append((dataframe_cls, "localCheckpoint", fn))
            dataframe_cls.localCheckpoint = self._count("xycore.df_rounds", fn)
        try:
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)
