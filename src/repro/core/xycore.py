"""[x,y]-cores: the fixpoint and the ``y_max(x)`` search over it.

Definition (paper): the ``[x,y]``-core of a directed graph is the
*largest* pair ``(S,T)`` such that every ``u ∈ S`` has ≥ x out-edges
into ``T`` and every ``v ∈ T`` has ≥ y in-edges from ``S``.

Feasible pairs are closed under union (degrees only grow), so the
maximal core is unique and equals the fixpoint of batch-deleting
violators. Each deletion round is one ``degree_round``: on a DataFrame,
two degree aggregations joined back onto the edges and one filter — the
dataflow formulation the reproduction hint asks for; on an
``EdgeArrays``, the same filter in numpy. The state's type picks the
substrate; there is no engine option.

A fixpoint may also take a product floor f: a round then also deletes
every edge whose source out-degree times destination in-degree is ≤ f.
Edge sets that pass the three rules are closed under union too, and every
edge of an [x′,y′]-core has that product ≥ x′·y′, so the product core
holds every [x′,y′]-core with x′ ≥ x, y′ ≥ y and x′·y′ > f. Core-Approx
and Core-Exact start their searches from such cores.

There is one Spark→driver handoff rule: DataFrame rounds run only while
the edge set holds more than ``DRIVER_EDGE_BUDGET`` edges. A state
within the budget is collected to the driver once and finished in
numpy; from then on it stays an ``EdgeArrays``. A Spark round costs
~0.4 s of job latency however few edges it touches, while a numpy round
over the whole budget costs less than that. BS-Approx's peel
(``repro.core.approx``) follows the same rule. Each handoff is one Spark
job: on entry (``to_driver``) a bounded collect, with no count before it;
inside a fixpoint or peel, a collect on the count the round already made.
Every handoff is ``collect_edges`` (``repro.graph.local``), which reads in
one task wave and converts from Arrow straight to numpy. An algorithm
enters once: Core-Exact hands Core-Approx the state it entered and counted.

The module also implements the step Core-Approx (``repro.core.approx``)
repeats for each x it evaluates: ``y_max_for_x``, the largest y with a
nonempty [x,y]-core when x·y beats a floor, by binary search over nested
cores.
"""
from __future__ import annotations

from pyspark.sql import functions as F

from repro.graph.degrees import in_degrees, out_degrees
from repro.graph.local import EdgeArrays, collect_edges
from repro.graph.schema import DST, SRC

# Largest edge set worked on at the driver: 1M int64 (src, dst) pairs are
# 16 MB, and a numpy fixpoint round over them is cheaper than one Spark
# round of job latency. DataFrame rounds run only above it.
DRIVER_EDGE_BUDGET = 1_000_000

# ---------------------------------------------------------------------------
# one degree-filter round, and the engines built on it
# ---------------------------------------------------------------------------


def degree_round(state, lo_out: float, lo_in: float, floor: int = 0):
    """One batch deletion round: the edges whose source has out-degree
    > ``lo_out``, whose destination has in-degree > ``lo_in``, and whose
    two degrees multiply to more than ``floor``.

    Both the [x,y]-core fixpoint (bounds x−1, y−1) and the BS-Approx peel
    (float thresholds, no floor) are repeated rounds of this. With
    ``floor`` ≤ 0 the product rule removes nothing, since every degree of an
    edge's endpoint is at least 1. An ``EdgeArrays`` state is filtered in
    numpy, by degrees counted on its dense vertex ids, and returned itself
    when no edge goes; the survivors keep its id space. A DataFrame state
    joins each edge's two degrees and filters once, with an eager
    ``localCheckpoint`` to cut lineage (iterative plans grow exponentially
    otherwise).
    """
    if isinstance(state, EdgeArrays):
        s, t = state.src_ids, state.dst_ids
        d_out, d_in = s.degrees()[s.ids], t.degrees()[t.ids]
        keep = (d_out > lo_out) & (d_in > lo_in)
        if floor > 0:
            keep &= d_out * d_in > floor
        return state if keep.all() else state.select(keep)
    d_out, d_in = F.col("out_deg"), F.col("in_deg")
    return (
        state.join(out_degrees(state), SRC)
        .join(in_degrees(state), DST)
        .filter((d_out > lo_out) & (d_in > lo_in) & (d_out * d_in > floor))
        .select(SRC, DST)
        .localCheckpoint(eager=True)
    )


class LocalEngine:
    """numpy batch-fixpoint engine; state = EdgeArrays."""

    def core(self, state: EdgeArrays, x: int, y: int, floor: int = 0) -> EdgeArrays:
        """The [x,y]-core of ``state``, or with ``floor`` > 0 its product
        core: the largest edge subset in which every edge's source has
        out-degree ≥ x, its destination in-degree ≥ y, and the two degrees
        multiply to more than ``floor``. That subset holds every
        [x′,y′]-core with x′ ≥ x, y′ ≥ y and x′·y′ > ``floor``, so each
        such core is the same searched from it as from ``state``."""
        while state.m:
            kept = degree_round(state, x - 1, y - 1, floor)
            if kept is state:
                break
            state = kept
        return state

    def m(self, state: EdgeArrays) -> int:
        return state.m

    def counts(self, state: EdgeArrays) -> tuple[int, int, int]:
        return state.n_src, state.n_dst, state.m

    def max_out_degree(self, state: EdgeArrays) -> int:
        return state.out_degree_max()

    def max_in_degree(self, state: EdgeArrays) -> int:
        return state.in_degree_max()


class DataFrameEngine(LocalEngine):
    """Catalyst batch-fixpoint engine; state = edge DataFrame or EdgeArrays.

    Each round is one ``degree_round`` and a count to detect the fixpoint.
    Rounds run only while the state is above ``DRIVER_EDGE_BUDGET``; a
    nonempty state within it is collected and finished by the numpy
    fixpoint, and ``EdgeArrays`` states get the ``LocalEngine`` methods.
    """

    def core(self, state, x: int, y: int, floor: int = 0):
        if isinstance(state, EdgeArrays):
            return super().core(state, x, y, floor)
        m = self.m(state)
        while True:  # each round that does not return removes edges
            if m == 0:
                return state
            if m <= DRIVER_EDGE_BUDGET:
                return super().core(collect_edges(state), x, y, floor)
            state, m_prev = degree_round(state, x - 1, y - 1, floor), m
            m = self.m(state)
            if m == m_prev:
                return state

    def m(self, state) -> int:
        if isinstance(state, EdgeArrays):
            return super().m(state)
        return state.count()

    def counts(self, state) -> tuple[int, int, int]:
        if isinstance(state, EdgeArrays):
            return super().counts(state)
        row = state.agg(
            F.countDistinct(SRC).alias("ns"),
            F.countDistinct(DST).alias("nt"),
            F.count(F.lit(1)).alias("m"),
        ).collect()[0]
        return row["ns"], row["nt"], row["m"]

    def max_out_degree(self, state) -> int:
        if isinstance(state, EdgeArrays):
            return super().max_out_degree(state)
        return out_degrees(state).agg(F.max("out_deg")).collect()[0][0] or 0

    def max_in_degree(self, state) -> int:
        if isinstance(state, EdgeArrays):
            return super().max_in_degree(state)
        return in_degrees(state).agg(F.max("in_deg")).collect()[0][0] or 0


def engine_for(edges) -> LocalEngine:
    """The engine for ``edges``: by its type, EdgeArrays or DataFrame."""
    return LocalEngine() if isinstance(edges, EdgeArrays) else DataFrameEngine()


def to_local(state) -> EdgeArrays:
    """``state`` on the driver: an ``EdgeArrays`` as is, a DataFrame collected."""
    return state if isinstance(state, EdgeArrays) else collect_edges(state)


def to_driver(edges, m: int | None = None):
    """``edges`` collected to the driver if it is a DataFrame of at most
    ``DRIVER_EDGE_BUDGET`` edges, else unchanged: the once-on-entry form of
    the handoff rule, one Spark job either way.

    Uncounted (``m`` None), it collects at most ``DRIVER_EDGE_BUDGET + 1``
    rows; when no more than the budget arrives, that is the whole edge set.
    Above the budget the head is discarded, which costs more than a count
    but is paid once per entry. A caller that has counted passes ``m``.
    """
    if isinstance(edges, EdgeArrays):
        return edges
    if m is not None:
        return collect_edges(edges) if m <= DRIVER_EDGE_BUDGET else edges
    head = collect_edges(edges, DRIVER_EDGE_BUDGET + 1)
    return head if head.m <= DRIVER_EDGE_BUDGET else edges


# ---------------------------------------------------------------------------
# y_max(x): the largest y with a nonempty [x,y]-core
# ---------------------------------------------------------------------------


def y_max_for_x(edges, x: int, eng: LocalEngine, st: dict, floor: int, y_hi: int):
    """y_max(x), the largest y with a nonempty [x,y]-core, if x·y_max(x)
    exceeds ``floor``; the search's cores are engine states, and each core
    probe adds one to ``st["core_probes"]``. ``y_hi`` must be at least
    y_max(x) when x·y_max(x) exceeds ``floor``.

    Returns ``(y, core, base)``. ``base`` is the product core of ``edges``
    at (x, 1, ``floor``), which holds every [x′,y′]-core with x′ ≥ x and
    x′·y′ > ``floor``; ``y`` bounds the y′ of each such core with y′ ≤
    ``y_hi``. When x·y_max(x) > ``floor``, ``y`` is y_max(x) and ``core``
    its core; otherwise ``core`` is None and ``y`` is the least of
    ``floor``//x, ``y_hi`` and ``base``'s max in-degree, not always ≥ y_max(x).

    Binary search on y over the nested family ``[x,y]-core ⊆ [x,y-1]-core``,
    only over the y in (``floor``//x, min(max in-degree, ``y_hi``)], where
    every [x,y]-core is the same searched from ``base`` as from ``edges``;
    every probe runs inside the last nonempty core found, so probes get
    cheaper as y grows.
    """
    base = eng.core(edges, x, 1, floor)
    st["core_probes"] += 1
    lo = min(floor // x, y_hi)  # no y up to floor//x beats the floor
    hi = min(eng.max_in_degree(base), y_hi)  # [x,y]-core empty for y > max in-degree
    lo_core = None  # once set: the nonempty [x,lo]-core
    while lo < hi:
        mid = (lo + hi + 1) // 2
        probe = eng.core(base if lo_core is None else lo_core, x, mid)
        st["core_probes"] += 1
        if eng.m(probe) == 0:
            hi = mid - 1
        else:
            lo, lo_core = mid, probe
    return min(lo, hi), lo_core, base
