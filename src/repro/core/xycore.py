"""[x,y]-cores: the fixpoint and the ``y_max(x)`` search over it.

Definition (paper): the ``[x,y]``-core of a directed graph is the
*largest* pair ``(S,T)`` such that every ``u ∈ S`` has ≥ x out-edges
into ``T`` and every ``v ∈ T`` has ≥ y in-edges from ``S``.

Feasible pairs are closed under union (degrees only grow), so the
maximal core is unique and equals the fixpoint of batch-deleting
violators. Each deletion round is one ``degree_round``: on a DataFrame,
two degree aggregations + two semijoins — the dataflow formulation the
reproduction hint asks for; on an ``EdgeArrays``, the same filter in
numpy. The state's type picks the substrate; there is no engine option.

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
nonempty [x,y]-core, by binary search over nested cores.
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
# Cap on Spark rounds per fixpoint; each round but the last removes edges.
MAX_DF_ROUNDS = 10_000

# ---------------------------------------------------------------------------
# one degree-filter round, and the engines built on it
# ---------------------------------------------------------------------------


def degree_round(state, lo_out: float, lo_in: float):
    """One batch deletion round: the edges whose source has out-degree
    > ``lo_out`` and whose destination has in-degree > ``lo_in``.

    Both the [x,y]-core fixpoint (bounds x−1, y−1) and the BS-Approx peel
    (float thresholds) are repeated rounds of this. An ``EdgeArrays`` state
    is filtered in numpy, by degrees counted on its dense vertex ids, and
    returned itself when no edge goes; the survivors keep its id space. A
    DataFrame state becomes two degree aggregations and two semijoins, with
    an eager ``localCheckpoint`` to cut lineage (iterative plans grow
    exponentially otherwise).
    """
    if isinstance(state, EdgeArrays):
        s, t = state.src_ids, state.dst_ids
        keep = (s.degrees()[s.ids] > lo_out) & (t.degrees()[t.ids] > lo_in)
        return state if keep.all() else state.select(keep)
    s_ok = out_degrees(state).filter(F.col("out_deg") > lo_out).select(SRC)
    t_ok = in_degrees(state).filter(F.col("in_deg") > lo_in).select(DST)
    return (
        state.join(s_ok, SRC, "left_semi")
        .join(t_ok, DST, "left_semi")
        .select(SRC, DST)
        .localCheckpoint(eager=True)
    )


class LocalEngine:
    """numpy batch-fixpoint engine; state = EdgeArrays."""

    def core(self, state: EdgeArrays, x: int, y: int) -> EdgeArrays:
        while state.m:
            kept = degree_round(state, x - 1, y - 1)
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

    def core(self, state, x: int, y: int):
        if isinstance(state, EdgeArrays):
            return super().core(state, x, y)
        m = self.m(state)
        for _ in range(MAX_DF_ROUNDS):
            if m == 0:
                return state
            if m <= DRIVER_EDGE_BUDGET:
                return super().core(collect_edges(state), x, y)
            state, m_prev = degree_round(state, x - 1, y - 1), m
            m = self.m(state)
            if m == m_prev:
                return state
        raise RuntimeError("xy-core fixpoint did not converge (impossible)")

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


def y_max_for_x(edges, x: int, eng: LocalEngine, st: dict):
    """Largest y with nonempty [x,y]-core, that core, and the [x,1]-core
    it was searched in (engine states); each core probe adds one to
    ``st["core_probes"]``.

    Binary search on y over the nested family ``[x,y]-core ⊆ [x,y-1]-core``;
    every probe runs inside the previously found nonempty core, so probes
    get cheaper as y grows. Returns ``(0, empty, empty)`` when even [x,1]
    is empty.
    """
    base = eng.core(edges, x, 1)
    st["core_probes"] += 1
    if eng.m(base) == 0:
        return 0, base, base
    lo, lo_core = 1, base  # invariant: [x,lo]-core nonempty, held in lo_core
    hi = eng.max_in_degree(base)  # [x,y]-core empty for y > max in-degree
    while lo < hi:
        mid = (lo + hi + 1) // 2
        probe = eng.core(lo_core, x, mid)
        st["core_probes"] += 1
        if eng.m(probe) == 0:
            hi = mid - 1
        else:
            lo, lo_core = mid, probe
    return lo, lo_core, base
