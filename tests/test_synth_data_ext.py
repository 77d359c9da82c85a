"""Tests for the TPC-H-derived graph."""
from repro import synth_data
from repro.graph.generators import tpch_order_part
from repro.oracle import assert_equivalent


def test_tpch_order_part_matches_lineitem_oracle(spark):
    """The derived graph must be exactly DISTINCT(orderkey, partkey)."""
    li = synth_data.lineitem(spark, sf=0.001, seed=7)
    graph = tpch_order_part(spark, sf=0.001, seed=7)
    assert_equivalent(
        graph,
        "SELECT DISTINCT l_orderkey AS src, l_partkey + 1000000000 AS dst FROM li",
        li=li,
    )


def test_tpch_order_part_scales_with_sf(spark):
    small = tpch_order_part(spark, sf=0.001, seed=7).count()
    bigger = tpch_order_part(spark, sf=0.005, seed=7).count()
    assert bigger > 2 * small
