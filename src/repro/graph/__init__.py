"""Directed-graph substrate: schema, degrees, local mirror, generators.

The paper assumes a directed-graph engine with degree aggregation,
subgraph induction, and iterative peeling. Spark has no bundled graph
library offline (no GraphX binding in PySpark 4, no GraphFrames), so
this subpackage *is* that engine, built on DataFrames: a graph is an
edge DataFrame with long columns ``src`` and ``dst``; every structural
operation is expressed as aggregations and joins so Catalyst plans
the whole fixpoint round.
"""
