"""T1 — dataset statistics table.

Usage: spark-submit jobs/table_datasets.py [--sets xs-er,xs-pl,...]
Prints one row per dataset: sizes, max degrees, and the max-x·y core
(the directed analogue of the paper's k_max column).
"""
from __future__ import annotations

import argparse

from _util import get_spark, print_table

from repro import datasets
from repro.core.approx import core_approx
from repro.graph.local import collect_edges

DEFAULT = ["xs-er", "xs-pl", "xs-plant", "s-er", "s-pl", "m-er", "m-pl", "m-plant", "l-pl"]


def run(spark, names: list[str]) -> list[dict]:
    rows = []
    for name in names:
        if name in datasets.SPARK_DATASETS:
            e = collect_edges(datasets.load_spark(name, spark))
        else:
            e = datasets.load_local(name)
        core = core_approx(e).stats
        rows.append(
            {
                "dataset": name,
                "n_src": e.n_src,
                "n_dst": e.n_dst,
                "m": e.m,
                "d_out_max": e.out_degree_max(),
                "d_in_max": e.in_degree_max(),
                "core_x": core["x"],
                "core_y": core["y"],
                "sqrt_xy": round(core["xy"] ** 0.5, 3),
            }
        )
    return rows


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", default=",".join(DEFAULT))
    args = ap.parse_args()
    spark = get_spark("table-datasets")
    rows = run(spark, [s for s in args.sets.split(",") if s])
    print_table(rows, "T1: dataset statistics")
    spark.stop()


if __name__ == "__main__":
    main()
