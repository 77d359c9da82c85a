"""T3 — approximation-algorithm efficiency: KS vs BS vs Core-Approx.

Usage: spark-submit jobs/table_approx.py [--sets m-er,...] [--eps 0.5]
       [--engine local|df]

``--engine df`` hands BS-Approx and Core-Approx an edge DataFrame (Spark
rounds above the driver edge budget, numpy below it); local hands them
numpy arrays. Results are identical (tests assert parity).
"""
from __future__ import annotations

import argparse

from _util import get_spark, print_table, timed

from repro import datasets
from repro.core.approx import bs_approx, core_approx, ks_approx
from repro.graph.generators import to_spark
from repro.graph.local import collect_edges

DEFAULT = ["s-er", "s-pl", "m-er", "m-pl", "m-plant", "l-pl"]


def run(spark, names: list[str], eps: float, engine: str) -> list[dict]:
    rows = []
    for name in names:
        if name in datasets.SPARK_DATASETS:
            df = datasets.load_spark(name, spark).cache()
            e = collect_edges(df)
        else:
            e = datasets.load_local(name)
            df = to_spark(spark, e).cache() if engine == "df" else None
        data = df if engine == "df" else e
        row: dict = {"dataset": name, "m": e.m}
        r_ks, row["ks_s"] = timed(ks_approx, e, eps=eps)
        row["ks_rho"] = round(r_ks.rho, 3)
        r_bs, row["bs_s"] = timed(bs_approx, data, eps=eps)
        row["bs_rho"] = round(r_bs.rho, 3)
        r_core, row["core_s"] = timed(core_approx, data)
        row["core_rho"] = round(r_core.rho, 3)
        row["core_xy"] = f"[{r_core.stats['x']},{r_core.stats['y']}]"
        if row["core_s"] > 0:
            row["speedup_vs_ks"] = round(row["ks_s"] / row["core_s"], 1)
        rows.append(row)
    return rows


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", default=",".join(DEFAULT))
    ap.add_argument("--eps", type=float, default=0.5)
    ap.add_argument("--engine", choices=["local", "df"], default="local")
    args = ap.parse_args()
    spark = get_spark("table-approx")
    rows = run(spark, [s for s in args.sets.split(",") if s], args.eps, args.engine)
    print_table(rows, f"T3: approximation efficiency (eps={args.eps}, engine={args.engine})")
    spark.stop()


if __name__ == "__main__":
    main()
