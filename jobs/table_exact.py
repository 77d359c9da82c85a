"""T2 — exact-algorithm efficiency: Exact vs DC-Exact vs Core-Exact.

Usage: python jobs/table_exact.py [--sets xs-er,...] [--skip-exact]
The baseline is Θ(n²) flow solves by construction, so it only runs on
the xs/s tier (the paper likewise caps its baseline at small graphs).
"""
from __future__ import annotations

import argparse

from _util import print_table, timed

from repro import datasets
from repro.core.exact import core_exact, dc_exact, exact_dds

DEFAULT = ["xs-er", "xs-pl", "xs-plant", "s-er", "s-pl"]
BASELINE_MAX_M = 800  # beyond this the all-ratio baseline is hopeless


def run(names: list[str], skip_exact: bool = False) -> list[dict]:
    rows = []
    for name in names:
        e = datasets.load_local(name)
        row: dict = {"dataset": name, "m": e.m}
        if not skip_exact and e.m <= BASELINE_MAX_M:
            r, row["exact_s"] = timed(exact_dds, e)
            row["exact_ratios"] = r.stats["ratios_solved"]
            rho_ref = r.rho2
        else:
            row["exact_s"] = "n/a"
            row["exact_ratios"] = "n/a"
            rho_ref = None
        r_dc, row["dc_s"] = timed(dc_exact, e)
        row["dc_ratios"] = r_dc.stats["ratios_solved"]
        r_core, row["core_s"] = timed(core_exact, e)
        row["core_ratios"] = r_core.stats["ratios_solved"]
        row["rho_opt"] = round(r_core.rho, 4)
        assert r_dc.rho2 == r_core.rho2, f"exact algorithms disagree on {name}"
        if rho_ref is not None:
            assert rho_ref == r_core.rho2, f"baseline disagrees on {name}"
        if isinstance(row["exact_s"], float) and row["core_s"] > 0:
            row["speedup"] = round(row["exact_s"] / row["core_s"], 1)
        rows.append(row)
    return rows


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", default=",".join(DEFAULT))
    ap.add_argument("--skip-exact", action="store_true")
    args = ap.parse_args()
    rows = run([s for s in args.sets.split(",") if s], args.skip_exact)
    print_table(rows, "T2: exact algorithm efficiency (seconds)")


if __name__ == "__main__":
    main()
