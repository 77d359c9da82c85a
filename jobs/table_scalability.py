"""T5 — scalability on the power-law series (n = 2500·2^k, m ≈ 10n).

Usage: python jobs/table_scalability.py [--scales 0,1,2,3] [--eps 0.5]
Core-Approx and Core-Exact should grow near-linearly with m; the
KS-Approx baseline sweep grows with m·|grid| and falls behind.
"""
from __future__ import annotations

import argparse

from _util import print_table, timed

from repro import datasets
from repro.core.approx import bs_approx, core_approx, ks_approx
from repro.core.exact import core_exact


def run(scales: list[int], eps: float, with_exact: bool = True) -> list[dict]:
    rows = []
    for k in scales:
        e = datasets.scaled_powerlaw(k)
        row: dict = {"scale": k, "n": 2500 * 2**k, "m": e.m}
        r, row["core_approx_s"] = timed(core_approx, e)
        row["core_rho"] = round(r.rho, 3)
        row["bs_s"] = timed(bs_approx, e, eps=eps)[1]
        row["ks_s"] = timed(ks_approx, e, eps=eps)[1]
        if with_exact:
            rx, row["core_exact_s"] = timed(core_exact, e)
            row["rho_opt"] = round(rx.rho, 4)
        rows.append(row)
    return rows


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scales", default="0,1,2,3")
    ap.add_argument("--eps", type=float, default=0.5)
    ap.add_argument("--no-exact", action="store_true")
    args = ap.parse_args()
    scales = [int(s) for s in args.scales.split(",") if s]
    rows = run(scales, args.eps, with_exact=not args.no_exact)
    print_table(rows, "T5: scalability (power-law series)")


if __name__ == "__main__":
    main()
