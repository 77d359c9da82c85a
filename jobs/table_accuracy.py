"""T4 — approximation accuracy: ρ_algo / ρ_opt where exact is feasible.

Usage: python jobs/table_accuracy.py [--sets xs-er,...] [--eps 0.5]
The theoretical floors are 1/2 (Core-Approx), 1/(2(1+ε)) (KS-Approx)
and 1/(2(1+ε)²) (BS-Approx); the paper's observation — reproduced
here — is that actual ratios sit near 1.
"""
from __future__ import annotations

import argparse

from _util import print_table

from repro import datasets
from repro.core.approx import bs_approx, core_approx, ks_approx
from repro.core.exact import core_exact

DEFAULT = ["xs-er", "xs-pl", "xs-plant", "s-er", "s-pl", "m-pl", "m-plant"]


def run(names: list[str], eps: float) -> list[dict]:
    rows = []
    for name in names:
        e = datasets.load_local(name)
        opt = core_exact(e)
        row = {"dataset": name, "rho_opt": round(opt.rho, 4)}
        for label, res in [
            ("core", core_approx(e)),
            ("ks", ks_approx(e, eps=eps)),
            ("bs", bs_approx(e, eps=eps)),
        ]:
            ratio = res.rho / opt.rho if opt.rho else 1.0
            row[f"{label}_acc"] = round(ratio, 4)
            assert ratio <= 1.0 + 1e-9, f"approx beat exact on {name}?!"
        rows.append(row)
    return rows


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", default=",".join(DEFAULT))
    ap.add_argument("--eps", type=float, default=0.5)
    args = ap.parse_args()
    rows = run([s for s in args.sets.split(",") if s], args.eps)
    print_table(rows, f"T4: approximation accuracy rho/rho_opt (eps={args.eps})")


if __name__ == "__main__":
    main()
