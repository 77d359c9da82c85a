"""T6 — pruning effectiveness inside Core-Exact.

Usage: python jobs/table_pruning.py [--sets xs-er,...]
Reports, per dataset: candidate-ratio space size vs ratios actually
solved / skipped via empty cores, min-cut calls, lifts (Dinkelbach
steps taken for free from a core's own density), and the largest flow
network ever built relative to a whole-graph network (the paper's
"flow network shrinks" figure, as a table), plus Core-Exact's wall time
(the T2 rows of the sets too large for that table's other algorithms).
"""
from __future__ import annotations

import argparse
import math

from _util import print_table, timed

from repro import datasets
from repro.core.exact import core_exact
from repro.core.ratios import all_candidate_ratios
from repro.flow.network import network_nodes

DEFAULT = ["xs-er", "xs-pl", "xs-plant", "s-er", "s-pl", "m-pl", "m-plant"]


def run(names: list[str]) -> list[dict]:
    rows = []
    for name in names:
        e = datasets.load_local(name)
        r, seconds = timed(core_exact, e)
        st = r.stats
        full_nodes = network_nodes(e.n_src, e.n_dst)
        # candidate-space size: count distinct reduced fractions (exact for
        # the small tier; estimated via the Farey ~3/π² density for large)
        n_s, n_t = e.n_src, e.n_dst
        if n_s * n_t <= 4_000_000:
            n_cand = len(all_candidate_ratios(n_s, n_t))
        else:
            n_cand = int(n_s * n_t * 6 / math.pi**2)
        rows.append(
            {
                "dataset": name,
                "m": e.m,
                "candidate_ratios": n_cand,
                "ratios_solved": st["ratios_solved"],
                "ratios_skipped": st["ratios_skipped_empty_core"],
                "cuts": st["cuts"],
                "lifts": st["lifts"],
                "flow_nodes_max": st["max_flow_nodes"],
                "flow_nodes_full": full_nodes,
                "shrink": round(st["max_flow_nodes"] / full_nodes, 4),
                "min_core_m": min(st["core_sizes"], default=""),
                "rho_opt": round(r.rho, 4),
                "core_s": seconds,
            }
        )
    return rows


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", default=",".join(DEFAULT))
    args = ap.parse_args()
    rows = run([s for s in args.sets.split(",") if s])
    print_table(rows, "T6: Core-Exact pruning effectiveness")


if __name__ == "__main__":
    main()
