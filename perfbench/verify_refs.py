"""Cross-check the reference ρ² in references.json with independent algorithms.

    python3 perfbench/verify_refs.py [workload ...]

- exact-planted: ``dc_exact`` (divide and conquer over ratios, no core
  pruning and no Core-Approx seeding) must return the reference ρ².
- exact-hub: the star around the highest-degree vertex has ρ² equal to
  that degree, and the reference must equal it. This shows the reference is
  attained, not that nothing beats it: ``dc_exact`` builds every flow network
  on the whole 44k-edge graph and had not finished after 50 minutes, so it is
  not run here.
- approx-*: the reference is the ρ² of the max-x·y [x,y]-core. An own
  degree-peeling kernel walks the whole y_max(x) frontier, without the
  branch-and-bound skips of ``max_xy_core``; the best product must equal
  Core-Approx's, and one of its maximising cores must have the reference ρ².

Slow (about 4 minutes per exact-planted graph): it is run once when a
reference is added, not by the benchmark. Exits non-zero on any mismatch.
"""
from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from repro.core.approx import core_approx  # noqa: E402
from repro.core.exact import dc_exact  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _peel(src: np.ndarray, dst: np.ndarray, x: int, y: int):
    """[x,y]-core by repeated deletion, written apart from LocalEngine."""
    while len(src):
        out_deg = np.bincount(src)
        in_deg = np.bincount(dst)
        keep = (out_deg[src] >= x) & (in_deg[dst] >= y)
        if keep.all():
            break
        src, dst = src[keep], dst[keep]
    return src, dst


def _rho2(src: np.ndarray, dst: np.ndarray) -> Fraction:
    return Fraction(len(src) ** 2, len(np.unique(src)) * len(np.unique(dst)))


def frontier_best(src: np.ndarray, dst: np.ndarray):
    """(max x·y, {ρ² of every maximising core}) over the full y_max(x) frontier."""
    best, rhos = 0, set()
    base = (src, dst)
    y_hi = int(np.bincount(dst).max())
    x = 1
    while True:
        base = _peel(*base, x, 1)
        if len(base[0]) == 0:
            return best, rhos
        lo, hi = 1, min(y_hi, int(np.bincount(base[1]).max()))
        while lo < hi:  # largest y with a nonempty [x,y]-core
            mid = (lo + hi + 1) // 2
            if len(_peel(*base, x, mid)[0]):
                lo = mid
            else:
                hi = mid - 1
        y_hi = lo
        if x * lo > best:
            best, rhos = x * lo, set()
        if x * lo == best:
            rhos.add(_rho2(*_peel(*base, x, lo)))
        x += 1


def verify(name: str, graph_seed: int, ref: Fraction) -> list[str]:
    w = WORKLOADS[name]
    e = w.make(graph_seed)
    errors = []
    t0 = time.perf_counter()
    if name == "exact-hub":
        _, d_in = np.unique(e.dst, return_counts=True)
        _, d_out = np.unique(e.src, return_counts=True)
        star = max(int(d_in.max()), int(d_out.max()))  # ρ² of the best star
        if star != ref:
            errors.append(f"best star rho2 {star} != {ref}")
        note = f"star={star}"
    elif w.algo == "core_exact":
        got = dc_exact(e).rho2
        if got != ref:
            errors.append(f"dc_exact rho2 {got} != {ref}")
        note = f"dc_exact={got}"
    else:
        # compact the ids so bincount stays small
        _, src = np.unique(e.src, return_inverse=True)
        _, dst = np.unique(e.dst, return_inverse=True)
        xy, rhos = frontier_best(src, dst)
        r = core_approx(e)
        if xy != r.stats["xy"]:
            errors.append(f"frontier max x*y {xy} != core_approx {r.stats['xy']}")
        if ref not in rhos:
            errors.append(f"{ref} not among maximising cores' rho2 {sorted(rhos)}")
        note = f"frontier x*y={xy} rho2s={sorted(map(str, rhos))}"
    print(f"{name} graph_seed={graph_seed} ref={ref} {note} "
          f"({time.perf_counter() - t0:.1f} s) {'OK' if not errors else errors}", flush=True)
    return errors


def main(names: list[str]) -> int:
    refs = json.loads((HERE / "references.json").read_text())["rho2"]
    errors = []
    for name in names or list(WORKLOADS):
        for seed, ref in refs[name].items():
            errors += verify(name, int(seed), Fraction(ref))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
