"""The candidate-ratio space and searches over it.

The optimal DDS ratio ``|S*|/|T*|`` is a reduced fraction ``i/j`` with
``i ≤ max|S|`` and ``j ≤ max|T|``. The exact algorithms differ only in
how much of this O(n²) space they touch:

- ``all_candidate_ratios`` — full enumeration (the Exact baseline).
- ``candidate_in`` — "some candidate strictly inside an open interval",
  used by DC-Exact/Core-Exact to pick the next ratio to solve. This is a
  Farey-style scan over denominators: O(max_den) per call, called
  O(#settled ratios) times. On a large sparse graph it dominates: on
  m-plant (n_dst ≈ 5 000) its 27–29 calls take about 0.45 s of a 0.6 s
  Core-Exact call (4-core x86 VM, Python 3.11).
- ``geometric_grid`` — the (1+ε)-grid the approximation baselines sweep.
"""
from __future__ import annotations

from fractions import Fraction
from math import floor, isfinite, log, sqrt


def all_candidate_ratios(max_num: int, max_den: int) -> list[Fraction]:
    """All distinct reduced fractions i/j, 1 ≤ i ≤ max_num, 1 ≤ j ≤ max_den."""
    out = {Fraction(i, j) for i in range(1, max_num + 1) for j in range(1, max_den + 1)}
    return sorted(out)


def candidate_in(
    lo: Fraction, hi: Fraction, max_num: int, max_den: int
) -> Fraction | None:
    """A candidate ratio strictly inside the open interval (lo, hi).

    Among all valid candidates, returns the one closest (in log-space)
    to the geometric midpoint of the interval — the DC split point.
    Returns None when no candidate exists, which is the DC recursion's
    termination test.
    """
    if lo >= hi:
        return None
    target = sqrt(float(lo) * float(hi)) if float(lo) > 0 else float(hi) / 2
    best: Fraction | None = None
    best_d = float("inf")
    for j in range(1, max_den + 1):
        i_min = floor(lo * j) + 1  # smallest i with i/j > lo
        i_max_f = hi * j
        i_max = (
            i_max_f.numerator // i_max_f.denominator
            if i_max_f.denominator > 1
            else int(i_max_f) - 1
        )  # largest i with i/j < hi
        i_max = min(i_max, max_num)
        if i_min > i_max:
            continue
        # candidate i closest to target*j within [i_min, i_max]
        i = min(max(round(target * j), i_min), i_max)
        f = Fraction(i, j)
        d = abs(log(float(f)) - log(target)) if target > 0 else float(f)
        if d < best_d:
            best_d = d
            best = f
    return best


def geometric_grid(lo: float, hi: float, eps: float) -> list[float]:
    """Grid lo, lo(1+eps), … covering [lo, hi] (last point ≥ hi)."""
    if lo <= 0 or hi < lo:
        raise ValueError("need 0 < lo <= hi")
    if not (isfinite(eps) and eps > 0):  # eps <= 0 never reaches hi; nan passes every test
        raise ValueError("need a finite eps > 0")
    out = [lo]
    while out[-1] < hi:
        out.append(out[-1] * (1.0 + eps))
    return out
