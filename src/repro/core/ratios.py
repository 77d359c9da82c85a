"""The candidate-ratio space and searches over it.

The optimal DDS ratio ``|S*|/|T*|`` is a reduced fraction ``i/j`` with
``i ≤ max|S|`` and ``j ≤ max|T|``. The exact algorithms differ only in
how much of this O(n²) space they touch:

- ``all_candidate_ratios`` — full enumeration (the Exact baseline).
- ``candidate_in`` — "some candidate strictly inside an open interval",
  used by DC-Exact/Core-Exact to pick the next ratio to solve: the
  log-closest candidate to the interval's geometric midpoint, found from
  the midpoint's two bounded Farey neighbours by a Stern–Brocot descent.
  O(log max_den) exact integer steps per call, so the sweep's cost is its
  flows and cores, not its ratio picks.
- ``geometric_grid`` — the (1+ε)-grid the approximation baselines sweep.
"""
from __future__ import annotations

from fractions import Fraction
from math import isfinite, sqrt


def all_candidate_ratios(max_num: int, max_den: int) -> list[Fraction]:
    """All distinct reduced fractions i/j, 1 ≤ i ≤ max_num, 1 ≤ j ≤ max_den."""
    out = {Fraction(i, j) for i in range(1, max_num + 1) for j in range(1, max_den + 1)}
    return sorted(out)


def candidate_in(
    lo: Fraction, hi: Fraction, max_num: int, max_den: int
) -> Fraction | None:
    """A candidate ratio strictly inside the open interval (lo, hi).

    Among all valid candidates, returns the one closest (in log-space)
    to the geometric midpoint of the interval — the DC split point —
    preferring the smaller denominator on a tie. Returns None when no
    candidate exists, which is the DC recursion's termination test.

    The log-closest candidate on either side of the target t is t's
    bounded Farey neighbour on that side, so only the two neighbours are
    compared. If neither lies inside (lo, hi), no candidate does: no
    bounded fraction lies strictly between two bounded Farey neighbours.
    """
    if lo >= hi or max_num < 1 or max_den < 1:
        return None
    t = Fraction(sqrt(float(lo) * float(hi)) if float(lo) > 0 else float(hi) / 2)
    if not lo < t < hi:  # endpoints closer together than one float ulp
        t = (lo + hi) / 2
    (p0, q0), (p1, q1) = _farey_neighbours(t, max_num, max_den)
    below = Fraction(p0, q0) if p0 else None  # 0/1: no candidate ≤ t
    above = Fraction(p1, q1) if q1 else None  # 1/0: no candidate ≥ t
    inside = [f for f in (below, above) if f is not None and lo < f < hi]
    if len(inside) == 2 and below * above != t * t:  # above/t < t/below: above is closer
        return above if below * above < t * t else below
    return min(inside, key=lambda f: f.denominator, default=None)


def _farey_neighbours(
    t: Fraction, max_num: int, max_den: int
) -> tuple[tuple[int, int], tuple[int, int]]:
    """The largest p0/q0 ≤ t and the smallest p1/q1 ≥ t with p ≤ max_num
    and q ≤ max_den, as (p, q) pairs; 0/1 and 1/0 stand for "none".

    A Stern–Brocot descent toward t with batched steps (Graham, Knuth and
    Patashnik, *Concrete Mathematics* §4.5): the bounds stay adjacent
    (p1·q0 − p0·q1 = 1), and each step moves one bound past as many
    mediants as stay on its side of t and within both caps. Fractions
    strictly between adjacent bounds all descend from their mediant, whose
    numerator and denominator are the smallest among them, so the descent
    ends when that mediant breaks a cap. It takes O(log max_den) steps,
    on exact integers.
    """
    a, b = t.numerator, t.denominator
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        # lower bound rightwards: (p0 + k·p1)/(q0 + k·q1) ≤ t
        k = _steps(a * q0 - b * p0, b * p1 - a * q1, max_num - p0, p1, max_den - q0, q1)
        p0, q0 = p0 + k * p1, q0 + k * q1
        # upper bound leftwards: (p1 + k·p0)/(q1 + k·q0) ≥ t
        k2 = _steps(b * p1 - a * q1, a * q0 - b * p0, max_num - p1, p0, max_den - q1, q0)
        p1, q1 = p1 + k2 * p0, q1 + k2 * q0
        if k == 0 and k2 == 0:
            return (p0, q0), (p1, q1)


def _steps(slack: int, gain: int, num_room: int, dp: int, den_room: int, dq: int) -> int:
    """Largest k with k·gain ≤ slack, k·dp ≤ num_room and k·dq ≤ den_room
    (a zero ``gain``, ``dp`` or ``dq`` sets no limit; some limit is set)."""
    caps = [room // d for room, d in ((slack, gain), (num_room, dp), (den_room, dq)) if d]
    return max(0, min(caps))


def check_eps(eps: float) -> None:
    """Raise ``ValueError`` unless ``eps`` is a usable grid step."""
    if not (isfinite(eps) and eps > 0):  # eps <= 0 never reaches hi; nan passes every test
        raise ValueError("need a finite eps > 0")


def geometric_grid(lo: float, hi: float, eps: float) -> list[float]:
    """Grid lo, lo(1+eps), … covering [lo, hi] (last point ≥ hi)."""
    if lo <= 0 or hi < lo:
        raise ValueError("need 0 < lo <= hi")
    check_eps(eps)
    out = [lo]
    while out[-1] < hi:
        out.append(out[-1] * (1.0 + eps))
    return out
