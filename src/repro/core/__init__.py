"""The paper's contribution: [x,y]-core based DDS algorithms.

- :mod:`repro.core.density` — exact (rational) density arithmetic.
- :mod:`repro.core.ratios` — the candidate-ratio space ``{i/j}`` and
  searches over it (Farey scan, geometric grids).
- :mod:`repro.core.xycore` — [x,y]-core fixpoints (DataFrame and local
  engines) and the ``y_max(x)`` search.
- :mod:`repro.core.approx` — Core-Approx (paper, 2-approx: the exact
  max-``x·y`` core search), KS-Approx and BS-Approx baselines.
- :mod:`repro.core.exact` — Exact baseline, DC-Exact, Core-Exact.
- :mod:`repro.core.bruteforce` — exhaustive ground truth for tiny graphs.
"""
