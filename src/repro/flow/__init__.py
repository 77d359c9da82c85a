"""Max-flow / min-cut substrate for the exact DDS algorithms.

The paper's exact algorithms repeatedly solve a minimum st-cut on a
"decision network" derived from the (core-pruned) graph. No flow solver
is available offline, so this subpackage implements one from scratch:

- :mod:`repro.flow.dinic` — Dinic's blocking-flow algorithm on integer
  capacities with an s-side min-cut extractor. Its one constructor,
  ``Dinic(n, tail, head, cap, flow)``, takes the arcs as parallel
  groups with a feasible start flow and lays out the residuals.
- :mod:`repro.flow.network` — the vertex-only DDS decision network for a
  fixed ratio ``a = i/j`` and rational level ``λ``.
"""
