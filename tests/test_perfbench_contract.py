"""The benchmark's trace cross-checks hold on the algorithms as they are.

``perfbench/tracing.py`` patches the layers' functions by name and
``perfbench/run.py`` counts a traced call as failed when the span counts
disagree with the counters in ``DDSResult.stats`` (one ``solve_ratio`` per
solved ratio, one ``solve_level`` per cut, one local core fixpoint per
counted probe). A refactor of ``src`` that breaks that contract fails here,
not only in a benchmark run.
"""
import sys
from pathlib import Path

import pytest

from repro import datasets
from repro.core import approx, exact

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from run import layer_values  # noqa: E402
from tracing import Tracer  # noqa: E402

MODULES = {"core_exact": exact, "core_approx": approx}


@pytest.mark.parametrize("algo", sorted(MODULES))
# s-er skips ratios; m-plant is the graph of the gated exact-planted workload;
# xs-pl is a hub graph, where Core-Approx skips most x below the floor
@pytest.mark.parametrize("name", ["xs-er", "xs-plant", "s-er", "m-plant", "xs-pl"])
def test_trace_matches_algorithm_counters(name, algo):
    e = datasets.load_local(name)
    with Tracer().patched() as tr:
        res = getattr(MODULES[algo], algo)(e)  # the patched function
    values, mismatch = layer_values(tr, res, algo, 0)
    assert mismatch is None
    assert values["trace.coverage"] > 0
    if algo == "core_exact":
        assert values["exact.solve_ratio.calls"] == res.stats["ratios_solved"] > 0
