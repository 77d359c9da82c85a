"""Hypothesis property tests: randomized graphs beyond the fixed seeds."""
import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.approx import bs_approx, core_approx, ks_approx
from repro.core.bruteforce import brute_force_dds
from repro.core.exact import core_exact, dc_exact
from repro.core.xycore import LocalEngine
from repro.graph.local import EdgeArrays

_SLOW = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def tiny_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    m = draw(st.integers(min_value=1, max_value=18))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=1,
            max_size=m,
        )
    )
    pairs = sorted(set(edges))
    src = np.array([p[0] for p in pairs], dtype=np.int64)
    dst = np.array([p[1] for p in pairs], dtype=np.int64)
    return EdgeArrays(src, dst)


@_SLOW
@given(tiny_graphs())
def test_exact_algorithms_agree_with_bruteforce(e):
    opt = brute_force_dds(e)
    assert dc_exact(e).rho2 == opt.rho2
    assert core_exact(e).rho2 == opt.rho2


@_SLOW
@given(tiny_graphs())
def test_approximation_guarantees(e):
    opt = brute_force_dds(e)
    assert core_approx(e).rho2 * 4 >= opt.rho2
    assert float(ks_approx(e, eps=0.5).rho2) * 9 >= float(opt.rho2) - 1e-9
    assert float(bs_approx(e, eps=0.5).rho2) * (4.5**2) >= float(opt.rho2) - 1e-9


@_SLOW
@given(tiny_graphs(), st.integers(1, 3), st.integers(1, 3))
def test_xy_core_is_maximal_fixpoint(e, x, y):
    core = LocalEngine().core(e, x, y)
    if core.m == 0:
        return
    _, s_inv = np.unique(core.src, return_inverse=True)
    _, t_inv = np.unique(core.dst, return_inverse=True)
    assert np.bincount(s_inv).min() >= x
    assert np.bincount(t_inv).min() >= y
    # no edge between surviving endpoints was dropped
    s_set, t_set = np.unique(core.src), np.unique(core.dst)
    assert e.edges_between(s_set, t_set) == core.m
