"""Tests for the local EdgeArrays mirror."""
from fractions import Fraction

import numpy as np
import pytest

from repro.graph.local import EdgeArrays, dedup, empty_edges


def _e(pairs):
    a = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return EdgeArrays(a[:, 0].copy(), a[:, 1].copy())


def test_m_and_side_counts():
    e = _e([(0, 1), (0, 2), (3, 1)])
    assert e.m == 3
    assert e.n_src == 2
    assert e.n_dst == 2


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        EdgeArrays(np.array([1, 2]), np.array([1]))


def test_degree_maxima():
    e = _e([(0, 1), (0, 2), (0, 3), (1, 3)])
    assert e.out_degree_max() == 3
    assert e.in_degree_max() == 2


def test_degree_maxima_empty():
    e = empty_edges()
    assert e.out_degree_max() == 0
    assert e.in_degree_max() == 0
    assert e.m == 0


def test_edges_between():
    e = _e([(0, 1), (0, 2), (3, 1), (3, 4)])
    assert e.edges_between(np.array([0]), np.array([1, 2])) == 2
    assert e.edges_between(np.array([0, 3]), np.array([1])) == 2
    assert e.edges_between(np.array([9]), np.array([1])) == 0
    assert e.edges_between(np.array([]), np.array([1])) == 0


def test_dedup():
    e = _e([(0, 1), (0, 1), (1, 0)])
    d = dedup(e)
    assert d.m == 2
    assert set(zip(d.src.tolist(), d.dst.tolist())) == {(0, 1), (1, 0)}


def test_dedup_empty():
    assert dedup(empty_edges()).m == 0


def test_self_loops_are_legal_edges():
    e = _e([(5, 5)])
    assert e.m == 1
    assert e.edges_between(np.array([5]), np.array([5])) == 1


def test_select_keeps_the_parent_id_space():
    e = _e([(10, -3), (10, 7), (2**62, -3)])
    sub = e.select(np.array([True, False, True]))
    assert sub.src.tolist() == [10, 2**62] and sub.dst.tolist() == [-3, -3]
    assert sub.src_ids.n == 2 and sub.dst_ids.n == 2  # the parent's sizes
    assert (sub.n_src, sub.n_dst, sub.in_degree_max()) == (2, 1, 2)
    assert sub.edges_between(np.array([10]), np.array([-3, 7])) == 1


def test_duplicate_check_on_dense_ids():
    """The check keys each pair by its source and destination ids: it finds
    a repeat among sparse, ≥ 2⁶² and negative labels, also inside a subset
    whose id space still holds vertices it lost, and passes a subset
    without one, compacted or not."""
    from repro.graph.local import check_no_duplicates

    neg, big, sparse = -(2**63), 2**62 + 9, 10**12
    e = _e([(neg, big), (big, neg), (sparse, 3), (3, sparse), (neg, 3), (neg, big)])
    with pytest.raises(ValueError, match="duplicate"):
        check_no_duplicates(e)
    sub = e.select(np.array([True, True, False, False, True, True]))
    assert (sub.src_ids.n, sub.dst_ids.n, sub.n_src, sub.n_dst) == (4, 4, 2, 3)
    with pytest.raises(ValueError, match="duplicate"):
        check_no_duplicates(sub)
    ok = e.select(np.array([True, True, False, True, True, False]))
    check_no_duplicates(ok)
    check_no_duplicates(ok.compact())
    check_no_duplicates(sub.select(np.array([True, True, True, False])).compact())


def test_labels_survive_dense_ids():
    """Sparse, huge and negative labels give the answers of their 0..n−1
    relabelling, mapped back: degrees are never counted on raw labels."""
    from repro import datasets
    from repro.core.approx import bs_approx, core_approx
    from repro.core.exact import core_exact
    from repro.core.xycore import LocalEngine

    dense = datasets.load_local("xs-plant")
    n = int(max(dense.src.max(), dense.dst.max())) + 1
    rng = np.random.default_rng(5)
    pool = np.concatenate([
        rng.integers(-(2**63), -1, n),  # negative
        rng.integers(2**62, 2**63 - 1, n),  # huge
        rng.integers(0, 10**9, n),  # sparse
    ])
    lab = np.sort(rng.choice(np.unique(pool), n, replace=False))
    sparse = EdgeArrays(lab[dense.src], lab[dense.dst])

    eng = LocalEngine()
    for x, y in [(1, 1), (2, 3), (3, 2)]:
        got, want = eng.core(sparse, x, y), eng.core(dense, x, y)
        assert got.src.tolist() == lab[want.src].tolist()
        assert got.dst.tolist() == lab[want.dst].tolist()
    for algo in (core_approx, bs_approx, core_exact):
        got, want = algo(sparse), algo(dense)
        assert (got.rho2, got.edges_st, got.stats) == (want.rho2, want.edges_st, want.stats)
        assert got.S.tolist() == lab[want.S].tolist()
        assert got.T.tolist() == lab[want.T].tolist()


def _with_absent_vertices():
    """Subsets whose id spaces still hold vertices that no edge of theirs
    touches: xs-plant without whole sources and destinations, and a
    complete 3×4 block cut from a graph with two more sources and
    destinations (there the full pair is the densest)."""
    from repro import datasets

    e = datasets.load_local("xs-plant")
    block = _e([(u, v) for u in range(3) for v in range(10, 14)] + [(7, 8), (8, 9)])
    return [e.select((e.src % 3 != 0) & (e.dst % 4 != 1)), block.select(block.src < 3)]


def test_selected_subsets_answer_as_their_copies():
    """Every kernel that needs one id per vertex present compacts first:
    on a subset that keeps its parent's id space, each returns what it
    returns on a fresh copy of the same edges."""
    from repro.core.approx import bs_approx, core_approx, ks_approx
    from repro.core.exact import core_exact, dc_exact
    from repro.flow.network import build_dds_network, network_nodes, solve_level

    for sub in _with_absent_vertices():
        # KS-Approx's (1+0.5)-grid would be longer on the uncompacted sizes
        assert sub.src_ids.n * sub.dst_ids.n > 1.5 * sub.n_src * sub.n_dst
        fresh = EdgeArrays(sub.src.copy(), sub.dst.copy())
        for i, j, lam in [(1, 1, Fraction(1)), (2, 3, Fraction(1, 2))]:
            got, want = solve_level(sub, i, j, lam), solve_level(fresh, i, j, lam)
            assert got[0] == want[0] and len(got[1]) > 0
            assert [x.tolist() for x in got[1:]] == [x.tolist() for x in want[1:]]
            net = build_dds_network(sub, i, j, lam)
            assert net.dinic.n == network_nodes(sub.n_src, sub.n_dst)
        for algo in (core_approx, bs_approx, ks_approx, core_exact, dc_exact):
            got, want = algo(sub), algo(fresh)
            assert (got.rho2, got.edges_st, got.stats) == (want.rho2, want.edges_st, want.stats)
            assert got.S.tolist() == want.S.tolist() and got.T.tolist() == want.T.tolist()


def test_results_cannot_write_into_the_index():
    """A result's S and T may be its input's own sorted labels: writing into
    them raises instead of corrupting the input's cached ids."""
    from repro.core.approx import core_approx

    e = _e([(0, 2), (0, 3), (1, 2), (1, 3)])
    r = core_approx(e)
    with pytest.raises(ValueError):
        r.S[0] = 5
    assert e.src_ids.labels.tolist() == [0, 1]
