"""Tests for the synthetic directed-graph generators (local part)."""
import numpy as np
import pytest

from repro.graph import generators as gen


def test_er_deterministic():
    a = gen.er_directed(50, 200, seed=3)
    b = gen.er_directed(50, 200, seed=3)
    assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)


def test_er_different_seeds_differ():
    a = gen.er_directed(50, 200, seed=3)
    b = gen.er_directed(50, 200, seed=4)
    assert not (np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst))


def test_er_no_self_loops_by_default():
    e = gen.er_directed(30, 300, seed=1)
    assert not np.any(e.src == e.dst)


def test_er_ids_in_range_and_deduped():
    e = gen.er_directed(25, 120, seed=2)
    assert e.src.min() >= 0 and e.src.max() < 25
    assert e.dst.min() >= 0 and e.dst.max() < 25
    pairs = set(zip(e.src.tolist(), e.dst.tolist()))
    assert len(pairs) == e.m


def test_powerlaw_skew():
    """Power-law graphs must be much more skewed than ER at equal size."""
    pl = gen.powerlaw_directed(2000, 20000, seed=5)
    er = gen.er_directed(2000, 20000, seed=5)
    assert pl.out_degree_max() > 3 * er.out_degree_max()


def test_powerlaw_deterministic():
    a = gen.powerlaw_directed(100, 400, seed=9)
    b = gen.powerlaw_directed(100, 400, seed=9)
    assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)


def test_planted_block_is_present_and_dense():
    e = gen.planted_dds(200, 300, s_size=10, t_size=12, p_block=1.0, seed=7)
    s_set = np.arange(10)
    t_set = np.arange(188, 200)
    assert e.edges_between(s_set, t_set) >= 10 * 12  # full block survives dedup
    # and it dominates background density
    from repro.core.density import rho2_frac

    assert rho2_frac(e.edges_between(s_set, t_set), len(s_set), len(t_set)) > 25


def test_planted_rejects_overlapping_blocks():
    with pytest.raises(ValueError):
        gen.planted_dds(10, 5, s_size=6, t_size=6)


def test_planted_deterministic():
    a = gen.planted_dds(100, 200, s_size=5, t_size=5, seed=1)
    b = gen.planted_dds(100, 200, s_size=5, t_size=5, seed=1)
    assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)
