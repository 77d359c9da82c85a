"""Tests for exact density arithmetic."""
from fractions import Fraction
from math import sqrt

import numpy as np
import pytest

from repro.core.density import rho2_frac, skewed2_frac
from repro.core.result import DDSResult
from repro.graph.local import EdgeArrays


def test_rho_basic():
    assert rho2_frac(6, 4, 9) == 1
    assert rho2_frac(10, 2, 2) == 25


def test_rho_empty_side_is_zero():
    assert rho2_frac(0, 3, 3) == 0
    assert rho2_frac(5, 0, 3) == 0
    assert rho2_frac(5, 3, 0) == 0


def test_rho2_frac_exact():
    assert rho2_frac(3, 2, 5) == Fraction(9, 10)
    assert rho2_frac(0, 2, 5) == Fraction(0)


def test_rho_matches_its_square():
    """The reported float ρ of a result is the root of its exact ρ²."""
    r = DDSResult(np.arange(3), np.arange(5), 7)
    assert r.rho2 == rho2_frac(7, 3, 5)
    assert r.rho == pytest.approx(sqrt(float(rho2_frac(7, 3, 5))))


@pytest.mark.parametrize("m,ns,nt", [(5, 2, 3), (9, 3, 3), (1, 1, 4)])
@pytest.mark.parametrize("i,j", [(1, 1), (2, 3), (5, 1)])
def test_skewed_never_exceeds_rho(m, ns, nt, i, j):
    """AM-GM: the skewed density lower-bounds the true density."""
    assert skewed2_frac(m, ns, nt, i, j) <= rho2_frac(m, ns, nt)


@pytest.mark.parametrize("i,j", [(2, 3), (1, 1), (7, 2)])
def test_skewed_equals_rho_at_own_ratio(i, j):
    """Equality holds exactly when |S|/|T| == i/j."""
    m = 11
    assert skewed2_frac(m, 2 * i, 2 * j, i, j) == rho2_frac(m, 2 * i, 2 * j)


def test_skewed2_frac_exact_value():
    # 2*sqrt(6)*4 / (3*2 + 2*3) = 8*sqrt(6)/12 -> squared = 384/144 = 8/3
    assert skewed2_frac(4, 2, 3, 2, 3) == Fraction(4 * 2 * 3 * 16, 144)


def test_pair_density():
    e = EdgeArrays(np.array([0, 0, 1]), np.array([2, 3, 2]))
    assert rho2_frac(e.edges_between(np.array([0]), np.array([2, 3])), 1, 2) == 2
    assert rho2_frac(e.edges_between(np.array([5]), np.array([2])), 1, 1) == 0
