"""Exact density arithmetic.

Kannan–Vinay density ρ(S,T)=|E(S,T)|/sqrt(|S||T|) is irrational, but
its square is rational with denominator ≤ n², and for a fixed ratio
``a = i/j`` the skewed density

    rho_a(S,T) = 2*sqrt(i*j)*|E| / (j*|S| + i*|T|)

also has a rational square. All "is this pair better" comparisons are
therefore done on exact Fractions; floats appear only for reporting.
"""
from __future__ import annotations

from fractions import Fraction
from math import sqrt


def rho(m: int, n_s: int, n_t: int) -> float:
    """ρ = m / sqrt(n_s·n_t); 0 for an empty side."""
    if m == 0 or n_s == 0 or n_t == 0:
        return 0.0
    return m / sqrt(n_s * n_t)


def rho2_frac(m: int, n_s: int, n_t: int) -> Fraction:
    """Exact ρ² as a Fraction."""
    if m == 0 or n_s == 0 or n_t == 0:
        return Fraction(0)
    return Fraction(m * m, n_s * n_t)


def skewed(m: int, n_s: int, n_t: int, i: int, j: int) -> float:
    """ρ_a for ratio a=i/j — equals ρ when n_s/n_t == i/j, else smaller."""
    if m == 0 or n_s == 0 or n_t == 0:
        return 0.0
    return 2.0 * sqrt(i * j) * m / (j * n_s + i * n_t)


def skewed2_frac(m: int, n_s: int, n_t: int, i: int, j: int) -> Fraction:
    """Exact ρ_a² as a Fraction."""
    if m == 0 or n_s == 0 or n_t == 0:
        return Fraction(0)
    return Fraction(4 * i * j * m * m, (j * n_s + i * n_t) ** 2)

