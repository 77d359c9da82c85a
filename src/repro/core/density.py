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


def rho2_frac(m: int, n_s: int, n_t: int) -> Fraction:
    """Exact ρ² as a Fraction."""
    if m == 0 or n_s == 0 or n_t == 0:
        return Fraction(0)
    return Fraction(m * m, n_s * n_t)


def skewed2_frac(m: int, n_s: int, n_t: int, i: int, j: int) -> Fraction:
    """Exact ρ_a² for ratio a=i/j — equals ρ² when n_s/n_t == i/j, else smaller."""
    if m == 0 or n_s == 0 or n_t == 0:
        return Fraction(0)
    return Fraction(4 * i * j * m * m, (j * n_s + i * n_t) ** 2)

