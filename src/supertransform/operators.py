"""Scalar differential operators: Euler, Laplace sectors, (d+x)^2.

Each operator accepts a plain SuperPolynomial or a GaussianFunction with
the exp(x^2/2) envelope; envelopes are handled by product rules, never by
series expansion.  The envelope rules of the derivatives:

    d/dx_i  exp(x^2/2) = -x_i           * exp(x^2/2)
    d/dq_{2j-1} exp(x^2/2) = +q_{2j}/2  * exp(x^2/2)
    d/dq_{2j}  exp(x^2/2) = -q_{2j-1}/2 * exp(x^2/2)

with the left-derivative Koszul sign on the polynomial factor.  The
scalar operators are one pass over the terms with the sl2 triple of a
sector s (bosonic, fermionic or full): Delta_s sends x_i^e to
-e(e-1) x_i^(e-2) and a full pair q_{2j-1}q_{2j} to -4, E_s scales a term
by its sector degree, and x_s^2 sends x_i^e to -x_i^(e+2) and an empty
pair to +q_{2j-1}q_{2j}.  By those rules, sector by sector,

    G^-1 E_s G = E_s + x_s^2,   G^-1 Delta_s G = Delta_s + 2 E_s + M_s + x_s^2

with G = exp(x^2/2), M_bosonic = m, M_fermionic = -2n, M_full = M, so
through the envelope the pass only changes its integer weights.
"""

from __future__ import annotations

from fractions import Fraction

from ._terms import add_into
from .superalg import (GaussianFunction, SuperPolynomial,
                       neutral_bosonic_var, neutral_fermionic_var, sp_mul)


def bosonic_derivative(f, i):
    """d/dx_i on either lane (plain polynomial or Gaussian function)."""
    if isinstance(f, SuperPolynomial):
        return f.bosonic_derivative(i)
    var = neutral_bosonic_var(f.universe, i, Fraction(-1))
    return GaussianFunction(f.poly.bosonic_derivative(i)
                            + sp_mul(f.poly, var))


def fermionic_derivative(f, j):
    """Left fermionic derivative d/dq_j, through the envelope of a
    Gaussian function."""
    if isinstance(f, SuperPolynomial):
        return f.fermionic_derivative(j)
    if j % 2 == 0:
        var = neutral_fermionic_var(f.universe, j + 1, Fraction(1, 2))
    else:
        var = neutral_fermionic_var(f.universe, j - 1, Fraction(-1, 2))
    return GaussianFunction(f.poly.fermionic_derivative(j)
                            + sp_mul(f.poly.parity_signed(), var))


def multiply_bosonic_var(f, i):
    return _mul_left(neutral_bosonic_var(f.universe, i), f)


def multiply_fermionic_var(f, j):
    return _mul_left(neutral_fermionic_var(f.universe, j), f)


def _mul_left(g, f):
    if isinstance(f, SuperPolynomial):
        return sp_mul(g, f)
    return f.mul_poly(g)


def _sl2(f, sector, lower, scale, shift, rise):
    """lower*Delta_s + scale*E_s + shift + rise*x_s^2 in one pass; the
    integer weights keep it on either lane."""
    if sector not in ("bosonic", "fermionic", "full"):
        raise ValueError(f"unknown sector {sector!r}")
    u = f.universe
    bos_on, fer_on = sector != "fermionic", sector != "bosonic"
    if isinstance(f, GaussianFunction):
        m_s = bos_on * u.m - fer_on * 2 * u.pairs
        lower, scale, shift, rise = (lower, scale + 2 * lower,
                                     shift + lower * m_s, rise + scale + lower)
    bos_idx = range(u.m) if bos_on else ()
    pairs = [3 << (2 * j) for j in range(u.pairs)] if fer_on else ()
    out = {}
    for (bos, mask), c in f.terms.items():
        if d := shift + scale * (bos_on * sum(bos)
                                 + fer_on * mask.bit_count()):
            add_into(out, (bos, mask), c * d)
        for i in bos_idx:
            e = bos[i]
            if lower and e > 1:
                add_into(out, (bos[:i] + (e - 2,) + bos[i + 1:], mask),
                         c * (-lower * e * (e - 1)))
            if rise:
                add_into(out, (bos[:i] + (e + 2,) + bos[i + 1:], mask),
                         c * -rise)
        for pair in pairs:
            if lower and mask & pair == pair:
                add_into(out, (bos, mask ^ pair), c * (-4 * lower))
            elif rise and not mask & pair:
                add_into(out, (bos, mask | pair), c * rise)
    return f._like(out)


def euler(f):
    """E = sum x_i d/dx_i + sum q_j d/dq_j, each term scaled by its
    degree."""
    return _sl2(f, "full", 0, 1, 0, 0)


def laplace(f, sector="full"):
    """Laplace operator; sector one of bosonic, fermionic, full.

    Delta = 4 sum d/dq_{2j-1} d/dq_{2j} - sum d/dx_i^2, the fermionic
    composition applying d/dq_{2j} first.
    """
    return _sl2(f, sector, 1, 0, 0, 0)


def multiply_vector_square(f, sector="full"):
    """x_s^2 times f, with x^2 = sum q_{2j-1} q_{2j} - sum x_i^2."""
    return _sl2(f, sector, 0, 0, 0, 1)


def scalar_square(f):
    """(d_x + x)^2 = Delta + x^2 + 2E + M as a scalar operator."""
    return _sl2(f, "full", 1, 2, f.universe.superdim, 1)
