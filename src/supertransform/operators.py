"""Scalar differential operators: Euler, Laplace sectors, (d+x)^2.

Each operator accepts a plain SuperPolynomial or a GaussianFunction with
the exp(x^2/2) envelope; envelopes are handled by product rules, never by
series expansion.  The envelope rules in use:

    d/dx_i  exp(x^2/2) = -x_i           * exp(x^2/2)
    d/dq_{2j-1} exp(x^2/2) = +q_{2j}/2  * exp(x^2/2)
    d/dq_{2j}  exp(x^2/2) = -q_{2j-1}/2 * exp(x^2/2)

with the left-derivative Koszul sign on the polynomial factor.
"""

from __future__ import annotations

from fractions import Fraction

from .superalg import (GaussianFunction, SuperPolynomial,
                       neutral_bosonic_var, neutral_fermionic_var,
                       neutral_vector_square, sp_mul, vector_square)


def bosonic_derivative(f, i):
    """d/dx_i on either lane (plain polynomial or Gaussian function)."""
    if isinstance(f, SuperPolynomial):
        return f.bosonic_derivative(i)
    p = f.poly.bosonic_derivative(i)
    if f.envelope:
        var = neutral_bosonic_var(f.universe, i, Fraction(-1))
        p = p + sp_mul(f.poly, var)
    return GaussianFunction(p, f.envelope)


def fermionic_derivative(f, j):
    """Left fermionic derivative d/dq_j, through the envelope if present."""
    if isinstance(f, SuperPolynomial):
        return f.fermionic_derivative(j)
    p = f.poly.fermionic_derivative(j)
    if f.envelope:
        if j % 2 == 0:
            var = neutral_fermionic_var(f.universe, j + 1, Fraction(1, 2))
        else:
            var = neutral_fermionic_var(f.universe, j - 1, Fraction(-1, 2))
        p = p + sp_mul(f.poly.parity_signed(), var)
    return GaussianFunction(p, f.envelope)


def multiply_bosonic_var(f, i):
    return _mul_left(neutral_bosonic_var(f.universe, i), f)


def multiply_fermionic_var(f, j):
    return _mul_left(neutral_fermionic_var(f.universe, j), f)


def _mul_left(g, f):
    if isinstance(f, SuperPolynomial):
        return sp_mul(g, f)
    return GaussianFunction(sp_mul(g, f.poly), f.envelope)


def _zero_like(f):
    if isinstance(f, SuperPolynomial):
        return SuperPolynomial.zero(f.universe)
    return GaussianFunction(SuperPolynomial.zero(f.universe), f.envelope)


def euler(f):
    """E = sum x_i d/dx_i + sum q_j d/dq_j, diagonal on monomials: each
    term is scaled by its degree.  Through the envelope E exp(x^2/2) =
    x^2 exp(x^2/2) adds x^2 times the polynomial."""
    p = f if isinstance(f, SuperPolynomial) else f.poly
    out = p._like({(bos, mask): c * d for (bos, mask), c in p.terms.items()
                   if (d := sum(bos) + mask.bit_count())})
    if isinstance(f, SuperPolynomial):
        return out
    if f.envelope:
        out = out + sp_mul(neutral_vector_square(f.universe), p)
    return GaussianFunction(out, f.envelope)


def laplace(f, sector="full"):
    """Laplace operator; sector one of bosonic, fermionic, full.

    Delta = 4 sum d/dq_{2j-1} d/dq_{2j} - sum d/dx_i^2, the fermionic
    composition applying d/dq_{2j} first.
    """
    u = f.universe
    out = _zero_like(f)
    if sector in ("bosonic", "full"):
        for i in range(u.m):
            dd = bosonic_derivative(bosonic_derivative(f, i), i)
            out = out + dd.scale(-1)
    if sector in ("fermionic", "full"):
        for p in range(u.pairs):
            dd = fermionic_derivative(
                fermionic_derivative(f, 2 * p + 1), 2 * p)
            out = out + dd.scale(4)
    if sector not in ("bosonic", "fermionic", "full"):
        raise ValueError(f"unknown sector {sector!r}")
    return out


def multiply_vector_square(f):
    vs = vector_square(f.universe)
    return _mul_left(vs, f)


def scalar_square(f):
    """(d_x + x)^2 = Delta + x^2 + 2E + M as a scalar operator."""
    u = f.universe
    out = laplace(f, "full")
    out = out + multiply_vector_square(f)
    out = out + euler(f).scale(2)
    if u.superdim:
        out = out + f.scale(u.superdim)
    return out


def gaussian_expand_fermionic(f):
    """Rewrite poly*exp(x^2/2) as (poly * expanded fermionic factor)
    with only the bosonic envelope left implicit.

    Cross-check helper for the envelope product rules: operators applied
    through the envelope must agree with this explicit route.
    """
    from .superalg import fermionic_envelope_poly
    if not f.envelope:
        raise ValueError("envelope missing")
    return sp_mul(f.poly, fermionic_envelope_poly(f.universe))
