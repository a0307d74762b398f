"""Scalar differential operators: Euler, Laplace sectors, (d+x)^2.

Each operator accepts a plain SuperPolynomial or a GaussianFunction with
the exp(x^2/2) envelope; envelopes are handled by product rules, never by
series expansion.  The envelope rules of the derivatives:

    d/dx_i  exp(x^2/2) = -x_i           * exp(x^2/2)
    d/dq_{2j-1} exp(x^2/2) = +q_{2j}/2  * exp(x^2/2)
    d/dq_{2j}  exp(x^2/2) = -q_{2j-1}/2 * exp(x^2/2)

with the left-derivative Koszul sign on the polynomial factor.  A
first-order operator is one pass over the terms: the derivative or the
left product by a variable, each with the Koszul sign of the symbols
below it, plus through the envelope the rule's variable as a left
product, since (-1)^|p| p q' = q' p for an odd q'.

The scalar operators are one pass over the terms with the sl2 triple of
a sector s (bosonic, fermionic or full): Delta_s sends x_i^e to
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
from .superalg import GaussianFunction


def bosonic_derivative(f, i):
    """d/dx_i; through the envelope of a Gaussian function the pass also
    multiplies by -x_i."""
    return _bosonic_pass(f, i, 1,
                         -1 if isinstance(f, GaussianFunction) else 0)


def fermionic_derivative(f, j):
    """Left fermionic derivative d/dq_j; through the envelope of a
    Gaussian function the pass also multiplies from the left by +q_{j+1}/2
    (j even) or -q_{j-1}/2 (j odd), since (-1)^|p| p q' = q' p."""
    half = Fraction(-1 if j & 1 else 1, 2)
    return _fermionic_pass(f, j, 1, j ^ 1,
                           half if isinstance(f, GaussianFunction) else 0)


def multiply_bosonic_var(f, i):
    return _bosonic_pass(f, i, 0, 1)


def multiply_fermionic_var(f, j):
    return _fermionic_pass(f, j, 0, j, 1)


def _bosonic_pass(f, i, lower, rise):
    """lower*d/dx_i + rise*x_i in one pass; the integer weights keep it
    on either lane."""
    if not 0 <= i < f.universe.m:
        raise IndexError("bosonic index out of range")
    out = {}
    for (bos, mask), c in f.terms.items():
        e = bos[i]
        if lower and e:
            add_into(out, (bos[:i] + (e - 1,) + bos[i + 1:], mask),
                     c * (lower * e))
        if rise:
            add_into(out, (bos[:i] + (e + 1,) + bos[i + 1:], mask),
                     c * rise)
    return f._like(out)


def _fermionic_pass(f, j, lower, k, rise):
    """lower*d/dq_j + rise*q_k from the left in one pass, each with the
    Koszul sign of the symbols below; the int or Fraction(+-1, 2) weights
    keep it on either lane."""
    if not 0 <= j < len(f.universe.fermionic):
        raise IndexError("fermionic index out of range")
    bit, rbit = 1 << j, 1 << k
    out = {}
    for (bos, mask), c in f.terms.items():
        if lower and mask & bit:
            odd = (mask & (bit - 1)).bit_count() & 1
            add_into(out, (bos, mask ^ bit), c * (-lower if odd else lower))
        if rise and not mask & rbit:
            odd = (mask & (rbit - 1)).bit_count() & 1
            add_into(out, (bos, mask | rbit), c * (-rise if odd else rise))
    return f._like(out)


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
