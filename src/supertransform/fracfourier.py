"""Fractional Fourier transform and the deviation measures that compare
float-lane results.

F^a is the sl2 exponential of (Delta, x^2, E); on the Gaussian class it
is Mehler's closed form F^a(P G) = (e^(i alpha E) exp(gamma Delta) P) G,
alpha = a pi/2 and gamma = (e^(2 i alpha) - 1)/4, computed by the one
pass of `fourier` (exact at a = +/-1, the identity at 0, floats at any
other order).  The plain-class pair table `frac_fermionic_table` lives
beside it there.  The fractional calculus rules, the fermionic kernel of
every order and the quadrature check are independent oracles in the
tests.
"""

from __future__ import annotations

from .fourier import (_mehler_pass,
                      frac_fermionic_table)  # noqa: F401  (re-exported)
from .scalars import to_float


def max_coeff_deviation(p, q):
    return max((abs(to_float(p.terms.get(k, 0)) - to_float(q.terms.get(k, 0)))
                for k in set(p.terms) | set(q.terms)), default=0.0)


def relative_deviation(p, q):
    """Coefficient deviation normalized by the coefficient scale, so a
    tolerance reads as a precision level independent of input size."""
    scale = max((abs(to_float(v)) for poly in (p, q)
                 for v in poly.terms.values()), default=1.0)
    return max_coeff_deviation(p, q) / max(scale, 1.0)


def frac_fourier(f, a):
    """Fractional transform of a Gaussian-class f by Mehler's closed form
    F^a(P G) = (e^(i alpha E) exp(gamma Delta) P) G: the one pass of
    `fourier`, exact at a = +/-1 (the transform itself), the identity at
    a = 0 and on floats at any other order."""
    return _mehler_pass(f, a, "full")


def frac_fourier_cvalued(f, a):
    """Componentwise fractional transform of a Clifford-Weyl-valued
    Gaussian function."""
    if not f.envelope:
        raise ValueError("envelope missing")
    return f.map_parts(lambda g: frac_fourier(g, a))
