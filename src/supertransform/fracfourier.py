"""Fractional Fourier transform, the fermionic pair table of every order,
the fractional calculus rules and the quadrature oracle.

F^a is the sl2 exponential of (Delta, x^2, E); on the Gaussian class it
is Mehler's closed form F^a(P G) = (e^(i alpha E) exp(gamma Delta) P) G,
alpha = a pi/2 and gamma = (e^(2 i alpha) - 1)/4, computed by the one
pass of `fourier` (exact at a = +/-1, the identity at 0, floats at any
other order).  The plain-class pair table `frac_fermionic_table` lives
beside it there.  The psi-family expansion, the fermionic kernel of
every order (fourier.kernel_route) and the quadrature check remain as
independent oracles.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .fourier import (_mehler_pass, kernel_route,
                      frac_fermionic_table)  # noqa: F401  (re-exported)
from .operators import bosonic_derivative, fermionic_derivative
from .scalars import Angle, ExactScalar, QQi, to_float
from .superalg import (GaussianFunction, SuperPolynomial,
                       fermionic_envelope_poly, sp_mul)


def to_float_poly(p):
    return p.map_coefficients(to_float)


def to_float_gaussian(f):
    return GaussianFunction(to_float_poly(f.poly), f.envelope)


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


# -- fractional calculus rules ------------------------------------------

def _rules(u, a):
    """The six derivative/variable exchange rules as (input operator,
    output operator) pairs; operators map Gaussian functions to Gaussian
    functions on the lane matching the angle."""
    a = Angle(a)
    if a.exact:
        k = int(a.a)
        cos = ExactScalar.rational({0: 1, 1: 0, -1: 0}[k])
        isin = ExactScalar({(0, 0): QQi(0, k)})       # i*sin(alpha)
    else:
        cos = complex(math.cos(a.alpha))
        isin = 1j * math.sin(a.alpha)

    def lane(p):
        return p if a.exact else to_float_poly(p)

    def var_b(i):
        return lambda g: g.mul_poly(lane(SuperPolynomial.bosonic_var(u, i)))

    def var_f(j):
        return lambda g: g.mul_poly(
            lane(SuperPolynomial.fermionic_var(u, j)))

    half = Fraction(1, 2)
    rules = []
    for i in range(u.m):
        rules.append((f"d_x{i + 1}",
                      lambda g, i=i: bosonic_derivative(g, i),
                      lambda g, i=i: bosonic_derivative(g, i).scale(cos)
                      - var_b(i)(g).scale(isin)))
        rules.append((f"x{i + 1}",
                      lambda g, i=i: var_b(i)(g),
                      lambda g, i=i: bosonic_derivative(g, i).scale(isin)
                      .scale(-1) + var_b(i)(g).scale(cos)))
    for p in range(u.pairs):
        odd, even = 2 * p, 2 * p + 1
        rules.append((f"d_q{even + 1}",
                      lambda g, j=even: fermionic_derivative(g, j),
                      lambda g, j=even, o=odd:
                      fermionic_derivative(g, j).scale(cos)
                      - var_f(o)(g).scale(isin).scale(half)))
        rules.append((f"d_q{odd + 1}",
                      lambda g, j=odd: fermionic_derivative(g, j),
                      lambda g, j=odd, e=even:
                      fermionic_derivative(g, j).scale(cos)
                      + var_f(e)(g).scale(isin).scale(half)))
        rules.append((f"q{even + 1}",
                      lambda g, j=even: var_f(j)(g),
                      lambda g, j=even, o=odd:
                      fermionic_derivative(g, o).scale(isin).scale(2)
                      + var_f(j)(g).scale(cos)))
        rules.append((f"q{odd + 1}",
                      lambda g, j=odd: var_f(j)(g),
                      lambda g, j=odd, e=even:
                      fermionic_derivative(g, e).scale(isin).scale(-2)
                      + var_f(j)(g).scale(cos)))
    return rules


def frac_calculus_check(a, samples, tol=1e-10):
    """Verify the six exchange rules on the given exact Gaussian-class
    samples; exact equality on the exact lane, max deviation otherwise.

    Returns (ok, worst_deviation).
    """
    a = Angle(a)
    worst = 0.0
    ok = True
    for g in samples:
        u = g.universe
        g_lane = g if a.exact else to_float_gaussian(g)
        fg = frac_fourier(g_lane, a)
        for _, op_in, op_out in _rules(u, a):
            lhs = frac_fourier(op_in(g_lane), a)
            rhs = op_out(fg)
            if a.exact:
                if lhs != rhs:
                    ok = False
            else:
                dev = max_coeff_deviation(lhs.poly, rhs.poly)
                worst = max(worst, dev)
                if dev > tol:
                    ok = False
    return ok, worst


def frac_dirac_consequence_check(a, samples, tol=1e-10):
    """The consequence rule F^a((d_x + x) g) = e^(i alpha) (d_x + x)
    F^a(g), checked through the Clifford-Weyl layer."""
    from .cliffweyl import CValued, dirac_apply, vector_mul
    a = Angle(a)
    worst = 0.0
    ok = True
    for g in samples:
        g_lane = g if a.exact else to_float_gaussian(g)
        lifted = CValued.from_scalar(g_lane)
        lhs = frac_fourier_cvalued(
            dirac_apply(lifted) + vector_mul(lifted), a)
        fg = CValued.from_scalar(frac_fourier(g_lane, a))
        rhs = (dirac_apply(fg) + vector_mul(fg))
        phase = a.phase(1)
        keys = set(lhs.parts) | set(rhs.parts)
        for key in keys:
            zero = SuperPolynomial.zero(g.universe)
            lp = lhs.parts.get(key, zero)
            rp = rhs.parts.get(key, zero).scale(phase)
            if a.exact:
                if lp != rp:
                    ok = False
            else:
                dev = max_coeff_deviation(lp, rp)
                worst = max(worst, dev)
                if dev > tol:
                    ok = False
    return ok, worst


# -- general numeric kernel check ---------------------------------------

def _eval_components(poly, xval):
    """Complex value per fermionic mask at bosonic point xval (m=1)."""
    out = {}
    for ((p,), mask), c in poly.terms.items():
        out[mask] = out.get(mask, 0j) + to_float(c) * xval ** p
    return out


def general_kernel_check(a, samples, ygrid=None):
    """Quadrature oracle at (m,n)=(1,1): the bosonic fractional kernel is
    integrated numerically, the fermionic factor applied through the kernel
    route, and the result compared with the closed-form transform.

    Returns the maximum absolute deviation over samples and grid points.
    Needs scipy, a test dependency (the `test` extra), imported here only.
    """
    from scipy.integrate import quad
    a = Angle(a)
    if ygrid is None:
        ygrid = [-1.5, -0.6, 0.0, 0.8, 1.7]
    degenerate = a.exact and int(a.a) == 0   # kernel singular, identity
    e1 = cmath.exp(1j * a.alpha)
    e2 = e1 * e1
    denom = 2.0 - 2.0 * e2
    worst = 0.0
    for f in samples:
        u = f.universe
        if (u.m, u.pairs) != (1, 1):
            raise ValueError("numeric check is wired for (m,n)=(1,1)")
        closed = frac_fourier(f, a)
        closed_expanded = sp_mul(to_float_poly(closed.poly),
                                 to_float_poly(fermionic_envelope_poly(u)))
        src_expanded = sp_mul(to_float_poly(f.poly),
                              to_float_poly(fermionic_envelope_poly(u)))
        # fermionic transform of each mask component
        fer_images = {}
        for mask in (0b00, 0b01, 0b10, 0b11):
            img = kernel_route(
                SuperPolynomial(u, {((0,), mask): ExactScalar.one()}), a)
            fer_images[mask] = {mk: to_float(c)
                                for (_, mk), c in img.terms.items()}
        pref = 1.0 if degenerate \
            else 1.0 / cmath.sqrt(math.pi * (1.0 - e2))
        for y in ygrid:
            # numeric bosonic transform of each component at this y
            numeric = {}
            env_y = math.exp(-y * y / 2.0)
            for mask in (0b00, 0b01, 0b10, 0b11):
                if degenerate:
                    val = _eval_components(src_expanded, y).get(mask, 0j) \
                        * env_y
                else:
                    def integrand(x, mask=mask, y=y):
                        gx = _eval_components(src_expanded, x).get(mask, 0j)
                        if not gx:
                            return 0j
                        expo = (4.0 * e1 * x * y
                                - (1.0 + e2) * (x * x + y * y)) / denom
                        return gx * cmath.exp(expo) * math.exp(-x * x / 2.0)

                    re = quad(lambda x: integrand(x).real,
                              -12, 12, limit=200)[0]
                    im = quad(lambda x: integrand(x).imag,
                              -12, 12, limit=200)[0]
                    val = pref * complex(re, im)
                for omask, w in fer_images[mask].items():
                    numeric[omask] = numeric.get(omask, 0j) + val * w
            closed_vals = _eval_components(closed_expanded, y)
            for mask in (0b00, 0b01, 0b10, 0b11):
                s = closed_vals.get(mask, 0j) * env_y
                worst = max(worst, abs(s - numeric.get(mask, 0j)))
    return worst
