"""Fermionic, bosonic and full super Fourier transforms on the Gaussian
class, with Berezin integration, Parseval, fermionic convolution, the
delta constant and the operator-exponential (spectral) route.

The symplectic kernel exp(-/+ (i/2) sum (x`_{2j-1} y`_{2j} - x`_{2j}
y`_{2j-1})) is a product of one even factor per symbol pair, so the
fermionic transform acts on each term as one 4x4 table per pair, applied
to that pair's two-bit sub-mask.  The tables (plain, and on the Gaussian
class with the envelope multiplied in and stripped out) are built once
per sign by the defining kernel route at 0|2: the kernel expanded as its
finite nilpotent sum in a doubled universe, then Berezin-integrated.  That
route, `fermionic_kernel` and `berezin` stay as the oracles the tables are
tested against.  The Gaussian-class integral likewise weighs each pair's
sub-mask by a row of four Berezin weights.  The bosonic transform acts
algebraically on the Gaussian class through the peel rule
F(x_i g) = -/+ i d_{y_i} F(g) from the invariant Gaussian.  No analytic
integration happens anywhere on the exact lane, and the exact transforms
refuse float-lane input.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from ._terms import add_into
from .harmonics import express_in_basis
from .hermite import psi_span
from .operators import bosonic_derivative
from .scalars import ExactScalar, QQi
from .superalg import (GaussianFunction, SuperPolynomial, VariableUniverse,
                       fermionic_envelope_poly, scale_exact, sp_mul,
                       sp_rename, sp_substitute_fermionic)


def berezin(f, over=None):
    """Berezin integral pi^(-n') d_{q_last} ... d_{q_first} over a full
    block of symbol pairs; the integrated symbols leave the universe."""
    poly = f.poly if isinstance(f, GaussianFunction) else f
    u = poly.universe
    nf = len(u.fermionic)
    over = sorted(range(nf) if over is None else over)
    if len(over) % 2:
        raise ValueError("odd subset")
    for a in range(0, len(over), 2):
        if over[a] % 2 or over[a + 1] != over[a] + 1:
            raise ValueError("subset must be whole symbol pairs")
    g = poly
    for j in over:            # rightmost operator first: ascending indices
        g = g.fermionic_derivative(j)
    g = scale_exact(g, ExactScalar.pi_half_power(-len(over)))
    keep = [j for j in range(nf) if j not in set(over)]
    target = VariableUniverse(u.bosonic, tuple(u.fermionic[j] for j in keep))
    fer_map = {j: i for i, j in enumerate(keep)}
    return sp_rename(g, target, {i: i for i in range(u.m)}, fer_map)


def fermionic_kernel(u, sign):
    """Kernel exp(-/+ (i/2) <x`,y`>-type sum) expanded in the universe
    doubled by a y fermionic block at indices 2n..4n-1."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    n2 = len(u.fermionic)
    dbl = VariableUniverse(
        u.bosonic, u.fermionic + tuple(f"yf{j + 1}" for j in range(n2)))
    half_i = ExactScalar({(0, 0): QQi(0, Fraction(1, 2))})
    if sign == "+":
        half_i = -half_i
    kernel = SuperPolynomial.one(dbl)
    for p in range(u.pairs):
        x_odd = SuperPolynomial.fermionic_var(dbl, 2 * p)
        x_even = SuperPolynomial.fermionic_var(dbl, 2 * p + 1)
        y_odd = SuperPolynomial.fermionic_var(dbl, n2 + 2 * p)
        y_even = SuperPolynomial.fermionic_var(dbl, n2 + 2 * p + 1)
        a_p = (sp_mul(x_odd, y_even) - sp_mul(x_even, y_odd)).scale(half_i)
        factor = SuperPolynomial.one(dbl) + a_p \
            + sp_mul(a_p, a_p).scale(Fraction(1, 2))
        kernel = sp_mul(kernel, factor)
    return dbl, kernel


def _kernel_route(f, sign):
    """(2 pi)^n Berezin_x of K^sign(x,y) f(x): the defining kernel route
    in the doubled universe, kept as the oracle the pair tables are built
    from and tested against."""
    u = f.universe
    n2 = len(u.fermionic)
    dbl, kernel = fermionic_kernel(u, sign)
    f_emb = sp_rename(f, dbl, {i: i for i in range(u.m)},
                      {j: j for j in range(n2)})
    prod = sp_mul(kernel, f_emb)
    integrated = berezin(prod, over=range(n2))
    integrated = scale_exact(integrated,
                             ExactScalar.two_pi_half_power(n2))
    return sp_rename(integrated, u, {i: i for i in range(u.m)},
                     {j: j for j in range(n2)})


_PAIR = VariableUniverse((), ("q1", "q2"))
_PAIR_BASIS = tuple(SuperPolynomial(_PAIR, {((), sub): ExactScalar.one()})
                    for sub in range(4))
_UNIT = QQi(1)


def _pair_table(image):
    """Rows (sub-mask, complex rational) of a parity-preserving map on one
    pair, read off its images of the four basis monomials at 0|2."""
    rows = []
    for sub, mono in enumerate(_PAIR_BASIS):
        img = image(mono)
        if any((sub ^ out).bit_count() & 1 for (_, out) in img.terms):
            raise AssertionError("pair map does not keep parity")
        rows.append(tuple((out, c.qqi_value())
                          for (_, out), c in sorted(img.terms.items())))
    return tuple(rows)


@functools.cache
def _plain_table(sign):
    return _pair_table(lambda mono: _kernel_route(mono, sign))


@functools.cache
def _gaussian_table(sign):
    """Pair table of the transform on the Gaussian class: the envelope
    exp(q1q2/2) multiplied in before and stripped after."""
    env = fermionic_envelope_poly(_PAIR)
    strip = fermionic_envelope_poly(_PAIR, sign=-1)
    return _pair_table(
        lambda mono: sp_mul(_kernel_route(sp_mul(mono, env), sign), strip))


def _require_exact(poly):
    for c in poly.terms.values():
        if not isinstance(c, ExactScalar):
            raise ValueError("exact transform or integral requires "
                             "exact-lane input")


def _apply_pair_tables(poly, table):
    """Apply one pair table to every pair's two-bit sub-mask of each
    term; parity is kept per pair, so no reordering sign arises."""
    _require_exact(poly)
    out = {}
    for (bos, mask), c in poly.terms.items():
        images = [(0, _UNIT)]
        for shift in range(0, len(poly.universe.fermionic), 2):
            row = table[(mask >> shift) & 3]
            images = [(acc | (sub << shift), f * t)
                      for acc, f in images for sub, t in row]
        for acc, f in images:
            add_into(out, (bos, acc), c * f)
    return poly._like(out)


def fermionic_fourier(f, sign):
    """Fermionic transform of a plain polynomial, applied pair by pair:
    1 -> q1q2/2, q_j -> +/- i q_j, q1q2 -> 2 on each pair."""
    return _apply_pair_tables(f, _plain_table(sign))


def fermionic_fourier_gaussian(f, sign):
    """Envelope-aware fermionic transform, pair by pair: 1 -> 1,
    q_j -> +/- i q_j, q1q2 -> 2 - q1q2 on each pair."""
    if not f.envelope:
        raise ValueError("envelope missing")
    return GaussianFunction(
        _apply_pair_tables(f.poly, _gaussian_table(sign)), True)


def bosonic_fourier(f, sign):
    """Peel rule F(x_i g) = -/+ i d_{y_i} F(g) from F(exp) = exp; exact."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    if not f.envelope:
        raise ValueError("envelope missing")
    _require_exact(f.poly)
    u = f.universe
    c_sign = ExactScalar.i_power(3 if sign == "+" else 1)   # -/+ i
    out = GaussianFunction(SuperPolynomial.zero(u), True)
    for (bos, mask), coeff in f.poly.terms.items():
        g = GaussianFunction(
            SuperPolynomial(u, {((0,) * u.m, mask): coeff}), True)
        for i, e in enumerate(bos):
            for _ in range(e):
                g = bosonic_derivative(g, i).scale(c_sign)
        out = out + g
    return out


def super_fourier(f, sign):
    """Full transform as the (order-independent) composition of the
    bosonic and fermionic factors."""
    return fermionic_fourier_gaussian(bosonic_fourier(f, sign), sign)


def super_fourier_cvalued(f, sign):
    """Componentwise transform of a Clifford-Weyl-valued Gaussian
    function (the generators pass through the integral)."""
    from .cliffweyl import CValued
    return CValued(f.universe, {
        key: super_fourier(GaussianFunction(p, True), sign).poly
        for key, p in f.parts.items()}, True)


def gaussian_moment(p, width):
    """Integral of x^p exp(-width x^2) over the line, exact in the ring."""
    if p % 2:
        return ExactScalar.zero()
    from .scalars import gamma_half_integer
    val = gamma_half_integer(p + 1)
    if width == 1:
        return val
    if width == Fraction(1, 2):
        return val * ExactScalar.sqrt2_power(p + 1)
    raise ValueError("unsupported Gaussian width")


@functools.cache
def _berezin_row(width):
    """Berezin weights of the four pair sub-masks against the pair's
    envelope factor exp(width q1q2), read off `berezin` at 0|2."""
    env = fermionic_envelope_poly(_PAIR, width=width)
    return tuple(berezin(sp_mul(mono, env)).constant_term()
                 for mono in _PAIR_BASIS)


def gaussian_class_integral(poly, width):
    """Integral over the full superspace of poly * exp(width * x^2-type
    envelope): Berezin part pair by pair, bosonic moments in Q*sqrt(pi)."""
    _require_exact(poly)
    row = _berezin_row(width)
    nf = len(poly.universe.fermionic)
    total = ExactScalar.zero()
    for (bos, mask), c in poly.terms.items():
        piece = c
        for shift in range(0, nf, 2):
            piece = piece * row[(mask >> shift) & 3]
        for p in bos:
            piece = piece * gaussian_moment(p, width)
        total = total + piece
    return total


def super_integral(f):
    """Berezin-then-bosonic integral of a Gaussian-class function (or a
    purely fermionic polynomial, where no damping is needed)."""
    if isinstance(f, GaussianFunction):
        if not f.envelope:
            return super_integral(f.poly)
        return gaussian_class_integral(f.poly, Fraction(1, 2))
    if f.universe.m:
        raise ValueError("non-damped bosonic integrand")
    b = berezin(f)
    return b.terms.get(((), 0), ExactScalar.zero())


def super_integral_pair(f, g):
    """Integral of f * conj(g); the squared envelope gives width one."""
    if not (f.envelope and g.envelope):
        raise ValueError("envelope missing")
    prod = sp_mul(f.poly, g.poly.conjugate())
    return gaussian_class_integral(prod, Fraction(1))


def parseval_check(f, g, scope):
    """Exact Parseval equality for either sign; conjugation fixes the
    variables and conjugates scalars."""
    if scope == "fermionic":
        lhs = super_integral(sp_mul(f, g.conjugate()))
        for sign in ("+", "-"):
            ff = fermionic_fourier(f, sign)
            fg = fermionic_fourier(g, sign)
            if super_integral(sp_mul(ff, fg.conjugate())) != lhs:
                return False
        return True
    if scope == "full":
        lhs = super_integral_pair(f, g)
        for sign in ("+", "-"):
            if super_integral_pair(super_fourier(f, sign),
                                   super_fourier(g, sign)) != lhs:
                return False
        return True
    raise ValueError(f"unknown scope {scope!r}")


def grassmann_shift(f, dbl, block_out, block_in):
    """f(u - x): embed f on the output block and substitute u_j -> u_j - x_j.

    block_out/block_in are the fermionic index offsets of the u and x
    blocks inside the doubled universe."""
    n2 = len(f.universe.fermionic)
    f_emb = sp_rename(f, dbl, {i: i for i in range(f.universe.m)},
                      {j: block_out + j for j in range(n2)})
    images = []
    for j in range(len(dbl.fermionic)):
        var = SuperPolynomial.fermionic_var(dbl, j)
        if block_out <= j < block_out + n2:
            var = var - SuperPolynomial.fermionic_var(
                dbl, block_in + (j - block_out))
        images.append(var)
    return sp_substitute_fermionic(f_emb, images)


def convolution_fermionic(f, g):
    """f*g(u) = Berezin_x f(u-x) g(x) for purely fermionic f, g."""
    u = f.universe
    if u.m:
        raise ValueError("convolution implemented fermionically only")
    n2 = len(u.fermionic)
    dbl = VariableUniverse(
        (), u.fermionic + tuple(f"xc{j + 1}" for j in range(n2)))
    f_shift = grassmann_shift(f, dbl, block_out=0, block_in=n2)
    g_emb = sp_rename(g, dbl, {}, {j: n2 + j for j in range(n2)})
    prod = sp_mul(f_shift, g_emb)
    integrated = berezin(prod, over=range(n2, 2 * n2))
    return sp_rename(integrated, u, {}, {j: j for j in range(n2)})


def fermionic_delta(u):
    """delta factor pi^n q_1 ... q_{2n}."""
    n2 = len(u.fermionic)
    return SuperPolynomial(
        u, {((0,) * u.m, (1 << n2) - 1): ExactScalar.pi_half_power(n2)})


def delta_fourier(universe, sign):
    """F(delta) = (2 pi)^(-M/2): fermionic factor transformed exactly,
    bosonic delta contributing the classical constant symbolically."""
    u = universe
    uf = VariableUniverse((), u.fermionic)
    ferm = fermionic_fourier(fermionic_delta(uf), sign)
    const = ferm.terms.get(((), 0), ExactScalar.zero())
    if len(ferm.terms) > (1 if const else 0):
        raise AssertionError("fermionic delta transform is not constant")
    return const * ExactScalar.two_pi_half_power(-u.m)


def operator_exponential_fourier(f, sign, cap=8):
    """Spectral route: expand in the psi family (2j+k <= cap), rotate each
    component by (+/- i)^(2j+k), reassemble."""
    if not f.envelope:
        raise ValueError("envelope missing")
    u = f.universe
    span = psi_span(u, cap)
    coeffs = express_in_basis(f.poly, [s.poly for (_, _, _, s) in span])
    if coeffs is None:
        raise ValueError("degree cap exceeded")
    out = GaussianFunction(SuperPolynomial.zero(u), True)
    for (j, k, _, psi), c in zip(span, coeffs):
        if not c:
            continue
        phase = ExactScalar.i_power(2 * j + k)
        if sign == "-":
            phase = phase.conjugate()
        out = out + psi.scale(c * phase)
    return out
