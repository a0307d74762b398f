"""Property tests over random universes, orders and inputs (hypothesis)."""

import gc
import math
import sys
import threading
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supertransform import expr as exprmod
from supertransform.expr import LEXEMES, MAX_LEXEMES, ParseError, \
    _power_pairs, parse, render_poly_text

from supertransform.fourier import _gaussian_pairing, berezin, \
    bosonic_fourier, convolution_fermionic, fermionic_delta, \
    fermionic_fourier_gaussian, parseval_check, super_fourier
from supertransform.fracfourier import frac_fermionic_table, frac_fourier, \
    relative_deviation
from supertransform.harmonics import harmonic_basis
from supertransform.cliffweyl import CValued, dirac_apply, vector_mul
from supertransform.hermite import phi_element, psi_element, \
    psi_tilde_element
from supertransform.operators import (bosonic_derivative,
                                      fermionic_derivative, laplace,
                                      multiply_bosonic_var,
                                      multiply_fermionic_var, scalar_square)
from supertransform.radon import omega_universe, radon, reduce_mod_sphere
from supertransform.scalars import ExactScalar, QQi
from supertransform.superalg import (GaussianFunction, SuperPolynomial,
                                     VariableUniverse, from_integer_parts,
                                     integer_parts, is_float_lane, sp_mul)
from tests.oracles import berezin_by_derivatives, convolution_by_shift, \
    dirac_via_derivatives, kernel_route, leibniz_bosonic_derivative, \
    leibniz_fermionic_derivative, leibniz_multiply_bosonic_var, \
    leibniz_multiply_fermionic_var, mehler_series, parse_by_tokens, peel_bosonic_fourier, \
    phi_via_derivatives, reduce_mod_sphere_per_monomial, \
    vector_mul_via_products

_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)
_scalars = st.builds(
    lambda b, eps, re, im: ExactScalar({(b, eps): QQi(re, im)}),
    st.integers(-2, 2), st.integers(0, 1), _rationals, _rationals)
# float orders stay off 0, where the kernel's c and d grow like 1/a and
# the route loses precision; integral orders are exact
_orders = st.one_of(
    st.sampled_from([-1, 0, 1, Fraction(1), Fraction(-1)]),
    st.builds(lambda sign, a: sign * a, st.sampled_from([-1, 1]),
              st.floats(1e-2, 1)))


@st.composite
def _polys(draw, max_m=2, max_n=3, max_exponent=2):
    m, n = draw(st.integers(0, max_m)), draw(st.integers(0, max_n))
    u = VariableUniverse.standard(m, n)
    keys = st.tuples(st.tuples(*[st.integers(0, max_exponent)] * m),
                     st.integers(0, (1 << 2 * n) - 1))
    return SuperPolynomial(u, draw(st.dictionaries(keys, _scalars,
                                                   max_size=4)))


@settings(max_examples=50)
@given(_polys(), _orders)
def test_kernel_route_equals_pair_table(f, a):
    route, table = kernel_route(f, a), frac_fermionic_table(f, a)
    if a in (-1, 0, 1):
        assert route == table
    else:
        assert relative_deviation(route, table) <= 1e-12



# every shape with m <= 2 and n <= 3; M = m - 2n <= 0 on all but (1,0)
# and (2,0)
@pytest.mark.parametrize("m, n", [(m, n) for m in range(3)
                                  for n in range(4)])
@settings(max_examples=8)
@given(st.data())
def test_first_order_operators_equal_the_leibniz_route(m, n, data):
    u = VariableUniverse.standard(m, n)
    keys = st.tuples(st.tuples(*[st.integers(0, 3)] * m),
                     st.integers(0, (1 << 2 * n) - 1))
    p = SuperPolynomial(u, data.draw(st.dictionaries(keys, _scalars,
                                                     max_size=5)))
    if data.draw(st.booleans(), label="float lane"):
        p = p.map_coefficients(ExactScalar.to_complex)
    for f in (p, GaussianFunction(p)):
        for i in range(m):
            assert bosonic_derivative(f, i) \
                == leibniz_bosonic_derivative(f, i)
            assert multiply_bosonic_var(f, i) \
                == leibniz_multiply_bosonic_var(f, i)
        for j in range(2 * n):
            assert fermionic_derivative(f, j) \
                == leibniz_fermionic_derivative(f, j)
            assert multiply_fermionic_var(f, j) \
                == leibniz_multiply_fermionic_var(f, j)


@st.composite
def _harmonic_combinations(draw, ms=st.integers(0, 3), ns=st.integers(0, 2),
                           ks=st.integers(0, 3)):
    u = VariableUniverse.standard(draw(ms), draw(ns))
    basis = harmonic_basis(draw(ks), "full", u)
    h = SuperPolynomial.zero(u)
    for element in basis:
        h = h + element.scale(draw(st.integers(-3, 3)))
    return h


@settings(max_examples=60)
@given(_harmonic_combinations(), st.integers(0, 2))
def test_psi_recursion_equals_scalar_square_powers(h, j):
    want = GaussianFunction(h)
    for _ in range(j):
        want = scalar_square(want)
    assert psi_element(j, h) == want


@settings(max_examples=60)
@given(_polys(max_m=3, max_n=2))
def test_integer_parts_rebuild_the_polynomial(f):
    denom, parts = integer_parts(f)
    assert all(type(v) is int for p in parts.values()
               for v in p.terms.values())
    assert from_integer_parts(f.universe, denom, parts) == f


def _rodrigues(h, j, step):
    """step applied j times to h G: the oracle of the psi families."""
    out = GaussianFunction(h)
    for _ in range(j):
        out = step(out)
    return out


def _laplace_full(g):
    return laplace(g, "full")


# (2,1) has M = 0 and (2,2) has M = -2
_RING_UNIVERSES = [(1, 1), (2, 1), (2, 2), (3, 1), (1, 3)]


@pytest.mark.parametrize("m, n", _RING_UNIVERSES)
@settings(max_examples=15)
@given(st.data())
def test_psi_on_ring_coefficients_equals_the_rodrigues_route(m, n, data):
    # basis elements weighted by sums of two ring scalars: radicals,
    # complex parts and several denominators in one h
    u = VariableUniverse.standard(m, n)
    h = SuperPolynomial.zero(u)
    for element in harmonic_basis(data.draw(st.integers(0, 3)), "full", u):
        h = h + element.scale(data.draw(_scalars) + data.draw(_scalars))
    j = data.draw(st.integers(0, 2))
    assert psi_element(j, h) == _rodrigues(h, j, scalar_square)
    assert psi_tilde_element(j, h) == _rodrigues(h, j, _laplace_full)


def test_psi_on_a_float_lane_input_equals_the_rodrigues_route():
    u = VariableUniverse.standard(2, 2)
    h = SuperPolynomial.zero(u)
    # integer basis coefficients times dyadic weights: the floats of h
    # are exact, so its Laplacian is exactly zero, as the check needs
    for i, element in enumerate(harmonic_basis(2, "full", u)):
        weight = complex(1 - i / 4, i / 8 - 1)
        h = h + element.map_coefficients(lambda c: c.to_complex() * weight)
    for j in range(3):
        for family, step in ((psi_element, scalar_square),
                             (psi_tilde_element, _laplace_full)):
            got, want = family(j, h), _rodrigues(h, j, step)
            assert relative_deviation(got.poly, want.poly) <= 1e-12


def test_psi_on_a_rounded_float_harmonic_equals_the_rodrigues_route():
    u = VariableUniverse.standard(2, 2)
    h = SuperPolynomial.zero(u)
    # weights that are not dyadic: the Laplacian of h is zero only up to
    # rounding
    for i, element in enumerate(harmonic_basis(2, "full", u)):
        weight = complex(1 - i / 3, 0.25 * i - 1)
        h = h + element.map_coefficients(lambda c: c.to_complex() * weight)
    assert laplace(h, "full")
    for j in range(3):
        for family, step in ((psi_element, scalar_square),
                             (psi_tilde_element, _laplace_full)):
            got, want = family(j, h), _rodrigues(h, j, step)
            assert relative_deviation(got.poly, want.poly) <= 1e-12


@pytest.mark.parametrize("text", ["x1^2", "x1^2 + x2^2", "q1q2 - x1^2",
                                  "x1^2 - x2^2 + (1/1000000)*x2^2"])
@pytest.mark.parametrize("family", [psi_element, psi_tilde_element])
def test_psi_refuses_a_float_lane_non_harmonic(family, text):
    h = parse(text, VariableUniverse.standard(2, 1))
    with pytest.raises(ValueError, match="homogeneous harmonic"):
        family(1, h.map_coefficients(ExactScalar.to_complex))


# M = 0 at (2,1) and -2 at (2,2)
@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)])
@settings(max_examples=12)
@given(st.data())
def test_radon_is_additive_on_the_flat_result_map(m, n, data):
    u = VariableUniverse.standard(m, n)
    keys = st.tuples(st.tuples(*[st.integers(0, 3)] * m),
                     st.integers(0, (1 << 2 * n) - 1))
    f, g = (GaussianFunction(SuperPolynomial(u, data.draw(
        st.dictionaries(keys, _scalars, min_size=1, max_size=3))))
        for _ in range(2))
    rf = radon(f)
    assert radon(f + g) == rf + radon(g)
    assert not rf + radon(-f) and not radon(f - f)
    assert rf or not f


# -- the complex rationals against a Fraction-pair oracle ---------------

_big = st.integers(-10 ** 40, 10 ** 40)
_parts = st.one_of(
    _rationals,
    st.builds(Fraction, _big, st.integers(1, 10 ** 40)),
    st.builds(Fraction, _big, st.integers(-10 ** 40, -1)))


def _check_qqi(q, want):
    """q holds the canonical fields of the value want = (re, im)."""
    assert q.d > 0 and math.gcd(q.a, q.b, q.d) == 1
    if not q:
        assert (q.a, q.b, q.d) == (0, 0, 1)
    assert (q.re, q.im) == want
    same = QQi(*want)
    assert q == same and hash(q) == hash(same)
    if not want[1]:
        assert q == want[0] and hash(q) == hash(want[0])


def _pair_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


@settings(max_examples=200)
@given(st.tuples(_parts, _parts), st.tuples(_parts, _parts),
       st.one_of(_big, _parts))
def test_qqi_matches_the_fraction_pair_oracle(x, y, k):
    p, q = QQi(*x), QQi(*y)
    _check_qqi(p, x)
    _check_qqi(p + q, (x[0] + y[0], x[1] + y[1]))
    _check_qqi(p + p.conjugate(), (2 * x[0], Fraction(0)))
    _check_qqi(p + k, (x[0] + k, x[1]))
    _check_qqi(k + p, (x[0] + k, x[1]))
    _check_qqi(p - q, (x[0] - y[0], x[1] - y[1]))
    _check_qqi(p - p, (Fraction(0), Fraction(0)))
    _check_qqi(p - k, (x[0] - k, x[1]))
    _check_qqi(-p, (-x[0], -x[1]))
    _check_qqi(p * q, _pair_mul(x, y))
    _check_qqi(p * k, (x[0] * k, x[1] * k))
    _check_qqi(k * p, (x[0] * k, x[1] * k))
    _check_qqi(p.conjugate(), (x[0], -x[1]))
    if p:
        norm = x[0] * x[0] + x[1] * x[1]
        _check_qqi(p.inverse(), (x[0] / norm, -x[1] / norm))
        _check_qqi(p * p.inverse(), (Fraction(1), Fraction(0)))


# -- the transform passes against their oracles on the scalar ring -------

@st.composite
def _gaussian_inputs(draw, m, n):
    # bosonic degree up to 8 per variable
    u = VariableUniverse.standard(m, n)
    keys = st.tuples(st.tuples(*[st.integers(0, 8)] * m),
                     st.integers(0, (1 << 2 * n) - 1))
    return GaussianFunction(SuperPolynomial(
        u, draw(st.dictionaries(keys, _scalars, min_size=1, max_size=3))))


# M = m - 2n is -4 at (0,2), -2 at (2,2) and 0 at (4,2)
@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("m, n", [(0, 2), (1, 1), (2, 1), (2, 2), (3, 2),
                                  (4, 2)])
@settings(max_examples=10)
@given(st.data())
def test_hermite_pass_equals_peel_rule(m, n, sign, data):
    f = data.draw(_gaussian_inputs(m, n))
    peeled = peel_bosonic_fourier(f, sign)
    assert bosonic_fourier(f, sign) == peeled
    assert super_fourier(f, sign) == fermionic_fourier_gaussian(peeled, sign)


# M = m - 2n is 0 at (2,1) and (4,2), -2 at (0,1) and (2,2), -4 at (0,2)
_MEHLER_SHAPES = [(2, 1), (0, 1), (2, 2), (4, 2), (0, 2)]
_mehler_orders = st.one_of(
    st.sampled_from([1, -1, Fraction(1), Fraction(-1)]),
    st.builds(Fraction, st.integers(-11, 11), st.integers(2, 12)).filter(
        lambda a: a.denominator > 1 and abs(a) <= 1),
    st.builds(lambda sign, a: sign * a, st.sampled_from([-1, 1]),
              st.floats(1e-3, 0.999)))


@st.composite
def _mehler_inputs(draw):
    m, n = draw(st.sampled_from(_MEHLER_SHAPES))
    u = VariableUniverse.standard(m, n)
    keys = st.tuples(st.tuples(*[st.integers(0, 4)] * m),
                     st.integers(0, (1 << 2 * n) - 1))
    return GaussianFunction(SuperPolynomial(
        u, draw(st.dictionaries(keys, _scalars, max_size=4))))


@settings(max_examples=80)
@given(_mehler_inputs(), _mehler_orders)
def test_mehler_pass_equals_laplacian_series(f, a):
    got, want = frac_fourier(f, a), mehler_series(f, a)
    if a in (1, -1):
        assert got == want
        assert got == super_fourier(f, "+" if a > 0 else "-")
    else:
        assert relative_deviation(got.poly, want.poly) <= 1e-12


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (2, 2), (3, 2)])
@settings(max_examples=25)
@given(st.data())
def test_batched_sphere_reduction_equals_per_monomial(m, n, data):
    uo = omega_universe(m, n)
    keys = st.tuples(st.tuples(*[st.integers(0, 6)] * m),
                     st.integers(0, (1 << 2 * n) - 1))
    f = SuperPolynomial(uo, data.draw(st.dictionaries(keys, _scalars,
                                                      max_size=6)))
    got = reduce_mod_sphere(f)
    assert got == reduce_mod_sphere_per_monomial(f)
    assert all(bos[-1] < 2 for bos, _ in got.terms)
    # a reduction after other reductions on the same universe gives the
    # same result: no state carries over from one reduction to the next
    g = SuperPolynomial(uo, data.draw(st.dictionaries(keys, _scalars,
                                                      max_size=6)))
    assert reduce_mod_sphere(g) == reduce_mod_sphere_per_monomial(g)
    assert reduce_mod_sphere(f) == got


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_sphere_reduction_of_high_powers_equals_per_monomial(m):
    # last exponents up to 40, so powers of the sphere relation up to 20,
    # under masks that miss both pairs, meet one pair in one symbol or in
    # both, or meet both pairs; every mask meets the top two exponents
    uo = omega_universe(m, 2)
    masks = (0, 0b0001, 0b0011, 0b0110, 0b1100, 0b1111)
    keys = {(e, masks[e % len(masks)]) for e in range(41)}
    keys |= {(e, mask) for e in (39, 40) for mask in masks}
    f = SuperPolynomial(uo, {
        (tuple((e + i) % 3 for i in range(m - 1)) + (e,), mask):
            ExactScalar.rational(e + 1, mask + 1) for e, mask in keys})
    got = reduce_mod_sphere(f)
    assert got == reduce_mod_sphere_per_monomial(f)
    assert all(bos[-1] < 2 for bos, _ in got.terms)


# -- the parser against a tree oracle ------------------------------------
#
# A sum is a list of (sign, product) terms, and a product a list of
# (separator, factor) pairs.  A factor is ("rat", p, q), ("i",),
# ("pi", b) for pi^(b/2), ("sqrt2",), ("x", k, e), ("q", k), ("G",),
# ("paren", sum) or ("pow", sum, e).  The oracle multiplies the factors
# out as polynomials with sp_mul, the parser's old per-atom semantics.

class _Refused(Exception):
    pass


@st.composite
def _factors(draw, u, depth):
    kinds = ["rat", "i", "pi", "sqrt2"] + ["x"] * bool(u.m) \
        + ["q", "q"] * bool(u.fermionic) + ["paren", "pow"] * bool(depth)
    kind = draw(st.sampled_from(kinds))
    if kind == "rat":
        return kind, draw(st.integers(-5, 5)), draw(st.integers(1, 4))
    if kind == "pi":
        return kind, draw(st.integers(-3, 3))
    if kind == "x":
        return kind, draw(st.integers(1, u.m)), draw(st.integers(0, 3))
    if kind == "q":
        return kind, draw(st.integers(1, len(u.fermionic)))
    if kind == "paren":
        return kind, draw(_sums(u, depth - 1))
    if kind == "pow":
        return kind, draw(_sums(u, depth - 1)), draw(st.integers(0, 3))
    return (kind,)


@st.composite
def _sums(draw, u, depth, gaussian=False):
    terms = []
    for _ in range(draw(st.sampled_from([1, 1, 2, 3]))):
        factors = draw(st.lists(_factors(u, depth), min_size=1, max_size=4))
        if gaussian:
            factors.insert(draw(st.integers(0, len(factors))), ("G",))
        product = []
        for i, f in enumerate(factors):
            seps = ["*", " "]
            if i and f[0] == "q" and factors[i - 1][0] == "q":
                seps.append("")
            product.append((draw(st.sampled_from(seps)) if i else "", f))
        terms.append((draw(st.sampled_from([1, -1])), product))
    return terms


def _sum_text(terms):
    out = ""
    for i, (sign, product) in enumerate(terms):
        out += ("-" if sign < 0 else "") if not i \
            else (" - " if sign < 0 else " + ")
        out += "".join(sep + _factor_text(f) for sep, f in product)
    return out


def _factor_text(f):
    kind = f[0]
    if kind == "rat":
        return f"{f[1]}/{f[2]}" if f[1] >= 0 else f"({f[1]}/{f[2]})"
    if kind == "pi":
        return {1: "sqrtpi", 2: "pi"}.get(f[1], f"pi^({f[1]}/2)")
    if kind == "x":
        return f"x{f[1]}" if f[2] == 1 else f"x{f[1]}^{f[2]}"
    if kind == "q":
        return f"q{f[1]}"
    if kind == "paren":
        return f"({_sum_text(f[1])})"
    if kind == "pow":
        return f"({_sum_text(f[1])})^{f[2]}"
    return kind


def _oracle_sum(u, terms):
    total = SuperPolynomial.zero(u)
    for sign, product in terms:
        value = SuperPolynomial.one(u)
        for _, f in product:
            value = sp_mul(value, _oracle_factor(u, f))
        total = total + value if sign > 0 else total - value
    return total


def _oracle_factor(u, f):
    kind = f[0]
    if kind == "rat":
        return SuperPolynomial.scalar(u, ExactScalar.rational(f[1], f[2]))
    if kind in ("i", "sqrt2"):
        return SuperPolynomial.scalar(u, getattr(ExactScalar, kind)())
    if kind == "pi":
        return SuperPolynomial.scalar(u, ExactScalar.pi_half_power(f[1]))
    if kind == "x":
        out = SuperPolynomial.one(u)
        for _ in range(f[2]):
            out = sp_mul(out, SuperPolynomial.bosonic_var(u, f[1] - 1))
        return out
    if kind == "q":
        return SuperPolynomial.fermionic_var(u, f[1] - 1)
    if kind == "G":
        return SuperPolynomial.one(u)
    base = _oracle_sum(u, f[1])
    if kind == "paren":
        return base
    out = SuperPolynomial.one(u)
    for _ in range(f[2]):
        out = sp_mul(out, base)
    if f[2] >= 2 and not out and any(mask for _, mask in base.terms):
        raise _Refused("fermionic square")
    return out


@st.composite
def _expressions(draw):
    m, n = draw(st.sampled_from([(0, 1), (0, 2), (2, 2), (1, 1), (2, 1)]))
    u = VariableUniverse.standard(m, n)
    gaussian = draw(st.booleans())
    return u, draw(_sums(u, draw(st.integers(0, 2)), gaussian)), gaussian


@settings(max_examples=150)
@given(_expressions())
def test_parse_matches_the_tree_oracle(case):
    u, tree, gaussian = case
    text = _sum_text(tree)
    try:
        want = _oracle_sum(u, tree)
    except _Refused:
        with pytest.raises(ParseError, match="fermionic square"):
            parse(text, u)
        return
    if gaussian:
        want = GaussianFunction(want)
    assert parse(text, u) == want, text
    if want:    # a zero Gaussian function renders as plain "0"
        assert parse(render_poly_text(want), u) == want


_multi_scalars = st.builds(
    lambda terms: sum(terms, ExactScalar.zero()),
    st.lists(_scalars, min_size=2, max_size=4)).filter(
        lambda c: len(c.terms) > 1)


@settings(max_examples=30)
@given(_multi_scalars, st.integers(0, 24))
def test_scalar_power_charge_bounds_the_pairs_multiplied(c, k):
    pairs = [0]
    mul = ExactScalar.__mul__

    def counting(x, y):
        if isinstance(y, ExactScalar):
            pairs[0] += len(x.terms) * len(y.terms)
        return mul(x, y)

    ExactScalar.__mul__ = counting
    try:
        power = c ** k
    finally:
        ExactScalar.__mul__ = mul
    assert pairs[0] <= _power_pairs(c, k)
    want = ExactScalar.one()
    for _ in range(k):
        want = want * c
    assert power == want


# -- the lexeme reader against the token-by-token parser ----------------
#
# Texts in the benchmark's shape (ring coefficients written as the
# renderer prints them, with and without spaces, monomials and G) and
# texts glued from fragments, many of them malformed.  Both parsers must
# return equal values or raise the same exception type with the same
# message (a parse error's message carries its position), also under a
# budget of 3 term pairs, where the order of the charges decides whether
# a budget or a parse error comes first.  Each text is read twice, with
# the lexeme table cleared and then warm from that read.

_UNIVERSES = [(0, 1), (0, 2), (1, 1), (2, 1), (2, 2), (3, 1)]
# a zero denominator in about one coefficient text of fifty
_denominators = st.sampled_from([1, 2, 3, 4] * 25 + [0])


@st.composite
def _coefficient_texts(draw):
    space = draw(st.sampled_from(["", " "]))
    re = f"{draw(st.integers(-5, 5))}/{draw(_denominators)}"
    im = draw(st.integers(-3, 3))
    if im:
        op = "+" if im > 0 else "-"
        im_text = draw(st.sampled_from(
            [f"{abs(im)}/{draw(_denominators)}*i", f"{abs(im)}*i",
             f"{abs(im)} i", "i", f"{abs(im)}/{draw(_denominators)}i"]))
        q = f"({re}{space}{op}{space}{im_text})"
    else:
        q = f"({re})"
    factors = [q]
    if draw(st.booleans()):
        factors.append("sqrt2")
    b = draw(st.integers(-2, 2))
    if b:
        factors.append(draw(st.sampled_from(
            [f"pi^({b}/2)", f"pi^({b} / 2)", f"pi ^ ({b}/2)"])))
    return "*".join(factors)


@st.composite
def _benchmark_texts(draw, m, n):
    gaussian = draw(st.booleans())
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        parts = draw(st.lists(_coefficient_texts(), min_size=1, max_size=2))
        factors = [parts[0] if len(parts) == 1
                   else "(" + " + ".join(parts) + ")"]
        factors += [f"x{draw(st.integers(1, m))}^{draw(st.integers(1, 3))}"
                    for _ in range(draw(st.integers(0, 2)) if m else 0)]
        factors += [f"q{draw(st.integers(1, 2 * n))}"
                    for _ in range(draw(st.integers(0, 2)))]
        if gaussian or draw(st.integers(0, 9)) == 0:
            factors.append("G")
        terms.append(draw(st.sampled_from(["*", " * ", " "])).join(factors))
    return draw(st.sampled_from([" + ", " - ", "+"])).join(terms)


# Texts are glued from pairs (value, tail): a value can stand as a
# factor, and a tail is what may follow one, malformed or not.
_VALUES = [
    "(1/2 + 3/2*i)", "(-1/2-i)", "(0/3)", "(2/3)", "(1/0 + 2/3*i)",
    "(1/2 + 3/0*i)", "(1/2 - 0*i)", "(5 - 3/2 i)", "(1/2", "sqrt2",
    "sqrtpi", "pi", "i", "x1", "x2", "q1", "q2", "q3", "G", "2", "7/3",
    "0", "1/x1", "2/", "(x1+1)", "(q1+q2)", "(q1)", ")", "(", "$", "y",
    "x", "7" * 1001, "x" + "1" * 1001, "q" + "2" * 1001,
]
_TAILS = [
    "", "", "", "*", " ", " + ", " - ", "^2", "^-1", "^(1/2)", "^(-3/2)",
    "^(1/0)", "^ ( -1 / 2 )", "^(1/x1)", "^(1 2)", "^(1/2 3)",
    "^(-1/2 + i)", "^(1/0 + i)", "^-(1/2)", "^((1/2))", "^(-x1)", "^",
    "^-", "^x1", "/", "/3", "/(1/2)", ")", "(", "+", "$", "^0", "^1",
    "^(1/0+x1)", "^(2^3)",
]


@st.composite
def _cases(draw):
    m, n = draw(st.sampled_from(_UNIVERSES))
    u = VariableUniverse.standard(m, n)
    if draw(st.booleans()):
        return u, draw(_benchmark_texts(m, n))
    pairs = draw(st.lists(st.tuples(st.sampled_from(_VALUES),
                                    st.sampled_from(_TAILS)),
                          min_size=1, max_size=4))
    return u, "".join(value + tail for value, tail in pairs)


def _outcome(read, text, u):
    try:
        return read(text, u)
    except (ParseError, ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def _agree(text, u):
    """parse, cold and then warm, against the token parser."""
    want = _outcome(parse_by_tokens, text, u)
    LEXEMES.clear()
    assert _outcome(parse, text, u) == want, text
    assert _outcome(parse, text, u) == want, text


@settings(max_examples=400)
@given(_cases())
def test_lexeme_reader_matches_the_token_parser(case):
    u, text = case
    _agree(text, u)
    with patch.object(exprmod, "MAX_TERM_PAIRS", 3):
        _agree(text, u)


def test_lexeme_reader_matches_the_token_parser_on_every_pair():
    # every (value, tail) pair once, so that each refusal path is reached
    u = VariableUniverse.standard(2, 1)
    for value in _VALUES:
        for tail in _TAILS:
            text = value + tail + value
            _agree(text, u)
            with patch.object(exprmod, "MAX_TERM_PAIRS", 3):
                _agree(text, u)


def test_a_refused_lexeme_is_refused_again_on_a_warm_table():
    # a refusal is never stored: every read of the text refuses it alike,
    # and a lexeme refused by its own digits never enters the table
    u = VariableUniverse.standard(2, 1)
    LEXEMES.clear()
    for text, lexeme in [("x1*(1/2 + 3/0*i)", "(1/2 + 3/0*i)"),
                         ("x1*7/0", "7/0"), ("q1^2", "q1^2"),
                         ("G^2", "G^2"), ("x1^(1/2)", "x1^(1/2)"),
                         ("sqrt2^(1/2)", "sqrt2^(1/2)"), ("x1*x9", "x9"),
                         ("2/x1", "2"), ("x1^(1/0)", "x1")]:
        first = _outcome(parse, text, u)
        assert first[0] is ParseError, text
        assert _outcome(parse, text, u) == first, text
        assert first == _outcome(parse_by_tokens, text, u), text
        assert ("/0" not in lexeme) == (lexeme in LEXEMES.pair[0]), text


def test_symbol_indices_are_checked_against_each_universe():
    LEXEMES.clear()
    for text, pos in [("2*x3^2", 2), ("x1*q3", 3)]:
        wide = VariableUniverse.standard(3, 2)
        assert parse(text, wide) == parse_by_tokens(text, wide)
        narrow = VariableUniverse.standard(2, 1)
        name = text[pos:pos + 2]
        with pytest.raises(ParseError, match=rf"^unknown symbol {name} "
                           rf"\(at position {pos}\)$"):
            parse(text, narrow)


def test_a_stored_power_still_meets_a_lowered_exponent_budget():
    u = VariableUniverse.standard(1, 1)
    LEXEMES.clear()
    assert render_poly_text(parse("x1^5*pi^(9/2)", u)) == "pi^(9/2)*x1^5"
    assert "x1^5" in LEXEMES.pair[0] and "pi^(9/2)" in LEXEMES.pair[0]
    with patch.object(exprmod, "MAX_EXPONENT", 4):
        with pytest.raises(ValueError, match="^exponent 5 exceeds "
                           "MAX_EXPONENT = 4$"):
            parse("x1^5", u)
        with pytest.raises(ValueError, match="^exponent 9/2 exceeds "
                           "MAX_EXPONENT = 4$"):
            parse("pi^(9/2)", u)
    assert render_poly_text(parse("x1^5", u)) == "x1^5"


def test_lexeme_table_stays_within_its_bound():
    # more distinct lexemes than the table keeps: it starts afresh when
    # full, and every read stays right
    u = VariableUniverse.standard(1, 1)
    LEXEMES.clear()
    sizes = []
    for j in range(MAX_LEXEMES + 50):
        text = f"{j}*x1^{j % 5}*q1 + ({j}/7 - 2/3*i)"
        assert parse(text, u) == parse_by_tokens(text, u), text
        sizes.append(len(LEXEMES))
    assert max(sizes) <= MAX_LEXEMES
    assert any(after < before for before, after in zip(sizes, sizes[1:]))


def test_lexeme_table_entries_are_not_tracked_by_the_collector():
    # an entry is twelve ints and strings in one flat list, not an object
    # of its own, so filling the table brings no collection forward: 300
    # new lexemes would add 300 to the collector's count of new objects
    # as tuples; what moves it here is CPython's tuple free lists
    u = VariableUniverse.standard(2, 1)
    LEXEMES.clear()
    texts = [f"({j}/7 - {j + 1}/3*i)*sqrt2*pi^({j % 5 - 2}/2)*x1^{j % 9}*q1*G"
             for j in range(300)]
    parse(texts[0], u)
    gc.collect()
    gc.disable()
    try:
        before = gc.get_count()[0]
        for text in texts:
            parse(text, u)
        grown = gc.get_count()[0] - before
    finally:
        gc.enable()
    assert len(LEXEMES) > 300 and grown < 60
    gc.collect()
    stored, fields = LEXEMES.pair
    assert not any(gc.is_tracked(field) for field in fields)
    assert not any(gc.is_tracked(offset) for offset in stored.values())


def test_lexeme_table_reads_right_while_other_threads_fill_it():
    # four threads read texts with many new lexemes through a table of 16
    # entries, so another thread adds to it or replaces it between most
    # reads; every value must be the token parser's
    u = VariableUniverse.standard(2, 1)
    texts = [f"({j}/7 - {j % 5 + 1}/3*i)*x{j % 2 + 1}^{j % 7}*q{j % 2 + 1}"
             f"*pi^({j % 3 - 1}/2) + {j}*x2" for j in range(120)]
    want = [parse_by_tokens(t, u) for t in texts]
    wrong, done = [], []

    def read(start):
        for j in range(start, start + len(texts)):
            j %= len(texts)
            if parse(texts[j], u) != want[j]:
                wrong.append(texts[j])
        done.append(start)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with patch.object(exprmod, "MAX_LEXEMES", 16):
            LEXEMES.clear()
            threads = [threading.Thread(target=read, args=(30 * i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(done) == 4 and not wrong, wrong[:3]


@st.composite
def _cvalued(draw):
    """C-valued input with unit words beyond the identity, plain or
    enveloped, on the exact or the float lane."""
    m, n = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, 1), (0, 2),
                                 (2, 2), (3, 2)]))
    u = VariableUniverse.standard(m, n)
    words = st.tuples(st.integers(0, (1 << m) - 1),
                      st.tuples(*[st.integers(0, 2)] * (2 * n)))
    monomials = st.tuples(st.tuples(*[st.integers(0, 2)] * m),
                          st.integers(0, (1 << 2 * n) - 1))
    float_lane = draw(st.booleans())
    parts = {}
    for word in draw(st.lists(words, min_size=1, max_size=3, unique=True)):
        p = SuperPolynomial(u, draw(st.dictionaries(monomials, _scalars,
                                                    min_size=1, max_size=3)))
        parts[word] = p.map_coefficients(ExactScalar.to_complex) \
            if float_lane else p
    return CValued(u, parts, envelope=draw(st.booleans()))


@settings(max_examples=120)
@given(_cvalued(), st.integers(0, 2))
def test_odd_pass_equals_the_derivative_route(f, j):
    assert dirac_apply(f) == dirac_via_derivatives(f)
    assert vector_mul(f) == vector_mul_via_products(f)
    got, want = phi_element(j, f), phi_via_derivatives(j, f)
    if not any(map(is_float_lane, f.parts.values())):
        assert got == want
        return
    # one pass weighs x by 2 where the route adds two passes: the float
    # sums round in another order
    zero = SuperPolynomial.zero(f.universe)
    for word in set(got.parts) | set(want.parts):
        assert relative_deviation(got.parts.get(word, zero),
                                  want.parts.get(word, zero)) <= 1e-12


@st.composite
def _berezin_cases(draw):
    """(f, over): a polynomial at m <= 2, n <= 3 on either lane and a
    block of whole symbol pairs, or None for every pair."""
    f = draw(_polys(max_m=2, max_n=3))
    if draw(st.booleans()):
        f = f.map_coefficients(ExactScalar.to_complex)
    chosen = draw(st.lists(st.booleans(), min_size=f.universe.pairs,
                           max_size=f.universe.pairs))
    over = [j for p, on in enumerate(chosen) if on
            for j in (2 * p, 2 * p + 1)]
    return f, draw(st.sampled_from([over, None]))


@settings(max_examples=100)
@given(_berezin_cases())
def test_berezin_mask_pass_equals_the_derivative_chain(case):
    f, over = case
    assert berezin(f, over) == berezin_by_derivatives(f, over)


@st.composite
def _fermionic_operands(draw):
    """(f, g) on one universe at m = 0, n <= 3; g holds the complements
    of some of f's masks, so that many pairs of terms fill every symbol,
    and f is now and then zero or the delta pi^n q1...q2n."""
    n = draw(st.integers(0, 3))
    u = VariableUniverse.standard(0, n)
    full = (1 << 2 * n) - 1
    masks = st.tuples(st.just(()), st.integers(0, full))
    f_terms, g_terms = (draw(st.dictionaries(masks, _scalars, max_size=6))
                        for _ in range(2))
    for _, mask in f_terms:
        if draw(st.booleans()):
            g_terms[(), full ^ mask] = draw(_scalars)
    f, g = SuperPolynomial(u, f_terms), SuperPolynomial(u, g_terms)
    special = draw(st.sampled_from([None, "zero", "delta"]))
    if special == "zero":
        f = SuperPolynomial.zero(u)
    elif special == "delta":
        f = fermionic_delta(u)
    return f, g


@settings(max_examples=80)
@given(_fermionic_operands())
def test_convolution_mask_pass_equals_the_shift_route(fg):
    f, g = fg
    got = convolution_fermionic(f, g)
    assert got == convolution_by_shift(f, g)
    assert convolution_fermionic(g, f) == convolution_by_shift(g, f)
    if f == fermionic_delta(f.universe):
        assert got == g


@settings(max_examples=80)
@given(_fermionic_operands())
def test_plain_pairing_equals_the_product_integral(fg):
    f, g = fg
    want = berezin_by_derivatives(sp_mul(f, g.conjugate())).constant_term()
    assert _gaussian_pairing(f, g, 0) == want
    assert parseval_check(f, g, "fermionic")
