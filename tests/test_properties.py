"""Property tests over random universes, orders and inputs (hypothesis)."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from supertransform.fourier import kernel_route
from supertransform.fracfourier import frac_fermionic_table, \
    relative_deviation
from supertransform.harmonics import harmonic_basis
from supertransform.hermite import psi_element
from supertransform.operators import (euler, laplace, multiply_vector_square,
                                      scalar_square)
from supertransform.scalars import ExactScalar, QQi
from supertransform.superalg import (GaussianFunction, SuperPolynomial,
                                     VariableUniverse)

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


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(_polys(), _orders)
def test_kernel_route_equals_pair_table(f, a):
    route, table = kernel_route(f, a), frac_fermionic_table(f, a)
    if a in (-1, 0, 1):
        assert route == table
    else:
        assert relative_deviation(route, table) <= 1e-12


@st.composite
def _harmonic_combinations(draw):
    m, n = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    u = VariableUniverse.standard(m, n)
    basis = harmonic_basis(draw(st.integers(0, 3)), "full", u)
    h = SuperPolynomial.zero(u)
    for element in basis:
        h = h + element.scale(draw(st.integers(-3, 3)))
    return h


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_harmonic_combinations(), st.integers(0, 2))
def test_psi_recursion_equals_scalar_square_powers(h, j):
    want = GaussianFunction(h)
    for _ in range(j):
        want = scalar_square(want)
    assert psi_element(j, h) == want


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_polys(max_m=3, max_n=2, max_exponent=3))
def test_sl2_commutators(p):
    # [Delta, x^2] = 4E + 2M, [E, Delta] = -2 Delta, [E, x^2] = 2 x^2
    square, superdim = multiply_vector_square, p.universe.superdim
    assert laplace(square(p)) - square(laplace(p)) == \
        euler(p).scale(4) + p.scale(2 * superdim)
    assert euler(laplace(p)) - laplace(euler(p)) == laplace(p).scale(-2)
    assert euler(square(p)) - square(euler(p)) == square(p).scale(2)
