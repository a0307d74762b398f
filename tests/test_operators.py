import pytest

from supertransform.fracfourier import relative_deviation
from supertransform.operators import (bosonic_derivative, euler,
                                      fermionic_derivative, laplace,
                                      multiply_bosonic_var,
                                      multiply_fermionic_var,
                                      multiply_vector_square, scalar_square)
from supertransform.scalars import ExactScalar, to_float
from supertransform.superalg import (GaussianFunction, SuperPolynomial,
                                     VariableUniverse, sp_mul,
                                     vector_square)
from tests.conftest import random_poly
from tests.oracles import (fermionic_envelope_poly, fermionic_square,
                           gaussian_expand_fermionic)


def test_euler_counts_degree():
    u = VariableUniverse.standard(1, 1)
    x1q1 = SuperPolynomial(u, {((1,), 0b01): ExactScalar.one()})
    assert euler(x1q1) == x1q1.scale(2)
    assert not euler(SuperPolynomial.one(u))
    u = VariableUniverse.standard(1, 1)
    f = SuperPolynomial(u, {((2,), 0b11): ExactScalar.one()})
    assert euler(f) == f.scale(4)


def test_euler_on_homogeneous(rng):
    u = VariableUniverse.standard(2, 2)
    for _ in range(20):
        f = random_poly(u, rng, degree=4, nterms=4)
        for (bos, mask), c in f.terms.items():
            mono = SuperPolynomial(u, {(bos, mask): c})
            k = sum(bos) + mask.bit_count()
            assert euler(mono) == mono.scale(k)


def _euler_derivative_sum(f):
    """E as its definition, sum x_i d/dx_i + sum q_j d/dq_j, with the
    derivatives acting through the envelope when there is one."""
    u = f.universe
    out = f.scale(0)
    for i in range(u.m):
        out = out + multiply_bosonic_var(bosonic_derivative(f, i), i)
    for j in range(len(u.fermionic)):
        out = out + multiply_fermionic_var(fermionic_derivative(f, j), j)
    return out


def test_euler_matches_derivative_sum(rng):
    for m, n in [(1, 0), (0, 1), (1, 1), (2, 1), (0, 2), (2, 2), (1, 3)]:
        u = VariableUniverse.standard(m, n)
        for _ in range(6):
            p = random_poly(u, rng, degree=4, nterms=5, rational=False)
            for f in (p, GaussianFunction(p)):
                assert euler(f) == _euler_derivative_sum(f), (m, n)


def test_fermionic_laplace_sign():
    u = VariableUniverse.standard(0, 1)
    q1q2 = SuperPolynomial(u, {((), 0b11): ExactScalar.one()})
    assert laplace(q1q2, "fermionic") == SuperPolynomial.scalar(u, -4)


def test_laplace_sectors_sum_and_commute(rng):
    u = VariableUniverse.standard(2, 2)
    for _ in range(15):
        f = random_poly(u, rng, degree=4, nterms=5)
        full = laplace(f, "full")
        assert full == laplace(f, "bosonic") + laplace(f, "fermionic")
        assert laplace(laplace(f, "bosonic"), "fermionic") == \
            laplace(laplace(f, "fermionic"), "bosonic")
    with pytest.raises(ValueError):
        laplace(f, "sideways")


def _laplace_sector_derivatives(f, sector):
    """Delta_s as its definition, -sum d/dx_i^2 and 4 sum
    d/dq_{2j-1} d/dq_{2j} restricted to the sector, with the derivatives
    acting through the envelope when there is one."""
    u = f.universe
    out = f.scale(0)
    if sector != "fermionic":
        for i in range(u.m):
            out = out - bosonic_derivative(bosonic_derivative(f, i), i)
    if sector != "bosonic":
        for p in range(u.pairs):
            out = out + fermionic_derivative(
                fermionic_derivative(f, 2 * p + 1), 2 * p).scale(4)
    return out


@pytest.mark.parametrize("sector", ["bosonic", "fermionic", "full"])
def test_sector_laplace_matches_derivatives(rng, sector):
    for m, n in [(1, 0), (0, 1), (0, 2), (1, 1), (2, 2), (1, 3), (3, 2)]:
        u = VariableUniverse.standard(m, n)
        for _ in range(5):
            p = random_poly(u, rng, degree=4, nterms=5, rational=False)
            for f in (GaussianFunction(p), p):
                assert laplace(f, sector) == \
                    _laplace_sector_derivatives(f, sector), (m, n)


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (0, 2)])
def test_operators_on_the_float_lane(rng, m, n):
    # the float lane gives the exact result up to rounding, d2 and x^2
    # included
    u = VariableUniverse.standard(m, n)
    for _ in range(4):
        p = random_poly(u, rng, degree=3, nterms=5, rational=False)
        for f in (p, GaussianFunction(p)):
            for op in (laplace, euler, scalar_square,
                       multiply_vector_square):
                got = op(f.map_coefficients(to_float))
                want = op(f).map_coefficients(to_float)
                if isinstance(f, GaussianFunction):
                    assert isinstance(got, GaussianFunction)
                    got, want = got.poly, want.poly
                assert relative_deviation(got, want) <= 1e-12, op


def test_multiply_vector_square_sectors(rng):
    u = VariableUniverse.standard(2, 2)
    bos = SuperPolynomial(u, {((2, 0), 0): ExactScalar.rational(-1),
                              ((0, 2), 0): ExactScalar.rational(-1)})
    fer = fermionic_square(u)
    assert bos + fer == vector_square(u)
    for _ in range(5):
        p = random_poly(u, rng, degree=3, nterms=4, rational=False)
        for sector, square in (("bosonic", bos), ("fermionic", fer),
                               ("full", bos + fer)):
            assert multiply_vector_square(p, sector) == sp_mul(square, p)
            assert multiply_vector_square(GaussianFunction(p), sector) \
                == GaussianFunction(sp_mul(square, p))


def test_laplace_of_envelope():
    # Delta exp(x^2/2) = (M + x^2) exp(x^2/2)
    for m, n in [(1, 0), (0, 1), (1, 1), (2, 2)]:
        u = VariableUniverse.standard(m, n)
        env = GaussianFunction(SuperPolynomial.one(u))
        got = laplace(env)
        want_poly = SuperPolynomial.scalar(u, u.superdim) + vector_square(u)
        assert got == GaussianFunction(want_poly)


def test_euler_of_envelope():
    u = VariableUniverse.standard(2, 1)
    env = GaussianFunction(SuperPolynomial.one(u))
    assert euler(env) == GaussianFunction(vector_square(u))


def test_scalar_square_on_constant_no_envelope():
    u = VariableUniverse.standard(2, 1)
    got = scalar_square(SuperPolynomial.one(u))
    assert got == vector_square(u) + SuperPolynomial.scalar(u, u.superdim)


def test_dirac_of_envelope_is_vector_times_envelope():
    from supertransform.cliffweyl import CValued, dirac_apply, vector_mul
    for m, n in [(1, 1), (2, 1)]:
        u = VariableUniverse.standard(m, n)
        env = GaussianFunction(SuperPolynomial.one(u))
        lifted = CValued.from_scalar(env)
        assert dirac_apply(lifted) == vector_mul(lifted)


def test_gaussian_product_rules_vs_explicit_expansion(rng):
    # acting through the envelope must agree with acting on
    # poly * expanded fermionic exponential with the bare -x_i rule
    for m, n in [(1, 1), (2, 2), (1, 3)]:
        u = VariableUniverse.standard(m, n)
        env_f = fermionic_envelope_poly(u)
        for _ in range(8):
            p = random_poly(u, rng, degree=3, nterms=4)
            g = sp_mul(p, env_f)
            for op, op_exp in [(euler, _euler_explicit),
                               (laplace, _laplace_explicit),
                               (scalar_square, _scalar_square_explicit)]:
                through = op(GaussianFunction(p)).poly
                assert sp_mul(through, env_f) == op_exp(g)


def _bos_explicit(p, i):
    u = p.universe
    return (bosonic_derivative(p, i)
            - sp_mul(SuperPolynomial.bosonic_var(u, i), p))


def _euler_explicit(p):
    u = p.universe
    out = SuperPolynomial.zero(u)
    for i in range(u.m):
        out = out + sp_mul(SuperPolynomial.bosonic_var(u, i),
                           _bos_explicit(p, i))
    for j in range(len(u.fermionic)):
        out = out + sp_mul(SuperPolynomial.fermionic_var(u, j),
                           fermionic_derivative(p, j))
    return out


def _laplace_explicit(p):
    u = p.universe
    out = SuperPolynomial.zero(u)
    for i in range(u.m):
        out = out - _bos_explicit(_bos_explicit(p, i), i)
    for pr in range(u.pairs):
        out = out + fermionic_derivative(
            fermionic_derivative(p, 2 * pr + 1), 2 * pr).scale(4)
    return out


def _scalar_square_explicit(p):
    u = p.universe
    return (_laplace_explicit(p) + sp_mul(vector_square(u), p)
            + _euler_explicit(p).scale(2) + p.scale(u.superdim))


def test_gaussian_expand_fermionic_guard():
    u = VariableUniverse.standard(1, 1)
    with pytest.raises(ValueError):
        gaussian_expand_fermionic(SuperPolynomial.one(u))
    got = gaussian_expand_fermionic(GaussianFunction(SuperPolynomial.one(u)))
    assert got == fermionic_envelope_poly(u)


def test_scalar_square_matches_dirac_route():
    # (scalar_square)^j on the envelope equals (d_x + x)^(2j) in the
    # Clifford-Weyl algebra at (m,n)=(1,1), j <= 2
    from supertransform.cliffweyl import CValued, dirac_apply, vector_mul
    u = VariableUniverse.standard(1, 1)
    env = GaussianFunction(SuperPolynomial.one(u))
    for j in (1, 2):
        spectral = env
        for _ in range(j):
            spectral = scalar_square(spectral)
        cw = CValued.from_scalar(env)
        for _ in range(2 * j):
            cw = dirac_apply(cw) + vector_mul(cw)
        assert cw.scalar_function() == spectral


@pytest.mark.parametrize("op, kind", [
    (bosonic_derivative, "bosonic"), (multiply_bosonic_var, "bosonic"),
    (fermionic_derivative, "fermionic"),
    (multiply_fermionic_var, "fermionic")])
def test_first_order_operators_refuse_an_index_out_of_range(op, kind):
    # at (1,1) the bosonic indices are 0 and the fermionic ones 0 and 1
    u = VariableUniverse.standard(1, 1)
    p = SuperPolynomial(u, {((0,), 0): ExactScalar.one(),
                            ((1,), 0b01): ExactScalar.rational(3)})
    for f in (p, GaussianFunction(p)):
        for index in {"bosonic": (-1, 1, 3), "fermionic": (-1, 2, 5)}[kind]:
            with pytest.raises(IndexError,
                               match=f"^{kind} index out of range$"):
                op(f, index)
