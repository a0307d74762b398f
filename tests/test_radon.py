import math

import pytest
from scipy.integrate import quad

from supertransform.fourier import hermite_row
from supertransform.radon import (RadonResult, hermite_1d, omega_universe,
                                  one_dim_fourier, radon, reduce_mod_sphere)
from supertransform.scalars import ExactScalar, to_float
from supertransform.superalg import (GaussianFunction, SuperPolynomial,
                                     VariableUniverse, vector_square)


def test_hermite_1d_small():
    assert hermite_1d(0) == {0: 1}
    assert hermite_1d(1) == {1: 1}
    assert hermite_1d(2) == {2: 1, 0: -1}
    assert hermite_1d(3) == {3: 1, 1: -3}
    with pytest.raises(ValueError):
        hermite_1d(-1)



def _hermite_by_recursion(k):
    cur = {0: 1}
    for _ in range(k):                     # H_{k+1} = p H_k - H_k'
        nxt = {}
        for e, c in cur.items():
            nxt[e + 1] = nxt.get(e + 1, 0) + c
            if e:
                nxt[e - 1] = nxt.get(e - 1, 0) - e * c
        cur = {e: c for e, c in nxt.items() if c}
    return cur


def test_hermite_1d_against_recursion():
    for k in range(13):
        want = _hermite_by_recursion(k)
        assert hermite_1d(k) == want, k
        assert hermite_1d(k) == hermite_1d(k) == want, k
    assert hermite_1d(40) == _hermite_by_recursion(40)


def test_hermite_rows_are_cached_tuples():
    row = hermite_row(7)
    assert row is hermite_row(7)
    assert isinstance(row, tuple)
    assert all(isinstance(entry, tuple) for entry in row)
    view = hermite_1d(7)
    view[7] = 99                            # a fresh dict per call
    assert hermite_1d(7)[7] == 1 and dict(hermite_row(7))[7] == 1

def test_one_dim_fourier_against_quadrature():
    # oracle: numeric integral of e^{ipr} r^k e^{-r^2/2} at p in {0, 1}
    for k in (0, 1, 2, 3):
        sym = one_dim_fourier({k: ExactScalar.one()})
        for p in (0.0, 1.0):
            sym_val = sum(to_float(c) * p ** e for e, c in sym.items()) \
                * math.exp(-p * p / 2)
            re = quad(lambda r: math.cos(p * r) * r ** k
                      * math.exp(-r * r / 2), -14, 14, limit=200)[0]
            im = quad(lambda r: math.sin(p * r) * r ** k
                      * math.exp(-r * r / 2), -14, 14, limit=200)[0]
            assert abs(complex(re, im) - sym_val) < 1e-10, (k, p)


def test_one_dim_fourier_k0():
    got = one_dim_fourier({0: ExactScalar.one()})
    assert got == {0: ExactScalar.two_pi_half_power(1)}


def test_reduce_mod_sphere_examples():
    # omega^2 + 1 -> 0
    for m, n in [(1, 0), (2, 1), (3, 1)]:
        uo = omega_universe(m, n)
        f = vector_square(uo) + SuperPolynomial.one(uo)
        assert not reduce_mod_sphere(f)
    # m=1, n=0: w1^4 -> 1
    uo = omega_universe(1, 0)
    f = SuperPolynomial(uo, {((4,), 0): ExactScalar.one()})
    assert reduce_mod_sphere(f) == SuperPolynomial.one(uo)
    # m=2, n=1: w2^2 -> 1 + wf1 wf2 - w1^2
    uo = omega_universe(2, 1)
    f = SuperPolynomial(uo, {((0, 2), 0): ExactScalar.one()})
    want = (SuperPolynomial.one(uo)
            + SuperPolynomial(uo, {((0, 0), 0b11): ExactScalar.one()})
            - SuperPolynomial(uo, {((2, 0), 0): ExactScalar.one()}))
    assert reduce_mod_sphere(f) == want
    with pytest.raises(ValueError):
        reduce_mod_sphere(SuperPolynomial.one(omega_universe(0, 1)))


def test_sphere_reduction_of_a_high_power():
    # w1^1401 -> w1: q = 700 reads one image off its multinomial weight,
    # with no power of the relation built and no recursion
    uo = omega_universe(1, 0)
    f = SuperPolynomial(uo, {((1401,), 0): ExactScalar.one()})
    assert reduce_mod_sphere(f) == SuperPolynomial.bosonic_var(uo, 0)


def test_radon_rejects_pure_fermionic():
    u = VariableUniverse.standard(0, 1)
    with pytest.raises(ValueError, match="fermionic"):
        radon(GaussianFunction(SuperPolynomial.one(u)))


def test_radon_of_gaussian():
    for m, n in [(1, 0), (1, 1), (2, 1), (3, 1)]:
        u = VariableUniverse.standard(m, n)
        env = GaussianFunction(SuperPolynomial.one(u))
        got = radon(env)
        uo = omega_universe(m, n)
        want = RadonResult.from_omega_poly(
            SuperPolynomial.one(uo),
            {0: ExactScalar.two_pi_half_power(u.superdim - 1)})
        assert got == want


def test_radon_result_algebra():
    uo = omega_universe(1, 0)
    one = SuperPolynomial.one(uo)
    r1 = RadonResult.from_omega_poly(one, {0: ExactScalar.one()})
    r2 = RadonResult.from_omega_poly(one, {1: ExactScalar.one()})
    s = r1 + r2
    assert s.terms == {(((0,), 0), 0): ExactScalar.one(),
                       (((0,), 0), 1): ExactScalar.one()}
    assert (s - r2) == r1
    # d/dp of e^{-p^2/2} is -p e^{-p^2/2}
    assert r1.p_derivative() == r2.scale(ExactScalar.rational(-1))
    js = s.to_json()
    assert js["envelope"] == "exp(-p^2/2)"
    assert js["terms"][0]["p_poly"]


def test_radon_output_reduced():
    u = VariableUniverse.standard(2, 1)
    f = GaussianFunction(SuperPolynomial(
        u, {((0, 4), 0): ExactScalar.one()}))
    res = radon(f)
    last = res.universe.m - 1
    assert all(key[0][0][last] < 2 for key in res.terms)
