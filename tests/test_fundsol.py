import time
from fractions import Fraction

import pytest

from supertransform import fundsol
from supertransform._terms import add_into
from supertransform.fundsol import (RadialFunction, SuperRadial,
                                    fundsol_prefactor, nu_poly_laplace,
                                    radial_laplace,
                                    super_fundamental_solution,
                                    verify_harmonic_away_from_origin)
from supertransform.scalars import ExactScalar
from supertransform.superalg import (SuperPolynomial, VariableUniverse,
                                     sp_mul, vector_square)
from tests.oracles import solve_radial_poisson


def test_radial_laplace_harmonic_base_cases():
    for m in (3, 4, 5):
        f = RadialFunction.monomial(2 - m, 0, 1)
        assert not radial_laplace(f, m)
    # m=2: log r harmonic
    assert not radial_laplace(RadialFunction.monomial(0, 1, 1), 2)
    # m=3: Delta r = 2/r
    got = radial_laplace(RadialFunction.monomial(1, 0, 1), 3)
    assert got == RadialFunction.monomial(-1, 0, 2)
    with pytest.raises(ValueError):
        radial_laplace(RadialFunction.monomial(0, 0, 1), 0)


def test_radial_laplace_log_expansion():
    # Delta(r^2 log^2 r) at m=2: hand differentiation gives
    # 4 log^2 + 8 log + 2 over r^0
    got = radial_laplace(RadialFunction.monomial(2, 2, 1), 2)
    want = (RadialFunction.monomial(0, 2, 4)
            + RadialFunction.monomial(0, 1, 8)
            + RadialFunction.monomial(0, 0, 2))
    assert got == want


def test_nu_base_cases():
    # m=3: -1/(4 pi r)
    got = nu_poly_laplace(1, 3)
    want = RadialFunction(
        {(-1, 0): ExactScalar.rational(-1, 4)
         * ExactScalar.pi_half_power(-2)})
    assert got == want
    # m=2: log(r)/(2 pi)
    got = nu_poly_laplace(1, 2)
    want = RadialFunction(
        {(0, 1): ExactScalar.rational(1, 2)
         * ExactScalar.pi_half_power(-2)})
    assert got == want
    # m=1: r/2 (Delta |x|/2 = delta in one dimension)
    assert nu_poly_laplace(1, 1) == RadialFunction.monomial(1, 0,
                                                            Fraction(1, 2))
    with pytest.raises(ValueError):
        nu_poly_laplace(0, 3)


def test_nu_recursion_m3():
    # nu_4 = -r/(8 pi): solve Delta(c r) = -1/(4 pi r) via c*2/r
    got = nu_poly_laplace(2, 3)
    want = RadialFunction(
        {(1, 0): ExactScalar.rational(-1, 8)
         * ExactScalar.pi_half_power(-2)})
    assert got == want


def test_solve_radial_poisson_resonance_log():
    # Delta g = r^(-2) at m=2 resonates twice: g picks up log^2
    rhs = RadialFunction.monomial(-2, 0, 1)
    g = solve_radial_poisson(rhs, 2)
    assert radial_laplace(g, 2) == rhs
    assert any(s == 2 for (_, s) in g.terms)


@pytest.mark.parametrize("m", range(1, 9))
def test_nu_chain_equals_the_residual_solver(m):
    # the closed step against l - 1 residual solves from the same base:
    # m = 1 and 2 start off resonance, odd m never meets one, and even
    # m >= 4 passes the a = 0 resonance that brings in the log
    oracle = nu_poly_laplace(1, m)
    for l in range(1, 13):
        if l > 1:
            oracle = solve_radial_poisson(oracle, m)
        assert nu_poly_laplace(l, m) == oracle, (m, l)
    if m % 2 == 0 and m >= 4:
        assert any(s for (_, s) in oracle.terms)


def test_fundsol_prefactors():
    # pi^n 2^(2k) k!/(n-k)!
    assert fundsol_prefactor(0, 1) == ExactScalar.pi_half_power(2)
    assert fundsol_prefactor(1, 1) == \
        ExactScalar.rational(4) * ExactScalar.pi_half_power(2)
    assert fundsol_prefactor(2, 3) == \
        ExactScalar.rational(32) * ExactScalar.pi_half_power(6)
    assert fundsol_prefactor(0, 1).render() == "pi"
    assert fundsol_prefactor(1, 1).render() == "4*pi"
    assert fundsol_prefactor(2, 2).render() == "32*pi^2"


def test_super_fundamental_solution_m3_n1():
    # pi(nu_2 xfer^2 + 4 nu_4) = -q1q2/(4r) - r/2
    sr = super_fundamental_solution(3, 1)
    quarter = ExactScalar.rational(-1, 4)
    assert sr.parts[1] == RadialFunction({(-1, 0): quarter})
    assert sr.parts[0] == RadialFunction({(1, 0): ExactScalar.rational(-1, 2)})
    with pytest.raises(ValueError):
        super_fundamental_solution(0, 1)


def test_super_fundamental_solution_refuses_m_over_the_budget_fast():
    # the chain took about 2 s at m = 10^5 and did not finish at 10^6
    start = time.perf_counter()
    with pytest.raises(ValueError, match="m = 1000000 bosonic variables "
                       "exceeds MAX_BOSONIC = 1000"):
        super_fundamental_solution(10 ** 6, 1)
    assert time.perf_counter() - start < 1.0


def test_super_fundamental_solution_n0():
    sr = super_fundamental_solution(3, 0)
    assert sr.parts == {0: nu_poly_laplace(1, 3)}


def test_super_fundamental_solution_equals_each_nu_scaled():
    # the carried nu chain against nu_{2k+2} built afresh for every k;
    # m = 1, 2 and the even m >= 4 hit the log resonances
    for m in range(1, 7):
        for n in range(6):
            want = SuperRadial(n, {n - k: nu_poly_laplace(k + 1, m).scale(
                fundsol_prefactor(k, n)) for k in range(n + 1)})
            assert super_fundamental_solution(m, n) == want, (m, n)


def test_super_fundamental_solution_solves_once_per_order(monkeypatch):
    calls = []
    step = fundsol._poisson_step

    def counted(rhs, m):
        calls.append(m)
        return step(rhs, m)

    monkeypatch.setattr(fundsol, "_poisson_step", counted)
    for m, n in [(3, 0), (2, 5), (4, 30)]:
        calls.clear()
        super_fundamental_solution(m, n)
        assert len(calls) == n, (m, n)


def test_verify_detects_wrong_constant():
    sr = super_fundamental_solution(3, 1)
    broken = SuperRadial(1, {0: sr.parts[0].scale(2), 1: sr.parts[1]})
    assert not verify_harmonic_away_from_origin(broken, 3)


def geometric_inverse_check(n):
    """Symbolic check of (y^2)^-1 = ybos^-2 sum (-1)^k (yfer^2/ybos^2)^k:
    multiply back by yfer^2 + ybos^2 and confirm the telescope to 1.

    Terms are tracked as {power of ybos^-2: Grassmann polynomial}.
    """
    u = VariableUniverse.standard(0, n)
    fsq = SuperPolynomial.zero(u)
    for p in range(n):
        fsq = fsq + SuperPolynomial(
            u, {((), (1 << 2 * p) | (1 << (2 * p + 1))): ExactScalar.one()})
    series = {}
    power = SuperPolynomial.one(u)
    for k in range(n + 1):
        series[k + 1] = power.scale(ExactScalar.rational((-1) ** k))
        power = sp_mul(power, fsq)
    product = {}
    for tpow, poly in series.items():
        add_into(product, tpow, sp_mul(fsq, poly))     # yfer^2 * term
        add_into(product, tpow - 1, poly)    # ybos^2 * ybos^(-2k) shifts
    return product == {0: SuperPolynomial.one(u)}


def test_geometric_inverse_series():
    for n in (1, 2, 3):
        assert geometric_inverse_check(n)


def test_render():
    sr = super_fundamental_solution(3, 1)
    text = sr.render()
    assert "r^-1" in text and "q1q2" in text


@pytest.mark.parametrize("n", range(4))
def test_render_prints_the_top_part_as_the_coefficient_of_q1_to_q2n(n):
    # (xfer^2)^n is a multiple of q1...q2n: the printed part beside it is
    # parts[n] times that multiple, read off vector_square(u)^n
    m = 3
    u = VariableUniverse.standard(m, n)
    power = SuperPolynomial.one(u)
    for _ in range(n):
        power = sp_mul(power, vector_square(u))
    top = power.terms[(0,) * m, (1 << 2 * n) - 1]
    sr = super_fundamental_solution(m, n)
    printed = sr.parts[n].scale(top)
    assert sr.printed_parts()[n] == printed
    fer = "".join(f"q{i + 1}" for i in range(2 * n))
    assert sr.render().endswith(f"[{printed.render()}]*{fer}" if n
                                else printed.render())
