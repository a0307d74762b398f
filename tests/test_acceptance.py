"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything exact-arithmetic unless a tolerance is stated; tolerances on
the float lane are relative coefficient deviations (precision levels),
since sample coefficient scales are unbounded.
"""

import random
from fractions import Fraction

from supertransform.cliffweyl import CValued, dirac_apply, vector_mul
from supertransform.fourier import (convolution_fermionic, delta_fourier,
                                    fermionic_fourier, parseval_check,
                                    super_fourier)
from supertransform.fracfourier import (frac_fermionic_table, frac_fourier,
                                        max_coeff_deviation,
                                        relative_deviation)
from supertransform.fundsol import (RadialFunction, fundsol_prefactor,
                                    nu_poly_laplace,
                                    super_fundamental_solution,
                                    verify_harmonic_away_from_origin)
from supertransform.harmonics import decomposition_check, harmonic_basis
from supertransform.hermite import psi_span, psi_tilde_element
from supertransform.operators import (bosonic_derivative, euler,
                                      fermionic_derivative)
from supertransform.radon import radon, radon_expected_eigenbasis
from supertransform.scalars import ExactScalar, to_float
from supertransform.superalg import (GaussianFunction, SuperPolynomial,
                                     VariableUniverse, pairing,
                                     sp_mul, sp_rename)
from tests.oracles import (fermionic_envelope_poly, fermionic_kernel,
                           fermionic_square_power, kernel_route,
                           operator_exponential_fourier,
                           sp_substitute_fermionic)
from tests.test_cliffweyl import power_rule_check
from tests.test_fracfourier import (frac_calculus_check,
                                    frac_dirac_consequence_check,
                                    general_kernel_check)
from tests.test_hermite import substhermite_check

FULL_CONFIGS = [(1, 1), (2, 1), (2, 2), (3, 2)]


def _factorial(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def _random_poly(u, rng, degree, nterms):
    terms = {}
    for _ in range(nterms):
        d = rng.randint(0, degree)
        bos = [0] * u.m
        mask = 0
        for _ in range(d):
            if u.m and (not u.fermionic or rng.random() < 0.5):
                bos[rng.randrange(u.m)] += 1
            elif u.fermionic:
                mask |= 1 << rng.randrange(len(u.fermionic))
        terms[(tuple(bos), mask)] = ExactScalar.rational(
            rng.randint(-5, 5), rng.randint(1, 4))
    return SuperPolynomial(u, terms)


def _span_sample(u, rng, cap):
    f = GaussianFunction(SuperPolynomial.zero(u), True)
    for (_, _, _, psi) in psi_span(u, cap):
        if rng.random() < 0.4:
            f = f + psi.scale(ExactScalar.rational(rng.randint(-3, 3),
                                                   rng.randint(1, 3)))
    if not f:
        f = f + psi_span(u, cap)[0][3]
    return f


def test_criterion_01_fermionic_power_formula():
    for n in range(1, 5):
        u = VariableUniverse.standard(0, n)
        for k in range(n + 1):
            f = fermionic_square_power(u, k)
            want = fermionic_square_power(u, n - k).scale(
                ExactScalar.rational(Fraction(
                    2 ** (2 * k) * _factorial(k),
                    2 ** n * _factorial(n - k))))
            for sign in ("+", "-"):
                assert fermionic_fourier(f, sign) == want, (n, k, sign)
    print("ACCEPTANCE 01 fermionic power formula: PASS")


def test_criterion_02_gaussian_invariance():
    for n in range(1, 5):
        u = VariableUniverse.standard(0, n)
        env = fermionic_envelope_poly(u)
        for sign in ("+", "-"):
            assert fermionic_fourier(env, sign) == env, (n, sign)
    for m, n in FULL_CONFIGS:
        u = VariableUniverse.standard(m, n)
        env = GaussianFunction(SuperPolynomial.one(u))
        for sign in ("+", "-"):
            assert super_fourier(env, sign) == env, (m, n, sign)
    print("ACCEPTANCE 02 Gaussian invariance: PASS")


def test_criterion_03_inversion():
    for n in (1, 2, 3):
        u = VariableUniverse.standard(0, n)
        for mask in range(1 << (2 * n)):
            f = SuperPolynomial(u, {((), mask): ExactScalar.one()})
            assert fermionic_fourier(fermionic_fourier(f, "-"), "+") == f
            assert fermionic_fourier(fermionic_fourier(f, "+"), "-") == f
    rng = random.Random(301)
    for m, n in FULL_CONFIGS:
        u = VariableUniverse.standard(m, n)
        for _ in range(25):
            f = GaussianFunction(_random_poly(u, rng, degree=4, nterms=4))
            assert super_fourier(super_fourier(f, "-"), "+") == f
            assert super_fourier(super_fourier(f, "+"), "-") == f
    print("ACCEPTANCE 03 inversion: PASS")


def test_criterion_04_parseval():
    rng = random.Random(401)
    for n in (1, 2, 3):
        u = VariableUniverse.standard(0, n)
        for _ in range(25):
            f = _random_poly(u, rng, degree=2 * n, nterms=5)
            g = _random_poly(u, rng, degree=2 * n, nterms=5)
            assert parseval_check(f, g, "fermionic")
    u = VariableUniverse.standard(1, 1)
    for _ in range(10):
        f = GaussianFunction(_random_poly(u, rng, degree=3, nterms=4))
        g = GaussianFunction(_random_poly(u, rng, degree=3, nterms=4))
        assert parseval_check(f, g, "full")
    print("ACCEPTANCE 04 Parseval: PASS")


def test_criterion_05_eigen_theorems():
    # fermionic: every basis harmonic, l <= 2n, n <= 3
    for n in (1, 2, 3):
        u = VariableUniverse.standard(0, n)
        env = fermionic_envelope_poly(u)
        for l in range(2 * n + 1):
            for h in harmonic_basis(l, "fermionic", u):
                f = sp_mul(h, env)
                for sign in ("+", "-"):
                    phase = ExactScalar.i_power(l)
                    if sign == "-":
                        phase = phase.conjugate()
                    assert fermionic_fourier(f, sign) == f.scale(phase)
    # power-times-harmonic theorem over its full index range, n <= 3
    for n in (1, 2, 3):
        u = VariableUniverse.standard(0, n)
        for l in range(n + 1):
            basis = harmonic_basis(l, "fermionic", u)
            for k in range(n - l + 1):
                power = fermionic_square_power(u, k)
                opower = fermionic_square_power(u, n - k - l)
                factor = ExactScalar.rational(Fraction(
                    2 ** (2 * k + l) * _factorial(k),
                    2 ** n * _factorial(n - k - l)))
                for h in basis:
                    f = sp_mul(power, h)
                    for sign in ("+", "-"):
                        phase = ExactScalar.i_power(l)
                        if sign == "-":
                            phase = phase.conjugate()
                        want = sp_mul(opower, h).scale(factor * phase)
                        assert fermionic_fourier(f, sign) == want
    # full: every harmonic basis element, l <= 4, at (2,1) and (3,2)
    for m, n in [(2, 1), (3, 2)]:
        u = VariableUniverse.standard(m, n)
        for l in range(5):
            for h in harmonic_basis(l, "full", u):
                f = GaussianFunction(h)
                for sign in ("+", "-"):
                    phase = ExactScalar.i_power(l)
                    if sign == "-":
                        phase = phase.conjugate()
                    assert super_fourier(f, sign) == f.scale(phase), \
                        (m, n, l, sign)
    print("ACCEPTANCE 05 eigen-theorems: PASS")


def test_criterion_06_operator_exponential():
    rng = random.Random(601)
    for m, n in [(1, 1), (2, 1)]:
        u = VariableUniverse.standard(m, n)
        for _ in range(5):
            f = _span_sample(u, rng, cap=6)
            for sign in ("+", "-"):
                assert operator_exponential_fourier(f, sign, cap=6) == \
                    super_fourier(f, sign)
    print("ACCEPTANCE 06 operator exponential: PASS")


def test_criterion_07_delta():
    for m, n in [(1, 0), (0, 1), (1, 1), (3, 1)]:
        u = VariableUniverse.standard(m, n)
        want = ExactScalar.two_pi_half_power(-(m - 2 * n))
        for sign in ("+", "-"):
            assert delta_fourier(u, sign) == want, (m, n, sign)
    print("ACCEPTANCE 07 delta transform: PASS")


def test_criterion_08_convolution_theorem():
    rng = random.Random(801)
    for n in (1, 2):
        u = VariableUniverse.standard(0, n)
        const = ExactScalar.two_pi_half_power(-2 * n)
        for _ in range(25):
            f = _random_poly(u, rng, degree=2 * n, nterms=4)
            g = _random_poly(u, rng, degree=2 * n, nterms=4)
            for sign in ("+", "-"):
                lhs = fermionic_fourier(convolution_fermionic(f, g), sign)
                rhs = sp_mul(fermionic_fourier(f, sign),
                             fermionic_fourier(g, sign)).scale(const)
                assert lhs == rhs
    print("ACCEPTANCE 08 fermionic convolution theorem: PASS")


def test_criterion_09_fractional_02_kernel():
    rng = random.Random(901)
    u = VariableUniverse.standard(0, 1)
    monomials = [SuperPolynomial(u, {((), mask): ExactScalar.one()})
                 for mask in range(4)]
    for a in (-1, 0, 1):
        for f in monomials:
            assert kernel_route(f, a) == frac_fermionic_table(f, a)
    for _ in range(10):
        a = rng.uniform(-0.95, 0.95)
        if abs(a) < 1e-2:
            a += 0.25
        for f in monomials:
            assert max_coeff_deviation(kernel_route(f, a),
                                       frac_fermionic_table(f, a)) <= 1e-12
    # a = +/-1 reduction to the exact transform
    for f in monomials:
        assert kernel_route(f, 1) == fermionic_fourier(f, "+")
        assert kernel_route(f, -1) == fermionic_fourier(f, "-")
    # semigroup and inverse on the psi span
    u11 = VariableUniverse.standard(1, 1)
    for _ in range(5):
        f = _span_sample(u11, rng, cap=4).map_coefficients(to_float)
        a = rng.uniform(-0.5, 0.5)
        b = rng.uniform(-0.5, 0.5)
        ab = frac_fourier(frac_fourier(f, b), a)
        ba = frac_fourier(frac_fourier(f, a), b)
        direct = frac_fourier(f, a + b)
        assert relative_deviation(ab.poly, direct.poly) <= 1e-12
        assert relative_deviation(ba.poly, direct.poly) <= 1e-12
        inv = frac_fourier(frac_fourier(f, a), -a)
        assert relative_deviation(inv.poly, f.poly) <= 1e-12
    print("ACCEPTANCE 09 fractional 0|2 kernel, semigroup, inverse: PASS")


def test_criterion_10_fractional_calculus_rules():
    rng = random.Random(1001)
    u = VariableUniverse.standard(1, 1)
    samples = [_span_sample(u, rng, cap=4) for _ in range(3)]
    for a in (-1, 0, 1):
        ok, _ = frac_calculus_check(a, samples)
        assert ok, f"exact rules fail at a={a}"
        ok, _ = frac_dirac_consequence_check(a, samples)
        assert ok, f"exact consequence fails at a={a}"
    for _ in range(5):
        a = rng.uniform(-0.9, 0.9)
        ok, dev = frac_calculus_check(a, samples, tol=1e-10)
        assert ok, (a, dev)
        ok, dev = frac_dirac_consequence_check(a, samples, tol=1e-10)
        assert ok, (a, dev)
    print("ACCEPTANCE 10 fractional calculus rules: PASS")


def test_criterion_11_general_fractional_kernel():
    rng = random.Random(1101)
    u = VariableUniverse.standard(1, 1)
    span = psi_span(u, 3)
    samples = [span[0][3], span[1][3], span[2][3], span[3][3], span[-1][3]]
    for _ in range(5):
        a = rng.uniform(-0.9, 0.9)
        if abs(a) < 5e-2:
            a += 0.3
        dev = general_kernel_check(a, samples)
        assert dev <= 1e-8, (a, dev)
    print("ACCEPTANCE 11 general fractional kernel vs quadrature: PASS")


def test_criterion_12_radon_closed_form():
    for m, n in [(1, 1), (2, 1), (3, 1)]:
        u = VariableUniverse.standard(m, n)
        for k in range(5):
            basis = harmonic_basis(k, "full", u)
            for j in range((4 - k) // 2 + 1):
                for h in basis:
                    got = radon(psi_tilde_element(j, h))
                    want = radon_expected_eigenbasis(j, k, h, u)
                    assert got == want, (m, n, j, k)
    # derivative rules on 10 random inputs
    rng = random.Random(1201)
    from supertransform.radon import omega_universe
    u = VariableUniverse.standard(2, 1)
    uo = omega_universe(2, 1)
    for _ in range(10):
        g = GaussianFunction(_random_poly(u, rng, degree=3, nterms=4))
        rg = radon(g).p_derivative()
        for i in range(u.m):
            lhs = radon(bosonic_derivative(g, i))
            assert lhs == rg.mul_omega(SuperPolynomial.bosonic_var(uo, i))
        lhs = radon(fermionic_derivative(g, 1))
        assert lhs == rg.mul_omega(SuperPolynomial.fermionic_var(
            uo, 0, ExactScalar.rational(1, 2)))
        lhs = radon(fermionic_derivative(g, 0))
        assert lhs == rg.mul_omega(SuperPolynomial.fermionic_var(
            uo, 1, ExactScalar.rational(-1, 2)))
    print("ACCEPTANCE 12 Radon closed form and derivative rules: PASS")


def test_criterion_13_fundamental_solution():
    for m in (1, 2, 3, 4):
        for n in (0, 1, 2, 3):
            sr = super_fundamental_solution(m, n)
            assert verify_harmonic_away_from_origin(sr, m), (m, n)
    base = nu_poly_laplace(1, 3)
    want = RadialFunction({(-1, 0): ExactScalar.rational(-1, 4)
                           * ExactScalar.pi_half_power(-2)})
    assert base == want
    expected_strings = {
        (0, 0): "1",
        (0, 1): "pi", (1, 1): "4*pi",
        (0, 2): "1/2*pi^2", (1, 2): "4*pi^2", (2, 2): "32*pi^2",
        (0, 3): "1/6*pi^3", (1, 3): "2*pi^3", (2, 3): "32*pi^3",
        (3, 3): "384*pi^3",
    }
    for (k, n), text in expected_strings.items():
        assert fundsol_prefactor(k, n).render() == text, (k, n)
    print("ACCEPTANCE 13 fundamental solution: PASS")


def test_criterion_14_harmonic_decomposition():
    failures = []
    for m in (1, 2, 3, 4):
        for n in (0, 1, 2, 3):
            u = VariableUniverse.standard(m, n)
            for k in range(6):
                rep = decomposition_check(k, u)
                if not rep["dims_match"] or not rep["products_harmonic"]:
                    failures.append((m, n, k, rep))
    for item in failures:
        print("DECOMPOSITION FAILURE (reported, not patched):", item)
    assert not failures
    print("ACCEPTANCE 14 harmonic decomposition (k<=5, m<=4, n<=3): PASS")


def test_criterion_15_structural_identities():
    rng = random.Random(1501)
    u = VariableUniverse.standard(2, 1)
    # the three Dirac/Laplace power rules, s <= 3, k <= 2
    reps = {
        0: [CValued.from_scalar(SuperPolynomial.one(u))],
        1: [CValued.from_scalar(SuperPolynomial.bosonic_var(u, 0)),
            CValued.from_scalar(SuperPolynomial.fermionic_var(u, 0))],
        2: [CValued.from_scalar(h)
            for h in harmonic_basis(2, "full", u).elements[:2]]
        + [CValued.from_scalar(SuperPolynomial(
            u, {((1, 1), 0): ExactScalar.one(),
                ((0, 0), 0b11): ExactScalar.rational(2)}))],
    }
    for k, rks in reps.items():
        for r_k in rks:
            for s in range(4):
                for variant in ("dirac_even", "dirac_odd", "laplace"):
                    assert power_rule_check(s, r_k, variant), (k, s, variant)
    # d_x x = M and x d_x + d_x x = 2E + M
    for m, n in [(1, 1), (2, 1), (3, 2)]:
        uu = VariableUniverse.standard(m, n)
        one = CValued.from_scalar(SuperPolynomial.one(uu))
        want = one.scale(uu.superdim) if uu.superdim else CValued(uu, {})
        assert dirac_apply(vector_mul(one)) == want
        for _ in range(5):
            f = CValued.from_scalar(_random_poly(uu, rng, 3, 4))
            lhs = vector_mul(dirac_apply(f)) + dirac_apply(vector_mul(f))
            rhs = f.map_parts(euler).scale(2) + f.scale(uu.superdim)
            assert lhs == rhs
    # kernel symmetry
    for n in (1, 2, 3):
        uu = VariableUniverse.standard(0, n)
        for a in (1, -1):
            dbl, kernel, _ = fermionic_kernel(uu, a)
            swap = {j: (j + 2 * n) % (4 * n) for j in range(4 * n)}
            assert sp_rename(kernel, dbl, {}, swap) == kernel
    # symplectic invariance of the pairing
    for n in (1, 2):
        n2 = 2 * n
        ux = VariableUniverse.standard(0, n)
        uy = VariableUniverse([], [f"s{j + 1}" for j in range(2 * n)])
        p = pairing(ux, uy)
        dbl = p.universe
        for _ in range(4):
            s_mat = _random_symplectic(n2, rng)
            images = []
            for block in (0, n2):
                for j in range(n2):
                    img = SuperPolynomial.zero(dbl)
                    for k2 in range(n2):
                        if s_mat[j][k2]:
                            img = img + SuperPolynomial.fermionic_var(
                                dbl, block + k2, s_mat[j][k2])
                    images.append(img)
            assert sp_substitute_fermionic(p, images) == p
    # homogeneity flip
    for n in range(1, 5):
        uu = VariableUniverse.standard(0, n)
        for mask in range(1 << (2 * n)):
            f = SuperPolynomial(uu, {((), mask): ExactScalar.one()})
            img = fermionic_fourier(f, "+")
            assert img
            degs = {mk.bit_count() for (_, mk) in img.terms}
            assert degs == {2 * n - mask.bit_count()}
    print("ACCEPTANCE 15 structural identities: PASS")


def _random_symplectic(n2, rng):
    w = [[0] * n2 for _ in range(n2)]
    for p in range(n2 // 2):
        w[2 * p][2 * p + 1] = 1
        w[2 * p + 1][2 * p] = -1
    s = [[Fraction(int(i == j)) for j in range(n2)] for i in range(n2)]
    for _ in range(3):
        u_vec = [Fraction(rng.randint(-2, 2)) for _ in range(n2)]
        t = Fraction(rng.randint(-1, 2), rng.randint(1, 3))
        wu = [sum(w[j][k] * u_vec[k] for k in range(n2)) for j in range(n2)]
        tv = [[Fraction(int(i == j)) + t * u_vec[i] * wu[j]
               for j in range(n2)] for i in range(n2)]
        s = [[sum(tv[i][k] * s[k][j] for k in range(n2))
              for j in range(n2)] for i in range(n2)]
    for a in range(n2):      # S^T W S == W, else the sample is invalid
        for b in range(n2):
            acc = sum(s[i][a] * w[i][j] * s[j][b]
                      for i in range(n2) for j in range(n2))
            assert acc == w[a][b]
    return s


def test_criterion_16_substhermite_identity():
    verdicts = {}
    for m, n in [(2, 1), (3, 2)]:
        for l in range(7):
            for j in range(n + 1):
                for k in range(n - j + 1):
                    if l - 2 * k - j < 0:
                        continue
                    verdicts[(m, n, k, l, j)] = \
                        substhermite_check(k, l, j, m, n)
    failing = [key for key, ok in verdicts.items() if not ok]
    for key in failing:
        print("COUPLING IDENTITY DISCREPANCY (recorded):", key)
    assert not failing, failing
    print(f"ACCEPTANCE 16 coupling identity verified at "
          f"{len(verdicts)} index tuples: PASS")
