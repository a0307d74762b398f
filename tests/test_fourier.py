import time
from fractions import Fraction

import pytest

from supertransform.expr import parse
from supertransform.fourier import (berezin, convolution_fermionic,
                                    fermionic_fourier,
                                    fermionic_fourier_gaussian,
                                    bosonic_fourier, frac_fermionic_table,
                                    parseval_check, super_fourier,
                                    super_fourier_cvalued, super_integral,
                                    super_integral_pair)
from supertransform.cliffweyl import CValued
from supertransform.fracfourier import (frac_fourier, frac_fourier_cvalued,
                                        max_coeff_deviation)
from supertransform.hermite import psi_span
from supertransform.operators import fermionic_derivative, laplace
from supertransform.radon import radon
from supertransform.scalars import ExactScalar, to_float
from supertransform.superalg import (GaussianFunction, SuperPolynomial,
                                     VariableUniverse, pairing,
                                     sp_mul, sp_rename)
from tests.conftest import random_poly, random_scalar
from tests.oracles import (fermionic_envelope_poly, fermionic_kernel,
                           gaussian_expand_fermionic, grassmann_shift,
                           kernel_route, operator_exponential_fourier)


def _factorial(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def test_berezin_basics():
    u = VariableUniverse.standard(0, 1)
    top = SuperPolynomial(u, {((), 0b11): ExactScalar.one()})
    got = berezin(top)
    assert got.terms == {((), 0): ExactScalar.pi_half_power(-2)}
    assert not berezin(SuperPolynomial.one(u))
    with pytest.raises(ValueError, match="odd"):
        berezin(top, over=[0])
    with pytest.raises(ValueError, match="pairs"):
        berezin(SuperPolynomial.one(VariableUniverse.standard(0, 2)),
                over=[1, 2])


def test_berezin_refuses_a_gaussian_function():
    # the Berezin integral of exp(q1q2/2) is 1/2*pi^-1, not the integral of
    # its polynomial part; a Gaussian function goes to super_integral
    u = VariableUniverse.standard(0, 1)
    g = GaussianFunction(SuperPolynomial.one(u))
    with pytest.raises(ValueError, match="plain polynomial"):
        berezin(g)
    assert super_integral(g) == ExactScalar.rational(1, 2) \
        * ExactScalar.pi_half_power(-2)


def test_berezin_exponential_formula(rng):
    # Berezin of exp(x`^2/2) R equals sum_k (-1)^k (2pi)^-n / (2^k k!)
    # (Delta_f^k R)(0)
    for n in (1, 2, 3):
        u = VariableUniverse.standard(0, n)
        for _ in range(6):
            r = random_poly(u, rng, degree=2 * n, nterms=6)
            lhs = berezin(sp_mul(fermionic_envelope_poly(u), r))
            lhs_const = lhs.terms.get(((), 0), ExactScalar.zero())
            rhs = ExactScalar.zero()
            g = r
            for k in range(n + 1):
                c0 = g.terms.get(((), 0), ExactScalar.zero())
                w = ExactScalar.two_pi_half_power(-2 * n) \
                    * ExactScalar.rational(Fraction((-1) ** k, 2 ** k
                                                    * _factorial(k)))
                rhs = rhs + c0 * w
                g = laplace(g, "fermionic")
            assert lhs_const == rhs


def test_fermionic_transform_of_one_n1():
    u = VariableUniverse.standard(0, 1)
    got = fermionic_fourier(SuperPolynomial.one(u), "+")
    want = SuperPolynomial(u, {((), 0b11): ExactScalar.rational(1, 2)})
    assert got == want
    assert fermionic_fourier(SuperPolynomial.one(u), "-") == want


def test_kernel_symmetry():
    # K_a(x,y) = K_a(y,x) under block exchange, exactly at a = +/-1
    for n in (1, 2, 3):
        u = VariableUniverse.standard(0, n)
        for a in (1, -1, 0.43, -0.77):
            dbl, kernel, _ = fermionic_kernel(u, a)
            n2 = 2 * n
            swap = {j: (j + n2) % (2 * n2) for j in range(2 * n2)}
            swapped = sp_rename(kernel, dbl, {}, swap)
            if a in (1, -1):
                assert swapped == kernel
            else:
                assert max_coeff_deviation(swapped, kernel) <= 1e-15


def test_kernel_is_pairing_exponential():
    # K_{+/-1} = exp(-/+ i <x,y>_f), the nilpotent series of the
    # separately built symplectic pairing
    for n in (1, 2, 3):
        u = VariableUniverse.standard(0, n)
        for a in (1, -1):
            dbl, kernel, _ = fermionic_kernel(u, a)
            uy = VariableUniverse((), dbl.fermionic[2 * n:])
            exponent = pairing(u, uy).scale(ExactScalar.i_power(-a))
            assert exponent.universe == dbl
            term = want = SuperPolynomial.one(dbl)
            for k in range(1, 2 * n + 1):
                term = sp_mul(term, exponent).scale(Fraction(1, k))
                want = want + term
            assert kernel == want, (n, a)


def test_homogeneity_flip():
    for n in range(1, 5):
        u = VariableUniverse.standard(0, n)
        n2 = 2 * n
        for mask in range(1 << n2):
            f = SuperPolynomial(u, {((), mask): ExactScalar.one()})
            img = fermionic_fourier(f, "+")
            degs = {mk.bit_count() for (_, mk) in img.terms}
            assert degs in ({n2 - mask.bit_count()}, set())
            assert img, mask   # transform never kills a monomial


def test_bosonic_fourier_basics():
    u = VariableUniverse.standard(1, 0)
    env = GaussianFunction(SuperPolynomial.one(u))
    for sign in ("+", "-"):
        assert bosonic_fourier(env, sign) == env
    x1 = GaussianFunction(SuperPolynomial.bosonic_var(u, 0))
    assert bosonic_fourier(x1, "+") == x1.scale(ExactScalar.i())
    assert bosonic_fourier(x1, "-") == x1.scale(-ExactScalar.i())
    x1sq = GaussianFunction(SuperPolynomial(u, {((2,), 0): ExactScalar.one()}))
    want = GaussianFunction(SuperPolynomial.one(u)
                            - SuperPolynomial(u, {((2,), 0):
                                              ExactScalar.one()}))
    assert bosonic_fourier(x1sq, "+") == want
    assert bosonic_fourier(x1sq, "-") == want
    with pytest.raises(ValueError, match="envelope"):
        bosonic_fourier(SuperPolynomial.one(u), "+")


def test_closed_form_pair_rows_equal_kernel_route():
    # the closed forms' rows on the four 0|2 basis monomials against the
    # defining route at a = +/-1: plain, and on the Gaussian class with
    # the envelope multiplied in before and stripped after
    u = VariableUniverse.standard(0, 1)
    env = fermionic_envelope_poly(u)
    strip = fermionic_envelope_poly(u, sign=-1)
    for sub in range(4):
        mono = SuperPolynomial(u, {((), sub): ExactScalar.one()})
        for sign, a in (("+", 1), ("-", -1)):
            assert fermionic_fourier(mono, sign) == kernel_route(mono, a)
            want = GaussianFunction(
                sp_mul(kernel_route(sp_mul(mono, env), a), strip))
            assert fermionic_fourier_gaussian(GaussianFunction(mono),
                                              sign) == want, (sub, sign)
            assert super_fourier(GaussianFunction(mono), sign) == want


def test_super_fourier_composition_orders_agree(rng):
    for m, n in [(1, 1), (2, 1)]:
        u = VariableUniverse.standard(m, n)
        for _ in range(6):
            f = GaussianFunction(random_poly(u, rng, degree=3, nterms=4))
            for sign in ("+", "-"):
                a = fermionic_fourier_gaussian(bosonic_fourier(f, sign), sign)
                b = bosonic_fourier(fermionic_fourier_gaussian(f, sign), sign)
                assert a == b
                assert super_fourier(f, sign) == a


def test_super_integral_examples():
    # int e^{-x^2} over one bosonic variable: sqrt(pi)
    u = VariableUniverse.standard(1, 0)
    env = GaussianFunction(SuperPolynomial.one(u))
    assert super_integral_pair(env, env) == ExactScalar.pi_half_power(1)
    # Berezin of exp(x`^2) at n=1: 1/pi
    u = VariableUniverse.standard(0, 1)
    env = GaussianFunction(SuperPolynomial.one(u))
    assert super_integral_pair(env, env) == ExactScalar.pi_half_power(-2)
    # product of the two at (1,1): pi^(-1/2)
    u = VariableUniverse.standard(1, 1)
    env = GaussianFunction(SuperPolynomial.one(u))
    assert super_integral_pair(env, env) == ExactScalar.pi_half_power(-1)
    # width 1/2 lane at (1,1): bosonic sqrt(2 pi) times the Berezin value
    # of exp(xfer^2/2), whose top coefficient is 1/2: sqrt(2pi)/(2 pi)
    got = super_integral(env)
    assert got == ExactScalar.two_pi_half_power(1) \
        * ExactScalar.pi_half_power(-2) * ExactScalar.rational(1, 2)
    with pytest.raises(ValueError, match="non-damped"):
        super_integral(SuperPolynomial.one(VariableUniverse.standard(1, 0)))


def test_convolution_order_identity(rng):
    # int f(u-x) g(x) = int f(y) g(u-y)
    for n in (1, 2):
        u = VariableUniverse.standard(0, n)
        n2 = 2 * n
        for _ in range(10):
            f = random_poly(u, rng, degree=n2, nterms=4)
            g = random_poly(u, rng, degree=n2, nterms=4)
            lhs = convolution_fermionic(f, g)
            dbl = VariableUniverse(
                (), u.fermionic + tuple(f"xc{j+1}" for j in range(n2)))
            g_shift = grassmann_shift(g, dbl, block_out=0, block_in=n2)
            f_emb = sp_rename(f, dbl, {}, {j: n2 + j for j in range(n2)})
            prod = sp_mul(f_emb, g_shift)
            rhs = sp_rename(berezin(prod, over=range(n2, 2 * n2)),
                            u, {}, {j: j for j in range(n2)})
            assert lhs == rhs


def test_operator_exponential_matches_transform(rng):
    for m, n in [(1, 1), (2, 1)]:
        u = VariableUniverse.standard(m, n)
        span = psi_span(u, 4)
        for _ in range(4):
            f = GaussianFunction(SuperPolynomial.zero(u), True)
            for (_, _, _, psi) in span:
                if rng.random() < 0.3:
                    c = ExactScalar.rational(rng.randint(-3, 3),
                                             rng.randint(1, 3))
                    f = f + psi.scale(c)
            for sign in ("+", "-"):
                assert operator_exponential_fourier(f, sign, cap=4) == \
                    super_fourier(f, sign)


def test_operator_exponential_identity_on_gaussian():
    u = VariableUniverse.standard(1, 1)
    env = GaussianFunction(SuperPolynomial.one(u))
    assert operator_exponential_fourier(env, "+", cap=2) == env


def test_operator_exponential_cap_exceeded():
    u = VariableUniverse.standard(1, 1)
    f = GaussianFunction(SuperPolynomial(u, {((3,), 0): ExactScalar.one()}))
    with pytest.raises(ValueError, match="cap"):
        operator_exponential_fourier(f, "+", cap=2)


def test_super_fourier_matches_defining_integral(rng):
    # independent oracle at (m,n)=(1,1): the transform's defining integral
    # (2 pi)^(-M/2) int dV int_B e^{-/+ i<x,y>} f, with the pairing kernel
    # expanded by hand here and the bosonic integral done by quadrature
    import math
    from scipy.integrate import quad
    from supertransform.scalars import QQi
    u = VariableUniverse.standard(1, 1)
    env_f = fermionic_envelope_poly(u)

    def eval_masks(poly, xval):
        out = {}
        for ((p,), mask), c in poly.terms.items():
            out[mask] = out.get(mask, 0j) + c.to_complex() * xval ** p
        return out

    for sign, s in (("+", 1), ("-", -1)):
        for _ in range(3):
            f = GaussianFunction(random_poly(u, rng, degree=3, nterms=3))
            got = super_fourier(f, sign)
            got_exp = sp_mul(got.poly, env_f)
            src_exp = sp_mul(f.poly, env_f)
            # hand expansion of exp(-/+ (i/2)(q1 s2 - q2 s1)) over the
            # doubled fermionic block: x-block (0,1), y-block (2,3)
            dbl = VariableUniverse(("x1",), ("q1", "q2", "s1", "s2"))
            w = ExactScalar({(0, 0): QQi(0, Fraction(-s, 2))})
            aterm = (sp_mul(SuperPolynomial.fermionic_var(dbl, 0),
                            SuperPolynomial.fermionic_var(dbl, 3))
                     - sp_mul(SuperPolynomial.fermionic_var(dbl, 1),
                              SuperPolynomial.fermionic_var(dbl, 2))) \
                .scale(w)
            kernel = SuperPolynomial.one(dbl) + aterm \
                + sp_mul(aterm, aterm).scale(Fraction(1, 2))
            # fermionic Berezin by definition: pi^-1 d_{q2} d_{q1},
            # applied inside the product with each source mask component
            fer_map = {}
            for mask in (0, 1, 2, 3):
                mono = SuperPolynomial(dbl, {((0,), mask): ExactScalar.one()})
                prod = sp_mul(kernel, mono)
                integ = fermionic_derivative(fermionic_derivative(prod, 0), 1)
                integ = integ.scale(ExactScalar.pi_half_power(-2))
                # remaining content lives on the y block; map s -> q
                fer_map[mask] = {
                    mk >> 2: c for ((_,), mk), c in integ.terms.items()}
            # defining prefactor (2 pi)^(-M/2) at M = -1
            pref = (2 * math.pi) ** 0.5
            for y in (-1.2, 0.4, 1.1):
                numeric = {}
                for mask in (0, 1, 2, 3):
                    def integrand(x, mask=mask):
                        gx = eval_masks(src_exp, x).get(mask, 0j)
                        if not gx:
                            return 0j
                        return gx * complex(math.cos(s * x * y),
                                            math.sin(s * x * y)) \
                            * math.exp(-x * x / 2)
                    re = quad(lambda x: integrand(x).real, -12, 12,
                              limit=200)[0]
                    im = quad(lambda x: integrand(x).imag, -12, 12,
                              limit=200)[0]
                    val = pref * complex(re, im)
                    for omask, cc in fer_map[mask].items():
                        numeric[omask] = numeric.get(omask, 0j) \
                            + val * cc.to_complex()
                spec = eval_masks(got_exp, y)
                envy = math.exp(-y * y / 2)
                for mask in (0, 1, 2, 3):
                    assert abs(spec.get(mask, 0j) * envy
                               - numeric.get(mask, 0j)) < 1e-9


def _pair_mixed_poly(u, rng, nterms):
    # every pair gets an independent sub-mask in 0..3, so odd sub-masks
    # sit in several pairs of one term; radical complex coefficients
    terms = {}
    for _ in range(nterms):
        bos = tuple(rng.randint(0, 2) for _ in range(u.m))
        mask = 0
        for p in range(u.pairs):
            mask |= rng.randrange(4) << (2 * p)
        terms[(bos, mask)] = random_scalar(rng)
    return SuperPolynomial(u, terms)


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pair_tables_equal_kernel_route(rng, m, n):
    # the pair tables against the defining route: fermionic_kernel in the
    # doubled universe, then berezin; on the Gaussian class the envelope
    # is multiplied in before and stripped after
    u = VariableUniverse.standard(m, n)
    env = fermionic_envelope_poly(u)
    strip = fermionic_envelope_poly(u, sign=-1)
    for _ in range(3):
        f = _pair_mixed_poly(u, rng, nterms=5)
        for sign, a in (("+", 1), ("-", -1)):
            assert fermionic_fourier(f, sign) == kernel_route(f, a)
            want = sp_mul(kernel_route(sp_mul(f, env), a), strip)
            got = fermionic_fourier_gaussian(GaussianFunction(f), sign)
            assert got == GaussianFunction(want), (m, n, sign)


@pytest.mark.parametrize("width", [Fraction(1, 2), Fraction(1)])
def test_gaussian_class_integral_equals_berezin_route(rng, width):
    # per-pair Berezin weights against berezin(poly * envelope) followed
    # by the bosonic Gaussian moments
    from supertransform.fourier import (gaussian_class_integral,
                                        gaussian_moment)
    for m, n in ((0, 1), (1, 1), (0, 2), (2, 1), (1, 2), (1, 3)):
        u = VariableUniverse.standard(m, n)
        env = fermionic_envelope_poly(u, width=width)
        for _ in range(4):
            poly = _pair_mixed_poly(u, rng, nterms=6)
            want = ExactScalar.zero()
            for (bos, _), c in berezin(sp_mul(poly, env)).terms.items():
                for p in bos:
                    c = c * gaussian_moment(p, width)
                want = want + c
            assert gaussian_class_integral(poly, width) == want, (m, n)



def test_super_integral_pair_keeps_the_fermionic_sign():
    # q2 * conj(q1) = -q1 q2, so the pairing is odd under the swap
    u = VariableUniverse.standard(0, 1)
    q1, q2 = (GaussianFunction(SuperPolynomial.fermionic_var(u, j))
              for j in (0, 1))
    assert super_integral_pair(q2, q1) == -super_integral_pair(q1, q2) != 0


def test_exact_transforms_and_integrals_refuse_float_lane():
    u = VariableUniverse.standard(1, 1)
    for f in (GaussianFunction(SuperPolynomial.fermionic_var(u, 0)),
              GaussianFunction(SuperPolynomial.bosonic_var(u, 0))):
        g = f.map_coefficients(to_float)
        for sign in ("+", "-"):
            with pytest.raises(ValueError, match="exact-lane input"):
                super_fourier(g, sign)
            with pytest.raises(ValueError, match="exact-lane input"):
                fermionic_fourier(g.poly, sign)
        with pytest.raises(ValueError, match="exact-lane input"):
            super_integral(g)


def test_super_integral_of_plain_input_is_the_berezin_top_coefficient(rng):
    # at m = 0 the plain integral is the width-0 pairing with 1, which
    # must read the Berezin integral's constant term
    for n in range(4):
        u = VariableUniverse.standard(0, n)
        for _ in range(25):
            f = random_poly(u, rng, degree=2 * n, nterms=6, rational=False)
            assert super_integral(f) == berezin(f).terms.get(
                ((), 0), ExactScalar.zero()), n


def test_super_integral_refuses_float_lane_plain_input():
    # Berezin's scale_exact took these and gave a complex float, or
    # for 1 the exact zero, so the lanes mixed silently
    u = VariableUniverse.standard(0, 1)
    q1q2 = SuperPolynomial(u, {((), 0b11): ExactScalar.rational(3)})
    for f in (q1q2, SuperPolynomial.one(u)):
        with pytest.raises(ValueError, match="exact-lane input"):
            super_integral(f.map_coefficients(to_float))


def test_kernel_route_at_exact_orders_refuses_float_lane():
    # the +/-1 kernel and table are exact, so float-lane input gets the
    # exact transforms' refusal; other orders run on floats and accept it
    from supertransform.fracfourier import frac_fermionic_table
    for m, n in [(0, 1), (1, 2)]:
        u = VariableUniverse.standard(m, n)
        g = (SuperPolynomial.fermionic_var(u, 0)
             + SuperPolynomial.one(u)).map_coefficients(to_float)
        for a in (1, -1, Fraction(1), Fraction(-1)):
            with pytest.raises(ValueError, match="exact-lane input"):
                kernel_route(g, a)
            with pytest.raises(ValueError, match="exact-lane input"):
                frac_fermionic_table(g, a)
        assert kernel_route(g, 0) is g and frac_fermionic_table(g, 0) is g
        assert max_coeff_deviation(kernel_route(g, 0.5),
                                   frac_fermionic_table(g, 0.5)) < 1e-12


def _plain_cvalued(u):
    return CValued.from_scalar(SuperPolynomial.bosonic_var(u, 0))


@pytest.mark.parametrize("transform, lift", [
    (lambda f: super_fourier(f, "+"), None),
    (lambda f: bosonic_fourier(f, "-"), None),
    (lambda f: fermionic_fourier_gaussian(f, "+"), None),
    (lambda f: frac_fourier(f, 0.5), None),
    (lambda f: frac_fourier(f, 0), None),
    (radon, None),
    (lambda f: super_fourier_cvalued(f, "+"), _plain_cvalued),
    (lambda f: frac_fourier_cvalued(f, 0.5), _plain_cvalued),
], ids=["super_fourier", "bosonic_fourier", "fermionic_fourier_gaussian",
        "frac_fourier", "frac_fourier_zero", "radon", "super_fourier_cvalued",
        "frac_fourier_cvalued"])
def test_gaussian_transforms_refuse_input_without_the_envelope(transform,
                                                               lift):
    u = VariableUniverse.standard(2, 1)
    plain = SuperPolynomial.bosonic_var(u, 0)
    with pytest.raises(ValueError, match="envelope missing"):
        transform(lift(u) if lift else plain)


# universes of the integral tests: M = 1, -2, -1, 0, -4, -2, -5, -1
_INTEGRAL_UNIVERSES = ((1, 0), (0, 1), (1, 1), (2, 1), (0, 2), (2, 2),
                       (1, 3), (3, 2))


def test_gaussian_integrals_equal_the_product_route(rng):
    # the pairing, the width-one and width-one-half integrals and
    # super_integral against the product polynomial integrated term by
    # term; most pairs must integrate to non-zero, so that a pairing
    # that always returns 0 cannot pass
    from supertransform.fourier import gaussian_class_integral
    from tests.oracles import (gaussian_integral_by_terms,
                               super_integral_pair_by_product)
    nonzero = cases = 0
    for m, n in _INTEGRAL_UNIVERSES:
        u = VariableUniverse.standard(m, n)
        for _ in range(12):
            f, g = (GaussianFunction(random_poly(u, rng, degree=4, nterms=6,
                                                 rational=False))
                    for _ in range(2))
            want = super_integral_pair_by_product(f, g)
            assert super_integral_pair(f, g) == want, (m, n)
            for width in (Fraction(1), Fraction(1, 2)):
                assert gaussian_class_integral(f.poly, width) \
                    == gaussian_integral_by_terms(f.poly, width), (m, n)
            assert super_integral(f) \
                == gaussian_integral_by_terms(f.poly, Fraction(1, 2))
            nonzero += bool(want)
            cases += 1
    assert nonzero >= 3 * cases // 4, (nonzero, cases)


# (universe, f, g, the text of the integral of f * conj(g)), captured
# from the product route
_PAIRING_GOLDEN = (
    ((1, 0), "G", "G", "sqrtpi"),
    ((1, 0), "(1 + 2*i)*x1^2*G + 3*G", "x1^2*G - i*G", "(5/4+5*i)*sqrtpi"),
    ((0, 1), "q1*G", "q2*G", "pi^-1"),
    ((0, 1), "(2 - i)*G + q1*q2*G", "sqrt2*G + 3*i*q1*q2*G",
     "(-3-6*i)*pi^-1 + (3-i)*sqrt2*pi^-1"),
    ((1, 1), "x1*q1*G + pi*x1*G", "x1*q2*G + x1*q1*q2*G",
     "1/2*pi^(-1/2) + 1/2*sqrtpi"),
    ((2, 1), "x1*x2*G + (1/3)*x2^2*q1*q2*G",
     "(1/2 - i)*x1*x2*G + sqrtpi*x2^2*G", "(1/8+1/4*i) + 1/4*sqrtpi"),
    ((0, 2), "q1*q3*G + q2*q4*G + i*G", "q2*q4*G - q1*q3*G + q1*q2*q3*q4*G",
     "i*pi^-2"),
    ((2, 2), "x1^2*q1*q2*G + (1 + i)*x2*q3*G", "x2^2*G + x2*q4*G",
     "(3/4+1/2*i)*pi^-1"),
    ((1, 3), "q1*q4*q5*G + x1^3*q2*G", "q2*q3*q6*G + sqrt2*x1*q1*G",
     "pi^(-5/2) - 3/4*sqrt2*pi^(-5/2)"),
    ((3, 2), "x1*x2*x3*q1*G + (2/5)*x3^2*G",
     "x1*x2*x3*q2*G - pi*x3^2*q3*q4*G", "1/8*pi^(-1/2) - 3/10*sqrtpi"),
    ((2, 1), "x1*G", "x2*G", "0"),
    ((1, 2), "(1/7 + 2/3*i)*sqrt2*pi*x1^4*q1*q2*q3*q4*G + x1^2*q3*q4*G",
     "(3 - i)*x1^2*G + x1^4*q1*q2*G",
     "(33/8+3/4*i)*pi^(-3/2) + (-25/56+225/56*i)*sqrt2*pi^(-1/2)"),
)


@pytest.mark.parametrize("mn, f_text, g_text, want", _PAIRING_GOLDEN)
def test_super_integral_pair_golden(mn, f_text, g_text, want):
    from supertransform.expr import parse
    u = VariableUniverse.standard(*mn)
    assert super_integral_pair(parse(f_text, u), parse(g_text, u)).render() \
        == want


def test_super_integral_pair_refuses_a_universe_mismatch():
    f = GaussianFunction(SuperPolynomial.bosonic_var(
        VariableUniverse.standard(2, 1), 0))
    g = GaussianFunction(SuperPolynomial.one(VariableUniverse.standard(1, 1)))
    for a, b in ((f, g), (g, f)):
        with pytest.raises(ValueError, match="universe mismatch"):
            super_integral_pair(a, b)


def test_super_integral_pair_refuses_float_lane_on_either_side():
    u = VariableUniverse.standard(1, 1)
    f = GaussianFunction(SuperPolynomial.bosonic_var(u, 0)
                         + SuperPolynomial.fermionic_var(u, 0))
    g = f.map_coefficients(to_float)
    for a, b in ((g, f), (f, g)):
        with pytest.raises(ValueError, match="exact-lane input"):
            super_integral_pair(a, b)


def test_gaussian_integrals_never_form_the_product(monkeypatch, rng):
    # the integrals, the plain Parseval check and the convolution pair
    # terms; a product polynomial coming back would reach sp_mul, which
    # fourier does not import
    from supertransform import superalg
    from supertransform.fourier import gaussian_class_integral
    u = VariableUniverse.standard(2, 1)
    f, g = (GaussianFunction(random_poly(u, rng, degree=4, nterms=6,
                                         rational=False)) for _ in range(2))
    u0 = VariableUniverse.standard(0, 2)
    p, q = (random_poly(u0, rng, degree=4, nterms=6, rational=False)
            for _ in range(2))

    def integrals():
        return (super_integral_pair(f, g), super_integral(f),
                gaussian_class_integral(f.poly, Fraction(1)),
                gaussian_class_integral(f.poly, Fraction(1, 2)),
                parseval_check(p, q, "fermionic"), super_integral(p),
                convolution_fermionic(p, q))

    want = integrals()

    def refuse(*args):
        raise AssertionError("product polynomial formed")

    monkeypatch.setattr(superalg, "sp_mul", refuse)
    assert integrals() == want


# entry points that need the envelope, called with an input f without it
# and an enveloped partner; the Clifford-Weyl ones get a zero CValued,
# which has no part for the scalar transform to refuse
_ENVELOPE_CALLS = {
    "super_integral_pair_left": lambda f, good: super_integral_pair(f, good),
    "super_integral_pair_right": lambda f, good: super_integral_pair(good, f),
    "parseval_check_full": lambda f, good: parseval_check(f, good, "full"),
    "operator_exponential_fourier":
        lambda f, good: operator_exponential_fourier(f, "+"),
    "gaussian_expand_fermionic": lambda f, good: gaussian_expand_fermionic(f),
    "super_fourier_cvalued": lambda f, good: super_fourier_cvalued(f, "+"),
    "frac_fourier_cvalued": lambda f, good: frac_fourier_cvalued(f, 0.5),
}


@pytest.mark.parametrize("name", sorted(_ENVELOPE_CALLS))
def test_envelope_entry_points_refuse_input_without_it(name):
    u = VariableUniverse.standard(2, 1)
    plain = SuperPolynomial.bosonic_var(u, 0)
    good = GaussianFunction(SuperPolynomial.one(u))
    f = CValued(u) if name.endswith("cvalued") else plain
    with pytest.raises(ValueError, match="envelope missing"):
        _ENVELOPE_CALLS[name](f, good)


def _of_parity(poly, parity):
    return poly._like({key: c for key, c in poly.terms.items()
                       if key[1].bit_count() % 2 == parity})


def test_super_integral_pair_is_a_graded_hermitian_form(rng):
    # <g, f> = (-1)^(|f||g|) conj<f, g> for f and g of pure parity, and
    # <c f, g> = c <f, g>, <f, c g> = conj(c) <f, g>; f and g share their
    # parity, since a pairing of odd with even terms is 0
    nonzero = cases = 0
    for m, n in _INTEGRAL_UNIVERSES:
        u = VariableUniverse.standard(m, n)
        for _ in range(15):
            parity = rng.randint(0, 1) if n else 0
            f, g = (GaussianFunction(_of_parity(
                random_poly(u, rng, degree=4, nterms=6, rational=False),
                parity)) for _ in range(2))
            fg = super_integral_pair(f, g)
            swapped = fg.conjugate()
            assert super_integral_pair(g, f) \
                == (-swapped if parity else swapped), (m, n)
            c = random_scalar(rng)
            assert super_integral_pair(f.scale(c), g) == c * fg
            assert super_integral_pair(f, g.scale(c)) == c.conjugate() * fg
            nonzero += bool(fg)
            cases += 1
    assert nonzero >= 2 * cases // 3, (nonzero, cases)


def test_super_integral_pair_is_positive_on_bosonic_input(rng):
    # <f, f> for a non-zero purely bosonic f with complex rational
    # coefficients is a positive rational times pi^(M/2); the Berezin
    # factor of the empty mask is pi^-1 on each symbol pair
    from supertransform.scalars import QQi
    for m, n in _INTEGRAL_UNIVERSES:
        if not m:
            continue
        u = VariableUniverse.standard(m, n)
        for _ in range(15):
            terms = {}
            for _ in range(rng.randint(1, 5)):
                bos = tuple(rng.randint(0, 3) for _ in range(m))
                terms[(bos, 0)] = ExactScalar.from_qqi(QQi(
                    Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
                    Fraction(rng.randint(-4, 4), rng.randint(1, 4))))
            f = GaussianFunction(SuperPolynomial(u, terms))
            if not f:
                continue
            (key, q), = super_integral_pair(f, f).terms.items()
            assert key == (u.superdim, 0) and q.b == 0 and q.a > 0, (m, n)


# (m, n, monomial text, the images of the one term under the Mehler pass
# on the bosonic, fermionic and full sector): prod (a_i // 2 + 1) Hermite
# images times 2 per full pair
_IMAGE_COUNTS = [
    (2, 1, "x1^5*x2^4*q1q2*G", (9, 2, 18)),
    (3, 2, "x1^2*x2^3*x3*q1q2q3*G", (4, 2, 8)),
    (1, 2, "x1^6*q1q2q3q4*G", (4, 4, 16)),
    (0, 3, "q1q2q4q5q6*G", (1, 4, 4)),
]


@pytest.mark.parametrize("m, n, text, counts", _IMAGE_COUNTS)
def test_the_mehler_budget_counts_each_image_of_a_monomial(
        monkeypatch, m, n, text, counts):
    # a single monomial meets its count exactly: a limit of the count
    # builds it, one less refuses it before the pass, on every sector and
    # lane
    from supertransform import fourier
    u = VariableUniverse.standard(m, n)
    f = parse(text, u)
    passes = [lambda g: bosonic_fourier(g, "+"),
              lambda g: fermionic_fourier_gaussian(g, "-"),
              lambda g: super_fourier(g, "-"),
              lambda g: frac_fourier(g, Fraction(1, 3))]
    for transform, count in zip(passes, counts + (counts[2],)):
        monkeypatch.setattr(fourier, "MAX_TRANSFORM_TERMS", count)
        assert len(transform(f).terms) == count
        monkeypatch.setattr(fourier, "MAX_TRANSFORM_TERMS", count - 1)
        with pytest.raises(ValueError, match=(
                f"the transform could make {count} terms, over "
                f"MAX_TRANSFORM_TERMS = {count - 1}")):
            transform(f)


def test_the_mehler_budget_sums_the_input_terms(monkeypatch):
    # 3 + 2 + 1 images at (1,1); radon's and parseval's transforms are
    # counted too
    from supertransform import fourier
    u = VariableUniverse.standard(1, 1)
    f = parse("x1^4*G + x1*q1q2*G + q1*G", u)
    monkeypatch.setattr(fourier, "MAX_TRANSFORM_TERMS", 6)
    assert len(super_fourier(f, "+").terms) == 6
    monkeypatch.setattr(fourier, "MAX_TRANSFORM_TERMS", 5)
    for call in (lambda: super_fourier(f, "+"), lambda: radon(f),
                 lambda: parseval_check(f, f, "full")):
        with pytest.raises(ValueError, match="MAX_TRANSFORM_TERMS = 5"):
            call()


def test_the_pair_table_budget(monkeypatch):
    # two images per empty or full pair at a non-integral order, one per
    # term at +/-1; at n = 25 the constant 1 would make 2^25 terms
    from supertransform import fourier
    u = VariableUniverse.standard(1, 3)
    f = parse("x1*q1q2q3q5 + 2*q3q4q5", u)    # 2 + 4 images at a = 1/2
    monkeypatch.setattr(fourier, "MAX_TRANSFORM_TERMS", 6)
    assert len(frac_fermionic_table(f, Fraction(1, 2)).terms) == 6
    monkeypatch.setattr(fourier, "MAX_TRANSFORM_TERMS", 5)
    with pytest.raises(ValueError, match="MAX_TRANSFORM_TERMS = 5"):
        frac_fermionic_table(f, Fraction(1, 2))
    monkeypatch.setattr(fourier, "MAX_TRANSFORM_TERMS", 2)
    assert len(fermionic_fourier(f, "+").terms) == 2
    monkeypatch.setattr(fourier, "MAX_TRANSFORM_TERMS", 1)
    with pytest.raises(ValueError, match="could make 2 terms"):
        frac_fermionic_table(f, -1)
    monkeypatch.undo()
    wide = SuperPolynomial.one(VariableUniverse.standard(0, 25))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="could make 33554432 terms"):
        frac_fermionic_table(wide, 0.5)
    assert time.perf_counter() - start < 1.0
