"""The identities the paper claims, each stated once with its domain, and
the one grid of universe shapes they are checked on.

An identity is a check on (universe, rng) that fails by assertion.  Its
domain is the set of shapes (m, n) on which the paper claims it; where
the domain is not every shape, `refuse` calls the identity's entry point
on its smallest input at a shape outside it, and that call must raise a
ValueError whose message matches `rule`.  tests/test_identities.py runs
every identity on every grid shape in its domain and the refusal on
every grid shape outside it, so a gap in coverage is a stated refusal.

To add an identity, write its check below and register it with
@identity(name, domain, refuse, rule).  Draws come from the rng the test
passes in, seeded by the identity's name and shape; a check caps its own
draws so that it runs in well under a second at every grid shape.
"""

import math
from collections import namedtuple
from fractions import Fraction

import pytest

from supertransform.cliffweyl import CValued, dirac_apply, vector_mul
from supertransform.fourier import (bosonic_fourier, convolution_fermionic,
                                    delta_fourier, fermionic_delta,
                                    fermionic_fourier,
                                    fermionic_fourier_gaussian,
                                    parseval_check, super_fourier,
                                    super_fourier_cvalued, super_integral)
from supertransform.fracfourier import frac_fourier, relative_deviation
from supertransform.fundsol import (nu_poly_laplace, radial_laplace,
                                    super_fundamental_solution,
                                    verify_harmonic_away_from_origin)
from supertransform.harmonics import (MAX_BASIS_MONOMIALS,
                                      decomposition_check, harmonic_basis)
from supertransform.hermite import psi_element, psi_tilde_element
from supertransform.operators import (bosonic_derivative, euler,
                                      fermionic_derivative, laplace,
                                      multiply_bosonic_var,
                                      multiply_fermionic_var,
                                      multiply_vector_square)
from supertransform.radon import (RadonResult, omega_universe, radon,
                                  radon_expected_eigenbasis)
from supertransform.scalars import ExactScalar
from supertransform.superalg import (GaussianFunction, SuperPolynomial,
                                     homogeneous_monomial_count, sp_mul,
                                     vector_square)
from tests.conftest import random_poly, random_scalar
from tests.oracles import (decomposition_check_by_products,
                           fermionic_envelope_poly, fermionic_square_power,
                           mehler_pass_by_scalars, radon_by_scalars)

# every shape with m <= 4 and n <= 3: m = 0 in the first column, and at
# m >= 1 the superdimension M = m - 2n meets 0 at (2,1) and (4,2), -2 at
# (2,2) and (4,3), and -4 at (2,3), where the Fischer decomposition
# breaks down
GRID = tuple((m, n) for m in range(5) for n in range(4))


Identity = namedtuple("Identity", "name check domain refuse rule")


IDENTITIES = []


def everywhere(m, n):
    return True


def bosonic(m, n):
    return m >= 1


def fermionic_only(m, n):
    return m == 0


def identity(name, domain=everywhere, refuse=None, rule=None):
    def register(check):
        IDENTITIES.append(Identity(name, check, domain, refuse, rule))
        return check
    return register


def _gaussians(u, rng, count=4, degree=4, nterms=4):
    """Gaussian-class draws with ring coefficients (radicals, complex
    parts and several denominators)."""
    return [GaussianFunction(random_poly(u, rng, degree, nterms,
                                         rational=False))
            for _ in range(count)]


# -- the Fourier transform ----------------------------------------------

@identity("inversion")
def inversion(u, rng):
    """F- F+ f = F+ F- f = f on the Gaussian class, and the plain
    fermionic transform inverts on every fermionic monomial."""
    for f in _gaussians(u, rng):
        assert super_fourier(super_fourier(f, "+"), "-") == f
        assert super_fourier(super_fourier(f, "-"), "+") == f
    for mask in range(1 << 2 * u.pairs):
        f = SuperPolynomial(u, {((0,) * u.m, mask): ExactScalar.one()})
        assert fermionic_fourier(fermionic_fourier(f, "-"), "+") == f
        assert fermionic_fourier(fermionic_fourier(f, "+"), "-") == f


@identity("reflection")
def reflection(u, rng):
    """F+ F+ f = F- F- f = f(-x): a term of odd degree changes sign."""
    for f in _gaussians(u, rng):
        reflected = GaussianFunction(SuperPolynomial(u, {
            (bos, mask): -c if (sum(bos) + mask.bit_count()) % 2 else c
            for (bos, mask), c in f.poly.terms.items()}))
        for sign in ("+", "-"):
            assert super_fourier(super_fourier(f, sign), sign) == reflected


@identity("gaussian-invariance")
def gaussian_invariance(u, rng):
    """F+/- exp(x^2/2) = exp(x^2/2), and the plain fermionic transform
    fixes the expanded fermionic envelope exp(x`^2/2)."""
    envelope = GaussianFunction(SuperPolynomial.one(u))
    fermionic = fermionic_envelope_poly(u)
    for sign in ("+", "-"):
        assert super_fourier(envelope, sign) == envelope
        assert fermionic_fourier(fermionic, sign) == fermionic


@identity("numerator-lane")
def numerator_lane(u, rng):
    """The exact transforms on integer numerators equal the scalar-ring
    route (tests/oracles.py): the full, bosonic and fermionic Mehler
    passes at both signs, and radon where m >= 1; at m = 0 both radon
    routes refuse."""
    for f in _gaussians(u, rng, count=6, nterms=6):
        for sign, a in (("+", 1), ("-", -1)):
            assert super_fourier(f, sign) == \
                mehler_pass_by_scalars(f, a, "full")
            assert bosonic_fourier(f, sign) == \
                mehler_pass_by_scalars(f, a, "bosonic")
            assert fermionic_fourier_gaussian(f, sign) == \
                mehler_pass_by_scalars(f, a, "fermionic")
        if u.m:
            assert radon(f) == radon_by_scalars(f)
        else:
            for route in (radon, radon_by_scalars):
                with pytest.raises(ValueError,
                                   match="no purely fermionic Radon"):
                    route(f)


@identity("parseval-full")
def parseval_full(u, rng):
    """<F f, F g> = <f, g> for Gaussian functions, both signs."""
    envelope = GaussianFunction(SuperPolynomial.one(u))
    assert parseval_check(envelope, envelope, "full")
    for f, g in zip(*[iter(_gaussians(u, rng, count=8, degree=3))] * 2):
        assert parseval_check(f, g, "full")


@identity("parseval-fermionic", fermionic_only,
          lambda u: parseval_check(SuperPolynomial.one(u),
                                   SuperPolynomial.one(u), "fermionic"),
          "non-damped bosonic integrand")
def parseval_fermionic(u, rng):
    """Parseval for plain polynomials at m = 0, the envelope pair among
    them."""
    envelope = fermionic_envelope_poly(u)
    assert parseval_check(envelope, envelope, "fermionic")
    for _ in range(25):
        f, g = (random_poly(u, rng, degree=2 * u.pairs, nterms=5,
                            rational=False) for _ in range(2))
        assert parseval_check(f, g, "fermionic")


@identity("psi-phases")
def psi_phases(u, rng):
    """F+/- psi_{j,k} = (+/- i)^(2j+k) psi_{j,k}, k <= 3 and j <= 2, on
    up to three basis elements of each degree."""
    for k in range(4):
        elements = harmonic_basis(k, "full", u).elements
        for h in rng.sample(elements, min(3, len(elements))):
            for j in range(3):
                psi = psi_element(j, h)
                phase = ExactScalar.i_power(2 * j + k)
                assert super_fourier(psi, "+") == psi.scale(phase)
                assert super_fourier(psi, "-") == \
                    psi.scale(phase.conjugate())


@identity("fermionic-eigen")
def fermionic_eigen(u, rng):
    """The plain fermionic transform on the fermionic harmonics H_l:
    F+/-(H_l exp(x`^2/2)) = (+/- i)^l H_l exp(x`^2/2) and
    F+/-(x`^(2k) H_l) = (+/- i)^l 2^(2k+l-n) k!/(n-k-l)! x`^(2n-2k-2l) H_l
    for k + l <= n (l = 0, H_0 = 1 is the power formula); there is no
    fermionic harmonic of degree l > n."""
    n, envelope = u.pairs, fermionic_envelope_poly(u)
    for l in range(n + 1):
        phase = ExactScalar.i_power(l)
        for h in harmonic_basis(l, "fermionic", u):
            f = sp_mul(h, envelope)
            assert fermionic_fourier(f, "+") == f.scale(phase)
            assert fermionic_fourier(f, "-") == f.scale(phase.conjugate())
            for k in range(n - l + 1):
                weight = ExactScalar.rational(Fraction(
                    2 ** (2 * k + l) * math.factorial(k),
                    2 ** n * math.factorial(n - k - l))) * phase
                f = sp_mul(fermionic_square_power(u, k), h)
                want = sp_mul(fermionic_square_power(u, n - k - l), h)
                assert fermionic_fourier(f, "+") == want.scale(weight)
                assert fermionic_fourier(f, "-") == \
                    want.scale(weight.conjugate())


@identity("heat-kernel")
def heat_kernel(u, rng):
    """int P G = int G * [exp(-Delta/2) P](0): the Gaussian moments and
    Berezin weights of the integral against the sl2 layer alone."""
    envelope = super_integral(GaussianFunction(SuperPolynomial.one(u)))
    for _ in range(30):
        p = random_poly(u, rng, degree=4, nterms=4)
        total, term, k = ExactScalar.zero(), p, 0
        while term:     # Delta lowers the degree by two
            total = total + term.constant_term()
            k += 1
            term = laplace(term, "full").scale(Fraction(-1, 2 * k))
        assert super_integral(GaussianFunction(p)) == envelope * total


@identity("delta")
def delta(u, rng):
    """F+/- delta = (2 pi)^(-M/2)."""
    for sign in ("+", "-"):
        assert delta_fourier(u, sign) == \
            ExactScalar.two_pi_half_power(-u.superdim)


@identity("convolution", fermionic_only,
          lambda u: convolution_fermionic(SuperPolynomial.one(u),
                                          SuperPolynomial.one(u)),
          "convolution implemented fermionically only")
def convolution(u, rng):
    """F(f * g) = (2 pi)^(M/2) F(f) F(g) with M = -2n, and delta * g = g,
    for plain polynomials at m = 0."""
    const = ExactScalar.two_pi_half_power(u.superdim)
    for _ in range(25):
        f, g = (random_poly(u, rng, degree=2 * u.pairs, nterms=4)
                for _ in range(2))
        assert convolution_fermionic(fermionic_delta(u), g) == g
        for sign in ("+", "-"):
            assert fermionic_fourier(convolution_fermionic(f, g), sign) == \
                sp_mul(fermionic_fourier(f, sign),
                       fermionic_fourier(g, sign)).scale(const)


@identity("calculus-rules")
def calculus_rules(u, rng):
    """The variable/derivative exchange rules of F+/-, with s = +/-1:
    F(d_{x_i} g) = -s i y_i F(g), F(x_i g) = -s i d_{y_i} F(g); per pair,
    F(d_{q_even} g) = -s (i/2) q_odd F(g), F(d_{q_odd} g) =
    s (i/2) q_even F(g), F(q_even g) = 2 s i d_{q_odd} F(g) and
    F(q_odd g) = -2 s i d_{q_even} F(g); F(Delta g) = -y^2 F(g),
    F(x^2 g) = -Delta F(g), F(d_x g) = s i y F(g), F(x g) = s i d_y F(g)."""
    half, two = ExactScalar.rational(1, 2), ExactScalar.rational(2)
    for g in _gaussians(u, rng, degree=3):
        for sign in ("+", "-"):
            fg = super_fourier(g, sign)
            i_s = ExactScalar.i_power(1 if sign == "+" else 3)
            for i in range(u.m):
                assert super_fourier(bosonic_derivative(g, i), sign) \
                    == multiply_bosonic_var(fg, i).scale(-i_s)
                assert super_fourier(multiply_bosonic_var(g, i), sign) \
                    == bosonic_derivative(fg, i).scale(-i_s)
            for odd in range(0, 2 * u.pairs, 2):
                even = odd + 1
                assert super_fourier(fermionic_derivative(g, even), sign) \
                    == multiply_fermionic_var(fg, odd).scale(-i_s * half)
                assert super_fourier(fermionic_derivative(g, odd), sign) \
                    == multiply_fermionic_var(fg, even).scale(i_s * half)
                assert super_fourier(multiply_fermionic_var(g, even), sign) \
                    == fermionic_derivative(fg, odd).scale(i_s * two)
                assert super_fourier(multiply_fermionic_var(g, odd), sign) \
                    == fermionic_derivative(fg, even).scale(-(i_s * two))
            assert super_fourier(laplace(g), sign) == \
                multiply_vector_square(fg).scale(-1)
            assert super_fourier(multiply_vector_square(g), sign) == \
                laplace(fg).scale(-1)
            lifted, flifted = CValued.from_scalar(g), CValued.from_scalar(fg)
            assert super_fourier_cvalued(dirac_apply(lifted), sign) \
                == vector_mul(flifted).scale(i_s)
            assert super_fourier_cvalued(vector_mul(lifted), sign) \
                == dirac_apply(flifted).scale(i_s)


# -- the fractional transform --------------------------------------------

# the exact orders of the fractional checks, off the exact lane
ORDERS = (Fraction(1, 3), Fraction(1, 2), Fraction(-1, 4), Fraction(2, 3))


def _off_span(u, rng, count=3):
    """Gaussian-class inputs of degree <= 6 with ring coefficients,
    drawn monomial by monomial rather than from the psi span."""
    return _gaussians(u, rng, count=count, degree=6, nterms=5)


def _close(got, want):
    return relative_deviation(got.poly, want.poly) <= 1e-12


@identity("fractional-index-law")
def fractional_index_law(u, rng):
    """F^0 = 1, F^(+/-1) = F+/- and F^(s-a) F^a f = F^s f with
    s = sign(a), to 1e-12 relative deviation."""
    for f in _off_span(u, rng):
        assert frac_fourier(f, 0) == f
        assert frac_fourier(f, 1) == super_fourier(f, "+")
        assert frac_fourier(f, -1) == super_fourier(f, "-")
        for a in ORDERS:
            s = 1 if a > 0 else -1
            want = super_fourier(f, "+" if s > 0 else "-")
            assert _close(frac_fourier(frac_fourier(f, a), s - a), want), a


@identity("fractional-semigroup")
def fractional_semigroup(u, rng):
    """F^a F^b = F^(a+b) for |a + b| <= 1, on the exact orders and two
    drawn float orders, F^-a F^a = 1 among them, to 1e-12 relative
    deviation."""
    orders = ORDERS + (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    for f in _off_span(u, rng, count=2):
        for a in orders:
            inverse = frac_fourier(frac_fourier(f, a), -a)
            assert _close(inverse, f), a
            for b in orders:
                if abs(a + b) <= 1:
                    assert _close(frac_fourier(frac_fourier(f, b), a),
                                  frac_fourier(f, a + b)), (a, b)


# -- the sl2 layer and the eigenbasis ------------------------------------

@identity("sl2-commutators")
def sl2_commutators(u, rng):
    """[Delta, x^2] = 4E + 2M, [E, Delta] = -2 Delta, [E, x^2] = 2 x^2;
    on the constant 1 the first reads Delta x^2 = 2M."""
    square = multiply_vector_square
    want = SuperPolynomial.scalar(u, 2 * u.superdim) if u.superdim \
        else SuperPolynomial.zero(u)
    assert laplace(vector_square(u)) == want
    for _ in range(6):
        p = random_poly(u, rng, degree=4, nterms=4, rational=False)
        assert laplace(square(p)) - square(laplace(p)) == \
            euler(p).scale(4) + p.scale(2 * u.superdim)
        assert euler(laplace(p)) - laplace(euler(p)) == laplace(p).scale(-2)
        assert euler(square(p)) - square(euler(p)) == square(p).scale(2)


@identity("osp12-relations")
def osp12_relations(u, rng):
    """The Dirac operator and the vector variable: d_x^2 = Delta,
    x^2 = x^2 (the scalar vector square) and x d_x + d_x x = 2E + M; on
    the constant 1 the last reads d_x x = M."""
    one = CValued.from_scalar(SuperPolynomial.one(u))
    assert vector_mul(vector_mul(one)).scalar_function() == vector_square(u)
    want = one.scale(u.superdim) if u.superdim else CValued(u, {})
    assert dirac_apply(vector_mul(one)) == want
    for _ in range(4):
        p = random_poly(u, rng, degree=4, nterms=4)
        assert dirac_apply(dirac_apply(p)).scalar_function() == laplace(p)
        f = CValued.from_scalar(p)
        assert vector_mul(dirac_apply(f)) + dirac_apply(vector_mul(f)) == \
            f.map_parts(euler).scale(2) + f.scale(u.superdim)


@identity("oscillator")
def oscillator(u, rng):
    """(Delta - x^2) psi_{j,k} = (2(2j+k) + M) psi_{j,k}, 2j + k <= 6, on
    up to three basis elements of each degree.  At (4,3) the degree-6
    basis spans 1520 monomials and is refused by MAX_BASIS_MONOMIALS =
    1500, so k stops at 5 there."""
    top = 6
    if (u.m, u.pairs) == (4, 3):
        with pytest.raises(ValueError, match="MAX_BASIS_MONOMIALS"):
            harmonic_basis(6, "full", u)
        top = 5
    for k in range(top + 1):
        elements = harmonic_basis(k, "full", u).elements
        for h in rng.sample(elements, min(3, len(elements))):
            for j in range((6 - k) // 2 + 1):
                psi = psi_element(j, h)
                lhs = laplace(psi) - psi.mul_poly(vector_square(u))
                assert lhs == psi.scale(2 * (2 * j + k) + u.superdim)


@identity("decomposition", bosonic,
          lambda u: decomposition_check(0, u), "needs m >= 1")
def decomposition(u, rng):
    """The Fischer decomposition of degree k <= 5: the dimension formula
    holds and every product f * H_bos * H_fer is harmonic."""
    for k in range(6):
        report = decomposition_check(k, u)
        assert report["dims_match"] and report["products_harmonic"], k


@identity("decomposition-closed-rule", bosonic,
          lambda u: decomposition_check(0, u), "needs m >= 1")
def decomposition_closed_rule(u, rng):
    """The closed sl2 rule of decomposition_check and the product route
    (decomposition_check_by_products) give equal reports at every degree
    k <= 6 within MAX_BASIS_MONOMIALS; beyond it both refuse."""
    for k in range(7):
        if homogeneous_monomial_count(u, k) > MAX_BASIS_MONOMIALS:
            for check in (decomposition_check,
                          decomposition_check_by_products):
                with pytest.raises(ValueError, match="MAX_BASIS_MONOMIALS"):
                    check(k, u)
            continue
        assert decomposition_check(k, u) == \
            decomposition_check_by_products(k, u), k


@identity("fundsol-telescope", bosonic,
          lambda u: super_fundamental_solution(0, u.pairs),
          "no purely fermionic fundamental solution")
def fundsol_telescope(u, rng):
    """The super Laplacian of the fundamental solution telescopes to zero
    away from the origin, and along the classical chain
    Delta nu_{2l} = nu_{2l-2} and Delta^l nu_{2l} = 0, l <= n + 1."""
    m, n = u.m, u.pairs
    sr = super_fundamental_solution(m, n)
    assert verify_harmonic_away_from_origin(sr, m)
    for l in range(1, n + 2):
        nu = nu_poly_laplace(l, m)
        if l > 1:
            assert radial_laplace(nu, m) == nu_poly_laplace(l - 1, m)
        for _ in range(l):
            nu = radial_laplace(nu, m)
        assert not nu, l


# -- the Radon transform -------------------------------------------------

def _refuse_radon(u):
    radon(GaussianFunction(SuperPolynomial.one(u)))


@identity("radon-closed-form", bosonic, _refuse_radon,
          "no purely fermionic Radon transform")
def radon_closed_form(u, rng):
    """R(psi~_{j,k}) = (-1)^j (2 pi)^((M-1)/2) H~_{2j+k}(p) e^(-p^2/2)
    H_k(omega), on single basis elements and on combinations of one to
    three psi~ terms with ring coefficients.  Draws keep 2j + k <= 4:
    at (4,3), R(psi~_{2,3}) (degree 7, 58 terms) is refused by the
    result budget, which estimates 2 552 000 entries against
    MAX_RESULT_ENTRIES = 2 000 000."""
    if (u.m, u.pairs) == (4, 3):
        h = harmonic_basis(3, "full", u).elements[0]
        with pytest.raises(ValueError, match="2552000 result entries"):
            radon(psi_tilde_element(2, h))
    for k in range(3):
        for h in harmonic_basis(k, "full", u).elements[:2]:
            for j in range((4 - k) // 2 + 1):
                assert radon(psi_tilde_element(j, h)) == \
                    radon_expected_eigenbasis(j, k, h, u), (j, k)
    degrees = [k for k in range(4) if harmonic_basis(k, "full", u).elements]
    for _ in range(6):
        got = GaussianFunction(SuperPolynomial.zero(u))
        want = RadonResult(omega_universe(u.m, u.pairs))
        for _ in range(rng.randint(1, 3)):
            k = rng.choice(degrees)
            j = rng.randint(0, (4 - k) // 2)
            h = SuperPolynomial.zero(u)
            while not h:
                for element in harmonic_basis(k, "full", u):
                    h = h + element.scale(rng.randint(-3, 3))
            c = random_scalar(rng, parts=1)
            got = got + psi_tilde_element(j, h).scale(c)
            want = want + radon_expected_eigenbasis(j, k, h, u).scale(c)
        assert radon(got) == want


@identity("radon-derivatives", bosonic, _refuse_radon,
          "no purely fermionic Radon transform")
def radon_derivatives(u, rng):
    """R(d_{x_i} g) = w_i d_p R(g); for pair j + 1, R(d_{q_{2j+2}} g) =
    1/2 w_{2j+1} d_p R(g) and R(d_{q_{2j+1}} g) = -1/2 w_{2j+2} d_p R(g)."""
    uo = omega_universe(u.m, u.pairs)
    for g in _gaussians(u, rng, count=6, degree=3):
        dr = radon(g).p_derivative()
        for i in range(u.m):
            assert radon(bosonic_derivative(g, i)) == \
                dr.mul_omega(SuperPolynomial.bosonic_var(uo, i))
        for j in range(u.pairs):
            assert radon(fermionic_derivative(g, 2 * j + 1)) == \
                dr.mul_omega(SuperPolynomial.fermionic_var(
                    uo, 2 * j, ExactScalar.rational(1, 2))), j
            assert radon(fermionic_derivative(g, 2 * j)) == \
                dr.mul_omega(SuperPolynomial.fermionic_var(
                    uo, 2 * j + 1, ExactScalar.rational(-1, 2))), j


def _p_moments(res, j):
    """omega monomial -> sum of c * (e + j - 1)!! over the powers p^e of
    res with e + j even: the j-th p-moment of res over sqrt(2 pi), as
    the integral of p^k exp(-p^2/2) is sqrt(2 pi) (k - 1)!! at even k."""
    out = {}
    for key, ppoly in res.by_omega():
        total = ExactScalar.zero()
        for e, c in ppoly:
            if (e + j) % 2 == 0:
                total = total + c * math.prod(range(e + j - 1, 0, -2))
        if total:
            out[key] = total
    return out


@identity("radon-slices", bosonic, _refuse_radon,
          "no purely fermionic Radon transform")
def radon_slices(u, rng):
    """Every slice integrates to the integral of f, so the 0-th p-moment
    is the constant omega monomial times (2 pi)^(-1/2) int f; the j-th
    p-moment is a polynomial in omega of degree at most j with the
    parity of j."""
    const = ((0,) * u.m, 0)
    for _ in range(20):
        f = GaussianFunction(random_poly(u, rng, degree=3, nterms=3))
        res = radon(f)
        got = _p_moments(res, 0)
        assert set(got) <= {const}
        assert got.get(const, ExactScalar.zero()) == \
            ExactScalar.two_pi_half_power(-1) * super_integral(f)
        for j in range(1, 5):
            for bos, mask in _p_moments(res, j):
                degree = sum(bos) + mask.bit_count()
                assert degree <= j and degree % 2 == j % 2, (j, bos, mask)
