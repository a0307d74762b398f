import cmath
import math
import random
from fractions import Fraction

import pytest
from scipy.integrate import quad

from supertransform.cliffweyl import CValued, dirac_apply, vector_mul
from supertransform.fourier import fermionic_fourier
from supertransform.fracfourier import (frac_fermionic_table, frac_fourier,
                                        frac_fourier_cvalued,
                                        max_coeff_deviation,
                                        relative_deviation)
from supertransform.hermite import psi_span
from supertransform.operators import bosonic_derivative, fermionic_derivative
from supertransform.scalars import Angle, ExactScalar, QQi, to_float
from supertransform.superalg import (GaussianFunction, SuperPolynomial,
                                     VariableUniverse, sp_mul, sp_rename)
from tests.conftest import random_gaussian
from tests.oracles import (express_in_basis, fermionic_envelope_poly,
                           fermionic_kernel, kernel_route)

ORDERS = (Fraction(1, 3), Fraction(1, 2), Fraction(-1, 4), Fraction(2, 3))
# universe shapes (m, n) of the kernel-against-table checks; 0|2 first
TABLE_SHAPES = ((0, 1), (0, 2), (1, 2), (0, 3), (2, 2))


def span_sample(u, rng, cap=4):
    f = GaussianFunction(SuperPolynomial.zero(u), True)
    for (_, _, _, psi) in psi_span(u, cap):
        if rng.random() < 0.4:
            f = f + psi.scale(ExactScalar.rational(rng.randint(-3, 3),
                                                   rng.randint(1, 3)))
    if not f:
        f = f + psi_span(u, cap)[0][3]
    return f


def test_angle_validation():
    with pytest.raises(ValueError):
        Angle(1.5)
    with pytest.raises(ValueError):
        Angle(Fraction(-9, 8))
    with pytest.raises(TypeError):
        Angle("x")
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            Angle(bad)
    assert Angle(1.0).exact and Angle(0).exact and Angle(-1).exact
    assert not Angle(0.5).exact and not Angle(Fraction(1, 3)).exact
    assert Angle(1).phase(3) == ExactScalar.i_power(3)


def test_frac02_table_values():
    u = VariableUniverse.standard(0, 1)
    one = SuperPolynomial.one(u)
    q1 = SuperPolynomial.fermionic_var(u, 0)
    # a = 1: e^(i alpha) = i, e^(2 i alpha) = -1
    got = frac_fermionic_table(one, 1)
    want = SuperPolynomial(u, {((), 0b11): ExactScalar.rational(1, 2)})
    assert got == want
    assert frac_fermionic_table(q1, 1) == q1.scale(ExactScalar.i())
    # a = 0 is the identity column of the table
    assert frac_fermionic_table(one, 0) == one
    top = SuperPolynomial(u, {((), 0b11): ExactScalar.one()})
    assert frac_fermionic_table(top, 0) == top
    assert frac_fermionic_table(top, 1) == SuperPolynomial.scalar(u, 2)


def basis_monomials(m, n):
    # every fermionic mask once, with bosonic factors that vary by mask
    u = VariableUniverse.standard(m, n)
    return [SuperPolynomial(u, {(tuple((mask + i) % 3 for i in range(m)),
                                 mask): ExactScalar.one()})
            for mask in range(1 << (2 * n))]


def test_frac02_kernel_matches_table_exact_points():
    for m, n in TABLE_SHAPES:
        for a in (-1, 0, 1):
            for f in basis_monomials(m, n):
                assert kernel_route(f, a) == frac_fermionic_table(f, a)


def test_frac02_kernel_matches_table_random_angles(rng):
    for m, n in TABLE_SHAPES:
        monomials = basis_monomials(m, n)
        for _ in range(10):
            a = rng.uniform(-1, 1)
            if abs(a) < 1e-3:
                a = 0.37
            for f in monomials:
                dev = max_coeff_deviation(kernel_route(f, a),
                                          frac_fermionic_table(f, a))
                assert dev <= 1e-12, (m, n, a)


def test_frac02_a1_reproduces_fermionic_fourier():
    u = VariableUniverse.standard(0, 1)
    for mask in range(4):
        f = SuperPolynomial(u, {((), mask): ExactScalar.one()})
        assert kernel_route(f, 1) == fermionic_fourier(f, "+")
        assert kernel_route(f, -1) == fermionic_fourier(f, "-")


def test_frac02_kernel_symmetric_in_x_and_y(rng):
    u = VariableUniverse.standard(0, 1)
    for a in (1, -1, 0.43, -0.77):
        dbl, kernel, _ = fermionic_kernel(u, a)
        swap = {0: 2, 1: 3, 2: 0, 3: 1}
        swapped = sp_rename(kernel, dbl, {}, swap)
        if Angle(a).exact:
            assert swapped == kernel
        else:
            assert max_coeff_deviation(swapped, kernel) <= 1e-15


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
        return p if a.exact else p.map_coefficients(to_float)

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
        g_lane = g if a.exact else g.map_coefficients(to_float)
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
    a = Angle(a)
    worst = 0.0
    ok = True
    for g in samples:
        g_lane = g if a.exact else g.map_coefficients(to_float)
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
    """
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
        envelope = fermionic_envelope_poly(u).map_coefficients(to_float)
        closed_expanded = sp_mul(closed.poly.map_coefficients(to_float),
                                 envelope)
        src_expanded = sp_mul(f.poly.map_coefficients(to_float), envelope)
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


def test_frac_calculus_rules_exact_points(rng):
    u = VariableUniverse.standard(1, 1)
    samples = [span_sample(u, rng) for _ in range(3)]
    for a in (-1, 0, 1):
        ok, _ = frac_calculus_check(a, samples)
        assert ok
        ok, _ = frac_dirac_consequence_check(a, samples)
        assert ok


def test_frac_calculus_rules_random_angles(rng):
    u = VariableUniverse.standard(1, 1)
    samples = [span_sample(u, rng) for _ in range(2)]
    for _ in range(3):
        a = rng.uniform(-0.9, 0.9)
        ok, dev = frac_calculus_check(a, samples, tol=1e-10)
        assert ok, dev
        ok, dev = frac_dirac_consequence_check(a, samples, tol=1e-10)
        assert ok, dev


def test_general_kernel_on_gaussian(rng):
    u = VariableUniverse.standard(1, 1)
    env = GaussianFunction(SuperPolynomial.one(u))
    for a in (0.3, -0.62, 1):
        assert general_kernel_check(a, [env]) <= 1e-8


def test_general_kernel_identity_at_zero():
    u = VariableUniverse.standard(1, 1)
    env = GaussianFunction(SuperPolynomial.one(u))
    assert general_kernel_check(0, [env]) <= 1e-8


def test_general_kernel_on_hermite_inputs(rng):
    u = VariableUniverse.standard(1, 1)
    span = psi_span(u, 3)
    samples = [span[1][3], span[-1][3]]
    for a in (0.5, -0.25):
        assert general_kernel_check(a, samples) <= 1e-8


def test_quarter_turn_phases_are_exact():
    half = Angle(Fraction(1, 2))
    assert half.phase(2) == 1j and half.phase(4) == -1
    assert half.phase(6) == complex(0, -1)
    assert Angle(0.5).phase(2) == 1j and Angle(-0.25).phase(4) == -1j
    assert Angle(Fraction(1, 3)).phase(3) == 1j
    assert abs(half.phase(1) - (1 + 1j) / 2 ** 0.5) <= 1e-15


def _spectral(f, a):
    """Exact psi expansion of f, each component rotated by
    e^(i alpha (2j+k)) in floating point."""
    span = psi_span(f.universe, f.poly.degree())
    coeffs = express_in_basis(f.poly, [psi.poly for (_, _, _, psi) in span])
    out = SuperPolynomial.zero(f.universe)
    for (j, k, _, psi), c in zip(span, coeffs):
        if c:
            out = out + psi.map_coefficients(to_float).poly.scale(
                to_float(c) * Angle(a).phase(2 * j + k))
    return out


@pytest.mark.parametrize("m, n", [(1, 1), (3, 1), (1, 2)])
def test_closed_form_matches_psi_expansion(m, n):
    # M = m - 2n outside -2N, where the psi family spans the class
    rng = random.Random(7000 + 10 * m + n)
    u = VariableUniverse.standard(m, n)
    for a in ORDERS:
        f = random_gaussian(u, rng, degree=4, nterms=5)
        got = frac_fourier(f, a)
        assert relative_deviation(got.poly, _spectral(f, a)) <= 1e-12
