import math
import sys
import threading
from fractions import Fraction

import pytest

from supertransform import hermite
from supertransform.expr import _render_terms, render_poly_text
from supertransform._linalg import SparseRREF
from supertransform._terms import add_into
from supertransform.harmonics import basis_place, harmonic_basis
from supertransform.hermite import (MAX_MONOMIALS, ch_coefficients,
                                    check_psi_orders, psi_element, psi_span,
                                    psi_tilde_element, series_info)
from supertransform.operators import laplace, scalar_square
from supertransform.scalars import (TEXT_NOTATION, ExactScalar,
                                    gamma_half_integer)
from supertransform.superalg import (GaussianFunction, SuperPolynomial,
                                     VariableUniverse, sp_mul, vector_square)
from tests.identities import GRID
from tests.oracles import (ch_explicit, fermionic_square_power,
                           rising_factorial, substitute_derivatives)


def test_ch_rodrigues_t0_identity():
    u = VariableUniverse.standard(2, 1)
    h = SuperPolynomial.bosonic_var(u, 0)
    assert psi_element(0, h).poly == h
    with pytest.raises(ValueError, match="harmonic"):
        psi_element(1, SuperPolynomial(u, {((2, 0), 0): ExactScalar.one()}))


def test_ch_rescaled_degree_two():
    # CH~_{2,M,0} = x^2 + M via the Laplacian route
    for m, n in [(1, 0), (2, 1), (1, 1), (3, 2)]:
        u = VariableUniverse.standard(m, n)
        got = psi_tilde_element(1, SuperPolynomial.one(u)).poly
        want = vector_square(u) + SuperPolynomial.scalar(u, u.superdim)
        assert got == want


def test_ch_rescaled_degree_two_on_harmonic_of_degree_one():
    # CH~_{2,M,1} = x^2 + 2 + M
    u = VariableUniverse.standard(2, 1)
    h = SuperPolynomial.bosonic_var(u, 1)
    got = psi_tilde_element(1, h).poly
    want = sp_mul(vector_square(u)
                  + SuperPolynomial.scalar(u, 2 + u.superdim), h)
    assert got == want


def test_rising_factorial():
    assert rising_factorial(Fraction(1, 2), 3) == Fraction(15, 8)
    assert rising_factorial(Fraction(5), 0) == 1


def test_ch_explicit_values():
    assert ch_explicit(0, 3, 2) == [ExactScalar.one()]
    # t=1, k=0: the closed formula gives x^2 + 2M
    for m_val in (1, 2, 3, -1):
        got = ch_explicit(1, m_val, 0)
        assert got == [ExactScalar.rational(2 * m_val), ExactScalar.one()]
    # M=-2n factorial variant at (t,k,n)=(1,0,2): x^2 - 8
    got = ch_explicit(1, -4, 0)
    assert got == [ExactScalar.rational(-8), ExactScalar.one()]
    with pytest.raises(ValueError, match="pole"):
        ch_explicit(3, -4, 0)   # n-k-t = 2-0-3 < 0


def test_explicit_vs_rodrigues_normalization_discrepancy():
    # The closed-form coefficients and the operator definition disagree:
    # explicit coeff_i = 2^(t-i) * operator-route coeff_i.  Recorded, not
    # patched; the operator route (computed by hermite.ch_coefficients)
    # is authoritative everywhere else.
    u = VariableUniverse.standard(1, 0)
    rod = psi_tilde_element(1, SuperPolynomial.one(u)).poly
    # as a polynomial in x^2 = -x1^2: [M, 1]
    assert rod == vector_square(u) + SuperPolynomial.scalar(u, u.superdim)
    exp = ch_explicit(1, 1, 0)
    assert exp == [ExactScalar.rational(2), ExactScalar.one()]  # x^2 + 2M
    # ratio per coefficient: 2^(t-i)
    for t in (1, 2, 3):
        for k in (0, 1):
            explicit = ch_explicit(t, 1, k)
            rodpoly = _rescaled_univariate(t, k)
            assert len(explicit) == len(rodpoly)
            for i, (e, r) in enumerate(zip(explicit, rodpoly)):
                assert e == ExactScalar.rational(2 ** (t - i)) * r


def test_ch_explicit_is_the_recursion_times_powers_of_two():
    # explicit coeff_i = 2^(t-i) c~_i wherever ch_explicit is defined,
    # its factorial branch at M in -2N included
    factorial_cases = 0
    for m_val in range(-8, 6):
        for k in range(5):
            for t in range(5):
                try:
                    explicit = ch_explicit(t, m_val, k)
                except ValueError:
                    continue
                factorial_cases += m_val <= -2 and m_val % 2 == 0
                want = [ExactScalar.rational(2 ** (t - i) * c)
                        for i, c in enumerate(ch_coefficients(t, m_val, k))]
                assert explicit == want, (t, m_val, k)
    assert factorial_cases == 34


# (m, n) shapes with M in {-5, -4, -2, -1, 0}; M = -2 and -4 are in -2N
_RECURSION_SHAPES = [(0, 1), (1, 1), (2, 1), (0, 2), (2, 2), (1, 3)]


def test_psi_recursion_matches_rodrigues_route():
    # the recursion against j applications of (d_x+x)^2 and of Delta
    # through the envelope, for every harmonic with k <= 3 and j <= 2
    cases = 0
    for m, n in _RECURSION_SHAPES:
        u = VariableUniverse.standard(m, n)
        for k in range(4):
            for h in harmonic_basis(k, "full", u):
                psi = psi_tilde = GaussianFunction(h)
                for j in range(3):
                    assert psi_element(j, h) == psi, (m, n, k, j)
                    assert psi_tilde_element(j, h) == psi_tilde, (m, n, k, j)
                    psi = scalar_square(psi)
                    psi_tilde = laplace(psi_tilde, "full")
                    cases += 1
    assert cases == 462


def test_psi_refuses_inhomogeneous_or_non_harmonic_input():
    u = VariableUniverse.standard(2, 1)
    x1 = SuperPolynomial.bosonic_var(u, 0)
    not_harmonic = sp_mul(x1, x1)
    inhomogeneous = x1 + SuperPolynomial.one(u)     # a sum of harmonics
    for fn, order in [(psi_element, 1), (psi_tilde_element, 1),
                      (psi_element, 0), (psi_tilde_element, 0)]:
        for h in (not_harmonic, inhomogeneous):
            with pytest.raises(ValueError, match="homogeneous harmonic"):
                fn(order, h)


def test_memoized_order_check_still_refuses_on_every_call():
    u = VariableUniverse.standard(3, 2)
    for j, k, message in [(-1, 2, "must be non-negative"),
                          (100000, 14, f"MAX_MONOMIALS = {MAX_MONOMIALS}")]:
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                check_psi_orders(j, k, u)
    # a valid call memoizes (1, 2, u); the harmonicity and homogeneity
    # checks still run on every element after it
    u = VariableUniverse.standard(2, 1)
    x1, x2 = (SuperPolynomial.bosonic_var(u, i) for i in range(2))
    psi_element(1, sp_mul(x1, x2))
    hits = check_psi_orders.cache_info().hits
    for h in (sp_mul(x1, x1), sp_mul(x1, x2) + x1):
        with pytest.raises(ValueError, match="homogeneous harmonic"):
            psi_element(1, h)
    assert check_psi_orders.cache_info().hits == hits + 2


def _rescaled_univariate(t, k):
    """Operator-route CH~_{2t,M,k} coefficients at (m,n)=(1,0), read off
    the recursion c_i' = c_{i-1} + (2k+M+4i)c_i + (2i+2)(2k+M+2i)c_{i+1}."""
    m_val = 1
    coeffs = {0: Fraction(1)}
    for _ in range(t):
        nxt = {}
        for i in range(0, t + 1):
            c = (coeffs.get(i - 1, Fraction(0))
                 + (2 * k + m_val + 4 * i) * coeffs.get(i, Fraction(0))
                 + (2 * i + 2) * (2 * k + m_val + 2 * i)
                 * coeffs.get(i + 1, Fraction(0)))
            if c:
                nxt[i] = c
        coeffs = nxt
    return [ExactScalar.rational(coeffs.get(i, Fraction(0)))
            for i in range(t + 1)]


def test_psi_tilde_differs_from_psi():
    u = VariableUniverse.standard(1, 1)
    h = SuperPolynomial.one(u)
    assert psi_tilde_element(1, h) != psi_element(1, h)
    # psi~ uses Delta only: one application reproduces CH~_2 = x^2 + M
    want = GaussianFunction(vector_square(u)
                            + SuperPolynomial.scalar(u, u.superdim))
    assert psi_tilde_element(1, h) == want


def _rank(polys):
    rref = SparseRREF()
    count = 0
    for p in polys:
        row = {key: c.rational_value() for key, c in p.terms.items()}
        if rref.insert(row) is not None:
            count += 1
    return count


def test_psi_family_independence_m1n1():
    u = VariableUniverse.standard(1, 1)   # M = -1, not in -2N
    fam = [f.poly for (_, _, _, f) in psi_span(u, 4)]
    assert _rank(fam) == len(fam)


def test_psi_family_degenerates_at_superdim_zero():
    # At (2,1) the super-dimension is 0 (in -2N): x^2 is itself harmonic
    # and psi_{1,0,0} = 4 x^2 exp(x^2/2) collides with the k=2 family,
    # so the family is NOT independent -- the basis claim's M-condition
    # is sharp.
    u = VariableUniverse.standard(2, 1)
    assert not laplace(vector_square(u))     # x^2 harmonic at M=0
    fam = [f.poly for (_, _, _, f) in psi_span(u, 2)]
    assert _rank(fam) == len(fam) - 1

    psi10 = psi_element(1, SuperPolynomial.one(u))
    assert psi10 == GaussianFunction(vector_square(u)).scale(4)


def test_substitute_derivatives_corollary():
    # H_l(d_x) exp(x^2/2) = H_l(x) exp(x^2/2) for harmonics, degree <= 3
    for m, n in [(1, 1), (2, 1), (2, 2)]:
        u = VariableUniverse.standard(m, n)
        env = GaussianFunction(SuperPolynomial.one(u))
        for l in range(4):
            for h in harmonic_basis(l, "full", u).elements[:4]:
                lhs = substitute_derivatives(h, env)
                assert lhs == GaussianFunction(h)


def test_converse_lemma_detects_x2_component():
    # p = x^2 h + h' satisfies p(d_x)G = p(x)G only when the x^2 part
    # vanishes (M not in -2N)
    u = VariableUniverse.standard(1, 1)   # M = -1
    env = GaussianFunction(SuperPolynomial.one(u))
    h_prime = harmonic_basis(2, "full", u).elements[0]
    p_bad = vector_square(u) + h_prime
    assert substitute_derivatives(p_bad, env) != GaussianFunction(p_bad)
    assert substitute_derivatives(h_prime, env) == GaussianFunction(h_prime)
    for deg in (1, 3):
        h = harmonic_basis(deg, "full", u).elements[0]
        assert substitute_derivatives(h, env) == GaussianFunction(h)


def substhermite_check(k, l, j, m, n):
    """Exact verdict on the combinatorial identity coupling the two
    explicit Clifford-Hermite families to f_{k,l-2k-j,j}.

    Both sides are expanded as polynomials in (u, v) = (xbos^2, xfer^2)
    and compared coefficient-wise.
    """
    p = l - 2 * k - j
    if p < 0 or j > n or k + j > n:
        raise ValueError("indices outside the identity's ranges")
    lhs = {}
    for i in range(k + 1):
        gamma_inv = _inv_gamma_half(m + 2 * (l - k - j - i))
        outer = ExactScalar.rational(
            math.comb(k, i) * math.factorial(n - j - i)) * gamma_inv
        bos = ch_explicit(k - i, m, l - 2 * k - j)
        fer = ch_explicit(i, -2 * n, j)
        for pu, cu in enumerate(bos):
            for pv, cv in enumerate(fer):
                add_into(lhs, (pu, pv), outer * cu * cv)
    rhs = {}
    for i in range(k + 1):
        gamma_inv = _inv_gamma_half(m + 2 * (p + k - i))
        rhs[(k - i, i)] = ExactScalar.rational(
            math.comb(k, i) * math.factorial(n - j - i)) * gamma_inv
    return lhs == rhs


def _inv_gamma_half(numerator):
    return gamma_half_integer(numerator).inverse()


def test_substhermite_identity():
    # k=0 collapses to f_{0,l-j,j} on both sides
    assert substhermite_check(0, 2, 1, 2, 1)
    assert substhermite_check(1, 2, 0, 2, 1)
    assert substhermite_check(1, 3, 1, 3, 2)
    with pytest.raises(ValueError, match="ranges"):
        substhermite_check(2, 2, 1, 2, 1)


def test_phi_eigenfunctions_of_fourier():
    # F(phi_{j,k,l}) = (+/- i)^(j+k) phi_{j,k,l} through the Clifford-Weyl
    # layer, at the capped monogenic configs
    from supertransform.cliffweyl import monogenic_basis
    from supertransform.fourier import super_fourier_cvalued
    from supertransform.hermite import phi_element
    for m, n in [(1, 1), (2, 1)]:
        u = VariableUniverse.standard(m, n)
        for k in (0, 1, 2):
            basis = monogenic_basis(k, u)
            for mk in basis[:3]:
                for j in (0, 1, 2):
                    phi = phi_element(j, mk)
                    for sign in ("+", "-"):
                        phase = ExactScalar.i_power(j + k)
                        if sign == "-":
                            phase = phase.conjugate()
                        assert super_fourier_cvalued(phi, sign) == \
                            phi.scale(phase), (m, n, j, k, sign)


def test_explicit_fermionic_variant_same_ratio():
    # the factorial variant for M=-2n carries the same 2^(t-i) offset
    # against the operator route, per coefficient: the Laplacian route on
    # a fermionic harmonic must equal sum_i explicit_i/2^(t-i) (xfer^2)^i h
    u = VariableUniverse.standard(0, 3)   # M = -6
    for t in (1, 2):
        for k in (0, 1):
            explicit = ch_explicit(t, -6, k)
            h = harmonic_basis(k, "fermionic", u).elements[0]
            rod = psi_tilde_element(t, h).poly
            claim = SuperPolynomial.zero(u)
            for i, c in enumerate(explicit):
                w = c * ExactScalar.rational(2 ** (t - i)).inverse()
                claim = claim + sp_mul(fermionic_square_power(u, i),
                                       h).scale(w)
            assert rod == claim, (t, k)


@pytest.mark.parametrize("fn, order", [(psi_element, -1),
                                       (psi_element, -2),
                                       (psi_tilde_element, -1),
                                       (psi_tilde_element, -2)])
def test_negative_hermite_order_is_refused(fn, order):
    u = VariableUniverse.standard(2, 1)
    h = SuperPolynomial.bosonic_var(u, 0)
    with pytest.raises(ValueError, match="must be non-negative"):
        fn(order, h)


def test_psi_span_cache_hits_and_rebuilds_equal_output():
    u = VariableUniverse.standard(1, 1)
    first = psi_span(u, 2)
    hits = psi_span.cache_info().hits
    assert psi_span(u, 2) is first
    assert psi_span.cache_info().hits == hits + 1
    psi_span.cache_clear()
    assert psi_span.cache_info().currsize == 0
    rebuilt = psi_span(u, 2)
    assert rebuilt is not first and rebuilt == first


def _cold_store(monkeypatch, bound=10 ** 9):
    """Set hermite.MAX_STORED_TERMS to `bound` and empty the series
    store, so a test starts cold whatever earlier tests stored."""
    monkeypatch.setattr(hermite, "MAX_STORED_TERMS", bound)
    hermite._SERIES.clear()


def _user_copy(h):
    """A polynomial equal to h that no basis built."""
    return SuperPolynomial(h.universe, dict(h.terms))


def _held_terms():
    """The terms of every series in the store, counted from the store."""
    return sum(len(f.terms) for f in hermite._SERIES.values())


def test_store_route_equals_the_user_copy_route_on_every_shape(monkeypatch):
    # the first call builds and stores, the second returns the stored
    # object; both give the terms of the user copy's route in its order.
    # The copy, equal to the element, has no place, so it is checked and
    # built on every call
    _cold_store(monkeypatch)
    cases = 0
    for m, n in GRID:
        u = VariableUniverse.standard(m, n)
        for k in range(4):
            for sector in ("bosonic", "fermionic", "full"):
                for l, h in enumerate(harmonic_basis(k, sector, u)):
                    user = _user_copy(h)
                    assert basis_place(h) == (k, sector, l)
                    assert basis_place(user) is None
                    for j in (1, 0, 2):
                        for fn in (psi_element, psi_tilde_element):
                            want = list(fn(j, user).terms.items())
                            first = fn(j, h)
                            assert fn(j, h) is first
                            assert list(first.terms.items()) == want, \
                                (m, n, k, sector, j)
                            cases += 1
    assert cases == 9012


def _fresh_copy(f):
    """A Gaussian function equal to f that shares nothing with it."""
    return GaussianFunction(SuperPolynomial(f.universe, dict(f.terms)))


def test_stored_series_are_shared_and_keep_the_printers_text(monkeypatch):
    # a repeated call returns the stored object, whose text is the
    # printer's on an equal fresh copy and renders to the identical string
    _cold_store(monkeypatch)
    cases = 0
    for m, n in GRID:
        u = VariableUniverse.standard(m, n)
        for k in range(4):
            for h in harmonic_basis(k, "full", u):
                for j in (1, 0, 2):
                    for fn in (psi_element, psi_tilde_element):
                        f = fn(j, h)
                        assert f.text is None
                        text = render_poly_text(f)
                        assert text == _render_terms(_fresh_copy(f),
                                                     TEXT_NOTATION)
                        assert f.text is text
                        assert fn(j, h) is f
                        assert render_poly_text(fn(j, h)) is text
                        cases += 1
    assert cases == 6198


def test_store_route_equals_the_user_copy_route_at_orders_out_of_turn(
        monkeypatch):
    # j out of turn and up to 4, psi and psi~ interleaved on each element,
    # so a later order is built while lower ones are already stored
    _cold_store(monkeypatch)
    cases = 0
    for m, n in [(0, 1), (0, 2), (1, 1), (2, 1), (2, 2), (2, 3), (3, 2)]:
        u = VariableUniverse.standard(m, n)
        for k in range(4):
            basis = harmonic_basis(k, "full", u)
            for j in (2, 0, 4, 1, 3):
                for h in basis:
                    user = _user_copy(h)
                    for fn in (psi_element, psi_tilde_element):
                        got, want = fn(j, h), fn(j, user)
                        assert list(got.terms.items()) == \
                            list(want.terms.items()), (m, n, k, j)
                        cases += 1
    assert cases == 2720
    assert series_info().series == cases


_REFUSALS = [(-1, "Hermite order j must be non-negative"),
             (100000, f"over MAX_MONOMIALS = {MAX_MONOMIALS}")]


def _refuse_all(basis):
    for h in basis:
        for fn in (psi_element, psi_tilde_element):
            for j, message in _REFUSALS:
                for _ in range(2):
                    with pytest.raises(ValueError, match=message):
                        fn(j, h)


def test_refusals_raise_on_every_call_and_store_nothing(monkeypatch):
    u = VariableUniverse.standard(3, 2)
    basis = harmonic_basis(2, "full", u)
    _cold_store(monkeypatch)
    start = series_info()
    _refuse_all(basis)
    assert series_info() == start and start.series == 0
    stored = [psi_element(2, h) for h in basis]
    _refuse_all(basis)   # still raises once the orders' series are stored
    info = series_info()
    assert (info.series, info.builds) == (basis.dimension,
                                          start.builds + basis.dimension)
    assert all(psi_element(2, h) is f for h, f in zip(basis, stored))


def test_user_copies_and_refusals_store_nothing_first_calls_store(
        monkeypatch):
    u = VariableUniverse.standard(2, 2)
    basis = harmonic_basis(2, "full", u)
    _cold_store(monkeypatch)
    start = series_info()
    for h in basis:
        user = _user_copy(h)
        for fn in (psi_element, psi_tilde_element):
            assert fn(1, user) is not fn(1, user)
            with pytest.raises(ValueError, match="must be non-negative"):
                fn(-1, h)
    assert series_info() == start and start.series == 0
    for h in basis:
        f = psi_element(2, h)      # the first call builds and stores
        assert psi_element(2, h) is f
    assert series_info().series == basis.dimension
    for h in basis:
        psi_tilde_element(2, h)    # another key: misses and stores
    after = series_info()
    assert after.series == 2 * basis.dimension
    for h in basis:
        with pytest.raises(ValueError, match="over MAX_MONOMIALS"):
            psi_element(100000, h)
    assert series_info() == after


def test_non_harmonic_input_refused_after_series_are_stored():
    u = VariableUniverse.standard(2, 1)
    basis = harmonic_basis(2, "full", u)
    for h in basis:
        psi_element(1, h)
    x1, x2 = (SuperPolynomial.bosonic_var(u, i) for i in range(2))
    for bad in (sp_mul(x1, x1), sp_mul(x1, x2) + x1, basis.elements[0] + x1):
        assert basis_place(bad) is None
        for fn in (psi_element, psi_tilde_element):
            with pytest.raises(ValueError, match="homogeneous harmonic"):
                fn(1, bad)


def test_basis_elements_take_no_laplacian_user_input_does(monkeypatch):
    # a cold pass over a basis runs no Laplacian, as harmonic_basis builds
    # its elements harmonic; user input is still checked on every call
    u = VariableUniverse.standard(3, 2)
    basis = harmonic_basis(3, "full", u)
    x1, x2 = (SuperPolynomial.bosonic_var(u, i) for i in range(2))
    calls = [(fn, j, h) for j in (2, 0, 1)
             for fn in (psi_element, psi_tilde_element) for h in basis]

    def no_laplace(*args):
        raise AssertionError("a Laplacian on the psi route")

    _cold_store(monkeypatch)
    with monkeypatch.context() as patch:
        patch.setattr(hermite, "laplace", no_laplace)
        got = [fn(j, h) for fn, j, h in calls]
        assert series_info().series == len(calls)
        # refused by homogeneity before any Laplacian
        with pytest.raises(ValueError, match="homogeneous harmonic"):
            psi_element(1, sp_mul(x1, x2) + x1)
        # a copy equal to an element is checked
        with pytest.raises(AssertionError, match="psi route"):
            psi_element(1, _user_copy(basis.elements[0]))
    assert got == [fn(j, _user_copy(h)) for fn, j, h in calls]
    with pytest.raises(ValueError, match="homogeneous harmonic"):
        psi_element(1, sp_mul(x1, x1))


def test_store_bound_clears_and_results_stay_equal(monkeypatch):
    u = VariableUniverse.standard(3, 2)
    basis = harmonic_basis(3, "full", u)
    calls = [(fn, j, h) for j in range(5)
             for fn in (psi_element, psi_tilde_element) for h in basis]
    want = [fn(j, _user_copy(h)) for fn, j, h in calls]
    _cold_store(monkeypatch, 40)
    clears = series_info().clears
    got = []
    for fn, j, h in calls:
        got.append(fn(j, h))
        assert series_info().terms == _held_terms() <= 40
    assert got == want
    assert series_info().clears > clears


def test_a_series_over_the_bound_is_built_on_every_call_not_stored(
        monkeypatch):
    u = VariableUniverse.standard(3, 2)
    h = harmonic_basis(3, "full", u).elements[0]
    want = psi_element(4, _user_copy(h))
    _cold_store(monkeypatch, 40)
    start = series_info()
    big = psi_element(4, h)
    assert len(big.terms) > 40 and big == want
    again = psi_element(4, h)
    assert again is not big and again == want
    info = series_info()
    assert (info.series, info.terms, info.clears) == (0, 0, start.clears)
    assert info.builds == start.builds + 2


def test_store_reads_right_while_other_threads_fill_and_clear_it(
        monkeypatch):
    # four threads run psi and psi~ over two bases with a store bound of
    # 40 terms, so another thread stores a series or clears the store
    # between most calls; every value must be the user copy's
    u = VariableUniverse.standard(3, 2)
    bases = [harmonic_basis(k, "full", u) for k in (1, 2)]
    calls = [(fn, j, h) for basis in bases for h in basis
             for j in (3, 1, 4, 0, 2)
             for fn in (psi_element, psi_tilde_element)]
    want = [fn(j, _user_copy(h)) for fn, j, h in calls]
    _cold_store(monkeypatch, 40)
    clears = series_info().clears
    wrong, done = [], []

    def run(start):
        for i in range(start, start + len(calls)):
            i %= len(calls)
            fn, j, h = calls[i]
            if fn(j, h) != want[i]:
                wrong.append(i)
        done.append(start)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(37 * i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(done) == 4 and not wrong, wrong[:3]
    assert series_info().terms == _held_terms() <= 40
    assert series_info().clears > clears


def test_series_info_reads_a_cold_and_a_warm_pass(monkeypatch):
    u = VariableUniverse.standard(2, 1)
    basis = harmonic_basis(3, "full", u)
    dim = basis.dimension
    _cold_store(monkeypatch)
    start = series_info()
    assert (start.series, start.terms) == (0, 0)

    def one_pass():
        for j in (0, 1):
            for h in basis:
                psi_element(j, h)
        return series_info()

    # cold: every call misses, builds and stores; warm: every call hits,
    # and a hit counts nothing
    cold = one_pass()
    assert cold == (2 * dim, _held_terms(), start.builds + 2 * dim,
                    start.clears)
    assert cold.terms > 0
    assert one_pass() == cold
    hermite._SERIES.clear()
    assert series_info() == (0, 0, cold.builds, cold.clears + 1)
