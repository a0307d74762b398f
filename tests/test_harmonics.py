import pytest

from supertransform import harmonics, operators, superalg
from supertransform.harmonics import (basis_place, decomposition_check,
                                      f_poly, harmonic_basis)
from supertransform.operators import euler, laplace
from supertransform.scalars import ExactScalar
from supertransform.superalg import (SuperPolynomial, VariableUniverse,
                                     homogeneous_monomial_count, sp_mul,
                                     vector_square)
from tests.identities import GRID
from tests.oracles import (decomposition_check_by_products,
                           express_in_basis, f_poly_by_products,
                           fermionic_square, fischer_decompose,
                           fischer_fermionic, harmonic_basis_by_nullspace)


def _binom(a, b):
    if b < 0 or b > a:
        return 0
    out = 1
    for i in range(b):
        out = out * (a - i) // (i + 1)
    return out


def classical_dim_bosonic(m, k):
    if k == 0:
        return 1
    return _binom(m + k - 1, k) - _binom(m + k - 3, k - 2)


def classical_dim_fermionic(n, k):
    if k > n:
        return 0
    return _binom(2 * n, k) - _binom(2 * n, k - 2)


def test_fermionic_degree_one_basis():
    u = VariableUniverse.standard(0, 2)
    basis = harmonic_basis(1, "fermionic", u)
    assert basis.dimension == 4


def test_fermionic_degree_two_dimension():
    u = VariableUniverse.standard(0, 2)
    assert harmonic_basis(2, "fermionic", u).dimension == 5


def test_bosonic_degree_two_dimension():
    u = VariableUniverse.standard(3, 0)
    assert harmonic_basis(2, "bosonic", u).dimension == 5


def test_sector_dimensions_match_classical_formulas():
    for m in range(1, 5):
        for k in range(6):
            u = VariableUniverse.standard(m, 1)
            assert harmonic_basis(k, "bosonic", u).dimension == \
                classical_dim_bosonic(m, k)
    for n in range(1, 4):
        for k in range(2 * n + 1):
            u = VariableUniverse.standard(1, n)
            assert harmonic_basis(k, "fermionic", u).dimension == \
                classical_dim_fermionic(n, k)


def test_basis_elements_are_harmonic_and_homogeneous():
    # hermite trusts every element harmonic_basis builds and never checks
    # it, so this pins the trust on every grid shape and sector (every
    # k <= 4 there is under MAX_BASIS_MONOMIALS)
    cases = 0
    for m, n in GRID:
        u = VariableUniverse.standard(m, n)
        for k in range(5):
            for sector in ("bosonic", "fermionic", "full"):
                for h in harmonic_basis(k, sector, u):
                    assert not laplace(h, sector)
                    assert not laplace(h, "full")
                    assert euler(h) == h.scale(k)
                    cases += 1
    assert cases == 2746


def test_f_poly_small_cases():
    u = VariableUniverse.standard(2, 1)
    # k=1, p=0, q=0 at (2,1): both coefficients are 1, so f = x^2
    assert f_poly(1, 0, 0, u) == vector_square(u)

    u3 = VariableUniverse.standard(3, 1)
    f = f_poly(1, 0, 0, u3)
    bos = SuperPolynomial.zero(u3)
    for i in range(3):
        exp = tuple(2 if t == i else 0 for t in range(3))
        bos = bos + SuperPolynomial(u3, {(exp, 0): ExactScalar.rational(-1)})
    want = bos.scale(ExactScalar.rational(4, 3)
                     * ExactScalar.pi_half_power(-1)) + \
        fermionic_square(u3).scale(ExactScalar.rational(2)
                                   * ExactScalar.pi_half_power(-1))
    assert f == want

    # k=0 collapses to the single i=0 term (n-q)!/Gamma(m/2+p)
    got = f_poly(0, 1, 1, u)
    assert got == SuperPolynomial.scalar(u, 1)   # 0!/Gamma(2) = 1


def _decomposition_shapes(n, k_max):
    """The (l, p, q) at which decomposition_check forms f_poly over the
    degrees k <= k_max of a universe with n pairs."""
    for k in range(k_max + 1):
        for j in range(min(n, k - 1)):
            for l in range(1, min(n - j, (k - j) // 2) + 1):
                yield l, k - 2 * l - j, j


@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("m", range(1, 5))
def test_f_poly_equals_the_product_route(m, n):
    # the grid holds M = 0 at (2,1) and (4,2), M = -2 at (2,2) and (4,3)
    # and M = -4 at (2,3); k = 0 is the only shape at n = 0
    u = VariableUniverse.standard(m, n)
    shapes = {(0, p, 0) for p in range(3)} | set(_decomposition_shapes(n, 8))
    for l, p, q in sorted(shapes):
        assert f_poly(l, p, q, u) == f_poly_by_products(l, p, q, u), \
            (l, p, q)


def test_f_poly_gamma_guard():
    u = VariableUniverse.standard(1, 1)
    with pytest.raises(ValueError):
        f_poly(2, -3, 0, u)   # Gamma argument <= 0 for some i


def test_decomposition_small_cases():
    u = VariableUniverse.standard(2, 1)
    rep = decomposition_check(0, u)
    assert rep["dims_match"] and rep["dim_nullspace"] == 1

    rep = decomposition_check(2, u)
    assert rep["dims_match"]
    assert rep["dim_nullspace"] == 7
    assert rep["products_harmonic"]

    # n = 0 reduction: H_k = H_k^bosonic
    u0 = VariableUniverse.standard(3, 0)
    for k in range(4):
        rep = decomposition_check(k, u0)
        assert rep["dims_match"]
        assert rep["dim_nullspace"] == classical_dim_bosonic(3, k)


_BROKEN = [(3, 2, (-1, 0)), (2, 2, (0, 0)), (4, 3, (0, 0))]


@pytest.mark.parametrize("m, n, radical", _BROKEN)
def test_decomposition_check_catches_a_broken_product(monkeypatch, m, n,
                                                      radical):
    # c_1 of f_{1,2,0} doubled: a sqrt(pi) radical at odd m, a rational
    # at even m.  The closed rule and the product oracle both read it, so
    # both list (1, 2, 0) once per (H_bos, H_fer) pair: 5 at (3,2), 2 at
    # (2,2) and 9 at (4,3)
    u = VariableUniverse.standard(m, n)
    assert decomposition_check(4, u)["products_harmonic"]
    real = harmonics.f_coefficients

    def broken(l, p, j, universe):
        c = real(l, p, j, universe)
        if (l, p, j) == (1, 2, 0):
            assert set(c[1].terms) == {radical}
            c[1] = c[1] * 2
        return c

    monkeypatch.setattr(harmonics, "f_coefficients", broken)
    report = decomposition_check(4, u)
    assert report == decomposition_check_by_products(4, u)
    assert not report["products_harmonic"]
    assert report["dims_match"]
    assert report["product_failures"] == \
        [(1, 2, 0)] * harmonic_basis(2, "bosonic", u).dimension


@pytest.mark.parametrize("m, n, radical", _BROKEN)
def test_product_oracle_catches_a_broken_monomial(monkeypatch, m, n,
                                                  radical):
    # one monomial of f_{1,2,0} doubled: the product route parts f by
    # radical, and a dropped integer part would pass silently.  The
    # closed rule reads coefficients, not monomials; how f_poly assembles
    # its monomials is pinned by test_f_poly_equals_the_product_route
    u = VariableUniverse.standard(m, n)
    assert decomposition_check_by_products(4, u)["products_harmonic"]
    real_f_poly = harmonics.f_poly

    def broken_f_poly(k, p, q, universe):
        f = real_f_poly(k, p, q, universe)
        if (k, p, q) != (1, 2, 0):
            return f
        (key, c), *_ = f.sorted_terms()
        assert set(c.terms) == {radical}
        return f + SuperPolynomial(universe, {key: c})

    monkeypatch.setattr(harmonics, "f_poly", broken_f_poly)
    report = decomposition_check_by_products(4, u)
    assert not report["products_harmonic"]
    assert report["dims_match"]
    assert report["product_failures"] and \
        set(report["product_failures"]) == {(1, 2, 0)}


def test_fischer_family_counts():
    for n in range(1, 4):
        u = VariableUniverse.standard(0, n)
        for k in range(2 * n + 1):
            fam = fischer_fermionic(k, u)
            assert len(fam) == _binom(2 * n, k)


def test_fischer_decompose_identity_degree_zero():
    u = VariableUniverse.standard(0, 1)
    parts = fischer_decompose(SuperPolynomial.one(u))
    assert parts == [(0, SuperPolynomial.one(u))]


def test_fischer_decompose_top_form_n1():
    u = VariableUniverse.standard(0, 1)
    q1q2 = SuperPolynomial(u, {((), 0b11): ExactScalar.one()})
    parts = fischer_decompose(q1q2)
    assert parts == [(1, SuperPolynomial.one(u))]


def test_fischer_decompose_mixed_n2():
    u = VariableUniverse.standard(0, 2)
    q1q2 = SuperPolynomial(u, {((), 0b0011): ExactScalar.one()})
    parts = dict(fischer_decompose(q1q2))
    assert set(parts) == {0, 1}
    assert parts[1] == SuperPolynomial.scalar(u, ExactScalar.rational(1, 2))
    assert not laplace(parts[0], "fermionic")
    rebuilt = sp_mul(fermionic_square(u), parts[1]) + parts[0]
    assert rebuilt == q1q2


def test_express_in_basis_with_radical_coefficients():
    u = VariableUniverse.standard(1, 1)
    b1 = SuperPolynomial.one(u)
    b2 = SuperPolynomial.bosonic_var(u, 0)
    target = b1.scale(ExactScalar.sqrt2()) + \
        b2.scale(ExactScalar.i() * ExactScalar.pi_half_power(1))
    coeffs = express_in_basis(target, [b1, b2])
    assert coeffs[0] == ExactScalar.sqrt2()
    assert coeffs[1] == ExactScalar.i() * ExactScalar.pi_half_power(1)
    outside = SuperPolynomial(u, {((2,), 0): ExactScalar.one()})
    assert express_in_basis(outside, [b1, b2]) is None


def test_decomposition_check_refuses_m_zero():
    with pytest.raises(ValueError, match="m >= 1"):
        decomposition_check(2, VariableUniverse.standard(0, 2))


def test_harmonic_basis_cache_hits_and_rebuilds_equal_output():
    u = VariableUniverse.standard(2, 1)
    first = harmonic_basis(3, "full", u)
    hits = harmonic_basis.cache_info().hits
    assert harmonic_basis(3, "full", u) is first
    assert harmonic_basis.cache_info().hits == hits + 1
    assert isinstance(first.elements, tuple)
    harmonic_basis.cache_clear()
    assert harmonic_basis.cache_info().currsize == 0
    rebuilt = harmonic_basis(3, "full", u)
    assert rebuilt is not first and rebuilt.elements == first.elements


def test_basis_place_is_by_identity_and_outlives_a_cache_clear():
    u = VariableUniverse.standard(2, 1)
    first = harmonic_basis(3, "bosonic", u)
    for l, h in enumerate(first):
        assert basis_place(h) == (3, "bosonic", l)
        assert basis_place(SuperPolynomial(u, dict(h.terms))) is None
    harmonic_basis.cache_clear()
    rebuilt = harmonic_basis(3, "bosonic", u)
    # both the old and the rebuilt elements keep their one place
    for l, (old, new) in enumerate(zip(first, rebuilt)):
        assert old is not new and old == new
        assert basis_place(old) == basis_place(new) == (3, "bosonic", l)
    assert basis_place(vector_square(u)) is None


@pytest.mark.parametrize("k, sector", [(-1, "full"), (2, "mixed")])
def test_harmonic_basis_refusals_raise_on_every_call(k, sector):
    u = VariableUniverse.standard(2, 1)
    for _ in range(2):
        with pytest.raises(ValueError):
            harmonic_basis(k, sector, u)


def test_decomposition_check_builds_each_basis_once(monkeypatch):
    # each of the 9 bases is built once per process; the 3 fermionic ones
    # are cleared pair products, the others extend by CK
    calls = []
    real = harmonics._pair_products

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(harmonics, "_pair_products", counting)
    harmonic_basis.cache_clear()
    u = VariableUniverse.standard(3, 2)
    first = decomposition_check(6, u)
    assert harmonic_basis.cache_info().misses == 9
    assert len(calls) == 3
    assert decomposition_check(6, u) == first
    assert harmonic_basis.cache_info().misses == 9
    assert len(calls) == 3


def _oracle_shapes():
    # the CK grid (m 1-4, n 0-3) and the pair-product grid (m 0-2, n 0-6)
    return sorted({(m, n) for m in range(1, 5) for n in range(4)}
                  | {(m, n) for m in range(3) for n in range(7)})


@pytest.mark.parametrize("m, n", _oracle_shapes())
def test_ck_extension_equals_the_nullspace_route(m, n):
    # the grid holds M = 0 at (2,1) and (4,2), M = -2 at (2,2) and (4,3)
    # and M = -4 at (2,3); the budget refuses (4,3) at k = 6 and 7.  The
    # pair products need their clearing from n = 5 on (first at (0,5),
    # k = 4), and at m = 0 the bosonic sector is the constant alone
    u = VariableUniverse.standard(m, n)
    for k in range(max(8, 2 * n + 2)):
        if homogeneous_monomial_count(u, k) > harmonics.MAX_BASIS_MONOMIALS:
            continue
        for sector in ("bosonic", "fermionic", "full"):
            assert harmonic_basis(k, sector, u).elements == \
                harmonic_basis_by_nullspace(k, sector, u), (k, sector)


def test_fermionic_dimensions_match_the_binomial_identity():
    # dim = C(2n,k) - C(2n,k-2) up to k = n and 0 above, past the top
    # degree 2n too, on every shape (m <= 2, n <= 11) within the budget
    shapes = 0
    for m in range(3):
        for n in range(12):
            u = VariableUniverse.standard(m, n)
            for k in range(2 * n + 2):
                if homogeneous_monomial_count(u, k) > \
                        harmonics.MAX_BASIS_MONOMIALS:
                    continue
                shapes += 1
                assert harmonic_basis(k, "fermionic", u).dimension == \
                    classical_dim_fermionic(n, k), (m, n, k)
    assert shapes == 226


@pytest.mark.parametrize("n", range(3))
def test_bosonic_basis_at_m_zero_is_the_constant_alone(n):
    u = VariableUniverse.standard(0, n)
    assert harmonic_basis(0, "bosonic", u).elements == \
        (SuperPolynomial.one(u),)
    for k in range(1, 2 * n + 2):
        assert harmonic_basis(k, "bosonic", u).elements == ()


def test_decomposition_check_forms_no_product(monkeypatch):
    # on warm bases the coupling is checked on the f_poly coefficients
    # alone: no Laplacian, no product and no read of an element's place
    u = VariableUniverse.standard(3, 2)
    first = decomposition_check(6, u)
    misses = harmonic_basis.cache_info().misses
    calls = []

    def counting(name):
        return lambda *args, **kwargs: calls.append(name)

    for module, name in ((operators, "laplace"), (harmonics, "laplace"),
                         (superalg, "sp_mul")):
        monkeypatch.setattr(module, name, counting(name))
    monkeypatch.setattr(harmonics, "_PLACES", None)
    assert decomposition_check(6, u) == first
    assert calls == []
    assert harmonic_basis.cache_info().misses == misses
