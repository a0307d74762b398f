import pytest

from supertransform import _linalg, cliffweyl
from supertransform.cliffweyl import (CValued, CWElement, _cw_keys, _lift,
                                      _mul_keys, cw_mul, dirac_apply,
                                      monogenic_basis, vector_mul)
from supertransform.operators import laplace
from supertransform.scalars import ExactScalar
from supertransform.superalg import (SuperPolynomial, VariableUniverse,
                                     homogeneous_monomials)
from tests.conftest import random_poly
from tests.oracles import bounded_exps, mul_keys_by_combos


def test_orthogonal_square():
    e1 = CWElement.e(2, 1, 0)
    assert cw_mul(e1, e1) == CWElement.one(2, 1, ExactScalar.rational(-1))


def test_weyl_reordering():
    # E2 * E1 = E1 E2 - 1 in the ordered basis
    g1 = CWElement.eg(0, 1, 0)
    g2 = CWElement.eg(0, 1, 1)
    got = cw_mul(g2, g1)
    want = cw_mul(g1, g2) - CWElement.one(0, 1)
    assert got == want
    assert (0, (1, 1)) in got.terms


def test_mixed_anticommutation():
    e1 = CWElement.e(1, 1, 0)
    g1 = CWElement.eg(1, 1, 0)
    assert not (cw_mul(e1, g1) + cw_mul(g1, e1))


def test_cross_pair_and_same_parity_commute():
    for i, j in [(0, 2), (1, 3), (0, 3), (2, 1)]:
        a = CWElement.eg(0, 2, i)
        b = CWElement.eg(0, 2, j)
        assert cw_mul(a, b) == cw_mul(b, a)


def test_normal_ordering_confluent(rng):
    # random words of <= 6 generators reduce identically when folded
    # left-to-right and right-to-left
    m, n = 2, 2
    gens = [CWElement.e(m, n, i) for i in range(m)] + \
        [CWElement.eg(m, n, j) for j in range(2 * n)]
    for _ in range(40):
        word = [rng.choice(gens) for _ in range(rng.randint(2, 6))]
        left = word[0]
        for g in word[1:]:
            left = cw_mul(left, g)
        right = word[-1]
        for g in reversed(word[:-1]):
            right = cw_mul(g, right)
        assert left == right


def test_dirac_of_x_squared():
    # Lemma with s=1, k=0: d_x(x^2 * 1) = 2x
    u = VariableUniverse.standard(2, 1)
    one = CValued.from_scalar(SuperPolynomial.one(u))
    got = dirac_apply(vector_pow_mul(one, 2))
    assert got == vector_mul(one).scale(2)


def vector_pow_mul(f, j):
    """x^j f, as j products with the vector variable."""
    for _ in range(j):
        f = vector_mul(f)
    return f


def power_rule_check(s, r_k, variant):
    """Exact check of the three basic Dirac/Laplace rules.

    r_k must be homogeneous of degree k; variant selects which of the
    three identities is tested.  Returns True iff it holds exactly.
    """
    r_k = _lift(r_k)
    if not r_k.is_homogeneous():
        raise ValueError("input must be homogeneous")
    u = r_k.universe
    big_m = u.superdim
    k = max(r_k.degree(), 0)
    if variant == "dirac_even":
        lhs = dirac_apply(vector_pow_mul(r_k, 2 * s))
        rhs = (vector_pow_mul(r_k, 2 * s - 1).scale(2 * s)
               if s else CValued(u, {}))
        rhs = rhs + vector_pow_mul(dirac_apply(r_k), 2 * s)
        return lhs == rhs
    if variant == "dirac_odd":
        lhs = dirac_apply(vector_pow_mul(r_k, 2 * s + 1))
        rhs = vector_pow_mul(r_k, 2 * s).scale(2 * k + big_m + 2 * s)
        rhs = rhs - vector_pow_mul(dirac_apply(r_k), 2 * s + 1)
        return lhs == rhs
    if variant == "laplace":
        lhs = vector_pow_mul(r_k, 2 * s).map_parts(laplace)
        rhs = (vector_pow_mul(r_k, 2 * s - 2)
               .scale(2 * s * (2 * k + big_m + 2 * s - 2))
               if s else CValued(u, {}))
        rhs = rhs + vector_pow_mul(r_k.map_parts(laplace), 2 * s)
        return lhs == rhs
    raise ValueError(f"unknown variant {variant!r}")


def test_power_rules_all_variants(rng):
    u = VariableUniverse.standard(2, 1)
    samples = {
        0: [CValued.from_scalar(SuperPolynomial.one(u))],
        1: [CValued.from_scalar(SuperPolynomial.bosonic_var(u, 0)),
            CValued.from_scalar(SuperPolynomial.fermionic_var(u, 1))],
        2: [CValued.from_scalar(_homog(u, rng, 2))],
    }
    for k, rks in samples.items():
        for r_k in rks:
            for s in range(0, 4):
                for variant in ("dirac_even", "dirac_odd", "laplace"):
                    assert power_rule_check(s, r_k, variant), (k, s, variant)


def _homog(u, rng, k):
    f = random_poly(u, rng, degree=k, nterms=6)
    kept = {key: c for key, c in f.terms.items()
            if sum(key[0]) + key[1].bit_count() == k}
    if not kept:
        kept = {((k,) + (0,) * (u.m - 1), 0): ExactScalar.one()}
    return SuperPolynomial(u, kept)


def test_power_rules_s_zero_degenerates():
    u = VariableUniverse.standard(1, 1)
    r = CValued.from_scalar(SuperPolynomial.bosonic_var(u, 0))
    for variant in ("dirac_even", "laplace"):
        assert power_rule_check(0, r, variant)


def test_power_rules_reject_inhomogeneous():
    u = VariableUniverse.standard(1, 1)
    f = SuperPolynomial.one(u) + SuperPolynomial.bosonic_var(u, 0)
    with pytest.raises(ValueError, match="homogeneous"):
        power_rule_check(1, f, "laplace")


def test_monogenic_basis_small():
    for m, n in [(1, 1), (2, 1)]:
        u = VariableUniverse.standard(m, n)
        for k in (1, 2):
            basis = monogenic_basis(k, u)
            assert basis, (m, n, k)
            for b in basis:
                assert not dirac_apply(b)
                assert b.is_homogeneous() and b.degree() == k


def test_monogenic_basis_refuses_a_negative_degree():
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        monogenic_basis(-1, VariableUniverse.standard(1, 1))


def _no_row_reduction(*args):
    raise AssertionError("the row reduction ran")


def test_monogenic_basis_column_budget_boundary(monkeypatch):
    # (3,1) at k = 3 spans exactly MAX_MONOGENIC_COLUMNS = 2000 columns
    # and is built; the next shapes up are refused before any row
    # reduction (k = 4 took 2.2 s, (3,2) at k = 3 16.5 s unrefused)
    assert cliffweyl.MAX_MONOGENIC_COLUMNS == 2000
    basis = monogenic_basis(3, VariableUniverse.standard(3, 1))
    assert basis and all(not dirac_apply(b) for b in basis)
    monkeypatch.setattr(_linalg, "nullspace", _no_row_reduction)
    for (m, n, k), count in [((1, 2, 4), 2240), ((3, 1, 4), 4920),
                             ((3, 2, 3), 15680)]:
        with pytest.raises(ValueError, match=(
                f"degree k = {k} spans {count} columns, over "
                f"MAX_MONOGENIC_COLUMNS = 2000")):
            monogenic_basis(k, VariableUniverse.standard(m, n))


def test_monogenic_basis_counts_its_columns(monkeypatch):
    # the refusal's count is the listed monomials times the unit words,
    # read from binomials, and a budget of exactly that count builds
    monkeypatch.setattr(cliffweyl, "MAX_MONOGENIC_COLUMNS", 0)
    for m, n, k in [(0, 1, 1), (1, 1, 2), (2, 1, 3), (1, 2, 2), (3, 0, 2),
                    (0, 2, 3)]:
        u = VariableUniverse.standard(m, n)
        count = len(homogeneous_monomials(u, k)) * len(_cw_keys(m, n, k))
        with pytest.raises(ValueError, match=f"spans {count} columns"):
            monogenic_basis(k, u)
    u = VariableUniverse.standard(2, 1)
    monkeypatch.setattr(cliffweyl, "MAX_MONOGENIC_COLUMNS", 192)
    assert monogenic_basis(2, u)
    monkeypatch.setattr(cliffweyl, "MAX_MONOGENIC_COLUMNS", 191)
    with pytest.raises(ValueError, match="spans 192 columns"):
        monogenic_basis(2, u)


def test_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        cw_mul(CWElement.e(1, 1, 0), CWElement.e(2, 1, 0))


def test_render():
    el = cw_mul(CWElement.e(2, 1, 0), CWElement.e(2, 1, 1))
    assert "e1 e2" in el.render()
    el2 = CWElement.eg(0, 1, 0)
    assert "f1" in el2.render()


def test_cw_keys_equal_the_bounded_exponent_oracle():
    # list for list, order included: monogenic_basis's columns follow it
    for m in range(3):
        for npairs in range(3):
            for cap in range(6):
                want = [(emask, w) for emask in range(1 << m)
                        for w in bounded_exps(2 * npairs, cap)]
                assert _cw_keys(m, npairs, cap) == want, (m, npairs, cap)


def test_mul_keys_equal_the_pair_by_pair_expansion(rng):
    # list for list, order included, on words whose pairs meet or not
    for m, npairs in [(0, 1), (2, 1), (1, 2), (3, 3)]:
        for _ in range(60):
            k1, k2 = ((rng.randrange(1 << m),
                       tuple(rng.randrange(4) for _ in range(2 * npairs)))
                      for _ in range(2))
            assert list(_mul_keys(k1, k2, npairs)) == \
                mul_keys_by_combos(k1, k2, npairs), (k1, k2)
