import operator
from fractions import Fraction

import pytest

from supertransform.expr import (parse, poly_to_json, render_poly_latex,
                                 render_poly_text)
from supertransform.fracfourier import frac_fourier
from supertransform.harmonics import harmonic_basis
from supertransform.hermite import check_psi_orders
from supertransform.operators import (bosonic_derivative,
                                      fermionic_derivative)
from supertransform.scalars import ExactScalar
from supertransform.superalg import (MAX_CODEC_MONOMIALS, GaussianFunction,
                                     SuperPolynomial, VariableUniverse,
                                     compositions,
                                     homogeneous_monomial_count,
                                     homogeneous_monomials, mask_bits,
                                     masks_of_weight, merge_masks,
                                     monomial_codec, pairing, sp_mul,
                                     sp_rename, square_powers, vector_square)
from tests.conftest import random_poly
from tests.oracles import (bosonic_square_power, compositions_by_recursion,
                           doubled_universe, fermionic_square,
                           fermionic_square_power, masks_of_weight_by_scan,
                           monomial_latex_route, monomial_order_route,
                           monomial_text_route, sp_substitute_fermionic)

one = ExactScalar.one


def fv(u, j):
    return SuperPolynomial.fermionic_var(u, j)


def bv(u, i):
    return SuperPolynomial.bosonic_var(u, i)


def test_universe_validation():
    with pytest.raises(ValueError, match="even"):
        VariableUniverse(["x1"], ["q1"])
    with pytest.raises(ValueError, match="unique"):
        VariableUniverse(["x1", "x1"], [])
    u = VariableUniverse.standard(2, 1)
    assert u.m == 2 and u.pairs == 1 and u.superdim == 0


def test_equal_universes_hash_equal_and_share_memo_entries():
    a, b = VariableUniverse.standard(2, 1), VariableUniverse.standard(2, 1)
    assert a is not b and a == b and hash(a) == hash(b)
    assert hash(a) == hash((a.bosonic, a.fermionic))
    assert harmonic_basis(2, "full", a) is harmonic_basis(2, "full", b)
    assert monomial_codec(a) is monomial_codec(b)
    check_psi_orders(1, 2, a)
    hits = check_psi_orders.cache_info().hits
    check_psi_orders(1, 2, b)
    assert check_psi_orders.cache_info().hits == hits + 1


def test_standard_universe_rejects_negative_sizes():
    for m, n in ((-1, 1), (1, -1)):
        with pytest.raises(ValueError, match="non-negative"):
            VariableUniverse.standard(m, n)
    assert VariableUniverse.standard(0, 0).superdim == 0


def test_nilpotency_and_anticommutation():
    u = VariableUniverse.standard(0, 1)
    q1, q2 = fv(u, 0), fv(u, 1)
    assert not sp_mul(sp_mul(q1, q2), q1)
    assert sp_mul(q2, q1) == -sp_mul(q1, q2)


def test_square_of_pair_sum():
    # (q1q2 + q3q4)^2 = 2 q1q2q3q4: four cross terms, two survive and agree
    u = VariableUniverse.standard(0, 2)
    f = fermionic_square(u)
    top = SuperPolynomial(u, {((), 0b1111): ExactScalar.rational(2)})
    assert sp_mul(f, f) == top


def test_fermionic_square_powers_and_ceiling():
    for n in range(1, 5):
        u = VariableUniverse.standard(0, n)
        f = fermionic_square(u)
        p = SuperPolynomial.one(u)
        for _ in range(n):
            p = sp_mul(p, f)
        fact = 1
        for j in range(2, n + 1):
            fact *= j
        top = SuperPolynomial(u, {((), (1 << 2 * n) - 1):
                                  ExactScalar.rational(fact)})
        assert p == top
        assert not sp_mul(p, f)


def test_fermionic_derivative_examples():
    u = VariableUniverse.standard(1, 1)
    q1q2 = sp_mul(fv(u, 0), fv(u, 1))
    assert fermionic_derivative(q1q2, 0) == fv(u, 1)
    assert fermionic_derivative(q1q2, 1) == -fv(u, 0)
    x1q2 = sp_mul(bv(u, 0), fv(u, 1))
    assert not fermionic_derivative(x1q2, 0)
    with pytest.raises(IndexError):
        fermionic_derivative(q1q2, 5)


def test_bosonic_derivative_examples():
    u = VariableUniverse.standard(2, 1)
    x1 = bv(u, 0)
    assert bosonic_derivative(sp_mul(x1, x1), 0) == x1.scale(2)
    assert not bosonic_derivative(sp_mul(fv(u, 0), fv(u, 1)), 0)
    f = sp_mul(sp_mul(x1, bv(u, 1)), fv(u, 0))
    assert bosonic_derivative(f, 1) == sp_mul(x1, fv(u, 0))


def test_vector_square_examples():
    u = VariableUniverse.standard(1, 0)
    assert vector_square(u) == SuperPolynomial(
        u, {((2,), 0): ExactScalar.rational(-1)})
    u = VariableUniverse.standard(0, 1)
    assert vector_square(u) == SuperPolynomial(u, {((), 0b11): one()})
    u = VariableUniverse.standard(2, 2)
    vs = vector_square(u)
    want = (SuperPolynomial(u, {((0, 0), 0b0011): one()})
            + SuperPolynomial(u, {((0, 0), 0b1100): one()})
            - SuperPolynomial(u, {((2, 0), 0): one()})
            - SuperPolynomial(u, {((0, 2), 0): one()}))
    assert vs == want


def test_pairing_examples():
    ux = VariableUniverse.standard(1, 0)
    uy = VariableUniverse(["y1"], [])
    p = pairing(ux, uy)
    assert p == SuperPolynomial(p.universe,
                                {((1, 1), 0): ExactScalar.rational(-1)})
    ux = VariableUniverse.standard(0, 1)
    uy = VariableUniverse([], ["s1", "s2"])
    p = pairing(ux, uy)
    want = SuperPolynomial(p.universe, {
        ((), 0b1001): ExactScalar.rational(1, 2),    # q1 s2
        ((), 0b0110): ExactScalar.rational(-1, 2),   # q2 s1
    })
    assert p == want
    with pytest.raises(ValueError, match="shape"):
        pairing(VariableUniverse.standard(1, 1), VariableUniverse.standard(2, 1))


def test_pairing_swap_symmetry():
    # exchanging the x and y blocks leaves the pairing unchanged
    ux = VariableUniverse.standard(0, 1)
    uy = VariableUniverse([], ["s1", "s2"])
    p = pairing(ux, uy)
    dbl = p.universe
    swapped = sp_rename(p, dbl, bos_map={}, fer_map={0: 2, 1: 3, 2: 0, 3: 1})
    assert swapped == p


def test_sp_mul_associativity_and_supercommutativity(rng):
    for m, n in [(1, 1), (2, 2), (0, 3)]:
        u = VariableUniverse.standard(m, n)
        for _ in range(25):
            f = random_poly(u, rng, degree=4, nterms=3)
            g = random_poly(u, rng, degree=4, nterms=3)
            h = random_poly(u, rng, degree=4, nterms=3)
            assert sp_mul(sp_mul(f, g), h) == sp_mul(f, sp_mul(g, h))
        for parity_f in (0, 1):
            for parity_g in (0, 1):
                f = _parity_filter(random_poly(u, rng, 4, 6), parity_f)
                g = _parity_filter(random_poly(u, rng, 4, 6), parity_g)
                fg = sp_mul(f, g)
                gf = sp_mul(g, f)
                if parity_f and parity_g:
                    assert fg == -gf
                else:
                    assert fg == gf


def _parity_filter(f, parity):
    return SuperPolynomial(f.universe,
                           {k: c for k, c in f.terms.items()
                            if k[1].bit_count() % 2 == parity})


def test_fermionic_derivatives_anticommute(rng):
    u = VariableUniverse.standard(1, 2)
    for _ in range(30):
        f = random_poly(u, rng, degree=4, nterms=6)
        for i in range(4):
            for j in range(4):
                a = fermionic_derivative(fermionic_derivative(f, j), i)
                b = fermionic_derivative(fermionic_derivative(f, i), j)
                assert a == -b


def _transvection(n2, u_vec, t):
    """Symplectic transvection matrix I + t*u*(Wu)^T for the pair form."""
    w = [[0] * n2 for _ in range(n2)]
    for p in range(n2 // 2):
        w[2 * p][2 * p + 1] = 1
        w[2 * p + 1][2 * p] = -1
    wu = [sum(w[j][k] * u_vec[k] for k in range(n2)) for j in range(n2)]
    s = [[Fraction(int(i == j)) + t * u_vec[i] * wu[j] for j in range(n2)]
         for i in range(n2)]
    # sanity: S^T W S == W
    for a in range(n2):
        for b in range(n2):
            acc = sum(s[i][a] * w[i][j] * s[j][b]
                      for i in range(n2) for j in range(n2))
            assert acc == w[a][b]
    return s


def test_symplectic_invariance_of_pairing(rng):
    for n in (1, 2):
        n2 = 2 * n
        ux = VariableUniverse.standard(0, n)
        uy = VariableUniverse([], [f"s{j + 1}" for j in range(2 * n)])
        p = pairing(ux, uy)
        dbl = p.universe
        for _ in range(6):
            s = [[Fraction(int(i == j)) for j in range(n2)] for i in range(n2)]
            for _ in range(3):
                u_vec = [Fraction(rng.randint(-2, 2)) for _ in range(n2)]
                t = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                tv = _transvection(n2, u_vec, t)
                s = [[sum(tv[i][k] * s[k][j] for k in range(n2))
                      for j in range(n2)] for i in range(n2)]
            images = []
            for j in range(n2):
                img = SuperPolynomial.zero(dbl)
                for k in range(n2):
                    if s[j][k]:
                        img = img + SuperPolynomial.fermionic_var(
                            dbl, k, s[j][k])
                images.append(img)
            for j in range(n2):
                img = SuperPolynomial.zero(dbl)
                for k in range(n2):
                    if s[j][k]:
                        img = img + SuperPolynomial.fermionic_var(
                            dbl, n2 + k, s[j][k])
                images.append(img)
            assert sp_substitute_fermionic(p, images) == p


def test_gaussian_function_refuses_other_operands_with_type_error():
    # the reverse order already fails in TermMap; either order raises
    # TypeError, never an internal AttributeError
    u = VariableUniverse.standard(2, 1)
    g = GaussianFunction(SuperPolynomial.bosonic_var(u, 0))
    p = SuperPolynomial.fermionic_var(u, 1)
    for other in (p, 1, Fraction(1, 2), one()):
        with pytest.raises(TypeError):
            g + other
        with pytest.raises(TypeError):
            g - other
        with pytest.raises(TypeError):
            other + g
        with pytest.raises(TypeError):
            other - g
    assert g + GaussianFunction(p) - GaussianFunction(p) == g


def test_gaussian_text_is_kept_and_read_by_the_text_printer_alone():
    # render_poly_text fills the slot once and reads it back; equality,
    # repr, LaTeX and JSON never read it, even when it is wrong
    u = VariableUniverse.standard(2, 1)
    f = parse("(3/2 - x1*q1) * G + x2^2 * q1*q2 * G", u)
    g = GaussianFunction(SuperPolynomial(u, dict(f.terms)))
    assert f.text is None
    text = render_poly_text(f)
    assert text == render_poly_text(g) and f.text is text
    assert render_poly_text(f) is text
    g.text = "not the text"
    assert render_poly_text(g) == "not the text"
    assert f == g and not f != g
    assert repr(f) == repr(g)
    assert render_poly_latex(f) == render_poly_latex(g)
    assert poly_to_json(f) == poly_to_json(g)
    # a value built from f starts with no text of its own
    assert (f + f).text is None and (-f).text is None
    assert render_poly_text(-f) != text


@pytest.mark.parametrize("gaussian", [False, True],
                         ids=["plain", "gaussian"])
@pytest.mark.parametrize("float_key", [((1,), 0), ((0,), 0b01)],
                         ids=["shared-monomial", "disjoint-monomials"])
def test_sums_refuse_mixed_lanes(gaussian, float_key):
    # an exact-lane and a float-lane operand are refused in either order,
    # before any term is merged; each lane still adds to itself and to
    # the lane-less zero
    u = VariableUniverse.standard(1, 1)
    exact = SuperPolynomial.bosonic_var(u, 0)
    flt = SuperPolynomial(u, {float_key: 0.5 - 0.25j})
    zero = SuperPolynomial.zero(u)
    if gaussian:
        exact, flt, zero = (GaussianFunction(p) for p in (exact, flt, zero))
    for a, b in ((exact, flt), (flt, exact)):
        for op in (operator.add, operator.sub):
            with pytest.raises(ValueError, match="lane mismatch") as exc:
                op(a, b)
            assert "ExactScalar" in str(exc.value)
            assert "complex" in str(exc.value)
    assert exact + exact == exact.scale(2)
    assert flt - flt == zero
    assert exact + zero == exact and zero + flt == flt


@pytest.mark.parametrize("float_first", [False, True],
                         ids=["exact-times-float", "float-times-exact"])
def test_products_refuse_mixed_lanes(float_first):
    # sp_mul and mul_poly name both lanes, in operand order, where the
    # coefficient product would raise a TypeError
    u = VariableUniverse.standard(1, 1)
    exact = parse("x1 + q1", u)
    flt = SuperPolynomial(u, {((1,), 0b10): 0.5 - 0.25j})
    lanes = ["ExactScalar", "complex"]
    a, b = exact, flt
    if float_first:
        a, b = b, a
        lanes.reverse()
    message = (f"lane mismatch: cannot multiply {lanes[0]} and {lanes[1]} "
               f"coefficients")
    with pytest.raises(ValueError, match=message):
        sp_mul(a, b)
    with pytest.raises(ValueError, match=message):
        GaussianFunction(b).mul_poly(a)


def test_int_and_fraction_coefficients_multiply_with_either_lane():
    # the integer parts of an exact polynomial and the oracles' weights
    # belong to no lane
    u = VariableUniverse.standard(1, 1)
    ints = SuperPolynomial(u, {((1,), 0): 2, ((0,), 0b01): Fraction(1, 3)})
    exact = parse("x1 + i*q2", u)
    flt = SuperPolynomial(u, {((1,), 0b10): 0.5 - 0.25j})
    assert sp_mul(ints, exact) == parse(
        "2*x1^2 + 2*i*x1*q2 + 1/3*x1*q1 + 1/3*i*q1q2", u)
    assert sp_mul(exact, ints) == parse(
        "2*x1^2 + 2*i*x1*q2 + 1/3*x1*q1 - 1/3*i*q1q2", u)
    assert sp_mul(ints, flt).terms == {((2,), 0b10): 1 - 0.5j,
                                      ((1,), 0b11): (0.5 - 0.25j) / 3}
    assert sp_mul(flt, ints).terms == {((2,), 0b10): 1 - 0.5j,
                                      ((1,), 0b11): -(0.5 - 0.25j) / 3}


def test_an_exact_input_plus_a_fractional_transform_is_refused():
    u = VariableUniverse.standard(1, 1)
    moved = frac_fourier(parse("q1*G", u), 0.5)
    with pytest.raises(ValueError, match="lane mismatch"):
        parse("x1*G", u) + moved
    with pytest.raises(ValueError, match="lane mismatch"):
        moved - parse("q1*G", u)


def test_a_gaussian_function_always_carries_the_envelope():
    u = VariableUniverse.standard(2, 1)
    p = SuperPolynomial.fermionic_var(u, 1)
    assert GaussianFunction(p, True) == GaussianFunction(p)
    with pytest.raises(ValueError, match="SuperPolynomial"):
        GaussianFunction(p, False)
    assert repr(GaussianFunction(p)).endswith("*G>")


def test_merge_masks_sign():
    assert merge_masks(0b1, 0b1) is None
    assert merge_masks(0b10, 0b01) == (-1, 0b11)
    assert merge_masks(0b01, 0b10) == (1, 0b11)


def test_doubled_universe():
    u = VariableUniverse.standard(2, 1)
    d = doubled_universe(u)
    assert d.bosonic == ("x1", "x2", "y1", "y2")
    assert d.fermionic == ("q1", "q2", "s1", "s2")


def test_square_powers_equal_repeated_products():
    for m in range(4):
        for n in range(4):
            u = VariableUniverse.standard(m, n)
            for a in range(4):
                for b in range(n + 1):
                    got = SuperPolynomial(u, {
                        (exp, mask): ExactScalar.rational(w)
                        for exp, mask, w in square_powers(m, n, a, b)})
                    want = sp_mul(bosonic_square_power(u, a),
                                  fermionic_square_power(u, b))
                    assert got == want, (m, n, a, b)


def test_enumerators_equal_the_recursive_and_scanning_oracles():
    # list for list, order included: the echelon form of every basis
    # (and the monogenic nullspace's least-column pivots) rest on it
    for slots in range(6):
        for total in range(8):
            assert list(compositions(total, slots)) == \
                list(compositions_by_recursion(total, slots)), (total, slots)
    assert list(compositions(0, 0)) == [()]
    assert list(compositions(3, 0)) == []
    for width in range(9):
        for weight in range(width + 2):
            assert list(masks_of_weight(width, weight)) == \
                list(masks_of_weight_by_scan(width, weight)), (width, weight)
    assert list(masks_of_weight(4, 0)) == [0]
    assert list(masks_of_weight(3, 4)) == []


def test_monomial_refuses_a_key_outside_the_universe():
    u = VariableUniverse.standard(1, 1)
    one_ = ExactScalar.one()
    with pytest.raises(ValueError, match="fermionic mask must lie within"):
        SuperPolynomial.monomial(u, (0,), 1 << 5, one_)
    with pytest.raises(ValueError, match="m = 1 bosonic exponents, not 3"):
        SuperPolynomial.monomial(u, (0, 0, 3), 0, one_)
    with pytest.raises(ValueError, match="non-negative"):
        SuperPolynomial.monomial(u, (-1,), 0, one_)
    assert SuperPolynomial.monomial(u, [2], 0b11, one_) == \
        SuperPolynomial(u, {((2,), 0b11): one_})


def test_universe_mismatch_raises():
    u1 = VariableUniverse.standard(1, 1)
    u2 = VariableUniverse.standard(2, 1)
    with pytest.raises(ValueError, match="universe"):
        sp_mul(SuperPolynomial.one(u1), SuperPolynomial.one(u2))


def test_homogeneous_monomial_count_matches_the_listing():
    for m in range(4):
        for n in range(3):
            u = VariableUniverse.standard(m, n)
            assert homogeneous_monomial_count(u, -1) == 0
            for k in range(7):
                assert homogeneous_monomial_count(u, k) == \
                    len(homogeneous_monomials(u, k))
    u = VariableUniverse.standard(3, 2)
    assert homogeneous_monomial_count(u, 41) == 13128
    assert homogeneous_monomial_count(u, 101) == 80808


# m = 0, n = 0, and two-digit indices (x10, x11, q10..q12)
CODEC_GRID = [(0, 1), (0, 2), (1, 0), (3, 0), (2, 1), (1, 2), (3, 2),
              (11, 0), (0, 6), (11, 6)]


@pytest.mark.parametrize("m, n", CODEC_GRID)
def test_monomial_codec_matches_the_uncached_builders(m, n):
    u = VariableUniverse.standard(m, n)
    top = 3 if m + 2 * n < 10 else 2
    keys = [key for d in range(top + 1)
            for key in homogeneous_monomials(u, d)]
    codec = monomial_codec(u)
    for bos, mask in keys:
        assert codec[(bos, mask)] == (
            *monomial_order_route((bos, mask)),
            monomial_text_route(u, bos, mask),
            monomial_latex_route(u, bos, mask),
            tuple(j + 1 for j in mask_bits(mask)))
    # whole renders: the monomials in route order, each with coefficient
    # 1 or 2, as text, LaTeX and JSON
    f = SuperPolynomial(u, {key: ExactScalar.rational(1 + i % 2)
                            for i, key in enumerate(reversed(keys))})
    ordered = sorted(f.terms.items(),
                     key=lambda kv: monomial_order_route(kv[0]))
    assert f.sorted_terms() == ordered
    pieces, latex = [], []
    for (bos, mask), c in ordered:
        mono = monomial_text_route(u, bos, mask)
        tex = " ".join(filter(None, (monomial_latex_route(u, bos, mask),
                                     "e^{x^2/2}")))
        coeff = c.render()
        pieces.append(mono if coeff == "1" and mono
                      else f"{coeff}*{mono}" if mono else coeff)
        latex.append(tex if coeff == "1" else f"{coeff} {tex}")
    assert render_poly_text(f) == " + ".join(pieces)
    assert render_poly_latex(GaussianFunction(f)) == " + ".join(latex)
    js = poly_to_json(f)
    assert [(t["bos"], t["fer"]) for t in js["terms"]] == [
        (list(bos), [j + 1 for j in mask_bits(mask)])
        for (bos, mask), _ in ordered]


def test_monomial_codec_stays_within_its_bound():
    # more distinct monomials than the codec keeps: it starts afresh
    # when full, and the text is still built right
    u = VariableUniverse.standard(1, 1)
    keys = [((e,), mask) for e in range(MAX_CODEC_MONOMIALS // 2 + 50)
            for mask in (0, 3)]
    assert len(keys) > MAX_CODEC_MONOMIALS
    f = SuperPolynomial(u, {key: ExactScalar.one() for key in keys})
    text = render_poly_text(f)
    assert 0 < len(monomial_codec(u)) <= MAX_CODEC_MONOMIALS
    ordered = sorted(keys, key=monomial_order_route)
    assert text == " + ".join(monomial_text_route(u, *key) or "1"
                              for key in ordered)
