"""Independent routes kept only to test the fast paths against.

`peel_bosonic_fourier` is the peel rule F(x_i g) = -/+ i d_{y_i} F(g)
from F(G) = G, one derivative per unit of degree; the package reads the
same transform off cached Hermite rows.  `mehler_series` sums Mehler's
closed form of F^a as its series in the Laplacian; the package weighs
the images of one pass of Hermite and pair rows instead.
`mehler_pass_by_scalars` is that pass at a = +/-1 in the scalar ring,
one scaled ExactScalar per image, with the literal pair rows
(`_images_by_rows`), and `radon_by_scalars` the Radon pipeline on it,
one scaled scalar per sphere image and Hermite row entry; the package
runs both on integer numerators over one denominator and builds each
output coefficient once.
`reduce_mod_sphere_per_monomial` rewrites w_m^2 monomial by monomial with
fresh sphere powers (`sphere_substitution`), each one product above the
last; `f_poly_by_products` builds the coupling polynomials of the
Fischer decomposition from repeated squares (`bosonic_square_power`,
`fermionic_square_power`) and `sp_mul`.  The package reads both off the
multinomial terms of `superalg.square_powers`.
`decomposition_check_by_products` forms every product f * H_bos * H_fer
of the decomposition check and takes its Laplacian; the package tests
the coefficients of f by the closed sl2 rule and forms no product.
`dirac_via_derivatives`, `vector_mul_via_products` and
`phi_via_derivatives` apply the Dirac operator and the vector variable
one variable at a time: a derivative through the envelope or a variable
product, lifted to a CValued and multiplied by its generator; the
package applies both in one pass over unit words and monomials.
`TokenParser` reads an expression one character-class token at a time
and builds each term as one monomial accumulator; the package reads the
same grammar one lexeme per leaf, with the renderer's complex coefficient
as one lexeme.
`gaussian_integral_by_terms` integrates a polynomial against the
Gaussian envelope term by term in the scalar ring, with the Berezin
weights of `berezin_row`, and
`super_integral_pair_by_product` applies it to the product polynomial
f * conj(g); the package pairs the terms of f and g with integer weights
and never forms the product.
`fermionic_kernel` expands the fermionic kernel of order a in a doubled
universe, and `kernel_route` integrates it against f by the Berezin
integral: the defining fermionic transform of every order, which the
package reads off one closed-form row per symbol pair instead.
`berezin_by_derivatives` integrates by one left derivative per symbol
and a rename, and `berezin_row` reads the pair's Berezin weights off it;
`convolution_by_shift` substitutes u - x into f in a doubled universe
(`doubled_universe`, `grassmann_shift`, `sp_substitute_fermionic`),
multiplies by g(x) and integrates the x block.  The package integrates
and convolves by one pass over the masks, and weighs a pair by the
literal row pi^-1 (width, 0, 0, 1).
`operator_exponential_fourier` expands a Gaussian-class function in the
psi family by exact row reduction (`express_in_basis`, `solve_rational`)
and rotates each component by its eigenvalue; the package transforms
term by term.  `fischer_fermionic` and `fischer_decompose` write a
Grassmann element as sum_j xfer^(2j) h_j, a decomposition the package
states only through `harmonics.decomposition_check`.
`ch_explicit` is the displayed closed coefficient formula of the
Clifford-Hermite polynomials, and `substitute_derivatives` applies
H(d_x) to a Gaussian-class function, one derivative per factor; the
package builds the psi family by the integer recursion
`hermite.ch_coefficients`.  `gaussian_expand_fermionic` writes the
fermionic envelope out as a polynomial; the package's operators act
through it by product rules.  `fermionic_envelope_poly` is that
fermionic factor, `fermionic_square` the fermionic part of x^2, and
`rising_factorial` a product that `ch_explicit` reads.
`leibniz_bosonic_derivative`, `leibniz_fermionic_derivative`,
`leibniz_multiply_bosonic_var` and `leibniz_multiply_fermionic_var` are
the first-order operators by the Leibniz rule: the polynomial's
derivative plus a general product with a one-term variable
(`neutral_bosonic_var`, `neutral_fermionic_var`), parity-signed for the
fermions; the package applies each in one pass over the terms.
`harmonic_basis_by_nullspace` row-reduces the sector Laplacian on the
homogeneous monomials; the package extends each x_m-free datum by
Cauchy-Kovalevskaya at m >= 1 and builds the fermionic sector and m = 0
from cleared products of symbol pairs, the same echelon forms with no
row reduction.
`compositions_by_recursion`, `masks_of_weight_by_scan` and
`bounded_exps` enumerate monomial exponents and masks by recursion and
by testing every mask; the package places bars and bits by
`itertools.combinations` and must list the same tuples in the same
order, since the echelon forms of the harmonic bases and the monogenic
nullspace rest on it.
`mul_keys_by_combos` multiplies two unit words by growing the list of
symplectic exponent vectors one pair at a time; the package contracts
only the pairs that meet and varies their counts by `itertools.product`.
`monomial_text_route`, `monomial_latex_route` and `monomial_order_route`
build a monomial's text, LaTeX (a symbol's trailing digits as a
subscript, by regular expression) and sort key afresh on every call;
the package reads all three from a universe's memoized monomial codec.
`solve_radial_poisson` solves Delta g = rhs for any finite sum of
r^alpha log^s r by peeling the leading term off the residual, one radial
Laplacian per term; the package steps the fundamental solution's chain,
one power r^alpha (A log r + B) per order, by two divisions.
"""

import math
import re
from fractions import Fraction

from supertransform import expr, harmonics
from supertransform._linalg import SparseRREF, nullspace
from supertransform.cliffweyl import CValued, CWElement, _mul_keys
from supertransform.expr import (_PI, _UNIT, ParseError, _check_exponent,
                                 _literal_int, _monomial, _power_pairs,
                                 _scalar)
from supertransform.fourier import (_require_exact, gaussian_moment,
                                    hermite_row)
from supertransform.fundsol import RadialFunction, radial_laplace
from supertransform.harmonics import harmonic_basis
from supertransform.hermite import psi_span
from supertransform.operators import (bosonic_derivative,
                                      fermionic_derivative, laplace,
                                      multiply_vector_square)
from supertransform.radon import (RadonResult, _sphere_images,
                                  check_result_size, omega_universe)
from supertransform.scalars import (I_POWERS, Angle, ExactScalar, QQi,
                                    gamma_half_integer, to_float)
from supertransform.superalg import (GaussianFunction, SuperPolynomial,
                                     VariableUniverse,
                                     homogeneous_monomials, integer_parts,
                                     mask_bits,
                                     merge_masks, require_envelope, scale_exact, sp_mul,
                                     sp_rename)
from supertransform._terms import add_into


def neutral_bosonic_var(u, i, c=Fraction(1)):
    """Variable polynomial with a lane-neutral Fraction coefficient, for
    product rules that must work on either scalar backend."""
    exp = tuple(1 if j == i else 0 for j in range(u.m))
    return SuperPolynomial(u, {(exp, 0): c})


def neutral_fermionic_var(u, j, c=Fraction(1)):
    return SuperPolynomial(u, {((0,) * u.m, 1 << j): c})


def _poly_bosonic_derivative(p, i):
    if not 0 <= i < p.universe.m:
        raise IndexError("bosonic index out of range")
    out = {}
    for (bos, mask), c in p.terms.items():
        e = bos[i]
        if e:
            add_into(out, (bos[:i] + (e - 1,) + bos[i + 1:], mask), c * e)
    return p._like(out)


def _poly_fermionic_derivative(p, j):
    """Left derivative: sign (-1)^(# set bits below j)."""
    if not 0 <= j < len(p.universe.fermionic):
        raise IndexError("fermionic index out of range")
    bit = 1 << j
    out = {}
    for (bos, mask), c in p.terms.items():
        if mask & bit:
            sign = -1 if (mask & (bit - 1)).bit_count() & 1 else 1
            add_into(out, (bos, mask ^ bit), c * sign)
    return p._like(out)


def _parity_signed(p):
    """Every term times (-1)^(fermionic degree)."""
    return p._like({k: (-c if k[1].bit_count() & 1 else c)
                    for k, c in p.terms.items()})


def leibniz_bosonic_derivative(f, i):
    """d/dx_i: the polynomial's derivative, plus the product with -x_i
    from the envelope of a Gaussian function."""
    if isinstance(f, SuperPolynomial):
        return _poly_bosonic_derivative(f, i)
    var = neutral_bosonic_var(f.universe, i, Fraction(-1))
    return GaussianFunction(_poly_bosonic_derivative(f.poly, i)
                            + sp_mul(f.poly, var))


def leibniz_fermionic_derivative(f, j):
    """Left d/dq_j: the polynomial's derivative, plus (-1)^|p| p times
    d/dq_j of the envelope, +q_{j+1}/2 (j even) or -q_{j-1}/2 (j odd)."""
    if isinstance(f, SuperPolynomial):
        return _poly_fermionic_derivative(f, j)
    if j % 2 == 0:
        var = neutral_fermionic_var(f.universe, j + 1, Fraction(1, 2))
    else:
        var = neutral_fermionic_var(f.universe, j - 1, Fraction(-1, 2))
    return GaussianFunction(_poly_fermionic_derivative(f.poly, j)
                            + sp_mul(_parity_signed(f.poly), var))


def _mul_left(g, f):
    if isinstance(f, SuperPolynomial):
        return sp_mul(g, f)
    return GaussianFunction(sp_mul(g, f.poly))


def leibniz_multiply_bosonic_var(f, i):
    return _mul_left(neutral_bosonic_var(f.universe, i), f)


def leibniz_multiply_fermionic_var(f, j):
    return _mul_left(neutral_fermionic_var(f.universe, j), f)


def peel_bosonic_fourier(f, sign):
    """Bosonic transform of a Gaussian-class f by the peel rule; exact."""
    c_sign = ExactScalar.i_power(-1 if sign == "+" else 1)   # -/+ i
    u = f.universe
    out = GaussianFunction(SuperPolynomial.zero(u), True)
    for (bos, mask), coeff in f.poly.terms.items():
        g = GaussianFunction(
            SuperPolynomial(u, {((0,) * u.m, mask): coeff}), True)
        for i, e in enumerate(bos):
            for _ in range(e):
                g = bosonic_derivative(g, i).scale(c_sign)
        out = out + g
    return out


def mehler_series(f, a):
    """F^a(P G) = (e^(i alpha E) exp(gamma Delta) P) G, alpha = a pi/2 and
    gamma = (e^(2 i alpha) - 1)/4, with exp(gamma Delta) summed as
    sum_k gamma^k Delta^k P / k!, which stops at k = deg(P)/2.  Delta^k P
    is exact; gamma and the phase e^(i alpha d) of a term of degree d are
    exact at integral a and floats otherwise (exact at quarter turns)."""
    a = Angle(a)
    if a.exact:
        gamma = (a.phase(2) - ExactScalar.one()).scale(Fraction(1, 4))
        zero = ExactScalar.zero()

        def lane(p):
            return p
    else:
        gamma, zero = (a.phase(2) - 1) / 4, 0j

        def lane(p):
            return p.map_coefficients(to_float)
    term = f.poly
    series = lane(term)
    for k in range(1, term.degree() // 2 + 1):
        term = laplace(term, "full")
        series = series + lane(term).scale(gamma ** k
                                           * Fraction(1, math.factorial(k)))
    phases = [a.phase(d) for d in range(f.poly.degree() + 1)]
    # + 0j turns the negative zeros of a quarter turn into plain zeros
    return GaussianFunction(SuperPolynomial(f.universe, {
        key: c * phases[sum(key[0]) + key[1].bit_count()] + zero
        for key, c in series.terms.items()}), True)


# exp(gamma Delta) on one pair's sub-mask as (sub-mask, int, k) images, k
# the power of 2 gamma: q1q2 -> q1q2 - 2 (2 gamma)
_PAIR_ROWS = (((0, 1, 0),), ((1, 1, 0),), ((2, 1, 0),),
              ((3, 1, 0), (0, -2, 1)))


def _images_by_rows(bos, mask, bos_on, nf):
    """The images of x^bos q^mask as the lists of (sub-mask, int, k) and
    (exponents, int), one literal pair row per symbol pair and one
    Hermite row per coordinate."""
    fer = [(0, 1, 0)] if nf else [(mask, 1, 0)]
    for shift in range(0, nf, 2):
        row = _PAIR_ROWS[(mask >> shift) & 3]
        fer = [(acc | (sub << shift), n * t, k + j) for acc, n, k in fer
               for sub, t, j in row]
    if not bos_on:
        return fer, [(bos, 1)]
    out = [((), 1)]
    for e in bos:
        row = hermite_row(e)
        out = [(acc + (p,), h * t) for acc, h in out for p, t in row]
    return fer, out


def mehler_pass_by_scalars(f, a, sector):
    """The exact Mehler pass at a = +/-1 in the scalar ring: each image
    of a term scales its ExactScalar by the QQi (+/- i)^d times its int
    weight, and the scaled scalars are summed per output monomial."""
    require_envelope(f)
    _require_exact(f)
    bos_on = sector != "fermionic"
    nf = len(f.universe.fermionic) if sector != "bosonic" else 0
    out = {}
    for (bos, mask), c in f.terms.items():
        d = (sum(bos) if bos_on else 0) + (mask.bit_count() if nf else 0)
        re, im = I_POWERS[a * d % 4]
        fer, bos_images = _images_by_rows(bos, mask, bos_on, nf)
        for omask, n, _ in fer:
            x, y = re * n, im * n
            for obos, h in bos_images:
                add_into(out, (obos, omask),
                         c.scale(QQi.reduced(x * h, y * h, 1)))
    return f._like(out)


def radon_by_scalars(f):
    """The central-slice Radon pipeline in the scalar ring: F^-(f) by
    `mehler_pass_by_scalars`, each ray term's sphere images summed as
    scalars, then the radius step r^k -> i^k H~_k(p), one scaled scalar
    per Hermite row entry, and the weight (2 pi)^((M-1)/2) multiplied
    into every entry."""
    require_envelope(f)
    u = f.universe
    if u.m < 1:
        raise ValueError("no purely fermionic Radon transform")
    check_result_size(f)
    rterms = {}
    for (bos, mask), c in mehler_pass_by_scalars(f, -1, "full").terms.items():
        rpow = sum(bos) + mask.bit_count()
        for key, n in _sphere_images(bos, mask, u.pairs):
            add_into(rterms, (key, rpow), c if n == 1 else c * n)
    out = {}
    for (key, k), c in rterms.items():
        re, im = I_POWERS[k % 4]
        for e, h in hermite_row(k):
            add_into(out, (key, e), c.scale(QQi.reduced(re * h, im * h, 1)))
    weight = ExactScalar.two_pi_half_power(u.superdim - 1)
    return RadonResult(omega_universe(u.m, u.pairs),
                       {ke: c * weight for ke, c in out.items()})


def sphere_substitution(u):
    """1 + sum wf-pairs - sum_{i<m} w_i^2, the rewrite image of w_m^2."""
    m = u.m
    terms = {((0,) * m, 0): ExactScalar.one()}
    for p in range(u.pairs):
        terms[((0,) * m, (1 << 2 * p) | (1 << (2 * p + 1)))] = \
            ExactScalar.one()
    for i in range(m - 1):
        exp = tuple(2 if t == i else 0 for t in range(m))
        terms[(exp, 0)] = ExactScalar.rational(-1)
    return SuperPolynomial(u, terms)


def reduce_mod_sphere_per_monomial(f):
    """Normal form mod (omega^2 + 1), one sp_mul and one sum per term."""
    u = f.universe
    last = u.m - 1
    sub = sphere_substitution(u)
    powers = {0: SuperPolynomial.one(u)}

    def sub_power(q):
        if q not in powers:
            powers[q] = sp_mul(sub_power(q - 1), sub)
        return powers[q]

    out = SuperPolynomial.zero(u)
    for (bos, mask), c in f.terms.items():
        q, s = divmod(bos[last], 2)
        piece = SuperPolynomial(u, {(bos[:last] + (s,), mask): c})
        out = out + sp_mul(sub_power(q), piece)
    return out


def gaussian_integral_by_terms(poly, width):
    """Integral over the full superspace of poly times the envelope of
    the given width, term by term: the Berezin weight of each pair's
    sub-mask and the bosonic moment of each exponent, multiplied in the
    scalar ring."""
    row = berezin_row(width)
    nf = len(poly.universe.fermionic)
    total = {}
    for (bos, mask), c in poly.terms.items():
        if any(p & 1 for p in bos):
            continue                       # an odd moment vanishes
        piece = c
        for shift in range(0, nf, 2):
            piece = piece * row[(mask >> shift) & 3]
        for p in bos:
            piece = piece * gaussian_moment(p, width)
        for key, q in piece.terms.items():
            add_into(total, key, q)
    return ExactScalar(total)


def super_integral_pair_by_product(f, g):
    """Integral of f * conj(g) for Gaussian-class f and g: the product
    polynomial first, then its integral at width one, the squared
    envelope's."""
    prod = sp_mul(f.poly, g.poly.conjugate())
    if not all(isinstance(c, ExactScalar) for c in prod.terms.values()):
        raise ValueError("exact integral requires exact-lane input")
    return gaussian_integral_by_terms(prod, Fraction(1))


def mul_generator_left(f, gen):
    """Left multiplication of a CValued by a single CW element."""
    out = {}
    for key, p in f.parts.items():
        for (gkey, gc) in gen.terms.items():
            for coeff, nkey in _mul_keys(gkey, key, f.npairs):
                add_into(out, nkey, scale_exact(p, gc * coeff))
    return f._like(out)


def _lift(f):
    return f if isinstance(f, CValued) else CValued.from_scalar(f)


def _through_envelope(f, op, p):
    """op on the part p of f, through f's envelope when present."""
    if f.envelope:
        return op(GaussianFunction(p, True)).poly
    return op(p)


def dirac_via_derivatives(f):
    """Super Dirac operator 2 sum (E[2p+1] d_{q_{2p}} - E[2p] d_{q_{2p+1}})
    - sum e_i d_{x_i}, one derivative through the envelope and one
    generator product per variable."""
    f = _lift(f)
    u = f.universe
    out = CValued(u, {}, f.envelope)
    for key, p in f.parts.items():
        for pair in range(u.pairs):
            d1 = _through_envelope(
                f, lambda g: fermionic_derivative(g, 2 * pair), p)
            d2 = _through_envelope(
                f, lambda g: fermionic_derivative(g, 2 * pair + 1), p)
            if d1:
                piece = CValued(u, {key: d1.scale(2)}, f.envelope)
                out = out + mul_generator_left(
                    piece, CWElement.eg(u.m, u.pairs, 2 * pair + 1))
            if d2:
                piece = CValued(u, {key: d2.scale(-2)}, f.envelope)
                out = out + mul_generator_left(
                    piece, CWElement.eg(u.m, u.pairs, 2 * pair))
        for i in range(u.m):
            di = _through_envelope(f, lambda g: bosonic_derivative(g, i), p)
            if di:
                piece = CValued(u, {key: -di}, f.envelope)
                out = out + mul_generator_left(
                    piece, CWElement.e(u.m, u.pairs, i))
    return out


def vector_mul_via_products(f):
    """Left multiplication by x = sum x_i e_i + sum q_j E[j], one variable
    product and one generator product per variable."""
    f = _lift(f)
    u = f.universe
    out = CValued(u, {}, f.envelope)
    for key, p in f.parts.items():
        for i in range(u.m):
            xi = sp_mul(neutral_bosonic_var(u, i), p)
            if xi:
                out = out + mul_generator_left(
                    CValued(u, {key: xi}, f.envelope),
                    CWElement.e(u.m, u.pairs, i))
        for j in range(len(u.fermionic)):
            qj = sp_mul(neutral_fermionic_var(u, j), p)
            if qj:
                out = out + mul_generator_left(
                    CValued(u, {key: qj}, f.envelope),
                    CWElement.eg(u.m, u.pairs, j))
    return out


def phi_via_derivatives(j, m_k):
    """(d_x + x)^j m_k exp(x^2/2): j rounds of the Dirac operator through
    the envelope plus the vector variable."""
    g = _lift(m_k)
    g = CValued(g.universe, g.parts, envelope=True)
    for _ in range(j):
        g = dirac_via_derivatives(g) + vector_mul_via_products(g)
    return g

# One pattern matches every token, whitespace and, last, any other
# character, so the matches tile the text.  A factor is a tuple tagged
# by its first entry:
#   ("scalar", a, b, d, h, s)  (a + b*i)/d * pi^(h/2) * sqrt2^s
#   ("x", index, exponent)     a power of one bosonic variable
#   ("q", bit)                 one fermionic variable, as its mask bit
#   ("G",)                     the Gaussian marker
#   ("terms", terms, gaussian) a term map: a parenthesised value or a power
_TOKEN = re.compile(r"\d+|sqrtpi|sqrt2|pi|i|G|[xq]\d+|[-+*/^()]|\s+|.",
                    re.DOTALL)

_ONE = ("scalar", 1, 0, 1, 0, 0)
_CONSTANTS = {"i": ("scalar", 0, 1, 1, 0, 0), "pi": ("scalar", 1, 0, 1, 2, 0),
              "sqrtpi": ("scalar", 1, 0, 1, 1, 0),
              "sqrt2": ("scalar", 1, 0, 1, 0, 1), "G": ("G",)}
_KINDS = {**{op: op for op in "-+*/^()"}, **dict.fromkeys(_CONSTANTS, "const")}
_FACTOR_START = frozenset(("num", "const", "x", "q", "("))


def _tokenize(src):
    """(kind, value, position) triples.  kind is "num" (value the int),
    "const" (value the factor), "x" or "q" (value the symbol text), an
    operator character, or "end"."""
    out = []
    pos = 0
    for text in _TOKEN.findall(src):
        kind = _KINDS.get(text)
        if kind == "const":
            out.append((kind, _CONSTANTS[text], pos))
        elif kind is not None:
            out.append((kind, None, pos))
        elif text[0].isdecimal():      # what \d matches
            out.append(("num", _literal_int(text), pos))
        elif len(text) > 1 and text[0] in "xq":
            if len(text) - 1 > expr.MAX_DIGITS:
                raise ValueError(f"symbol index of {len(text) - 1} digits "
                                 f"exceeds MAX_DIGITS = {expr.MAX_DIGITS}")
            out.append((text[0], text, pos))
        elif not text.isspace():       # what \s matches
            raise ParseError(f"unexpected character {text!r}", pos)
        pos += len(text)
    out.append(("end", None, len(src)))
    return out


def _fermionic_exponent(e, pos):
    """The exponent 0 or 1 a fermionic variable admits."""
    if e >= 2:
        raise ParseError("fermionic square", pos)
    if e < 0 or e.denominator != 1:
        raise ParseError("invalid fermionic power", pos)
    return int(e)


class TokenParser:
    """The grammar read one character-class token at a time, each token
    with its position."""

    def __init__(self, src, universe):
        self.tokens = _tokenize(src)
        self.universe = universe
        self.k = 0
        self.pairs = 0

    def spend(self, pairs):
        """Count term pairs against MAX_TERM_PAIRS before multiplying."""
        self.pairs += pairs
        if self.pairs > expr.MAX_TERM_PAIRS:
            raise ValueError(f"expression would multiply more than "
                             f"MAX_TERM_PAIRS = {expr.MAX_TERM_PAIRS} "
                             f"term pairs")

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op):
        kind, _, pos = self.next()
        if kind != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self):
        value = self.expr()
        kind, _, pos = self.tokens[self.k]
        if kind != "end":
            raise ParseError("trailing input", pos)
        return value

    def expr(self):
        """A sum of terms, as (term map, Gaussian flag)."""
        tokens = self.tokens
        sign = 1
        if tokens[self.k][0] == "-":
            self.k += 1
            sign = -1
        terms = {}
        gaussian = self.term(sign, terms)
        while True:
            kind, _, pos = tokens[self.k]
            if kind != "+" and kind != "-":
                return terms, gaussian
            self.k += 1
            if self.term(1 if kind == "+" else -1, terms) != gaussian:
                raise ParseError("cannot add Gaussian and plain terms", pos)

    def term(self, sign, terms):
        """Add sign times one product of factors into `terms` and return
        its Gaussian flag.  Single-term factors multiply into one monomial
        (a + b*i)/d * pi^(h/2) * sqrt2^s * scalar * x^bos * q^mask;
        sp_mul runs only from the first factor with two or more terms.
        Each product of the written order spends |value|*|factor| pairs."""
        tokens, u = self.tokens, self.universe
        a, b, d, h, s = sign, 0, 1, 0, 0
        scalar = None           # product of the multi-term scalar factors
        bos = [0] * u.m
        mask = 0
        live = True             # False once the product is zero
        gaussian = False
        poly = None             # the whole product, from the first sum on
        f = self.factor()
        first = True
        while True:
            tag = f[0]
            if tag == "terms":
                size, marked = len(f[1]), f[2]
            else:
                size = 0 if tag == "scalar" and not f[1] and not f[2] else 1
                marked = tag == "G"
            if not first:
                if gaussian and marked:
                    raise ParseError("duplicate Gaussian marker", pos)
                if poly is not None:
                    self.spend(len(poly.terms) * size)
                elif live:
                    self.spend(size)
            gaussian = gaussian or marked

            if tag == "G":
                pass
            elif poly is not None or size > 1:
                rhs = SuperPolynomial(u, self.factor_terms(f))
                if first:
                    poly = rhs if sign > 0 else -rhs
                else:
                    if poly is None:
                        poly = SuperPolynomial(u, _monomial(
                            live, a, b, d, h, s, scalar, bos, mask))
                    poly = sp_mul(poly, rhs)
            elif not size:
                live = False
            elif tag == "scalar":
                _, fa, fb, fd, fh, fs = f
                if fb:
                    a, b = a * fa - b * fb, a * fb + b * fa
                else:
                    a, b = a * fa, b * fa
                d, h, s = d * fd, h + fh, s + fs
            elif tag == "x":
                bos[f[1]] += f[2]
            else:
                if tag == "q":
                    fmask = f[1]
                else:
                    ((fbos, fmask), c), = f[1].items()
                    if any(fbos):
                        bos = [x + y for x, y in zip(bos, fbos)]
                    if len(c.terms) == 1:
                        ((fh, fs), q), = c.terms.items()
                        a, b = a * q.a - b * q.b, a * q.b + b * q.a
                        d, h, s = d * q.d, h + fh, s + fs
                    else:
                        scalar = c if scalar is None else scalar * c
                # the Koszul sign of sorting the factor's q into the mask
                merged = merge_masks(mask, fmask)
                if merged is None:
                    live = False
                elif merged[0] < 0:
                    a, b, mask = -a, -b, merged[1]
                else:
                    mask = merged[1]
            first = False

            kind, _, pos = tokens[self.k]
            if kind == "*":
                self.k += 1
            elif kind not in _FACTOR_START:
                break
            f = self.factor()
        if poly is None:
            poly_terms = _monomial(live, a, b, d, h, s, scalar, bos, mask)
        else:
            poly_terms = poly.terms
        for key, c in poly_terms.items():
            add_into(terms, key, c)
        return gaussian

    def factor_terms(self, f):
        """The term map of one factor."""
        tag = f[0]
        if tag == "terms":
            return f[1]
        u = self.universe
        zero = (0,) * u.m
        if tag == "x":
            bos = [0] * u.m
            bos[f[1]] = f[2]
            return {(tuple(bos), 0): _UNIT}
        if tag == "q":
            return {(zero, f[1]): _UNIT}
        c = _scalar(*f[1:])
        return {(zero, 0): c} if c else {}

    def factor(self):
        f = self.atom()
        kind, _, pos = self.tokens[self.k]
        if kind != "^":
            return f
        self.k += 1
        exponent = self.exponent()
        _check_exponent(exponent)
        return self.power(f, exponent, pos)

    def exponent(self):
        kind, val, pos = self.next()
        if kind == "num":
            return Fraction(val)
        if kind == "-":
            kind, val, pos = self.next()
            if kind != "num":
                raise ParseError("expected integer exponent", pos)
            return Fraction(-val)
        if kind == "(":
            sign = 1
            kind, val, pos = self.next()
            if kind == "-":
                sign = -1
                kind, val, pos = self.next()
            if kind != "num":
                raise ParseError("expected rational exponent", pos)
            num = val
            den = 1
            if self.tokens[self.k][0] == "/":
                self.k += 1
                kind, val, pos = self.next()
                if kind != "num":
                    raise ParseError("expected exponent denominator", pos)
                if not val:
                    raise ParseError("denominator must be non-zero", pos)
                den = val
            self.expect_op(")")
            return Fraction(sign * num, den)
        raise ParseError("expected exponent", pos)

    def power(self, f, exponent, pos):
        tag = f[0]
        if tag == "G" or (tag == "terms" and f[2]):
            raise ParseError("Gaussian marker cannot be raised to a power",
                             pos)
        if tag == "q":
            return f if _fermionic_exponent(exponent, pos) else _ONE
        if tag == "x" and exponent.denominator == 1 and exponent >= 0:
            k = int(exponent)
            self.spend(k)
            return ("x", f[1], k) if k else _ONE
        if tag == "scalar" and f[1:4] == (1, 0, 1):
            # pi^(h/2) * sqrt2^s; pi admits half-integer exponents
            h, s = f[4], f[5]
            if exponent.denominator == 1:
                k = int(exponent)
                return ("scalar", 1, 0, 1, h * k, s * k)
            if exponent.denominator == 2 and (h, s) == (2, 0):
                return ("scalar", 1, 0, 1, exponent.numerator, 0)
            raise ParseError("unsupported fractional power", pos)
        return ("terms", self.power_terms(self.factor_terms(f), exponent,
                                          pos), False)

    def power_terms(self, terms, exponent, pos):
        """The term map of terms ** exponent."""
        u = self.universe
        zero = (0,) * u.m
        if len(terms) == 1:
            ((bos, mask), c), = terms.items()
            if bos == zero and mask and not mask & (mask - 1) and c == _UNIT:
                return terms if _fermionic_exponent(exponent, pos) \
                    else {(zero, 0): _UNIT}
            if bos == zero and not mask:
                if exponent.denominator == 1:
                    return {(zero, 0): self.scalar_power(c, int(exponent))}
                if exponent.denominator == 2 and c == _PI:
                    return {(zero, 0): ExactScalar.pi_half_power(
                        exponent.numerator)}
                raise ParseError("unsupported fractional power", pos)
        if exponent.denominator != 1 or exponent < 0:
            raise ParseError("exponent must be a nonnegative integer", pos)
        # P^i * P for i < k makes t*|P^i| <= t*C(i+t-1, t-1) pairs
        t, k = len(terms), int(exponent)
        if t:
            self.spend(t * math.comb(k + t - 1, t))
        if not k:
            return {(zero, 0): _UNIT}
        if t == 1:
            ((bos, mask), c), = terms.items()
            if mask and k >= 2:
                raise ParseError("fermionic square", pos)
            return {(tuple(e * k for e in bos), mask):
                    self.scalar_power(c, k)}
        self.power_digits(terms.values(), k)
        base = SuperPolynomial(u, terms)
        out = base
        for _ in range(k - 1):
            out = sp_mul(out, base)
        if not out and k >= 2 and any(mask for (_, mask) in terms):
            raise ParseError("fermionic square", pos)
        return out.terms

    def scalar_power(self, c, k):
        """c ** k, refused before the arithmetic by `power_digits`, or
        when a multi-term c would multiply more term pairs than
        MAX_TERM_PAIRS allows."""
        if k < 0:
            c, k = c.inverse(), -k
        self.power_digits((c,), k)
        if len(c.terms) > 1:
            self.spend(_power_pairs(c, k))
        return c ** k

    @staticmethod
    def power_digits(coeffs, k):
        """Refuse the k-th power of a sum with these coefficients when a
        numerator or denominator of a coefficient of the result could
        pass MAX_POWER_DIGITS digits.  Over a common denominator den,
        (sum of |numerators|, sqrt2 counted twice)^k bounds every
        numerator of the multinomial expansion, and den^k every
        denominator.  A complex rational (a + b*i)/d in lowest terms has
        parts whose denominators have lcm d, so den is the lcm of the d
        fields."""
        qs = [(eps, q) for c in coeffs for (_, eps), q in c.terms.items()]
        den = math.lcm(*(q.d for _, q in qs))
        num = sum((abs(q.a) + abs(q.b)) * (den // q.d) * (1 + eps)
                  for eps, q in qs)
        if k * math.log10(max(num, den)) > expr.MAX_POWER_DIGITS:
            raise ValueError(f"scalar power would exceed MAX_POWER_DIGITS = "
                             f"{expr.MAX_POWER_DIGITS} digits")

    def atom(self):
        kind, val, pos = self.next()
        if kind == "const":
            return val
        if kind == "num":
            if self.tokens[self.k][0] != "/":
                return ("scalar", val, 0, 1, 0, 0)
            self.k += 1
            kind, den, pos = self.next()
            if kind != "num":
                raise ParseError("expected denominator", pos)
            if not den:
                raise ParseError("denominator must be non-zero", pos)
            return ("scalar", val, 0, den, 0, 0)
        if kind == "x" or kind == "q":
            u = self.universe
            idx = int(val[1:]) - 1
            if not 0 <= idx < (u.m if kind == "x" else len(u.fermionic)):
                raise ParseError(f"unknown symbol {val}", pos)
            return ("x", idx, 1) if kind == "x" else ("q", 1 << idx)
        if kind == "(":
            terms, gaussian = self.expr()
            self.expect_op(")")
            return ("terms", terms, gaussian)
        raise ParseError("expected a value", pos)


def parse_by_tokens(src, universe):
    """expr.parse through TokenParser."""
    terms, gaussian = TokenParser(src, universe).parse()
    poly = SuperPolynomial(universe, terms)
    return GaussianFunction(poly, True) if gaussian else poly


def doubled_universe(u):
    """Universe holding u's symbols followed by a second copy, bosonic
    y1..ym and fermionic s1..s2n; the second fermionic block sits at
    indices 2n..4n-1, where the kernels and the shift route put it."""
    return VariableUniverse(
        u.bosonic + tuple(f"y{i + 1}" for i in range(u.m)),
        u.fermionic + tuple(f"s{j + 1}" for j in range(len(u.fermionic))),
    )


def sp_substitute_fermionic(f, images):
    """Substitute fermionic variable j by the polynomial images[j] of f's
    universe, the monomial's factors multiplied out in written
    (ascending) order; bosonic factors pass through."""
    u = f.universe
    out = SuperPolynomial.zero(u)
    for (bos, mask), c in f.terms.items():
        piece = SuperPolynomial(u, {(bos, 0): c})
        for j in mask_bits(mask):
            piece = sp_mul(piece, images[j])
        out = out + piece
    return out


def berezin_by_derivatives(f, over=None):
    """pi^(-n') d_{q_last} ... d_{q_first} over a block of whole symbol
    pairs, one left derivative per symbol, then the integrated symbols
    renamed out of the universe."""
    poly = f.poly if isinstance(f, GaussianFunction) else f
    u = poly.universe
    nf = len(u.fermionic)
    over = sorted(range(nf) if over is None else over)
    if len(over) % 2:
        raise ValueError("odd subset")
    for a in range(0, len(over), 2):
        if over[a] % 2 or over[a + 1] != over[a] + 1:
            raise ValueError("subset must be whole symbol pairs")
    g = poly
    for j in over:            # rightmost operator first: ascending indices
        g = fermionic_derivative(g, j)
    g = scale_exact(g, ExactScalar.pi_half_power(-len(over)))
    keep = [j for j in range(nf) if j not in set(over)]
    target = VariableUniverse(u.bosonic, tuple(u.fermionic[j] for j in keep))
    fer_map = {j: i for i, j in enumerate(keep)}
    return sp_rename(g, target, {i: i for i in range(u.m)}, fer_map)


_PAIR = VariableUniverse((), ("q1", "q2"))


def berezin_row(width):
    """Berezin weights of the four pair sub-masks against the pair's
    envelope factor exp(width q1q2), read off the derivative chain at
    0|2."""
    env = fermionic_envelope_poly(_PAIR, width=width)
    return tuple(berezin_by_derivatives(sp_mul(
        SuperPolynomial(_PAIR, {((), sub): ExactScalar.one()}), env))
        .constant_term() for sub in range(4))


def grassmann_shift(f, dbl, block_out, block_in):
    """f(u - x): embed f on the output block and substitute u_j -> u_j - x_j.

    block_out/block_in are the fermionic index offsets of the u and x
    blocks inside the doubled universe."""
    n2 = len(f.universe.fermionic)
    f_emb = sp_rename(f, dbl, {i: i for i in range(f.universe.m)},
                      {j: block_out + j for j in range(n2)})
    images = []
    for j in range(len(dbl.fermionic)):
        var = SuperPolynomial.fermionic_var(dbl, j)
        if block_out <= j < block_out + n2:
            var = var - SuperPolynomial.fermionic_var(
                dbl, block_in + (j - block_out))
        images.append(var)
    return sp_substitute_fermionic(f_emb, images)


def convolution_by_shift(f, g):
    """f*g(u) = Berezin_x f(u-x) g(x) for purely fermionic f, g: the
    shift in a doubled universe, the product and the derivative chain
    over the x block."""
    u = f.universe
    if u.m:
        raise ValueError("convolution implemented fermionically only")
    n2 = len(u.fermionic)
    dbl = doubled_universe(u)
    f_shift = grassmann_shift(f, dbl, block_out=0, block_in=n2)
    g_emb = sp_rename(g, dbl, {}, {j: n2 + j for j in range(n2)})
    prod = sp_mul(f_shift, g_emb)
    integrated = berezin_by_derivatives(prod, over=range(n2, 2 * n2))
    return sp_rename(integrated, u, {}, {j: j for j in range(n2)})


def fermionic_kernel(u, a):
    """Fermionic kernel of order a (a in [-1, 1], a != 0) in the doubled
    universe, y block at fermionic indices 2n..4n-1: prod_p exp(s_p) with
    s_p = c (x_2p y_2p+1 - x_2p+1 y_2p) + d (x_2p x_2p+1 + y_2p y_2p+1),
    c = -2e/(2 - 2e^2), d = (1 + e^2)/(2 - 2e^2) and e = e^(i alpha).

    Returns (doubled universe, kernel, prefactor (pi (1 - e^2))^n).  At
    a = +/-1, d = 0 and c = -/+ i/2, the Fourier kernel
    exp(-/+ i <x,y>_f), exact; other orders are float.
    """
    a = Angle(a)
    if a.a == 0:
        raise ValueError("kernel degenerates at a = 0")
    if a.exact:                      # e^2 = -1
        one = ExactScalar.one()
        c, d = a.phase(1).scale(Fraction(-1, 2)), ExactScalar.zero()
        prefactor = ExactScalar.two_pi_half_power(2 * u.pairs)
    else:
        one = 1 + 0j
        e, e2 = a.phase(1), a.phase(2)
        c, d = -2 * e / (2 - 2 * e2), (1 + e2) / (2 - 2 * e2)
        prefactor = (math.pi * (1 - e2)) ** u.pairs
    dbl = doubled_universe(u)
    n2 = len(u.fermionic)
    kernel = SuperPolynomial.scalar(dbl, one)
    for p in range(u.pairs):
        x0, x1, y0, y1 = (neutral_fermionic_var(dbl, j) for j in
                          (2 * p, 2 * p + 1, n2 + 2 * p, n2 + 2 * p + 1))
        s = (sp_mul(x0, y1) - sp_mul(x1, y0)).scale(c) \
            + (sp_mul(x0, x1) + sp_mul(y0, y1)).scale(d)
        kernel = sp_mul(kernel, SuperPolynomial.scalar(dbl, one) + s
                        + sp_mul(s, s).scale(Fraction(1, 2)))
    return dbl, kernel, prefactor


def kernel_route(f, a):
    """prefactor * Berezin_x of K_a(x,y) f(x): the defining fermionic
    transform of order a on any universe (bosonic factors pass through),
    the identity at a = 0 and the oracle of the closed forms.  At a = +/-1,
    as in the exact transforms, float-lane input is refused.  At
    non-integral a the kernel's coefficients grow like 1/a while the
    prefactor shrinks like a, so the float result loses precision like
    1/a near a = 0: against frac_fermionic_table on a 16-term (0,2) input,
    the relative deviation is 3.8e-15 at a = 0.01 and 6.2e-13 at 1e-4."""
    a = Angle(a)
    if a.a == 0:
        return f
    u = f.universe
    dbl, kernel, prefactor = fermionic_kernel(u, a)
    if a.exact:
        _require_exact(f)
    else:
        f = f.map_coefficients(to_float)
    bos = {i: i for i in range(u.m)}
    fer = {j: j for j in range(len(u.fermionic))}
    integrated = berezin_by_derivatives(
        sp_mul(kernel, sp_rename(f, dbl, bos, fer)), over=fer)
    return sp_rename(integrated.scale(prefactor), u, bos, fer)


def operator_exponential_fourier(f, sign, cap=8):
    """Spectral route: expand in the psi family (2j+k <= cap), rotate each
    component by (+/- i)^(2j+k), reassemble."""
    require_envelope(f)
    u = f.universe
    span = psi_span(u, cap)
    coeffs = express_in_basis(f.poly, [s.poly for (_, _, _, s) in span])
    if coeffs is None:
        raise ValueError("degree cap exceeded")
    out = GaussianFunction(SuperPolynomial.zero(u), True)
    for (j, k, _, psi), c in zip(span, coeffs):
        if not c:
            continue
        phase = ExactScalar.i_power(2 * j + k)
        if sign == "-":
            phase = phase.conjugate()
        out = out + psi.scale(c * phase)
    return out


def bosonic_square_power(u, j):
    """(x_bos^2)^j = (-sum x_i^2)^j, one product by x_bos^2 at a time."""
    out = SuperPolynomial.one(u)
    for _ in range(j):
        out = multiply_vector_square(out, "bosonic")
    return out


def fermionic_square_power(u, j):
    """(x_fer^2)^j = (sum q_{2i-1} q_{2i})^j, one product by x_fer^2 at a
    time."""
    out = SuperPolynomial.one(u)
    for _ in range(j):
        out = multiply_vector_square(out, "fermionic")
    return out


def f_poly_by_products(k, p, q, universe):
    """Coupling polynomial sum_i C(k,i) (n-q-i)!/Gamma(m/2+p+k-i)
    * xbos^(2k-2i) * xfer^(2i), each power by repeated squares and each
    product by sp_mul."""
    u = universe
    n = u.pairs
    out = SuperPolynomial.zero(u)
    for i in range(k + 1):
        gamma = gamma_half_integer(u.m + 2 * (p + k - i))
        coeff = (ExactScalar.rational(math.comb(k, i)
                                      * math.factorial(n - q - i))
                 * gamma.inverse())
        piece = sp_mul(bosonic_square_power(u, k - i),
                       fermionic_square_power(u, i)).scale(coeff)
        out = out + piece
    return out


def _numerator(h):
    """The int numerator of the rational polynomial h, its one integer
    part (integer_parts), the denominator dropped."""
    _, parts = integer_parts(h)
    (numerator,) = parts.values()
    return numerator


def decomposition_check_by_products(k, universe):
    """harmonics.decomposition_check with every f * H_bos * H_fer product
    formed: each product and its Laplacian are taken on the integer parts
    of harmonics.f_poly (read at call time) times the int numerators of
    H_bos and H_fer, split here, the denominators dropped, so a product
    fails exactly when one of its parts has a non-zero Laplacian."""
    u = universe
    if u.m < 1:
        raise ValueError("harmonic decomposition needs m >= 1 (its Gamma "
                         "factors have poles at m = 0)")
    n = u.pairs
    dim_nullspace = harmonic_basis(k, "full", u).dimension
    dim_formula = 0
    for i in range(min(n, k) + 1):
        dim_formula += (harmonic_basis(k - i, "bosonic", u).dimension
                        * harmonic_basis(i, "fermionic", u).dimension)
    product_failures = []
    for j in range(0, min(n, k - 1)):
        fermionic = [_numerator(hf)
                     for hf in harmonic_basis(j, "fermionic", u)]
        for l in range(1, min(n - j, (k - j) // 2) + 1):
            p = k - 2 * l - j
            dim_formula += (harmonic_basis(p, "bosonic", u).dimension
                            * len(fermionic))
            _, f_parts = integer_parts(harmonics.f_poly(l, p, j, u))
            for hb in harmonic_basis(p, "bosonic", u):
                bosonic = _numerator(hb)
                for hf in fermionic:
                    g = sp_mul(bosonic, hf)
                    if any(laplace(sp_mul(f, g), "full")
                           for f in f_parts.values()):
                        product_failures.append((l, p, j))
    return {
        "k": k,
        "dim_nullspace": dim_nullspace,
        "dim_formula": dim_formula,
        "dims_match": dim_nullspace == dim_formula,
        "product_failures": product_failures,
        "products_harmonic": not product_failures,
    }


def fischer_fermionic(k, universe):
    """Spanning family of the degree-k Grassmann component organised as
    xfer^(2j) * H_fermionic(k-2j).

    Returns (j, harmonic, product) triples; products that vanish by
    nilpotency (harmonic degree + j beyond the pair count) are dropped,
    which reproduces the j <= n-k bound of the decomposition.
    """
    u = universe
    if not 0 <= k <= len(u.fermionic):
        raise ValueError("degree outside Grassmann range")
    family = []
    for j in range(k // 2 + 1):
        power = fermionic_square_power(u, j)
        for h in harmonic_basis(k - 2 * j, "fermionic", u):
            prod = sp_mul(power, h)
            if prod:
                family.append((j, h, prod))
    return family


def fischer_decompose(f, k=None):
    """Write a degree-k Grassmann element as sum_j xfer^(2j) h_j.

    Returns list of (j, h_j) with h_j fermionic-harmonic; exact solve
    against the Fischer family.
    """
    u = f.universe
    if k is None:
        k = f.degree()
    if k < 0:
        return []
    family = fischer_fermionic(k, u)
    coeffs = express_in_basis(f, [prod for _, _, prod in family])
    if coeffs is None:
        raise ValueError("element is not in the degree-k component")
    harmonics_by_j = {}
    for (j, h, _), c in zip(family, coeffs):
        add_into(harmonics_by_j, j, h.scale(c))
    return sorted(harmonics_by_j.items())


def harmonic_basis_by_nullspace(k, sector, universe):
    """The degree-k sector harmonics as the echelon nullspace of the
    sector Laplacian on the homogeneous monomials, a tuple of elements."""
    monos = homogeneous_monomials(universe, k, sector)

    def image(mono):
        # a lane-neutral integer coefficient keeps the image integral
        return laplace(SuperPolynomial(universe, {mono: 1}), sector).terms

    return tuple(
        SuperPolynomial(universe, {monos[ci]: ExactScalar.rational(val)
                                   for ci, val in vec.items()})
        for vec in nullspace(monos, image))


def express_in_basis(target, basis):
    """Exact coefficients writing `target` in the given rational-coefficient
    basis, or None if it is outside the span.

    Works with arbitrary ExactScalar targets by solving one rational
    system per (pi-power, sqrt2) component.
    """
    columns = []
    for el in basis:
        col = {}
        for key, c in el.terms.items():
            col[key] = c.rational_value()
        columns.append(col)
    ncols = len(basis)
    rhs_by_radical = {}
    for key, c in target.terms.items():
        for rad, q in c.terms.items():
            rhs_by_radical.setdefault(rad, {})[key] = q
    out = [ExactScalar.zero() for _ in range(ncols)]
    for rad, rhs in rhs_by_radical.items():
        sol = solve_rational(columns, rhs, ncols)
        if sol is None:
            return None
        for j, q in enumerate(sol):
            if q:
                out[j] = out[j] + ExactScalar({rad: q})
    return out


def solve_rational(columns_rows, rhs, ncols):
    """Solve A*x = rhs for one particular solution over QQi.

    `columns_rows[j]` is the sparse dict (row -> Fraction) of column j;
    `rhs` is a sparse dict row -> QQi.  Returns a list of QQi of length
    ncols (free variables zero) or None if the system is inconsistent.
    The rhs is carried as an extra column with index ncols, so a pivot
    landing there means 0 = nonzero.
    """
    aug = ncols
    rows = {}
    for j in range(ncols):
        for rkey, val in columns_rows[j].items():
            rows.setdefault(rkey, {})[j] = QQi(val)
    for rkey, val in rhs.items():
        if val:
            rows.setdefault(rkey, {})[aug] = val
    rref = SparseRREF()
    for rkey in sorted(rows):
        if rref.insert(rows[rkey]) == aug:
            return None
    sol = [QQi(0)] * ncols
    for pcol, prow in rref.pivots.items():
        sol[pcol] = prow.get(aug, QQi(0))
    return sol


def rising_factorial(base, count):
    """base*(base+1)*...*(base+count-1) as a Fraction; empty product is 1."""
    out = Fraction(1)
    b = Fraction(base)
    for v in range(count):
        out *= b + v
    return out


def ch_explicit(t, m_value, k):
    """Displayed coefficient formula for CH~_{2t,M,k}; even polynomial in
    x^2, returned as a list of ExactScalar coefficients of (x^2)^i.

    For M <= -2 even the factorial variant (with n = -M/2) is
    used; elsewhere the Gamma-ratio form, as a rising factorial so only
    genuine poles error out.
    """
    coeffs = []
    if m_value <= -2 and m_value % 2 == 0:
        n = -m_value // 2
        if n - k - t < 0:
            raise ValueError("gamma pole")
        for i in range(t + 1):
            c = Fraction(4 ** (t - i) * math.comb(t, i)
                         * math.factorial(n - k - i),
                         math.factorial(n - k - t))
            if (t - i) % 2:
                c = -c
            coeffs.append(ExactScalar.rational(c))
        return coeffs
    base = Fraction(2 * k + m_value, 2)
    for i in range(t + 1):
        ratio = rising_factorial(base + i, t - i)
        c = 4 ** (t - i) * math.comb(t, i) * ratio
        coeffs.append(ExactScalar.rational(c))
    return coeffs


def substitute_derivatives(h, target):
    """Apply H(d_x) to a Gaussian-class function, where H(d_x) replaces
    x_i -> -d/dx_i, q_{2i} -> 2 d/dq_{2i-1}, q_{2i-1} -> -2 d/dq_{2i}.

    Monomial factors act as composed operators in written order (the
    rightmost factor applies first)."""
    u = h.universe
    out = GaussianFunction(SuperPolynomial.zero(u))
    for (bos, mask), c in h.terms.items():
        g = target
        factors = []
        for i, e in enumerate(bos):
            factors.extend([("b", i)] * e)
        for jdx in mask_bits(mask):
            factors.append(("f", jdx))
        for kind, idx in reversed(factors):
            if kind == "b":
                g = bosonic_derivative(g, idx).scale(-1)
            elif idx % 2 == 0:
                g = fermionic_derivative(g, idx + 1).scale(-2)
            else:
                g = fermionic_derivative(g, idx - 1).scale(2)
        out = out + g.scale(c)
    return out


def fermionic_square(u):
    """The fermionic part sum q_{2j-1} q_{2j} of x^2."""
    terms = {}
    zero_b = (0,) * u.m
    for p in range(u.pairs):
        terms[(zero_b, (1 << (2 * p)) | (1 << (2 * p + 1)))] = \
            ExactScalar.one()
    return SuperPolynomial(u, terms)


def fermionic_envelope_poly(u, width=Fraction(1, 2), sign=1):
    """exp(sign*width*x`^2) expanded: prod_j (1 + sign*width q_{2j-1}q_{2j})."""
    out = SuperPolynomial.one(u)
    for p in range(u.pairs):
        pair = SuperPolynomial(
            u, {((0,) * u.m, 0): ExactScalar.one(),
                ((0,) * u.m, (1 << (2 * p)) | (1 << (2 * p + 1))):
                    ExactScalar.rational(Fraction(sign) * width)})
        out = sp_mul(out, pair)
    return out


def gaussian_expand_fermionic(f):
    """Rewrite poly*exp(x^2/2) as (poly * expanded fermionic factor)
    with only the bosonic envelope left implicit.

    Cross-check helper for the envelope product rules: operators applied
    through the envelope must agree with this explicit route.
    """
    require_envelope(f)
    return sp_mul(f.poly, fermionic_envelope_poly(f.universe))


def compositions_by_recursion(total, slots):
    """All tuples of `slots` nonnegative ints summing to `total`, first
    entry outermost."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions_by_recursion(total - first, slots - 1):
            yield (first,) + rest


def masks_of_weight_by_scan(width, weight):
    """The masks of `width` bits with `weight` bits set, by testing all
    2^width masks."""
    if weight == 0:
        yield 0
        return
    for mask in range(1 << width):
        if mask.bit_count() == weight:
            yield mask


def bounded_exps(slots, cap):
    """All tuples of `slots` nonnegative ints summing to at most `cap`."""
    if slots == 0:
        yield ()
        return
    for first in range(cap + 1):
        for rest in bounded_exps(slots - 1, cap - first):
            yield (first,) + rest


def mul_keys_by_combos(key1, key2, npairs):
    """Product of two normal-ordered unit words as (coefficient, key)
    pairs, each pair's contractions expanded over all partial words."""
    e1, w1 = key1
    e2, w2 = key2
    sign = -1 if (sum(w1) * e2.bit_count()) & 1 else 1
    inv = sum((e1 >> b + 1).bit_count() for b in mask_bits(e2))
    if (inv + (e1 & e2).bit_count()) & 1:
        sign = -sign
    combos = [(sign, [])]
    for p in range(npairs):
        a1, b1 = w1[2 * p], w1[2 * p + 1]
        a2, b2 = w2[2 * p], w2[2 * p + 1]
        nxt = []
        for k in range(min(b1, a2) + 1):
            c = math.comb(a2, k) * math.comb(b1, k) * math.factorial(k)
            if k & 1:
                c = -c
            for coeff, exps in combos:
                nxt.append((coeff * c, exps + [a1 + a2 - k, b1 + b2 - k]))
        combos = nxt
    return [(coeff, (e1 ^ e2, tuple(exps))) for coeff, exps in combos]


def monomial_text_route(u, bos, mask):
    """x1^2*x3*q1q2: the bosonic powers, then the fermionic symbols in
    ascending order, joined by '*'."""
    parts = []
    for i, e in enumerate(bos):
        if e == 1:
            parts.append(u.bosonic[i])
        elif e:
            parts.append(f"{u.bosonic[i]}^{e}")
    fer = "".join(u.fermionic[j] for j in mask_bits(mask))
    if fer:
        parts.append(fer)
    return "*".join(parts)


def monomial_latex_route(u, bos, mask):
    """x_{1}^{2}x_{3}q_{1}q_{2}: each symbol's trailing digits as its
    subscript."""
    mono = ""
    for i, e in enumerate(bos):
        name = re.sub(r"(\d+)$", r"_{\1}", u.bosonic[i])
        mono += name if e == 1 else (f"{name}^{{{e}}}" if e else "")
    for j in mask_bits(mask):
        mono += re.sub(r"(\d+)$", r"_{\1}", u.fermionic[j])
    return mono


def monomial_order_route(key):
    """Render order: higher degree first, then higher exponents in
    symbol order, then the mask."""
    bos, mask = key
    return (-(sum(bos) + mask.bit_count()), tuple(-e for e in bos), mask)


def solve_radial_poisson(rhs, m):
    """Particular solution of Delta g = rhs in the radial class.

    Log powers are introduced exactly at the resonances of a(a+m-2);
    homogeneous solutions are not added (minimal-growth choice).
    """
    sol = RadialFunction()
    remaining = rhs
    guard = 0
    while remaining:
        guard += 1
        if guard > 10000:
            raise RuntimeError("radial solve failed to terminate")
        (alpha, s), c = max(remaining.terms.items(),
                            key=lambda kv: (kv[0][1], kv[0][0]))
        a_new = alpha + 2
        lead0 = a_new * (a_new + m - 2)
        if lead0:
            term = RadialFunction.monomial(
                a_new, s, c * ExactScalar.rational(Fraction(1, lead0)))
        elif 2 * a_new + m - 2:
            lead1 = (s + 1) * (2 * a_new + m - 2)
            term = RadialFunction.monomial(
                a_new, s + 1, c * ExactScalar.rational(Fraction(1, lead1)))
        else:
            lead2 = (s + 2) * (s + 1)
            term = RadialFunction.monomial(
                a_new, s + 2, c * ExactScalar.rational(Fraction(1, lead2)))
        sol = sol + term
        remaining = remaining - radial_laplace(term, m)
    return sol
