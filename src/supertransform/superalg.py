"""Super-polynomial arithmetic over commuting and anticommuting variables.

A universe fixes an ordered list of bosonic symbols and an even-length
ordered list of fermionic symbols.  Monomials are (bosonic multi-index,
fermionic bitmask) pairs with fermionic factors implicitly in ascending
index order; products carry the Koszul sign of the merge.  Fermionic pair
j (1-based in rendered names) occupies internal indices (2j-2, 2j-1).

A universe's monomial codec (monomial_codec) is the one owner of a
monomial's text, LaTeX, JSON symbol list and sort key; it holds at most
MAX_CODEC_MONOMIALS monomials, and grows only with the distinct
monomials actually rendered or sorted.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from itertools import combinations

from ._terms import TermMap, add_into, canonical, lane_mismatch
from .scalars import ExactScalar, QQi


# Universe budgets: every CLI subcommand on a one-term input at
# m = MAX_BOSONIC and n = MAX_PAIRS runs in about two seconds (dirac
# through the envelope, quadratic in n, is the slowest).
MAX_BOSONIC = 1000
MAX_PAIRS = 1000


def check_bosonic_count(m):
    """Refuse more than MAX_BOSONIC bosonic variables, before any symbol
    name is built."""
    if m > MAX_BOSONIC:
        raise ValueError(f"m = {m} bosonic variables exceeds "
                         f"MAX_BOSONIC = {MAX_BOSONIC}")


class VariableUniverse:
    """Ordered symbol lists; fermionic count must be even.

    Immutable by convention, so the sizes m, pairs and superdim and the
    hash of the two name tuples are computed once, at construction: the
    parser reads the sizes per term, and every memo keyed on a universe
    (bases, order checks, the monomial codec) reads the hash per
    lookup."""

    __slots__ = ("bosonic", "fermionic", "m", "pairs", "superdim", "_hash")

    def __init__(self, bosonic, fermionic):
        bosonic = tuple(bosonic)
        fermionic = tuple(fermionic)
        if len(fermionic) % 2:
            raise ValueError("fermionic symbol count must be even")
        names = bosonic + fermionic
        if len(set(names)) != len(names):
            raise ValueError("universe symbol names must be unique")
        self.bosonic = bosonic
        self.fermionic = fermionic
        self.m = len(bosonic)
        self.pairs = len(fermionic) // 2
        self.superdim = self.m - len(fermionic)     # M = m - 2n
        self._hash = hash((bosonic, fermionic))

    @staticmethod
    def standard(m, n):
        if m < 0 or n < 0:
            raise ValueError("universe sizes m and n must be non-negative")
        return VariableUniverse([f"x{i + 1}" for i in range(m)],
                                [f"q{j + 1}" for j in range(2 * n)])

    def __eq__(self, other):
        return (isinstance(other, VariableUniverse)
                and self.bosonic == other.bosonic
                and self.fermionic == other.fermionic)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"VariableUniverse({self.bosonic}, {self.fermionic})"


def merge_masks(a, b):
    """Sign and union of two fermionic masks, or None on overlap."""
    if a & b:
        return None
    inv = 0
    m = b
    while m:
        low = m & -m
        inv += (a >> low.bit_length()).bit_count()
        m ^= low
    return (-1 if inv & 1 else 1, a | b)


def mask_bits(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# The monomial codec's bounds: the universes with a codec, and the
# monomials each codec keeps before it starts afresh (a few thousand
# cover every benchmark workload).
MAX_CODEC_UNIVERSES = 16
MAX_CODEC_MONOMIALS = 4096

# fields of a monomial's codes after its sort key (the first three)
TEXT, LATEX, FER = 3, 4, 5

# a symbol's trailing digits, its LaTeX subscript: x12 as x_{12}
_LATEX_INDEX = re.compile(r"(\d+)$")


class MonomialCodec(dict):
    """A universe's monomial codes: codec[(bos, mask)] is the tuple
    (-degree, negated exponents, mask, text, latex, fer).  Its first
    three fields identify the monomial and order it as the renderers
    list it: higher degree first, then higher exponents in symbol order,
    then the mask; so the codes themselves are the sort key.  TEXT is
    x1^2*x3*q1q2, LATEX x_{1}^{2}x_{3}q_{1}q_{2}, and FER the 1-based
    indices of the fermionic symbols.

    Built on the first lookup of each key; at MAX_CODEC_MONOMIALS keys
    the codec is cleared, so it holds only monomials looked up lately.
    The codes are tuples of ints and strings, which the garbage
    collector stops tracking."""

    __slots__ = ("universe", "_bos_latex", "_fer_latex")

    def __init__(self, universe):
        super().__init__()
        self.universe = universe
        self._bos_latex = tuple(_LATEX_INDEX.sub(r"_{\1}", name)
                                for name in universe.bosonic)
        self._fer_latex = tuple(_LATEX_INDEX.sub(r"_{\1}", name)
                                for name in universe.fermionic)

    def __missing__(self, key):
        if len(self) >= MAX_CODEC_MONOMIALS:
            self.clear()
        u = self.universe
        bos, mask = key
        bits = mask_bits(mask)
        text, latex = [], ""
        for i, e in enumerate(bos):
            if e:
                name, tex = u.bosonic[i], self._bos_latex[i]
                if e == 1:
                    text.append(name)
                    latex += tex
                else:
                    text.append(f"{name}^{e}")
                    latex += f"{tex}^{{{e}}}"
        if bits:
            text.append("".join([u.fermionic[j] for j in bits]))
            latex += "".join([self._fer_latex[j] for j in bits])
        codes = self[key] = (
            -(sum(bos) + len(bits)), tuple([-e for e in bos]), mask,
            "*".join(text), latex, tuple([j + 1 for j in bits]))
        return codes


@functools.lru_cache(maxsize=MAX_CODEC_UNIVERSES)
def monomial_codec(u):
    """The MonomialCodec of universe u, shared by every renderer and by
    SuperPolynomial.sorted_terms."""
    return MonomialCodec(u)


def compositions(total, slots):
    """All tuples of `slots` nonnegative ints summing to `total`, in
    lexicographic order: the gaps between slots - 1 bars placed among
    total + slots - 1 places (stars and bars)."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    places = total + slots - 1
    for bars in combinations(range(places), slots - 1):
        edges = (-1,) + bars + (places,)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def masks_of_weight(width, weight):
    """The masks of `width` bits with `weight` bits set, ascending."""
    return sorted(sum(1 << b for b in bits)
                  for bits in combinations(range(width), weight))


def homogeneous_monomials(u, k, sector="full"):
    """Monomial keys of total degree k, optionally restricted to a sector."""
    nf = len(u.fermionic)
    if sector == "bosonic":
        return [(bos, 0) for bos in compositions(k, u.m)]
    if sector == "fermionic":
        return [((0,) * u.m, mask) for mask in masks_of_weight(nf, k)]
    return [(bos, mask) for fdeg in range(min(k, nf) + 1)
            for mask in masks_of_weight(nf, fdeg)
            for bos in compositions(k - fdeg, u.m)]


def homogeneous_monomial_count(u, k):
    """len(homogeneous_monomials(u, k)) from binomials, without listing
    them: C(2n, f) masks times C(k-f+m-1, m-1) compositions per f."""
    nf = len(u.fermionic)
    if k < 0:
        return 0
    if not u.m:
        return math.comb(nf, k)
    return sum(math.comb(nf, f) * math.comb(k - f + u.m - 1, u.m - 1)
               for f in range(min(k, nf) + 1))


class SuperPolynomial(TermMap):
    """Finite linear combination of super monomials.

    Coefficients are ExactScalar on the exact lane or complex on the
    float lane; the two lanes are never mixed inside one polynomial.
    """

    __slots__ = ("universe", "terms")
    _shape = ("universe",)

    def __init__(self, universe, terms=None):
        self.universe = universe
        self.terms = canonical(terms)

    def _like(self, terms):
        out = SuperPolynomial.__new__(SuperPolynomial)
        out.universe = self.universe
        out.terms = terms
        return out

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(u):
        return SuperPolynomial(u)

    @staticmethod
    def scalar(u, c):
        if isinstance(c, (int, Fraction)):
            c = ExactScalar.rational(c)
        return SuperPolynomial(u, {((0,) * u.m, 0): c})

    @staticmethod
    def one(u):
        return SuperPolynomial.scalar(u, ExactScalar.one())

    @staticmethod
    def bosonic_var(u, i, coeff=1):
        if not 0 <= i < u.m:
            raise IndexError("bosonic index out of range")
        exp = tuple(1 if j == i else 0 for j in range(u.m))
        if isinstance(coeff, (int, Fraction)):
            coeff = ExactScalar.rational(coeff)
        return SuperPolynomial(u, {(exp, 0): coeff})

    @staticmethod
    def fermionic_var(u, j, coeff=1):
        if not 0 <= j < len(u.fermionic):
            raise IndexError("fermionic index out of range")
        if isinstance(coeff, (int, Fraction)):
            coeff = ExactScalar.rational(coeff)
        return SuperPolynomial(u, {((0,) * u.m, 1 << j): coeff})

    @staticmethod
    def monomial(u, bos_exp, fer_mask, coeff):
        """coeff times one monomial, its key checked against u: m
        non-negative exponents and a mask within the 2n symbol bits."""
        bos_exp = tuple(bos_exp)
        if len(bos_exp) != u.m:
            raise ValueError(f"a monomial has m = {u.m} bosonic exponents, "
                             f"not {len(bos_exp)}")
        if any(e < 0 for e in bos_exp):
            raise ValueError("bosonic exponents must be non-negative")
        if not 0 <= fer_mask < 1 << len(u.fermionic):
            raise ValueError(f"fermionic mask must lie within the "
                             f"2n = {len(u.fermionic)} symbol bits")
        return SuperPolynomial(u, {(bos_exp, fer_mask): coeff})

    # -- ring structure ---------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, SuperPolynomial):
            return sp_mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    # -- structure info ----------------------------------------------------

    def degree(self):
        if not self.terms:
            return -1
        return max(sum(b) + m.bit_count() for (b, m) in self.terms)

    def constant_term(self):
        key = ((0,) * self.universe.m, 0)
        return self.terms.get(key, ExactScalar.zero())

    def sorted_terms(self):
        codec = monomial_codec(self.universe)
        return sorted(self.terms.items(), key=lambda kv: codec[kv[0]])

    def __repr__(self):
        from .expr import render_poly_text
        return f"SuperPolynomial<{render_poly_text(self)}>"


def is_float_lane(p):
    """True when the polynomial carries complex (float-backend) scalars;
    sums keep one lane, so the first coefficient tells."""
    for v in p.terms.values():
        return not isinstance(v, ExactScalar)
    return False


def scale_exact(p, s):
    """Scale by an ExactScalar, degrading it on the float lane."""
    return p.scale(s.to_complex() if is_float_lane(p) else s)


def common_denominator(terms):
    """The lcm of the QQi denominators of a key -> ExactScalar map."""
    return math.lcm(*(q.d for c in terms.values() for q in c.terms.values()))


def integer_parts(poly):
    """(D, parts) with poly = sum over parts of r * P / D: D is the lcm of
    the exact polynomial's QQi denominators, and parts maps (radical,
    0 | 1) to the int-coefficient P of the real (0) or imaginary (1)
    numerators on the basis element r = pi^(b/2) sqrt2^eps (times i).

    Those basis elements are linearly independent over Q, so a linear
    map with rational weights (a Laplacian, a product by x^2) is zero on
    poly exactly when it is zero on every part.
    """
    denom = common_denominator(poly.terms)
    parts = {}
    for key, c in poly.terms.items():
        for rad, q in c.terms.items():
            scale = denom // q.d
            if q.a:
                parts.setdefault((rad, 0), {})[key] = q.a * scale
            if q.b:
                parts.setdefault((rad, 1), {})[key] = q.b * scale
    return denom, {part: poly._like(terms) for part, terms in parts.items()}


def from_integer_parts(universe, denom, parts):
    """The exact polynomial sum over parts of r * P / denom, inverse of
    integer_parts; one QQi (one gcd) per output term and radical.  One
    part, as a rational basis gives, needs no gathering per term."""
    if len(parts) == 1:
        ((rad, imag), p), = parts.items()
        return SuperPolynomial(universe, {
            key: ExactScalar.from_terms({rad: QQi.reduced(
                0 if imag else v, v if imag else 0, denom)})
            for key, v in p.terms.items()})
    fields = {}
    for (rad, imag), p in parts.items():
        for key, v in p.terms.items():
            fields.setdefault(key, {}).setdefault(rad, [0, 0])[imag] += v
    return SuperPolynomial(universe, from_numerators(denom, fields))


def numerators(terms):
    """(D, {key: {radical: [re, im]}}) for a key -> ExactScalar map: D the
    lcm of its QQi denominators and each coefficient's Gaussian-integer
    numerators over D, radical by radical."""
    denom = common_denominator(terms)
    return denom, {key: {rad: [q.a * (denom // q.d), q.b * (denom // q.d)]
                         for rad, q in c.terms.items()}
                   for key, c in terms.items()}


def from_numerators(denom, terms, shift=0):
    """{key: ExactScalar} of the numerator maps {radical: [re, im]} over
    denom, inverse of `numerators`, each times (2 pi)^(shift/2): the
    radical pi^(b/2) sqrt2^eps moves to pi^((b+shift)/2)
    sqrt2^((eps+shift) mod 2), and the 2^((eps+shift) div 2) it leaves
    goes into the numerators or into D.  One QQi (one gcd) and one scalar
    per output term; zero numerators are dropped."""
    # per eps: the new eps, the numerators' factor and the denominator
    moves = []
    for eps in (0, 1):
        two = (eps + shift) >> 1
        moves.append(((eps + shift) & 1, 1 << max(two, 0),
                      denom << max(-two, 0)))
    out = {}
    for key, nums in terms.items():
        c = {}
        for (b, eps), (x, y) in nums.items():
            if x or y:
                e, two, den = moves[eps]
                c[(b + shift, e)] = QQi.reduced(x * two, y * two, den)
        if c:
            out[key] = ExactScalar.from_terms(c)
    return out


# the coefficient types of the exact and the float lane; int and Fraction
# coefficients (integer parts, oracles) are of neither and multiply with
# both
_LANES = (ExactScalar, complex)


def sp_mul(f, g):
    """Product with the Koszul sign convention on fermionic merges; a
    product of the two lanes is refused."""
    if f.universe != g.universe:
        raise ValueError("universe mismatch")
    if f.terms and g.terms:
        mine = type(next(iter(f.terms.values())))
        theirs = type(next(iter(g.terms.values())))
        if mine is not theirs and mine in _LANES and theirs in _LANES:
            raise lane_mismatch("multiply", mine, theirs)
    out = {}
    for (b1, m1), c1 in f.terms.items():
        for (b2, m2), c2 in g.terms.items():
            merged = merge_masks(m1, m2)
            if merged is None:
                continue
            sign, mask = merged
            key = (tuple(e1 + e2 for e1, e2 in zip(b1, b2)), mask)
            c = c1 * c2
            add_into(out, key, -c if sign < 0 else c)
    return f._like(out)


def sp_rename(f, target, bos_map, fer_map):
    """Carry f into `target` along index maps, with reordering signs.

    bos_map/fer_map send source variable indices to target indices; the
    fermionic map may permute, and each monomial picks up the parity of
    the induced reordering.
    """
    out = {}
    tm = target.m
    for (bos, mask), c in f.terms.items():
        nb = [0] * tm
        for i, e in enumerate(bos):
            if e:
                nb[bos_map[i]] += e
        images = [fer_map[j] for j in mask_bits(mask)]
        inv = 0
        for a in range(len(images)):
            for b in range(a + 1, len(images)):
                if images[a] > images[b]:
                    inv += 1
        nmask = 0
        for j in images:
            if nmask & (1 << j):
                raise ValueError("fermionic rename collision")
            nmask |= 1 << j
        add_into(out, (tuple(nb), nmask), -c if inv & 1 else c)
    return SuperPolynomial(target, out)


def square_powers(r, pairs, a, b):
    """The terms of (-x_1^2 - ... - x_r^2)^a (sum_j q_{2j-1} q_{2j})^b as
    (exponents of x_1..x_r, mask, int).

    A symbol pair is even, commutes with everything and squares to zero,
    so no Koszul sign arises: x^(2g) with |g| = a weighs (-1)^a a!/g!,
    and each set of b of the `pairs` pairs weighs b!.
    """
    masks = [sum(3 << 2 * j for j in js)
             for js in combinations(range(pairs), b)]
    top = (-1) ** a * math.factorial(a) * math.factorial(b)
    for g in compositions(a, r):
        exp = tuple(2 * e for e in g)
        w = top // math.prod(map(math.factorial, g))
        for mask in masks:
            yield exp, mask, w


def vector_square(u):
    """The polynomial x^2 = sum q_{2j-1} q_{2j} - sum x_i^2: the (a, b) =
    (1, 0) and (0, 1) terms of square_powers."""
    return SuperPolynomial(u, {
        (exp, mask): ExactScalar.rational(w) for a, b in ((1, 0), (0, 1))
        for exp, mask, w in square_powers(u.m, u.pairs, a, b)})


def pairing(u_x, u_y):
    """Symplectic pairing <x,y> in the doubled universe.

    <x,y> = -sum x_i y_i + (1/2) sum (x`_{2j-1} y`_{2j} - x`_{2j} y`_{2j-1});
    u_x and u_y must have the same shape.
    """
    if (u_x.m, u_x.pairs) != (u_y.m, u_y.pairs):
        raise ValueError("shape mismatch")
    m, n = u_x.m, u_x.pairs
    dbl = VariableUniverse(u_x.bosonic + u_y.bosonic,
                           u_x.fermionic + u_y.fermionic)
    terms = {}
    zero_b = (0,) * dbl.m
    for i in range(m):
        exp = [0] * dbl.m
        exp[i] = 1
        exp[m + i] = 1
        terms[(tuple(exp), 0)] = ExactScalar.rational(-1)
    half = ExactScalar.rational(1, 2)
    for p in range(n):
        x_odd, x_even = 2 * p, 2 * p + 1
        y_odd, y_even = 2 * n + 2 * p, 2 * n + 2 * p + 1
        terms[(zero_b, (1 << x_odd) | (1 << y_even))] = half
        terms[(zero_b, (1 << x_even) | (1 << y_odd))] = -half
    return SuperPolynomial(dbl, terms)


class GaussianFunction(TermMap):
    """Super polynomial times the super-Gaussian envelope G = exp(x^2/2).

    The envelope is implied, never a series: operators act through it by
    product rules, and a plain polynomial is a SuperPolynomial.  The
    terms are the polynomial's, so the linear structure is TermMap's.
    The second argument is kept only for callers that pass True.

    `text` is the plain-text rendering, filled by expr.render_poly_text
    on the first render and read back after that; it takes no part in
    equality, repr, LaTeX or JSON.  That is sound because nothing
    changes a term map or rebinds `poly` after construction, which the
    psi series that the store of hermite shares already rely on.
    """

    __slots__ = ("poly", "text")
    _shape = ("universe",)

    def __init__(self, poly, envelope=True):
        if envelope is not True:
            raise ValueError("a Gaussian function always carries the "
                             "envelope; a plain polynomial is a "
                             "SuperPolynomial")
        self.poly = poly
        self.text = None

    @property
    def universe(self):
        return self.poly.universe

    @property
    def terms(self):
        return self.poly.terms

    def _like(self, terms):
        return GaussianFunction(self.poly._like(terms))

    def mul_poly(self, g):
        """Multiply by a plain polynomial from the left."""
        return GaussianFunction(sp_mul(g, self.poly))

    def __repr__(self):
        return f"GaussianFunction<{self.poly!r}*G>"


def require_envelope(f):
    """Refuse anything but a Gaussian function."""
    if not isinstance(f, GaussianFunction):
        raise ValueError("envelope missing")
