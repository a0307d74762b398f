"""Normal-ordered Clifford-Weyl coefficient algebra and the Dirac sector.

Generators: m orthogonal units e_i (e_i^2 = -1, pairwise anticommuting)
and 2n symplectic units, internally E[2p] and E[2p+1] for pair p, with
E[2p]E[2p+1] - E[2p+1]E[2p] = 1, same-parity units commuting, and every
e_i anticommuting with every E[j].  All generators commute with all
variables, so C-valued polynomials split as sums (scalar function) * (unit
word), with unit words normal ordered e-units first, ascending, then
symplectic exponent vectors.

The super Dirac operator D = 2 sum (E[2p+1] d_{q_{2p}} - E[2p] d_{q_{2p+1}})
- sum e_i d_{x_i} and the vector variable x = sum x_i e_i + sum q_j E[j]
are one pass over the (unit word, monomial) pairs with integer weights,
the odd companion of the sl2 pass in operators.  Through the envelope
G = exp(x^2/2) the pass only changes its weights, since G^-1 D G = D + x.
"""

from __future__ import annotations

import math
from itertools import product
from operator import add

from ._terms import TermMap, add_into, canonical
from .scalars import ExactScalar
from .superalg import (GaussianFunction, SuperPolynomial, compositions,
                       homogeneous_monomial_count, homogeneous_monomials,
                       mask_bits)

# (monomial, unit word) columns the row reduction of monogenic_basis may
# run over: (3,1) at k = 3 spans 2000 and takes about 0.5 s, where
# k = 4 spans 4920 and took 2.2 s, and (3,2) at k = 3 15680 and 16.5 s
MAX_MONOGENIC_COLUMNS = 2000


def _mul_keys(key1, key2, npairs):
    """Product of two normal-ordered unit words.

    Yields (coefficient, key) pairs of the normal-ordered expansion;
    coefficients are ints or Fractions.
    """
    e1, w1 = key1
    e2, w2 = key2
    # e-units of key2 move left through the symplectic part of key1
    sign = -1 if (sum(w1) * e2.bit_count()) & 1 else 1
    # Clifford product with metric -1
    inv = 0
    m = e2
    while m:
        low = m & -m
        inv += (e1 >> low.bit_length()).bit_count()
        m ^= low
    if inv & 1:
        sign = -sign
    if (e1 & e2).bit_count() & 1:
        sign = -sign
    emask = e1 ^ e2
    # symplectic part: independent one-pair Weyl algebras; pair p of
    # exponents (a1, b1) times (a2, b2) contracts k <= min(b1, a2) times,
    # weighing (-1)^k C(a2,k) C(b1,k) k!, and the last pair's k varies
    # slowest
    exps = list(map(add, w1, w2))
    meets = [(p, w2[2 * p], w1[2 * p + 1]) for p in reversed(range(npairs))
             if w2[2 * p] and w1[2 * p + 1]]
    for ks in product(*(range(min(a2, b1) + 1) for _, a2, b1 in meets)):
        coeff, out = sign, exps[:]
        for (p, a2, b1), k in zip(meets, ks):
            if k:
                coeff *= ((-1) ** k * math.comb(a2, k) * math.comb(b1, k)
                          * math.factorial(k))
                out[2 * p] -= k
                out[2 * p + 1] -= k
        yield coeff, (emask, tuple(out))


def word_text(key):
    """A normal-ordered unit word as text, e.g. "e1 e3 f2 f4^2", or "1"."""
    emask, w = key
    gens = [f"e{i + 1}" for i in mask_bits(emask)]
    gens += [f"f{j + 1}" if exp == 1 else f"f{j + 1}^{exp}"
             for j, exp in enumerate(w) if exp]
    return " ".join(gens) or "1"


class CWElement(TermMap):
    """Element of the Clifford-Weyl algebra in normal-ordered form."""

    __slots__ = ("m", "npairs", "terms")
    _shape = ("m", "npairs")

    def __init__(self, m, npairs, terms=None):
        self.m = m
        self.npairs = npairs
        self.terms = canonical(terms)

    def _like(self, terms):
        return CWElement(self.m, self.npairs, terms)

    @staticmethod
    def zero(m, npairs):
        return CWElement(m, npairs)

    @staticmethod
    def one(m, npairs, coeff=None):
        coeff = ExactScalar.one() if coeff is None else coeff
        return CWElement(m, npairs, {(0, (0,) * (2 * npairs)): coeff})

    @staticmethod
    def e(m, npairs, i):
        if not 0 <= i < m:
            raise IndexError("orthogonal generator index out of range")
        return CWElement(m, npairs,
                         {(1 << i, (0,) * (2 * npairs)): ExactScalar.one()})

    @staticmethod
    def eg(m, npairs, j):
        if not 0 <= j < 2 * npairs:
            raise IndexError("symplectic generator index out of range")
        w = [0] * (2 * npairs)
        w[j] = 1
        return CWElement(m, npairs, {(0, tuple(w)): ExactScalar.one()})

    def render(self):
        return " + ".join(f"({c.render()})*{word_text(key)}"
                          for key, c in sorted(self.terms.items())) or "0"

    def __repr__(self):
        return f"CWElement<{self.render()}>"


def cw_mul(a, b):
    """Normal-ordered product; Weyl rewriting applied exhaustively."""
    a.check_shape(b)
    out = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            c12 = c1 * c2
            for coeff, key in _mul_keys(k1, k2, a.npairs):
                add_into(out, key, c12 * coeff)
    return a._like(out)


class CValued(TermMap):
    """Polynomial (or Gaussian-class function) with Clifford-Weyl values.

    Stored as unit-word -> scalar part; generators commute with all
    variables so the split is canonical.
    """

    __slots__ = ("universe", "terms", "envelope")
    _shape = ("universe", "envelope")

    def __init__(self, universe, parts=None, envelope=False):
        self.universe = universe
        self.envelope = envelope
        self.terms = canonical(parts)

    def _like(self, terms):
        return CValued(self.universe, terms, self.envelope)

    @property
    def parts(self):
        """Unit word -> scalar-part polynomial."""
        return self.terms

    @staticmethod
    def from_scalar(f):
        """Lift a SuperPolynomial or GaussianFunction to identity value."""
        key = (0, (0,) * len(f.universe.fermionic))
        if isinstance(f, GaussianFunction):
            return CValued(f.universe, {key: f.poly}, envelope=True)
        return CValued(f.universe, {key: f})

    @property
    def m(self):
        return self.universe.m

    @property
    def npairs(self):
        return self.universe.pairs

    def scalar_function(self):
        """The identity-word component (fails if other words survive)."""
        ident = (0, (0,) * len(self.universe.fermionic))
        for key in self.parts:
            if key != ident:
                raise ValueError("value is not scalar")
        poly = self.parts.get(ident, SuperPolynomial.zero(self.universe))
        if self.envelope:
            return GaussianFunction(poly)
        return poly

    def degree(self):
        return max((p.degree() for p in self.parts.values()), default=-1)

    def is_homogeneous(self):
        degs = set()
        for p in self.parts.values():
            degs.update(sum(b) + mk.bit_count() for (b, mk) in p.terms)
        return len(degs) <= 1

    def map_parts(self, op):
        """A scalar operator applied to every part, through the envelope
        when present."""
        if not self.envelope:
            return self._like({key: op(p) for key, p in self.parts.items()})
        return self._like({key: op(GaussianFunction(p)).poly
                           for key, p in self.parts.items()})


def _lift(f):
    return f if isinstance(f, CValued) else CValued.from_scalar(f)


def _odd_pass(f, lower, rise):
    """lower*D + rise*x in one pass over the (unit word, monomial) pairs;
    the integer weights keep it on either lane.  d_{x_i} and x_i meet
    e_i, d_{q_j} meets the other generator of q_j's pair with weight +2
    (j even) or -2 (j odd), and q_j meets E[j], each with the Koszul sign
    of q_j's place in the monomial.  A generator times a word of f comes
    from _mul_keys once, when a term first hits that generator.  Through
    the envelope, G^-1 D G = D + x."""
    f = _lift(f)
    u = f.universe
    m, npairs = u.m, u.pairs
    if f.envelope:
        rise += lower
    ident = (0,) * (2 * npairs)
    out = {}
    for word, p in f.parts.items():
        products = {}   # generator index -> its products with word
        for (bos, mask), c in p.terms.items():
            hits = []   # (generator index, monomial, integer weight)
            for i, e in enumerate(bos):
                if lower and e:
                    hits.append((i, (bos[:i] + (e - 1,) + bos[i + 1:], mask),
                                 -lower * e))
                if rise:
                    hits.append((i, (bos[:i] + (e + 1,) + bos[i + 1:], mask),
                                 rise))
            for j in range(2 * npairs):
                bit = 1 << j
                sign = -1 if (mask & (bit - 1)).bit_count() & 1 else 1
                if mask & bit:
                    if lower:
                        hits.append((m + (j ^ 1), (bos, mask ^ bit),
                                     sign * (-2 if j & 1 else 2) * lower))
                elif rise:
                    hits.append((m + j, (bos, mask | bit), sign * rise))
            for g, mono, weight in hits:
                if g not in products:
                    j = g - m
                    gen = (1 << g, ident) if j < 0 else (
                        0, ident[:j] + (1,) + ident[j + 1:])
                    products[g] = list(_mul_keys(gen, word, npairs))
                for coeff, nword in products[g]:
                    add_into(out.setdefault(nword, {}), mono,
                             c * (weight * coeff))
    return CValued(u, {word: SuperPolynomial(u, terms)
                       for word, terms in out.items()}, f.envelope)


def dirac_apply(f):
    """Super Dirac operator 2 sum (E[2p+1] d_{q_{2p}} - E[2p] d_{q_{2p+1}})
    - sum e_i d_{x_i}, acting through the envelope when present."""
    return _odd_pass(f, 1, 0)


def vector_mul(f):
    """Left multiplication by the vector variable x = sum x_i e_i
    + sum q_j E[j]."""
    return _odd_pass(f, 0, 1)


def monogenic_basis(k, universe):
    """Basis of degree-k nullspace of the Dirac operator, CW coefficients
    capped at symplectic order k.

    Exercised at small (m, n) and k only; the cap is an artifact choice.
    A negative k, or one whose columns (monomials times unit words) pass
    MAX_MONOGENIC_COLUMNS, is refused before any row reduction.
    """
    from ._linalg import nullspace
    u = universe
    if k < 0:
        raise ValueError("degree must be nonnegative")
    count = homogeneous_monomial_count(u, k) * (1 << u.m) \
        * math.comb(k + 2 * u.pairs, 2 * u.pairs)
    if count > MAX_MONOGENIC_COLUMNS:
        raise ValueError(f"degree k = {k} spans {count} columns, over "
                         f"MAX_MONOGENIC_COLUMNS = {MAX_MONOGENIC_COLUMNS}")
    monos = homogeneous_monomials(u, k)
    keys = _cw_keys(u.m, u.pairs, k)
    columns = [(mono, key) for mono in monos for key in keys]

    def image(col):
        mono, key = col
        f = CValued(u, {key: SuperPolynomial(
            u, {mono: ExactScalar.one()})})
        img = dirac_apply(f)
        rows = {}
        for ikey, p in img.parts.items():
            for imono, c in p.terms.items():
                rows[(imono, ikey)] = c.rational_value()
        return rows

    null = nullspace(columns, image)
    basis = []
    for vec in null:
        parts = {}
        for ci, val in vec.items():
            mono, key = columns[ci]
            add_into(parts, key,
                     SuperPolynomial(u, {mono: ExactScalar.rational(val)}))
        basis.append(CValued(u, parts))
    assert all(not dirac_apply(b) for b in basis)
    return basis


def _cw_keys(m, npairs, cap):
    """Unit words with symplectic order at most cap: the compositions of
    cap into 2n + 1 parts, the last one slack."""
    weyl_exps = [w[:-1] for w in compositions(cap, 2 * npairs + 1)]
    return [(emask, w) for emask in range(1 << m) for w in weyl_exps]
