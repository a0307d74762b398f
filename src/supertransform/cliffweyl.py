"""Normal-ordered Clifford-Weyl coefficient algebra and the Dirac sector.

Generators: m orthogonal units e_i (e_i^2 = -1, pairwise anticommuting)
and 2n symplectic units, internally E[2p] and E[2p+1] for pair p, with
E[2p]E[2p+1] - E[2p+1]E[2p] = 1, same-parity units commuting, and every
e_i anticommuting with every E[j].  All generators commute with all
variables, so C-valued polynomials split as sums (scalar function) * (unit
word), with unit words normal ordered e-units first, ascending, then
symplectic exponent vectors.
"""

from __future__ import annotations

import math

from . import operators
from ._terms import TermMap, add_into, canonical
from .scalars import ExactScalar
from .superalg import (GaussianFunction, SuperPolynomial,
                       homogeneous_monomials, mask_bits,
                       neutral_bosonic_var, neutral_fermionic_var,
                       scale_exact, sp_mul)


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
    # symplectic part: independent one-pair Weyl algebras
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
    for coeff, exps in combos:
        yield coeff, (emask, tuple(exps))


class CWElement(TermMap):
    """Element of the Clifford-Weyl algebra in normal-ordered form."""

    __slots__ = ("m", "npairs", "terms")

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

    def _check(self, other):
        if (self.m, self.npairs) != (other.m, other.npairs):
            raise ValueError("shape mismatch")

    def __eq__(self, other):
        if not isinstance(other, CWElement):
            return NotImplemented
        return ((self.m, self.npairs) == (other.m, other.npairs)
                and self.terms == other.terms)

    def render(self):
        if not self.terms:
            return "0"
        bits = []
        for (emask, w), c in sorted(self.terms.items()):
            gens = [f"e{i + 1}" for i in mask_bits(emask)]
            for j, exp in enumerate(w):
                if exp == 1:
                    gens.append(f"f{j + 1}")
                elif exp > 1:
                    gens.append(f"f{j + 1}^{exp}")
            word = " ".join(gens) if gens else "1"
            bits.append(f"({c.render()})*{word}")
        return " + ".join(bits)

    def __repr__(self):
        return f"CWElement<{self.render()}>"


def cw_mul(a, b):
    """Normal-ordered product; Weyl rewriting applied exhaustively."""
    a._check(b)
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

    def __init__(self, universe, parts=None, envelope=False):
        self.universe = universe
        self.envelope = envelope
        self.terms = canonical(parts)

    def _like(self, terms):
        return CValued(self.universe, terms, self.envelope)

    def _check(self, other):
        if self.envelope != other.envelope:
            raise ValueError("cannot add different envelopes")

    @property
    def parts(self):
        """Unit word -> scalar-part polynomial."""
        return self.terms

    @staticmethod
    def from_scalar(f):
        """Lift a SuperPolynomial or GaussianFunction to identity value."""
        if isinstance(f, GaussianFunction):
            u = f.universe
            key = (0, (0,) * len(u.fermionic))
            return CValued(u, {key: f.poly}, envelope=f.envelope)
        u = f.universe
        key = (0, (0,) * len(u.fermionic))
        return CValued(u, {key: f}, envelope=False)

    @property
    def m(self):
        return self.universe.m

    @property
    def npairs(self):
        return self.universe.pairs

    def __eq__(self, other):
        if not isinstance(other, CValued):
            return NotImplemented
        return (self.universe == other.universe
                and self.envelope == other.envelope
                and self.parts == other.parts)

    def scalar_function(self):
        """The identity-word component (fails if other words survive)."""
        ident = (0, (0,) * len(self.universe.fermionic))
        for key in self.parts:
            if key != ident:
                raise ValueError("value is not scalar")
        poly = self.parts.get(ident, SuperPolynomial.zero(self.universe))
        if self.envelope:
            return GaussianFunction(poly, True)
        return poly

    def degree(self):
        return max((p.degree() for p in self.parts.values()), default=-1)

    def is_homogeneous(self):
        degs = set()
        for p in self.parts.values():
            degs.update(sum(b) + mk.bit_count() for (b, mk) in p.terms)
        return len(degs) <= 1

    def _wrap(self, poly):
        return GaussianFunction(poly, True) if self.envelope else poly

    @staticmethod
    def _unwrap(f):
        return f.poly if isinstance(f, GaussianFunction) else f


def mul_generator_left(f, gen):
    """Left multiplication of a CValued by a single CW element."""
    out = {}
    for key, p in f.parts.items():
        for (gkey, gc) in gen.terms.items():
            for coeff, nkey in _mul_keys(gkey, key, f.npairs):
                add_into(out, nkey, scale_exact(p, gc * coeff))
    return f._like(out)


def _lift(f):
    if isinstance(f, (SuperPolynomial, GaussianFunction)):
        return CValued.from_scalar(f)
    return f


def dirac_apply(f):
    """Super Dirac operator 2 sum (E[2p+1] d_{q_{2p}} - E[2p] d_{q_{2p+1}})
    - sum e_i d_{x_i}, acting through the envelope when present."""
    f = _lift(f)
    u = f.universe
    out = CValued(u, {}, f.envelope)
    for key, p in f.parts.items():
        wrapped = f._wrap(p)
        for pair in range(u.pairs):
            d1 = CValued._unwrap(
                operators.fermionic_derivative(wrapped, 2 * pair))
            d2 = CValued._unwrap(
                operators.fermionic_derivative(wrapped, 2 * pair + 1))
            if d1:
                piece = CValued(u, {key: d1.scale(2)}, f.envelope)
                out = out + mul_generator_left(
                    piece, CWElement.eg(u.m, u.pairs, 2 * pair + 1))
            if d2:
                piece = CValued(u, {key: d2.scale(-2)}, f.envelope)
                out = out + mul_generator_left(
                    piece, CWElement.eg(u.m, u.pairs, 2 * pair))
        for i in range(u.m):
            di = CValued._unwrap(operators.bosonic_derivative(wrapped, i))
            if di:
                piece = CValued(u, {key: -di}, f.envelope)
                out = out + mul_generator_left(
                    piece, CWElement.e(u.m, u.pairs, i))
    return out


def vector_mul(f):
    """Left multiplication by the vector variable x = sum x_i e_i
    + sum q_j E[j]."""
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


def vector_pow_mul(f, j):
    for _ in range(j):
        f = vector_mul(f)
    return f


def laplace_cvalued(f):
    """Scalar Laplacian applied componentwise to a CValued function."""
    f = _lift(f)
    return CValued(f.universe, {
        key: CValued._unwrap(operators.laplace(f._wrap(p), "full"))
        for key, p in f.parts.items()}, f.envelope)


def euler_cvalued(f):
    f = _lift(f)
    return CValued(f.universe, {
        key: CValued._unwrap(operators.euler(f._wrap(p)))
        for key, p in f.parts.items()}, f.envelope)


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
        lhs = laplace_cvalued(vector_pow_mul(r_k, 2 * s))
        rhs = (vector_pow_mul(r_k, 2 * s - 2)
               .scale(2 * s * (2 * k + big_m + 2 * s - 2))
               if s else CValued(u, {}))
        rhs = rhs + vector_pow_mul(laplace_cvalued(r_k), 2 * s)
        return lhs == rhs
    raise ValueError(f"unknown variant {variant!r}")


def monogenic_basis(k, universe, weyl_cap=None):
    """Basis of degree-k nullspace of the Dirac operator, CW coefficients
    capped at the given symplectic order (defaults to k).

    Exercised at small (m, n) and k only; the cap is an artifact choice.
    """
    from ._linalg import nullspace
    u = universe
    cap = k if weyl_cap is None else weyl_cap
    monos = homogeneous_monomials(u, k)
    keys = _cw_keys(u.m, u.pairs, cap)
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
    keys = []
    weyl_exps = list(_bounded_exps(2 * npairs, cap))
    for emask in range(1 << m):
        for w in weyl_exps:
            keys.append((emask, tuple(w)))
    return keys


def _bounded_exps(slots, cap):
    if slots == 0:
        yield ()
        return
    for first in range(cap + 1):
        for rest in _bounded_exps(slots - 1, cap - first):
            yield (first,) + rest
