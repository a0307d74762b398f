"""Super Radon transform via the central-slice pipeline: full Fourier
transform, ray substitution x -> r*omega, reduction mod (omega^2 + 1),
and an exact one-dimensional Fourier step in the radius.

Results live in (omega-polynomial mod the sphere relation) tensor
(p-polynomial times exp(-p^2/2)); the last omega appears at most to the
first power after reduction.
"""

from __future__ import annotations

from fractions import Fraction

from ._terms import TermMap, add_into
from .fourier import super_fourier
from .scalars import ExactScalar
from .superalg import (SuperPolynomial, VariableUniverse, sp_mul,
                       sp_rename, substitute_ray)


def hermite_1d(k):
    """Probabilists' Hermite polynomial under the generating convention
    (d/dp)^k e^(-p^2/2) = (-1)^k H~_k(p) e^(-p^2/2); dict power -> Fraction."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    cur = {0: Fraction(1)}
    for _ in range(k):
        nxt = {}
        for e, c in cur.items():           # H_{k+1} = p H_k - H_k'
            add_into(nxt, e + 1, c)
            if e:
                add_into(nxt, e - 1, -e * c)
        cur = nxt
    return cur


def one_dim_fourier(rpoly):
    """Integral of e^(ipr) r^k e^(-r^2/2) dr summed over the given
    r-polynomial: sqrt(2 pi) i^k H~_k(p) per power, exact in the ring."""
    out = {}
    root = ExactScalar.two_pi_half_power(1)
    for k, c in rpoly.items():
        w = c * root * ExactScalar.i_power(k)
        for e, h in hermite_1d(k).items():
            add_into(out, e, w * h)
    return out


def omega_universe(m, n):
    return VariableUniverse(tuple(f"w{i + 1}" for i in range(m)),
                            tuple(f"wf{j + 1}" for j in range(2 * n)))


def _sphere_substitution(u):
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


def reduce_mod_sphere(f):
    """Normal form mod (omega^2 + 1): rewrite w_m^2 by the relation until
    the last omega's degree is at most one; confluent because the
    substituted polynomial is w_m-free."""
    u = f.universe
    if u.m < 1:
        raise ValueError("no purely fermionic sphere relation")
    last = u.m - 1
    sub = _sphere_substitution(u)
    powers = {0: SuperPolynomial.one(u)}

    def sub_power(q):
        if q not in powers:
            powers[q] = sp_mul(sub_power(q - 1), sub)
        return powers[q]

    out = SuperPolynomial.zero(u)
    for (bos, mask), c in f.terms.items():
        e = bos[last]
        q, s = divmod(e, 2)
        rest = bos[:last] + (s,)
        piece = SuperPolynomial(u, {(rest, mask): c})
        out = out + sp_mul(sub_power(q), piece)
    # the substituted image is w_m-free, so one pass leaves degree <= 1
    assert all(key[0][last] < 2 for key in out.terms)
    return out


class RadonResult(TermMap):
    """Map omega-monomial -> p-polynomial {power: coefficient}, with
    envelope exp(-p^2/2).

    Omega monomials are kept in sphere-reduced normal form, so equality
    of results is equality mod the sphere relation.  Both levels of the
    nested map stay canonical: no zero coefficient, no empty p-polynomial.
    """

    __slots__ = ("universe", "terms")

    def __init__(self, universe, terms=None):
        self.universe = universe
        self.terms = _merge_terms({}, terms or {})

    def _like(self, terms):
        return RadonResult(self.universe, terms)

    @staticmethod
    def from_omega_poly(omega_poly, ppoly):
        """Tensor a (reduced) omega polynomial with one p-polynomial."""
        reduced = reduce_mod_sphere(omega_poly)
        terms = {}
        for key, c in reduced.terms.items():
            terms[key] = {e: c * h for e, h in ppoly.items()}
        return RadonResult(reduced.universe, terms)

    def __add__(self, other):
        if not isinstance(other, RadonResult):
            return NotImplemented
        return self._like(_merge_terms(_merge_terms({}, self.terms),
                                       other.terms))

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        return self._like({k: {e: v * c for e, v in p.items()}
                           for k, p in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, RadonResult):
            return NotImplemented
        return self.universe == other.universe and self.terms == other.terms

    def p_derivative(self):
        """d/dp through the envelope: p^e -> e p^(e-1) - p^(e+1)."""
        out = {}
        for key, ppoly in self.terms.items():
            npoly = out[key] = {}
            for e, c in ppoly.items():
                if e:
                    add_into(npoly, e - 1, c * e)
                add_into(npoly, e + 1, -c)
        return self._like(out)

    def mul_omega(self, h):
        """Multiply by an omega polynomial from the left, re-reducing."""
        out = {}
        for key, ppoly in self.terms.items():
            mono = SuperPolynomial(self.universe, {key: ExactScalar.one()})
            prod = reduce_mod_sphere(sp_mul(h, mono))
            for nkey, c in prod.terms.items():
                tgt = out.setdefault(nkey, {})
                for e, v in ppoly.items():
                    add_into(tgt, e, v * c)
        return self._like(out)

    def to_json(self):
        entries = []
        for (bos, mask), ppoly in sorted(self.terms.items()):
            entries.append({
                "omega_bos": list(bos),
                "omega_fer": [j + 1 for j in range(
                    len(self.universe.fermionic)) if mask >> j & 1],
                "p_poly": [[e, c.to_json()]
                           for e, c in sorted(ppoly.items())],
            })
        return {"envelope": "exp(-p^2/2)", "terms": entries}

    def __repr__(self):
        return f"RadonResult({len(self.terms)} omega terms)"


def _merge_terms(acc, terms):
    """Add the nested terms into `acc` (whose p-polynomials it owns),
    removing an omega key whose p-polynomial cancels."""
    for key, ppoly in terms.items():
        tgt = acc.setdefault(key, {})
        for e, c in ppoly.items():
            add_into(tgt, e, c)
        if not tgt:
            del acc[key]
    return acc


def radon(f):
    """Central-slice Radon transform of a Gaussian-class function:
    (2 pi)^(M/2-1) integral e^(ipr) [F^-(f)(r omega) mod omega^2+1] dr."""
    u = f.universe
    if u.m < 1:
        raise ValueError("no purely fermionic Radon transform")
    transformed = super_fourier(f, "-")
    ray = substitute_ray(transformed)
    uo = omega_universe(u.m, u.pairs)
    # split off the radius power, reduce the omega part
    by_omega = {}
    for (bos, mask), c in ray.poly.terms.items():
        rpow = bos[0]
        omono = SuperPolynomial(uo, {(bos[1:], mask): c})
        for key, rc in reduce_mod_sphere(omono).terms.items():
            add_into(by_omega.setdefault(key, {}), rpow, rc)
    prefactor = ExactScalar.two_pi_half_power(u.superdim - 2)
    terms = {}
    for key, rpoly in by_omega.items():
        ppoly = one_dim_fourier(rpoly)
        terms[key] = {e: c * prefactor for e, c in ppoly.items()}
    return RadonResult(uo, terms)


def radon_expected_eigenbasis(j, k, h, universe):
    """Closed form (-1)^j (2 pi)^((M-1)/2) H~_{2j+k}(p) e^(-p^2/2)
    H_k(omega) for comparison against the pipeline."""
    u = universe
    uo = omega_universe(u.m, u.pairs)
    h_omega = sp_rename(h, uo, {i: i for i in range(u.m)},
                        {j2: j2 for j2 in range(len(u.fermionic))})
    phase = ExactScalar.rational((-1) ** j) \
        * ExactScalar.two_pi_half_power(u.superdim - 1)
    ppoly = {e: phase * c for e, c in hermite_1d(2 * j + k).items()}
    return RadonResult.from_omega_poly(h_omega, ppoly)
