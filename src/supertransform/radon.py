"""Super Radon transform via the central-slice pipeline: full Fourier
transform, the ray x -> r*omega (a term of degree d becomes r^d times
the same omega monomial), reduction mod (omega^2 + 1), and an exact
one-dimensional Fourier step in the radius.

Results live in (omega-polynomial mod the sphere relation) tensor
(p-polynomial times exp(-p^2/2)); the last omega appears at most to the
first power after reduction.  The ray terms are grouped by radius power
and each group is reduced once; the powers of the sphere relation are
built once per `radon` call and shared by its groups.  The radius step
sends r^k to i^k He_k(p), read from the same cached Hermite rows as the
bosonic Fourier factor, and the constants (2 pi)^(1/2) of that step and
(2 pi)^(M/2-1) of the slice are applied as one (2 pi)^((M-1)/2).
"""

from __future__ import annotations

from ._terms import TermMap, add_into
from .fourier import _UNITS, hermite_row, super_fourier
from .scalars import ExactScalar, QQi
from .superalg import (SuperPolynomial, VariableUniverse,
                       homogeneous_monomial_count, require_envelope, sp_mul,
                       sp_rename)

# result entries (omega monomial, power of p) the terms of one input may
# make, counted before the transform (output budget)
MAX_RESULT_ENTRIES = 2_000_000


def hermite_1d(k):
    """Probabilists' Hermite polynomial under the generating convention
    (d/dp)^k e^(-p^2/2) = (-1)^k H~_k(p) e^(-p^2/2), as a fresh dict
    power -> int read from the cached `hermite_row`."""
    return dict(hermite_row(k))


def _line_fourier(rpoly, weight):
    """weight * sum_k c_k i^k H~_k(p) over the r-polynomial {k: c_k}."""
    out = {}
    for k, c in rpoly.items():
        re, im = _UNITS[k % 4]
        for e, h in hermite_row(k):
            add_into(out, e, c.scale(QQi.reduced(re * h, im * h, 1)))
    return {e: c * weight for e, c in out.items()}


def one_dim_fourier(rpoly):
    """Integral of e^(ipr) r^k e^(-r^2/2) dr summed over the given
    r-polynomial: sqrt(2 pi) i^k H~_k(p) per power, exact in the ring."""
    return _line_fourier(rpoly, ExactScalar.two_pi_half_power(1))


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


def reduce_mod_sphere(f, powers=None):
    """Normal form mod (omega^2 + 1): write each term's w_m^e as
    (w_m^2)^q w_m^s with s < 2, rewrite w_m^2 by the relation, and sum
    the products into one dict; the last omega's degree is then at most
    one, since the substituted polynomial is w_m-free.  `powers` is the
    list [1, s, s^2, ...] of the rewrite image s of w_m^2, extended in
    place, so calls on one universe can share it."""
    u = f.universe
    if u.m < 1:
        raise ValueError("no purely fermionic sphere relation")
    last = u.m - 1
    if powers is None:
        powers = [SuperPolynomial.one(u)]
    by_q = {}
    for (bos, mask), c in f.terms.items():
        q, s = divmod(bos[last], 2)
        by_q.setdefault(q, {})[(bos[:last] + (s,), mask)] = c
    out = {}
    for q, piece in by_q.items():
        if q:
            while len(powers) <= q:
                powers.append(sp_mul(powers[-1], _sphere_substitution(u)))
            piece = sp_mul(powers[q],
                           SuperPolynomial(u, piece)).terms
        for key, c in piece.items():
            add_into(out, key, c)
    return f._like(out)


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


def check_result_size(f):
    """Refuse f before the transform when its terms could make more than
    MAX_RESULT_ENTRIES result entries.  A term of degree at most d, the
    top degree of f, makes at most one entry per omega monomial of degree
    at most d (the degree-d monomials with one more bosonic variable) and
    power p^e, e <= d."""
    u, poly = f.universe, f.poly
    d = poly.degree()
    wider = VariableUniverse.standard(u.m + 1, u.pairs)
    total = len(poly.terms) * homogeneous_monomial_count(wider, d) * (d + 1)
    if total > MAX_RESULT_ENTRIES:
        raise ValueError(f"radon could make {total} result entries, over "
                         f"MAX_RESULT_ENTRIES = {MAX_RESULT_ENTRIES}")


def radon(f):
    """Central-slice Radon transform of a Gaussian-class function:
    (2 pi)^(M/2-1) integral e^(ipr) [F^-(f)(r omega) mod omega^2+1] dr.
    A term of F^-(f) of degree d goes to r^d on the ray x = r omega.
    check_result_size runs before the transform."""
    require_envelope(f)
    u = f.universe
    if u.m < 1:
        raise ValueError("no purely fermionic Radon transform")
    check_result_size(f)
    uo = omega_universe(u.m, u.pairs)
    # one omega polynomial per radius power, each reduced once
    by_power = {}
    for (bos, mask), c in super_fourier(f, "-").poly.terms.items():
        by_power.setdefault(sum(bos) + mask.bit_count(), {})[bos, mask] = c
    by_omega, powers = {}, [SuperPolynomial.one(uo)]
    for rpow, omega in by_power.items():
        reduced = reduce_mod_sphere(SuperPolynomial(uo, omega), powers)
        for key, c in reduced.terms.items():
            by_omega.setdefault(key, {})[rpow] = c
    weight = ExactScalar.two_pi_half_power(u.superdim - 1)
    return RadonResult(uo, {key: _line_fourier(rpoly, weight)
                            for key, rpoly in by_omega.items()})


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
