"""Super Radon transform via the central-slice pipeline: full Fourier
transform, the ray x -> r*omega (a term of degree d becomes r^d times
the same omega monomial), reduction mod (omega^2 + 1), and an exact
one-dimensional Fourier step in the radius.

Results live in (omega-polynomial mod the sphere relation) tensor
(p-polynomial times exp(-p^2/2)); the last omega appears at most to the
first power after reduction.  Each ray term goes straight to its images
under the sphere relation, the multinomial terms of a power of
w_m^2 = 1 + sum pairs - sum_{i<m} w_i^2 with integer weights (no
product of polynomials is formed).  A result is one flat term map keyed by
(omega monomial, power of p).  The radius step sends r^k to
i^k He_k(p), read from the same cached Hermite rows as the bosonic
Fourier factor, and the constants (2 pi)^(1/2) of that step and
(2 pi)^(M/2-1) of the slice are applied as one (2 pi)^((M-1)/2).

The whole pipeline runs on the integer numerators of
`fourier.fourier_numerators`: the Mehler images, the sphere images and
the radius step add int products into Gaussian-integer numerators over
one denominator, and (2 pi)^((M-1)/2) is a shift of each radical with
a power of 2 (`superalg.from_numerators`), so each result entry is built
once.  `one_dim_fourier` runs the same radius step.
"""

from __future__ import annotations

import math
from itertools import groupby

from ._terms import TermMap, add_into, canonical
from .fourier import add_images, fourier_numerators, hermite_row, turned
from .scalars import ExactScalar
from .superalg import (FER, SuperPolynomial, VariableUniverse,
                       from_numerators, homogeneous_monomial_count,
                       monomial_codec, numerators, require_envelope, sp_mul,
                       square_powers)

# result entries (omega monomial, power of p) the terms of one input may
# make, counted before the transform (output budget)
MAX_RESULT_ENTRIES = 2_000_000


def hermite_1d(k):
    """Probabilists' Hermite polynomial under the generating convention
    (d/dp)^k e^(-p^2/2) = (-1)^k H~_k(p) e^(-p^2/2), as a fresh dict
    power -> int read from the cached `hermite_row`."""
    return dict(hermite_row(k))


def _line_step(out, images, nums, k):
    """The radius step r^k -> i^k H~_k(p) on the numerator map nums of
    r^k: for each (key, n) of images, n i^k H~_k(p) nums is added into
    out at (key, e) for each power p^e, by int products of the Hermite
    row."""
    row = hermite_row(k)
    add_images(out, [((key, e), n * h) for key, n in images for e, h in row],
               turned(nums, k))


def one_dim_fourier(rpoly):
    """Integral of e^(ipr) r^k e^(-r^2/2) dr summed over the given
    r-polynomial: sqrt(2 pi) i^k H~_k(p) per power, exact in the ring."""
    denom, terms = numerators(rpoly)
    out = {}
    for k, nums in terms.items():
        _line_step(out, (((), 1),), nums, k)
    return {e: c for (_, e), c in from_numerators(denom, out, 1).items()}


def omega_universe(m, n):
    return VariableUniverse(tuple(f"w{i + 1}" for i in range(m)),
                            tuple(f"wf{j + 1}" for j in range(2 * n)))


def _sphere_images(bos, mask, pairs):
    """The terms (key, int) of the omega monomial (bos, mask) mod the
    sphere relation.  Its w_m^(2q+s), s < 2, becomes w_m^s times
    (1 + sum pairs - sum_{i<m} w_i^2)^q, whose term (-sum w_i^2)^a
    (sum pairs)^b weighs q!/(a! b! (q-a-b)!); a pair that meets the mask
    vanishes.  With m = 1 there is no w_i, so only a = 0 contributes."""
    last = len(bos) - 1
    q, s = divmod(bos[last], 2)
    if not q:
        yield (bos, mask), 1
        return
    head = bos[:last]
    for a in range(q + 1 if last else 1):
        for b in range(min(q - a, pairs) + 1):
            n = math.comb(q, a) * math.comb(q - a, b)
            for exp, pmask, w in square_powers(last, pairs, a, b):
                if not pmask & mask:
                    key = tuple(e1 + e2 for e1, e2 in zip(head, exp)) + (s,)
                    yield (key, mask | pmask), n * w


def reduce_mod_sphere(f):
    """Normal form mod (omega^2 + 1): every term goes to its images under
    the sphere relation (_sphere_images), summed into one dict; the last
    omega's degree is then at most one."""
    u = f.universe
    if u.m < 1:
        raise ValueError("no purely fermionic sphere relation")
    out = {}
    for (bos, mask), c in f.terms.items():
        for key, n in _sphere_images(bos, mask, u.pairs):
            add_into(out, key, c if n == 1 else c * n)
    return f._like(out)


class RadonResult(TermMap):
    """Map (omega monomial, power e of p) -> coefficient of
    omega-monomial * p^e, with envelope exp(-p^2/2).

    Omega monomials are kept in sphere-reduced normal form, so equality
    of results is equality mod the sphere relation.  Sorted keys come
    grouped by omega monomial, with the powers of p rising in each group.
    """

    __slots__ = ("universe", "terms")
    _shape = ("universe",)

    def __init__(self, universe, terms=None):
        self.universe = universe
        self.terms = canonical(terms)

    def _like(self, terms):
        return RadonResult(self.universe, terms)

    @staticmethod
    def from_omega_poly(omega_poly, ppoly):
        """Tensor a (reduced) omega polynomial with one p-polynomial."""
        reduced = reduce_mod_sphere(omega_poly)
        return RadonResult(reduced.universe, {
            (key, e): c * h for key, c in reduced.terms.items()
            for e, h in ppoly.items()})

    def by_omega(self):
        """(omega monomial, [(e, coefficient), ...]) in sorted order."""
        for key, group in groupby(sorted(self.terms.items()),
                                  lambda item: item[0][0]):
            yield key, [(e, c) for (_, e), c in group]

    def p_derivative(self):
        """d/dp through the envelope: p^e -> e p^(e-1) - p^(e+1)."""
        out = {}
        for (key, e), c in self.terms.items():
            if e:
                add_into(out, (key, e - 1), c * e)
            add_into(out, (key, e + 1), -c)
        return self._like(out)

    def mul_omega(self, h):
        """Multiply by an omega polynomial from the left, re-reducing."""
        out = {}
        for key, ppoly in self.by_omega():
            mono = SuperPolynomial(self.universe, {key: ExactScalar.one()})
            for nkey, c in reduce_mod_sphere(sp_mul(h, mono)).terms.items():
                for e, v in ppoly:
                    add_into(out, (nkey, e), v * c)
        return self._like(out)

    def to_json(self):
        codec = monomial_codec(self.universe)
        entries = [{"omega_bos": list(key[0]),
                    "omega_fer": list(codec[key][FER]),
                    "p_poly": [[e, c.to_json()] for e, c in ppoly]}
                   for key, ppoly in self.by_omega()]
        return {"envelope": "exp(-p^2/2)", "terms": entries}

    def __repr__(self):
        return f"RadonResult({len(self.terms)} terms)"


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
    denom, terms = fourier_numerators(f, "-")
    # each ray term, at radius power r^(its degree), goes to its sphere
    # images, and each of those through the radius step
    out = {}
    for (bos, mask), nums in terms.items():
        _line_step(out, _sphere_images(bos, mask, u.pairs), nums,
                   sum(bos) + mask.bit_count())
    return RadonResult(omega_universe(u.m, u.pairs),
                       from_numerators(denom, out, u.superdim - 1))


def radon_expected_eigenbasis(j, k, h, universe):
    """Closed form (-1)^j (2 pi)^((M-1)/2) H~_{2j+k}(p) e^(-p^2/2)
    H_k(omega) for comparison against the pipeline; h's keys carry over
    to the omega universe, which has the same shape."""
    u = universe
    h_omega = SuperPolynomial(omega_universe(u.m, u.pairs), h.terms)
    phase = ExactScalar.rational((-1) ** j) \
        * ExactScalar.two_pi_half_power(u.superdim - 1)
    ppoly = {e: phase * c for e, c in hermite_1d(2 * j + k).items()}
    return RadonResult.from_omega_poly(h_omega, ppoly)
