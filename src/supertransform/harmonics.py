"""Spherical-harmonic bases, and the decomposition of the full harmonic
space into SO(m) x Sp(2n) pieces.

Every basis is a closed formula.  At m >= 1 the bosonic and full bases
come from the Cauchy-Kovalevskaya extension in x_m (De Bie and Sommen,
J. Phys. A 40 (2007) 7193): with Delta = -d_m^2 + Delta', the datum
x_m^e g (e <= 1, g free of x_m) extends to the harmonic
sum_i x_m^(e+2i) Delta'^i g / (e+2i)!, with no Fischer decomposition, so
also at M in -2N.  The fermionic sector and m = 0 come from products
S * prod (y_b - y_a) of the symbol pairs y_j = q_(2j-1) q_(2j), each
cleared of the earlier products' leading masks.  Both give the echelon
forms of a row reduction of the sector Laplacian that pivots on the
least column, since the monomials list x_m-heavy columns first and the
masks ascend.  Each basis is memoized per (degree, sector, universe) and
shared as an immutable tuple; `harmonic_basis.cache_info()` gives the
cache's size, hits and misses.  basis_place(h) gives the (degree,
sector, index) of an element of a basis so built, by identity (an equal
copy has none), for the psi series store of hermite.  The coupling
polynomials f_{k,p,q} are built from exact coefficients that the
decomposition check tests by a closed sl2 rule, forming no product,
beside the dimension identity; a failure is reported, never patched.
That check's product route, the Fischer decomposition of the Grassmann
component, the exact expansion in a given basis and that row reduction
are test oracles, kept with tests.
"""

from __future__ import annotations

import functools
import math

from ._terms import add_into
from .operators import laplace
from .scalars import ExactScalar, gamma_half_integer
from .superalg import (SuperPolynomial, homogeneous_monomial_count,
                       homogeneous_monomials, masks_of_weight, square_powers)

# monomials of degree k in the whole universe that one basis may run
# over: they bound its elements and their terms, which hermite prints in
# full (at (3,2), k = 30 spans 6968 and prints 5 MB in about 2 s)
MAX_BASIS_MONOMIALS = 1500


class HarmonicBasis:
    """Degree-k sector harmonics; `elements` is a tuple of echelon
    representatives."""

    __slots__ = ("degree", "sector", "elements")

    def __init__(self, degree, sector, elements):
        self.degree = degree
        self.sector = sector
        self.elements = elements

    @property
    def dimension(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self):
        return (f"HarmonicBasis(degree={self.degree}, "
                f"sector={self.sector!r}, dim={self.dimension})")


# id(h) -> (h, (k, sector, l)) for every element h = elements[l] that
# harmonic_basis built; an entry keeps h alive, so its id is not reused,
# and it outlives harmonic_basis.cache_clear()
_PLACES = {}


def basis_place(h):
    """(k, sector, l) when h is itself (by identity, never equality) the
    l-th element of harmonic_basis(k, sector, h.universe), else None."""
    entry = _PLACES.get(id(h))
    return entry[1] if entry is not None and entry[0] is h else None


def check_basis_degree(k, universe):
    """Refuse a negative degree k, or one whose monomials in the whole
    universe (a bound on any sector's) number more than
    MAX_BASIS_MONOMIALS."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    count = homogeneous_monomial_count(universe, k)
    if count > MAX_BASIS_MONOMIALS:
        raise ValueError(f"degree k = {k} spans {count} monomials, over "
                         f"MAX_BASIS_MONOMIALS = {MAX_BASIS_MONOMIALS}")


@functools.cache
def harmonic_basis(k, sector, universe):
    """Echelon basis of the kernel of the sector Laplacian on degree-k
    homogeneous polynomials of that sector: the Cauchy-Kovalevskaya
    extension in x_m at m >= 1 outside the fermionic sector, the cleared
    pair products over the sector's symbol pairs otherwise (all n pairs
    in the fermionic and full sectors, none in the bosonic one).

    Memoized per (degree, sector, universe) (`harmonic_basis.cache_info()`
    gives size, hits and misses): every caller shares the one basis and
    its tuple of elements, and each element's place is registered for
    basis_place.  A refusal raises on every call, before any basis is
    built (check_basis_degree).
    """
    check_basis_degree(k, universe)
    if sector not in ("bosonic", "fermionic", "full"):
        raise ValueError(f"unknown sector {sector!r}")
    if universe.m and sector != "fermionic":
        monos = homogeneous_monomials(universe, k, sector)
        elements = tuple(_ck_extension(monos, universe, sector))
    else:
        pairs = 0 if sector == "bosonic" else universe.pairs
        zero = (0,) * universe.m
        elements = tuple(
            SuperPolynomial(universe, {(zero, t): ExactScalar.rational(c)
                                       for t, c in product.items()})
            for product in _pair_products(pairs, k))
    for l, h in enumerate(elements):
        _PLACES[id(h)] = (h, (k, sector, l))
    return HarmonicBasis(k, sector, elements)


def _pair_products(pairs, k):
    """The kernel of the fermionic Laplacian on the weight-k masks over
    `pairs` symbol pairs, as mask -> int dicts: S * prod (y_b - y_a) for
    the singles S of a mask and its full pairs b, each matched to the
    least unmatched empty pair a < b (Filmus, Electron. J. Combin. 23(1)
    (2016)), since the Laplacian acts as -4 sum_j d/dy_j on the pairs S
    leaves free.  A kept mask is the largest of its product; clearing
    the earlier kept masks gives the row reduction's echelon basis.
    """
    cleared = {}
    for mask in masks_of_weight(2 * pairs, k):
        empty, matched = [], []
        for j in range(pairs):
            bits = mask >> 2 * j & 3
            if not bits:
                empty.append(j)
            elif bits == 3:
                if not empty:
                    break
                matched.append((empty.pop(0), j))
        else:
            product = {mask: 1}
            for a, b in matched:
                flip = 3 << 2 * a | 3 << 2 * b
                for t, c in list(product.items()):
                    product[t ^ flip] = -c
            for t, c in list(product.items()):
                for s, e in cleared.get(t, {}).items():
                    add_into(product, s, -c * e)
            cleared[mask] = product
            yield product


def _ck_extension(monos, universe, sector):
    """The harmonic sum_i x_m^(e+2i) Delta^i g / (e+2i)! for each monomial
    x_m^e g of `monos` with e <= 1, in their order: Delta sends the
    x_m-free g to Delta' g, and its int weights keep the iterates
    integral."""
    for bos, mask in monos:
        e = bos[-1]
        if e > 1:
            continue
        g = SuperPolynomial(universe, {(bos[:-1] + (0,), mask): 1})
        terms = {}
        while g:
            d = math.factorial(e)
            for (gb, gm), c in g.terms.items():
                terms[gb[:-1] + (e,), gm] = ExactScalar.rational(c, d)
            g = laplace(g, sector)
            e += 2
        yield SuperPolynomial(universe, terms)


def f_coefficients(l, p, j, universe):
    """The c_i = C(l,i) (n-j-i)!/Gamma(m/2+p+l-i), i = 0..l, of f_poly."""
    m, n = universe.m, universe.pairs
    return [ExactScalar.rational(math.comb(l, i) * math.factorial(n - j - i))
            * gamma_half_integer(m + 2 * (p + l - i)).inverse()
            for i in range(l + 1)]


def f_poly(k, p, q, universe):
    """Coupling polynomial sum_i c_i xbos^(2k-2i) xfer^(2i) (f_coefficients,
    square_powers); distinct i differ in fermionic degree, so none meet."""
    u = universe
    terms = {}
    for i, coeff in enumerate(f_coefficients(k, p, q, u)):
        for exp, mask, w in square_powers(u.m, u.pairs, k - i, i):
            terms[exp, mask] = coeff * w
    return SuperPolynomial(u, terms)


def decomposition_check(k, universe):
    """Verify the degree-k decomposition: dimension identity plus
    Laplace-annihilation of every f * H_bos * H_fer product, by the sl2
    rule Delta(r^2a theta^2b H_b H_f) = 2a(2a+2p+m-2) r^(2a-2) theta^2b
    H_b H_f + 2b(2b+2j-2n-2) r^2a theta^(2b-2) H_b H_f (H_b, H_f of
    degrees p, j; no term vanishes at b <= n-j): f_{l,p,j} H_b H_f is
    harmonic exactly when the c_i of f_coefficients meet
    c_(i-1) 2(l-i+1)(2(l-i)+2p+m) + c_i 2i(2i+2j-2n-2) = 0, i = 1..l.
    So no product is formed, and the check proves the products harmonic
    given harmonic bases, whose polynomials
    test_basis_elements_are_harmonic_and_homogeneous and the product
    route (tests/oracles.py) pin.  Returns a report dict, a failure
    listed once per (H_b, H_f) pair, never corrected; needs m >= 1, as
    at m = 0 the factors 1/Gamma(m/2+p+k-i) of f_poly hit poles and the
    dimensions disagree.
    """
    u = universe
    if u.m < 1:
        raise ValueError("harmonic decomposition needs m >= 1 (its Gamma "
                         "factors have poles at m = 0)")
    m, n = u.m, u.pairs
    dim_nullspace = harmonic_basis(k, "full", u).dimension

    dim_formula = 0
    for i in range(min(n, k) + 1):
        dim_formula += (harmonic_basis(k - i, "bosonic", u).dimension
                        * harmonic_basis(i, "fermionic", u).dimension)
    product_failures = []
    for j in range(0, min(n, k - 1)):          # j <= min(n, k-1) - 1
        dim_fermionic = harmonic_basis(j, "fermionic", u).dimension
        for l in range(1, min(n - j, (k - j) // 2) + 1):
            p = k - 2 * l - j
            pairs = harmonic_basis(p, "bosonic", u).dimension * dim_fermionic
            dim_formula += pairs
            c = f_coefficients(l, p, j, u)
            if any(c[i - 1] * (2 * (l - i + 1) * (2 * (l - i + p) + m))
                   + c[i] * (2 * i * (2 * (i + j - n) - 2))
                   for i in range(1, l + 1)):
                product_failures += [(l, p, j)] * pairs
    return {
        "k": k,
        "dim_nullspace": dim_nullspace,
        "dim_formula": dim_formula,
        "dims_match": dim_nullspace == dim_formula,
        "product_failures": product_failures,
        "products_harmonic": not product_failures,
    }
