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
cache's size, hits and misses.  Each element of a basis so built has one
record (_ElementRecord), found by the element's identity: its degree,
its int numerator over one denominator, split once, the ladder of int
rungs t^i h (t = x^2) that the psi series of hermite reads, the sl2
raising ladder of h, and the finished psi and psi~ series of hermite,
kept whole from the element's first checked call on, each keeping its
text once printed (superalg.GaussianFunction.text); `records_info()`
reports them.  The coupling polynomials f_{k,p,q} are built from exact
coefficients that the decomposition check tests by a closed sl2 rule,
forming no product, beside the dimension identity; a failure is
reported, never patched.  That check's product route, the Fischer
decomposition of the Grassmann component, the exact expansion in a
given basis and that row reduction are test oracles, kept with tests.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import namedtuple

from ._terms import add_into
from .operators import laplace, multiply_vector_square
from .scalars import ExactScalar, gamma_half_integer
from .superalg import (SuperPolynomial, homogeneous_monomial_count,
                       homogeneous_monomials, integer_parts,
                       masks_of_weight, square_powers)

# monomials of degree k in the whole universe that one basis may run
# over: they bound its elements and their terms, which hermite prints in
# full (at (3,2), k = 30 spans 6968 and prints 5 MB in about 2 s)
MAX_BASIS_MONOMIALS = 1500
# entries that all element records hold: the int entries of their
# ladder rungs t^i h, i >= 1, plus the terms of their stored psi series.
# A series that finds the count reached is not stored.  A rung about to
# grow then first drops every stored series, and every ladder back to h
# as well if the rungs alone reach it, as the monomial codec clears;
# after a drop of the series alone, none is stored until the rungs are
# dropped too.  So the series never drop a rung sooner, and a loop whose
# working set passes the bound drops them once, not on every growth (a
# full pass of the bases benchmark grid holds 2401 rung entries and
# 5256 series terms)
MAX_LADDER_ENTRIES = 16384


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


class _ElementRecord:
    """One element h of a basis that harmonic_basis built: its degree,
    whether it has passed the psi series' homogeneity and harmonicity
    checks (hermite sets `checked`), and, once split (integer_parts),
    its common denominator, the key of its one integer part (a basis is
    rational) and the ladder of int numerators t^i h, grown by one x^2
    pass per rung as far as a call needs.  `series` maps (j, rescaled)
    to the finished psi (rescaled False) or psi~ series of hermite that
    a call built once h passed its checks, the checked call included,
    stored whole and never mutated; a series keeps its text once printed
    (superalg.GaussianFunction.text)."""

    __slots__ = ("element", "degree", "checked", "denom", "part",
                 "ladder", "series")

    def __init__(self, element, degree):
        self.element = element
        self.degree = degree
        self.checked = False
        self.ladder = None
        self.series = {}

    def entries(self):
        """(rung entries, series terms) this record counts towards
        MAX_LADDER_ENTRIES."""
        rungs = self.ladder[1:] if self.ladder else []
        return (sum(len(p.terms) for p in rungs),
                sum(len(f.terms) for f in self.series.values()))

    def numerator(self):
        """The int numerator of h over `denom`, its one integer part;
        h is split on the first call only (two threads that split it at
        once set the same values)."""
        if self.ladder is None:
            self.denom, parts = integer_parts(self.element)
            (self.part, numerator), = parts.items()
            self.ladder = [numerator]
        return self.ladder[0]

    def rungs(self, j):
        """The int numerators of t^i h for i = 0..j over the record's
        denominator."""
        self.numerator()
        ladder = self.ladder
        if len(ladder) <= j:
            with _RECORDS.lock:
                if _RECORDS.entries >= MAX_LADDER_ENTRIES:
                    _RECORDS.drop(
                        rungs=_RECORDS.rung_entries >= MAX_LADDER_ENTRIES)
                ladder = self.ladder
                while len(ladder) <= j:
                    ladder.append(multiply_vector_square(ladder[-1]))
                    _RECORDS.rung_entries += len(ladder[-1].terms)
        return ladder[:j + 1]

    def stored(self, key):
        """The series stored at `key`, or None; counted as a hit or a
        miss (the counts are a report: threads that race may lose a
        step)."""
        f = self.series.get(key)
        if f is None:
            _RECORDS.misses += 1
        else:
            _RECORDS.hits += 1
        return f

    def store(self, key, f):
        """Store the series f at `key`, whole, unless storing is off or
        the count has reached MAX_LADDER_ENTRIES; returns the series
        that `key` holds after, the one a racing thread stored first if
        any, else f."""
        with _RECORDS.lock:
            if (not _RECORDS.storing
                    or _RECORDS.entries >= MAX_LADDER_ENTRIES):
                return f
            kept = self.series.setdefault(key, f)
            if kept is f:
                _RECORDS.series_terms += len(f.terms)
        return kept


class _Records(dict):
    """id(h) -> _ElementRecord for every element harmonic_basis has
    built, so user input never enters; `rung_entries` counts the int
    entries of the ladders' rungs above h and `series_terms` the terms
    of the stored series of every record (MAX_LADDER_ENTRIES bounds
    their sum, `entries`), `storing` is off from a drop of the series
    alone to the next drop of the rungs, and `hits`, `misses` and
    `clears` count the lookups of stored series and the drops.  A
    record keeps its element alive, so an id is never reused while it
    is a key, and it outlives a harmonic_basis.cache_clear().

    A ladder or a map of series only grows, under `lock`, and a cleared
    one is replaced by a new list or dict, never cut in place, so a
    reader that takes a ladder once reads whole rungs while another
    thread grows or clears it."""

    __slots__ = ("rung_entries", "series_terms", "storing", "lock",
                 "hits", "misses", "clears")

    def __init__(self):
        super().__init__()
        self.rung_entries = self.series_terms = 0
        self.storing = True
        self.hits = self.misses = self.clears = 0
        self.lock = threading.Lock()

    @property
    def entries(self):
        return self.rung_entries + self.series_terms

    def clear_ladders(self):
        """Drop every ladder back to h and every stored series."""
        self.drop(rungs=True)

    def drop(self, rungs):
        """Under `lock`: drop every stored series, and with `rungs` every
        ladder back to h; one clear, after which series are stored only
        if the rungs were dropped too."""
        for record in self.values():
            if record.series:
                record.series = {}
            if rungs and record.ladder:
                record.ladder = record.ladder[:1]
        self.series_terms = 0
        if rungs:
            self.rung_entries = 0
        self.storing = rungs
        self.clears += 1


_RECORDS = _Records()

RecordsInfo = namedtuple("RecordsInfo",
                         "records entries series hits misses clears")


def records_info():
    """The element records' report, in the style of cache_info(): the
    records, the entries they count towards MAX_LADDER_ENTRIES, the
    psi series they store, the lookups of stored series that hit and
    missed, and the times the stored series were dropped (with or
    without the rungs)."""
    with _RECORDS.lock:
        return RecordsInfo(
            len(_RECORDS), _RECORDS.entries,
            sum(len(r.series) for r in _RECORDS.values()),
            _RECORDS.hits, _RECORDS.misses, _RECORDS.clears)


def _record(h):
    """The record of h when h is itself (by identity, never equality) an
    element of a basis that harmonic_basis built, else None."""
    record = _RECORDS.get(id(h))
    return record if record is not None and record.element is h else None


def _recorded(basis):
    """Give every element of `basis` a new record, the entries of a
    record it replaces taken off the count; returns the basis."""
    with _RECORDS.lock:
        for h in basis.elements:
            old = _RECORDS.get(id(h))
            if old is not None:
                rungs, terms = old.entries()
                _RECORDS.rung_entries -= rungs
                _RECORDS.series_terms -= terms
            _RECORDS[id(h)] = _ElementRecord(h, basis.degree)
    return basis


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
    its tuple of elements, and each element gets its record.  A refusal
    raises on every call, before any basis is built
    (check_basis_degree).
    """
    check_basis_degree(k, universe)
    if sector not in ("bosonic", "fermionic", "full"):
        raise ValueError(f"unknown sector {sector!r}")
    if universe.m and sector != "fermionic":
        monos = homogeneous_monomials(universe, k, sector)
        return _recorded(HarmonicBasis(
            k, sector, tuple(_ck_extension(monos, universe, sector))))
    pairs = 0 if sector == "bosonic" else universe.pairs
    zero = (0,) * universe.m
    return _recorded(HarmonicBasis(k, sector, tuple(
        SuperPolynomial(universe, {(zero, t): ExactScalar.rational(c)
                                   for t, c in product.items()})
        for product in _pair_products(pairs, k))))


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
