"""Clifford-Hermite polynomials and the scalar eigenfunction bases.

On a homogeneous harmonic h of degree k, the eigenfunctions of the
Fourier transform are Clifford-Hermite polynomials in t = x^2 times h
(De Bie and Sommen, J. Phys. A 40 (2007) 10441):

    psi~_{j,k} = Delta^j (h G)          = sum_i c~_i t^i h G,
    psi_{j,k}  = (d_x+x)^(2j) (h G)     = sum_i 2^(j+i) c~_i t^i h G,

with G = exp(x^2/2) and integers c~_i from the three-term recursion of
ch_coefficients.  It follows from Delta(t^i h) = 2i(2k+M+2i-2) t^(i-1) h
and E(t^i h) = (2i+k) t^i h, since Delta through the envelope is
Delta + 2E + M + x^2 (the conjugation relations stated in operators).
The recursion is how the family is computed; the Rodrigues route (j
applications of operators.laplace or operators.scalar_square) is its
test oracle, and the displayed closed coefficient formula, whose i-th
coefficient is 2^(t-i) c~_i, is another (both in the tests).  Every
weight of the series is an integer, so an exact h is split once into int
numerator polynomials over one denominator, one per radical and real or
imaginary part (superalg.integer_parts); the harmonicity check, the x^2
passes and the weights run on ints, and the ring coefficients are
rebuilt once per output term.

The orders are checked on (j, k, universe) alone (check_psi_orders: the
sign of j and the budgets MAX_MONOMIALS and MAX_SERIES_DIGITS), memoized,
as a basis calls psi_element once per element with the same orders; a
refusal raises on every call.  An element of a basis that harmonic_basis
built (harmonics.basis_place, by identity) is harmonic and homogeneous
by construction and is not checked: its series comes from one store
keyed by (j, k, sector, l, universe, rescaled), so a repeated call is
one lookup returning the same object, which keeps its text once printed
(GaussianFunction.text).  The store holds at most
MAX_STORED_TERMS terms and series_info() reports it.  Any other h, user
input and copies equal to an element among it, is checked and split on
every call, and nothing of it is stored.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import namedtuple

from .harmonics import basis_place, harmonic_basis
from .operators import laplace, multiply_vector_square
from .superalg import (GaussianFunction, from_integer_parts,
                       homogeneous_monomial_count, integer_parts,
                       is_float_lane)

# monomials of the top degree 2j+k of one psi element (output budget)
MAX_MONOMIALS = 50000
# digits the series writes, estimated before any weight is computed:
# the j^2/2 integers of the ch_coefficients recursion and one weight per
# output monomial of every degree 2i+k, i <= j (work budget)
MAX_SERIES_DIGITS = 50_000_000
# terms of all the psi series the store holds; a series that would pass
# it clears the store first, and one larger than it is not stored
MAX_STORED_TERMS = 16384


def _weight_digits(j, m_value, k):
    """Decimal digits of the largest psi weight 2^(j+i) c~_i, estimated
    as log10 of 16^j prod_{t<j} (t + b), b = (2k + |M| + 2)/4.  It
    over-estimated the true count in every case checked (|M| <= 12,
    k <= 40, 5 <= j <= 200), by 6% up to 2.5 times."""
    b = (2 * k + abs(m_value) + 2) / 4
    return (j * math.log(16) + math.lgamma(j + b)
            - math.lgamma(b)) / math.log(10)


@functools.cache
def check_psi_orders(j, k, universe):
    """Refuse psi_{j,k} on (j, k, universe) alone, before any basis or
    product: a negative j, a top degree 2j+k with more than
    MAX_MONOMIALS monomials (the output grows with that count), or a
    series that would write more than MAX_SERIES_DIGITS digits.

    Memoized on (j, k, universe): a basis runs it once per element with
    the same orders.  A refusal raises on every call, as a raise is not
    cached, and the digit count stops at the first monomial past the
    budget."""
    if j < 0:
        raise ValueError("Hermite order j must be non-negative")
    count = homogeneous_monomial_count(universe, 2 * j + k)
    if count > MAX_MONOMIALS:
        raise ValueError(f"degree 2j+k = {2 * j + k} spans {count} "
                         f"monomials, over MAX_MONOMIALS = {MAX_MONOMIALS}")
    k = max(k, 0)
    digits = _weight_digits(j, universe.superdim, k)
    total = j * j / 2
    for i in range(j + 1):
        total += homogeneous_monomial_count(universe, 2 * i + k)
        if total * digits > MAX_SERIES_DIGITS:
            raise ValueError(
                f"the psi series at j = {j}, k = {k} would write an "
                f"estimated {total * digits:.3g} digits or more, over "
                f"MAX_SERIES_DIGITS = {MAX_SERIES_DIGITS}")


@functools.cache
def ch_coefficients(j, m_value, k):
    """Integers c~_0..c~_j with Delta^j (h G) = sum_i c~_i t^i h G for a
    harmonic h of degree k at superdimension M = m_value."""
    c = [1]
    for _ in range(j):
        nxt = [0] * (len(c) + 1)
        for i, ci in enumerate(c):
            if i:
                nxt[i - 1] += 2 * i * (2 * k + m_value + 2 * i - 2) * ci
            nxt[i] += (2 * (2 * i + k) + m_value) * ci
            nxt[i + 1] += ci
        c = nxt
    return tuple(c)


def psi_element(j, h_k):
    """psi_{j,k,l} = (d_x+x)^(2j) H_k^(l) exp(x^2/2) as a Gaussian function."""
    return _hermite_series(j, h_k, rescaled=False)


def psi_tilde_element(j, h_k):
    """psi~_{j,k,l} = (d_x)^(2j) H_k^(l) exp(x^2/2) via the Laplacian."""
    return _hermite_series(j, h_k, rescaled=True)


def _hermite_series(j, h_k, rescaled):
    """sum_i c_i t^i h_k G with the ch_coefficients, times 2^(j+i) for
    psi; h_k must be a homogeneous harmonic, as the recursion assumes.
    A basis element is read from the series store, with one key tuple
    and one lookup once stored; any other h_k is checked
    (_checked_parts) and built on every call."""
    place = basis_place(h_k)
    if place is not None:
        k, sector, l = place
        return _SERIES[j, k, sector, l, h_k.universe, rescaled]
    return _series(j, h_k, rescaled, *_checked_parts(j, h_k))


def _series(j, h_k, rescaled, k, denom, parts):
    """The series from the int numerator parts of h_k over denom (None
    in the float lane): weights times j passes of x^2 on each part."""
    u = h_k.universe
    weights = [c if rescaled else c << (j + i) for i, c in enumerate(
        ch_coefficients(j, u.superdim, k))]
    series = {}
    for part, power in parts.items():
        terms = {}
        for i, c in enumerate(weights):
            if i:
                power = multiply_vector_square(power)
            if c:   # the t^i h_k have distinct degrees: no keys collide
                terms.update((key, v * c) for key, v in power.terms.items())
        series[part] = h_k._like(terms)
    if denom is None:   # the float lane: h_k is its own one part
        return GaussianFunction(series[None])
    return GaussianFunction(from_integer_parts(u, denom, series))


class _SeriesStore(dict):
    """(j, k, sector, l, universe, rescaled) -> the psi or psi~ series of
    harmonic_basis(k, sector, universe).elements[l], built on a miss
    after check_psi_orders (a refusal stores nothing).  The miss path
    counts the terms held under `lock` and clears the store when a new
    series would pass MAX_STORED_TERMS, as the monomial codec clears
    when full; a series larger than the bound is not stored."""

    __slots__ = ("lock", "terms", "builds", "clears")

    def __init__(self):
        super().__init__()
        self.lock = threading.RLock()
        self.terms = self.builds = self.clears = 0

    def __missing__(self, key):
        j, k, sector, l, u, rescaled = key
        check_psi_orders(j, k, u)
        h = harmonic_basis(k, sector, u).elements[l]
        f = _series(j, h, rescaled, k, *integer_parts(h))
        size = len(f.terms)
        with self.lock:
            self.builds += 1
            if key not in self and size <= MAX_STORED_TERMS:
                if self.terms + size > MAX_STORED_TERMS:
                    self.clear()
                self[key] = f
                self.terms += size
            return self.get(key, f)   # a racing thread's, if it won

    def clear(self):
        with self.lock:
            super().clear()
            self.terms = 0
            self.clears += 1


_SERIES = _SeriesStore()

SeriesInfo = namedtuple("SeriesInfo", "series terms builds clears")


def series_info():
    """The series store's report in the style of cache_info(): series
    stored, terms held, series built by misses, and clears."""
    with _SERIES.lock:
        return SeriesInfo(len(_SERIES), _SERIES.terms, _SERIES.builds,
                          _SERIES.clears)


def _checked_parts(j, h_k):
    """(k, denom, parts) of h_k after its checks: its degree k, read in
    the same pass as homogeneity, the orders (check_psi_orders), then
    homogeneity and harmonicity.  An exact h_k is harmonic when the
    Laplacian of each int numerator part over one denominator
    (integer_parts) is zero, as the radicals times {1, i} are
    independent over Q; a float-lane h_k is its own one part (denom
    None), harmonic when no coefficient of its Laplacian passes 1e-10
    times its largest coefficient modulus (rounding)."""
    degrees = {sum(b) + mask.bit_count() for b, mask in h_k.terms}
    k = max(degrees, default=-1)
    check_psi_orders(j, k, h_k.universe)
    if is_float_lane(h_k):
        denom, parts = None, {None: h_k}
        bound = 1e-10 * max(map(abs, h_k.terms.values()))
    else:
        (denom, parts), bound = integer_parts(h_k), 0
    if len(degrees) > 1 or any(
            abs(c) > bound for p in parts.values()
            for c in laplace(p, "full").terms.values()):
        raise ValueError("input is not a homogeneous harmonic")
    return k, denom, parts


def phi_element(j, m_k):
    """phi_{j,k,l} = (d_x + x)^j M_k^(l) exp(x^2/2) for a spherical
    monogenic; Clifford-Weyl-valued, the odd-order pathway.  Through the
    envelope d_x + x is the odd pass D + 2x on the polynomial part."""
    from .cliffweyl import CValued, _odd_pass
    g = m_k if isinstance(m_k, CValued) else CValued.from_scalar(m_k)
    g = CValued(g.universe, g.parts, envelope=True)
    for _ in range(j):
        g = _odd_pass(g, 1, 1)
    return g


@functools.cache
def psi_span(universe, cap):
    """Indexed psi family for 2j+k <= cap: tuple of (j, k, l, function).

    Memoized per universe and cap (`psi_span.cache_info()` gives size,
    hits and misses), and every caller shares the one immutable tuple.
    It runs psi_element on the elements of harmonic_basis, so every
    series is read from the series store, which outlives this memo: a
    rebuild after cache_clear() shares the series the first build
    stored, unless MAX_STORED_TERMS cleared them.  No transform expands
    against it: the Fourier transform of every order is one Mehler pass,
    and the psi expansion of a function is a test oracle.
    """
    out = []
    for k in range(cap + 1):
        basis = harmonic_basis(k, "full", universe)
        for j in range((cap - k) // 2 + 1):
            for l, h in enumerate(basis):
                out.append((j, k, l, psi_element(j, h)))
    return tuple(out)
