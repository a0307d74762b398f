"""The super Fourier transform of every order on the Gaussian class, the
plain-class fermionic transform, Berezin integration, Parseval, fermionic
convolution and the delta constant.

Every order a is one pass over the terms by Mehler's closed form
F^a(P G) = (zeta^E exp(gamma Delta) P) G, zeta = e^(i a pi/2) and
2 gamma = (zeta^2 - 1)/2, which factors by coordinate and by symbol
pair: x_i^e goes to the integer Hermite row of He_e (one cached row per
degree) and each pair's sub-mask to the integer row 1 -> 1, q_j -> q_j,
q1q2 -> q1q2 - 2.  An image of a degree-d term that lost 2k degrees
weighs zeta^(d-2k) (2 gamma)^k, which at a = +/-1 is (+/- i)^d, so the
exact transforms multiply ints only; other orders run on floats.  On
the plain class the transform of order a is one closed-form 4x4 table
per pair.  The defining constructions (the fermionic kernel followed by
the Berezin integral, the peel rule F(x_i g) = -/+ i d_{y_i} F(g) and
the psi-family expansion) live in the tests as independent oracles; no
transform calls them.  Parseval's integral of f * conj(g) against the
envelope is one pass over pairs of terms with integer weights (the Koszul
sign, a Gaussian moment per coordinate and a Berezin weight per pair)
and the common factor pi^(M/2), with no product polynomial; the
integral of one Gaussian-class function is the same pass against the
constant 1, and the plain Parseval check is the same pass at width 0.
The Berezin integral and the fermionic convolution are passes over the
masks too, with no doubled universe or Grassmann substitution.  The
exact transforms and integrals refuse float-lane input.  A transform
counts its images, term by term in closed form, and refuses before it
starts when they pass MAX_TRANSFORM_TERMS.
"""

from __future__ import annotations

import cmath
import functools
from fractions import Fraction

from ._terms import add_into
from .scalars import I_POWERS, Angle, ExactScalar, QQi, to_float
from .superalg import (GaussianFunction, SuperPolynomial, VariableUniverse,
                       common_denominator, mask_bits,
                       merge_masks, require_envelope, scale_exact)


def berezin(f, over=None):
    """Berezin integral pi^(-n') d_{q_last} ... d_{q_first} over a full
    block of symbol pairs; the integrated symbols leave the universe.

    One pass over the masks: a term survives when its mask holds every
    integrated symbol, and the symbols left close up in order.  No sign
    arises, as a pair's two derivatives see the same lower symbols."""
    if isinstance(f, GaussianFunction):
        raise ValueError("berezin expects a plain polynomial")
    u = f.universe
    nf = len(u.fermionic)
    over = sorted(range(nf) if over is None else over)
    if over and (over[0] < 0 or over[-1] >= nf):
        raise ValueError(f"subset must be symbol indices below 2n = {nf}")
    if len(over) % 2:
        raise ValueError("odd subset")
    for a in range(0, len(over), 2):
        if over[a] % 2 or over[a + 1] != over[a] + 1:
            raise ValueError("subset must be whole symbol pairs")
    block = sum(1 << j for j in over)
    keep = [j for j in range(nf) if not block >> j & 1]
    out = {}
    for (bos, mask), c in f.terms.items():
        if mask & block == block:
            rest = sum(1 << i for i, j in enumerate(keep) if mask >> j & 1)
            out[(bos, rest)] = c
    target = VariableUniverse(u.bosonic, tuple(u.fermionic[j] for j in keep))
    return scale_exact(SuperPolynomial(target, out),
                       ExactScalar.pi_half_power(-len(over)))


def _order(sign):
    """The order +/-1 of the transform with sign '+' or '-'."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    return 1 if sign == "+" else -1


@functools.cache
def hermite_row(k):
    """Probabilists' Hermite polynomial He_k, under the generating
    convention (d/dp)^k e^(-p^2/2) = (-1)^k He_k(p) e^(-p^2/2), as a
    tuple of (power, int coefficient) pairs, highest power first.  The
    coefficient of p^(k-2j) is (-1)^j k! / (j! (k-2j)! 2^j), each from
    the one before."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    row, c = [], 1
    for j in range(k // 2 + 1):
        row.append((k - 2 * j, c))
        c = -c * (k - 2 * j) * (k - 2 * j - 1) // (2 * (j + 1))
    return tuple(row)


# exp(gamma Delta) on one pair's sub-mask as (sub-mask, int, k) images, k
# the power of 2 gamma: q1q2 -> q1q2 - 2 (2 gamma)
_PAIR_ROWS = (((0, 1, 0),), ((1, 1, 0),), ((2, 1, 0),),
              ((3, 1, 0), (0, -2, 1)))

# terms one Mehler pass or pair table may make (output budget): the
# images of every input term, counted before the pass
MAX_TRANSFORM_TERMS = 50000

_FLOAT_RANGE = ("float lane: every coefficient must convert to a finite "
                "complex float")


@functools.lru_cache(maxsize=256)
def _float_weights(a, d):
    """zeta^(d-2k) (2 gamma)^k for k <= d/2 at the non-integral order a,
    with zeta^j = Angle.phase(j), so a quarter turn stays exact."""
    a = Angle(a)
    two_gamma = (a.phase(2) - 1) / 2
    return tuple(a.phase(d - 2 * k) * two_gamma ** k
                 for k in range(d // 2 + 1))


def _check_images(total):
    """Refuse a pass before it starts when the images of its input terms
    number more than MAX_TRANSFORM_TERMS."""
    if total > MAX_TRANSFORM_TERMS:
        raise ValueError(f"the transform could make {total} terms, over "
                         f"MAX_TRANSFORM_TERMS = {MAX_TRANSFORM_TERMS}")


def _images(bos, mask, bos_on, nf):
    """The images of x^bos q^mask under the sector's order-free rows: a
    list of (sub-mask, int, k) from one pair row per symbol pair, k the
    factors 2 gamma, and a list of (exponents, int) from one Hermite row
    per coordinate, which lowers the degree by 2 per factor 2 gamma."""
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


def _mehler_pass(f, a, sector):
    """F^a of a Gaussian-class f on a sector (bosonic, fermionic or full,
    as in `laplace`) by Mehler's closed form
    F^a(P G) = (zeta^E exp(gamma Delta) P) G, zeta = e^(i a pi/2) and
    2 gamma = (zeta^2 - 1)/2, one pass over the terms.  A term of sector
    degree d goes to the products of its `_images`; one that lost 2k
    degrees is weighted zeta^(d-2k) (2 gamma)^k.  At a = +/-1 that
    weight is (+/- i)^d for every image, so the exact lane folds it into
    the ints and scales the term's coefficient once per image; other
    orders run on floats, with zeta^j exact at quarter turns.  a = 0
    returns f."""
    if sector not in ("bosonic", "fermionic", "full"):
        raise ValueError(f"unknown sector {sector!r}")
    a = Angle(a)
    require_envelope(f)
    if a.a == 0:
        return f
    bos_on = sector != "fermionic"
    nf = len(f.universe.fermionic) if sector != "bosonic" else 0
    # x^a q^S has prod_i (a_i // 2 + 1) images on the Hermite rows, times
    # two per full pair
    low = (4 ** (nf >> 1) - 1) // 3     # the low bit of every symbol pair
    total = 0
    for bos, mask in f.terms:
        n = 1 << (mask & mask >> 1 & low).bit_count()
        if bos_on:
            for e in bos:
                n *= (e >> 1) + 1
        total += n
    _check_images(total)
    out = {}
    if a.exact:
        _require_exact(f)
        turn = int(a.a)
        for (bos, mask), c in f.terms.items():
            d = (sum(bos) if bos_on else 0) + (mask.bit_count() if nf else 0)
            re, im = I_POWERS[turn * d % 4]
            fer, bos_images = _images(bos, mask, bos_on, nf)
            for omask, n, _ in fer:
                x, y = re * n, im * n
                for obos, h in bos_images:
                    add_into(out, (obos, omask),
                             c.scale(QQi.reduced(x * h, y * h, 1)))
        return f._like(out)
    try:
        for (bos, mask), c in f.terms.items():
            e = sum(bos)
            d = (e if bos_on else 0) + (mask.bit_count() if nf else 0)
            c = to_float(c)
            weights = [c * w for w in _float_weights(a.a, d)]
            fer, bos_images = _images(bos, mask, bos_on, nf)
            for omask, x, k in fer:
                for obos, h in bos_images:
                    add_into(out, (obos, omask),
                             x * h * weights[k + ((e - sum(obos)) >> 1)])
    except OverflowError:
        raise ValueError(_FLOAT_RANGE) from None
    if not all(map(cmath.isfinite, out.values())):
        raise ValueError(_FLOAT_RANGE)
    # + 0j turns the negative zeros of a quarter turn into plain zeros
    return f._like({key: c + 0j for key, c in out.items()})


def _require_exact(poly):
    for c in poly.terms.values():
        if not isinstance(c, ExactScalar):
            raise ValueError("exact transform or integral requires "
                             "exact-lane input")


def frac_fermionic_table(f, a):
    """The order-a transform of a plain polynomial, one closed-form table
    per pair with zeta = e^(i a pi/2): 1 -> (1 + zeta^2)/2
    + (1 - zeta^2)/4 q1q2, q_j -> zeta q_j, q1q2 -> 1 - zeta^2
    + (1 + zeta^2)/2 q1q2; bosonic factors pass through.  On the lanes of
    `_mehler_pass`: exact (QQi entries) at a = +/-1, where float input is
    refused, float at other orders; a = 0 returns f."""
    a = Angle(a)
    if a.a == 0:
        return f
    # two images per empty or full pair at a non-integral order, one per
    # term at +/-1
    pairs = 0 if a.exact else f.universe.pairs
    low = (4 ** pairs - 1) // 3
    _check_images(sum(1 << pairs - ((mask ^ mask >> 1) & low).bit_count()
                      for _, mask in f.terms))
    zeta, zeta2 = a.phase(1), a.phase(2)
    if a.exact:
        _require_exact(f)
        zeta, zeta2, one = zeta.qqi_value(), zeta2.qqi_value(), QQi(1)
    else:
        zeta, zeta2, one = to_float(zeta), to_float(zeta2), 1 + 0j
        f = f.map_coefficients(to_float)
    plus, minus = (one + zeta2) * Fraction(1, 2), one - zeta2
    rows = tuple(tuple((sub, w) for sub, w in row.items() if w) for row in (
        {0b00: plus, 0b11: minus * Fraction(1, 4)}, {0b01: zeta},
        {0b10: zeta}, {0b00: minus, 0b11: plus}))
    # parity is kept per pair, so applying the rows sub-mask by sub-mask
    # gives no reordering sign
    out = {}
    for (bos, mask), c in f.terms.items():
        images = [(0, c)]
        for shift in range(0, len(f.universe.fermionic), 2):
            row = rows[(mask >> shift) & 3]
            images = [(acc | (sub << shift), v * w)
                      for acc, v in images for sub, w in row]
        for acc, v in images:
            add_into(out, (bos, acc), v)
    return f._like(out)


def fermionic_fourier(f, sign):
    """Fermionic transform of a plain polynomial, applied pair by pair:
    1 -> q1q2/2, q_j -> +/- i q_j, q1q2 -> 2 on each pair."""
    return frac_fermionic_table(f, _order(sign))


def fermionic_fourier_gaussian(f, sign):
    """Envelope-aware fermionic transform, pair by pair: 1 -> 1,
    q_j -> +/- i q_j, q1q2 -> 2 - q1q2 on each pair."""
    return _mehler_pass(f, _order(sign), "fermionic")


def bosonic_fourier(f, sign):
    """Bosonic transform of a Gaussian-class function, coordinate by
    coordinate: x_i^e G -> (+/- i)^e He_e(y_i) G; exact."""
    return _mehler_pass(f, _order(sign), "bosonic")


def super_fourier(f, sign):
    """Full transform: the Hermite rows and the pair rows in one pass, the
    Mehler pass at a = +/-1 (the composition of the bosonic and the
    fermionic transform in either order)."""
    return _mehler_pass(f, _order(sign), "full")


def super_fourier_cvalued(f, sign):
    """Componentwise transform of a Clifford-Weyl-valued Gaussian
    function (the generators pass through the integral)."""
    if not f.envelope:
        raise ValueError("envelope missing")
    return f.map_parts(lambda g: super_fourier(g, sign))


@functools.cache
def gaussian_moment(p, width):
    """Integral of x^p exp(-width x^2) over the line, exact in the ring;
    memoized."""
    if p % 2:
        return ExactScalar.zero()
    from .scalars import gamma_half_integer
    val = gamma_half_integer(p + 1)
    if width == 1:
        return val
    if width == Fraction(1, 2):
        return val * ExactScalar.sqrt2_power(p + 1)
    raise ValueError("unsupported Gaussian width")


def _rational_part(s):
    """(numerator, denominator) of the rational q of a nonzero scalar
    q * r with one radical r."""
    (q,) = s.terms.values()
    return q.a, q.d


def _integer_terms(poly, im_sign):
    """(D, terms): D the lcm of the exact polynomial's QQi denominators
    and terms a list of (bos, mask, numerators), numerators a tuple of
    (radical, real int, imaginary int times im_sign) over D."""
    denom = common_denominator(poly)
    terms = []
    for (bos, mask), c in poly.terms.items():
        nums = []
        for rad, q in c.terms.items():
            scale = denom // q.d
            nums.append((rad, q.a * scale, im_sign * q.b * scale))
        terms.append((bos, mask, tuple(nums)))
    return denom, terms


def _gaussian_pairing(p, q, width):
    """Integral over the full superspace of p * conj(q) times the envelope
    exp(width * x^2-type), one pass over pairs of terms with integer
    weights; the product polynomial is never formed.

    A pair of terms counts when its bosonic exponents have one parity
    vector and its masks are disjoint and fill every symbol pair or leave
    it empty.  Its weight is the Koszul sign of `merge_masks`, the
    rational part of `gaussian_moment(e, width)` for each summed exponent
    e and of each pair's Berezin weight against its envelope factor
    1 + width q1q2, pi^-1 (width, 0, 0, 1) for the sub-masks 1, q1, q2,
    q1q2 (width 0 pairs plain polynomials at m = 0); the radicals of
    those factors are one common factor, pi^(M/2) times sqrt2^m at
    width 1/2.  p and q are split over one denominator each,
    and conjugation flips the sign of q's imaginary numerators; the
    scalar is built once at the end.
    """
    if p.universe != q.universe:
        raise ValueError("universe mismatch")
    _require_exact(p)
    _require_exact(q)
    u = p.universe
    nf = len(u.fermionic)
    row = ((width.numerator, width.denominator), (0, 1), (0, 1), (1, 1))
    # the common radical: pi^-1 per pair, pi^(1/2) sqrt2^eps per coordinate
    rad_b, rad_eps = u.m - nf, 0
    if u.m:
        (_, eps), = gaussian_moment(0, width).terms
        rad_eps = u.m * eps
    moments = {}
    dp, p_terms = _integer_terms(p, 1)
    dq, q_terms = _integer_terms(q, -1)
    by_parity = {}
    for term in q_terms:
        by_parity.setdefault(tuple(e & 1 for e in term[0]), []).append(term)
    low = (4 ** u.pairs - 1) // 3       # the low bit of every symbol pair
    acc = {}
    for bos, mask, nums in p_terms:
        for bos_q, mask_q, nums_q in by_parity.get(
                tuple(e & 1 for e in bos), ()):
            merged = merge_masks(mask, mask_q)
            if merged is None:
                continue
            num, union = merged
            if (union ^ (union >> 1)) & low:
                continue                 # a pair with one symbol of two
            den = 1
            for e in map(sum, zip(bos, bos_q)):
                if e not in moments:
                    moments[e] = _rational_part(gaussian_moment(e, width))
                a, d = moments[e]
                num, den = num * a, den * d
            for shift in range(0, nf, 2):
                a, d = row[(union >> shift) & 3]
                num, den = num * a, den * d
            for (b1, e1), re1, im1 in nums:
                for (b2, e2), re2, im2 in nums_q:
                    cell = acc.setdefault((b1 + b2, e1 + e2, den), [0, 0])
                    cell[0] += num * (re1 * re2 - im1 * im2)
                    cell[1] += num * (re1 * im2 + im1 * re2)
    out = {}
    for (b, eps, den), (re, im) in acc.items():
        eps += rad_eps
        fold = eps >> 1                  # sqrt2^2 = 2
        add_into(out, (b + rad_b, eps & 1),
                 QQi.reduced(re << fold, im << fold, den * dp * dq))
    return ExactScalar.from_terms(out)


def gaussian_class_integral(poly, width):
    """Integral over the full superspace of poly * exp(width * x^2-type
    envelope): the pairing of poly with the constant 1."""
    return _gaussian_pairing(poly, SuperPolynomial.one(poly.universe),
                             width)


def super_integral(f):
    """Berezin-then-bosonic integral of a Gaussian-class function (or a
    purely fermionic polynomial, where no damping is needed: the pairing
    with 1 at width zero)."""
    if isinstance(f, GaussianFunction):
        return gaussian_class_integral(f.poly, Fraction(1, 2))
    if f.universe.m:
        raise ValueError("non-damped bosonic integrand")
    return gaussian_class_integral(f, 0)


def super_integral_pair(f, g):
    """Integral of f * conj(g); the squared envelope gives width one."""
    require_envelope(f)
    require_envelope(g)
    return _gaussian_pairing(f.poly, g.poly, Fraction(1))


def parseval_check(f, g, scope):
    """Exact Parseval equality for either sign: the pairing of f and g
    equals the pairing of their transforms.  The full scope pairs
    Gaussian functions at width one, the squared envelope; the fermionic
    scope pairs plain polynomials at m = 0, width zero.  Conjugation
    fixes the variables and conjugates scalars."""
    if scope == "full":
        require_envelope(f)
        require_envelope(g)
        transform, width = super_fourier, Fraction(1)
    elif scope == "fermionic":
        if f.universe.m:
            raise ValueError("non-damped bosonic integrand")
        transform, width = fermionic_fourier, 0
    else:
        raise ValueError(f"unknown scope {scope!r}")
    lhs = _gaussian_pairing(f, g, width)
    return all(_gaussian_pairing(transform(f, sign), transform(g, sign),
                                 width) == lhs for sign in ("+", "-"))


def convolution_fermionic(f, g):
    """f*g(u) = Berezin_x f(u-x) g(x) for purely fermionic f, g, one pass
    over pairs of terms (q^A, q^B) with no doubled universe.

    Expanding f(u-x) picks -x_j on a subset S of A and u_j on the rest;
    the Berezin integral keeps S = full & ~B, so a pair counts when
    A | B is every symbol, and it goes to q^(A & B) with the weight
    pi^-n (-1)^(|S| + inversions) times the merge sign of (S, B), the
    inversions being the symbols of A & B above each symbol of S."""
    if isinstance(f, GaussianFunction) or isinstance(g, GaussianFunction):
        raise ValueError("convolution expects a plain polynomial")
    u = f.universe
    if g.universe != u:
        raise ValueError("universe mismatch")
    if u.m:
        raise ValueError("convolution implemented fermionically only")
    full = (1 << len(u.fermionic)) - 1
    out = {}
    for (_, a), ca in f.terms.items():
        for (_, b), cb in g.terms.items():
            if a | b != full:
                continue
            s, t = full & ~b, a & b
            odd = s.bit_count() + sum((t >> j).bit_count()
                                      for j in mask_bits(s))
            sign, _ = merge_masks(s, b)
            c = ca * cb
            add_into(out, ((), t), -c if (odd & 1) ^ (sign < 0) else c)
    return scale_exact(SuperPolynomial(u, out),
                       ExactScalar.pi_half_power(-len(u.fermionic)))


def fermionic_delta(u):
    """delta factor pi^n q_1 ... q_{2n}."""
    n2 = len(u.fermionic)
    return SuperPolynomial(
        u, {((0,) * u.m, (1 << n2) - 1): ExactScalar.pi_half_power(n2)})


def delta_fourier(universe, sign):
    """F(delta) = (2 pi)^(-M/2): fermionic factor transformed exactly,
    bosonic delta contributing the classical constant symbolically."""
    ferm = fermionic_fourier(fermionic_delta(universe), sign)
    const = ferm.constant_term()
    if len(ferm.terms) > (1 if const else 0):
        raise AssertionError("fermionic delta transform is not constant")
    return const * ExactScalar.two_pi_half_power(-universe.m)
