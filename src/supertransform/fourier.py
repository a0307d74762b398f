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
exact transforms run on integer numerators: the input is split once
over one common denominator D into Gaussian-integer numerators per
(monomial, radical), every image adds int products into them, and one
QQi and one scalar per output term are built at the end
(`superalg.numerators`, `superalg.from_numerators`).  `radon` and
`parseval_check` read those numerators straight from
`fourier_numerators`, with no scalar between the steps; other orders run
on floats.  On the plain class the transform of order a is one
closed-form 4x4 table per pair.  The defining constructions (the fermionic kernel followed by
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
                       from_numerators, mask_bits, merge_masks, numerators,
                       require_envelope, scale_exact)


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


def _images(bos, mask, full, bos_on):
    """The images of x^bos q^mask under the sector's order-free rows, as
    (key, int, k) with k the factors 2 gamma: the pair rows 1 -> 1,
    q_j -> q_j and q1q2 -> q1q2 - 2 (2 gamma) on the full pairs of the
    sector (`full` holds their low bits), then one Hermite row per
    coordinate, whose j-th entry lowers the degree by 2j."""
    images = [((bos, mask), 1, 0)]
    while full:
        low = full & -full
        full ^= low
        images += [((b, m ^ 3 * low), -2 * n, k + 1)
                   for (b, m), n, k in images]
    if bos_on:
        for i, e in enumerate(bos):
            if e > 1:                   # x^0 and x^1 are their own rows
                images = [((b[:i] + (p,) + b[i + 1:], m), n * t, k + j)
                          for (b, m), n, k in images
                          for j, (p, t) in enumerate(hermite_row(e))]
    return images


def _sector(f, sector):
    """(bos_on, low) of the sector for the Gaussian-class f: whether the
    Hermite rows act, and the low bit of every symbol pair the pair rows
    act on.  f is refused first when its images pass
    MAX_TRANSFORM_TERMS."""
    bos_on = sector != "fermionic"
    nf = len(f.universe.fermionic) if sector != "bosonic" else 0
    low = (4 ** (nf >> 1) - 1) // 3
    # x^a q^S has prod_i (a_i // 2 + 1) images on the Hermite rows, times
    # two per full pair
    total = 0
    for bos, mask in f.terms:
        n = 1 << (mask & mask >> 1 & low).bit_count()
        if bos_on:
            for e in bos:
                n *= (e >> 1) + 1
        total += n
    _check_images(total)
    return bos_on, low


def turned(nums, k):
    """The numerator map {radical: [re, im]} times i^k, as a list of
    (radical, re, im)."""
    re, im = I_POWERS[k % 4]
    return [(rad, x * re - y * im, x * im + y * re)
            for rad, (x, y) in nums.items()]


def add_images(acc, images, nums):
    """acc[key] += w * nums for each (key, int w) of images, on numerator
    maps {radical: [re, im]}; nums is a list of (radical, re, im)."""
    for key, w in images:
        cell = acc.get(key)
        if cell is None:
            acc[key] = {rad: [x * w, y * w] for rad, x, y in nums}
            continue
        for rad, x, y in nums:
            v = cell.get(rad)
            if v is None:
                cell[rad] = [x * w, y * w]
            else:
                v[0] += x * w
                v[1] += y * w


def _exact_images(f, turn, bos_on, low):
    """(D, numerator maps) of the exact Mehler pass at a = turn = +/-1:
    f split once over D by `numerators`, each term's numerators turned
    by (+/- i)^d, and every image of the term, its int weight times
    them, added into the numerators of its output monomial."""
    denom, terms = numerators(f.terms)
    acc = {}
    for (bos, mask), nums in terms.items():
        d = (sum(bos) if bos_on else 0) + (mask.bit_count() if low else 0)
        add_images(acc, [(key, n) for key, n, _ in
                         _images(bos, mask, mask & mask >> 1 & low, bos_on)],
                   turned(nums, turn * d))
    return denom, acc


def fourier_numerators(f, sign):
    """super_fourier(f, sign) as (D, numerator maps) for the steps that
    read on (`radon`, `parseval_check`), with the refusals of the
    transform: no envelope, too many images, float-lane input."""
    require_envelope(f)
    bos_on, low = _sector(f, "full")
    _require_exact(f)
    return _exact_images(f, _order(sign), bos_on, low)


def _mehler_pass(f, a, sector):
    """F^a of a Gaussian-class f on a sector (bosonic, fermionic or full,
    as in `laplace`) by Mehler's closed form
    F^a(P G) = (zeta^E exp(gamma Delta) P) G, zeta = e^(i a pi/2) and
    2 gamma = (zeta^2 - 1)/2, one pass over the terms.  A term of sector
    degree d goes to the products of its `_images`; one that lost 2k
    degrees is weighted zeta^(d-2k) (2 gamma)^k.  At a = +/-1 that
    weight is (+/- i)^d for every image, so the exact lane adds int
    products into Gaussian-integer numerators over one denominator and
    builds each output coefficient once (`_exact_images`); other orders
    run on floats, with zeta^j exact at quarter turns.  a = 0 returns
    f."""
    if sector not in ("bosonic", "fermionic", "full"):
        raise ValueError(f"unknown sector {sector!r}")
    a = Angle(a)
    require_envelope(f)
    if a.a == 0:
        return f
    bos_on, low = _sector(f, sector)
    if a.exact:
        _require_exact(f)
        return f._like(from_numerators(
            *_exact_images(f, int(a.a), bos_on, low)))
    out = {}
    try:
        for (bos, mask), c in f.terms.items():
            d = (sum(bos) if bos_on else 0) + (mask.bit_count() if low else 0)
            c = to_float(c)
            weights = [c * w for w in _float_weights(a.a, d)]
            for key, x, k in _images(bos, mask, mask & mask >> 1 & low,
                                     bos_on):
                add_into(out, key, x * weights[k])
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


def _gaussian_pairing(p, q, width):
    """Integral over the full superspace of p * conj(q) times the envelope
    exp(width * x^2-type): p and q split into numerators, then paired by
    `_pair_numerators`."""
    if p.universe != q.universe:
        raise ValueError("universe mismatch")
    _require_exact(p)
    _require_exact(q)
    return _pair_numerators(p.universe, numerators(p.terms),
                            numerators(q.terms), width)


def _pair_numerators(u, p, q, width):
    """The pairing of p and q, each (D, numerator maps) as `numerators`
    or `fourier_numerators` gives it, one pass over pairs of terms with
    integer weights; the product polynomial is never formed.

    A pair of terms counts when its bosonic exponents have one parity
    vector and its masks are disjoint and fill every symbol pair or leave
    it empty.  Its weight is the Koszul sign of `merge_masks`, the
    rational part of `gaussian_moment(e, width)` for each summed exponent
    e and of each pair's Berezin weight against its envelope factor
    1 + width q1q2, pi^-1 (width, 0, 0, 1) for the sub-masks 1, q1, q2,
    q1q2, so width^k for k empty pairs (width 0 pairs plain polynomials
    at m = 0); the radicals of those factors are one common factor,
    pi^(M/2) times sqrt2^m at width 1/2.  Conjugation flips the sign of
    q's imaginary numerators; the scalar is built once at the end.
    """
    nf = len(u.fermionic)
    # the Berezin weight (numerator, denominator) by the filled pairs
    empty = [(width.numerator ** k, width.denominator ** k)
             for k in range(u.pairs, -1, -1)]
    # the common radical: pi^-1 per pair, pi^(1/2) sqrt2^eps per coordinate
    rad_b, rad_eps = u.m - nf, 0
    if u.m:
        (_, eps), = gaussian_moment(0, width).terms
        rad_eps = u.m * eps
    moments = {}
    (dp, p_terms), (dq, q_terms) = p, q
    by_parity = {}
    for (bos, mask), nums in q_terms.items():
        by_parity.setdefault(tuple(e & 1 for e in bos), []).append(
            (bos, mask, nums.items()))
    low = (4 ** u.pairs - 1) // 3       # the low bit of every symbol pair
    acc = {}
    for (bos, mask), nums in p_terms.items():
        nums = nums.items()
        for bos_q, mask_q, nums_q in by_parity.get(
                tuple(e & 1 for e in bos), ()):
            union = mask | mask_q
            if mask & mask_q or (union ^ (union >> 1)) & low:
                continue        # a shared symbol, or a pair with one of two
            num, den = empty[union.bit_count() >> 1]
            if not num:
                continue
            num *= merge_masks(mask, mask_q)[0]
            for e in map(sum, zip(bos, bos_q)):
                if e not in moments:
                    (moment,) = gaussian_moment(e, width).terms.values()
                    moments[e] = moment.a, moment.d
                a, d = moments[e]
                num, den = num * a, den * d
            for (b1, e1), (re1, im1) in nums:
                for (b2, e2), (re2, im2) in nums_q:
                    cell = acc.setdefault((b1 + b2, e1 + e2, den), [0, 0])
                    cell[0] += num * (re1 * re2 + im1 * im2)
                    cell[1] += num * (im1 * re2 - re1 * im2)
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
    return _gaussian_pairing(f.poly, g.poly, 1)


def parseval_check(f, g, scope):
    """Exact Parseval equality for either sign: the pairing of f and g
    equals the pairing of their transforms.  The full scope pairs
    Gaussian functions at width one, the squared envelope, and pairs the
    transforms' numerators (`fourier_numerators`) as the pass leaves
    them; the fermionic scope pairs plain polynomials at m = 0, width
    zero.  Conjugation fixes the variables and conjugates scalars."""
    if scope == "full":
        require_envelope(f)
        require_envelope(g)
        lhs = _gaussian_pairing(f, g, 1)
        return all(_pair_numerators(f.universe, fourier_numerators(f, sign),
                                    fourier_numerators(g, sign), 1) == lhs
                   for sign in ("+", "-"))
    if scope != "fermionic":
        raise ValueError(f"unknown scope {scope!r}")
    if f.universe.m:
        raise ValueError("non-damped bosonic integrand")
    lhs = _gaussian_pairing(f, g, 0)
    return all(_gaussian_pairing(fermionic_fourier(f, sign),
                                 fermionic_fourier(g, sign), 0) == lhs
               for sign in ("+", "-"))


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
