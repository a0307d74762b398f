"""Fundamental solution of the super Laplace operator.

The classical poly-Laplace radial solutions nu_2, nu_4, ... are a chain
from the Green-function base case: every order is one power
r^alpha (A log r + B), and the next is its particular Poisson solution
in closed form (the log enters at the one resonance, a = 0 for even
m >= 4).  The super solution is their weighted combination against
Grassmann powers.  Verification applies the radial Laplacian plus the
fermionic degree-lowering rule and checks the exact telescope to zero
away from the origin.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._terms import TermMap, add_into, canonical
from .scalars import ExactScalar, gamma_half_integer
from .superalg import check_bosonic_count

# fermionic pairs n of one fundamental solution: the chain makes n + 1
# radial parts, and at m = 4 took 0.03, 0.14 and 1.0 s for n = 250, 500
# and 1000, about n^2.4 and then n^2.9 as its integers grow (work budget)
MAX_FUNDSOL_PAIRS = 1000


class RadialFunction(TermMap):
    """Finite sum of c * r^alpha * log(r)^s on r > 0."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = canonical(terms)

    def _like(self, terms):
        return RadialFunction(terms)

    @staticmethod
    def monomial(alpha, s, c):
        if isinstance(c, (int, Fraction)):
            c = ExactScalar.rational(c)
        return RadialFunction({(alpha, s): c})

    def render(self):
        if not self.terms:
            return "0"
        bits = []
        for (alpha, s), c in sorted(self.terms.items()):
            piece = f"({c.render()})"
            if alpha:
                piece += f"*r^{alpha}" if alpha != 1 else "*r"
            if s:
                piece += "*log(r)" if s == 1 else f"*log(r)^{s}"
            bits.append(piece)
        return " + ".join(bits)

    def __repr__(self):
        return f"RadialFunction<{self.render()}>"


def radial_laplace(f, m):
    """Delta(r^a log^s r) = a(a+m-2) r^(a-2) log^s
    + s(2a+m-2) r^(a-2) log^(s-1) + s(s-1) r^(a-2) log^(s-2)."""
    if m < 1:
        raise ValueError("dimension must be at least 1")
    out = {}
    for (alpha, s), c in f.terms.items():
        add_into(out, (alpha - 2, s), c * (alpha * (alpha + m - 2)))
        if s:
            add_into(out, (alpha - 2, s - 1), c * (s * (2 * alpha + m - 2)))
        if s > 1:
            add_into(out, (alpha - 2, s - 2), c * (s * (s - 1)))
    return RadialFunction(out)


def _poisson_step(nu, m):
    """The particular solution of Delta g = r^alpha (A log r + B), the
    one power each order of the chain holds: r^a (A' log r + B') with
    a = alpha + 2, A' = A/lam and B' = (B - mu A')/lam, since
    Delta(r^a log r) = r^alpha (lam log r + mu) for lam = a(a+m-2) and
    mu = 2a+m-2.  The one resonance the chain meets, lam = 0 at a = 0
    for even m >= 4, comes with A = 0 and takes A' = B/mu, B' = 0: no
    homogeneous solution is added (minimal-growth choice)."""
    (alpha,) = {alpha for alpha, _ in nu.terms}
    zero = ExactScalar.zero()
    big_a = nu.terms.get((alpha, 1), zero)
    big_b = nu.terms.get((alpha, 0), zero)
    a = alpha + 2
    lam, mu = a * (a + m - 2), 2 * a + m - 2
    if lam:
        big_a = big_a * Fraction(1, lam)
        big_b = (big_b - big_a * mu) * Fraction(1, lam)
    else:
        big_a, big_b = big_b * Fraction(1, mu), zero
    return RadialFunction({(a, 1): big_a, (a, 0): big_b})


def nu_poly_laplace(l, m):
    """Fundamental solution of the l-th power of the classical Laplacian,
    by recursion Delta nu_{2l} = nu_{2l-2} from the Green function."""
    if l < 1 or m < 1:
        raise ValueError("orders must be positive")
    if m >= 3:
        sigma = ExactScalar.rational(2) * ExactScalar.pi_half_power(m) \
            * gamma_half_integer(m).inverse()
        base_c = -((sigma * (m - 2)).inverse())
        nu = RadialFunction({(2 - m, 0): base_c})
    elif m == 2:
        nu = RadialFunction.monomial(
            0, 1, ExactScalar.rational(1, 2) * ExactScalar.pi_half_power(-2))
    else:
        nu = RadialFunction.monomial(1, 0, Fraction(1, 2))
    for _ in range(l - 1):
        nu = _poisson_step(nu, m)
    return nu


def fundsol_prefactor(k, n):
    """The constant pi^n 2^(2k) k!/(n-k)! weighting the k-th term."""
    return ExactScalar.pi_half_power(2 * n) * ExactScalar.rational(
        Fraction(4 ** k * math.factorial(k), math.factorial(n - k)))


class SuperRadial:
    """Sum over j of RadialFunction tensor xfer^(2j); the top power
    (xfer^2)^n = n! q1...q2n prints as its one monomial."""

    __slots__ = ("n", "parts")

    def __init__(self, n, parts):
        self.n = n
        self.parts = canonical(parts)

    def __eq__(self, other):
        if not isinstance(other, SuperRadial):
            return NotImplemented
        return self.n == other.n and self.parts == other.parts

    def printed_parts(self):
        """The radial parts as render prints them: the top one times n!,
        beside q1...q2n."""
        return {j: r.scale(math.factorial(j)) if j == self.n else r
                for j, r in self.parts.items()}

    def render(self):
        bits = []
        for j, r in sorted(self.printed_parts().items()):
            piece = r.render()
            if j:
                fer = "".join(f"q{i + 1}" for i in range(2 * j))
                piece = f"[{piece}]*{fer}" if j == self.n else \
                    f"[{piece}]*(xfer^2)^{j}"
            bits.append(piece)
        return " + ".join(bits) if bits else "0"

    def __repr__(self):
        return f"SuperRadial<{self.render()}>"


def super_fundamental_solution(m, n):
    """pi^n sum_k 2^(2k) k!/(n-k)! nu_{2k+2} xfer^(2n-2k), with the nu
    chain carried forward: one closed Poisson step per k.  Refused
    before the chain when m passes MAX_BOSONIC or n MAX_FUNDSOL_PAIRS."""
    if m < 0 or n < 0:
        raise ValueError("universe sizes m and n must be non-negative")
    if m < 1:
        raise ValueError("no purely fermionic fundamental solution")
    check_bosonic_count(m)
    if n > MAX_FUNDSOL_PAIRS:
        raise ValueError(f"n = {n} pairs exceeds MAX_FUNDSOL_PAIRS = "
                         f"{MAX_FUNDSOL_PAIRS}")
    parts = {}
    nu = nu_poly_laplace(1, m)
    for k in range(n + 1):
        if k:
            nu = _poisson_step(nu, m)
        parts[n - k] = nu.scale(fundsol_prefactor(k, n))
    return SuperRadial(n, parts)


def verify_harmonic_away_from_origin(sr, m):
    """Apply Delta_b radially and Delta_f by its degree-lowering action
    Delta_f xfer^(2j) = 2j(2j-2-2n) xfer^(2j-2); True iff the total
    telescopes to zero exactly."""
    n = sr.n
    for j in range(n + 1):
        total = radial_laplace(sr.parts.get(j, RadialFunction()), m)
        upper = sr.parts.get(j + 1)
        if upper is not None:
            coeff = 2 * (j + 1) * (2 * (j + 1) - 2 - 2 * n)
            total = total + upper.scale(coeff)
        if total:
            return False
    return True
