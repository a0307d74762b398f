"""Fundamental solution of the super Laplace operator.

The classical poly-Laplace radial solutions are produced by recursive
radial calculus from the Green-function base case (log terms appear
exactly at resonances), and the super solution is their weighted
combination against Grassmann powers.  Verification applies the radial
Laplacian plus the fermionic degree-lowering rule and checks the exact
telescope to zero away from the origin.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._terms import TermMap, add_into, canonical
from .scalars import ExactScalar, gamma_half_integer
from .superalg import MAX_BOSONIC

# fermionic pairs n of one fundamental solution: the chain makes n + 1
# radial parts, and its time grows about like n^2.7 (work budget)
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


def solve_radial_poisson(rhs, m):
    """Particular solution of Delta g = rhs in the radial class.

    Log powers are introduced exactly at the resonances of a(a+m-2);
    homogeneous solutions are not added (minimal-growth choice).
    """
    sol = RadialFunction()
    remaining = rhs
    guard = 0
    while remaining:
        guard += 1
        if guard > 10000:
            raise RuntimeError("radial solve failed to terminate")
        (alpha, s), c = max(remaining.terms.items(),
                            key=lambda kv: (kv[0][1], kv[0][0]))
        a_new = alpha + 2
        lead0 = a_new * (a_new + m - 2)
        if lead0:
            term = RadialFunction.monomial(
                a_new, s, c * ExactScalar.rational(Fraction(1, lead0)))
        elif 2 * a_new + m - 2:
            lead1 = (s + 1) * (2 * a_new + m - 2)
            term = RadialFunction.monomial(
                a_new, s + 1, c * ExactScalar.rational(Fraction(1, lead1)))
        else:
            lead2 = (s + 2) * (s + 1)
            term = RadialFunction.monomial(
                a_new, s + 2, c * ExactScalar.rational(Fraction(1, lead2)))
        sol = sol + term
        remaining = remaining - radial_laplace(term, m)
    return sol


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
        nu = solve_radial_poisson(nu, m)
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
    chain carried forward: one radial Poisson solve per k.  Refused
    before the chain when m passes MAX_BOSONIC or n MAX_FUNDSOL_PAIRS."""
    if m < 0 or n < 0:
        raise ValueError("universe sizes m and n must be non-negative")
    if m < 1:
        raise ValueError("no purely fermionic fundamental solution")
    if m > MAX_BOSONIC:
        raise ValueError(f"m = {m} bosonic variables exceeds "
                         f"MAX_BOSONIC = {MAX_BOSONIC}")
    if n > MAX_FUNDSOL_PAIRS:
        raise ValueError(f"n = {n} pairs exceeds MAX_FUNDSOL_PAIRS = "
                         f"{MAX_FUNDSOL_PAIRS}")
    parts = {}
    nu = nu_poly_laplace(1, m)
    for k in range(n + 1):
        if k:
            nu = solve_radial_poisson(nu, m)
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
