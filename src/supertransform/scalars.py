"""Exact scalar ring for all coefficients of the engine.

Every constant appearing in the transforms lives in the ring of finite sums

    q * sqrt2^eps * pi^(b/2)

with q a complex rational, eps in {0, 1} and b an integer.  The basis
{pi^(b/2) * sqrt2^eps} is linearly independent over the complex rationals,
so keeping term maps canonical (no zero coefficients, sqrt2^2 folded into q)
gives decidable exact equality.  One printer, `render_ring`, writes an
element in either notation, text or LaTeX; a notation is a table of
spellings.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import NamedTuple

from ._terms import TermMap, add_into

# i^k as a Gaussian integer (re, im), k mod 4: the one table of the
# powers of i, exact and float
I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))

# digits of one printed integer (output budget): sums and products of
# in-budget input can outgrow it; `_lowest`, which every printed
# rational passes through, refuses a longer part
MAX_RENDER_DIGITS = 4300
_RENDER_BOUND = 10 ** MAX_RENDER_DIGITS


class QQi:
    """Complex rational (a + b*i)/d, stored as three ints.

    Invariant: d > 0 and gcd(a, b, d) == 1, so zero is (0, 0, 1) and
    equal values have equal fields; equality and hashing read the fields
    alone.  Every operation does integer arithmetic and one three-way gcd
    in `_qqi`.  `re` and `im` are the parts as Fractions, built on each
    read; `a`, `b` and `d` are read-only by convention.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        rn, rd = _ratio(re)
        in_, id_ = _ratio(im)
        # both parts in lowest terms: over d = lcm(rd, id_) no prime of d
        # divides both numerators, so (a, b, d) is already canonical
        d = math.lcm(rd, id_)
        self.a, self.b, self.d = rn * (d // rd), in_ * (d // id_), d

    @staticmethod
    def reduced(a, b, d):
        """(a + b*i)/d for ints a, b and d > 0 (every caller passes a
        product of denominators or a sum of squares), brought to the
        canonical fields by one three-way gcd."""
        g = math.gcd(a, b, d)
        out = _object_new(QQi)
        if g == 1:
            out.a, out.b, out.d = a, b, d
        else:
            out.a, out.b, out.d = a // g, b // g, d // g
        return out

    @property
    def re(self):
        return Fraction(self.a, self.d)

    @property
    def im(self):
        return Fraction(self.b, self.d)

    def __add__(self, other):
        other = _as_qqi(other)
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _qqi(self.a + other.a, self.b + other.b, d1)
        return _qqi(self.a * d2 + other.a * d1, self.b * d2 + other.b * d1,
                    d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return _new(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-_as_qqi(other))

    def __mul__(self, other):
        if isinstance(other, QQi):
            a1, b1, a2, b2 = self.a, self.b, other.a, other.b
            return _qqi(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2,
                        self.d * other.d)
        if isinstance(other, int):
            return _qqi(self.a * other, self.b * other, self.d)
        if isinstance(other, Fraction):
            n = other.numerator
            return _qqi(self.a * n, self.b * n, self.d * other.denominator)
        return self * _as_qqi(other)

    __rmul__ = __mul__

    def inverse(self):
        a, b, d = self.a, self.b, self.d
        if not a and not b:
            raise ZeroDivisionError("division by zero")
        return _qqi(a * d, -b * d, a * a + b * b)

    def conjugate(self):
        return _new(self.a, -self.b, self.d)

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, other):
        if isinstance(other, QQi):
            return (self.a == other.a and self.b == other.b
                    and self.d == other.d)
        if isinstance(other, int):
            return not self.b and self.d == 1 and self.a == other
        if isinstance(other, Fraction):
            return (not self.b and self.d == other.denominator
                    and self.a == other.numerator)
        # an ExactScalar compares through its own __eq__
        return NotImplemented

    def __hash__(self):
        # a real value hashes as the equal int or Fraction
        if not self.b:
            return hash(self.re)
        return hash((self.a, self.b, self.d))

    def __complex__(self):
        # int / int is correctly rounded, as float(Fraction) is
        return complex(self.a / self.d, self.b / self.d)

    def __repr__(self):
        return f"QQi({self.re!r}, {self.im!r})"


def _ratio(x):
    """(numerator, denominator) of an int, a Fraction or any value
    Fraction accepts."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return x.numerator, x.denominator


_object_new = object.__new__


def _new(a, b, d):
    """QQi from fields already canonical; skips __init__."""
    out = _object_new(QQi)
    out.a, out.b, out.d = a, b, d
    return out


# the canonical constructor, read as a module function by the operations
_qqi = QQi.reduced


def _as_qqi(v):
    if isinstance(v, QQi):
        return v
    if isinstance(v, int):
        return _new(v, 0, 1)
    if isinstance(v, Fraction):
        return _new(v.numerator, 0, v.denominator)
    raise TypeError(f"cannot interpret {v!r} as complex rational")


class ExactScalar(TermMap):
    """Element of the ring sum_j q_j * sqrt2^eps_j * pi^(b_j/2).

    Immutable; term map keyed by (b, eps) in canonical form (no zero q,
    eps in {0,1}).  Inversion is only defined for single-term scalars,
    which covers every division the engine performs.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        canon = {}
        if terms:
            for (b, eps), q in terms.items():
                q = _as_qqi(q)
                if eps not in (0, 1):
                    q = q * (Fraction(2) ** (eps // 2))
                    eps %= 2
                add_into(canon, (b, eps), q)
        self.terms = canon

    def _like(self, terms):
        out = ExactScalar.__new__(ExactScalar)
        out.terms = terms
        return out

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero():
        return ExactScalar()

    @staticmethod
    def one():
        return ExactScalar({(0, 0): QQi(1)})

    @staticmethod
    def rational(p, q=1):
        r = Fraction(p, q)
        return ExactScalar({(0, 0): _new(r.numerator, 0, r.denominator)})

    @staticmethod
    def from_qqi(q):
        return ExactScalar({(0, 0): _as_qqi(q)})

    @staticmethod
    def monomial(q, b=0, eps=0):
        """q * pi^(b/2) * sqrt2^eps for a non-zero QQi q and eps in {0, 1}."""
        out = _object_new(ExactScalar)
        out.terms = {(b, eps): q}
        return out

    @staticmethod
    def from_terms(terms):
        """The scalar of a (b, eps) -> QQi map already canonical (no zero
        q, eps in {0, 1}); the map is kept, not copied, so its key tuples
        can be shared."""
        out = _object_new(ExactScalar)
        out.terms = terms
        return out

    @staticmethod
    def i():
        return ExactScalar({(0, 0): QQi(0, 1)})

    @staticmethod
    def sqrt2():
        return ExactScalar({(0, 1): QQi(1)})

    @staticmethod
    def pi_half_power(b):
        """pi^(b/2) for any integer b."""
        return ExactScalar({(b, 0): QQi(1)})

    @staticmethod
    def sqrt2_power(j):
        """2^(j/2) for any integer j."""
        q, r = divmod(j, 2)
        return ExactScalar({(0, r): QQi(Fraction(2) ** q)})

    @staticmethod
    def two_pi_half_power(j):
        """(2*pi)^(j/2) for any integer j."""
        return ExactScalar.sqrt2_power(j) * ExactScalar.pi_half_power(j)

    @staticmethod
    def i_power(k):
        return ExactScalar({(0, 0): QQi(*I_POWERS[k % 4])})

    # -- ring operations ----------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QQi)):
            return self.scale(other)
        if not isinstance(other, ExactScalar):
            return NotImplemented
        acc = {}
        for (b1, e1), q1 in self.terms.items():
            for (b2, e2), q2 in other.terms.items():
                e = e1 + e2
                q = q1 * q2
                if e == 2:          # sqrt2 * sqrt2 folds to 2
                    e = 0
                    q = q * 2
                add_into(acc, (b1 + b2, e), q)
        return self._like(acc)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = ExactScalar.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def inverse(self):
        """Inverse of a single-term scalar; 1/sqrt2 = sqrt2/2."""
        if not self.terms:
            raise ZeroDivisionError("division by zero")
        if len(self.terms) > 1:
            raise ValueError("non-monomial scalar not invertible")
        ((b, eps), q), = self.terms.items()
        qinv = q.inverse()
        if eps:
            qinv = qinv * Fraction(1, 2)
        return ExactScalar({(-b, eps): qinv})

    # -- predicates and conversions -----------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QQi)):
            other = ExactScalar.from_qqi(other)
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a complex rational value (zero too) hashes as the equal QQi, so
        # as the equal int or Fraction when it is real
        if self.is_gaussian_rational():
            return hash(self.qqi_value())
        return hash(frozenset(self.terms.items()))

    def is_rational(self):
        return all(k == (0, 0) and not q.b for k, q in self.terms.items())

    def rational_value(self):
        if not self.terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError("scalar is not rational")
        return self.terms[(0, 0)].re

    def is_gaussian_rational(self):
        return all(k == (0, 0) for k in self.terms)

    def qqi_value(self):
        if not self.terms:
            return QQi(0)
        if not self.is_gaussian_rational():
            raise ValueError("scalar is not a complex rational")
        return self.terms[(0, 0)]

    def to_complex(self):
        total = 0j
        pi = 3.14159265358979323846264338327950288
        sq2 = 1.4142135623730950488016887242096981
        for (b, eps), q in self.terms.items():
            total += complex(q) * (pi ** (b / 2.0)) * (sq2 if eps else 1.0)
        return total

    # -- rendering ------------------------------------------------------

    def render(self):
        return render_ring(self.terms, TEXT_NOTATION)

    def to_json(self):
        return [{"q": [*_lowest(t.a, t.d), *_lowest(t.b, t.d)],
                 "b": b, "eps": eps}
                for (b, eps), t in sorted(self.terms.items())]

    def __repr__(self):
        return f"ExactScalar<{self.render()}>"


def _lowest(n, d):
    """n/d (d > 0) in lowest terms, as (numerator, denominator); a part
    of more than MAX_RENDER_DIGITS digits is refused before it is
    printed."""
    g = math.gcd(n, d)
    n, d = n // g, d // g
    if d >= _RENDER_BOUND or abs(n) >= _RENDER_BOUND:
        raise ValueError(f"a coefficient exceeds MAX_RENDER_DIGITS = "
                         f"{MAX_RENDER_DIGITS} digits")
    return n, d


def rational_text(n, d):
    """str(Fraction(n, d)) for d > 0, with one gcd."""
    n, d = _lowest(n, d)
    return str(n) if d == 1 else f"{n}/{d}"


class Notation(NamedTuple):
    """The spellings of one notation, read by the one set of rules in
    `render_ring` and `expr._render_terms`; pi holds pi^(1/2), pi, and
    the %-formats of pi^k and pi^(b/2)."""

    times: str          # inside a ring term
    i: str              # the imaginary unit after a rational
    sqrt2: str
    pi: tuple
    plus: str           # a ring sum's joiners
    minus: str
    codec: int          # the monomial codes' field (superalg.TEXT, LATEX)
    term_times: str     # before a monomial and before the envelope
    envelope: str
    float_parens: bool  # a float coefficient printed as one factor


TEXT_NOTATION = Notation("*", "*i", "sqrt2",
                         ("sqrtpi", "pi", "pi^%d", "pi^(%d/2)"),
                         " + ", " - ", 3, "*", "G", True)
LATEX_NOTATION = Notation("", "i", r"\sqrt{2}",
                          (r"\pi^{1/2}", r"\pi^{1}", r"\pi^{%d}",
                           r"\pi^{%d/2}"),
                          "+", "-", 4, " ", "e^{x^2/2}", False)


def signed_join(parts, plus, minus):
    """The parts joined by plus, or by minus in place of a part's leading
    '-'."""
    out = parts[0]
    for p in parts[1:]:
        out += minus + p[1:] if p[0] == "-" else plus + p
    return out


def times_factor(c, times, factor):
    """The text c times factor, c left out when it is 1 and a bare '-'
    when -1."""
    return (factor if c == "1" else "-" + factor if c == "-1"
            else c + times + factor)


def render_ring(terms, nt):
    """The ring element of a canonical (b, eps) -> QQi map in notation
    nt: each term q * sqrt2^eps * pi^(b/2) in (b, eps) order, a complex q
    parenthesized, the terms joined by nt's signs."""
    if not terms:
        return "0"
    times, unit_i, sqrt2, (pi_half, pi_one, pi_even, pi_odd) = nt[:4]
    parts = []
    for (b, eps), q in (sorted(terms.items()) if len(terms) > 1
                        else terms.items()):
        a, qb, d = q.a, q.b, q.d
        if not qb:
            qs = rational_text(a, d)
        else:
            qs = ("i" if qb == d else "-i" if qb == -d
                  else rational_text(qb, d) + unit_i)
            if a:
                sep = "" if qs[0] == "-" else "+"
                qs = f"({rational_text(a, d)}{sep}{qs})"
        rad = sqrt2 if eps else ""
        if b:
            pi = (pi_half if b == 1 else pi_one if b == 2
                  else pi_odd % b if b & 1 else pi_even % (b >> 1))
            rad = rad + times + pi if eps else pi
        parts.append(times_factor(qs, times, rad) if rad else qs)
    return parts[0] if len(parts) == 1 else signed_join(parts, nt.plus,
                                                         nt.minus)


# -- gamma at half-integer steps ---------------------------------------

def gamma_half_integer(numerator):
    """Gamma(numerator/2) exactly; argument must be positive.

    Even numerator gives a factorial, odd numerator lands in Q*sqrt(pi).
    """
    if numerator <= 0:
        raise ValueError("gamma argument <= 0")
    if numerator % 2 == 0:
        k = numerator // 2
        return ExactScalar.rational(math.factorial(k - 1))
    k = numerator // 2          # Gamma(k + 1/2)
    val = Fraction(math.factorial(2 * k), 4 ** k * math.factorial(k))
    return ExactScalar({(1, 0): QQi(val)})


#: Float backend scalar; conversion from ExactScalar is total.
FloatScalar = complex


def to_float(a):
    """Total conversion of an ExactScalar or a number to the complex
    backend value."""
    return a.to_complex() if isinstance(a, ExactScalar) else complex(a)


class Angle:
    """Fractional order a in [-1, 1]; alpha = a*pi/2.

    Integral a keeps the exact backend (phases in {1, i, -1, -i});
    anything else is handled in floating point.
    """

    __slots__ = ("a",)

    def __init__(self, a):
        if isinstance(a, Angle):
            a = a.a
        if isinstance(a, (int, Fraction, float)):
            if not -1 <= a <= 1:
                raise ValueError("order must lie in [-1, 1]")
        else:
            raise TypeError("order must be rational or float")
        if isinstance(a, float) and a.is_integer():
            a = int(a)
        self.a = a

    @property
    def exact(self):
        return isinstance(self.a, int) or (
            isinstance(self.a, Fraction) and self.a.denominator == 1)

    @property
    def alpha(self):
        return float(self.a) * math.pi / 2.0

    def phase(self, power):
        """e^(i * alpha * power) on the matching lane; a quarter turn
        (a * power integral) is exact on either lane."""
        turns = self.a * power
        if self.exact:
            return ExactScalar.i_power(int(turns))
        if turns == int(turns):
            # from ints, complex(0, -1) carries no negative zero, as -1j does
            return complex(*I_POWERS[int(turns) % 4])
        return cmath.exp(1j * self.alpha * power)

    def __repr__(self):
        return f"Angle({self.a!r})"
