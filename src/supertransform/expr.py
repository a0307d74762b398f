"""Expression parser and renderers for the CLI surface.

Grammar:  expr := ('-')? term (('+'|'-') term)*
          term := factor (('*')? factor)*
          factor := atom ('^' exponent)?
          atom := rational | i | pi | sqrt2 | sqrtpi | G | x<k> | q<k>
                  | '(' expr ')'
Juxtaposed factors multiply in written order, so fermionic products like
q1q2 keep their sign semantics; fermionic squares are rejected at parse
time, as are mixed Gaussian/non-Gaussian sums.  Oversized input is
refused before the arithmetic that would pass a budget below, and
oversized output before rendering, with a ValueError naming the budget.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from ._terms import add_into
from .scalars import ExactScalar, QQi, rational_text
from .superalg import (GaussianFunction, SuperPolynomial, mask_bits, sp_mul)


# Input budgets of the expression and JSON readers, and the renderers'
# output budget.
MAX_EXPONENT = 1000        # |exponent| of '^' and of a JSON bosonic entry
MAX_DIGITS = 1000          # digits of one integer literal
MAX_POWER_DIGITS = 4300    # digits of a scalar power (Python's int str limit)
MAX_RENDER_DIGITS = 4300   # digits of one rendered integer (output budget)
MAX_TERM_PAIRS = 50000     # term pairs multiplied in one parse


def _literal_int(text):
    digits = len(text.lstrip("-"))
    if digits > MAX_DIGITS:
        raise ValueError(f"integer literal of {digits} digits exceeds "
                         f"MAX_DIGITS = {MAX_DIGITS}")
    return int(text)


def _check_exponent(e):
    if abs(e.numerator) > MAX_EXPONENT * e.denominator:
        raise ValueError(f"exponent {e} exceeds MAX_EXPONENT = "
                         f"{MAX_EXPONENT}")


def _scalar_power(c, k):
    """c ** k, refused before the arithmetic when a numerator or
    denominator of the result could pass MAX_POWER_DIGITS digits.  Over a
    common denominator den, (sum of |numerators|, sqrt2 counted twice)^k
    bounds every numerator of c^k, and den^k every denominator.  A
    complex rational (a + b*i)/d in lowest terms has parts whose
    denominators have lcm d, so den is the lcm of the d fields."""
    if k < 0:
        c, k = c.inverse(), -k
    den = math.lcm(*(q.d for q in c.terms.values()))
    num = sum((abs(q.a) + abs(q.b)) * (den // q.d) * (1 + eps)
              for (_, eps), q in c.terms.items())
    if k * math.log10(max(num, den)) > MAX_POWER_DIGITS:
        raise ValueError(f"scalar power would exceed MAX_POWER_DIGITS = "
                         f"{MAX_POWER_DIGITS} digits")
    return c ** k


def check_render_digits(coeffs):
    """Refuse, before any text is built, exact coefficients holding an
    integer of more than MAX_RENDER_DIGITS digits: sums and products of
    in-budget input can outgrow it.  The printed parts a/d and b/d in
    lowest terms are no larger than the fields of (a + b*i)/d, so the
    parts are reduced only when a field reaches the bound."""
    for c in coeffs:
        if not isinstance(c, ExactScalar):
            continue
        for q in c.terms.values():
            if max(abs(q.a), abs(q.b), q.d) < _RENDER_BOUND:
                continue
            for x in (q.re, q.im):
                if max(abs(x.numerator), x.denominator) >= _RENDER_BOUND:
                    raise ValueError(
                        f"a coefficient exceeds MAX_RENDER_DIGITS = "
                        f"{MAX_RENDER_DIGITS} digits")


_RENDER_BOUND = 10 ** MAX_RENDER_DIGITS


class ParseError(Exception):
    """Syntax or semantic rejection, carrying the source position."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN = re.compile(r"""
    (?P<num>\d+)
  | (?P<name>sqrtpi|sqrt2|pi|i|G|x\d+|q\d+)
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
""", re.VERBOSE)


def _tokenize(src):
    out = []
    pos = 0
    while pos < len(src):
        mo = _TOKEN.match(src, pos)
        if not mo:
            raise ParseError(f"unexpected character {src[pos]!r}", pos)
        if mo.lastgroup == "num":
            out.append(("num", _literal_int(mo.group()), pos))
        elif mo.lastgroup == "name":
            out.append(("name", mo.group(), pos))
        elif mo.lastgroup == "op":
            out.append(("op", mo.group(), pos))
        pos = mo.end()
    out.append(("end", None, len(src)))
    return out


class _Value:
    """Parsed value: polynomial plus a Gaussian-envelope flag."""

    __slots__ = ("poly", "gaussian")

    def __init__(self, poly, gaussian=False):
        self.poly = poly
        self.gaussian = gaussian


class Parser:
    def __init__(self, src, universe):
        self.tokens = _tokenize(src)
        self.universe = universe
        self.k = 0
        self.pairs = 0

    def spend(self, pairs):
        """Count term pairs against MAX_TERM_PAIRS before multiplying."""
        self.pairs += pairs
        if self.pairs > MAX_TERM_PAIRS:
            raise ValueError(f"expression would multiply more than "
                             f"MAX_TERM_PAIRS = {MAX_TERM_PAIRS} term pairs")

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self):
        value = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", pos)
        return value

    def expr(self):
        negate = False
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            negate = True
        value = self.term()
        if negate:
            value = _Value(-value.poly, value.gaussian)
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                if rhs.gaussian != value.gaussian:
                    raise ParseError("cannot add Gaussian and plain terms",
                                     pos)
                poly = value.poly + rhs.poly if val == "+" \
                    else value.poly - rhs.poly
                value = _Value(poly, value.gaussian)
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.next()
                rhs = self.factor()
            elif kind in ("num", "name") or (kind == "op" and val == "("):
                rhs = self.factor()
            else:
                return value
            if value.gaussian and rhs.gaussian:
                raise ParseError("duplicate Gaussian marker", pos)
            self.spend(len(value.poly.terms) * len(rhs.poly.terms))
            value = _Value(sp_mul(value.poly, rhs.poly),
                           value.gaussian or rhs.gaussian)

    def factor(self):
        value = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            exponent = self.exponent()
            _check_exponent(exponent)
            value = self.power(value, exponent, pos)
        return value

    def exponent(self):
        kind, val, pos = self.next()
        if kind == "num":
            return Fraction(val)
        if kind == "op" and val == "-":
            kind, val, pos = self.next()
            if kind != "num":
                raise ParseError("expected integer exponent", pos)
            return Fraction(-val)
        if kind == "op" and val == "(":
            sign = 1
            kind, val, pos = self.next()
            if kind == "op" and val == "-":
                sign = -1
                kind, val, pos = self.next()
            if kind != "num":
                raise ParseError("expected rational exponent", pos)
            num = val
            den = 1
            kind, val, pos = self.peek()
            if kind == "op" and val == "/":
                self.next()
                kind, val, pos = self.next()
                if kind != "num":
                    raise ParseError("expected exponent denominator", pos)
                if not val:
                    raise ParseError("denominator must be non-zero", pos)
                den = val
            self.expect_op(")")
            return Fraction(sign * num, den)
        raise ParseError("expected exponent", pos)

    def power(self, value, exponent, pos):
        u = self.universe
        if value.gaussian:
            raise ParseError("Gaussian marker cannot be raised to a power",
                             pos)
        terms = value.poly.terms
        if len(terms) == 1:
            ((bos, mask), c), = terms.items()
            if mask and bos == (0,) * u.m and len(mask_bits(mask)) == 1 \
                    and c == ExactScalar.one():
                if exponent >= 2:
                    raise ParseError("fermionic square", pos)
                if exponent < 0 or exponent.denominator != 1:
                    raise ParseError("invalid fermionic power", pos)
                if exponent == 0:
                    return _Value(SuperPolynomial.one(u))
                return value
            if not mask and bos == (0,) * u.m:
                # scalar power; pi admits half-integer exponents
                if exponent.denominator == 1:
                    return _Value(SuperPolynomial.scalar(
                        u, _scalar_power(c, int(exponent))))
                if exponent.denominator == 2 \
                        and c == ExactScalar.pi_half_power(2):
                    return _Value(SuperPolynomial.scalar(
                        u, ExactScalar.pi_half_power(exponent.numerator)))
                raise ParseError("unsupported fractional power", pos)
        if exponent.denominator != 1 or exponent < 0:
            raise ParseError("exponent must be a nonnegative integer", pos)
        # P^i * P for i < k makes t*|P^i| <= t*C(i+t-1, t-1) pairs
        t, k = len(terms), int(exponent)
        self.spend(t * math.comb(k + t - 1, t))
        fermionic_content = any(mask for (_, mask) in terms)
        out = SuperPolynomial.one(u)
        for _ in range(k):
            out = sp_mul(out, value.poly)
        if not out and exponent >= 2 and fermionic_content:
            raise ParseError("fermionic square", pos)
        return _Value(out)

    def atom(self):
        u = self.universe
        kind, val, pos = self.next()
        if kind == "num":
            num = val
            kind2, val2, _ = self.peek()
            if kind2 == "op" and val2 == "/":
                self.next()
                kind3, val3, pos3 = self.next()
                if kind3 != "num":
                    raise ParseError("expected denominator", pos3)
                if not val3:
                    raise ParseError("denominator must be non-zero", pos3)
                return _Value(SuperPolynomial.scalar(
                    u, ExactScalar.rational(num, val3)))
            return _Value(SuperPolynomial.scalar(u, ExactScalar.rational(num)))
        if kind == "name":
            if val == "i":
                return _Value(SuperPolynomial.scalar(u, ExactScalar.i()))
            if val == "pi":
                return _Value(SuperPolynomial.scalar(
                    u, ExactScalar.pi_half_power(2)))
            if val == "sqrtpi":
                return _Value(SuperPolynomial.scalar(
                    u, ExactScalar.pi_half_power(1)))
            if val == "sqrt2":
                return _Value(SuperPolynomial.scalar(u, ExactScalar.sqrt2()))
            if val == "G":
                return _Value(SuperPolynomial.one(u), gaussian=True)
            if val.startswith("x"):
                idx = int(val[1:]) - 1
                if not 0 <= idx < u.m:
                    raise ParseError(f"unknown symbol {val}", pos)
                return _Value(SuperPolynomial.bosonic_var(u, idx))
            idx = int(val[1:]) - 1
            if not 0 <= idx < len(u.fermionic):
                raise ParseError(f"unknown symbol {val}", pos)
            return _Value(SuperPolynomial.fermionic_var(u, idx))
        if kind == "op" and val == "(":
            value = self.expr()
            self.expect_op(")")
            return value
        raise ParseError("expected a value", pos)


def parse(src, universe):
    """Parse to a SuperPolynomial or (with the G marker) GaussianFunction."""
    value = Parser(src, universe).parse()
    if value.gaussian:
        return GaussianFunction(value.poly, True)
    return value.poly


# -- rendering ----------------------------------------------------------


def _coeff_text(c):
    if isinstance(c, ExactScalar):
        s = c.render()
        if " + " in s or " - " in s:
            return f"({s})", False
        return s, s == "1" or s == "-1"
    s = str(c)
    return (s if s.startswith("(") else f"({s})"), False


def _monomial_text(u, bos, mask, bos_names=None, fer_names=None):
    bos_names = bos_names or u.bosonic
    fer_names = fer_names or u.fermionic
    parts = []
    for i, e in enumerate(bos):
        if e == 1:
            parts.append(bos_names[i])
        elif e:
            parts.append(f"{bos_names[i]}^{e}")
    fer = "".join(fer_names[j] for j in mask_bits(mask))
    if fer:
        parts.append(fer)
    return "*".join(parts)


def render_poly_text(f, bos_names=None, fer_names=None):
    gaussian = isinstance(f, GaussianFunction)
    poly = f.poly if gaussian else f
    check_render_digits(poly.terms.values())
    u = poly.universe
    if not poly.terms:
        return "0"
    bits = []
    for (bos, mask), c in poly.sorted_terms():
        cs, unit = _coeff_text(c)
        mono = _monomial_text(u, bos, mask, bos_names, fer_names)
        if gaussian:
            mono = f"{mono}*G" if mono else "G"
        if not mono:
            piece = cs
        elif unit:
            piece = mono if cs == "1" else f"-{mono}"
        else:
            piece = f"{cs}*{mono}"
        bits.append(piece)
    out = bits[0]
    for b in bits[1:]:
        out += f" - {b[1:]}" if b.startswith("-") else f" + {b}"
    return out


def _coeff_latex(c):
    if not isinstance(c, ExactScalar):
        return str(c)
    bits = []
    for (b, eps), q in sorted(c.terms.items()):
        re = rational_text(q.a, q.d)
        if q.b:
            im = rational_text(q.b, q.d)
            piece = f"({re}+{im}i)" if q.a else (
                "i" if im == "1" else f"{im}i")
        else:
            piece = re
        if (eps or b) and piece == "1":
            piece = ""
        elif (eps or b) and piece == "-1":
            piece = "-"
        if eps:
            piece += r"\sqrt{2}"
        if b:
            piece += r"\pi^{%s}" % (Fraction(b, 2))
        bits.append(piece)
    return "+".join(bits)


def render_poly_latex(f, bos_names=None, fer_names=None):
    gaussian = isinstance(f, GaussianFunction)
    poly = f.poly if gaussian else f
    check_render_digits(poly.terms.values())
    u = poly.universe
    if not poly.terms:
        return "0"
    bos_names = bos_names or u.bosonic
    fer_names = fer_names or u.fermionic
    bits = []
    for (bos, mask), c in poly.sorted_terms():
        mono = ""
        for i, e in enumerate(bos):
            name = re.sub(r"(\d+)$", r"_{\1}", bos_names[i])
            mono += name if e == 1 else (f"{name}^{{{e}}}" if e else "")
        for j in mask_bits(mask):
            mono += re.sub(r"(\d+)$", r"_{\1}", fer_names[j])
        if gaussian:
            mono += r" e^{x^2/2}"
        bits.append(f"{_coeff_latex(c)} {mono}".strip())
    return " + ".join(bits)


def poly_to_json(f):
    gaussian = isinstance(f, GaussianFunction)
    poly = f.poly if gaussian else f
    check_render_digits(poly.terms.values())
    u = poly.universe
    terms = []
    for (bos, mask), c in poly.sorted_terms():
        coeff = c.to_json() if isinstance(c, ExactScalar) \
            else {"re": c.real, "im": c.imag}
        terms.append({"bos": list(bos),
                      "fer": [j + 1 for j in mask_bits(mask)],
                      "coeff": coeff})
    return {
        "schema": "supertransform/1",
        "m": u.m,
        "n": u.pairs,
        "envelope": bool(gaussian),
        "terms": terms,
    }


def _json_int(v, what):
    if type(v) is not int:
        raise ParseError(f"JSON {what} must be an integer", 0)
    return v


def _json_scalar(coeff):
    """Exact coefficient from its list of {"q", "b", "eps"} terms."""
    if not isinstance(coeff, list):
        raise ParseError("JSON input needs exact-lane coefficients (lists "
                         "of {q, b, eps} terms); float-lane output cannot "
                         "be read back", 0)
    out = ExactScalar.zero()
    for t in coeff:
        if not isinstance(t, dict) or not isinstance(t.get("q"), list) \
                or len(t["q"]) != 4:
            raise ParseError("JSON coefficient term needs q = [re num, "
                             "re den, im num, im den], b and eps", 0)
        rn, rd, im_n, im_d = (_json_int(v, "q entry") for v in t["q"])
        if not rd or not im_d:
            raise ParseError("JSON coefficient denominator is zero", 0)
        key = (_json_int(t.get("b"), "b"), _json_int(t.get("eps"), "eps"))
        out = out + ExactScalar(
            {key: QQi(Fraction(rn, rd), Fraction(im_n, im_d))})
    return out


def read_json(text, universe):
    """poly_from_json over JSON text; integers pass the MAX_DIGITS budget
    before conversion."""
    try:
        js = json.loads(text, parse_int=_literal_int)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.pos) from None
    return poly_from_json(js, universe)


def poly_from_json(js, universe):
    """Inverse of poly_to_json for exact-coefficient payloads; any other
    shape raises ParseError."""
    if not isinstance(js, dict) or js.get("schema") != "supertransform/1":
        raise ParseError("unknown JSON schema", 0)
    if js.get("m", universe.m) != universe.m \
            or js.get("n", universe.pairs) != universe.pairs:
        raise ParseError("JSON shape disagrees with --m/--n", 0)
    u = universe
    terms = {}
    entries = js.get("terms", [])
    if not isinstance(entries, list) \
            or not all(isinstance(e, dict) for e in entries):
        raise ParseError("JSON terms must be a list of objects", 0)
    for entry in entries:
        bos = entry.get("bos", [0] * u.m)
        if not isinstance(bos, list) or len(bos) != u.m \
                or any(_json_int(e, "exponent") < 0 for e in bos):
            raise ParseError("bad bosonic exponent vector", 0)
        for e in bos:
            _check_exponent(e)
        fer = entry.get("fer", [])
        if not isinstance(fer, list):
            raise ParseError("bad fermionic index list", 0)
        mask = 0
        for j in fer:
            if not 1 <= _json_int(j, "fermionic index") <= len(u.fermionic) \
                    or mask >> (j - 1) & 1:
                raise ParseError("bad fermionic index list", 0)
            mask |= 1 << (j - 1)
        add_into(terms, (tuple(bos), mask), _json_scalar(entry.get("coeff")))
    poly = SuperPolynomial(u, terms)
    if js.get("envelope"):
        return GaussianFunction(poly, True)
    return poly
