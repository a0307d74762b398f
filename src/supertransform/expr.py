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

The text is tokenised by one regular-expression pass and parsed in one
pass.  Each term is built as one monomial: a scalar atom multiplies its
coefficient, x<k>^e adds to its exponent vector and q<k> merges into its
fermionic mask with the Koszul sign.  sp_mul runs only from the first
factor with two or more terms, a parenthesised sum or a power of one.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from ._terms import add_into
from .scalars import ExactScalar, QQi, rational_text
from .superalg import (GaussianFunction, SuperPolynomial, mask_bits,
                       merge_masks, sp_mul)


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


def _power_pairs(c, k):
    """An upper bound, read from c alone, on the term pairs
    ExactScalar.__pow__ multiplies for c ** k (k >= 0).  A product x * y
    multiplies |x|*|y| pairs.  c^j has at most C(j+t-1, t-1) terms, the
    multisets of c's t terms; its pi exponents lie on a grid of
    j*span/step + 1 points, each with at most two sqrt2 exponents."""
    t = len(c.terms)
    bs = [b for b, _ in c.terms]
    low = min(bs)
    span, step = max(bs) - low, math.gcd(*(b - low for b in bs)) or 1
    roots = 2 if any(eps for _, eps in c.terms) else 1

    def size(j):
        return min(math.comb(j + t - 1, t - 1), (j * span // step + 1) * roots)

    pairs, out, base = 0, 0, 1
    while k:
        if k & 1:
            pairs += size(out) * size(base)
            out += base
        k >>= 1
        if k:
            pairs += size(base) ** 2
            base *= 2
    return pairs


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


# One pattern matches every token, whitespace and, last, any other
# character, so the matches tile the text.
_TOKEN = re.compile(r"\d+|sqrtpi|sqrt2|pi|i|G|[xq]\d+|[-+*/^()]|\s+|.",
                    re.DOTALL)

# A factor is a tuple tagged by its first entry:
#   ("scalar", a, b, d, h, s)  (a + b*i)/d * pi^(h/2) * sqrt2^s
#   ("x", index, exponent)     a power of one bosonic variable
#   ("q", bit)                 one fermionic variable, as its mask bit
#   ("G",)                     the Gaussian marker
#   ("terms", terms, gaussian) a term map: a parenthesised value or a power
_ONE = ("scalar", 1, 0, 1, 0, 0)
_CONSTANTS = {"i": ("scalar", 0, 1, 1, 0, 0), "pi": ("scalar", 1, 0, 1, 2, 0),
              "sqrtpi": ("scalar", 1, 0, 1, 1, 0),
              "sqrt2": ("scalar", 1, 0, 1, 0, 1), "G": ("G",)}
_KINDS = {**{op: op for op in "-+*/^()"}, **dict.fromkeys(_CONSTANTS, "const")}
_PI = ExactScalar.pi_half_power(2)
_UNIT = ExactScalar.one()
_FACTOR_START = frozenset(("num", "const", "x", "q", "("))


def _tokenize(src):
    """(kind, value, position) triples.  kind is "num" (value the int),
    "const" (value the factor), "x" or "q" (value the symbol text), an
    operator character, or "end"."""
    out = []
    pos = 0
    for text in _TOKEN.findall(src):
        kind = _KINDS.get(text)
        if kind == "const":
            out.append((kind, _CONSTANTS[text], pos))
        elif kind is not None:
            out.append((kind, None, pos))
        elif text[0].isdecimal():      # what \d matches
            out.append(("num", _literal_int(text), pos))
        elif len(text) > 1 and text[0] in "xq":
            out.append((text[0], text, pos))
        elif not text.isspace():       # what \s matches
            raise ParseError(f"unexpected character {text!r}", pos)
        pos += len(text)
    out.append(("end", None, len(src)))
    return out


def _scalar(a, b, d, h, s):
    """(a + b*i)/d * pi^(h/2) * sqrt2^s as an ExactScalar."""
    half, eps = divmod(s, 2)
    if half >= 0:
        a, b = a << half, b << half
    else:
        d <<= -half
    if not a and not b:
        return ExactScalar.zero()
    return ExactScalar.monomial(QQi.reduced(a, b, d), h, eps)


def _monomial(live, a, b, d, h, s, scalar, bos, mask):
    """The term map of the product a term's accumulator holds."""
    if not live:
        return {}
    c = _scalar(a, b, d, h, s)
    if scalar is not None:
        c = scalar * c
    return {(tuple(bos), mask): c}


def _fermionic_exponent(e, pos):
    """The exponent 0 or 1 a fermionic variable admits."""
    if e >= 2:
        raise ParseError("fermionic square", pos)
    if e < 0 or e.denominator != 1:
        raise ParseError("invalid fermionic power", pos)
    return int(e)


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

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op):
        kind, _, pos = self.next()
        if kind != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self):
        value = self.expr()
        kind, _, pos = self.tokens[self.k]
        if kind != "end":
            raise ParseError("trailing input", pos)
        return value

    def expr(self):
        """A sum of terms, as (term map, Gaussian flag)."""
        tokens = self.tokens
        sign = 1
        if tokens[self.k][0] == "-":
            self.k += 1
            sign = -1
        terms = {}
        gaussian = self.term(sign, terms)
        while True:
            kind, _, pos = tokens[self.k]
            if kind != "+" and kind != "-":
                return terms, gaussian
            self.k += 1
            if self.term(1 if kind == "+" else -1, terms) != gaussian:
                raise ParseError("cannot add Gaussian and plain terms", pos)

    def term(self, sign, terms):
        """Add sign times one product of factors into `terms` and return
        its Gaussian flag.  Single-term factors multiply into one monomial
        (a + b*i)/d * pi^(h/2) * sqrt2^s * scalar * x^bos * q^mask;
        sp_mul runs only from the first factor with two or more terms.
        Each product of the written order spends |value|*|factor| pairs."""
        tokens, u = self.tokens, self.universe
        a, b, d, h, s = sign, 0, 1, 0, 0
        scalar = None           # product of the multi-term scalar factors
        bos = [0] * u.m
        mask = 0
        live = True             # False once the product is zero
        gaussian = False
        poly = None             # the whole product, from the first sum on
        f = self.factor()
        first = True
        while True:
            tag = f[0]
            if tag == "terms":
                size, marked = len(f[1]), f[2]
            else:
                size = 0 if tag == "scalar" and not f[1] and not f[2] else 1
                marked = tag == "G"
            if not first:
                if gaussian and marked:
                    raise ParseError("duplicate Gaussian marker", pos)
                if poly is not None:
                    self.spend(len(poly.terms) * size)
                elif live:
                    self.spend(size)
            gaussian = gaussian or marked

            if tag == "G":
                pass
            elif poly is not None or size > 1:
                rhs = SuperPolynomial(u, self.factor_terms(f))
                if first:
                    poly = rhs if sign > 0 else -rhs
                else:
                    if poly is None:
                        poly = SuperPolynomial(u, _monomial(
                            live, a, b, d, h, s, scalar, bos, mask))
                    poly = sp_mul(poly, rhs)
            elif not size:
                live = False
            elif tag == "scalar":
                _, fa, fb, fd, fh, fs = f
                if fb:
                    a, b = a * fa - b * fb, a * fb + b * fa
                else:
                    a, b = a * fa, b * fa
                d, h, s = d * fd, h + fh, s + fs
            elif tag == "x":
                bos[f[1]] += f[2]
            else:
                if tag == "q":
                    fmask = f[1]
                else:
                    ((fbos, fmask), c), = f[1].items()
                    if any(fbos):
                        bos = [x + y for x, y in zip(bos, fbos)]
                    if len(c.terms) == 1:
                        ((fh, fs), q), = c.terms.items()
                        a, b = a * q.a - b * q.b, a * q.b + b * q.a
                        d, h, s = d * q.d, h + fh, s + fs
                    else:
                        scalar = c if scalar is None else scalar * c
                # the Koszul sign of sorting the factor's q into the mask
                merged = merge_masks(mask, fmask)
                if merged is None:
                    live = False
                elif merged[0] < 0:
                    a, b, mask = -a, -b, merged[1]
                else:
                    mask = merged[1]
            first = False

            kind, _, pos = tokens[self.k]
            if kind == "*":
                self.k += 1
            elif kind not in _FACTOR_START:
                break
            f = self.factor()
        if poly is None:
            poly_terms = _monomial(live, a, b, d, h, s, scalar, bos, mask)
        else:
            poly_terms = poly.terms
        for key, c in poly_terms.items():
            add_into(terms, key, c)
        return gaussian

    def factor_terms(self, f):
        """The term map of one factor."""
        tag = f[0]
        if tag == "terms":
            return f[1]
        u = self.universe
        zero = (0,) * u.m
        if tag == "x":
            bos = [0] * u.m
            bos[f[1]] = f[2]
            return {(tuple(bos), 0): _UNIT}
        if tag == "q":
            return {(zero, f[1]): _UNIT}
        c = _scalar(*f[1:])
        return {(zero, 0): c} if c else {}

    def factor(self):
        f = self.atom()
        kind, _, pos = self.tokens[self.k]
        if kind != "^":
            return f
        self.k += 1
        exponent = self.exponent()
        _check_exponent(exponent)
        return self.power(f, exponent, pos)

    def exponent(self):
        kind, val, pos = self.next()
        if kind == "num":
            return Fraction(val)
        if kind == "-":
            kind, val, pos = self.next()
            if kind != "num":
                raise ParseError("expected integer exponent", pos)
            return Fraction(-val)
        if kind == "(":
            sign = 1
            kind, val, pos = self.next()
            if kind == "-":
                sign = -1
                kind, val, pos = self.next()
            if kind != "num":
                raise ParseError("expected rational exponent", pos)
            num = val
            den = 1
            if self.tokens[self.k][0] == "/":
                self.k += 1
                kind, val, pos = self.next()
                if kind != "num":
                    raise ParseError("expected exponent denominator", pos)
                if not val:
                    raise ParseError("denominator must be non-zero", pos)
                den = val
            self.expect_op(")")
            return Fraction(sign * num, den)
        raise ParseError("expected exponent", pos)

    def power(self, f, exponent, pos):
        tag = f[0]
        if tag == "G" or (tag == "terms" and f[2]):
            raise ParseError("Gaussian marker cannot be raised to a power",
                             pos)
        if tag == "q":
            return f if _fermionic_exponent(exponent, pos) else _ONE
        if tag == "x" and exponent.denominator == 1 and exponent >= 0:
            k = int(exponent)
            self.spend(k)
            return ("x", f[1], k) if k else _ONE
        if tag == "scalar" and f[1:4] == (1, 0, 1):
            # pi^(h/2) * sqrt2^s; pi admits half-integer exponents
            h, s = f[4], f[5]
            if exponent.denominator == 1:
                k = int(exponent)
                return ("scalar", 1, 0, 1, h * k, s * k)
            if exponent.denominator == 2 and (h, s) == (2, 0):
                return ("scalar", 1, 0, 1, exponent.numerator, 0)
            raise ParseError("unsupported fractional power", pos)
        return ("terms", self.power_terms(self.factor_terms(f), exponent,
                                          pos), False)

    def power_terms(self, terms, exponent, pos):
        """The term map of terms ** exponent."""
        u = self.universe
        zero = (0,) * u.m
        if len(terms) == 1:
            ((bos, mask), c), = terms.items()
            if bos == zero and mask and not mask & (mask - 1) and c == _UNIT:
                return terms if _fermionic_exponent(exponent, pos) \
                    else {(zero, 0): _UNIT}
            if bos == zero and not mask:
                if exponent.denominator == 1:
                    return {(zero, 0): self.scalar_power(c, int(exponent))}
                if exponent.denominator == 2 and c == _PI:
                    return {(zero, 0): ExactScalar.pi_half_power(
                        exponent.numerator)}
                raise ParseError("unsupported fractional power", pos)
        if exponent.denominator != 1 or exponent < 0:
            raise ParseError("exponent must be a nonnegative integer", pos)
        # P^i * P for i < k makes t*|P^i| <= t*C(i+t-1, t-1) pairs
        t, k = len(terms), int(exponent)
        if t:
            self.spend(t * math.comb(k + t - 1, t))
        if not k:
            return {(zero, 0): _UNIT}
        if t == 1:
            ((bos, mask), c), = terms.items()
            if mask and k >= 2:
                raise ParseError("fermionic square", pos)
            if len(c.terms) > 1:
                self.spend(_power_pairs(c, k))
            return {(tuple(e * k for e in bos), mask): c ** k}
        base = SuperPolynomial(u, terms)
        out = base
        for _ in range(k - 1):
            out = sp_mul(out, base)
        if not out and k >= 2 and any(mask for (_, mask) in terms):
            raise ParseError("fermionic square", pos)
        return out.terms

    def scalar_power(self, c, k):
        """c ** k, refused before the arithmetic when a numerator or
        denominator of the result could pass MAX_POWER_DIGITS digits, or
        when a multi-term c would multiply more term pairs than
        MAX_TERM_PAIRS allows.  Over a common denominator den, (sum of
        |numerators|, sqrt2 counted twice)^k bounds every numerator of
        c^k, and den^k every denominator.  A complex rational
        (a + b*i)/d in lowest terms has parts whose denominators have lcm
        d, so den is the lcm of the d fields."""
        if k < 0:
            c, k = c.inverse(), -k
        den = math.lcm(*(q.d for q in c.terms.values()))
        num = sum((abs(q.a) + abs(q.b)) * (den // q.d) * (1 + eps)
                  for (_, eps), q in c.terms.items())
        if k * math.log10(max(num, den)) > MAX_POWER_DIGITS:
            raise ValueError(f"scalar power would exceed MAX_POWER_DIGITS = "
                             f"{MAX_POWER_DIGITS} digits")
        if len(c.terms) > 1:
            self.spend(_power_pairs(c, k))
        return c ** k

    def atom(self):
        kind, val, pos = self.next()
        if kind == "const":
            return val
        if kind == "num":
            if self.tokens[self.k][0] != "/":
                return ("scalar", val, 0, 1, 0, 0)
            self.k += 1
            kind, den, pos = self.next()
            if kind != "num":
                raise ParseError("expected denominator", pos)
            if not den:
                raise ParseError("denominator must be non-zero", pos)
            return ("scalar", val, 0, den, 0, 0)
        if kind == "x" or kind == "q":
            u = self.universe
            idx = int(val[1:]) - 1
            if not 0 <= idx < (u.m if kind == "x" else len(u.fermionic)):
                raise ParseError(f"unknown symbol {val}", pos)
            return ("x", idx, 1) if kind == "x" else ("q", 1 << idx)
        if kind == "(":
            terms, gaussian = self.expr()
            self.expect_op(")")
            return ("terms", terms, gaussian)
        raise ParseError("expected a value", pos)


def parse(src, universe):
    """Parse to a SuperPolynomial or (with the G marker) GaussianFunction."""
    terms, gaussian = Parser(src, universe).parse()
    poly = SuperPolynomial(universe, terms)
    return GaussianFunction(poly, True) if gaussian else poly


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
