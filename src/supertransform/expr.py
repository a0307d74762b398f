"""Expression parser and renderers for the CLI surface.

Grammar:  expr := ('-')? term (('+'|'-') term)*
          term := factor (('*')? factor)*
          factor := atom ('^' exponent)?
          atom := rational | i | pi | sqrt2 | sqrtpi | G | x<k> | q<k>
                  | '(' expr ')'
          exponent := integer | '-' integer
                      | '(' ('-')? integer ('/' integer)? ')'
Juxtaposed factors multiply in written order, so fermionic products like
q1q2 keep their sign semantics; fermionic squares are rejected at parse
time, as are mixed Gaussian/non-Gaussian sums.  Oversized input is
refused before the arithmetic that would pass a budget below, and a
printed integer longer than MAX_RENDER_DIGITS as it is printed, with a
ValueError naming the budget.

One regular expression, read by findall, cuts the text into lexemes, one
per leaf: an integer or rational p/q, a constant, a symbol x<k> or q<k>,
an exponent ^e or ^-e, and the renderer's coefficient (p/q+r/s*i) or
(p/q), spaces allowed, so that reading printed output back takes one
match per coefficient; (p/q) after a '^' is the exponent of ^(p/q).
Every other character is a lexeme of its own: operators, and anything
unexpected.  The parser walks factors, not characters; where the
lexemes do not form leaves (a '^' with no exponent, a '/' with no
denominator) it reads on lexeme by lexeme and gives the refusal a
token-by-token reading would give.  Each term is built as one monomial:
a scalar factor multiplies its coefficient, x<k>^e adds to its exponent
vector and q<k> merges into its fermionic mask with the Koszul sign.
sp_mul runs only from the first factor with two or more terms, a
parenthesised sum or a power of one.

Errors are positioned only on failure: the walk names the lexeme (and
the part of it) at fault, and the position is found by running the
pattern again with finditer.  The first unexpected character or
over-long digit run (an integer literal or a symbol index of more than
MAX_DIGITS digits) in reading order is refused before any parse error.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from ._terms import add_into
from .scalars import (MAX_RENDER_DIGITS,  # noqa: F401  (re-exported)
                      ExactScalar, QQi, rational_text)
from .superalg import (FER, LATEX, TEXT, GaussianFunction, SuperPolynomial,
                       merge_masks, monomial_codec, sp_mul)


# Input budgets of the expression and JSON readers; the renderers'
# output budget, MAX_RENDER_DIGITS, is checked in scalars as each
# integer is printed.
MAX_EXPONENT = 1000        # |exponent| of '^', JSON bosonic entries, JSON eps
MAX_DIGITS = 1000          # digits of one integer literal or symbol index
MAX_POWER_DIGITS = 4300    # digits of a scalar power (Python's int str limit)
MAX_TERM_PAIRS = 50000     # term pairs multiplied in one parse
MAX_NESTING = 150          # parentheses, or JSON arrays and objects, open
                           # at once (both readers recurse)


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


class ParseError(Exception):
    """Syntax or semantic rejection, carrying the source position."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# One pattern reads each leaf of the grammar as one match, after any
# whitespace: the renderer's coefficient (p/q+r/s*i) or (p/q), which is
# also the exponent of ^(p/q), an integer or rational p/q, a constant, a
# symbol, an exponent ^e or ^-e, an operator and, last, any other
# character.  findall gives one tuple of the groups below per match; the
# empty string marks an absent group.
_LEXEME = re.compile(r"""\s*(?:
    \( \s* (-?) \s* (\d+) (?: \s*/\s* (\d+) )?
       (?: \s* ([-+]) \s* (?: (\d+) (?: \s*/\s* (\d+) )? \s* \*? \s* )? i )?
       \s* \)
  | (\d+) (?: \s*/\s* (\d+) )?
  | (sqrtpi|sqrt2|pi|i|G)
  | ([xq]) (\d+)
  | \^ \s* (-?) \s* (\d+)
  | ([-+*/^()])
  | (\S)
)""", re.VERBOSE)
(C_SIGN, C_RE, C_RED, C_ISIGN, C_IM, C_IMD, NUM, DEN, CONST, SYM, INDEX,
 E_SIGN, E_INT, OP, OTHER) = range(15)
_END = ("",) * 15              # the lexeme after the last, at len(src)
_DIGIT_GROUPS = (C_RE, C_RED, C_IM, C_IMD, NUM, DEN, INDEX, E_INT)
# A digit run too long for MAX_DIGITS (as set at import); finding one
# sends the text to the scan check, which reads whose run it is.
_LONG_RUN = re.compile(r"(?<!\d)\d{%d}" % (MAX_DIGITS + 1))

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
_PI = ExactScalar.pi_half_power(2)
_UNIT = ExactScalar.one()


class _Refusal(Exception):
    """A parse error at lexeme `index`: at the start of its group `group`,
    else at the lexeme's start.  parse positions it in the text."""

    def __init__(self, message, index, group=None):
        super().__init__(message)
        self.message, self.index, self.group = message, index, group


def _position(src, index, group):
    """The text position of a lexeme (or of one of its groups), found by
    running the pattern again; the lexeme after the last is at len(src)."""
    for k, match in enumerate(_LEXEME.finditer(src)):
        if k == index:
            if group is not None:
                return match.start(group + 1)
            return match.end() - len(match.group().lstrip())
    return len(src)


def _scan_error(src):
    """Raise the first unexpected character or over-long digit run of the
    text, in reading order, if it has one."""
    for match in _LEXEME.finditer(src):
        other = match.group(OTHER + 1)
        if other:
            raise ParseError(f"unexpected character {other!r}",
                             match.start(OTHER + 1))
        for g in _DIGIT_GROUPS:
            digits = len(match.group(g + 1) or "")
            if digits > MAX_DIGITS:
                what = "symbol index" if g == INDEX else "integer literal"
                raise ValueError(f"{what} of {digits} digits exceeds "
                                 f"MAX_DIGITS = {MAX_DIGITS}")


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


def _fermionic_exponent(e, at):
    """The exponent 0 or 1 a fermionic variable admits."""
    if e >= 2:
        raise _Refusal("fermionic square", at)
    if e < 0 or e.denominator != 1:
        raise _Refusal("invalid fermionic power", at)
    return int(e)


def _ratio(sign, num, den, at, group):
    """The exponent -num/den (sign set) or num/den of lexeme `at`, an int
    when integral; a zero den is refused at its group."""
    n = -int(num) if sign else int(num)
    if not den:
        return n
    d = int(den)
    if not d:
        raise _Refusal("denominator must be non-zero", at, group)
    return n // d if n % d == 0 else Fraction(n, d)


class _Reader:
    """Recursive descent over the lexemes of one text.  Exponents are ints
    or Fractions, which share numerator, denominator and comparisons."""

    def __init__(self, lexemes, universe):
        self.lex = lexemes          # ends with _END
        self.universe = universe
        self.k = 0
        self.pairs = 0
        self.depth = 0

    def spend(self, pairs):
        """Count term pairs against MAX_TERM_PAIRS before multiplying."""
        self.pairs += pairs
        if self.pairs > MAX_TERM_PAIRS:
            raise ValueError(f"expression would multiply more than "
                             f"MAX_TERM_PAIRS = {MAX_TERM_PAIRS} term pairs")

    def expect_close(self):
        if self.lex[self.k][OP] != ")":
            raise _Refusal("expected ')'", self.k)
        self.k += 1

    def read(self):
        value = self.expr()
        if self.k != len(self.lex) - 1:
            raise _Refusal("trailing input", self.k)
        return value

    def expr(self):
        """A sum of terms, as (term map, Gaussian flag)."""
        lex = self.lex
        sign = 1
        if lex[self.k][OP] == "-":
            self.k += 1
            sign = -1
        terms = {}
        gaussian = self.term(sign, terms)
        while True:
            op = lex[self.k][OP]
            if op != "+" and op != "-":
                return terms, gaussian
            at = self.k
            self.k += 1
            if self.term(1 if op == "+" else -1, terms) != gaussian:
                raise _Refusal("cannot add Gaussian and plain terms", at)

    def term(self, sign, terms):
        """Add sign times one product of factors into `terms` and return
        its Gaussian flag.  Single-term factors multiply into one monomial
        (a + b*i)/d * pi^(h/2) * sqrt2^s * scalar * x^bos * q^mask;
        sp_mul runs only from the first factor with two or more terms.
        Each product of the written order spends |value|*|factor| pairs."""
        lex, u = self.lex, self.universe
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
                    raise _Refusal("duplicate Gaussian marker", sep)
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

            # '*' or the start of a juxtaposed factor continues the product
            sep = self.k
            t = lex[sep]
            op = t[OP]
            if op == "*":
                self.k += 1
            elif op != "(" and not (t[C_RE] or t[NUM] or t[CONST]
                                    or t[SYM]):
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
        at = self.k
        t = self.lex[at]
        if t[E_INT]:
            e = -int(t[E_INT]) if t[E_SIGN] else int(t[E_INT])
            self.k += 1
        elif t[OP] == "^":
            self.k += 1
            e = self.exponent()
        else:
            return f
        _check_exponent(e)
        return self.power(f, e, at)

    def exponent(self):
        """The exponent after a '^' lexeme: (p/q) arrives as a coefficient
        lexeme.  A digit run right after '^' or '^-' would have made one
        lexeme ^e, and a whole (p/q) a coefficient, so the rest is read
        lexeme by lexeme only to be refused."""
        lex = self.lex
        at = self.k
        t = lex[at]
        self.k += 1
        if t[C_RE]:
            # '(' [-] p [/q], then ')' or the sign of an imaginary part
            e = _ratio(t[C_SIGN], t[C_RE], t[C_RED], at, C_RED)
            if t[C_ISIGN]:
                raise _Refusal("expected ')'", at, C_ISIGN)
            return e
        if t[OP] == "-":
            raise _Refusal("expected integer exponent", self.k)
        if t[OP] != "(":
            raise _Refusal("expected exponent", at)
        at = self.k
        t = lex[at]
        self.k += 1
        sign = t[OP] == "-"
        if sign:
            at = self.k
            t = lex[at]
            self.k += 1
        if not t[NUM]:
            raise _Refusal("expected rational exponent", at)
        if not t[DEN] and lex[self.k][OP] == "/":
            raise _Refusal("expected exponent denominator", self.k + 1)
        e = _ratio(sign, t[NUM], t[DEN], at, DEN)
        self.expect_close()
        return e

    def power(self, f, exponent, at):
        tag = f[0]
        if tag == "G" or (tag == "terms" and f[2]):
            raise _Refusal("Gaussian marker cannot be raised to a power", at)
        if tag == "q":
            return f if _fermionic_exponent(exponent, at) else _ONE
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
            raise _Refusal("unsupported fractional power", at)
        return ("terms", self.power_terms(self.factor_terms(f), exponent,
                                          at), False)

    def power_terms(self, terms, exponent, at):
        """The term map of terms ** exponent."""
        u = self.universe
        zero = (0,) * u.m
        if len(terms) == 1:
            ((bos, mask), c), = terms.items()
            if bos == zero and mask and not mask & (mask - 1) and c == _UNIT:
                return terms if _fermionic_exponent(exponent, at) \
                    else {(zero, 0): _UNIT}
            if bos == zero and not mask:
                if exponent.denominator == 1:
                    return {(zero, 0): self.scalar_power(c, int(exponent))}
                if exponent.denominator == 2 and c == _PI:
                    return {(zero, 0): ExactScalar.pi_half_power(
                        exponent.numerator)}
                raise _Refusal("unsupported fractional power", at)
        if exponent.denominator != 1 or exponent < 0:
            raise _Refusal("exponent must be a nonnegative integer", at)
        # P^i * P for i < k makes t*|P^i| <= t*C(i+t-1, t-1) pairs
        t, k = len(terms), int(exponent)
        if t:
            self.spend(t * math.comb(k + t - 1, t))
        if not k:
            return {(zero, 0): _UNIT}
        if t == 1:
            ((bos, mask), c), = terms.items()
            if mask and k >= 2:
                raise _Refusal("fermionic square", at)
            if len(c.terms) > 1:
                self.spend(_power_pairs(c, k))
            return {(tuple(e * k for e in bos), mask): c ** k}
        base = SuperPolynomial(u, terms)
        out = base
        for _ in range(k - 1):
            out = sp_mul(out, base)
        if not out and k >= 2 and any(mask for (_, mask) in terms):
            raise _Refusal("fermionic square", at)
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
        at = self.k
        t = self.lex[at]
        self.k += 1
        if t[C_RE]:
            return self.coefficient(t, at)
        if t[NUM]:
            if t[DEN]:
                d = int(t[DEN])
                if not d:
                    raise _Refusal("denominator must be non-zero", at, DEN)
                return ("scalar", int(t[NUM]), 0, d, 0, 0)
            if self.lex[self.k][OP] == "/":
                # a digit run after the '/' would have made one lexeme p/q
                raise _Refusal("expected denominator", self.k + 1)
            return ("scalar", int(t[NUM]), 0, 1, 0, 0)
        if t[CONST]:
            return _CONSTANTS[t[CONST]]
        if t[SYM]:
            u = self.universe
            idx = int(t[INDEX]) - 1
            if t[SYM] == "x":
                if 0 <= idx < u.m:
                    return ("x", idx, 1)
            elif 0 <= idx < len(u.fermionic):
                return ("q", 1 << idx)
            raise _Refusal(f"unknown symbol {t[SYM]}{t[INDEX]}", at)
        if t[OP] == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ValueError(f"parentheses nest deeper than "
                                 f"MAX_NESTING = {MAX_NESTING}")
            terms, gaussian = self.expr()
            self.expect_close()
            self.depth -= 1
            return ("terms", terms, gaussian)
        raise _Refusal("expected a value", at)

    def coefficient(self, t, at):
        """The scalar factor of a lexeme (p/q), (p/q+r/s*i) or (p/q-r/s*i),
        refused and charged as its tokens would be: r/s*i multiplies two
        factors, so a non-zero r spends one term pair."""
        re_d = im_d = 1
        if t[C_RED]:
            re_d = int(t[C_RED])
            if not re_d:
                raise _Refusal("denominator must be non-zero", at, C_RED)
        re_n = -int(t[C_RE]) if t[C_SIGN] else int(t[C_RE])
        if not t[C_ISIGN]:
            return ("scalar", re_n, 0, re_d, 0, 0)
        if t[C_IMD]:
            im_d = int(t[C_IMD])
            if not im_d:
                raise _Refusal("denominator must be non-zero", at, C_IMD)
        im_n = int(t[C_IM]) if t[C_IM] else 1
        if t[C_IM] and im_n:
            self.spend(1)
        if t[C_ISIGN] == "-":
            im_n = -im_n
        return ("scalar", re_n * im_d, im_n * re_d, re_d * im_d, 0, 0)


def parse(src, universe):
    """Parse to a SuperPolynomial or (with the G marker) GaussianFunction.
    The first unexpected character or over-long digit run in reading
    order is refused before any parse error, and a parse error's position
    is found only once the text is refused."""
    if _LONG_RUN.search(src):
        _scan_error(src)
    lexemes = _LEXEME.findall(src)
    lexemes.append(_END)
    try:
        terms, gaussian = _Reader(lexemes, universe).read()
    except _Refusal as exc:
        _scan_error(src)
        raise ParseError(exc.message,
                         _position(src, exc.index, exc.group)) from None
    except (ValueError, ArithmeticError):
        _scan_error(src)
        raise
    poly = SuperPolynomial(universe, terms)
    return GaussianFunction(poly) if gaussian else poly


# -- rendering ----------------------------------------------------------
#
# Each monomial's text, LaTeX, fermionic symbols and order come from the
# universe's memoized codec (superalg.monomial_codec); a coefficient is
# rendered afresh, a real rational by one rational_text call.


def _coeff_text(c):
    if isinstance(c, ExactScalar):
        if len(c.terms) == 1:
            # a real rational, as every coefficient of a rational basis
            q = c.terms.get((0, 0))
            if q is not None and not q.b:
                s = rational_text(q.a, q.d)
                return s, s == "1" or s == "-1"
        s = c.render()
        if " + " in s or " - " in s:
            return f"({s})", False
        return s, s == "1" or s == "-1"
    s = str(c)
    return (s if s.startswith("(") else f"({s})"), False


def render_poly_text(f):
    gaussian = isinstance(f, GaussianFunction)
    poly = f.poly if gaussian else f
    u = poly.universe
    if not poly.terms:
        return "0"
    codec = monomial_codec(u)
    bits = []
    for key, c in poly.sorted_terms():
        cs, unit = _coeff_text(c)
        mono = codec[key][TEXT]
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
    # a sum of ring terms is parenthesized, as in render_poly_text
    out = "+".join(bits)
    return f"({out})" if len(bits) > 1 else out


def render_poly_latex(f):
    gaussian = isinstance(f, GaussianFunction)
    poly = f.poly if gaussian else f
    u = poly.universe
    if not poly.terms:
        return "0"
    codec = monomial_codec(u)
    bits = []
    for key, c in poly.sorted_terms():
        mono = codec[key][LATEX]
        if gaussian:
            mono += r" e^{x^2/2}"
        bits.append(f"{_coeff_latex(c)} {mono}".strip())
    return " + ".join(bits)


def poly_to_json(f):
    gaussian = isinstance(f, GaussianFunction)
    poly = f.poly if gaussian else f
    u = poly.universe
    codec = monomial_codec(u)
    terms = []
    for key, c in poly.sorted_terms():
        coeff = c.to_json() if isinstance(c, ExactScalar) \
            else {"re": c.real, "im": c.imag}
        terms.append({"bos": list(key[0]),
                      "fer": list(codec[key][FER]),
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
        _check_exponent(key[1])
        out = out + ExactScalar(
            {key: QQi(Fraction(rn, rd), Fraction(im_n, im_d))})
    return out


# a JSON string (its closing quote may be missing), or one bracket
_JSON_LEXEME = re.compile(r'"(?:[^"\\]|\\.)*"?|[\[\]{}]', re.DOTALL)


def read_json(text, universe):
    """poly_from_json over JSON text; integers pass the MAX_DIGITS budget
    before conversion, and arrays and objects open at once the
    MAX_NESTING budget before decoding."""
    depth = 0
    for match in _JSON_LEXEME.finditer(text):
        bracket = match.group()
        if bracket in ("[", "{"):
            depth += 1
            if depth > MAX_NESTING:
                raise ParseError(f"JSON nests deeper than MAX_NESTING = "
                                 f"{MAX_NESTING}", match.start())
        elif bracket in ("]", "}"):
            depth -= 1
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
        return GaussianFunction(poly)
    return poly
