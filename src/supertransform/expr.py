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

One regular expression, read by findall, cuts the text into lexemes,
one per factor: a leaf (an integer or rational p/q, a constant, a symbol
x<k> or q<k>, or the renderer's coefficient (p/q+r/s*i) or (p/q),
spaces allowed) with its power ^e, ^-e or ^(p/q) fused in, so that
reading printed output back takes one match per factor.  A power after
a parenthesised sum is a lexeme of its own, as is every other
character: operators, and anything unexpected.
A flat loop per term reads each factor from the lexeme table LEXEMES,
which maps a lexeme's text to its factor, a few ints and strings decoded
once from the match groups, and starts afresh at MAX_LEXEMES entries.
Symbol indices, the budgets and the Gaussian-marker rules are checked on
every read and never stored.  Where the lexemes do not form factors (a '^'
with no exponent, a '/' with no denominator), the reader gives the
refusal a token-by-token reading would give.  Each term is built as one
monomial: a scalar factor multiplies its coefficient, x<k>^e adds to
its exponent vector and q<k> merges into its fermionic mask with the
Koszul sign.  sp_mul runs only from the first factor with two or more
terms, a parenthesised sum or a power of one.

Errors are positioned only on failure: the reader names the lexeme (and
the part of it) at fault, and the position is found by running the
pattern again with finditer.  The first unexpected character or
over-long digit run (an integer literal or a symbol index of more than
MAX_DIGITS digits) in reading order is refused before any parse error.
"""

from __future__ import annotations

import json
import math
import re
import threading
from fractions import Fraction

from ._terms import add_into
from .scalars import (LATEX_NOTATION,
                      MAX_RENDER_DIGITS,  # noqa: F401  (re-exported)
                      TEXT_NOTATION, ExactScalar, QQi, rational_text,
                      render_ring, signed_join, times_factor)
from .superalg import (FER, GaussianFunction, SuperPolynomial, merge_masks,
                       monomial_codec, sp_mul)


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


def _check_power_digits(coeffs, k):
    """Refuse the k-th power (k >= 0) of a sum with these coefficients
    before the arithmetic when a numerator or denominator of a
    coefficient of the result could pass MAX_POWER_DIGITS digits.  Over
    a common denominator den, (sum of |numerators|, sqrt2 counted
    twice)^k bounds every numerator of the multinomial expansion, and
    den^k every denominator.  A complex rational (a + b*i)/d in lowest
    terms has parts whose denominators have lcm d, so den is the lcm of
    the d fields."""
    qs = [(eps, q) for c in coeffs for (_, eps), q in c.terms.items()]
    den = math.lcm(*(q.d for _, q in qs))
    num = sum((abs(q.a) + abs(q.b)) * (den // q.d) * (1 + eps)
              for eps, q in qs)
    if k * math.log10(max(num, den)) > MAX_POWER_DIGITS:
        raise ValueError(f"scalar power would exceed MAX_POWER_DIGITS = "
                         f"{MAX_POWER_DIGITS} digits")


class ParseError(Exception):
    """Syntax or semantic rejection, carrying the source position."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# One pattern cuts a text into lexemes, each after any whitespace: a
# factor, that is a leaf (the renderer's coefficient (p/q+r/s*i) or
# (p/q), an integer or rational p/q, a constant or a symbol) with its
# power ^e, ^-e or ^(p/q) fused in; a power on its own (after a
# parenthesised sum); an operator; and, last, any other character.
# findall gives the text of each lexeme, and _FACTOR, where the leaf is
# optional, reads the parts of a factor or of a lone power from its
# named groups.  A (p/q) exponent with a zero denominator makes no
# power, so that the leaf before it is read, and refused, first.
_LEAF = r"""(?:
    \( \s* (?P<c_sign>-?) \s* (?P<c_re>\d+) (?: \s*/\s* (?P<c_red>\d+) )?
       (?: \s* (?P<c_isign>[-+]) \s*
           (?: (?P<c_im>\d+) (?: \s*/\s* (?P<c_imd>\d+) )? \s* \*? \s* )? i )?
       \s* \)
  | (?P<num>\d+) (?: \s*/\s* (?P<den>\d+) )?
  | (?P<const>sqrtpi|sqrt2|pi|i|G)
  | (?P<sym>[xq]) (?P<index>\d+)
)"""
_POW = r"""(?P<pow>\^) \s* (?:
    (?P<e_sign>-?) \s* (?P<e_num>\d+)
  | \( \s* (?P<r_sign>-?) \s* (?P<r_num>\d+)
       (?: \s*/\s* (?P<r_den>0*[1-9]\d*) )? \s* \)
)"""
_FACTOR = re.compile(rf"{_LEAF}? (?: \s* {_POW} )?", re.VERBOSE)
# the same grammar with one group, the lexeme's text
_LEXEME = re.compile(re.sub(r"\(\?P<\w+>", "(?:", rf"""\s* (
    [-+*/)] | {_LEAF} (?: \s* {_POW} )? | {_POW} | [(^] | \S )"""),
                     re.VERBOSE)
_DIGIT_GROUPS = ("c_re", "c_red", "c_im", "c_imd", "num", "den", "index",
                 "e_num", "r_num", "r_den")       # in reading order
# A digit run too long for MAX_DIGITS (as set at import); finding one
# sends the text to the scan check, which reads whose run it is.
_LONG_RUN = re.compile(r"(?<!\d)\d{%d}" % (MAX_DIGITS + 1))

_CONSTANTS = {"i": (0, 1, 1, 0, 0), "pi": (1, 0, 1, 2, 0),
              "sqrtpi": (1, 0, 1, 1, 0), "sqrt2": (1, 0, 1, 0, 1)}
_PI = ExactScalar.pi_half_power(2)
_UNIT = ExactScalar.one()

# The lexeme table maps a lexeme's text to its entry, the _FIELDS fields
#   tag, v1, v2, v3, v4, v5, cost, en, ed, raw, size, marked
# all ints and strings, where tag is
#   "scalar"  (v1 + v2*i)/v3 * pi^(v4/2) * sqrt2^v5
#   "int"     the integer v1 (fields as "scalar") with no power, which
#             a '/' may not follow
#   "x", "q"  the symbol named v3, 0-based index v1, to the power v2
#   "G"       the Gaussian marker
#   "power"   a power on its own
#   "op"      an operator, any other character or the end of the text
# cost is the term pair a coefficient's r/s*i product spends, en/ed the
# exponent of the lexeme's power in lowest terms (ed = 0 when it has
# none), size the factor's terms (0 for a zero scalar, else 1) and
# marked whether it is the Gaussian marker.  The power is folded into
# the leaf when it needs no check but MAX_EXPONENT: x^k with k >= 0,
# q^0, q^1, and integer powers of 1, pi, sqrtpi and sqrt2 or
# half-integer ones of pi.  Any other power is raw: the reader applies
# it to the leaf, or refuses it, on every read.  So are the other
# checks, symbol indices against the universe and every budget; a
# refused lexeme is never stored.
MAX_LEXEMES = 4096
_FIELDS = 12


class LexemeTable:
    """The lexeme table, bounded at MAX_LEXEMES entries: len() is its
    size and clear() empties it.  `pair` is (texts, fields): texts maps
    a lexeme's text to the offset of its entry in the flat list fields.
    Entries are runs of one list, not a tuple each, because the
    collector counts every tuple made towards its next collection, which
    a few hundred new lexemes would bring forward.  A full or cleared
    table is replaced by a new pair, never emptied in place, and an
    entry's fields go in before its text, so a reader that takes the
    pair once reads whole entries while another thread adds to the table
    or replaces it; `lock` orders the writers."""

    __slots__ = ("pair", "lock")

    def __init__(self):
        self.pair = ({}, [])
        self.lock = threading.Lock()

    def __len__(self):
        return len(self.pair[0])

    def clear(self):
        self.pair = ({}, [])

    def add(self, text, entry):
        with self.lock:
            texts, fields = self.pair
            if len(texts) >= MAX_LEXEMES:
                texts, fields = self.pair = ({}, [])
            fields.extend(entry)
            texts[text] = len(fields) - _FIELDS


LEXEMES = LexemeTable()
_LEAVES = frozenset(("scalar", "int", "x", "q", "G"))
_OP = ("op", 0, 0, 0, 0, 0, 0, 0, 0, False, 1, False)


class _Refusal(Exception):
    """A parse error at lexeme `index`: at the start of its named group
    `group`, else at the lexeme's start.  parse positions it."""

    def __init__(self, message, index, group=None):
        super().__init__(message)
        self.message, self.index, self.group = message, index, group


def _parts(text):
    """The match of a factor or lone power lexeme, or None."""
    return _FACTOR.fullmatch(text) if text else None


def _position(src, index, group):
    """The text position of a lexeme (or of one of its groups), found by
    running the pattern again; the lexeme after the last is at len(src)."""
    for k, match in enumerate(_LEXEME.finditer(src)):
        if k == index:
            start = match.start(1)
            if group is not None:
                start += _parts(match.group(1)).start(group)
            return start
    return len(src)


def _scan_error(src):
    """Raise the first unexpected character or over-long digit run of the
    text, in reading order, if it has one."""
    for match in _LEXEME.finditer(src):
        text = match.group(1)
        parts = _parts(text)
        if parts is None:
            if text not in "-+*/^()":
                raise ParseError(f"unexpected character {text!r}",
                                 match.start(1))
            continue
        for name in _DIGIT_GROUPS:
            digits = len(parts[name] or "")
            if digits > MAX_DIGITS:
                what = "symbol index" if name == "index" \
                    else "integer literal"
                raise ValueError(f"{what} of {digits} digits exceeds "
                                 f"MAX_DIGITS = {MAX_DIGITS}")


def _decode(text, k):
    """The entry of the text of lexeme k, added to LEXEMES; a zero
    denominator in a leaf is refused and nothing is stored."""
    parts = _parts(text)
    if parts is None:
        entry = _OP
    elif text[0] == "^":
        en, ed = _exponent(*parts.groups()[-5:])
        entry = ("power", 0, 0, 0, 0, 0, 0, en, ed, False, 1, False)
    else:
        entry = _factor_entry(k, *parts.groups())
    LEXEMES.add(text, entry)
    return entry


def _exponent(e_sign, e_num, r_sign, r_num, r_den):
    """The exponent (en, ed) of a power's groups, in lowest terms."""
    if e_num is not None:
        return -int(e_num) if e_sign else int(e_num), 1
    en, ed = -int(r_num) if r_sign else int(r_num), int(r_den or 1)
    g = math.gcd(en, ed)
    return en // g, ed // g


def _factor_entry(k, c_sign, c_re, c_red, c_isign, c_im, c_imd, num, den,
                  const, sym, index, power, *exponent):
    """The entry of a factor from its groups: its leaf built and refused
    as a token-by-token reading builds and refuses it, with its power
    folded in where LEXEMES says."""
    cost = 0
    if c_re is not None:
        re_d = int(c_red) if c_red else 1
        if not re_d:
            raise _Refusal("denominator must be non-zero", k, "c_red")
        v1, v2, v3 = -int(c_re) if c_sign else int(c_re), 0, re_d
        if c_isign:
            im_d = int(c_imd) if c_imd else 1
            if not im_d:
                raise _Refusal("denominator must be non-zero", k, "c_imd")
            # r/s*i multiplies two factors: a non-zero r spends one pair
            im_n = int(c_im) if c_im else 1
            cost = 1 if c_im and im_n else 0
            if c_isign == "-":
                im_n = -im_n
            v1, v2, v3 = v1 * im_d, im_n * re_d, re_d * im_d
        tag, v4, v5 = "scalar", 0, 0
    elif num is not None:
        tag, v1, v2, v3, v4, v5 = "int", int(num), 0, 1, 0, 0
        if den:
            tag, v3 = "scalar", int(den)
            if not v3:
                raise _Refusal("denominator must be non-zero", k, "den")
    elif const == "G":
        tag, v1, v2, v3, v4, v5 = "G", 0, 0, 0, 0, 0
    elif const is not None:
        tag, (v1, v2, v3, v4, v5) = "scalar", _CONSTANTS[const]
    else:
        tag, v1, v2, v3, v4, v5 = sym, int(index) - 1, 1, sym + index, 0, 0
    if not power:
        return (tag, v1, v2, v3, v4, v5, cost, 0, 0, False,
                _size(tag, v1, v2), tag == "G")
    en, ed = _exponent(*exponent)
    raw = False
    if tag == "x" or tag == "q":
        raw = ed != 1 or en < 0 or (tag == "q" and en > 1)
        v2 = en
    elif tag == "G" or (v1, v2, v3) != (1, 0, 1):
        raw = True
    elif ed == 1:
        v4, v5 = v4 * en, v5 * en
    elif ed == 2 and (v4, v5) == (2, 0):
        v4 = en
    else:
        raw = True
    if tag == "int":
        tag = "scalar"
    return (tag, v1, v2, v3, v4, v5, cost, en, ed, raw, _size(tag, v1, v2),
            tag == "G")


def _size(tag, v1, v2):
    """The terms of a leaf: none for a zero scalar, else one."""
    return 0 if (tag == "scalar" or tag == "int") and not v1 and not v2 \
        else 1


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
        raise _Refusal("fermionic square", *at)
    if e < 0 or e.denominator != 1:
        raise _Refusal("invalid fermionic power", *at)
    return int(e)


def _refuse_power(lex, at):
    """Refuse the '^' lexeme at index `at`.  Every exponent that reads,
    ^e, ^-e or ^(p/q), makes a power lexeme with the '^', so what follows
    a lone '^' is refused as a token-by-token reading refuses it."""
    k = at + 1
    text = lex[k]
    parts = _parts(text)
    if parts is not None and parts["c_re"] is not None:
        # (p/q+r/s*i), or a (p/q) whose zero q made no power
        if parts["c_red"] and not int(parts["c_red"]):
            raise _Refusal("denominator must be non-zero", k, "c_red")
        raise _Refusal("expected ')'", k, "c_isign")
    if text == "-":
        raise _Refusal("expected integer exponent", k + 1)
    if text != "(":
        raise _Refusal("expected exponent", k)
    k += 1
    if lex[k] == "-":
        k += 1
    parts = _parts(lex[k])
    if parts is None or parts["num"] is None:
        raise _Refusal("expected rational exponent", k)
    if not parts["den"] and not parts["pow"] and lex[k + 1] == "/":
        raise _Refusal("expected exponent denominator", k + 2)
    if parts["den"] and not int(parts["den"]):
        raise _Refusal("denominator must be non-zero", k, "den")
    if parts["pow"]:
        raise _Refusal("expected ')'", k, "pow")
    raise _Refusal("expected ')'", k + 1)


def _pairs_error():
    """The refusal of a text past MAX_TERM_PAIRS."""
    return ValueError(f"expression would multiply more than "
                      f"MAX_TERM_PAIRS = {MAX_TERM_PAIRS} term pairs")


class _Reader:
    """Recursive descent over the lexemes of one text, each factor read
    from its LEXEMES entry.  Exponents are ints or Fractions, which share
    numerator, denominator and comparisons."""

    def __init__(self, lexemes, universe):
        self.lex = lexemes          # ends with "", the end of the text
        self.universe = universe
        self.k = 0
        self.pairs = 0
        self.depth = 0

    def spend(self, pairs):
        """Count term pairs against MAX_TERM_PAIRS before multiplying."""
        self.pairs += pairs
        if self.pairs > MAX_TERM_PAIRS:
            raise _pairs_error()

    def read(self):
        value = self.expr()
        if self.k != len(self.lex) - 1:
            raise _Refusal("trailing input", self.k)
        return value

    def expr(self):
        """A sum of terms, as (term map, Gaussian flag)."""
        lex = self.lex
        sign = 1
        if lex[self.k] == "-":
            self.k += 1
            sign = -1
        terms = {}
        gaussian = self.term(sign, terms)
        while True:
            op = lex[self.k]
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
        Each product of the written order spends |value|*|factor| pairs.
        A factor is a parenthesised sum or one LEXEMES entry, checked in
        the order a token-by-token reading checks it."""
        lex, u = self.lex, self.universe
        texts, fields = LEXEMES.pair
        nbos, nfer = u.m, 2 * u.pairs
        a, b, d, h, s = sign, 0, 1, 0, 0
        scalar = None           # product of the multi-term scalar factors
        bos = [0] * nbos
        mask = 0
        live = True             # False once the product is zero
        gaussian = False
        poly = None             # the whole product, from the first sum on
        first = True
        k = self.k
        while True:
            text = lex[k]
            if text == "(":
                self.k = k
                tag, v1, marked = self.group()
                size = len(v1)
                k = self.k
            else:
                i = texts.get(text)
                (tag, v1, v2, v3, v4, v5, cost, en, ed, raw, size,
                 marked) = _decode(text, k) if i is None \
                    else fields[i:i + _FIELDS]
                if tag == "scalar":
                    if cost:
                        self.spend(cost)
                elif tag == "x":
                    if not 0 <= v1 < nbos:
                        raise _Refusal(f"unknown symbol {v3}", k)
                elif tag == "q":
                    if not 0 <= v1 < nfer:
                        raise _Refusal(f"unknown symbol {v3}", k)
                elif tag == "int":
                    if lex[k + 1] == "/":
                        # a digit run after the '/' would have made p/q
                        raise _Refusal("expected denominator", k + 2)
                elif tag != "G":
                    raise _Refusal("expected a value", k)
                k += 1
                if ed:
                    if abs(en) > MAX_EXPONENT * ed:
                        _check_exponent(Fraction(en, ed))
                    if raw:
                        v1 = self.leaf_power(
                            tag, (v1, v2, v3, v4, v5),
                            en if ed == 1 else Fraction(en, ed),
                            (k - 1, "pow"))
                        tag, size, marked = "terms", len(v1), False
                    elif tag == "x":
                        self.spend(v2)
                elif lex[k] == "^":
                    _refuse_power(lex, k)

            if not first:
                if gaussian and marked:
                    raise _Refusal("duplicate Gaussian marker", sep)
                if poly is not None:
                    self.spend(len(poly.terms) * size)
                elif live:
                    # self.spend(size), inline: nearly every factor is here
                    self.pairs += size
                    if self.pairs > MAX_TERM_PAIRS:
                        raise _pairs_error()
            gaussian = gaussian or marked

            if tag == "G":
                pass
            elif poly is not None or size > 1:
                rhs = SuperPolynomial(u, v1 if tag == "terms" else
                                      self.leaf_terms(tag, v1, v2, v3, v4,
                                                      v5))
                if first:
                    poly = rhs if sign > 0 else -rhs
                else:
                    if poly is None:
                        poly = SuperPolynomial(u, _monomial(
                            live, a, b, d, h, s, scalar, bos, mask))
                    poly = sp_mul(poly, rhs)
            elif not size:
                live = False
            elif tag == "scalar" or tag == "int":
                if v2:
                    a, b = a * v1 - b * v2, a * v2 + b * v1
                else:
                    a, b = a * v1, b * v1
                d, h, s = d * v3, h + v4, s + v5
            elif tag == "x":
                bos[v1] += v2
            elif tag == "q":
                if v2 and mask >> v1 & 1:
                    live = False
                elif v2:
                    # the Koszul sign of sorting q into the mask: one
                    # swap past each later q already in it
                    if (mask >> v1).bit_count() & 1:
                        a, b = -a, -b
                    mask |= 1 << v1
            else:
                ((fbos, fmask), c), = v1.items()
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
            sep = k
            text = lex[k]
            if text == "*":
                k += 1
            elif text != "(":
                i = texts.get(text)
                if (_decode(text, k)[0] if i is None
                        else fields[i]) not in _LEAVES:
                    break
        self.k = k
        if poly is not None:
            for key, c in poly.terms.items():
                add_into(terms, key, c)
        elif live:
            c = _scalar(a, b, d, h, s)
            add_into(terms, (tuple(bos), mask),
                     c if scalar is None else scalar * c)
        return gaussian

    def group(self):
        """The parenthesised sum at lexeme self.k, to its power if one
        follows, as ("terms", term map, Gaussian flag)."""
        lex = self.lex
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ValueError(f"parentheses nest deeper than "
                             f"MAX_NESTING = {MAX_NESTING}")
        self.k += 1
        terms, gaussian = self.expr()
        if lex[self.k] != ")":
            raise _Refusal("expected ')'", self.k)
        self.k += 1
        self.depth -= 1
        at = self.k
        text = lex[at]
        if text[:1] != "^":
            return "terms", terms, gaussian
        if text == "^":
            _refuse_power(lex, at)
        texts, fields = LEXEMES.pair
        i = texts.get(text)
        en, ed = _decode(text, at)[7:9] if i is None \
            else fields[i + 7:i + 9]
        self.k += 1
        exponent = en if ed == 1 else Fraction(en, ed)
        _check_exponent(exponent)
        if gaussian:
            raise _Refusal("Gaussian marker cannot be raised to a power",
                           at)
        return "terms", self.power_terms(terms, exponent, (at, None)), False

    def leaf_terms(self, tag, v1, v2, v3, v4, v5):
        """The term map of an "x", "q" or scalar entry's fields."""
        m = self.universe.m
        if tag == "x":
            bos = [0] * m
            bos[v1] = v2
            return {(tuple(bos), 0): _UNIT}
        zero = (0,) * m
        if tag == "q":
            return {(zero, 1 << v1 if v2 else 0): _UNIT}
        c = _scalar(v1, v2, v3, v4, v5)
        return {(zero, 0): c} if c else {}

    def leaf_power(self, tag, leaf, exponent, at):
        """The term map of a leaf to a raw power: refused unless the
        leaf is a scalar other than 1, pi, sqrtpi or sqrt2, whose
        integer powers are folded into its entry."""
        if tag == "G":
            raise _Refusal("Gaussian marker cannot be raised to a power",
                           *at)
        if tag == "q":
            raise _Refusal("fermionic square" if exponent >= 2
                           else "invalid fermionic power", *at)
        if tag == "x":
            raise _Refusal("exponent must be a nonnegative integer", *at)
        if leaf[:3] == (1, 0, 1):
            raise _Refusal("unsupported fractional power", *at)
        return self.power_terms(self.leaf_terms(tag, *leaf), exponent, at)

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
                raise _Refusal("unsupported fractional power", *at)
        if exponent.denominator != 1 or exponent < 0:
            raise _Refusal("exponent must be a nonnegative integer", *at)
        # P^i * P for i < k makes t*|P^i| <= t*C(i+t-1, t-1) pairs
        t, k = len(terms), int(exponent)
        if t:
            self.spend(t * math.comb(k + t - 1, t))
        if not k:
            return {(zero, 0): _UNIT}
        if t == 1:
            ((bos, mask), c), = terms.items()
            if mask and k >= 2:
                raise _Refusal("fermionic square", *at)
            return {(tuple(e * k for e in bos), mask):
                    self.scalar_power(c, k)}
        _check_power_digits(terms.values(), k)
        base = SuperPolynomial(u, terms)
        out = base
        for _ in range(k - 1):
            out = sp_mul(out, base)
        if not out and k >= 2 and any(mask for (_, mask) in terms):
            raise _Refusal("fermionic square", *at)
        return out.terms

    def scalar_power(self, c, k):
        """c ** k, refused before the arithmetic by _check_power_digits,
        or when a multi-term c would multiply more term pairs than
        MAX_TERM_PAIRS allows."""
        if k < 0:
            c, k = c.inverse(), -k
        _check_power_digits((c,), k)
        if len(c.terms) > 1:
            self.spend(_power_pairs(c, k))
        return c ** k


def parse(src, universe):
    """Parse to a SuperPolynomial or (with the G marker) GaussianFunction.
    The first unexpected character or over-long digit run in reading
    order is refused before any parse error, and a parse error's position
    is found only once the text is refused."""
    if _LONG_RUN.search(src):
        _scan_error(src)
    lexemes = _LEXEME.findall(src)
    lexemes.append("")
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
# rendered afresh by scalars.render_ring in the notation's spellings, a
# real rational by one rational_text call.


def _coeff(c, nt):
    """A coefficient in notation nt: a ring sum parenthesized, a float as
    Python prints a complex."""
    if not isinstance(c, ExactScalar):
        s = str(c)
        return f"({s})" if nt.float_parens and s[0] != "(" else s
    terms = c.terms
    if len(terms) > 1:
        return f"({render_ring(terms, nt)})"
    # a real rational, as every coefficient of a rational basis
    q = terms.get((0, 0))
    if q is not None and not q.b:
        return rational_text(q.a, q.d)
    return render_ring(terms, nt)


def _render_terms(f, nt):
    """The terms of f in order, each its coefficient times its monomial
    in nt's spellings, the envelope after a Gaussian function's monomial;
    a negative term joins with " - "."""
    gaussian = isinstance(f, GaussianFunction)
    poly = f.poly if gaussian else f
    if not poly.terms:
        return "0"
    codec = monomial_codec(poly.universe)
    field, times, envelope = nt.codec, nt.term_times, nt.envelope
    bits = []
    for key, c in poly.sorted_terms():
        cs = _coeff(c, nt)
        mono = codec[key][field]
        if gaussian:
            mono = f"{mono}{times}{envelope}" if mono else envelope
        bits.append(times_factor(cs, times, mono) if mono else cs)
    return signed_join(bits, " + ", " - ")


def render_poly_text(f):
    """The text of f; a Gaussian function keeps it in its `text` slot,
    so a second render of the same object is one attribute read."""
    if not isinstance(f, GaussianFunction):
        return _render_terms(f, TEXT_NOTATION)
    if f.text is None:
        f.text = _render_terms(f, TEXT_NOTATION)
    return f.text


def render_poly_latex(f):
    return _render_terms(f, LATEX_NOTATION)


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
