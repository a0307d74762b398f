import argparse
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from supertransform import cli, expr as exprmod, fundsol, scalars
from supertransform.cli import main, run, build_parser
from supertransform.cliffweyl import CValued, CWElement
from supertransform.expr import (ParseError, parse, poly_to_json,
                                 render_poly_latex, render_poly_text)
from supertransform.fourier import super_fourier
from supertransform.fundsol import RadialFunction, SuperRadial
from supertransform.harmonics import harmonic_basis
from supertransform.hermite import check_psi_orders
from supertransform.radon import RadonResult, check_result_size, \
    omega_universe
from supertransform.scalars import ExactScalar, QQi
from supertransform.superalg import (LATEX, TEXT, GaussianFunction,
                                     SuperPolynomial, VariableUniverse,
                                     monomial_codec)
from tests.conftest import random_poly


def u11():
    return VariableUniverse.standard(1, 1)


def test_parse_simple_sum():
    u = VariableUniverse.standard(0, 1)
    got = parse("q1*q2 + 1", u)
    want = SuperPolynomial(u, {((), 0b11): ExactScalar.one(),
                               ((), 0): ExactScalar.one()})
    assert got == want


def test_parse_juxtaposition_order_matters():
    u = VariableUniverse.standard(0, 1)
    assert parse("q1q2", u) == parse("q1*q2", u)
    assert parse("q2q1", u) == -parse("q1*q2", u)


def test_parse_gaussian_marker():
    got = parse("x1^2*G", u11())
    assert isinstance(got, GaussianFunction)
    assert got.poly == SuperPolynomial(u11(), {((2,), 0): ExactScalar.one()})


def test_parse_gaussian_marker_inside_parentheses():
    # the marker of a parenthesised factor counts whether the factor is
    # zero, one term or a sum
    u = u11()
    x1, q1 = SuperPolynomial.bosonic_var(u, 0), \
        SuperPolynomial.fermionic_var(u, 0)
    assert parse("(0*G)*x1 + x1*G", u) == GaussianFunction(x1)
    assert parse("(x1*G)*q1", u) == GaussianFunction(x1 * q1)
    assert parse("q2(q1*G)", u) == GaussianFunction(
        -SuperPolynomial.monomial(u, (0,), 0b11, ExactScalar.one()))
    assert parse("(x1*G + G)q1", u) == GaussianFunction(x1 * q1 + q1)
    for text, pos in (("(0*G)*G", 5), ("(0*G) + 1", 6)):
        with pytest.raises(ParseError, match="Gaussian") as err:
            parse(text, u)
        assert err.value.pos == pos


def test_parse_zero_to_the_zero_is_one():
    # a zero factor to the power 0 is 1, as every other base is; 0^k for
    # k >= 1 stays 0 and a negative or fractional power stays refused
    u = u11()
    for text in ("0^0", "(x1 - x1)^0", "(0*x1 + 0*q1)^0"):
        assert parse(text, u) == SuperPolynomial.one(u)
    assert parse("(x1 - x1)^3", u) == SuperPolynomial.zero(u)
    for text in ("0^-1", "0^(1/2)"):
        with pytest.raises(ParseError, match="nonnegative integer"):
            parse(text, u)


def test_parse_fermionic_square_rejected():
    with pytest.raises(ParseError, match="fermionic square"):
        parse("q1^2", u11())
    with pytest.raises(ParseError, match="fermionic square"):
        parse("(q1 + q2)^2", u11())


def test_parse_errors():
    with pytest.raises(ParseError, match="unknown symbol"):
        parse("x5", u11())
    with pytest.raises(ParseError, match="unexpected character"):
        parse("x1 $ 2", u11())
    with pytest.raises(ParseError, match="trailing"):
        parse("x1 )", u11())
    with pytest.raises(ParseError, match="Gaussian"):
        parse("G*G", u11())
    with pytest.raises(ParseError, match="Gaussian"):
        parse("1 + G", u11())


def test_parse_scalars_and_pi_powers():
    u = u11()
    got = parse("3/2*sqrt2*pi^(1/2)", u)
    want = SuperPolynomial.scalar(
        u, ExactScalar.rational(3, 2) * ExactScalar.sqrt2()
        * ExactScalar.pi_half_power(1))
    assert got == want
    assert parse("pi^(-3/2)", u) == SuperPolynomial.scalar(
        u, ExactScalar.pi_half_power(-3))
    assert parse("i^2", u) == SuperPolynomial.scalar(
        u, ExactScalar.rational(-1))
    assert parse("-x1", u) == -SuperPolynomial.bosonic_var(u, 0)


def test_render_round_trip(rng):
    for m, n in [(1, 1), (2, 2)]:
        u = VariableUniverse.standard(m, n)
        for _ in range(20):
            f = random_poly(u, rng, degree=4, nterms=5, rational=False)
            text = render_poly_text(f)
            assert parse(text, u) == f
            assert render_poly_text(parse(text, u)) == text


def test_render_gaussian_round_trip(rng):
    u = u11()
    f = GaussianFunction(random_poly(u, rng, degree=3, nterms=3))
    text = render_poly_text(f)
    back = parse(text, u)
    assert isinstance(back, GaussianFunction) and back == f


def test_render_latex_and_json():
    u = u11()
    f = parse("2*x1*q1 + sqrt2", u)
    latex = render_poly_latex(f)
    assert "x_{1}" in latex and "q_{1}" in latex and r"\sqrt{2}" in latex
    js = poly_to_json(f)
    assert js["schema"] == "supertransform/1"
    assert js["m"] == 1 and js["n"] == 1 and not js["envelope"]


# the text spellings inside a coefficient and their LaTeX ones: pi's
# powers, sqrt2, the imaginary unit after a rational, the product sign
# and a ring sum's joiners
_LATEX_WORDS = {"sqrtpi": r"\pi^{1/2}", "pi": r"\pi^{1}",
                "sqrt2": r"\sqrt{2}", "*i": "i", "*": ""}
_TEXT_WORD = re.compile(
    r"sqrtpi|pi\^\((-?\d+)/2\)|pi\^(-?\d+)|pi|sqrt2|\*i|\*| ([+-]) ")


def _latex_spelling(coeff):
    """A text coefficient spelled as LaTeX spells it."""
    def spell(m):
        half, whole, sign = m.groups()
        if half or whole:
            return r"\pi^{%s}" % (f"{half}/2" if half else whole)
        return sign or _LATEX_WORDS[m.group()]
    return _TEXT_WORD.sub(spell, coeff)


def _split_terms(printed):
    """(joiners, terms) of a printed polynomial: a " + " or " - " inside
    a parenthesized coefficient joins ring terms, not polynomial terms."""
    parts = re.split(r" ([+-]) ", printed)
    terms, joiners = [parts[0]], []
    for sign, piece in zip(parts[1::2], parts[2::2]):
        if terms[-1].count("(") > terms[-1].count(")"):
            terms[-1] += f" {sign} {piece}"
        else:
            joiners.append(sign)
            terms.append(piece)
    return joiners, terms


def _coefficient_of(term, mono, times):
    """The coefficient printed before a monomial (envelope included):
    "1" or "-1" where it is left out."""
    if not mono:
        return term
    if term in (mono, "-" + mono):
        return term[:-len(mono)] + "1"
    assert term.endswith(times + mono), (term, mono)
    return term[:-len(times + mono)]


def test_latex_and_text_agree_term_by_term(rng):
    # the same joiners, and in each term the text coefficient spelled as
    # LaTeX spells it: a unit coefficient is left out of both, and a
    # complex or ring coefficient follows the same sign rules
    cases = [parse("x1 - x2 + 3*x1^2", VariableUniverse.standard(2, 0)),
             super_fourier(parse("q1q2*G", u11()), "+"),
             parse("-i*x1*q1 + i*q2 - 1", u11()),
             parse("(2/3 - i)*x1 + (1 - sqrt2)*q1 + (-1/2 + i)*sqrtpi*q2"
                   " - pi^(-3/2)*q1q2 + (pi - 2*i*pi^-1)", u11())]
    for m, n in [(2, 0), (1, 1), (0, 2)]:
        u = VariableUniverse.standard(m, n)
        for rational in (True, False):
            for _ in range(10):
                p = random_poly(u, rng, degree=3, nterms=5,
                                rational=rational)
                cases += [p, GaussianFunction(p)]
    for f in cases:
        gaussian = isinstance(f, GaussianFunction)
        poly = f.poly if gaussian else f
        codec = monomial_codec(poly.universe)
        text_joiners, text = _split_terms(render_poly_text(f))
        latex_joiners, latex = _split_terms(render_poly_latex(f))
        assert text_joiners == latex_joiners
        assert len(text) == len(latex) == len(poly.terms)
        for (key, _), t, tex in zip(poly.sorted_terms(), text, latex):
            mono, mono_tex = codec[key][TEXT], codec[key][LATEX]
            if gaussian:
                mono = f"{mono}*G" if mono else "G"
                mono_tex = f"{mono_tex} e^{{x^2/2}}" if mono_tex \
                    else "e^{x^2/2}"
            assert _latex_spelling(_coefficient_of(t, mono, "*")) == \
                _coefficient_of(tex, mono_tex, " "), (t, tex)


def test_each_notation_reads_its_own_codec_field():
    assert (scalars.TEXT_NOTATION.codec, scalars.LATEX_NOTATION.codec) == \
        (TEXT, LATEX)


def _run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def test_cli_latex_parenthesizes_a_coefficient_of_two_ring_terms(capsys):
    # without them the monomial would read as a factor of the last term
    assert _run_cli(capsys, "--m", "1", "--n", "0", "--format", "latex",
                    "normalize", "(1 - sqrt2)*x1") == (
        0, r"(1-\sqrt{2}) x_{1}", "")


def test_cli_latex_prints_float_coefficients_as_python_complex(capsys):
    # a non-integral order leaves the exact lane, and LaTeX prints each
    # complex coefficient as Python does
    assert _run_cli(capsys, "--m", "1", "--n", "1", "--format", "latex",
                    "fracfourier", "--a", "1/3", "x1*G + q1q2*G") == (
        0, "(0.5000000000000001+0.8660254037844386j) q_{1}q_{2} e^{x^2/2}"
        " + (0.8660254037844387+0.49999999999999994j) x_{1} e^{x^2/2}"
        " + (0.4999999999999999-0.8660254037844386j) e^{x^2/2}", "")


def test_cli_fermionic_fourier_of_one(capsys):
    code, out, _ = _run_cli(capsys, "--m", "0", "--n", "1",
                            "fourier", "--sign", "+", "1")
    assert code == 0
    assert out == "1/2*q1q2"


def test_cli_gaussian_invariance(capsys):
    code, out, _ = _run_cli(capsys, "--m", "1", "--n", "1",
                            "fourier", "--sign", "+", "G")
    assert code == 0
    assert out == "G"


def test_cli_fundsol(capsys):
    code, out, _ = _run_cli(capsys, "--m", "3", "--n", "1", "fundsol")
    assert code == 0
    assert "q1q2" in out and "r^-1" in out


@pytest.mark.parametrize("m, line", [
    ("3", "(-1/3*pi)*r^3 + [(-1/2*pi)*r]*(xfer^2)^1 + "
          "[(-1/4*pi)*r^-1]*q1q2q3q4"),
    ("2", "(-3/8*pi)*r^4 + (1/4*pi)*r^4*log(r) + [(-1/2*pi)*r^2 + "
          "(1/2*pi)*r^2*log(r)]*(xfer^2)^1 + [(1/2*pi)*log(r)]*q1q2q3q4"),
])
def test_cli_fundsol_prints_the_top_part_times_n_factorial(capsys, m,
                                                           line):
    # (xfer^2)^2 = 2 q1q2q3q4: the part beside q1q2q3q4 is printed twice
    # over, where it once read -1/8*pi and 1/4*pi
    assert _run_cli(capsys, "--m", m, "--n", "2", "fundsol") == (0, line, "")


def test_cli_exit_codes(capsys):
    code, _, err = _run_cli(capsys, "--m", "1", "--n", "1",
                            "fourier", "x1")
    assert code == 1 and "error" in err
    code, _, err = _run_cli(capsys, "--m", "1", "--n", "1",
                            "normalize", "q1^2")
    assert code == 2 and "parse error" in err


def test_cli_laplace_euler_d2(capsys):
    code, out, _ = _run_cli(capsys, "--m", "1", "--n", "1", "laplace", "G")
    assert code == 0 and "G" in out
    code, out, _ = _run_cli(capsys, "--m", "1", "--n", "0", "euler", "x1^3")
    assert code == 0 and out == "3*x1^3"
    code, out, _ = _run_cli(capsys, "--m", "1", "--n", "1", "d2", "1")
    assert code == 0


def test_cli_dirac(capsys):
    code, out, _ = _run_cli(capsys, "--m", "1", "--n", "1", "dirac", "x1")
    assert code == 0 and "e1" in out


def test_cli_berezin(capsys):
    code, out, _ = _run_cli(capsys, "--m", "0", "--n", "1",
                            "berezin", "q1q2")
    assert code == 0 and "pi^-1" in out


def test_cli_hermite_and_decompose(capsys):
    code, out, _ = _run_cli(capsys, "--m", "2", "--n", "1",
                            "hermite", "--j", "1", "--k", "0")
    assert code == 0 and "G" in out
    code, out, _ = _run_cli(capsys, "--m", "2", "--n", "1",
                            "decompose", "--k", "2")
    assert code == 0 and "[ok]" in out


def test_cli_fracfourier(capsys):
    code, out, _ = _run_cli(capsys, "--m", "1", "--n", "1",
                            "fracfourier", "--a", "1", "G")
    assert code == 0 and out == "G"
    code, out, _ = _run_cli(capsys, "--m", "1", "--n", "1",
                            "fracfourier", "--a", "0.5", "G")
    assert code == 0


def test_cli_radon(capsys):
    code, out, _ = _run_cli(capsys, "--m", "1", "--n", "1", "radon", "G")
    assert code == 0 and "exp(-p^2/2)" in out


def test_cli_parseval(capsys):
    code, out, _ = _run_cli(capsys, "--m", "0", "--n", "1",
                            "parseval", "q1", "q1 + q2")
    assert code == 0 and out == "true"


@pytest.mark.parametrize("m, n, f, g", [
    (1, 1, "x1*G", "G"),
    (1, 1, "(1 + 2*i)*x1*q1*G + pi*G", "x1*q2*G - q1*q2*G"),
    (0, 2, "q1*q3 + 1/2*i", "q2*q4 + q1*q2*q3*q4"),
    (1, 1, "x1*G", "x1"),
    (1, 1, "x1", "x1"),
])
def test_cli_parseval_reads_json_operands(capsys, m, n, f, g):
    # each operand may be JSON, as everywhere an expression is expected;
    # the verdict or the refusal is the text operands'
    universe = ("--m", str(m), "--n", str(n))

    def as_json(text):
        code, out, _ = _run_cli(capsys, *universe, "--format", "json",
                                "normalize", text)
        assert code == 0
        return out

    want = _run_cli(capsys, *universe, "parseval", f, g)
    assert want[0] in (0, 1)
    for a, b in ((as_json(f), g), (f, as_json(g)), (as_json(f), as_json(g))):
        assert _run_cli(capsys, *universe, "parseval", a, b) == want


def test_cli_json_format(capsys):
    code, out, _ = _run_cli(capsys, "--m", "0", "--n", "1", "--format",
                            "json", "fourier", "1")
    assert code == 0
    js = json.loads(out)
    assert js["schema"] == "supertransform/1"


def test_cli_batch_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("x1\nx1^2\n"))
    code = main(["--m", "1", "--n", "0", "normalize"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0 and out == ["x1", "x1^2"]


def test_cli_fourier_matches_library_golden_corpus(rng):
    # 50 random Gaussian-class expressions: CLI output equals the direct
    # library transform rendered, bit for bit
    u = VariableUniverse.standard(1, 1)
    parser = build_parser()
    for _ in range(50):
        f = GaussianFunction(random_poly(u, rng, degree=3, nterms=3))
        text = render_poly_text(f)
        # "--" keeps argparse from reading a leading minus as a flag
        args = parser.parse_args(["--m", "1", "--n", "1",
                                  "fourier", "--sign", "+", "--", text])
        got = run(args, text)
        want = render_poly_text(super_fourier(f, "+"))
        assert got == want


def test_json_round_trip_and_json_input(capsys, rng):
    from supertransform.expr import poly_from_json
    u = VariableUniverse.standard(1, 1)
    for _ in range(10):
        f = random_poly(u, rng, degree=3, nterms=4, rational=False)
        assert poly_from_json(poly_to_json(f), u) == f
    g = GaussianFunction(random_poly(u, rng, degree=2, nterms=2))
    assert poly_from_json(poly_to_json(g), u) == g
    # the CLI accepts JSON payloads wherever it accepts expressions
    payload = json.dumps(poly_to_json(g))
    code, out, _ = _run_cli(capsys, "--m", "1", "--n", "1",
                            "normalize", payload)
    assert code == 0
    from supertransform.expr import parse as _parse
    assert _parse(out, u) == g


def test_cli_decompose_json_has_basis(capsys):
    code, out, _ = _run_cli(capsys, "--m", "1", "--n", "1",
                            "--format", "json", "decompose", "--k", "2")
    assert code == 0
    js = json.loads(out)
    assert js["schema"] == "supertransform/1"
    assert len(js["basis"]) == js["dim_nullspace"]


def test_cli_hermite_bad_index(capsys):
    code, _, err = _run_cli(capsys, "--m", "2", "--n", "1",
                            "hermite", "--j", "0", "--k", "1", "--l", "9")
    assert code == 1 and "out of range" in err


def test_cli_berezin_rejects_gaussian(capsys):
    code, _, err = _run_cli(capsys, "--m", "1", "--n", "1", "berezin", "G")
    assert code == 1 and "plain polynomial" in err


def test_cli_radon_requires_gaussian_and_bosonic(capsys):
    code, _, err = _run_cli(capsys, "--m", "1", "--n", "1", "radon", "x1")
    assert code == 1
    code, _, err = _run_cli(capsys, "--m", "0", "--n", "1", "radon", "G")
    assert code == 1 and "fermionic" in err



@pytest.mark.parametrize("fmt", ["text", "json", "latex"])
@pytest.mark.parametrize("cmd", [("fourier",), ("radon",),
                                 ("fracfourier", "--a", "1/2")])
def test_cli_plain_zero_reads_as_zero_gaussian(capsys, cmd, fmt):
    # "0*G" renders as 0 in text and LaTeX, so 0 reads back as 0*G
    argv = ["--m", "1", "--n", "1", "--format", fmt, *cmd]
    assert main(argv + ["0*G"]) == 0
    want = capsys.readouterr()
    assert main(argv + ["0"]) == 0
    got = capsys.readouterr()
    assert (got.out, got.err) == (want.out, want.err)
    if fmt == "text":
        assert got.out == "0\n"


def test_cli_plain_zero_fourier_at_m_zero_stays_fermionic(capsys):
    code, out, _ = _run_cli(capsys, "--m", "0", "--n", "1", "--format",
                            "json", "fourier", "0")
    assert code == 0 and not json.loads(out)["envelope"]


@pytest.mark.parametrize("cmd", [("fourier",), ("radon",),
                                 ("fracfourier", "--a", "1/2")])
def test_cli_json_zero_without_envelope_is_refused(capsys, cmd):
    # only text input reads a plain zero as 0*G; JSON states its envelope
    one = '{"q": [%d, 1, 0, 1], "b": 0, "eps": 0}'
    for terms in ("[]", '[{"bos": [1], "fer": [], "coeff": [%s]}, '
                        '{"bos": [1], "fer": [], "coeff": [%s]}]'
                  % (one % 1, one % -1)):
        payload = ('{"schema": "supertransform/1", "m": 1, "n": 1, '
                   f'"envelope": false, "terms": {terms}}}')
        code, _, err = _run_cli(capsys, "--m", "1", "--n", "1", *cmd,
                                payload)
        assert code == 1 and "marker" in err


def test_cli_fracfourier_order_out_of_range(capsys):
    code, _, err = _run_cli(capsys, "--m", "1", "--n", "1",
                            "fracfourier", "--a", "3/2", "G")
    assert code == 1 and "[-1, 1]" in err


def test_cli_fracfourier_quarter_turn_has_no_noise_terms(capsys):
    code, out, _ = _run_cli(capsys, "--m", "2", "--n", "1",
                            "fracfourier", "--a", "1/2", "x1*x2*G")
    assert code == 0 and out == "(1j)*x1*x2*G"


def test_cli_fracfourier_at_zero_superdimension(capsys):
    # M = 0: the psi family does not span these inputs; the closed form
    # F^a(P G) = (e^(i alpha E) exp(gamma Delta) P) G still applies
    code, out, _ = _run_cli(capsys, "--m", "2", "--n", "1",
                            "fracfourier", "--a", "1/2", "x1^2*G")
    assert code == 0 and out == "(1j)*x1^2*G + (0.5-0.5j)*G"
    code, out, _ = _run_cli(capsys, "--m", "2", "--n", "1",
                            "fracfourier", "--a", "1/2", "q1q2*G")
    assert code == 0 and out == "(1j)*q1q2*G + (1-1j)*G"


@pytest.mark.parametrize("order, rule", [("nan", "finite decimal"),
                                         ("inf", "finite decimal"),
                                         ("1e400", "finite decimal"),
                                         ("1/0", "q != 0")])
def test_cli_fracfourier_rejects_invalid_order(capsys, order, rule):
    code, _, err = _run_cli(capsys, "--m", "1", "--n", "1",
                            "fracfourier", "--a", order, "G")
    assert code == 1 and rule in err
    assert "int()" not in err and "Fraction(" not in err


@pytest.mark.parametrize("m, n", [("-1", "1"), ("1", "-1")])
def test_cli_rejects_negative_universe_sizes(capsys, m, n):
    code, _, err = _run_cli(capsys, "--m", m, "--n", n, "fourier", "G")
    assert code == 1 and "non-negative" in err


def test_cli_dirac_on_gaussian(capsys):
    # d_x(G) = x G: one orthogonal and two symplectic components
    code, out, _ = _run_cli(capsys, "--m", "1", "--n", "1", "dirac", "G")
    assert code == 0
    assert "e1" in out and "f1" in out and "f2" in out


def test_cli_fracfourier_negative_order_as_separate_argument(capsys):
    from fractions import Fraction
    from supertransform.fracfourier import frac_fourier
    u = VariableUniverse.standard(2, 1)
    want = render_poly_text(frac_fourier(parse("x1*q1*G", u),
                                         Fraction(-1, 2)))
    for order in (["--a", "-1/2"], ["--a=-1/2"]):
        code, out, _ = _run_cli(capsys, "--m", "2", "--n", "1",
                                "fracfourier", *order, "x1*q1*G")
        assert code == 0 and out == want


def test_cli_fracfourier_negative_infinity_gets_the_order_rule(capsys):
    code, _, err = _run_cli(capsys, "--m", "1", "--n", "1",
                            "fracfourier", "--a", "-inf", "G")
    assert code == 1 and "finite decimal" in err
    assert "expected one argument" not in err


@pytest.mark.parametrize("text", ["x1^1000*G", "(10^300)*x1^150*G"])
def test_cli_fracfourier_refuses_coefficients_past_the_float_range(capsys,
                                                                   text):
    # He_1000 has integer coefficients past 1e308; 10^300 times those of
    # He_150 overflows to inf
    code, out, err = _run_cli(capsys, "--m", "1", "--n", "1",
                              "fracfourier", "--a", "1/3", text)
    assert (code, out) == (1, "")
    assert err == ("error: float lane: every coefficient must convert to a "
                   "finite complex float")


def test_cli_fracfourier_keeps_a_large_finite_result(capsys):
    # Delta^k x1^200 passes the float range, but every image of the one
    # pass (He_200's coefficients, below 1e187, times a weight) fits
    code, out, err = _run_cli(capsys, "--m", "1", "--n", "1",
                              "fracfourier", "--a", "1/3", "x1^200*G")
    assert (code, err) == (0, "") and out.count("*x1^") == 100
    assert "inf" not in out and "nan" not in out


def test_cli_float_lane_json_input_is_a_parse_error(capsys):
    code, out, _ = _run_cli(capsys, "--m", "1", "--n", "1", "--format",
                            "json", "fracfourier", "--a", "1/3", "x1*G")
    assert code == 0
    code, _, err = _run_cli(capsys, "--m", "1", "--n", "1", "fourier", out)
    assert code == 2 and "exact-lane coefficients" in err


def _nested_json(depth, schema=True):
    """A payload whose arrays and objects nest `depth` deep."""
    head = '{"schema": "supertransform/1", "terms": ' if schema \
        else '{"terms": '
    return head + "[" * (depth - 1) + "]" * (depth - 1) + "}"


@pytest.mark.parametrize("payload, rule", [
    ('{"schema": "supertransform/1", "terms": ', "invalid JSON"),
    ('{"schema": "supertransform/1", "terms": 3}', "list of objects"),
    ('{"schema": "supertransform/1", "terms": [{"bos": [1]}]}',
     "exact-lane coefficients"),
    ('{"schema": "supertransform/1", "terms": [{"bos": ["x"], '
     '"coeff": []}]}', "must be an integer"),
    ('{"schema": "supertransform/1", "terms": [{"coeff": '
     '[{"q": [1, 0, 0, 1], "b": 0, "eps": 0}]}]}', "denominator"),
    ('{"schema": "supertransform/1", "terms": [{"coeff": [{"q": [1]}]}]}',
     "q = ["),
    (_nested_json(151), "JSON nests deeper than MAX_NESTING = 150"),
    (_nested_json(1000), "JSON nests deeper than MAX_NESTING = 150"),
    (_nested_json(5000), "JSON nests deeper than MAX_NESTING = 150"),
])
def test_cli_malformed_json_input_names_the_rule(capsys, payload, rule):
    code, _, err = _run_cli(capsys, "--m", "1", "--n", "1", "fourier",
                            payload)
    assert code == 2 and rule in err


def _json_with_eps(eps):
    return ('{"schema": "supertransform/1", "terms": [{"bos": [1], '
            '"coeff": [{"q": [3, 1, 0, 1], "b": 0, "eps": %d}]}]}' % eps)


def test_cli_json_eps_budget(capsys):
    # the sqrt2 exponent is refused before 2^(eps/2) is computed
    start = time.perf_counter()
    code, out, err = _run_cli(capsys, "--m", "1", "--n", "1", "normalize",
                              _json_with_eps(10 ** 12))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "") and "MAX_EXPONENT" in err
    for eps, want in ((0, "3*x1"), (1, "3*sqrt2*x1"), (2, "6*x1")):
        assert _run_cli(capsys, "--m", "1", "--n", "1", "normalize",
                        _json_with_eps(eps)) == (0, want, "")


def test_cli_json_nesting_budget_boundary(capsys):
    # depth 150 is decoded and refused by the schema check; brackets
    # inside a JSON string do not nest
    for payload in (_nested_json(150, schema=False),
                    '{"terms": [], "note": "' + "[" * 5000 + '"}'):
        code, out, err = _run_cli(capsys, "--m", "1", "--n", "1",
                                  "normalize", payload)
        assert (code, out) == (2, "")
        assert err == "parse error: unknown JSON schema (at position 0)"
    code, out, err = _run_cli(capsys, "--m", "1", "--n", "1", "normalize",
                              _nested_json(151, schema=False))
    assert (code, out) == (2, "")
    assert err == ("parse error: JSON nests deeper than MAX_NESTING = 150 "
                   "(at position 159)")


@pytest.mark.parametrize("text", ["1/0", "pi^(1/0)", "x1^(2/0)"])
def test_cli_zero_denominator_is_a_parse_error(capsys, text):
    code, _, err = _run_cli(capsys, "--m", "1", "--n", "1", "normalize",
                            text)
    assert code == 2 and "denominator must be non-zero" in err
    assert "Fraction(" not in err


def test_cli_hermite_negative_order(capsys):
    code, out, err = _run_cli(capsys, "--m", "1", "--n", "1", "hermite",
                              "--j", "-1", "--k", "2")
    assert code == 1 and not out
    assert "order j must be non-negative" in err


@pytest.mark.parametrize("j", ["100", "200"])
def test_cli_hermite_order_budget_refuses_fast(capsys, j):
    start = time.perf_counter()
    code, out, err = _run_cli(capsys, "--m", "3", "--n", "2", "hermite",
                              "--k", "1", "--l", "0", "--j", j)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and not out and "MAX_MONOMIALS = 50000" in err


@pytest.mark.parametrize("command", [
    ["fourier"], ["fracfourier", "--a", "1/3"], ["parseval", "G"]],
    ids=["fourier", "fracfourier", "parseval"])
@pytest.mark.parametrize("m, n, text, images", [
    # 27.5 s and 408 MB of output before the budget
    ("2", "1", "x1^1000*x2^1000*G", 251001),
    # 44.2 s: two images for each of 20 full pairs
    ("0", "20", "".join(f"q{i}" for i in range(1, 41)) + "*G", 2 ** 20),
    ("3", "2", "x1^60*x2^60*x3^60*q1q2q3q4*G", 31 ** 3 * 4),
], ids=["m2-e1000", "n20-full", "m3n2-e60"])
def test_cli_transform_budget_refuses_fast(capsys, command, m, n, text,
                                           images):
    start = time.perf_counter()
    code, out, err = _run_cli(capsys, "--m", m, "--n", n, *command, text)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == (f"error: the transform could make {images} terms, over "
                   f"MAX_TRANSFORM_TERMS = 50000")


def test_cli_transform_budget_accepts_its_limit(capsys, monkeypatch):
    # x1^5*x2^4*q1q2 has 3 * 3 * 2 images: a limit of 18 builds them all
    from supertransform import fourier
    text = "x1^5*x2^4*q1q2*G"
    monkeypatch.setattr(fourier, "MAX_TRANSFORM_TERMS", 18)
    code, out, _ = _run_cli(capsys, "--m", "2", "--n", "1", "fourier", text)
    assert code == 0 and out.count(" + ") + out.count(" - ") == 17
    monkeypatch.setattr(fourier, "MAX_TRANSFORM_TERMS", 17)
    assert _run_cli(capsys, "--m", "2", "--n", "1", "fourier", text) == (
        1, "", "error: the transform could make 18 terms, over "
               "MAX_TRANSFORM_TERMS = 17")


def test_cli_hermite_order_budget_accepts_j20(capsys):
    # degree 41 spans 13128 monomials at (3,2), within the budget
    code, out, _ = _run_cli(capsys, "--m", "3", "--n", "2", "hermite",
                            "--k", "1", "--l", "0", "--j", "20")
    assert code == 0 and out.endswith("G")


@pytest.mark.parametrize("m, j", [("1", "100000"), ("2", "5000")])
def test_cli_hermite_series_budget_refuses_fast(capsys, m, j):
    # (1,0) at j = 100000 ran past 120 s; the top degree alone spans one
    # monomial there, so MAX_MONOMIALS let it through
    start = time.perf_counter()
    code, out, err = _run_cli(capsys, "--m", m, "--n", "0", "hermite",
                              "--j", j, "--k", "0")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and not out
    assert "MAX_SERIES_DIGITS = 50000000" in err


@pytest.mark.parametrize("m, n, j, k, message", [
    (3, 2, 100000, 14, "MAX_MONOMIALS = 50000"),
    (3, 2, -1, 14, "order j must be non-negative"),
    (1, 0, 100000, 0, "MAX_SERIES_DIGITS = 50000000"),
    (3, 2, 0, 80, "MAX_BASIS_MONOMIALS = 1500"),
    (3, 2, -1, -1, "degree must be nonnegative"),
])
def test_cli_hermite_order_refusals_build_no_basis(capsys, m, n, j, k,
                                                   message):
    # the orders are checked on (j, k, universe) before harmonic_basis is
    # called; the degree's own refusal comes first
    before = harmonic_basis.cache_info()
    code, out, err = _run_cli(capsys, "--m", str(m), "--n", str(n),
                              "hermite", "--j", str(j), "--k", str(k))
    assert code == 1 and not out and message in err
    assert harmonic_basis.cache_info() == before


def test_series_budget_boundary():
    # the recursion's j^2/2 integers set the limit at (1,0); at (3,2)
    # the output monomials do
    for m, n, k, last in [(1, 0, 0, 312), (3, 2, 1, 36)]:
        u = VariableUniverse.standard(m, n)
        check_psi_orders(last, k, u)
        with pytest.raises(ValueError, match="MAX_SERIES_DIGITS"):
            check_psi_orders(last + 1, k, u)


@pytest.mark.parametrize("n", ["2000", "10000"])
def test_cli_fundsol_pair_budget_refuses_fast(capsys, n):
    # n = 2000 ran 14 s, then leaked Python's integer-printing limit
    start = time.perf_counter()
    code, out, err = _run_cli(capsys, "--m", "4", "--n", n, "fundsol")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and not out
    assert err == (f"error: n = {n} pairs exceeds MAX_FUNDSOL_PAIRS = 1000")


@pytest.mark.parametrize("argv, err", [
    (("--m", "1", "--n", "100000000", "normalize", "1"),
     "error: n = 100000000 pairs exceeds MAX_PAIRS = 1000"),
    (("--m", "1", "--n", "1001", "dirac", "q1*G"),
     "error: n = 1001 pairs exceeds MAX_PAIRS = 1000"),
    (("--m", "100000000", "--n", "1", "d2", "G"),
     "error: m = 100000000 bosonic variables exceeds MAX_BOSONIC = 1000"),
    (("--m", "100000000", "--n", "1", "fundsol"),
     "error: m = 100000000 bosonic variables exceeds MAX_BOSONIC = 1000"),
], ids=["normalize-n", "dirac-n", "d2-m", "fundsol-m"])
def test_cli_universe_budget_refuses_fast(capsys, argv, err):
    # n = 10^8 ended in a MemoryError traceback while naming the symbols,
    # and fundsol at m = 10^8 did not finish
    start = time.perf_counter()
    assert _run_cli(capsys, *argv) == (1, "", err)
    assert time.perf_counter() - start < 1.0


def test_cli_universe_budget_accepts_its_limits(capsys):
    assert _run_cli(capsys, "--m", "1000", "--n", "1000", "normalize",
                    "x1000*q2000*G") == (0, "x1000*q2000*G", "")


@pytest.mark.parametrize("m, n", [("-1", "1"), ("1", "-1")])
def test_cli_fundsol_rejects_negative_universe_sizes(capsys, m, n):
    # fundsol builds no universe, so it checks the sizes itself
    code, out, err = _run_cli(capsys, "--m", m, "--n", n, "fundsol")
    assert (code, out) == (1, "") and "non-negative" in err


def test_fundsol_pair_budget_boundary(monkeypatch):
    monkeypatch.setattr(fundsol, "MAX_FUNDSOL_PAIRS", 3)
    assert fundsol.super_fundamental_solution(2, 3).parts
    with pytest.raises(ValueError, match="MAX_FUNDSOL_PAIRS = 3"):
        fundsol.super_fundamental_solution(2, 4)


def test_cli_fundsol_checks_render_digits(capsys, monkeypatch):
    # the pair budget keeps coefficients under 3000 digits, so a lower
    # render bound stands in for a longer chain
    monkeypatch.setattr(scalars, "_RENDER_BOUND", 10)
    code, out, err = _run_cli(capsys, "--m", "4", "--n", "3", "fundsol")
    assert code == 1 and not out
    assert "MAX_RENDER_DIGITS" in err


@pytest.mark.parametrize("argv, limit", [
    (("hermite", "--j", "0", "--k", "80"), "MAX_BASIS_MONOMIALS = 1500"),
    (("hermite", "--j", "0", "--k", "30"), "MAX_BASIS_MONOMIALS = 1500"),
    (("decompose", "--k", "80"), "MAX_BASIS_MONOMIALS = 1500"),
    (("decompose", "--k", "30"), "MAX_BASIS_MONOMIALS = 1500"),
], ids=["hermite-k80", "hermite-k30", "decompose-k80", "decompose-k30"])
def test_cli_degree_budget_refuses_before_the_basis(capsys, argv, limit):
    # at (3,2) degree 30 spans 6968 monomials, whose row reduction took
    # about 10 s, and degree 80 spans 50568
    harmonic_basis.cache_clear()
    start = time.perf_counter()
    code, out, err = _run_cli(capsys, "--m", "3", "--n", "2", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and not out and limit in err
    assert harmonic_basis.cache_info().currsize == 0


@pytest.mark.parametrize("argv", [
    ("--m", "0", "--n", "13", "hermite", "--j", "0", "--k", "1", "--l", "0"),
    ("--m", "1", "--n", "12", "decompose", "--k", "2"),
], ids=["hermite-n13", "decompose-n12"])
def test_cli_small_basis_in_many_pairs_runs_fast(capsys, argv):
    # 26 and 325 monomials, but listing the masks by testing all 4^n of
    # them took about 5 s for each
    start = time.perf_counter()
    code, out, _ = _run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 0 and out


def test_cli_dirac_in_many_pairs_builds_only_the_hit_generator(capsys):
    # q1 hits one generator; building all 2n + m generator products per
    # unit word took 8.5 s at n = 800
    start = time.perf_counter()
    code, out, _ = _run_cli(capsys, "--m", "1", "--n", "800", "dirac", "q1")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (0, "(2) (x) f2")


@pytest.mark.parametrize("command", ["hermite", "decompose"])
def test_cli_degree_budget_accepts_k6(capsys, command):
    extra = ("--j", "0", "--l", "0") if command == "hermite" else ()
    code, out, _ = _run_cli(capsys, "--m", "3", "--n", "2", command,
                            "--k", "6", *extra)
    assert code == 0 and out


def test_cli_radon_result_budget_refuses_fast(capsys):
    # x3^80*G took 12.7 s and 117 MB at (3,2) before the budget
    start = time.perf_counter()
    code, out, err = _run_cli(capsys, "--m", "3", "--n", "2", "radon",
                              "x3^80*G")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and not out
    assert err == ("error: radon could make 110626560 result entries, "
                   "over MAX_RESULT_ENTRIES = 2000000")


def test_radon_result_budget_boundary():
    # at (3,2) a degree-29 term may make 1955760 entries, degree 30 more
    # than 2000000; the count is per term, at the top degree
    u = VariableUniverse.standard(3, 2)
    check_result_size(parse("x3^29*G", u))
    check_result_size(parse("0*G", u))
    for text in ("x3^30*G", "x3^29*G + x1*G"):
        with pytest.raises(ValueError, match="MAX_RESULT_ENTRIES"):
            check_result_size(parse(text, u))


def _readme_commands():
    """(argv, stdin, shown output) per line of the README's sh block
    under "Command line"."""
    text = open(os.path.join(os.path.dirname(__file__), os.pardir,
                             "README.md"), encoding="utf-8").read()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    rows = []
    for line in block.split("```", 1)[0].splitlines():
        shown = line.split("# -> ", 1)[1].strip() if "# -> " in line \
            else None
        stdin = None
        words = shlex.split(line, comments=True)
        if words[0] == "echo":
            bar = words.index("|")
            stdin, words = " ".join(words[1:bar]) + "\n", words[bar + 1:]
        assert words[0] == "supertransform", line
        rows.append((words[1:], stdin, shown))
    return rows


_README_COMMANDS = _readme_commands()


@pytest.mark.parametrize("argv, stdin, shown", _README_COMMANDS,
                         ids=[" ".join(argv) + (" < stdin" if stdin else "")
                              for argv, stdin, _ in _README_COMMANDS])
def test_readme_commands_run(capsys, monkeypatch, argv, stdin, shown):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, err = _run_cli(capsys, *argv)
    assert (code, err) == (0, "") and out
    if shown is not None:
        assert out == shown


@pytest.mark.parametrize("m, n", [(2, 2), (3, 2)])
def test_cli_warm_output_equals_cold_output(capsys, m, n):
    # a caller that aliased or changed a shared basis would show here
    commands = [("hermite", "--j", "1", "--k", "3"),
                ("--format", "json", "decompose", "--k", "4")]

    def outputs():
        runs = []
        for c in commands:
            assert main(["--m", str(m), "--n", str(n), *c]) == 0
            runs.append(capsys.readouterr().out)
        return runs

    harmonic_basis.cache_clear()
    cold = outputs()
    assert harmonic_basis.cache_info().currsize > 0
    assert outputs() == cold


def test_cli_decompose_refuses_m_zero(capsys):
    code, _, err = _run_cli(capsys, "--m", "0", "--n", "2", "decompose",
                            "--k", "2")
    assert code == 1 and "m >= 1" in err
    assert "gamma argument" not in err


_BIG_LITERAL = "7" * 5000
_ONE = '[{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]'


@pytest.mark.parametrize("text, limit", [
    ("x1^99999999", "MAX_EXPONENT = 1000"),
    ("2^99999999", "MAX_EXPONENT = 1000"),
    ("123456789^1000", "MAX_POWER_DIGITS = 4300"),
    (_BIG_LITERAL, "MAX_DIGITS = 1000"),
    ('{"schema": "supertransform/1", "terms": [{"bos": [%s], "coeff": %s}]}'
     % (_BIG_LITERAL, _ONE), "MAX_DIGITS = 1000"),
    ('{"schema": "supertransform/1", "terms": [{"bos": [99999999], '
     '"coeff": %s}]}' % _ONE, "MAX_EXPONENT = 1000"),
], ids=["x1-power", "scalar-power", "power-digits", "literal",
        "json-literal", "json-exponent"])
def test_cli_input_budgets_refuse_fast(capsys, text, limit):
    start = time.perf_counter()
    code, out, err = _run_cli(capsys, "--m", "1", "--n", "1", "normalize",
                              text)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and not out and limit in err
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize("text", [
    "((9^1000*x1)^1000)^1000", "(((2*x1)^1000)^1000)^1000",
    "(9^1000*x1+1)^100",
], ids=["monomial-nested", "monomial-tower", "sum"])
def test_cli_powers_of_monomials_and_sums_refuse_fast(capsys, text):
    # the coefficient of a monomial's or a sum's power is bounded before
    # the arithmetic, as a number's is: unbounded, the first ran past
    # 60 s and the others took 4-10 s before the render budget refused
    start = time.perf_counter()
    code, out, err = _run_cli(capsys, "--m", "1", "--n", "1", "normalize",
                              text)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and not out and "MAX_POWER_DIGITS = 4300" in err


@pytest.mark.parametrize("text, line", [
    ("(2*x1)^3", "8*x1^3"), ("(x1+1)^3", "x1^3 + 3*x1^2 + 3*x1 + 1"),
])
def test_cli_small_powers_of_monomials_and_sums_print(capsys, text, line):
    assert _run_cli(capsys, "--m", "1", "--n", "1", "normalize",
                    text) == (0, line, "")


@pytest.mark.parametrize("fmt", ["text", "json", "latex"])
@pytest.mark.parametrize("command, text", [
    ("normalize", "9^1000*9^1000*9^1000*9^1000*9^1000"),
    ("normalize", "(1/9)^1000*(1/9)^1000*(1/9)^1000*(1/9)^1000*(1/9)^1000*G"),
    ("radon", "9^1000*9^1000*9^1000*9^1000*9^1000*x1*G"),
])
def test_cli_render_budget_refuses_fast(capsys, fmt, command, text):
    # every factor is within the input budgets; the 4772-digit product
    # would pass Python's int printing limit at render time
    start = time.perf_counter()
    code, out, err = _run_cli(capsys, "--m", "1", "--n", "1", "--format",
                              fmt, command, text)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and not out and "MAX_RENDER_DIGITS = 4300" in err
    assert "set_int_max_str_digits" not in err
    code, out, _ = _run_cli(capsys, "--m", "1", "--n", "1", "--format", fmt,
                            "normalize", "9^1000*9^1000*9^1000*9^1000")
    assert code == 0 and out


def test_render_budget_reads_the_printed_parts():
    # 1/rd + i/id at coprime rd, id near 10^2200 shares the denominator
    # rd*id of 4401 digits, but no printed integer has more than 2201
    # digits: accepted; a printed part that reaches the budget is refused
    rd, id_ = 10 ** 2200 + 1, 10 ** 2200 + 3
    q = QQi(Fraction(1, rd), Fraction(1, id_))
    assert q.d >= 10 ** exprmod.MAX_RENDER_DIGITS
    u = u11()
    f = SuperPolynomial.scalar(u, ExactScalar.from_qqi(q))
    assert render_poly_text(f) == f"(1/{rd}+1/{id_}*i)"
    assert render_poly_latex(f) == f"(1/{rd}+1/{id_}i)"
    assert poly_to_json(f)["terms"][0]["coeff"][0]["q"] == [1, rd, 1, id_]
    big = SuperPolynomial.scalar(
        u, ExactScalar.from_qqi(QQi(Fraction(1, rd * id_), 1)))
    for render in (render_poly_text, render_poly_latex, poly_to_json):
        with pytest.raises(ValueError, match="MAX_RENDER_DIGITS = 4300"):
            render(big)


def _radon_of(c):
    uo = omega_universe(1, 1)
    return RadonResult(uo, {(((1,), 0b01), 2): c})


def _cvalued_of(c):
    u = u11()
    return CValued(u, {(1, (0, 1)): SuperPolynomial.scalar(u, c)},
                   envelope=True)


# every printer of an exact coefficient, as a function of the coefficient
_PRINTERS = {
    "poly-text": lambda c: render_poly_text(
        GaussianFunction(SuperPolynomial.bosonic_var(u11(), 0, c))),
    "poly-latex": lambda c: render_poly_latex(
        SuperPolynomial.bosonic_var(u11(), 0, c)),
    "poly-json": lambda c: json.dumps(poly_to_json(
        SuperPolynomial.bosonic_var(u11(), 0, c))),
    "scalar-render": lambda c: c.render(),
    "scalar-json": lambda c: json.dumps(c.to_json()),
    "radon-json": lambda c: json.dumps(_radon_of(c).to_json()),
    "cli-radon-text": lambda c: cli._render_radon(_radon_of(c), "text"),
    "cli-radon-json": lambda c: cli._render_radon(_radon_of(c), "json"),
    "radial": lambda c: RadialFunction.monomial(2, 1, c).render(),
    "super-radial": lambda c: SuperRadial(
        1, {0: RadialFunction.monomial(0, 0, c),
            1: RadialFunction.monomial(-1, 0, c)}).render(),
    "cw-element": lambda c: CWElement.one(1, 1, c).render(),
    "cli-cvalued": lambda c: cli._render_cvalued(_cvalued_of(c)),
}


@pytest.mark.parametrize("part", [
    lambda big: QQi(big),
    lambda big: QQi(Fraction(1, big)),
    lambda big: QQi(1, Fraction(1, big)),
], ids=["numerator", "denominator", "imaginary-denominator"])
@pytest.mark.parametrize("printer", _PRINTERS.values(), ids=_PRINTERS)
def test_every_printer_checks_the_render_budget(printer, part):
    # a printed part of 4300 digits prints; one of 4301 digits is refused
    # with the budget's message, not with Python's int printing limit
    top = 10 ** exprmod.MAX_RENDER_DIGITS
    c = ExactScalar.from_qqi(part(top - 1))
    for fits in (c, c * ExactScalar.sqrt2()):
        assert str(top - 1) in printer(fits)
    with pytest.raises(ValueError) as exc:
        printer(ExactScalar.from_qqi(part(top)))
    assert "MAX_RENDER_DIGITS = 4300" in str(exc.value)
    assert "set_int_max_str_digits" not in str(exc.value)


@pytest.mark.parametrize("text", [
    "(x1+x2+x3)^200",
    "(1+x1)^1000*(1+x2)^1000",
    "(1+x1)^300*(1+x2)^300",
    "(x1+x2+x3)^60",
], ids=["trinomial-200", "binomials-1000", "binomials-300", "trinomial-60"])
def test_cli_term_pair_budget_refuses_fast(capsys, text):
    # each factor is within the input budgets; the expansion would take
    # from seconds to minutes
    start = time.perf_counter()
    code, out, err = _run_cli(capsys, "--m", "3", "--n", "1", "normalize",
                              text)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and not out and "MAX_TERM_PAIRS = 50000" in err


def test_term_pair_budget_counts_products_and_powers(monkeypatch):
    # a product counts |a|*|b| term pairs and a power P^k of t terms
    # t*C(k+t-1, t), which is exact for (x1+x2+x3)^k: 30 at k = 3, 60 at
    # k = 4 and 105 at k = 5; the count runs over the whole parse
    monkeypatch.setattr(exprmod, "MAX_TERM_PAIRS", 60)
    u = VariableUniverse.standard(3, 1)
    assert len(parse("(x1+x2+x3)^4", u).terms) == 15
    assert parse("(x1+x2+x3)^3*(x1+x2+x3)", u) == parse("(x1+x2+x3)^4", u)
    for text in ("(x1+x2+x3)^5", "(x1+x2+x3)^3*(x1+x2+x3)*x1",
                 "(x1+x2+x3)^3 + (x1+x2+x3)^3 + x1*x2"):
        with pytest.raises(ValueError, match="MAX_TERM_PAIRS = 60"):
            parse(text, u)


_PAIRS = ("expression would multiply more than MAX_TERM_PAIRS = 50000 term "
          "pairs")


def test_cli_scalar_power_budget_counts_term_pairs(capsys, monkeypatch):
    # c^k of a t-term scalar c has about 2k terms here, and binary
    # powering squares them: the term pairs it will multiply are charged
    # before the arithmetic; k = 174 is the largest k accepted
    c = "(1/3 + 2/5*i*sqrt2 + pi)"
    value = parse(c, u11()).constant_term()
    assert exprmod._power_pairs(value, 174) <= exprmod.MAX_TERM_PAIRS \
        < exprmod._power_pairs(value, 175)
    for text in (f"{c}^300", f"{c}^175", f"({c}*x1)^300"):
        start = time.perf_counter()
        code, out, err = _run_cli(capsys, "--m", "1", "--n", "1",
                                  "normalize", text)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and not out and err == f"error: {_PAIRS}"
    want = ExactScalar.one()
    for _ in range(20):
        want = want * value
    assert parse(f"{c}^20", u11()) == SuperPolynomial.scalar(u11(), want)
    code, _, err = _run_cli(capsys, "--m", "1", "--n", "1", "normalize",
                            "123456789^1000")
    assert code == 1 and "MAX_POWER_DIGITS = 4300" in err
    # a single-term scalar power charges no term pairs: here only the
    # three products inside the parentheses spend one pair each
    monkeypatch.setattr(exprmod, "MAX_TERM_PAIRS", 3)
    assert parse("2^1000", u11()) == SuperPolynomial.scalar(
        u11(), ExactScalar.rational(2 ** 1000))
    assert parse("(2/3*i*sqrt2*pi)^-7", u11()) == SuperPolynomial.scalar(
        u11(), (ExactScalar.rational(2, 3) * ExactScalar.i()
                * ExactScalar.sqrt2() * ExactScalar.pi_half_power(2)) ** -7)


# Refused input and the exact stderr the command line prints for it:
# (m, n, text, message, position).  A position marks a parse error
# (exit 2); None marks a budget or domain error (exit 1).
_REFUSALS = [
    (1, 1, "x1 $ 2", "unexpected character '$'", 3),
    (1, 1, "x1 )", "trailing input", 3),
    (1, 1, "x5", "unknown symbol x5", 0),
    (1, 1, "q3", "unknown symbol q3", 0),
    (1, 1, "x0*q1", "unknown symbol x0", 0),
    (1, 1, "G*G", "duplicate Gaussian marker", 1),
    (1, 1, "x1*G q1 G", "duplicate Gaussian marker", 8),
    (1, 1, "1 + G", "cannot add Gaussian and plain terms", 2),
    (1, 1, "G - x1*G + 1", "cannot add Gaussian and plain terms", 9),
    (1, 1, "G^2", "Gaussian marker cannot be raised to a power", 1),
    (1, 1, "(x1*G)^2", "Gaussian marker cannot be raised to a power", 6),
    (1, 1, "q1^2", "fermionic square", 2),
    (1, 1, "x1*q2^2", "fermionic square", 5),
    (0, 1, "(q1+q2)^2", "fermionic square", 7),
    (1, 1, "(x1*q1)^3", "fermionic square", 7),
    (1, 1, "q1^-1", "invalid fermionic power", 2),
    (1, 1, "q1^(1/2)", "invalid fermionic power", 2),
    (1, 1, "x1^-1", "exponent must be a nonnegative integer", 2),
    (1, 1, "(x1+1)^(1/2)", "exponent must be a nonnegative integer", 6),
    (1, 1, "1/x1", "expected denominator", 2),
    (1, 1, "2/", "expected denominator", 2),
    (1, 1, "1/0", "denominator must be non-zero", 2),
    (1, 1, "x1^(2/0)", "denominator must be non-zero", 6),
    (1, 1, "pi^(1/0)", "denominator must be non-zero", 6),
    (1, 1, "pi^(1/3)", "unsupported fractional power", 2),
    (1, 1, "sqrtpi^(1/2)", "unsupported fractional power", 6),
    (1, 1, "2^(1/2)", "unsupported fractional power", 1),
    (1, 1, "x1^(1/2)", "exponent must be a nonnegative integer", 2),
    (1, 1, "(x1 + 1", "expected ')'", 7),
    (1, 1, "((x1)", "expected ')'", 5),
    (1, 1, "x1 +", "expected a value", 4),
    (1, 1, "x1^", "expected exponent", 3),
    (1, 1, "x1^-x1", "expected integer exponent", 4),
    (1, 1, "x1^(x1)", "expected rational exponent", 4),
    (1, 1, "x1^(1/x1)", "expected exponent denominator", 6),
    (1, 1, "x1^(1 2)", "expected ')'", 6),
    (1, 1, ")", "expected a value", 0),
    (1, 1, "", "expected a value", 0),
    (1, 1, "x1^99999999",
     "exponent 99999999 exceeds MAX_EXPONENT = 1000", None),
    (1, 1, "2^99999999",
     "exponent 99999999 exceeds MAX_EXPONENT = 1000", None),
    (1, 1, "x1^(-2001/2)",
     "exponent -2001/2 exceeds MAX_EXPONENT = 1000", None),
    (1, 1, "7" * 1001,
     "integer literal of 1001 digits exceeds MAX_DIGITS = 1000", None),
    (1, 1, "x5 + " + "7" * 1001,
     "integer literal of 1001 digits exceeds MAX_DIGITS = 1000", None),
    (1, 1, "123456789^1000",
     "scalar power would exceed MAX_POWER_DIGITS = 4300 digits", None),
    (1, 1, "(1/123456789)^-1000",
     "scalar power would exceed MAX_POWER_DIGITS = 4300 digits", None),
    (3, 1, "(x1+x2+x3)^200",
     _PAIRS, None),
    (3, 1, "(1+x1)^300*(1+x2)^300",
     _PAIRS, None),
    (1, 1, "(1+pi)^-1", "non-monomial scalar not invertible", None),
    (1, 1, "x" + "1" * 5000,
     "symbol index of 5000 digits exceeds MAX_DIGITS = 1000", None),
    (1, 1, "q" + "1" * 5000,
     "symbol index of 5000 digits exceeds MAX_DIGITS = 1000", None),
    (1, 1, "(" * 250 + "x1" + ")" * 250,
     "parentheses nest deeper than MAX_NESTING = 150", None),
    (1, 1, "(" * 1000 + "x1" + ")" * 1000,
     "parentheses nest deeper than MAX_NESTING = 150", None),
]


@pytest.mark.parametrize("m, n, text, message, pos", _REFUSALS,
                         ids=[row[2][:24] for row in _REFUSALS])
def test_cli_refusal_bytes(capsys, m, n, text, message, pos):
    code = main(["--m", str(m), "--n", str(n), "normalize", text])
    out = capsys.readouterr()
    if pos is None:
        assert (code, out.err) == (1, f"error: {message}\n")
    else:
        assert (code, out.err) == (
            2, f"parse error: {message} (at position {pos})\n")
    assert out.out == ""


def test_parser_nesting_budget_boundary():
    u = u11()
    for depth in (1, 150):
        text = "(" * depth + "x1" + ")" * depth
        assert parse(text, u) == SuperPolynomial.bosonic_var(u, 0)
    with pytest.raises(ValueError, match="MAX_NESTING = 150"):
        parse("(" * 151 + "x1" + ")" * 151, u)


# Output of the operators as they were composed from derivatives: an operator
# change must keep these bytes.  Per input, in the order of
# _OPERATOR_COMMANDS.
_OPERATOR_COMMANDS = (("laplace", "--sector", "bosonic"),
                      ("laplace", "--sector", "fermionic"),
                      ("laplace", "--sector", "full"), ("euler",), ("d2",))
_OPERATOR_GOLDEN = {
    (2, 1, "G"): (
        "-x1^2*G - x2^2*G + 2*G",
        "q1q2*G - 2*G",
        "-x1^2*G - x2^2*G + q1q2*G",
        "-x1^2*G - x2^2*G + q1q2*G",
        "-4*x1^2*G - 4*x2^2*G + 4*q1q2*G",
    ),
    (2, 1, "x1*q1*G"): (
        "-x1^3*q1*G - x1*x2^2*q1*G + 4*x1*q1*G",
        "0",
        "-x1^3*q1*G - x1*x2^2*q1*G + 4*x1*q1*G",
        "-x1^3*q1*G - x1*x2^2*q1*G + 2*x1*q1*G",
        "-4*x1^3*q1*G - 4*x1*x2^2*q1*G + 8*x1*q1*G",
    ),
    (2, 1, "(x1^2 + 1/2*x2*q1q2 - 3)*G"): (
        "-1/2*x1^2*x2*q1q2*G - 1/2*x2^3*q1q2*G - x1^4*G - x1^2*x2^2*G"
        " + 2*x2*q1q2*G + 9*x1^2*G + 3*x2^2*G - 8*G",
        "x1^2*q1q2*G + x2*q1q2*G - 2*x1^2*G - 3*q1q2*G - 2*x2*G + 6*G",
        "-1/2*x1^2*x2*q1q2*G - 1/2*x2^3*q1q2*G - x1^4*G - x1^2*x2^2*G"
        " + x1^2*q1q2*G + 3*x2*q1q2*G + 7*x1^2*G + 3*x2^2*G"
        " - 3*q1q2*G - 2*x2*G - 2*G",
        "-1/2*x1^2*x2*q1q2*G - 1/2*x2^3*q1q2*G - x1^4*G - x1^2*x2^2*G"
        " + x1^2*q1q2*G + 3/2*x2*q1q2*G + 5*x1^2*G + 3*x2^2*G"
        " - 3*q1q2*G",
        "-2*x1^2*x2*q1q2*G - 2*x2^3*q1q2*G - 4*x1^4*G - 4*x1^2*x2^2*G"
        " + 4*x1^2*q1q2*G + 6*x2*q1q2*G + 20*x1^2*G + 12*x2^2*G"
        " - 12*q1q2*G - 2*x2*G - 2*G",
    ),
    (2, 1, "x1^3*x2 + i*q1q2"): (
        "-6*x1*x2",
        "-4*i",
        "-6*x1*x2 - 4*i",
        "4*x1^3*x2 + 2*i*q1q2",
        "-x1^5*x2 - x1^3*x2^3 + x1^3*x2*q1q2 + 8*x1^3*x2"
        " - i*x1^2*q1q2 - i*x2^2*q1q2 - 6*x1*x2 + 4*i*q1q2 - 4*i",
    ),
    (0, 2, "G"): (
        "0",
        "q1q2*G + q3q4*G - 4*G",
        "q1q2*G + q3q4*G - 4*G",
        "q1q2*G + q3q4*G",
        "4*q1q2*G + 4*q3q4*G - 8*G",
    ),
    (0, 2, "q1q2*G"): (
        "0",
        "q1q2q3q4*G - 4*G",
        "q1q2q3q4*G - 4*G",
        "q1q2q3q4*G + 2*q1q2*G",
        "4*q1q2q3q4*G - 4*G",
    ),
    (0, 2, "(q1 + 2*q3q4 - q1q2q3)*G"): (
        "0",
        "2*q1q2q3q4*G - 2*q1q2q3*G + q1q3q4*G - 2*q1*G + 4*q3*G - 8*G",
        "2*q1q2q3q4*G - 2*q1q2q3*G + q1q3q4*G - 2*q1*G + 4*q3*G - 8*G",
        "2*q1q2q3q4*G - 3*q1q2q3*G + q1q3q4*G + 4*q3q4*G + q1*G",
        "8*q1q2q3q4*G - 4*q1q2q3*G + 4*q1q3q4*G - 4*q1*G + 4*q3*G"
        " - 8*G",
    ),
    (0, 2, "q1q2q3q4 + 1/3*q2q3"): (
        "0",
        "-4*q1q2 - 4*q3q4",
        "-4*q1q2 - 4*q3q4",
        "4*q1q2q3q4 + 2/3*q2q3",
        "4*q1q2q3q4 - 4*q1q2 - 4*q3q4",
    ),
}


@pytest.mark.parametrize("cmd", range(len(_OPERATOR_COMMANDS)),
                         ids=[" ".join(c) for c in _OPERATOR_COMMANDS])
@pytest.mark.parametrize("m, n, text", list(_OPERATOR_GOLDEN))
def test_cli_operator_golden_outputs(capsys, m, n, text, cmd):
    code, out, err = _run_cli(capsys, "--m", str(m), "--n", str(n),
                              *_OPERATOR_COMMANDS[cmd], text)
    assert (code, out, err) == (0, _OPERATOR_GOLDEN[m, n, text][cmd], "")


# Output of normalize, fourier and radon while QQi held two Fractions:
# coefficients with non-trivial denominators, imaginary parts, sqrt2 and
# half-integer powers of pi.  A change to the scalar representation must
# keep these bytes.  Per input, in the order of _SCALAR_COMMANDS.
_SCALAR_COMMANDS = [(command, fmt) for command in ("normalize", "fourier",
                                                   "radon")
                    for fmt in ("text", "json", "latex")]
_SCALAR_GOLDEN = {
    (1, 1,
     '(3/4 - 5/6*i)*sqrt2*pi^(-1/2)*x1*q1*G'): (
        '(3/4-5/6*i)*sqrt2*pi^(-1/2)*x1*q1*G',
        '{"schema": "supertransform/1", "m": 1, "n": 1, "envelope": true, '
        '"terms": [{"bos": [1], "fer": [1], "coeff": [{"q": [3, 4, -5, 6], '
        '"b": -1, "eps": 1}]}]}',
        '(3/4-5/6i)\\sqrt{2}\\pi^{-1/2} x_{1}q_{1} e^{x^2/2}',
        '(-3/4+5/6*i)*sqrt2*pi^(-1/2)*x1*q1*G',
        '{"schema": "supertransform/1", "m": 1, "n": 1, "envelope": true, '
        '"terms": [{"bos": [1], "fer": [1], "coeff": [{"q": [-3, 4, 5, 6], '
        '"b": -1, "eps": 1}]}]}',
        '(-3/4+5/6i)\\sqrt{2}\\pi^{-1/2} x_{1}q_{1} e^{x^2/2}',
        '[((-3/8+5/12*i)*sqrt2*pi^(-3/2)) + '
        '((3/8-5/12*i)*sqrt2*pi^(-3/2))*p^2]*exp(-p^2/2) (x) w1*wf1',
        '{"envelope": "exp(-p^2/2)", "terms": [{"omega_bos": [1], '
        '"omega_fer": [1], "p_poly": [[0, [{"q": [-3, 8, 5, 12], "b": -3, '
        '"eps": 1}]], [2, [{"q": [3, 8, -5, 12], "b": -3, "eps": 1}]]]}], '
        '"schema": "supertransform/1"}',
        '[((-3/8+5/12*i)*sqrt2*pi^(-3/2)) + '
        '((3/8-5/12*i)*sqrt2*pi^(-3/2))*p^2]*exp(-p^2/2) (x) w1*wf1',
    ),
    (2, 2,
     '(3/4 - 5/6*i)*sqrt2*pi^(-1/2)*x1*q1*G'): (
        '(3/4-5/6*i)*sqrt2*pi^(-1/2)*x1*q1*G',
        '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": true, '
        '"terms": [{"bos": [1, 0], "fer": [1], "coeff": [{"q": [3, 4, -5, '
        '6], "b": -1, "eps": 1}]}]}',
        '(3/4-5/6i)\\sqrt{2}\\pi^{-1/2} x_{1}q_{1} e^{x^2/2}',
        '(-3/4+5/6*i)*sqrt2*pi^(-1/2)*x1*q1*G',
        '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": true, '
        '"terms": [{"bos": [1, 0], "fer": [1], "coeff": [{"q": [-3, 4, 5, '
        '6], "b": -1, "eps": 1}]}]}',
        '(-3/4+5/6i)\\sqrt{2}\\pi^{-1/2} x_{1}q_{1} e^{x^2/2}',
        '[((-3/8+5/12*i)*pi^-2) + ((3/8-5/12*i)*pi^-2)*p^2]*exp(-p^2/2) (x) '
        'w1*wf1',
        '{"envelope": "exp(-p^2/2)", "terms": [{"omega_bos": [1, 0], '
        '"omega_fer": [1], "p_poly": [[0, [{"q": [-3, 8, 5, 12], "b": -4, '
        '"eps": 0}]], [2, [{"q": [3, 8, -5, 12], "b": -4, "eps": 0}]]]}], '
        '"schema": "supertransform/1"}',
        '[((-3/8+5/12*i)*pi^-2) + ((3/8-5/12*i)*pi^-2)*p^2]*exp(-p^2/2) (x) '
        'w1*wf1',
    ),
    (1, 1,
     '(2/3 - i)*x1^2*q1q2*G + (1/6*i + 1/5*sqrt2)*x1*G - 9/4*sqrtpi*G'): (
        '(2/3-i)*x1^2*q1q2*G + (1/6*i + 1/5*sqrt2)*x1*G - 9/4*sqrtpi*G',
        '{"schema": "supertransform/1", "m": 1, "n": 1, "envelope": true, '
        '"terms": [{"bos": [2], "fer": [1, 2], "coeff": [{"q": [2, 3, -1, '
        '1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [], "coeff": [{"q": '
        '[0, 1, 1, 6], "b": 0, "eps": 0}, {"q": [1, 5, 0, 1], "b": 0, "eps": '
        '1}]}, {"bos": [0], "fer": [], "coeff": [{"q": [-9, 4, 0, 1], "b": '
        '1, "eps": 0}]}]}',
        '(2/3-i) x_{1}^{2}q_{1}q_{2} e^{x^2/2} + (1/6i+1/5\\sqrt{2}) x_{1}'
        ' e^{x^2/2} - 9/4\\pi^{1/2} e^{x^2/2}',
        '(2/3-i)*x1^2*q1q2*G + (-4/3+2*i)*x1^2*G + (-2/3+i)*q1q2*G + (-1/6 + '
        '1/5*i*sqrt2)*x1*G + ((4/3-2*i) - 9/4*sqrtpi)*G',
        '{"schema": "supertransform/1", "m": 1, "n": 1, "envelope": true, '
        '"terms": [{"bos": [2], "fer": [1, 2], "coeff": [{"q": [2, 3, -1, '
        '1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [], "coeff": [{"q": '
        '[-4, 3, 2, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 2], '
        '"coeff": [{"q": [-2, 3, 1, 1], "b": 0, "eps": 0}]}, {"bos": [1], '
        '"fer": [], "coeff": [{"q": [-1, 6, 0, 1], "b": 0, "eps": 0}, {"q": '
        '[0, 1, 1, 5], "b": 0, "eps": 1}]}, {"bos": [0], "fer": [], "coeff": '
        '[{"q": [4, 3, -2, 1], "b": 0, "eps": 0}, {"q": [-9, 4, 0, 1], "b": '
        '1, "eps": 0}]}]}',
        '(2/3-i) x_{1}^{2}q_{1}q_{2} e^{x^2/2} + (-4/3+2i) x_{1}^{2} e^{x^'
        '2/2} + (-2/3+i) q_{1}q_{2} e^{x^2/2} + (-1/6+1/5i\\sqrt{2}) x_{1} '
        'e^{x^2/2} + ((4/3-2i)-9/4\\pi^{1/2}) e^{x^2/2}',
        '[(-9/8*pi^(-1/2)) + ((2/3-i)*pi^-1)*p^2]*exp(-p^2/2) + '
        '[((-1+3/2*i)*pi^-1)*p^2 + ((1/3-1/2*i)*pi^-1)*p^4]*exp(-p^2/2) (x) '
        'wf1wf2 + [(1/12*i*pi^-1 + 1/10*sqrt2*pi^-1)*p]*exp(-p^2/2) (x) w1',
        '{"envelope": "exp(-p^2/2)", "terms": [{"omega_bos": [0], '
        '"omega_fer": [], "p_poly": [[0, [{"q": [-9, 8, 0, 1], "b": -1, '
        '"eps": 0}]], [2, [{"q": [2, 3, -1, 1], "b": -2, "eps": 0}]]]}, '
        '{"omega_bos": [0], "omega_fer": [1, 2], "p_poly": [[2, [{"q": [-1, '
        '1, 3, 2], "b": -2, "eps": 0}]], [4, [{"q": [1, 3, -1, 2], "b": -2, '
        '"eps": 0}]]]}, {"omega_bos": [1], "omega_fer": [], "p_poly": [[1, '
        '[{"q": [0, 1, 1, 12], "b": -2, "eps": 0}, {"q": [1, 10, 0, 1], "b": '
        '-2, "eps": 1}]]]}], "schema": "supertransform/1"}',
        '[(-9/8*pi^(-1/2)) + ((2/3-i)*pi^-1)*p^2]*exp(-p^2/2) + '
        '[((-1+3/2*i)*pi^-1)*p^2 + ((1/3-1/2*i)*pi^-1)*p^4]*exp(-p^2/2) (x) '
        'wf1wf2 + [(1/12*i*pi^-1 + 1/10*sqrt2*pi^-1)*p]*exp(-p^2/2) (x) w1',
    ),
    (2, 2,
     '(5/7*i*x2^2 - 1/3*sqrt2*pi^(-3/2)*q1q3 - i*x1*q2q4)*G'): (
        '-i*x1*q2q4*G + 5/7*i*x2^2*G - 1/3*sqrt2*pi^(-3/2)*q1q3*G',
        '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": true, '
        '"terms": [{"bos": [1, 0], "fer": [2, 4], "coeff": [{"q": [0, 1, -1, '
        '1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [], "coeff": [{"q": '
        '[0, 1, 5, 7], "b": 0, "eps": 0}]}, {"bos": [0, 0], "fer": [1, 3], '
        '"coeff": [{"q": [-1, 3, 0, 1], "b": -3, "eps": 1}]}]}',
        '-i x_{1}q_{2}q_{4} e^{x^2/2} + 5/7i x_{2}^{2} e^{x^2/2} - 1/3\\sqrt'
        '{2}\\pi^{-3/2} q_{1}q_{3} e^{x^2/2}',
        '-x1*q2q4*G - 5/7*i*x2^2*G + 1/3*sqrt2*pi^(-3/2)*q1q3*G + 5/7*i*G',
        '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": true, '
        '"terms": [{"bos": [1, 0], "fer": [2, 4], "coeff": [{"q": [-1, 1, 0, '
        '1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [], "coeff": [{"q": '
        '[0, 1, -5, 7], "b": 0, "eps": 0}]}, {"bos": [0, 0], "fer": [1, 3], '
        '"coeff": [{"q": [1, 3, 0, 1], "b": -3, "eps": 1}]}, {"bos": [0, 0], '
        '"fer": [], "coeff": [{"q": [0, 1, 5, 7], "b": 0, "eps": 0}]}]}',
        '-x_{1}q_{2}q_{4} e^{x^2/2} - 5/7i x_{2}^{2} e^{x^2/2} + 1/3\\sqrt{2'
        '}\\pi^{-3/2} q_{1}q_{3} e^{x^2/2} + 5/7i e^{x^2/2}',
        '[(5/28*i*sqrt2*pi^(-3/2))*p^2]*exp(-p^2/2) + '
        '[(-5/28*i*sqrt2*pi^(-3/2)) + '
        '(5/28*i*sqrt2*pi^(-3/2))*p^2]*exp(-p^2/2) (x) wf1wf2 + [(1/6*pi^-3) '
        '+ (-1/6*pi^-3)*p^2]*exp(-p^2/2) (x) wf1wf3 + '
        '[(-5/28*i*sqrt2*pi^(-3/2)) + '
        '(5/28*i*sqrt2*pi^(-3/2))*p^2]*exp(-p^2/2) (x) wf3wf4 + '
        '[(3/4*i*sqrt2*pi^(-3/2))*p + '
        '(-1/4*i*sqrt2*pi^(-3/2))*p^3]*exp(-p^2/2) (x) w1*wf2wf4 + '
        '[(5/28*i*sqrt2*pi^(-3/2)) + '
        '(-5/28*i*sqrt2*pi^(-3/2))*p^2]*exp(-p^2/2) (x) w1^2',
        '{"envelope": "exp(-p^2/2)", "terms": [{"omega_bos": [0, 0], '
        '"omega_fer": [], "p_poly": [[2, [{"q": [0, 1, 5, 28], "b": -3, '
        '"eps": 1}]]]}, {"omega_bos": [0, 0], "omega_fer": [1, 2], "p_poly": '
        '[[0, [{"q": [0, 1, -5, 28], "b": -3, "eps": 1}]], [2, [{"q": [0, 1, '
        '5, 28], "b": -3, "eps": 1}]]]}, {"omega_bos": [0, 0], "omega_fer": '
        '[1, 3], "p_poly": [[0, [{"q": [1, 6, 0, 1], "b": -6, "eps": 0}]], '
        '[2, [{"q": [-1, 6, 0, 1], "b": -6, "eps": 0}]]]}, {"omega_bos": [0, '
        '0], "omega_fer": [3, 4], "p_poly": [[0, [{"q": [0, 1, -5, 28], "b": '
        '-3, "eps": 1}]], [2, [{"q": [0, 1, 5, 28], "b": -3, "eps": 1}]]]}, '
        '{"omega_bos": [1, 0], "omega_fer": [2, 4], "p_poly": [[1, [{"q": '
        '[0, 1, 3, 4], "b": -3, "eps": 1}]], [3, [{"q": [0, 1, -1, 4], "b": '
        '-3, "eps": 1}]]]}, {"omega_bos": [2, 0], "omega_fer": [], "p_poly": '
        '[[0, [{"q": [0, 1, 5, 28], "b": -3, "eps": 1}]], [2, [{"q": [0, 1, '
        '-5, 28], "b": -3, "eps": 1}]]]}], "schema": "supertransform/1"}',
        '[(5/28*i*sqrt2*pi^(-3/2))*p^2]*exp(-p^2/2) + '
        '[(-5/28*i*sqrt2*pi^(-3/2)) + '
        '(5/28*i*sqrt2*pi^(-3/2))*p^2]*exp(-p^2/2) (x) wf1wf2 + [(1/6*pi^-3) '
        '+ (-1/6*pi^-3)*p^2]*exp(-p^2/2) (x) wf1wf3 + '
        '[(-5/28*i*sqrt2*pi^(-3/2)) + '
        '(5/28*i*sqrt2*pi^(-3/2))*p^2]*exp(-p^2/2) (x) wf3wf4 + '
        '[(3/4*i*sqrt2*pi^(-3/2))*p + '
        '(-1/4*i*sqrt2*pi^(-3/2))*p^3]*exp(-p^2/2) (x) w1*wf2wf4 + '
        '[(5/28*i*sqrt2*pi^(-3/2)) + '
        '(-5/28*i*sqrt2*pi^(-3/2))*p^2]*exp(-p^2/2) (x) w1^2',
    ),
}


@pytest.mark.parametrize("cmd", range(len(_SCALAR_COMMANDS)),
                         ids=[" ".join(c) for c in _SCALAR_COMMANDS])
@pytest.mark.parametrize("m, n, text", list(_SCALAR_GOLDEN))
def test_cli_scalar_golden_outputs(capsys, m, n, text, cmd):
    command, fmt = _SCALAR_COMMANDS[cmd]
    code = main(["--m", str(m), "--n", str(n), "--format", fmt, command,
                 text])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == \
        (0, _SCALAR_GOLDEN[m, n, text][cmd] + "\n", "")


# Output of the exact transforms while super_fourier read its pair rows off
# the kernel route and frac_fourier sent integral orders to super_fourier:
# a change to either route must keep these bytes.  Per input (m, n, text
# and the second Parseval operand), in the order of _TRANSFORM_COMMANDS,
# one output per format of _TRANSFORM_FORMATS; a refusal is its stderr
# line.
_TRANSFORM_COMMANDS = (("fourier", "--sign", "+"),
                       ("fourier", "--sign", "-"),
                       ("fracfourier", "--a", "1"),
                       ("fracfourier", "--a", "-1"),
                       ("radon",), ("parseval",))
_TRANSFORM_FORMATS = ("text", "json", "latex")
_TRANSFORM_GOLDEN = {
    (0, 1, 'G',
     '(1 + q1q2)*G'): (
        (
            'G',
            '{"schema": "supertransform/1", "m": 0, "n": 1, "envelope": '
            'true, "terms": [{"bos": [], "fer": [], "coeff": [{"q": [1, 1, '
            '0, 1], "b": 0, "eps": 0}]}]}',
            'e^{x^2/2}',
        ),
        (
            'G',
            '{"schema": "supertransform/1", "m": 0, "n": 1, "envelope": '
            'true, "terms": [{"bos": [], "fer": [], "coeff": [{"q": [1, 1, '
            '0, 1], "b": 0, "eps": 0}]}]}',
            'e^{x^2/2}',
        ),
        (
            'G',
            '{"schema": "supertransform/1", "m": 0, "n": 1, "envelope": '
            'true, "terms": [{"bos": [], "fer": [], "coeff": [{"q": [1, 1, '
            '0, 1], "b": 0, "eps": 0}]}]}',
            'e^{x^2/2}',
        ),
        (
            'G',
            '{"schema": "supertransform/1", "m": 0, "n": 1, "envelope": '
            'true, "terms": [{"bos": [], "fer": [], "coeff": [{"q": [1, 1, '
            '0, 1], "b": 0, "eps": 0}]}]}',
            'e^{x^2/2}',
        ),
        (
            'error: no purely fermionic Radon transform',
            'error: no purely fermionic Radon transform',
            'error: no purely fermionic Radon transform',
        ),
        (
            'true',
            'true',
            'true',
        ),
    ),
    (0, 1, '(q1 + 2/3*i*q1q2)*G',
     '(1 + q1q2)*G'): (
        (
            '-2/3*i*q1q2*G + i*q1*G + 4/3*i*G',
            '{"schema": "supertransform/1", "m": 0, "n": 1, "envelope": '
            'true, "terms": [{"bos": [], "fer": [1, 2], "coeff": [{"q": [0, '
            '1, -2, 3], "b": 0, "eps": 0}]}, {"bos": [], "fer": [1], '
            '"coeff": [{"q": [0, 1, 1, 1], "b": 0, "eps": 0}]}, {"bos": [], '
            '"fer": [], "coeff": [{"q": [0, 1, 4, 3], "b": 0, "eps": 0}]}]}',
            '-2/3i q_{1}q_{2} e^{x^2/2} + i q_{1} e^{x^2/2} + 4/3i e^{x^2/2}',
        ),
        (
            '-2/3*i*q1q2*G - i*q1*G + 4/3*i*G',
            '{"schema": "supertransform/1", "m": 0, "n": 1, "envelope": '
            'true, "terms": [{"bos": [], "fer": [1, 2], "coeff": [{"q": [0, '
            '1, -2, 3], "b": 0, "eps": 0}]}, {"bos": [], "fer": [1], '
            '"coeff": [{"q": [0, 1, -1, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[], "fer": [], "coeff": [{"q": [0, 1, 4, 3], "b": 0, "eps": '
            '0}]}]}',
            '-2/3i q_{1}q_{2} e^{x^2/2} - i q_{1} e^{x^2/2} + 4/3i e^{x^2/2}',
        ),
        (
            '-2/3*i*q1q2*G + i*q1*G + 4/3*i*G',
            '{"schema": "supertransform/1", "m": 0, "n": 1, "envelope": '
            'true, "terms": [{"bos": [], "fer": [1, 2], "coeff": [{"q": [0, '
            '1, -2, 3], "b": 0, "eps": 0}]}, {"bos": [], "fer": [1], '
            '"coeff": [{"q": [0, 1, 1, 1], "b": 0, "eps": 0}]}, {"bos": [], '
            '"fer": [], "coeff": [{"q": [0, 1, 4, 3], "b": 0, "eps": 0}]}]}',
            '-2/3i q_{1}q_{2} e^{x^2/2} + i q_{1} e^{x^2/2} + 4/3i e^{x^2/2}',
        ),
        (
            '-2/3*i*q1q2*G - i*q1*G + 4/3*i*G',
            '{"schema": "supertransform/1", "m": 0, "n": 1, "envelope": '
            'true, "terms": [{"bos": [], "fer": [1, 2], "coeff": [{"q": [0, '
            '1, -2, 3], "b": 0, "eps": 0}]}, {"bos": [], "fer": [1], '
            '"coeff": [{"q": [0, 1, -1, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[], "fer": [], "coeff": [{"q": [0, 1, 4, 3], "b": 0, "eps": '
            '0}]}]}',
            '-2/3i q_{1}q_{2} e^{x^2/2} - i q_{1} e^{x^2/2} + 4/3i e^{x^2/2}',
        ),
        (
            'error: no purely fermionic Radon transform',
            'error: no purely fermionic Radon transform',
            'error: no purely fermionic Radon transform',
        ),
        (
            'true',
            'true',
            'true',
        ),
    ),
    (0, 1, '1 + q1 - 1/2*q1q2',
     'q2 + 3*q1q2'): (
        (
            '1/2*q1q2 + i*q1 - 1',
            '{"schema": "supertransform/1", "m": 0, "n": 1, "envelope": '
            'false, "terms": [{"bos": [], "fer": [1, 2], "coeff": [{"q": '
            '[1, 2, 0, 1], "b": 0, "eps": 0}]}, {"bos": [], "fer": [1], '
            '"coeff": [{"q": [0, 1, 1, 1], "b": 0, "eps": 0}]}, {"bos": [], '
            '"fer": [], "coeff": [{"q": [-1, 1, 0, 1], "b": 0, "eps": 0}]}]}',
            '1/2 q_{1}q_{2} + i q_{1} - 1',
        ),
        (
            '1/2*q1q2 - i*q1 - 1',
            '{"schema": "supertransform/1", "m": 0, "n": 1, "envelope": '
            'false, "terms": [{"bos": [], "fer": [1, 2], "coeff": [{"q": '
            '[1, 2, 0, 1], "b": 0, "eps": 0}]}, {"bos": [], "fer": [1], '
            '"coeff": [{"q": [0, 1, -1, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[], "fer": [], "coeff": [{"q": [-1, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}',
            '1/2 q_{1}q_{2} - i q_{1} - 1',
        ),
        (
            'error: fractional transform requires the marker G',
            'error: fractional transform requires the marker G',
            'error: fractional transform requires the marker G',
        ),
        (
            'error: fractional transform requires the marker G',
            'error: fractional transform requires the marker G',
            'error: fractional transform requires the marker G',
        ),
        (
            'error: Radon transform requires the marker G',
            'error: Radon transform requires the marker G',
            'error: Radon transform requires the marker G',
        ),
        (
            'true',
            'true',
            'true',
        ),
    ),
    (1, 1, 'x1^3*q1*G',
     '(x1 - q1)*G'): (
        (
            'x1^3*q1*G - 3*x1*q1*G',
            '{"schema": "supertransform/1", "m": 1, "n": 1, "envelope": '
            'true, "terms": [{"bos": [3], "fer": [1], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [1], '
            '"coeff": [{"q": [-3, 1, 0, 1], "b": 0, "eps": 0}]}]}',
            'x_{1}^{3}q_{1} e^{x^2/2} - 3 x_{1}q_{1} e^{x^2/2}',
        ),
        (
            'x1^3*q1*G - 3*x1*q1*G',
            '{"schema": "supertransform/1", "m": 1, "n": 1, "envelope": '
            'true, "terms": [{"bos": [3], "fer": [1], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [1], '
            '"coeff": [{"q": [-3, 1, 0, 1], "b": 0, "eps": 0}]}]}',
            'x_{1}^{3}q_{1} e^{x^2/2} - 3 x_{1}q_{1} e^{x^2/2}',
        ),
        (
            'x1^3*q1*G - 3*x1*q1*G',
            '{"schema": "supertransform/1", "m": 1, "n": 1, "envelope": '
            'true, "terms": [{"bos": [3], "fer": [1], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [1], '
            '"coeff": [{"q": [-3, 1, 0, 1], "b": 0, "eps": 0}]}]}',
            'x_{1}^{3}q_{1} e^{x^2/2} - 3 x_{1}q_{1} e^{x^2/2}',
        ),
        (
            'x1^3*q1*G - 3*x1*q1*G',
            '{"schema": "supertransform/1", "m": 1, "n": 1, "envelope": '
            'true, "terms": [{"bos": [3], "fer": [1], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [1], '
            '"coeff": [{"q": [-3, 1, 0, 1], "b": 0, "eps": 0}]}]}',
            'x_{1}^{3}q_{1} e^{x^2/2} - 3 x_{1}q_{1} e^{x^2/2}',
        ),
        (
            '[(-3/2*pi^-1)*p^2 + (1/2*pi^-1)*p^4]*exp(-p^2/2) (x) w1*wf1',
            '{"envelope": "exp(-p^2/2)", "terms": [{"omega_bos": [1], '
            '"omega_fer": [1], "p_poly": [[2, [{"q": [-3, 2, 0, 1], "b": '
            '-2, "eps": 0}]], [4, [{"q": [1, 2, 0, 1], "b": -2, "eps": '
            '0}]]]}], "schema": "supertransform/1"}',
            '[(-3/2*pi^-1)*p^2 + (1/2*pi^-1)*p^4]*exp(-p^2/2) (x) w1*wf1',
        ),
        (
            'true',
            'true',
            'true',
        ),
    ),
    (1, 1, '(3/4 - 5/6*i)*sqrt2*x1^2*q1q2*G + 1/3*q2*G',
     '(x1 - q1)*G'): (
        (
            '(3/4-5/6*i)*sqrt2*x1^2*q1q2*G + (-3/2+5/3*i)*sqrt2*x1^2*G + '
            '(-3/4+5/6*i)*sqrt2*q1q2*G + 1/3*i*q2*G + (3/2-5/3*i)*sqrt2*G',
            '{"schema": "supertransform/1", "m": 1, "n": 1, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [1, 2], "coeff": [{"q": '
            '[3, 4, -5, 6], "b": 0, "eps": 1}]}, {"bos": [2], "fer": [], '
            '"coeff": [{"q": [-3, 2, 5, 3], "b": 0, "eps": 1}]}, {"bos": '
            '[0], "fer": [1, 2], "coeff": [{"q": [-3, 4, 5, 6], "b": 0, '
            '"eps": 1}]}, {"bos": [0], "fer": [2], "coeff": [{"q": [0, 1, '
            '1, 3], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [], "coeff": '
            '[{"q": [3, 2, -5, 3], "b": 0, "eps": 1}]}]}',
            '(3/4-5/6i)\\sqrt{2} x_{1}^{2}q_{1}q_{2} e^{x^2/2} + (-3/2+5/3i'
            ')\\sqrt{2} x_{1}^{2} e^{x^2/2} + (-3/4+5/6i)\\sqrt{2} q_{1}q_{2'
            '} e^{x^2/2} + 1/3i q_{2} e^{x^2/2} + (3/2-5/3i)\\sqrt{2} e^{x^'
            '2/2}',
        ),
        (
            '(3/4-5/6*i)*sqrt2*x1^2*q1q2*G + (-3/2+5/3*i)*sqrt2*x1^2*G + '
            '(-3/4+5/6*i)*sqrt2*q1q2*G - 1/3*i*q2*G + (3/2-5/3*i)*sqrt2*G',
            '{"schema": "supertransform/1", "m": 1, "n": 1, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [1, 2], "coeff": [{"q": '
            '[3, 4, -5, 6], "b": 0, "eps": 1}]}, {"bos": [2], "fer": [], '
            '"coeff": [{"q": [-3, 2, 5, 3], "b": 0, "eps": 1}]}, {"bos": '
            '[0], "fer": [1, 2], "coeff": [{"q": [-3, 4, 5, 6], "b": 0, '
            '"eps": 1}]}, {"bos": [0], "fer": [2], "coeff": [{"q": [0, 1, '
            '-1, 3], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [], "coeff": '
            '[{"q": [3, 2, -5, 3], "b": 0, "eps": 1}]}]}',
            '(3/4-5/6i)\\sqrt{2} x_{1}^{2}q_{1}q_{2} e^{x^2/2} + (-3/2+5/3i'
            ')\\sqrt{2} x_{1}^{2} e^{x^2/2} + (-3/4+5/6i)\\sqrt{2} q_{1}q_{2'
            '} e^{x^2/2} - 1/3i q_{2} e^{x^2/2} + (3/2-5/3i)\\sqrt{2} e^{x^'
            '2/2}',
        ),
        (
            '(3/4-5/6*i)*sqrt2*x1^2*q1q2*G + (-3/2+5/3*i)*sqrt2*x1^2*G + '
            '(-3/4+5/6*i)*sqrt2*q1q2*G + 1/3*i*q2*G + (3/2-5/3*i)*sqrt2*G',
            '{"schema": "supertransform/1", "m": 1, "n": 1, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [1, 2], "coeff": [{"q": '
            '[3, 4, -5, 6], "b": 0, "eps": 1}]}, {"bos": [2], "fer": [], '
            '"coeff": [{"q": [-3, 2, 5, 3], "b": 0, "eps": 1}]}, {"bos": '
            '[0], "fer": [1, 2], "coeff": [{"q": [-3, 4, 5, 6], "b": 0, '
            '"eps": 1}]}, {"bos": [0], "fer": [2], "coeff": [{"q": [0, 1, '
            '1, 3], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [], "coeff": '
            '[{"q": [3, 2, -5, 3], "b": 0, "eps": 1}]}]}',
            '(3/4-5/6i)\\sqrt{2} x_{1}^{2}q_{1}q_{2} e^{x^2/2} + (-3/2+5/3i'
            ')\\sqrt{2} x_{1}^{2} e^{x^2/2} + (-3/4+5/6i)\\sqrt{2} q_{1}q_{2'
            '} e^{x^2/2} + 1/3i q_{2} e^{x^2/2} + (3/2-5/3i)\\sqrt{2} e^{x^'
            '2/2}',
        ),
        (
            '(3/4-5/6*i)*sqrt2*x1^2*q1q2*G + (-3/2+5/3*i)*sqrt2*x1^2*G + '
            '(-3/4+5/6*i)*sqrt2*q1q2*G - 1/3*i*q2*G + (3/2-5/3*i)*sqrt2*G',
            '{"schema": "supertransform/1", "m": 1, "n": 1, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [1, 2], "coeff": [{"q": '
            '[3, 4, -5, 6], "b": 0, "eps": 1}]}, {"bos": [2], "fer": [], '
            '"coeff": [{"q": [-3, 2, 5, 3], "b": 0, "eps": 1}]}, {"bos": '
            '[0], "fer": [1, 2], "coeff": [{"q": [-3, 4, 5, 6], "b": 0, '
            '"eps": 1}]}, {"bos": [0], "fer": [2], "coeff": [{"q": [0, 1, '
            '-1, 3], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [], "coeff": '
            '[{"q": [3, 2, -5, 3], "b": 0, "eps": 1}]}]}',
            '(3/4-5/6i)\\sqrt{2} x_{1}^{2}q_{1}q_{2} e^{x^2/2} + (-3/2+5/3i'
            ')\\sqrt{2} x_{1}^{2} e^{x^2/2} + (-3/4+5/6i)\\sqrt{2} q_{1}q_{2'
            '} e^{x^2/2} - 1/3i q_{2} e^{x^2/2} + (3/2-5/3i)\\sqrt{2} e^{x^'
            '2/2}',
        ),
        (
            '[((3/4-5/6*i)*sqrt2*pi^-1)*p^2]*exp(-p^2/2) + '
            '[(1/6*pi^-1)*p]*exp(-p^2/2) (x) wf2 + '
            '[((-9/8+5/4*i)*sqrt2*pi^-1)*p^2 + '
            '((3/8-5/12*i)*sqrt2*pi^-1)*p^4]*exp(-p^2/2) (x) wf1wf2',
            '{"envelope": "exp(-p^2/2)", "terms": [{"omega_bos": [0], '
            '"omega_fer": [], "p_poly": [[2, [{"q": [3, 4, -5, 6], "b": -2, '
            '"eps": 1}]]]}, {"omega_bos": [0], "omega_fer": [2], "p_poly": '
            '[[1, [{"q": [1, 6, 0, 1], "b": -2, "eps": 0}]]]}, '
            '{"omega_bos": [0], "omega_fer": [1, 2], "p_poly": [[2, [{"q": '
            '[-9, 8, 5, 4], "b": -2, "eps": 1}]], [4, [{"q": [3, 8, -5, '
            '12], "b": -2, "eps": 1}]]]}], "schema": "supertransform/1"}',
            '[((3/4-5/6*i)*sqrt2*pi^-1)*p^2]*exp(-p^2/2) + '
            '[(1/6*pi^-1)*p]*exp(-p^2/2) (x) wf2 + '
            '[((-9/8+5/4*i)*sqrt2*pi^-1)*p^2 + '
            '((3/8-5/12*i)*sqrt2*pi^-1)*p^4]*exp(-p^2/2) (x) wf1wf2',
        ),
        (
            'true',
            'true',
            'true',
        ),
    ),
    (2, 1, '(x1*x2 - q1q2 + 2)*G',
     '(x1^2 + q1q2)*G'): (
        (
            '-x1*x2*G + q1q2*G',
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [1, 1], "fer": [], "coeff": [{"q": '
            '[-1, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 0], "fer": [1, '
            '2], "coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}',
            '-x_{1}x_{2} e^{x^2/2} + q_{1}q_{2} e^{x^2/2}',
        ),
        (
            '-x1*x2*G + q1q2*G',
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [1, 1], "fer": [], "coeff": [{"q": '
            '[-1, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 0], "fer": [1, '
            '2], "coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}',
            '-x_{1}x_{2} e^{x^2/2} + q_{1}q_{2} e^{x^2/2}',
        ),
        (
            '-x1*x2*G + q1q2*G',
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [1, 1], "fer": [], "coeff": [{"q": '
            '[-1, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 0], "fer": [1, '
            '2], "coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}',
            '-x_{1}x_{2} e^{x^2/2} + q_{1}q_{2} e^{x^2/2}',
        ),
        (
            '-x1*x2*G + q1q2*G',
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [1, 1], "fer": [], "coeff": [{"q": '
            '[-1, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 0], "fer": [1, '
            '2], "coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}',
            '-x_{1}x_{2} e^{x^2/2} + q_{1}q_{2} e^{x^2/2}',
        ),
        (
            '[(1/2*sqrt2*pi^(-1/2)) + '
            '(-1/2*sqrt2*pi^(-1/2))*p^2]*exp(-p^2/2) (x) wf1wf2 + '
            '[(-1/2*sqrt2*pi^(-1/2)) + '
            '(1/2*sqrt2*pi^(-1/2))*p^2]*exp(-p^2/2) (x) w1*w2',
            '{"envelope": "exp(-p^2/2)", "terms": [{"omega_bos": [0, 0], '
            '"omega_fer": [1, 2], "p_poly": [[0, [{"q": [1, 2, 0, 1], "b": '
            '-1, "eps": 1}]], [2, [{"q": [-1, 2, 0, 1], "b": -1, "eps": '
            '1}]]]}, {"omega_bos": [1, 1], "omega_fer": [], "p_poly": [[0, '
            '[{"q": [-1, 2, 0, 1], "b": -1, "eps": 1}]], [2, [{"q": [1, 2, '
            '0, 1], "b": -1, "eps": 1}]]]}], "schema": "supertransform/1"}',
            '[(1/2*sqrt2*pi^(-1/2)) + '
            '(-1/2*sqrt2*pi^(-1/2))*p^2]*exp(-p^2/2) (x) wf1wf2 + '
            '[(-1/2*sqrt2*pi^(-1/2)) + '
            '(1/2*sqrt2*pi^(-1/2))*p^2]*exp(-p^2/2) (x) w1*w2',
        ),
        (
            'true',
            'true',
            'true',
        ),
    ),
    (2, 1, 'x2^2*q2*G',
     '(x1^2 + q1q2)*G'): (
        (
            '-i*x2^2*q2*G + i*q2*G',
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [0, 2], "fer": [2], "coeff": [{"q": '
            '[0, 1, -1, 1], "b": 0, "eps": 0}]}, {"bos": [0, 0], "fer": '
            '[2], "coeff": [{"q": [0, 1, 1, 1], "b": 0, "eps": 0}]}]}',
            '-i x_{2}^{2}q_{2} e^{x^2/2} + i q_{2} e^{x^2/2}',
        ),
        (
            'i*x2^2*q2*G - i*q2*G',
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [0, 2], "fer": [2], "coeff": [{"q": '
            '[0, 1, 1, 1], "b": 0, "eps": 0}]}, {"bos": [0, 0], "fer": [2], '
            '"coeff": [{"q": [0, 1, -1, 1], "b": 0, "eps": 0}]}]}',
            'i x_{2}^{2}q_{2} e^{x^2/2} - i q_{2} e^{x^2/2}',
        ),
        (
            '-i*x2^2*q2*G + i*q2*G',
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [0, 2], "fer": [2], "coeff": [{"q": '
            '[0, 1, -1, 1], "b": 0, "eps": 0}]}, {"bos": [0, 0], "fer": '
            '[2], "coeff": [{"q": [0, 1, 1, 1], "b": 0, "eps": 0}]}]}',
            '-i x_{2}^{2}q_{2} e^{x^2/2} + i q_{2} e^{x^2/2}',
        ),
        (
            'i*x2^2*q2*G - i*q2*G',
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [0, 2], "fer": [2], "coeff": [{"q": '
            '[0, 1, 1, 1], "b": 0, "eps": 0}]}, {"bos": [0, 0], "fer": [2], '
            '"coeff": [{"q": [0, 1, -1, 1], "b": 0, "eps": 0}]}]}',
            'i x_{2}^{2}q_{2} e^{x^2/2} - i q_{2} e^{x^2/2}',
        ),
        (
            '[(-sqrt2*pi^(-1/2))*p + (1/2*sqrt2*pi^(-1/2))*p^3]*exp(-p^2/2) '
            '(x) wf2 + [(3/2*sqrt2*pi^(-1/2))*p + '
            '(-1/2*sqrt2*pi^(-1/2))*p^3]*exp(-p^2/2) (x) w1^2*wf2',
            '{"envelope": "exp(-p^2/2)", "terms": [{"omega_bos": [0, 0], '
            '"omega_fer": [2], "p_poly": [[1, [{"q": [-1, 1, 0, 1], "b": '
            '-1, "eps": 1}]], [3, [{"q": [1, 2, 0, 1], "b": -1, "eps": '
            '1}]]]}, {"omega_bos": [2, 0], "omega_fer": [2], "p_poly": [[1, '
            '[{"q": [3, 2, 0, 1], "b": -1, "eps": 1}]], [3, [{"q": [-1, 2, '
            '0, 1], "b": -1, "eps": 1}]]]}], "schema": "supertransform/1"}',
            '[(-sqrt2*pi^(-1/2))*p + (1/2*sqrt2*pi^(-1/2))*p^3]*exp(-p^2/2) '
            '(x) wf2 + [(3/2*sqrt2*pi^(-1/2))*p + '
            '(-1/2*sqrt2*pi^(-1/2))*p^3]*exp(-p^2/2) (x) w1^2*wf2',
        ),
        (
            'true',
            'true',
            'true',
        ),
    ),
    (0, 2, '(q1q2q3q4 - i*q2q3)*G',
     '(q1q2 + q3q4)*G'): (
        (
            'q1q2q3q4*G - 2*q1q2*G + i*q2q3*G - 2*q3q4*G + 4*G',
            '{"schema": "supertransform/1", "m": 0, "n": 2, "envelope": '
            'true, "terms": [{"bos": [], "fer": [1, 2, 3, 4], "coeff": '
            '[{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [], "fer": '
            '[1, 2], "coeff": [{"q": [-2, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [], "fer": [2, 3], "coeff": [{"q": [0, 1, 1, 1], "b": '
            '0, "eps": 0}]}, {"bos": [], "fer": [3, 4], "coeff": [{"q": '
            '[-2, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [], "fer": [], '
            '"coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}]}',
            'q_{1}q_{2}q_{3}q_{4} e^{x^2/2} - 2 q_{1}q_{2} e^{x^2/2} + i q_{'
            '2}q_{3} e^{x^2/2} - 2 q_{3}q_{4} e^{x^2/2} + 4 e^{x^2/2}',
        ),
        (
            'q1q2q3q4*G - 2*q1q2*G + i*q2q3*G - 2*q3q4*G + 4*G',
            '{"schema": "supertransform/1", "m": 0, "n": 2, "envelope": '
            'true, "terms": [{"bos": [], "fer": [1, 2, 3, 4], "coeff": '
            '[{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [], "fer": '
            '[1, 2], "coeff": [{"q": [-2, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [], "fer": [2, 3], "coeff": [{"q": [0, 1, 1, 1], "b": '
            '0, "eps": 0}]}, {"bos": [], "fer": [3, 4], "coeff": [{"q": '
            '[-2, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [], "fer": [], '
            '"coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}]}',
            'q_{1}q_{2}q_{3}q_{4} e^{x^2/2} - 2 q_{1}q_{2} e^{x^2/2} + i q_{'
            '2}q_{3} e^{x^2/2} - 2 q_{3}q_{4} e^{x^2/2} + 4 e^{x^2/2}',
        ),
        (
            'q1q2q3q4*G - 2*q1q2*G + i*q2q3*G - 2*q3q4*G + 4*G',
            '{"schema": "supertransform/1", "m": 0, "n": 2, "envelope": '
            'true, "terms": [{"bos": [], "fer": [1, 2, 3, 4], "coeff": '
            '[{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [], "fer": '
            '[1, 2], "coeff": [{"q": [-2, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [], "fer": [2, 3], "coeff": [{"q": [0, 1, 1, 1], "b": '
            '0, "eps": 0}]}, {"bos": [], "fer": [3, 4], "coeff": [{"q": '
            '[-2, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [], "fer": [], '
            '"coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}]}',
            'q_{1}q_{2}q_{3}q_{4} e^{x^2/2} - 2 q_{1}q_{2} e^{x^2/2} + i q_{'
            '2}q_{3} e^{x^2/2} - 2 q_{3}q_{4} e^{x^2/2} + 4 e^{x^2/2}',
        ),
        (
            'q1q2q3q4*G - 2*q1q2*G + i*q2q3*G - 2*q3q4*G + 4*G',
            '{"schema": "supertransform/1", "m": 0, "n": 2, "envelope": '
            'true, "terms": [{"bos": [], "fer": [1, 2, 3, 4], "coeff": '
            '[{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [], "fer": '
            '[1, 2], "coeff": [{"q": [-2, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [], "fer": [2, 3], "coeff": [{"q": [0, 1, 1, 1], "b": '
            '0, "eps": 0}]}, {"bos": [], "fer": [3, 4], "coeff": [{"q": '
            '[-2, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [], "fer": [], '
            '"coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}]}',
            'q_{1}q_{2}q_{3}q_{4} e^{x^2/2} - 2 q_{1}q_{2} e^{x^2/2} + i q_{'
            '2}q_{3} e^{x^2/2} - 2 q_{3}q_{4} e^{x^2/2} + 4 e^{x^2/2}',
        ),
        (
            'error: no purely fermionic Radon transform',
            'error: no purely fermionic Radon transform',
            'error: no purely fermionic Radon transform',
        ),
        (
            'true',
            'true',
            'true',
        ),
    ),
    (0, 2, 'q1q2q3q4 + 1/3*q2q3 - 5',
     'q1q2 - i*q3'): (
        (
            '-5/4*q1q2q3q4 - 1/3*q2q3 + 4',
            '{"schema": "supertransform/1", "m": 0, "n": 2, "envelope": '
            'false, "terms": [{"bos": [], "fer": [1, 2, 3, 4], "coeff": '
            '[{"q": [-5, 4, 0, 1], "b": 0, "eps": 0}]}, {"bos": [], "fer": '
            '[2, 3], "coeff": [{"q": [-1, 3, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [], "fer": [], "coeff": [{"q": [4, 1, 0, 1], "b": 0, '
            '"eps": 0}]}]}',
            '-5/4 q_{1}q_{2}q_{3}q_{4} - 1/3 q_{2}q_{3} + 4',
        ),
        (
            '-5/4*q1q2q3q4 - 1/3*q2q3 + 4',
            '{"schema": "supertransform/1", "m": 0, "n": 2, "envelope": '
            'false, "terms": [{"bos": [], "fer": [1, 2, 3, 4], "coeff": '
            '[{"q": [-5, 4, 0, 1], "b": 0, "eps": 0}]}, {"bos": [], "fer": '
            '[2, 3], "coeff": [{"q": [-1, 3, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [], "fer": [], "coeff": [{"q": [4, 1, 0, 1], "b": 0, '
            '"eps": 0}]}]}',
            '-5/4 q_{1}q_{2}q_{3}q_{4} - 1/3 q_{2}q_{3} + 4',
        ),
        (
            'error: fractional transform requires the marker G',
            'error: fractional transform requires the marker G',
            'error: fractional transform requires the marker G',
        ),
        (
            'error: fractional transform requires the marker G',
            'error: fractional transform requires the marker G',
            'error: fractional transform requires the marker G',
        ),
        (
            'error: Radon transform requires the marker G',
            'error: Radon transform requires the marker G',
            'error: Radon transform requires the marker G',
        ),
        (
            'true',
            'true',
            'true',
        ),
    ),
    (0, 2, 'sqrt2*pi^(-1/2)*q4',
     'q1q2 - i*q3'): (
        (
            '1/2*i*sqrt2*pi^(-1/2)*q1q2q4',
            '{"schema": "supertransform/1", "m": 0, "n": 2, "envelope": '
            'false, "terms": [{"bos": [], "fer": [1, 2, 4], "coeff": [{"q": '
            '[0, 1, 1, 2], "b": -1, "eps": 1}]}]}',
            '1/2i\\sqrt{2}\\pi^{-1/2} q_{1}q_{2}q_{4}',
        ),
        (
            '-1/2*i*sqrt2*pi^(-1/2)*q1q2q4',
            '{"schema": "supertransform/1", "m": 0, "n": 2, "envelope": '
            'false, "terms": [{"bos": [], "fer": [1, 2, 4], "coeff": [{"q": '
            '[0, 1, -1, 2], "b": -1, "eps": 1}]}]}',
            '-1/2i\\sqrt{2}\\pi^{-1/2} q_{1}q_{2}q_{4}',
        ),
        (
            'error: fractional transform requires the marker G',
            'error: fractional transform requires the marker G',
            'error: fractional transform requires the marker G',
        ),
        (
            'error: fractional transform requires the marker G',
            'error: fractional transform requires the marker G',
            'error: fractional transform requires the marker G',
        ),
        (
            'error: Radon transform requires the marker G',
            'error: Radon transform requires the marker G',
            'error: Radon transform requires the marker G',
        ),
        (
            'true',
            'true',
            'true',
        ),
    ),
    (2, 2, '(x1*q1q3 - 1/2*x2^2*q2q4)*G',
     '(x2*q1q2 - q3)*G'): (
        (
            '-1/2*x2^2*q2q4*G - i*x1*q1q3*G + 1/2*q2q4*G',
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [0, 2], "fer": [2, 4], "coeff": [{"q": '
            '[-1, 2, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 0], "fer": [1, '
            '3], "coeff": [{"q": [0, 1, -1, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 0], "fer": [2, 4], "coeff": [{"q": [1, 2, 0, 1], '
            '"b": 0, "eps": 0}]}]}',
            '-1/2 x_{2}^{2}q_{2}q_{4} e^{x^2/2} - i x_{1}q_{1}q_{3} e^{x^2/2'
            '} + 1/2 q_{2}q_{4} e^{x^2/2}',
        ),
        (
            '-1/2*x2^2*q2q4*G + i*x1*q1q3*G + 1/2*q2q4*G',
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [0, 2], "fer": [2, 4], "coeff": [{"q": '
            '[-1, 2, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 0], "fer": [1, '
            '3], "coeff": [{"q": [0, 1, 1, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0, 0], "fer": [2, 4], "coeff": [{"q": [1, 2, 0, 1], "b": 0, '
            '"eps": 0}]}]}',
            '-1/2 x_{2}^{2}q_{2}q_{4} e^{x^2/2} + i x_{1}q_{1}q_{3} '
            'e^{x^2/2} + 1/2 q_{2}q_{4} e^{x^2/2}',
        ),
        (
            '-1/2*x2^2*q2q4*G - i*x1*q1q3*G + 1/2*q2q4*G',
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [0, 2], "fer": [2, 4], "coeff": [{"q": '
            '[-1, 2, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 0], "fer": [1, '
            '3], "coeff": [{"q": [0, 1, -1, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 0], "fer": [2, 4], "coeff": [{"q": [1, 2, 0, 1], '
            '"b": 0, "eps": 0}]}]}',
            '-1/2 x_{2}^{2}q_{2}q_{4} e^{x^2/2} - i x_{1}q_{1}q_{3} e^{x^2/2'
            '} + 1/2 q_{2}q_{4} e^{x^2/2}',
        ),
        (
            '-1/2*x2^2*q2q4*G + i*x1*q1q3*G + 1/2*q2q4*G',
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [0, 2], "fer": [2, 4], "coeff": [{"q": '
            '[-1, 2, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 0], "fer": [1, '
            '3], "coeff": [{"q": [0, 1, 1, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0, 0], "fer": [2, 4], "coeff": [{"q": [1, 2, 0, 1], "b": 0, '
            '"eps": 0}]}]}',
            '-1/2 x_{2}^{2}q_{2}q_{4} e^{x^2/2} + i x_{1}q_{1}q_{3} '
            'e^{x^2/2} + 1/2 q_{2}q_{4} e^{x^2/2}',
        ),
        (
            '[(-1/4*sqrt2*pi^(-3/2)) + (5/8*sqrt2*pi^(-3/2))*p^2 + '
            '(-1/8*sqrt2*pi^(-3/2))*p^4]*exp(-p^2/2) (x) wf2wf4 + '
            '[(-3/4*sqrt2*pi^(-3/2))*p + '
            '(1/4*sqrt2*pi^(-3/2))*p^3]*exp(-p^2/2) (x) w1*wf1wf3 + '
            '[(3/8*sqrt2*pi^(-3/2)) + (-3/4*sqrt2*pi^(-3/2))*p^2 + '
            '(1/8*sqrt2*pi^(-3/2))*p^4]*exp(-p^2/2) (x) w1^2*wf2wf4',
            '{"envelope": "exp(-p^2/2)", "terms": [{"omega_bos": [0, 0], '
            '"omega_fer": [2, 4], "p_poly": [[0, [{"q": [-1, 4, 0, 1], "b": '
            '-3, "eps": 1}]], [2, [{"q": [5, 8, 0, 1], "b": -3, "eps": '
            '1}]], [4, [{"q": [-1, 8, 0, 1], "b": -3, "eps": 1}]]]}, '
            '{"omega_bos": [1, 0], "omega_fer": [1, 3], "p_poly": [[1, '
            '[{"q": [-3, 4, 0, 1], "b": -3, "eps": 1}]], [3, [{"q": [1, 4, '
            '0, 1], "b": -3, "eps": 1}]]]}, {"omega_bos": [2, 0], '
            '"omega_fer": [2, 4], "p_poly": [[0, [{"q": [3, 8, 0, 1], "b": '
            '-3, "eps": 1}]], [2, [{"q": [-3, 4, 0, 1], "b": -3, "eps": '
            '1}]], [4, [{"q": [1, 8, 0, 1], "b": -3, "eps": 1}]]]}], '
            '"schema": "supertransform/1"}',
            '[(-1/4*sqrt2*pi^(-3/2)) + (5/8*sqrt2*pi^(-3/2))*p^2 + '
            '(-1/8*sqrt2*pi^(-3/2))*p^4]*exp(-p^2/2) (x) wf2wf4 + '
            '[(-3/4*sqrt2*pi^(-3/2))*p + '
            '(1/4*sqrt2*pi^(-3/2))*p^3]*exp(-p^2/2) (x) w1*wf1wf3 + '
            '[(3/8*sqrt2*pi^(-3/2)) + (-3/4*sqrt2*pi^(-3/2))*p^2 + '
            '(1/8*sqrt2*pi^(-3/2))*p^4]*exp(-p^2/2) (x) w1^2*wf2wf4',
        ),
        (
            'true',
            'true',
            'true',
        ),
    ),
    (2, 2, '(sqrtpi*x1 + q1q2q3q4)*G',
     '(x2*q1q2 - q3)*G'): (
        (
            'q1q2q3q4*G - 2*q1q2*G - 2*q3q4*G + i*sqrtpi*x1*G + 4*G',
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [0, 0], "fer": [1, 2, 3, 4], "coeff": '
            '[{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 0], '
            '"fer": [1, 2], "coeff": [{"q": [-2, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0, 0], "fer": [3, 4], "coeff": [{"q": [-2, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 0], "fer": [], '
            '"coeff": [{"q": [0, 1, 1, 1], "b": 1, "eps": 0}]}, {"bos": [0, '
            '0], "fer": [], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}',
            'q_{1}q_{2}q_{3}q_{4} e^{x^2/2} - 2 q_{1}q_{2} e^{x^2/2} - 2 q_{'
            '3}q_{4} e^{x^2/2} + i\\pi^{1/2} x_{1} e^{x^2/2} + 4 e^{x^2/2}',
        ),
        (
            'q1q2q3q4*G - 2*q1q2*G - 2*q3q4*G - i*sqrtpi*x1*G + 4*G',
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [0, 0], "fer": [1, 2, 3, 4], "coeff": '
            '[{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 0], '
            '"fer": [1, 2], "coeff": [{"q": [-2, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0, 0], "fer": [3, 4], "coeff": [{"q": [-2, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 0], "fer": [], '
            '"coeff": [{"q": [0, 1, -1, 1], "b": 1, "eps": 0}]}, {"bos": '
            '[0, 0], "fer": [], "coeff": [{"q": [4, 1, 0, 1], "b": 0, '
            '"eps": 0}]}]}',
            'q_{1}q_{2}q_{3}q_{4} e^{x^2/2} - 2 q_{1}q_{2} e^{x^2/2} - 2 q_{'
            '3}q_{4} e^{x^2/2} - i\\pi^{1/2} x_{1} e^{x^2/2} + 4 e^{x^2/2}',
        ),
        (
            'q1q2q3q4*G - 2*q1q2*G - 2*q3q4*G + i*sqrtpi*x1*G + 4*G',
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [0, 0], "fer": [1, 2, 3, 4], "coeff": '
            '[{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 0], '
            '"fer": [1, 2], "coeff": [{"q": [-2, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0, 0], "fer": [3, 4], "coeff": [{"q": [-2, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 0], "fer": [], '
            '"coeff": [{"q": [0, 1, 1, 1], "b": 1, "eps": 0}]}, {"bos": [0, '
            '0], "fer": [], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}',
            'q_{1}q_{2}q_{3}q_{4} e^{x^2/2} - 2 q_{1}q_{2} e^{x^2/2} - 2 q_{'
            '3}q_{4} e^{x^2/2} + i\\pi^{1/2} x_{1} e^{x^2/2} + 4 e^{x^2/2}',
        ),
        (
            'q1q2q3q4*G - 2*q1q2*G - 2*q3q4*G - i*sqrtpi*x1*G + 4*G',
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [0, 0], "fer": [1, 2, 3, 4], "coeff": '
            '[{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 0], '
            '"fer": [1, 2], "coeff": [{"q": [-2, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0, 0], "fer": [3, 4], "coeff": [{"q": [-2, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 0], "fer": [], '
            '"coeff": [{"q": [0, 1, -1, 1], "b": 1, "eps": 0}]}, {"bos": '
            '[0, 0], "fer": [], "coeff": [{"q": [4, 1, 0, 1], "b": 0, '
            '"eps": 0}]}]}',
            'q_{1}q_{2}q_{3}q_{4} e^{x^2/2} - 2 q_{1}q_{2} e^{x^2/2} - 2 q_{'
            '3}q_{4} e^{x^2/2} - i\\pi^{1/2} x_{1} e^{x^2/2} + 4 e^{x^2/2}',
        ),
        (
            '[(sqrt2*pi^(-3/2))]*exp(-p^2/2) + [(-1/2*sqrt2*pi^(-3/2)) + '
            '(1/2*sqrt2*pi^(-3/2))*p^2]*exp(-p^2/2) (x) wf1wf2 + '
            '[(-1/2*sqrt2*pi^(-3/2)) + '
            '(1/2*sqrt2*pi^(-3/2))*p^2]*exp(-p^2/2) (x) wf3wf4 + '
            '[(3/4*sqrt2*pi^(-3/2)) + (-3/2*sqrt2*pi^(-3/2))*p^2 + '
            '(1/4*sqrt2*pi^(-3/2))*p^4]*exp(-p^2/2) (x) wf1wf2wf3wf4 + '
            '[(1/4*sqrt2*pi^-1)*p]*exp(-p^2/2) (x) w1',
            '{"envelope": "exp(-p^2/2)", "terms": [{"omega_bos": [0, 0], '
            '"omega_fer": [], "p_poly": [[0, [{"q": [1, 1, 0, 1], "b": -3, '
            '"eps": 1}]]]}, {"omega_bos": [0, 0], "omega_fer": [1, 2], '
            '"p_poly": [[0, [{"q": [-1, 2, 0, 1], "b": -3, "eps": 1}]], [2, '
            '[{"q": [1, 2, 0, 1], "b": -3, "eps": 1}]]]}, {"omega_bos": [0, '
            '0], "omega_fer": [3, 4], "p_poly": [[0, [{"q": [-1, 2, 0, 1], '
            '"b": -3, "eps": 1}]], [2, [{"q": [1, 2, 0, 1], "b": -3, "eps": '
            '1}]]]}, {"omega_bos": [0, 0], "omega_fer": [1, 2, 3, 4], '
            '"p_poly": [[0, [{"q": [3, 4, 0, 1], "b": -3, "eps": 1}]], [2, '
            '[{"q": [-3, 2, 0, 1], "b": -3, "eps": 1}]], [4, [{"q": [1, 4, '
            '0, 1], "b": -3, "eps": 1}]]]}, {"omega_bos": [1, 0], '
            '"omega_fer": [], "p_poly": [[1, [{"q": [1, 4, 0, 1], "b": -2, '
            '"eps": 1}]]]}], "schema": "supertransform/1"}',
            '[(sqrt2*pi^(-3/2))]*exp(-p^2/2) + [(-1/2*sqrt2*pi^(-3/2)) + '
            '(1/2*sqrt2*pi^(-3/2))*p^2]*exp(-p^2/2) (x) wf1wf2 + '
            '[(-1/2*sqrt2*pi^(-3/2)) + '
            '(1/2*sqrt2*pi^(-3/2))*p^2]*exp(-p^2/2) (x) wf3wf4 + '
            '[(3/4*sqrt2*pi^(-3/2)) + (-3/2*sqrt2*pi^(-3/2))*p^2 + '
            '(1/4*sqrt2*pi^(-3/2))*p^4]*exp(-p^2/2) (x) wf1wf2wf3wf4 + '
            '[(1/4*sqrt2*pi^-1)*p]*exp(-p^2/2) (x) w1',
        ),
        (
            'true',
            'true',
            'true',
        ),
    ),
}


@pytest.mark.parametrize("cmd", range(len(_TRANSFORM_COMMANDS)),
                         ids=[" ".join(c) for c in _TRANSFORM_COMMANDS])
@pytest.mark.parametrize("m, n, text, partner", list(_TRANSFORM_GOLDEN))
def test_cli_transform_golden_outputs(capsys, m, n, text, partner, cmd):
    command = _TRANSFORM_COMMANDS[cmd]
    operands = (text, partner) if command == ("parseval",) else (text,)
    for fmt, want in zip(_TRANSFORM_FORMATS,
                         _TRANSFORM_GOLDEN[m, n, text, partner][cmd]):
        code = main(["--m", str(m), "--n", str(n), "--format", fmt,
                     *command, *operands])
        out = capsys.readouterr()
        if want.startswith("error: "):
            assert (code, out.out, out.err) == (1, "", want + "\n")
        else:
            assert (code, out.out, out.err) == (0, want + "\n", "")


# Output of hermite and decompose while psi_element summed the
# Clifford-Hermite series and decomposition_check formed its products in
# ExactScalar arithmetic.  decomposition_check now tests the f_poly
# coefficients by the closed sl2 rule and forms no product, and these
# bytes stayed; a change to either must keep them.  Per
# (m, n, k), in the order of _BASES_COMMANDS, one output per format of
# _TRANSFORM_FORMATS.  _BASES_SHA256 pins the benchmark-sized degree
# k = 6 at (3, 2) by the sha256 of stdout, per command and format.
_BASES_COMMANDS = (("hermite", "--j", "0"), ("hermite", "--j", "1"),
                   ("hermite", "--j", "2"), ("decompose",))
_BASES_GOLDEN = {
    (2, 1, 0): (
        (
            'G',
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [0, 0], "fer": [], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}',
            'e^{x^2/2}',
        ),
        (
            '-4*x1^2*G - 4*x2^2*G + 4*q1q2*G',
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [2, 0], "fer": [], "coeff": [{"q": [-4, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '0], "fer": [1, 2], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}',
            '-4 x_{1}^{2} e^{x^2/2} - 4 x_{2}^{2} e^{x^2/2} + 4 q_{1}q_{2} e'
            '^{x^2/2}',
        ),
        (
            '16*x1^4*G + 32*x1^2*x2^2*G - 32*x1^2*q1q2*G + 16*x2^4*G - '
            '32*x2^2*q1q2*G - 32*x1^2*G - 32*x2^2*G + 32*q1q2*G',
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [4, 0], "fer": [], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 2], "fer": [], '
            '"coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, '
            '0], "fer": [1, 2], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0, 4], "fer": [], "coeff": [{"q": [16, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [1, 2], '
            '"coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2, 0], "fer": [], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0, 2], "fer": [], "coeff": [{"q": [-32, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 0], "fer": [1, 2], '
            '"coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}]}',
            '16 x_{1}^{4} e^{x^2/2} + 32 x_{1}^{2}x_{2}^{2} e^{x^2/2} - 32 x'
            '_{1}^{2}q_{1}q_{2} e^{x^2/2} + 16 x_{2}^{4} e^{x^2/2} - 32 x_{2'
            '}^{2}q_{1}q_{2} e^{x^2/2} - 32 x_{1}^{2} e^{x^2/2} - 32 x_{2}^{'
            '2} e^{x^2/2} + 32 q_{1}q_{2} e^{x^2/2}',
        ),
        (
            'degree 0: dim nullspace 1, dim formula 1 [ok]',
            '{"k": 0, "dim_nullspace": 1, "dim_formula": 1, "dims_match": '
            'true, "product_failures": [], "products_harmonic": true, '
            '"schema": "supertransform/1", "basis": [{"schema": '
            '"supertransform/1", "m": 2, "n": 1, "envelope": false, "terms": '
            '[{"bos": [0, 0], "fer": [], "coeff": [{"q": [1, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}]}',
            'degree 0: dim nullspace 1, dim formula 1 [ok]',
        ),
    ),
    (2, 1, 1): (
        (
            'x2*G\nx1*G\nq1*G\nq2*G',
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [0, 1], "fer": [], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [1, 0], "fer": [], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [0, 0], "fer": [1], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [0, 0], "fer": [2], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}',
            'x_{2} e^{x^2/2}\nx_{1} e^{x^2/2}\nq_{1} e^{x^2/2}\nq_{2} e^{x^2'
            '/2}',
        ),
        (
            '-4*x1^2*x2*G - 4*x2^3*G + 4*x2*q1q2*G + 4*x2*G\n'
            '-4*x1^3*G - 4*x1*x2^2*G + 4*x1*q1q2*G + 4*x1*G\n'
            '-4*x1^2*q1*G - 4*x2^2*q1*G + 4*q1*G\n'
            '-4*x1^2*q2*G - 4*x2^2*q2*G + 4*q2*G',
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [2, 1], "fer": [], "coeff": [{"q": [-4, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 3], "fer": [], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '1], "fer": [1, 2], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0, 1], "fer": [], "coeff": [{"q": [4, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [3, 0], "fer": [], "coeff": [{"q": [-4, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 2], "fer": [], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, '
            '0], "fer": [1, 2], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [1, 0], "fer": [], "coeff": [{"q": [4, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [2, 0], "fer": [1], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [1], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '0], "fer": [1], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [2, 0], "fer": [2], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [2], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '0], "fer": [2], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}',
            '-4 x_{1}^{2}x_{2} e^{x^2/2} - 4 x_{2}^{3} e^{x^2/2} + 4 x_{2}q_'
            '{1}q_{2} e^{x^2/2} + 4 x_{2} e^{x^2/2}\n-4 x_{1}^{3} e^{x^2/2} '
            '- 4 x_{1}x_{2}^{2} e^{x^2/2} + 4 x_{1}q_{1}q_{2} e^{x^2/2} + 4 '
            'x_{1} e^{x^2/2}\n-4 x_{1}^{2}q_{1} e^{x^2/2} - 4 x_{2}^{2}q_{1}'
            ' e^{x^2/2} + 4 q_{1} e^{x^2/2}\n-4 x_{1}^{2}q_{2} e^{x^2/2} - 4'
            ' x_{2}^{2}q_{2} e^{x^2/2} + 4 q_{2} e^{x^2/2}',
        ),
        (
            '16*x1^4*x2*G + 32*x1^2*x2^3*G - 32*x1^2*x2*q1q2*G + 16*x2^5*G - '
            '32*x2^3*q1q2*G - 64*x1^2*x2*G - 64*x2^3*G + 64*x2*q1q2*G + '
            '32*x2*G\n'
            '16*x1^5*G + 32*x1^3*x2^2*G - 32*x1^3*q1q2*G + 16*x1*x2^4*G - '
            '32*x1*x2^2*q1q2*G - 64*x1^3*G - 64*x1*x2^2*G + 64*x1*q1q2*G + '
            '32*x1*G\n'
            '16*x1^4*q1*G + 32*x1^2*x2^2*q1*G + 16*x2^4*q1*G - 64*x1^2*q1*G '
            '- 64*x2^2*q1*G + 32*q1*G\n'
            '16*x1^4*q2*G + 32*x1^2*x2^2*q2*G + 16*x2^4*q2*G - 64*x1^2*q2*G '
            '- 64*x2^2*q2*G + 32*q2*G',
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [4, 1], "fer": [], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 3], "fer": [], '
            '"coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, '
            '1], "fer": [1, 2], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0, 5], "fer": [], "coeff": [{"q": [16, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 3], "fer": [1, 2], '
            '"coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2, 1], "fer": [], "coeff": [{"q": [-64, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0, 3], "fer": [], "coeff": [{"q": [-64, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 1], "fer": [1, 2], '
            '"coeff": [{"q": [64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '1], "fer": [], "coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [5, 0], "fer": [], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, 2], "fer": [], '
            '"coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, '
            '0], "fer": [1, 2], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [1, 4], "fer": [], "coeff": [{"q": [16, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 2], "fer": [1, 2], '
            '"coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[3, 0], "fer": [], "coeff": [{"q": [-64, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [1, 2], "fer": [], "coeff": [{"q": [-64, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 0], "fer": [1, 2], '
            '"coeff": [{"q": [64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, '
            '0], "fer": [], "coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [4, 0], "fer": [1], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 2], "fer": [1], '
            '"coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '4], "fer": [1], "coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [2, 0], "fer": [1], "coeff": [{"q": [-64, 1, 0, '
            '1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [1], "coeff": '
            '[{"q": [-64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 0], '
            '"fer": [1], "coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [4, 0], "fer": [2], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 2], "fer": [2], '
            '"coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '4], "fer": [2], "coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [2, 0], "fer": [2], "coeff": [{"q": [-64, 1, 0, '
            '1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [2], "coeff": '
            '[{"q": [-64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 0], '
            '"fer": [2], "coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}]}',
            '16 x_{1}^{4}x_{2} e^{x^2/2} + 32 x_{1}^{2}x_{2}^{3} e^{x^2/2} -'
            ' 32 x_{1}^{2}x_{2}q_{1}q_{2} e^{x^2/2} + 16 x_{2}^{5} e^{x^2/2}'
            ' - 32 x_{2}^{3}q_{1}q_{2} e^{x^2/2} - 64 x_{1}^{2}x_{2} e^{x^2/'
            '2} - 64 x_{2}^{3} e^{x^2/2} + 64 x_{2}q_{1}q_{2} e^{x^2/2} + 32'
            ' x_{2} e^{x^2/2}\n16 x_{1}^{5} e^{x^2/2} + 32 x_{1}^{3}x_{2}^{2'
            '} e^{x^2/2} - 32 x_{1}^{3}q_{1}q_{2} e^{x^2/2} + 16 x_{1}x_{2}^'
            '{4} e^{x^2/2} - 32 x_{1}x_{2}^{2}q_{1}q_{2} e^{x^2/2} - 64 x_{1'
            '}^{3} e^{x^2/2} - 64 x_{1}x_{2}^{2} e^{x^2/2} + 64 x_{1}q_{1}q_'
            '{2} e^{x^2/2} + 32 x_{1} e^{x^2/2}\n16 x_{1}^{4}q_{1} e^{x^2/2}'
            ' + 32 x_{1}^{2}x_{2}^{2}q_{1} e^{x^2/2} + 16 x_{2}^{4}q_{1} e^{'
            'x^2/2} - 64 x_{1}^{2}q_{1} e^{x^2/2} - 64 x_{2}^{2}q_{1} e^{x^2'
            '/2} + 32 q_{1} e^{x^2/2}\n16 x_{1}^{4}q_{2} e^{x^2/2} + 32 x_{1'
            '}^{2}x_{2}^{2}q_{2} e^{x^2/2} + 16 x_{2}^{4}q_{2} e^{x^2/2} - 6'
            '4 x_{1}^{2}q_{2} e^{x^2/2} - 64 x_{2}^{2}q_{2} e^{x^2/2} + 32 q'
            '_{2} e^{x^2/2}',
        ),
        (
            'degree 1: dim nullspace 4, dim formula 4 [ok]',
            '{"k": 1, "dim_nullspace": 4, "dim_formula": 4, "dims_match": '
            'true, "product_failures": [], "products_harmonic": true, '
            '"schema": "supertransform/1", "basis": [{"schema": '
            '"supertransform/1", "m": 2, "n": 1, "envelope": false, "terms": '
            '[{"bos": [0, 1], "fer": [], "coeff": [{"q": [1, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}, {"schema": "supertransform/1", "m": 2, "n": '
            '1, "envelope": false, "terms": [{"bos": [1, 0], "fer": [], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 2, "n": 1, "envelope": false, "terms": '
            '[{"bos": [0, 0], "fer": [1], "coeff": [{"q": [1, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}, {"schema": "supertransform/1", "m": 2, "n": '
            '1, "envelope": false, "terms": [{"bos": [0, 0], "fer": [2], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}]}',
            'degree 1: dim nullspace 4, dim formula 4 [ok]',
        ),
    ),
    (2, 1, 2): (
        (
            'x1*x2*G\n'
            'x1^2*G - x2^2*G\n'
            'x2*q1*G\nx1*q1*G\nx2*q2*G\nx1*q2*G\n-2*x2^2*G + q1q2*G',
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [1, 1], "fer": [], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [2, 0], "fer": [], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [], '
            '"coeff": [{"q": [-1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [0, 1], "fer": [1], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [1, 0], "fer": [1], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [0, 1], "fer": [2], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [1, 0], "fer": [2], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [0, 2], "fer": [], "coeff": [{"q": [-2, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 0], "fer": [1, 2], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}',
            'x_{1}x_{2} e^{x^2/2}\nx_{1}^{2} e^{x^2/2} - x_{2}^{2} e^{x^2/2}'
            '\nx_{2}q_{1} e^{x^2/2}\nx_{1}q_{1} e^{x^2/2}\nx_{2}q_{2} e^{x^2'
            '/2}\nx_{1}q_{2} e^{x^2/2}\n-2 x_{2}^{2} e^{x^2/2} + q_{1}q_{2} '
            'e^{x^2/2}',
        ),
        (
            '-4*x1^3*x2*G - 4*x1*x2^3*G + 4*x1*x2*q1q2*G + 8*x1*x2*G\n'
            '-4*x1^4*G + 4*x1^2*q1q2*G + 4*x2^4*G - 4*x2^2*q1q2*G + 8*x1^2*G '
            '- 8*x2^2*G\n'
            '-4*x1^2*x2*q1*G - 4*x2^3*q1*G + 8*x2*q1*G\n'
            '-4*x1^3*q1*G - 4*x1*x2^2*q1*G + 8*x1*q1*G\n'
            '-4*x1^2*x2*q2*G - 4*x2^3*q2*G + 8*x2*q2*G\n'
            '-4*x1^3*q2*G - 4*x1*x2^2*q2*G + 8*x1*q2*G\n'
            '8*x1^2*x2^2*G - 4*x1^2*q1q2*G + 8*x2^4*G - 12*x2^2*q1q2*G - '
            '16*x2^2*G + 8*q1q2*G',
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [3, 1], "fer": [], "coeff": [{"q": [-4, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 3], "fer": [], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, '
            '1], "fer": [1, 2], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [1, 1], "fer": [], "coeff": [{"q": [8, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [4, 0], "fer": [], "coeff": [{"q": [-4, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 0], "fer": [1, 2], '
            '"coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '4], "fer": [], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0, 2], "fer": [1, 2], "coeff": [{"q": [-4, 1, 0, '
            '1], "b": 0, "eps": 0}]}, {"bos": [2, 0], "fer": [], "coeff": '
            '[{"q": [8, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], '
            '"fer": [], "coeff": [{"q": [-8, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [2, 1], "fer": [1], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 3], "fer": [1], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '1], "fer": [1], "coeff": [{"q": [8, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [3, 0], "fer": [1], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 2], "fer": [1], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, '
            '0], "fer": [1], "coeff": [{"q": [8, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [2, 1], "fer": [2], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 3], "fer": [2], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '1], "fer": [2], "coeff": [{"q": [8, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [3, 0], "fer": [2], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 2], "fer": [2], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, '
            '0], "fer": [2], "coeff": [{"q": [8, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [2, 2], "fer": [], "coeff": [{"q": [8, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 0], "fer": [1, 2], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '4], "fer": [], "coeff": [{"q": [8, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0, 2], "fer": [1, 2], "coeff": [{"q": [-12, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [], "coeff": '
            '[{"q": [-16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 0], '
            '"fer": [1, 2], "coeff": [{"q": [8, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}',
            '-4 x_{1}^{3}x_{2} e^{x^2/2} - 4 x_{1}x_{2}^{3} e^{x^2/2} + 4 x_'
            '{1}x_{2}q_{1}q_{2} e^{x^2/2} + 8 x_{1}x_{2} e^{x^2/2}\n-4 x_{1}'
            '^{4} e^{x^2/2} + 4 x_{1}^{2}q_{1}q_{2} e^{x^2/2} + 4 x_{2}^{4} '
            'e^{x^2/2} - 4 x_{2}^{2}q_{1}q_{2} e^{x^2/2} + 8 x_{1}^{2} e^{x^'
            '2/2} - 8 x_{2}^{2} e^{x^2/2}\n-4 x_{1}^{2}x_{2}q_{1} e^{x^2/2} '
            '- 4 x_{2}^{3}q_{1} e^{x^2/2} + 8 x_{2}q_{1} e^{x^2/2}\n-4 x_{1}'
            '^{3}q_{1} e^{x^2/2} - 4 x_{1}x_{2}^{2}q_{1} e^{x^2/2} + 8 x_{1}'
            'q_{1} e^{x^2/2}\n-4 x_{1}^{2}x_{2}q_{2} e^{x^2/2} - 4 x_{2}^{3}'
            'q_{2} e^{x^2/2} + 8 x_{2}q_{2} e^{x^2/2}\n-4 x_{1}^{3}q_{2} e^{'
            'x^2/2} - 4 x_{1}x_{2}^{2}q_{2} e^{x^2/2} + 8 x_{1}q_{2} e^{x^2/'
            '2}\n8 x_{1}^{2}x_{2}^{2} e^{x^2/2} - 4 x_{1}^{2}q_{1}q_{2} e^{x'
            '^2/2} + 8 x_{2}^{4} e^{x^2/2} - 12 x_{2}^{2}q_{1}q_{2} e^{x^2/2'
            '} - 16 x_{2}^{2} e^{x^2/2} + 8 q_{1}q_{2} e^{x^2/2}',
        ),
        (
            '16*x1^5*x2*G + 32*x1^3*x2^3*G - 32*x1^3*x2*q1q2*G + '
            '16*x1*x2^5*G - 32*x1*x2^3*q1q2*G - 96*x1^3*x2*G - 96*x1*x2^3*G '
            '+ 96*x1*x2*q1q2*G + 96*x1*x2*G\n'
            '16*x1^6*G + 16*x1^4*x2^2*G - 32*x1^4*q1q2*G - 16*x1^2*x2^4*G - '
            '16*x2^6*G + 32*x2^4*q1q2*G - 96*x1^4*G + 96*x1^2*q1q2*G + '
            '96*x2^4*G - 96*x2^2*q1q2*G + 96*x1^2*G - 96*x2^2*G\n'
            '16*x1^4*x2*q1*G + 32*x1^2*x2^3*q1*G + 16*x2^5*q1*G - '
            '96*x1^2*x2*q1*G - 96*x2^3*q1*G + 96*x2*q1*G\n'
            '16*x1^5*q1*G + 32*x1^3*x2^2*q1*G + 16*x1*x2^4*q1*G - '
            '96*x1^3*q1*G - 96*x1*x2^2*q1*G + 96*x1*q1*G\n'
            '16*x1^4*x2*q2*G + 32*x1^2*x2^3*q2*G + 16*x2^5*q2*G - '
            '96*x1^2*x2*q2*G - 96*x2^3*q2*G + 96*x2*q2*G\n'
            '16*x1^5*q2*G + 32*x1^3*x2^2*q2*G + 16*x1*x2^4*q2*G - '
            '96*x1^3*q2*G - 96*x1*x2^2*q2*G + 96*x1*q2*G\n'
            '-32*x1^4*x2^2*G + 16*x1^4*q1q2*G - 64*x1^2*x2^4*G + '
            '96*x1^2*x2^2*q1q2*G - 32*x2^6*G + 80*x2^4*q1q2*G + '
            '192*x1^2*x2^2*G - 96*x1^2*q1q2*G + 192*x2^4*G - 288*x2^2*q1q2*G '
            '- 192*x2^2*G + 96*q1q2*G',
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [5, 1], "fer": [], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, 3], "fer": [], '
            '"coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, '
            '1], "fer": [1, 2], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [1, 5], "fer": [], "coeff": [{"q": [16, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 3], "fer": [1, 2], '
            '"coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[3, 1], "fer": [], "coeff": [{"q": [-96, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [1, 3], "fer": [], "coeff": [{"q": [-96, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 1], "fer": [1, 2], '
            '"coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, '
            '1], "fer": [], "coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [6, 0], "fer": [], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4, 2], "fer": [], '
            '"coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4, '
            '0], "fer": [1, 2], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2, 4], "fer": [], "coeff": [{"q": [-16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 6], "fer": [], '
            '"coeff": [{"q": [-16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0, 4], "fer": [1, 2], "coeff": [{"q": [32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [4, 0], "fer": [], "coeff": [{"q": [-96, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 0], "fer": [1, 2], '
            '"coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '4], "fer": [], "coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0, 2], "fer": [1, 2], "coeff": [{"q": [-96, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 0], "fer": [], "coeff": '
            '[{"q": [96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], '
            '"fer": [], "coeff": [{"q": [-96, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [4, 1], "fer": [1], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 3], "fer": [1], '
            '"coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '5], "fer": [1], "coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [2, 1], "fer": [1], "coeff": [{"q": [-96, 1, 0, '
            '1], "b": 0, "eps": 0}]}, {"bos": [0, 3], "fer": [1], "coeff": '
            '[{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 1], '
            '"fer": [1], "coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [5, 0], "fer": [1], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, 2], "fer": [1], '
            '"coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, '
            '4], "fer": [1], "coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [3, 0], "fer": [1], "coeff": [{"q": [-96, 1, 0, '
            '1], "b": 0, "eps": 0}]}, {"bos": [1, 2], "fer": [1], "coeff": '
            '[{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 0], '
            '"fer": [1], "coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [4, 1], "fer": [2], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 3], "fer": [2], '
            '"coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '5], "fer": [2], "coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [2, 1], "fer": [2], "coeff": [{"q": [-96, 1, 0, '
            '1], "b": 0, "eps": 0}]}, {"bos": [0, 3], "fer": [2], "coeff": '
            '[{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 1], '
            '"fer": [2], "coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [5, 0], "fer": [2], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, 2], "fer": [2], '
            '"coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, '
            '4], "fer": [2], "coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [3, 0], "fer": [2], "coeff": [{"q": [-96, 1, 0, '
            '1], "b": 0, "eps": 0}]}, {"bos": [1, 2], "fer": [2], "coeff": '
            '[{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 0], '
            '"fer": [2], "coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [4, 2], "fer": [], "coeff": [{"q": '
            '[-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4, 0], "fer": [1, '
            '2], "coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2, 4], "fer": [], "coeff": [{"q": [-64, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2, 2], "fer": [1, 2], "coeff": [{"q": '
            '[96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 6], "fer": [], '
            '"coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0, 4], "fer": [1, 2], "coeff": [{"q": [80, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2, 2], "fer": [], "coeff": [{"q": [192, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 0], "fer": [1, 2], '
            '"coeff": [{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0, 4], "fer": [], "coeff": [{"q": [192, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0, 2], "fer": [1, 2], "coeff": [{"q": '
            '[-288, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": '
            '[], "coeff": [{"q": [-192, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 0], "fer": [1, 2], "coeff": [{"q": [96, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}',
            '16 x_{1}^{5}x_{2} e^{x^2/2} + 32 x_{1}^{3}x_{2}^{3} e^{x^2/2} -'
            ' 32 x_{1}^{3}x_{2}q_{1}q_{2} e^{x^2/2} + 16 x_{1}x_{2}^{5} e^{x'
            '^2/2} - 32 x_{1}x_{2}^{3}q_{1}q_{2} e^{x^2/2} - 96 x_{1}^{3}x_{'
            '2} e^{x^2/2} - 96 x_{1}x_{2}^{3} e^{x^2/2} + 96 x_{1}x_{2}q_{1}'
            'q_{2} e^{x^2/2} + 96 x_{1}x_{2} e^{x^2/2}\n16 x_{1}^{6} e^{x^2/'
            '2} + 16 x_{1}^{4}x_{2}^{2} e^{x^2/2} - 32 x_{1}^{4}q_{1}q_{2} e'
            '^{x^2/2} - 16 x_{1}^{2}x_{2}^{4} e^{x^2/2} - 16 x_{2}^{6} e^{x^'
            '2/2} + 32 x_{2}^{4}q_{1}q_{2} e^{x^2/2} - 96 x_{1}^{4} e^{x^2/2'
            '} + 96 x_{1}^{2}q_{1}q_{2} e^{x^2/2} + 96 x_{2}^{4} e^{x^2/2} -'
            ' 96 x_{2}^{2}q_{1}q_{2} e^{x^2/2} + 96 x_{1}^{2} e^{x^2/2} - 96'
            ' x_{2}^{2} e^{x^2/2}\n16 x_{1}^{4}x_{2}q_{1} e^{x^2/2} + 32 x_{'
            '1}^{2}x_{2}^{3}q_{1} e^{x^2/2} + 16 x_{2}^{5}q_{1} e^{x^2/2} - '
            '96 x_{1}^{2}x_{2}q_{1} e^{x^2/2} - 96 x_{2}^{3}q_{1} e^{x^2/2} '
            '+ 96 x_{2}q_{1} e^{x^2/2}\n16 x_{1}^{5}q_{1} e^{x^2/2} + 32 x_{'
            '1}^{3}x_{2}^{2}q_{1} e^{x^2/2} + 16 x_{1}x_{2}^{4}q_{1} e^{x^2/'
            '2} - 96 x_{1}^{3}q_{1} e^{x^2/2} - 96 x_{1}x_{2}^{2}q_{1} e^{x^'
            '2/2} + 96 x_{1}q_{1} e^{x^2/2}\n16 x_{1}^{4}x_{2}q_{2} e^{x^2/2'
            '} + 32 x_{1}^{2}x_{2}^{3}q_{2} e^{x^2/2} + 16 x_{2}^{5}q_{2} e^'
            '{x^2/2} - 96 x_{1}^{2}x_{2}q_{2} e^{x^2/2} - 96 x_{2}^{3}q_{2} '
            'e^{x^2/2} + 96 x_{2}q_{2} e^{x^2/2}\n16 x_{1}^{5}q_{2} e^{x^2/2'
            '} + 32 x_{1}^{3}x_{2}^{2}q_{2} e^{x^2/2} + 16 x_{1}x_{2}^{4}q_{'
            '2} e^{x^2/2} - 96 x_{1}^{3}q_{2} e^{x^2/2} - 96 x_{1}x_{2}^{2}q'
            '_{2} e^{x^2/2} + 96 x_{1}q_{2} e^{x^2/2}\n-32 x_{1}^{4}x_{2}^{2'
            '} e^{x^2/2} + 16 x_{1}^{4}q_{1}q_{2} e^{x^2/2} - 64 x_{1}^{2}x_'
            '{2}^{4} e^{x^2/2} + 96 x_{1}^{2}x_{2}^{2}q_{1}q_{2} e^{x^2/2} -'
            ' 32 x_{2}^{6} e^{x^2/2} + 80 x_{2}^{4}q_{1}q_{2} e^{x^2/2} + 19'
            '2 x_{1}^{2}x_{2}^{2} e^{x^2/2} - 96 x_{1}^{2}q_{1}q_{2} e^{x^2/'
            '2} + 192 x_{2}^{4} e^{x^2/2} - 288 x_{2}^{2}q_{1}q_{2} e^{x^2/2'
            '} - 192 x_{2}^{2} e^{x^2/2} + 96 q_{1}q_{2} e^{x^2/2}',
        ),
        (
            'degree 2: dim nullspace 7, dim formula 7 [ok]',
            '{"k": 2, "dim_nullspace": 7, "dim_formula": 7, "dims_match": '
            'true, "product_failures": [], "products_harmonic": true, '
            '"schema": "supertransform/1", "basis": [{"schema": '
            '"supertransform/1", "m": 2, "n": 1, "envelope": false, "terms": '
            '[{"bos": [1, 1], "fer": [], "coeff": [{"q": [1, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}, {"schema": "supertransform/1", "m": 2, "n": '
            '1, "envelope": false, "terms": [{"bos": [2, 0], "fer": [], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '2], "fer": [], "coeff": [{"q": [-1, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}, {"schema": "supertransform/1", "m": 2, "n": 1, '
            '"envelope": false, "terms": [{"bos": [0, 1], "fer": [1], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 2, "n": 1, "envelope": false, "terms": '
            '[{"bos": [1, 0], "fer": [1], "coeff": [{"q": [1, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}, {"schema": "supertransform/1", "m": 2, "n": '
            '1, "envelope": false, "terms": [{"bos": [0, 1], "fer": [2], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 2, "n": 1, "envelope": false, "terms": '
            '[{"bos": [1, 0], "fer": [2], "coeff": [{"q": [1, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}, {"schema": "supertransform/1", "m": 2, "n": '
            '1, "envelope": false, "terms": [{"bos": [0, 2], "fer": [], '
            '"coeff": [{"q": [-2, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '0], "fer": [1, 2], "coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}]}',
            'degree 2: dim nullspace 7, dim formula 7 [ok]',
        ),
    ),
    (2, 1, 3): (
        (
            'x1^2*x2*G - 1/3*x2^3*G\n'
            'x1^3*G - 3*x1*x2^2*G\n'
            'x1*x2*q1*G\n'
            'x1^2*q1*G - x2^2*q1*G\n'
            'x1*x2*q2*G\n'
            'x1^2*q2*G - x2^2*q2*G\n'
            '-2/3*x2^3*G + x2*q1q2*G\n-2*x1*x2^2*G + x1*q1q2*G',
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [2, 1], "fer": [], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 3], "fer": [], '
            '"coeff": [{"q": [-1, 3, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [3, 0], "fer": [], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 2], "fer": [], '
            '"coeff": [{"q": [-3, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [1, 1], "fer": [1], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [2, 0], "fer": [1], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [1], '
            '"coeff": [{"q": [-1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [1, 1], "fer": [2], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [2, 0], "fer": [2], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [2], '
            '"coeff": [{"q": [-1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [0, 3], "fer": [], "coeff": [{"q": [-2, '
            '3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 1], "fer": [1, 2], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [1, 2], "fer": [], "coeff": [{"q": [-2, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 0], "fer": [1, 2], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}',
            'x_{1}^{2}x_{2} e^{x^2/2} - 1/3 x_{2}^{3} e^{x^2/2}\nx_{1}^{3} e'
            '^{x^2/2} - 3 x_{1}x_{2}^{2} e^{x^2/2}\nx_{1}x_{2}q_{1} e^{x^2/2'
            '}\nx_{1}^{2}q_{1} e^{x^2/2} - x_{2}^{2}q_{1} e^{x^2/2}\nx_{1}x_'
            '{2}q_{2} e^{x^2/2}\nx_{1}^{2}q_{2} e^{x^2/2} - x_{2}^{2}q_{2} e'
            '^{x^2/2}\n-2/3 x_{2}^{3} e^{x^2/2} + x_{2}q_{1}q_{2} e^{x^2/2}'
            '\n-2 x_{1}x_{2}^{2} e^{x^2/2} + x_{1}q_{1}q_{2} e^{x^2/2}',
        ),
        (
            '-4*x1^4*x2*G - 8/3*x1^2*x2^3*G + 4*x1^2*x2*q1q2*G + 4/3*x2^5*G '
            '- 4/3*x2^3*q1q2*G + 12*x1^2*x2*G - 4*x2^3*G\n'
            '-4*x1^5*G + 8*x1^3*x2^2*G + 4*x1^3*q1q2*G + 12*x1*x2^4*G - '
            '12*x1*x2^2*q1q2*G + 12*x1^3*G - 36*x1*x2^2*G\n'
            '-4*x1^3*x2*q1*G - 4*x1*x2^3*q1*G + 12*x1*x2*q1*G\n'
            '-4*x1^4*q1*G + 4*x2^4*q1*G + 12*x1^2*q1*G - 12*x2^2*q1*G\n'
            '-4*x1^3*x2*q2*G - 4*x1*x2^3*q2*G + 12*x1*x2*q2*G\n'
            '-4*x1^4*q2*G + 4*x2^4*q2*G + 12*x1^2*q2*G - 12*x2^2*q2*G\n'
            '8/3*x1^2*x2^3*G - 4*x1^2*x2*q1q2*G + 8/3*x2^5*G - '
            '20/3*x2^3*q1q2*G - 8*x2^3*G + 12*x2*q1q2*G\n'
            '8*x1^3*x2^2*G - 4*x1^3*q1q2*G + 8*x1*x2^4*G - 12*x1*x2^2*q1q2*G '
            '- 24*x1*x2^2*G + 12*x1*q1q2*G',
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [4, 1], "fer": [], "coeff": [{"q": [-4, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 3], "fer": [], '
            '"coeff": [{"q": [-8, 3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, '
            '1], "fer": [1, 2], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0, 5], "fer": [], "coeff": [{"q": [4, 3, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0, 3], "fer": [1, 2], "coeff": '
            '[{"q": [-4, 3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 1], '
            '"fer": [], "coeff": [{"q": [12, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 3], "fer": [], "coeff": [{"q": [-4, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [5, 0], "fer": [], "coeff": [{"q": [-4, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, 2], "fer": [], '
            '"coeff": [{"q": [8, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, '
            '0], "fer": [1, 2], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [1, 4], "fer": [], "coeff": [{"q": [12, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [1, 2], "fer": [1, 2], "coeff": '
            '[{"q": [-12, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, 0], '
            '"fer": [], "coeff": [{"q": [12, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [1, 2], "fer": [], "coeff": [{"q": [-36, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [3, 1], "fer": [1], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 3], "fer": [1], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, '
            '1], "fer": [1], "coeff": [{"q": [12, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [4, 0], "fer": [1], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 4], "fer": [1], '
            '"coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, '
            '0], "fer": [1], "coeff": [{"q": [12, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0, 2], "fer": [1], "coeff": [{"q": [-12, 1, 0, '
            '1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [3, 1], "fer": [2], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 3], "fer": [2], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, '
            '1], "fer": [2], "coeff": [{"q": [12, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [4, 0], "fer": [2], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 4], "fer": [2], '
            '"coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, '
            '0], "fer": [2], "coeff": [{"q": [12, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0, 2], "fer": [2], "coeff": [{"q": [-12, 1, 0, '
            '1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [2, 3], "fer": [], "coeff": [{"q": [8, '
            '3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 1], "fer": [1, 2], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '5], "fer": [], "coeff": [{"q": [8, 3, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0, 3], "fer": [1, 2], "coeff": [{"q": [-20, 3, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 3], "fer": [], "coeff": '
            '[{"q": [-8, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 1], '
            '"fer": [1, 2], "coeff": [{"q": [12, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [3, 2], "fer": [], "coeff": [{"q": [8, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, 0], "fer": [1, 2], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, '
            '4], "fer": [], "coeff": [{"q": [8, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [1, 2], "fer": [1, 2], "coeff": [{"q": [-12, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 2], "fer": [], "coeff": '
            '[{"q": [-24, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 0], '
            '"fer": [1, 2], "coeff": [{"q": [12, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}',
            '-4 x_{1}^{4}x_{2} e^{x^2/2} - 8/3 x_{1}^{2}x_{2}^{3} e^{x^2/2} '
            '+ 4 x_{1}^{2}x_{2}q_{1}q_{2} e^{x^2/2} + 4/3 x_{2}^{5} e^{x^2/2'
            '} - 4/3 x_{2}^{3}q_{1}q_{2} e^{x^2/2} + 12 x_{1}^{2}x_{2} e^{x^'
            '2/2} - 4 x_{2}^{3} e^{x^2/2}\n-4 x_{1}^{5} e^{x^2/2} + 8 x_{1}^'
            '{3}x_{2}^{2} e^{x^2/2} + 4 x_{1}^{3}q_{1}q_{2} e^{x^2/2} + 12 x'
            '_{1}x_{2}^{4} e^{x^2/2} - 12 x_{1}x_{2}^{2}q_{1}q_{2} e^{x^2/2}'
            ' + 12 x_{1}^{3} e^{x^2/2} - 36 x_{1}x_{2}^{2} e^{x^2/2}\n-4 x_{'
            '1}^{3}x_{2}q_{1} e^{x^2/2} - 4 x_{1}x_{2}^{3}q_{1} e^{x^2/2} + '
            '12 x_{1}x_{2}q_{1} e^{x^2/2}\n-4 x_{1}^{4}q_{1} e^{x^2/2} + 4 x'
            '_{2}^{4}q_{1} e^{x^2/2} + 12 x_{1}^{2}q_{1} e^{x^2/2} - 12 x_{2'
            '}^{2}q_{1} e^{x^2/2}\n-4 x_{1}^{3}x_{2}q_{2} e^{x^2/2} - 4 x_{1'
            '}x_{2}^{3}q_{2} e^{x^2/2} + 12 x_{1}x_{2}q_{2} e^{x^2/2}\n-4 x_'
            '{1}^{4}q_{2} e^{x^2/2} + 4 x_{2}^{4}q_{2} e^{x^2/2} + 12 x_{1}^'
            '{2}q_{2} e^{x^2/2} - 12 x_{2}^{2}q_{2} e^{x^2/2}\n8/3 x_{1}^{2}'
            'x_{2}^{3} e^{x^2/2} - 4 x_{1}^{2}x_{2}q_{1}q_{2} e^{x^2/2} + 8/'
            '3 x_{2}^{5} e^{x^2/2} - 20/3 x_{2}^{3}q_{1}q_{2} e^{x^2/2} - 8 '
            'x_{2}^{3} e^{x^2/2} + 12 x_{2}q_{1}q_{2} e^{x^2/2}\n8 x_{1}^{3}'
            'x_{2}^{2} e^{x^2/2} - 4 x_{1}^{3}q_{1}q_{2} e^{x^2/2} + 8 x_{1}'
            'x_{2}^{4} e^{x^2/2} - 12 x_{1}x_{2}^{2}q_{1}q_{2} e^{x^2/2} - 2'
            '4 x_{1}x_{2}^{2} e^{x^2/2} + 12 x_{1}q_{1}q_{2} e^{x^2/2}',
        ),
        (
            '16*x1^6*x2*G + 80/3*x1^4*x2^3*G - 32*x1^4*x2*q1q2*G + '
            '16/3*x1^2*x2^5*G - 64/3*x1^2*x2^3*q1q2*G - 16/3*x2^7*G + '
            '32/3*x2^5*q1q2*G - 128*x1^4*x2*G - 256/3*x1^2*x2^3*G + '
            '128*x1^2*x2*q1q2*G + 128/3*x2^5*G - 128/3*x2^3*q1q2*G + '
            '192*x1^2*x2*G - 64*x2^3*G\n'
            '16*x1^7*G - 16*x1^5*x2^2*G - 32*x1^5*q1q2*G - 80*x1^3*x2^4*G + '
            '64*x1^3*x2^2*q1q2*G - 48*x1*x2^6*G + 96*x1*x2^4*q1q2*G - '
            '128*x1^5*G + 256*x1^3*x2^2*G + 128*x1^3*q1q2*G + 384*x1*x2^4*G '
            '- 384*x1*x2^2*q1q2*G + 192*x1^3*G - 576*x1*x2^2*G\n'
            '16*x1^5*x2*q1*G + 32*x1^3*x2^3*q1*G + 16*x1*x2^5*q1*G - '
            '128*x1^3*x2*q1*G - 128*x1*x2^3*q1*G + 192*x1*x2*q1*G\n'
            '16*x1^6*q1*G + 16*x1^4*x2^2*q1*G - 16*x1^2*x2^4*q1*G - '
            '16*x2^6*q1*G - 128*x1^4*q1*G + 128*x2^4*q1*G + 192*x1^2*q1*G - '
            '192*x2^2*q1*G\n'
            '16*x1^5*x2*q2*G + 32*x1^3*x2^3*q2*G + 16*x1*x2^5*q2*G - '
            '128*x1^3*x2*q2*G - 128*x1*x2^3*q2*G + 192*x1*x2*q2*G\n'
            '16*x1^6*q2*G + 16*x1^4*x2^2*q2*G - 16*x1^2*x2^4*q2*G - '
            '16*x2^6*q2*G - 128*x1^4*q2*G + 128*x2^4*q2*G + 192*x1^2*q2*G - '
            '192*x2^2*q2*G\n'
            '-32/3*x1^4*x2^3*G + 16*x1^4*x2*q1q2*G - 64/3*x1^2*x2^5*G + '
            '160/3*x1^2*x2^3*q1q2*G - 32/3*x2^7*G + 112/3*x2^5*q1q2*G + '
            '256/3*x1^2*x2^3*G - 128*x1^2*x2*q1q2*G + 256/3*x2^5*G - '
            '640/3*x2^3*q1q2*G - 128*x2^3*G + 192*x2*q1q2*G\n'
            '-32*x1^5*x2^2*G + 16*x1^5*q1q2*G - 64*x1^3*x2^4*G + '
            '96*x1^3*x2^2*q1q2*G - 32*x1*x2^6*G + 80*x1*x2^4*q1q2*G + '
            '256*x1^3*x2^2*G - 128*x1^3*q1q2*G + 256*x1*x2^4*G - '
            '384*x1*x2^2*q1q2*G - 384*x1*x2^2*G + 192*x1*q1q2*G',
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [6, 1], "fer": [], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4, 3], "fer": [], '
            '"coeff": [{"q": [80, 3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4, '
            '1], "fer": [1, 2], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2, 5], "fer": [], "coeff": [{"q": [16, 3, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 3], "fer": [1, 2], '
            '"coeff": [{"q": [-64, 3, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0, 7], "fer": [], "coeff": [{"q": [-16, 3, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0, 5], "fer": [1, 2], "coeff": [{"q": '
            '[32, 3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4, 1], "fer": [], '
            '"coeff": [{"q": [-128, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2, 3], "fer": [], "coeff": [{"q": [-256, 3, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2, 1], "fer": [1, 2], "coeff": [{"q": '
            '[128, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 5], "fer": [], '
            '"coeff": [{"q": [128, 3, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0, 3], "fer": [1, 2], "coeff": [{"q": [-128, 3, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2, 1], "fer": [], "coeff": [{"q": [192, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 3], "fer": [], '
            '"coeff": [{"q": [-64, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [7, 0], "fer": [], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [5, 2], "fer": [], '
            '"coeff": [{"q": [-16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[5, 0], "fer": [1, 2], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [3, 4], "fer": [], "coeff": [{"q": [-80, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, 2], "fer": [1, 2], '
            '"coeff": [{"q": [64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, '
            '6], "fer": [], "coeff": [{"q": [-48, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [1, 4], "fer": [1, 2], "coeff": [{"q": [96, 1, 0, '
            '1], "b": 0, "eps": 0}]}, {"bos": [5, 0], "fer": [], "coeff": '
            '[{"q": [-128, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, 2], '
            '"fer": [], "coeff": [{"q": [256, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [3, 0], "fer": [1, 2], "coeff": [{"q": [128, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [1, 4], "fer": [], "coeff": [{"q": '
            '[384, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 2], "fer": [1, '
            '2], "coeff": [{"q": [-384, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [3, 0], "fer": [], "coeff": [{"q": [192, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [1, 2], "fer": [], "coeff": [{"q": '
            '[-576, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [5, 1], "fer": [1], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, 3], "fer": [1], '
            '"coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, '
            '5], "fer": [1], "coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [3, 1], "fer": [1], "coeff": [{"q": [-128, 1, 0, '
            '1], "b": 0, "eps": 0}]}, {"bos": [1, 3], "fer": [1], "coeff": '
            '[{"q": [-128, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 1], '
            '"fer": [1], "coeff": [{"q": [192, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [6, 0], "fer": [1], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4, 2], "fer": [1], '
            '"coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, '
            '4], "fer": [1], "coeff": [{"q": [-16, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0, 6], "fer": [1], "coeff": [{"q": [-16, 1, 0, '
            '1], "b": 0, "eps": 0}]}, {"bos": [4, 0], "fer": [1], "coeff": '
            '[{"q": [-128, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 4], '
            '"fer": [1], "coeff": [{"q": [128, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [2, 0], "fer": [1], "coeff": [{"q": [192, 1, 0, '
            '1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [1], "coeff": '
            '[{"q": [-192, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [5, 1], "fer": [2], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, 3], "fer": [2], '
            '"coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, '
            '5], "fer": [2], "coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [3, 1], "fer": [2], "coeff": [{"q": [-128, 1, 0, '
            '1], "b": 0, "eps": 0}]}, {"bos": [1, 3], "fer": [2], "coeff": '
            '[{"q": [-128, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 1], '
            '"fer": [2], "coeff": [{"q": [192, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [6, 0], "fer": [2], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4, 2], "fer": [2], '
            '"coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, '
            '4], "fer": [2], "coeff": [{"q": [-16, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0, 6], "fer": [2], "coeff": [{"q": [-16, 1, 0, '
            '1], "b": 0, "eps": 0}]}, {"bos": [4, 0], "fer": [2], "coeff": '
            '[{"q": [-128, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 4], '
            '"fer": [2], "coeff": [{"q": [128, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [2, 0], "fer": [2], "coeff": [{"q": [192, 1, 0, '
            '1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [2], "coeff": '
            '[{"q": [-192, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [4, 3], "fer": [], "coeff": [{"q": '
            '[-32, 3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4, 1], "fer": [1, '
            '2], "coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2, 5], "fer": [], "coeff": [{"q": [-64, 3, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2, 3], "fer": [1, 2], "coeff": [{"q": '
            '[160, 3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 7], "fer": [], '
            '"coeff": [{"q": [-32, 3, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0, 5], "fer": [1, 2], "coeff": [{"q": [112, 3, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2, 3], "fer": [], "coeff": [{"q": [256, '
            '3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 1], "fer": [1, 2], '
            '"coeff": [{"q": [-128, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0, 5], "fer": [], "coeff": [{"q": [256, 3, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0, 3], "fer": [1, 2], "coeff": [{"q": '
            '[-640, 3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 3], "fer": '
            '[], "coeff": [{"q": [-128, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 1], "fer": [1, 2], "coeff": [{"q": [192, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 1, "envelope": '
            'true, "terms": [{"bos": [5, 2], "fer": [], "coeff": [{"q": '
            '[-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [5, 0], "fer": [1, '
            '2], "coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[3, 4], "fer": [], "coeff": [{"q": [-64, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [3, 2], "fer": [1, 2], "coeff": [{"q": '
            '[96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 6], "fer": [], '
            '"coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[1, 4], "fer": [1, 2], "coeff": [{"q": [80, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [3, 2], "fer": [], "coeff": [{"q": [256, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, 0], "fer": [1, 2], '
            '"coeff": [{"q": [-128, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[1, 4], "fer": [], "coeff": [{"q": [256, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [1, 2], "fer": [1, 2], "coeff": [{"q": '
            '[-384, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 2], "fer": '
            '[], "coeff": [{"q": [-384, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [1, 0], "fer": [1, 2], "coeff": [{"q": [192, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}',
            '16 x_{1}^{6}x_{2} e^{x^2/2} + 80/3 x_{1}^{4}x_{2}^{3} e^{x^2/2}'
            ' - 32 x_{1}^{4}x_{2}q_{1}q_{2} e^{x^2/2} + 16/3 x_{1}^{2}x_{2}^'
            '{5} e^{x^2/2} - 64/3 x_{1}^{2}x_{2}^{3}q_{1}q_{2} e^{x^2/2} - 1'
            '6/3 x_{2}^{7} e^{x^2/2} + 32/3 x_{2}^{5}q_{1}q_{2} e^{x^2/2} - '
            '128 x_{1}^{4}x_{2} e^{x^2/2} - 256/3 x_{1}^{2}x_{2}^{3} e^{x^2/'
            '2} + 128 x_{1}^{2}x_{2}q_{1}q_{2} e^{x^2/2} + 128/3 x_{2}^{5} e'
            '^{x^2/2} - 128/3 x_{2}^{3}q_{1}q_{2} e^{x^2/2} + 192 x_{1}^{2}x'
            '_{2} e^{x^2/2} - 64 x_{2}^{3} e^{x^2/2}\n16 x_{1}^{7} e^{x^2/2}'
            ' - 16 x_{1}^{5}x_{2}^{2} e^{x^2/2} - 32 x_{1}^{5}q_{1}q_{2} e^{'
            'x^2/2} - 80 x_{1}^{3}x_{2}^{4} e^{x^2/2} + 64 x_{1}^{3}x_{2}^{2'
            '}q_{1}q_{2} e^{x^2/2} - 48 x_{1}x_{2}^{6} e^{x^2/2} + 96 x_{1}x'
            '_{2}^{4}q_{1}q_{2} e^{x^2/2} - 128 x_{1}^{5} e^{x^2/2} + 256 x_'
            '{1}^{3}x_{2}^{2} e^{x^2/2} + 128 x_{1}^{3}q_{1}q_{2} e^{x^2/2} '
            '+ 384 x_{1}x_{2}^{4} e^{x^2/2} - 384 x_{1}x_{2}^{2}q_{1}q_{2} e'
            '^{x^2/2} + 192 x_{1}^{3} e^{x^2/2} - 576 x_{1}x_{2}^{2} e^{x^2/'
            '2}\n16 x_{1}^{5}x_{2}q_{1} e^{x^2/2} + 32 x_{1}^{3}x_{2}^{3}q_{'
            '1} e^{x^2/2} + 16 x_{1}x_{2}^{5}q_{1} e^{x^2/2} - 128 x_{1}^{3}'
            'x_{2}q_{1} e^{x^2/2} - 128 x_{1}x_{2}^{3}q_{1} e^{x^2/2} + 192 '
            'x_{1}x_{2}q_{1} e^{x^2/2}\n16 x_{1}^{6}q_{1} e^{x^2/2} + 16 x_{'
            '1}^{4}x_{2}^{2}q_{1} e^{x^2/2} - 16 x_{1}^{2}x_{2}^{4}q_{1} e^{'
            'x^2/2} - 16 x_{2}^{6}q_{1} e^{x^2/2} - 128 x_{1}^{4}q_{1} e^{x^'
            '2/2} + 128 x_{2}^{4}q_{1} e^{x^2/2} + 192 x_{1}^{2}q_{1} e^{x^2'
            '/2} - 192 x_{2}^{2}q_{1} e^{x^2/2}\n16 x_{1}^{5}x_{2}q_{2} e^{x'
            '^2/2} + 32 x_{1}^{3}x_{2}^{3}q_{2} e^{x^2/2} + 16 x_{1}x_{2}^{5'
            '}q_{2} e^{x^2/2} - 128 x_{1}^{3}x_{2}q_{2} e^{x^2/2} - 128 x_{1'
            '}x_{2}^{3}q_{2} e^{x^2/2} + 192 x_{1}x_{2}q_{2} e^{x^2/2}\n16 x'
            '_{1}^{6}q_{2} e^{x^2/2} + 16 x_{1}^{4}x_{2}^{2}q_{2} e^{x^2/2} '
            '- 16 x_{1}^{2}x_{2}^{4}q_{2} e^{x^2/2} - 16 x_{2}^{6}q_{2} e^{x'
            '^2/2} - 128 x_{1}^{4}q_{2} e^{x^2/2} + 128 x_{2}^{4}q_{2} e^{x^'
            '2/2} + 192 x_{1}^{2}q_{2} e^{x^2/2} - 192 x_{2}^{2}q_{2} e^{x^2'
            '/2}\n-32/3 x_{1}^{4}x_{2}^{3} e^{x^2/2} + 16 x_{1}^{4}x_{2}q_{1'
            '}q_{2} e^{x^2/2} - 64/3 x_{1}^{2}x_{2}^{5} e^{x^2/2} + 160/3 x_'
            '{1}^{2}x_{2}^{3}q_{1}q_{2} e^{x^2/2} - 32/3 x_{2}^{7} e^{x^2/2}'
            ' + 112/3 x_{2}^{5}q_{1}q_{2} e^{x^2/2} + 256/3 x_{1}^{2}x_{2}^{'
            '3} e^{x^2/2} - 128 x_{1}^{2}x_{2}q_{1}q_{2} e^{x^2/2} + 256/3 x'
            '_{2}^{5} e^{x^2/2} - 640/3 x_{2}^{3}q_{1}q_{2} e^{x^2/2} - 128 '
            'x_{2}^{3} e^{x^2/2} + 192 x_{2}q_{1}q_{2} e^{x^2/2}\n-32 x_{1}^'
            '{5}x_{2}^{2} e^{x^2/2} + 16 x_{1}^{5}q_{1}q_{2} e^{x^2/2} - 64 '
            'x_{1}^{3}x_{2}^{4} e^{x^2/2} + 96 x_{1}^{3}x_{2}^{2}q_{1}q_{2} '
            'e^{x^2/2} - 32 x_{1}x_{2}^{6} e^{x^2/2} + 80 x_{1}x_{2}^{4}q_{1'
            '}q_{2} e^{x^2/2} + 256 x_{1}^{3}x_{2}^{2} e^{x^2/2} - 128 x_{1}'
            '^{3}q_{1}q_{2} e^{x^2/2} + 256 x_{1}x_{2}^{4} e^{x^2/2} - 384 x'
            '_{1}x_{2}^{2}q_{1}q_{2} e^{x^2/2} - 384 x_{1}x_{2}^{2} e^{x^2/2'
            '} + 192 x_{1}q_{1}q_{2} e^{x^2/2}',
        ),
        (
            'degree 3: dim nullspace 8, dim formula 8 [ok]',
            '{"k": 3, "dim_nullspace": 8, "dim_formula": 8, "dims_match": '
            'true, "product_failures": [], "products_harmonic": true, '
            '"schema": "supertransform/1", "basis": [{"schema": '
            '"supertransform/1", "m": 2, "n": 1, "envelope": false, "terms": '
            '[{"bos": [2, 1], "fer": [], "coeff": [{"q": [1, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [0, 3], "fer": [], "coeff": [{"q": [-1, '
            '3, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": "supertransform/1", '
            '"m": 2, "n": 1, "envelope": false, "terms": [{"bos": [3, 0], '
            '"fer": [], "coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [1, 2], "fer": [], "coeff": [{"q": [-3, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}, {"schema": "supertransform/1", "m": 2, "n": '
            '1, "envelope": false, "terms": [{"bos": [1, 1], "fer": [1], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 2, "n": 1, "envelope": false, "terms": '
            '[{"bos": [2, 0], "fer": [1], "coeff": [{"q": [1, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [0, 2], "fer": [1], "coeff": [{"q": '
            '[-1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 2, "n": 1, "envelope": false, "terms": '
            '[{"bos": [1, 1], "fer": [2], "coeff": [{"q": [1, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}, {"schema": "supertransform/1", "m": 2, "n": '
            '1, "envelope": false, "terms": [{"bos": [2, 0], "fer": [2], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '2], "fer": [2], "coeff": [{"q": [-1, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}, {"schema": "supertransform/1", "m": 2, "n": 1, '
            '"envelope": false, "terms": [{"bos": [0, 3], "fer": [], '
            '"coeff": [{"q": [-2, 3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '1], "fer": [1, 2], "coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}, {"schema": "supertransform/1", "m": 2, "n": 1, '
            '"envelope": false, "terms": [{"bos": [1, 2], "fer": [], '
            '"coeff": [{"q": [-2, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, '
            '0], "fer": [1, 2], "coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}]}',
            'degree 3: dim nullspace 8, dim formula 8 [ok]',
        ),
    ),
    (2, 2, 0): (
        (
            'G',
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [0, 0], "fer": [], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}',
            'e^{x^2/2}',
        ),
        (
            '-4*x1^2*G - 4*x2^2*G + 4*q1q2*G + 4*q3q4*G - 4*G',
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [2, 0], "fer": [], "coeff": [{"q": [-4, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '0], "fer": [1, 2], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0, 0], "fer": [3, 4], "coeff": [{"q": [4, 1, 0, '
            '1], "b": 0, "eps": 0}]}, {"bos": [0, 0], "fer": [], "coeff": '
            '[{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}]}',
            '-4 x_{1}^{2} e^{x^2/2} - 4 x_{2}^{2} e^{x^2/2} + 4 q_{1}q_{2} e'
            '^{x^2/2} + 4 q_{3}q_{4} e^{x^2/2} - 4 e^{x^2/2}',
        ),
        (
            '16*x1^4*G + 32*x1^2*x2^2*G - 32*x1^2*q1q2*G - 32*x1^2*q3q4*G + '
            '16*x2^4*G - 32*x2^2*q1q2*G - 32*x2^2*q3q4*G + 32*q1q2q3q4*G',
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [4, 0], "fer": [], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 2], "fer": [], '
            '"coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, '
            '0], "fer": [1, 2], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2, 0], "fer": [3, 4], "coeff": [{"q": '
            '[-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 4], "fer": [], '
            '"coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '2], "fer": [1, 2], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0, 2], "fer": [3, 4], "coeff": [{"q": '
            '[-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 0], "fer": [1, '
            '2, 3, 4], "coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}]}',
            '16 x_{1}^{4} e^{x^2/2} + 32 x_{1}^{2}x_{2}^{2} e^{x^2/2} - 32 x'
            '_{1}^{2}q_{1}q_{2} e^{x^2/2} - 32 x_{1}^{2}q_{3}q_{4} e^{x^2/2}'
            ' + 16 x_{2}^{4} e^{x^2/2} - 32 x_{2}^{2}q_{1}q_{2} e^{x^2/2} - '
            '32 x_{2}^{2}q_{3}q_{4} e^{x^2/2} + 32 q_{1}q_{2}q_{3}q_{4} e^{x'
            '^2/2}',
        ),
        (
            'degree 0: dim nullspace 1, dim formula 1 [ok]',
            '{"k": 0, "dim_nullspace": 1, "dim_formula": 1, "dims_match": '
            'true, "product_failures": [], "products_harmonic": true, '
            '"schema": "supertransform/1", "basis": [{"schema": '
            '"supertransform/1", "m": 2, "n": 2, "envelope": false, "terms": '
            '[{"bos": [0, 0], "fer": [], "coeff": [{"q": [1, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}]}',
            'degree 0: dim nullspace 1, dim formula 1 [ok]',
        ),
    ),
    (2, 2, 1): (
        (
            'x2*G\nx1*G\nq1*G\nq2*G\nq3*G\nq4*G',
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [0, 1], "fer": [], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [1, 0], "fer": [], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [0, 0], "fer": [1], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [0, 0], "fer": [2], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [0, 0], "fer": [3], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [0, 0], "fer": [4], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}',
            'x_{2} e^{x^2/2}\nx_{1} e^{x^2/2}\nq_{1} e^{x^2/2}\nq_{2} e^{x^2'
            '/2}\nq_{3} e^{x^2/2}\nq_{4} e^{x^2/2}',
        ),
        (
            '-4*x1^2*x2*G - 4*x2^3*G + 4*x2*q1q2*G + 4*x2*q3q4*G\n'
            '-4*x1^3*G - 4*x1*x2^2*G + 4*x1*q1q2*G + 4*x1*q3q4*G\n'
            '-4*x1^2*q1*G - 4*x2^2*q1*G + 4*q1q3q4*G\n'
            '-4*x1^2*q2*G - 4*x2^2*q2*G + 4*q2q3q4*G\n'
            '-4*x1^2*q3*G - 4*x2^2*q3*G + 4*q1q2q3*G\n'
            '-4*x1^2*q4*G - 4*x2^2*q4*G + 4*q1q2q4*G',
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [2, 1], "fer": [], "coeff": [{"q": [-4, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 3], "fer": [], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '1], "fer": [1, 2], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0, 1], "fer": [3, 4], "coeff": [{"q": [4, 1, 0, '
            '1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [3, 0], "fer": [], "coeff": [{"q": [-4, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 2], "fer": [], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, '
            '0], "fer": [1, 2], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [1, 0], "fer": [3, 4], "coeff": [{"q": [4, 1, 0, '
            '1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [2, 0], "fer": [1], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [1], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '0], "fer": [1, 3, 4], "coeff": [{"q": [4, 1, 0, 1], "b": 0, '
            '"eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [2, 0], "fer": [2], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [2], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '0], "fer": [2, 3, 4], "coeff": [{"q": [4, 1, 0, 1], "b": 0, '
            '"eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [2, 0], "fer": [3], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [3], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '0], "fer": [1, 2, 3], "coeff": [{"q": [4, 1, 0, 1], "b": 0, '
            '"eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [2, 0], "fer": [4], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [4], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '0], "fer": [1, 2, 4], "coeff": [{"q": [4, 1, 0, 1], "b": 0, '
            '"eps": 0}]}]}',
            '-4 x_{1}^{2}x_{2} e^{x^2/2} - 4 x_{2}^{3} e^{x^2/2} + 4 x_{2}q_'
            '{1}q_{2} e^{x^2/2} + 4 x_{2}q_{3}q_{4} e^{x^2/2}\n-4 x_{1}^{3} '
            'e^{x^2/2} - 4 x_{1}x_{2}^{2} e^{x^2/2} + 4 x_{1}q_{1}q_{2} e^{x'
            '^2/2} + 4 x_{1}q_{3}q_{4} e^{x^2/2}\n-4 x_{1}^{2}q_{1} e^{x^2/2'
            '} - 4 x_{2}^{2}q_{1} e^{x^2/2} + 4 q_{1}q_{3}q_{4} e^{x^2/2}\n-'
            '4 x_{1}^{2}q_{2} e^{x^2/2} - 4 x_{2}^{2}q_{2} e^{x^2/2} + 4 q_{'
            '2}q_{3}q_{4} e^{x^2/2}\n-4 x_{1}^{2}q_{3} e^{x^2/2} - 4 x_{2}^{'
            '2}q_{3} e^{x^2/2} + 4 q_{1}q_{2}q_{3} e^{x^2/2}\n-4 x_{1}^{2}q_'
            '{4} e^{x^2/2} - 4 x_{2}^{2}q_{4} e^{x^2/2} + 4 q_{1}q_{2}q_{4} '
            'e^{x^2/2}',
        ),
        (
            '16*x1^4*x2*G + 32*x1^2*x2^3*G - 32*x1^2*x2*q1q2*G - '
            '32*x1^2*x2*q3q4*G + 16*x2^5*G - 32*x2^3*q1q2*G - 32*x2^3*q3q4*G '
            '+ 32*x2*q1q2q3q4*G - 32*x1^2*x2*G - 32*x2^3*G + 32*x2*q1q2*G + '
            '32*x2*q3q4*G\n'
            '16*x1^5*G + 32*x1^3*x2^2*G - 32*x1^3*q1q2*G - 32*x1^3*q3q4*G + '
            '16*x1*x2^4*G - 32*x1*x2^2*q1q2*G - 32*x1*x2^2*q3q4*G + '
            '32*x1*q1q2q3q4*G - 32*x1^3*G - 32*x1*x2^2*G + 32*x1*q1q2*G + '
            '32*x1*q3q4*G\n'
            '16*x1^4*q1*G + 32*x1^2*x2^2*q1*G - 32*x1^2*q1q3q4*G + '
            '16*x2^4*q1*G - 32*x2^2*q1q3q4*G - 32*x1^2*q1*G - 32*x2^2*q1*G + '
            '32*q1q3q4*G\n'
            '16*x1^4*q2*G + 32*x1^2*x2^2*q2*G - 32*x1^2*q2q3q4*G + '
            '16*x2^4*q2*G - 32*x2^2*q2q3q4*G - 32*x1^2*q2*G - 32*x2^2*q2*G + '
            '32*q2q3q4*G\n'
            '16*x1^4*q3*G + 32*x1^2*x2^2*q3*G - 32*x1^2*q1q2q3*G + '
            '16*x2^4*q3*G - 32*x2^2*q1q2q3*G - 32*x1^2*q3*G - 32*x2^2*q3*G + '
            '32*q1q2q3*G\n'
            '16*x1^4*q4*G + 32*x1^2*x2^2*q4*G - 32*x1^2*q1q2q4*G + '
            '16*x2^4*q4*G - 32*x2^2*q1q2q4*G - 32*x1^2*q4*G - 32*x2^2*q4*G + '
            '32*q1q2q4*G',
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [4, 1], "fer": [], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 3], "fer": [], '
            '"coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, '
            '1], "fer": [1, 2], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2, 1], "fer": [3, 4], "coeff": [{"q": '
            '[-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 5], "fer": [], '
            '"coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '3], "fer": [1, 2], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0, 3], "fer": [3, 4], "coeff": [{"q": '
            '[-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 1], "fer": [1, '
            '2, 3, 4], "coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2, 1], "fer": [], "coeff": [{"q": [-32, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [0, 3], "fer": [], "coeff": [{"q": '
            '[-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 1], "fer": [1, '
            '2], "coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0, 1], "fer": [3, 4], "coeff": [{"q": [32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [5, 0], "fer": [], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, 2], "fer": [], '
            '"coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, '
            '0], "fer": [1, 2], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [3, 0], "fer": [3, 4], "coeff": [{"q": '
            '[-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 4], "fer": [], '
            '"coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, '
            '2], "fer": [1, 2], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [1, 2], "fer": [3, 4], "coeff": [{"q": '
            '[-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 0], "fer": [1, '
            '2, 3, 4], "coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [3, 0], "fer": [], "coeff": [{"q": [-32, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [1, 2], "fer": [], "coeff": [{"q": '
            '[-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 0], "fer": [1, '
            '2], "coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[1, 0], "fer": [3, 4], "coeff": [{"q": [32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [4, 0], "fer": [1], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 2], "fer": [1], '
            '"coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, '
            '0], "fer": [1, 3, 4], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0, 4], "fer": [1], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [1, 3, '
            '4], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2, 0], "fer": [1], "coeff": [{"q": [-32, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [1], "coeff": '
            '[{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 0], '
            '"fer": [1, 3, 4], "coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [4, 0], "fer": [2], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 2], "fer": [2], '
            '"coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, '
            '0], "fer": [2, 3, 4], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0, 4], "fer": [2], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [2, 3, '
            '4], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2, 0], "fer": [2], "coeff": [{"q": [-32, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [2], "coeff": '
            '[{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 0], '
            '"fer": [2, 3, 4], "coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [4, 0], "fer": [3], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 2], "fer": [3], '
            '"coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, '
            '0], "fer": [1, 2, 3], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0, 4], "fer": [3], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [1, 2, '
            '3], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2, 0], "fer": [3], "coeff": [{"q": [-32, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [3], "coeff": '
            '[{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 0], '
            '"fer": [1, 2, 3], "coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [4, 0], "fer": [4], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 2], "fer": [4], '
            '"coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, '
            '0], "fer": [1, 2, 4], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0, 4], "fer": [4], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [1, 2, '
            '4], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2, 0], "fer": [4], "coeff": [{"q": [-32, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [4], "coeff": '
            '[{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 0], '
            '"fer": [1, 2, 4], "coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}',
            '16 x_{1}^{4}x_{2} e^{x^2/2} + 32 x_{1}^{2}x_{2}^{3} e^{x^2/2} -'
            ' 32 x_{1}^{2}x_{2}q_{1}q_{2} e^{x^2/2} - 32 x_{1}^{2}x_{2}q_{3}'
            'q_{4} e^{x^2/2} + 16 x_{2}^{5} e^{x^2/2} - 32 x_{2}^{3}q_{1}q_{'
            '2} e^{x^2/2} - 32 x_{2}^{3}q_{3}q_{4} e^{x^2/2} + 32 x_{2}q_{1}'
            'q_{2}q_{3}q_{4} e^{x^2/2} - 32 x_{1}^{2}x_{2} e^{x^2/2} - 32 x_'
            '{2}^{3} e^{x^2/2} + 32 x_{2}q_{1}q_{2} e^{x^2/2} + 32 x_{2}q_{3'
            '}q_{4} e^{x^2/2}\n16 x_{1}^{5} e^{x^2/2} + 32 x_{1}^{3}x_{2}^{2'
            '} e^{x^2/2} - 32 x_{1}^{3}q_{1}q_{2} e^{x^2/2} - 32 x_{1}^{3}q_'
            '{3}q_{4} e^{x^2/2} + 16 x_{1}x_{2}^{4} e^{x^2/2} - 32 x_{1}x_{2'
            '}^{2}q_{1}q_{2} e^{x^2/2} - 32 x_{1}x_{2}^{2}q_{3}q_{4} e^{x^2/'
            '2} + 32 x_{1}q_{1}q_{2}q_{3}q_{4} e^{x^2/2} - 32 x_{1}^{3} e^{x'
            '^2/2} - 32 x_{1}x_{2}^{2} e^{x^2/2} + 32 x_{1}q_{1}q_{2} e^{x^2'
            '/2} + 32 x_{1}q_{3}q_{4} e^{x^2/2}\n16 x_{1}^{4}q_{1} e^{x^2/2}'
            ' + 32 x_{1}^{2}x_{2}^{2}q_{1} e^{x^2/2} - 32 x_{1}^{2}q_{1}q_{3'
            '}q_{4} e^{x^2/2} + 16 x_{2}^{4}q_{1} e^{x^2/2} - 32 x_{2}^{2}q_'
            '{1}q_{3}q_{4} e^{x^2/2} - 32 x_{1}^{2}q_{1} e^{x^2/2} - 32 x_{2'
            '}^{2}q_{1} e^{x^2/2} + 32 q_{1}q_{3}q_{4} e^{x^2/2}\n16 x_{1}^{'
            '4}q_{2} e^{x^2/2} + 32 x_{1}^{2}x_{2}^{2}q_{2} e^{x^2/2} - 32 x'
            '_{1}^{2}q_{2}q_{3}q_{4} e^{x^2/2} + 16 x_{2}^{4}q_{2} e^{x^2/2}'
            ' - 32 x_{2}^{2}q_{2}q_{3}q_{4} e^{x^2/2} - 32 x_{1}^{2}q_{2} e^'
            '{x^2/2} - 32 x_{2}^{2}q_{2} e^{x^2/2} + 32 q_{2}q_{3}q_{4} e^{x'
            '^2/2}\n16 x_{1}^{4}q_{3} e^{x^2/2} + 32 x_{1}^{2}x_{2}^{2}q_{3}'
            ' e^{x^2/2} - 32 x_{1}^{2}q_{1}q_{2}q_{3} e^{x^2/2} + 16 x_{2}^{'
            '4}q_{3} e^{x^2/2} - 32 x_{2}^{2}q_{1}q_{2}q_{3} e^{x^2/2} - 32 '
            'x_{1}^{2}q_{3} e^{x^2/2} - 32 x_{2}^{2}q_{3} e^{x^2/2} + 32 q_{'
            '1}q_{2}q_{3} e^{x^2/2}\n16 x_{1}^{4}q_{4} e^{x^2/2} + 32 x_{1}^'
            '{2}x_{2}^{2}q_{4} e^{x^2/2} - 32 x_{1}^{2}q_{1}q_{2}q_{4} e^{x^'
            '2/2} + 16 x_{2}^{4}q_{4} e^{x^2/2} - 32 x_{2}^{2}q_{1}q_{2}q_{4'
            '} e^{x^2/2} - 32 x_{1}^{2}q_{4} e^{x^2/2} - 32 x_{2}^{2}q_{4} e'
            '^{x^2/2} + 32 q_{1}q_{2}q_{4} e^{x^2/2}',
        ),
        (
            'degree 1: dim nullspace 6, dim formula 6 [ok]',
            '{"k": 1, "dim_nullspace": 6, "dim_formula": 6, "dims_match": '
            'true, "product_failures": [], "products_harmonic": true, '
            '"schema": "supertransform/1", "basis": [{"schema": '
            '"supertransform/1", "m": 2, "n": 2, "envelope": false, "terms": '
            '[{"bos": [0, 1], "fer": [], "coeff": [{"q": [1, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}, {"schema": "supertransform/1", "m": 2, "n": '
            '2, "envelope": false, "terms": [{"bos": [1, 0], "fer": [], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 2, "n": 2, "envelope": false, "terms": '
            '[{"bos": [0, 0], "fer": [1], "coeff": [{"q": [1, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}, {"schema": "supertransform/1", "m": 2, "n": '
            '2, "envelope": false, "terms": [{"bos": [0, 0], "fer": [2], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 2, "n": 2, "envelope": false, "terms": '
            '[{"bos": [0, 0], "fer": [3], "coeff": [{"q": [1, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}, {"schema": "supertransform/1", "m": 2, "n": '
            '2, "envelope": false, "terms": [{"bos": [0, 0], "fer": [4], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}]}',
            'degree 1: dim nullspace 6, dim formula 6 [ok]',
        ),
    ),
    (2, 2, 2): (
        (
            'x1*x2*G\n'
            'x1^2*G - x2^2*G\n'
            'x2*q1*G\n'
            'x1*q1*G\n'
            'x2*q2*G\n'
            'x1*q2*G\n'
            'x2*q3*G\n'
            'x1*q3*G\n'
            'x2*q4*G\n'
            'x1*q4*G\n'
            '-2*x2^2*G + q1q2*G\n'
            'q1q3*G\nq2q3*G\nq1q4*G\nq2q4*G\n-2*x2^2*G + q3q4*G',
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [1, 1], "fer": [], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [2, 0], "fer": [], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [], '
            '"coeff": [{"q": [-1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [0, 1], "fer": [1], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [1, 0], "fer": [1], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [0, 1], "fer": [2], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [1, 0], "fer": [2], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [0, 1], "fer": [3], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [1, 0], "fer": [3], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [0, 1], "fer": [4], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [1, 0], "fer": [4], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [0, 2], "fer": [], "coeff": [{"q": [-2, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 0], "fer": [1, 2], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [0, 0], "fer": [1, 3], "coeff": [{"q": '
            '[1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [0, 0], "fer": [2, 3], "coeff": [{"q": '
            '[1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [0, 0], "fer": [1, 4], "coeff": [{"q": '
            '[1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [0, 0], "fer": [2, 4], "coeff": [{"q": '
            '[1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [0, 2], "fer": [], "coeff": [{"q": [-2, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 0], "fer": [3, 4], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}',
            'x_{1}x_{2} e^{x^2/2}\nx_{1}^{2} e^{x^2/2} - x_{2}^{2} e^{x^2/2}'
            '\nx_{2}q_{1} e^{x^2/2}\nx_{1}q_{1} e^{x^2/2}\nx_{2}q_{2} e^{x^2'
            '/2}\nx_{1}q_{2} e^{x^2/2}\nx_{2}q_{3} e^{x^2/2}\nx_{1}q_{3} e^{'
            'x^2/2}\nx_{2}q_{4} e^{x^2/2}\nx_{1}q_{4} e^{x^2/2}\n-2 x_{2}^{2'
            '} e^{x^2/2} + q_{1}q_{2} e^{x^2/2}\nq_{1}q_{3} e^{x^2/2}\nq_{2}'
            'q_{3} e^{x^2/2}\nq_{1}q_{4} e^{x^2/2}\nq_{2}q_{4} e^{x^2/2}\n-2'
            ' x_{2}^{2} e^{x^2/2} + q_{3}q_{4} e^{x^2/2}',
        ),
        (
            '-4*x1^3*x2*G - 4*x1*x2^3*G + 4*x1*x2*q1q2*G + 4*x1*x2*q3q4*G + '
            '4*x1*x2*G\n'
            '-4*x1^4*G + 4*x1^2*q1q2*G + 4*x1^2*q3q4*G + 4*x2^4*G - '
            '4*x2^2*q1q2*G - 4*x2^2*q3q4*G + 4*x1^2*G - 4*x2^2*G\n'
            '-4*x1^2*x2*q1*G - 4*x2^3*q1*G + 4*x2*q1q3q4*G + 4*x2*q1*G\n'
            '-4*x1^3*q1*G - 4*x1*x2^2*q1*G + 4*x1*q1q3q4*G + 4*x1*q1*G\n'
            '-4*x1^2*x2*q2*G - 4*x2^3*q2*G + 4*x2*q2q3q4*G + 4*x2*q2*G\n'
            '-4*x1^3*q2*G - 4*x1*x2^2*q2*G + 4*x1*q2q3q4*G + 4*x1*q2*G\n'
            '-4*x1^2*x2*q3*G - 4*x2^3*q3*G + 4*x2*q1q2q3*G + 4*x2*q3*G\n'
            '-4*x1^3*q3*G - 4*x1*x2^2*q3*G + 4*x1*q1q2q3*G + 4*x1*q3*G\n'
            '-4*x1^2*x2*q4*G - 4*x2^3*q4*G + 4*x2*q1q2q4*G + 4*x2*q4*G\n'
            '-4*x1^3*q4*G - 4*x1*x2^2*q4*G + 4*x1*q1q2q4*G + 4*x1*q4*G\n'
            '8*x1^2*x2^2*G - 4*x1^2*q1q2*G + 8*x2^4*G - 12*x2^2*q1q2*G - '
            '8*x2^2*q3q4*G + 4*q1q2q3q4*G - 8*x2^2*G + 4*q1q2*G\n'
            '-4*x1^2*q1q3*G - 4*x2^2*q1q3*G + 4*q1q3*G\n'
            '-4*x1^2*q2q3*G - 4*x2^2*q2q3*G + 4*q2q3*G\n'
            '-4*x1^2*q1q4*G - 4*x2^2*q1q4*G + 4*q1q4*G\n'
            '-4*x1^2*q2q4*G - 4*x2^2*q2q4*G + 4*q2q4*G\n'
            '8*x1^2*x2^2*G - 4*x1^2*q3q4*G + 8*x2^4*G - 8*x2^2*q1q2*G - '
            '12*x2^2*q3q4*G + 4*q1q2q3q4*G - 8*x2^2*G + 4*q3q4*G',
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [3, 1], "fer": [], "coeff": [{"q": [-4, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 3], "fer": [], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, '
            '1], "fer": [1, 2], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [1, 1], "fer": [3, 4], "coeff": [{"q": [4, 1, 0, '
            '1], "b": 0, "eps": 0}]}, {"bos": [1, 1], "fer": [], "coeff": '
            '[{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [4, 0], "fer": [], "coeff": [{"q": [-4, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 0], "fer": [1, 2], '
            '"coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, '
            '0], "fer": [3, 4], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0, 4], "fer": [], "coeff": [{"q": [4, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [1, 2], "coeff": '
            '[{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], '
            '"fer": [3, 4], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [2, 0], "fer": [], "coeff": [{"q": [4, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [2, 1], "fer": [1], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 3], "fer": [1], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '1], "fer": [1, 3, 4], "coeff": [{"q": [4, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0, 1], "fer": [1], "coeff": [{"q": [4, 1, '
            '0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [3, 0], "fer": [1], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 2], "fer": [1], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, '
            '0], "fer": [1, 3, 4], "coeff": [{"q": [4, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [1, 0], "fer": [1], "coeff": [{"q": [4, 1, '
            '0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [2, 1], "fer": [2], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 3], "fer": [2], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '1], "fer": [2, 3, 4], "coeff": [{"q": [4, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0, 1], "fer": [2], "coeff": [{"q": [4, 1, '
            '0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [3, 0], "fer": [2], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 2], "fer": [2], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, '
            '0], "fer": [2, 3, 4], "coeff": [{"q": [4, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [1, 0], "fer": [2], "coeff": [{"q": [4, 1, '
            '0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [2, 1], "fer": [3], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 3], "fer": [3], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '1], "fer": [1, 2, 3], "coeff": [{"q": [4, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0, 1], "fer": [3], "coeff": [{"q": [4, 1, '
            '0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [3, 0], "fer": [3], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 2], "fer": [3], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, '
            '0], "fer": [1, 2, 3], "coeff": [{"q": [4, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [1, 0], "fer": [3], "coeff": [{"q": [4, 1, '
            '0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [2, 1], "fer": [4], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 3], "fer": [4], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '1], "fer": [1, 2, 4], "coeff": [{"q": [4, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0, 1], "fer": [4], "coeff": [{"q": [4, 1, '
            '0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [3, 0], "fer": [4], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 2], "fer": [4], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, '
            '0], "fer": [1, 2, 4], "coeff": [{"q": [4, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [1, 0], "fer": [4], "coeff": [{"q": [4, 1, '
            '0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [2, 2], "fer": [], "coeff": [{"q": [8, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 0], "fer": [1, 2], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '4], "fer": [], "coeff": [{"q": [8, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0, 2], "fer": [1, 2], "coeff": [{"q": [-12, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [3, 4], '
            '"coeff": [{"q": [-8, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '0], "fer": [1, 2, 3, 4], "coeff": [{"q": [4, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0, 2], "fer": [], "coeff": [{"q": [-8, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 0], "fer": [1, 2], '
            '"coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [2, 0], "fer": [1, 3], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [1, '
            '3], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0, 0], "fer": [1, 3], "coeff": [{"q": [4, 1, 0, 1], "b": 0, '
            '"eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [2, 0], "fer": [2, 3], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [2, '
            '3], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0, 0], "fer": [2, 3], "coeff": [{"q": [4, 1, 0, 1], "b": 0, '
            '"eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [2, 0], "fer": [1, 4], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [1, '
            '4], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0, 0], "fer": [1, 4], "coeff": [{"q": [4, 1, 0, 1], "b": 0, '
            '"eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [2, 0], "fer": [2, 4], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [2, '
            '4], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0, 0], "fer": [2, 4], "coeff": [{"q": [4, 1, 0, 1], "b": 0, '
            '"eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [2, 2], "fer": [], "coeff": [{"q": [8, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 0], "fer": [3, 4], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '4], "fer": [], "coeff": [{"q": [8, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0, 2], "fer": [1, 2], "coeff": [{"q": [-8, 1, 0, '
            '1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [3, 4], '
            '"coeff": [{"q": [-12, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0, 0], "fer": [1, 2, 3, 4], "coeff": [{"q": [4, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [0, 2], "fer": [], "coeff": [{"q": [-8, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 0], "fer": [3, 4], '
            '"coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}]}',
            '-4 x_{1}^{3}x_{2} e^{x^2/2} - 4 x_{1}x_{2}^{3} e^{x^2/2} + 4 x_'
            '{1}x_{2}q_{1}q_{2} e^{x^2/2} + 4 x_{1}x_{2}q_{3}q_{4} e^{x^2/2}'
            ' + 4 x_{1}x_{2} e^{x^2/2}\n-4 x_{1}^{4} e^{x^2/2} + 4 x_{1}^{2}'
            'q_{1}q_{2} e^{x^2/2} + 4 x_{1}^{2}q_{3}q_{4} e^{x^2/2} + 4 x_{2'
            '}^{4} e^{x^2/2} - 4 x_{2}^{2}q_{1}q_{2} e^{x^2/2} - 4 x_{2}^{2}'
            'q_{3}q_{4} e^{x^2/2} + 4 x_{1}^{2} e^{x^2/2} - 4 x_{2}^{2} e^{x'
            '^2/2}\n-4 x_{1}^{2}x_{2}q_{1} e^{x^2/2} - 4 x_{2}^{3}q_{1} e^{x'
            '^2/2} + 4 x_{2}q_{1}q_{3}q_{4} e^{x^2/2} + 4 x_{2}q_{1} e^{x^2/'
            '2}\n-4 x_{1}^{3}q_{1} e^{x^2/2} - 4 x_{1}x_{2}^{2}q_{1} e^{x^2/'
            '2} + 4 x_{1}q_{1}q_{3}q_{4} e^{x^2/2} + 4 x_{1}q_{1} e^{x^2/2}'
            '\n-4 x_{1}^{2}x_{2}q_{2} e^{x^2/2} - 4 x_{2}^{3}q_{2} e^{x^2/2}'
            ' + 4 x_{2}q_{2}q_{3}q_{4} e^{x^2/2} + 4 x_{2}q_{2} e^{x^2/2}\n-'
            '4 x_{1}^{3}q_{2} e^{x^2/2} - 4 x_{1}x_{2}^{2}q_{2} e^{x^2/2} + '
            '4 x_{1}q_{2}q_{3}q_{4} e^{x^2/2} + 4 x_{1}q_{2} e^{x^2/2}\n-4 x'
            '_{1}^{2}x_{2}q_{3} e^{x^2/2} - 4 x_{2}^{3}q_{3} e^{x^2/2} + 4 x'
            '_{2}q_{1}q_{2}q_{3} e^{x^2/2} + 4 x_{2}q_{3} e^{x^2/2}\n-4 x_{1'
            '}^{3}q_{3} e^{x^2/2} - 4 x_{1}x_{2}^{2}q_{3} e^{x^2/2} + 4 x_{1'
            '}q_{1}q_{2}q_{3} e^{x^2/2} + 4 x_{1}q_{3} e^{x^2/2}\n-4 x_{1}^{'
            '2}x_{2}q_{4} e^{x^2/2} - 4 x_{2}^{3}q_{4} e^{x^2/2} + 4 x_{2}q_'
            '{1}q_{2}q_{4} e^{x^2/2} + 4 x_{2}q_{4} e^{x^2/2}\n-4 x_{1}^{3}q'
            '_{4} e^{x^2/2} - 4 x_{1}x_{2}^{2}q_{4} e^{x^2/2} + 4 x_{1}q_{1}'
            'q_{2}q_{4} e^{x^2/2} + 4 x_{1}q_{4} e^{x^2/2}\n8 x_{1}^{2}x_{2}'
            '^{2} e^{x^2/2} - 4 x_{1}^{2}q_{1}q_{2} e^{x^2/2} + 8 x_{2}^{4} '
            'e^{x^2/2} - 12 x_{2}^{2}q_{1}q_{2} e^{x^2/2} - 8 x_{2}^{2}q_{3}'
            'q_{4} e^{x^2/2} + 4 q_{1}q_{2}q_{3}q_{4} e^{x^2/2} - 8 x_{2}^{2'
            '} e^{x^2/2} + 4 q_{1}q_{2} e^{x^2/2}\n-4 x_{1}^{2}q_{1}q_{3} e^'
            '{x^2/2} - 4 x_{2}^{2}q_{1}q_{3} e^{x^2/2} + 4 q_{1}q_{3} e^{x^2'
            '/2}\n-4 x_{1}^{2}q_{2}q_{3} e^{x^2/2} - 4 x_{2}^{2}q_{2}q_{3} e'
            '^{x^2/2} + 4 q_{2}q_{3} e^{x^2/2}\n-4 x_{1}^{2}q_{1}q_{4} e^{x^'
            '2/2} - 4 x_{2}^{2}q_{1}q_{4} e^{x^2/2} + 4 q_{1}q_{4} e^{x^2/2}'
            '\n-4 x_{1}^{2}q_{2}q_{4} e^{x^2/2} - 4 x_{2}^{2}q_{2}q_{4} e^{x'
            '^2/2} + 4 q_{2}q_{4} e^{x^2/2}\n8 x_{1}^{2}x_{2}^{2} e^{x^2/2} '
            '- 4 x_{1}^{2}q_{3}q_{4} e^{x^2/2} + 8 x_{2}^{4} e^{x^2/2} - 8 x'
            '_{2}^{2}q_{1}q_{2} e^{x^2/2} - 12 x_{2}^{2}q_{3}q_{4} e^{x^2/2}'
            ' + 4 q_{1}q_{2}q_{3}q_{4} e^{x^2/2} - 8 x_{2}^{2} e^{x^2/2} + 4'
            ' q_{3}q_{4} e^{x^2/2}',
        ),
        (
            '16*x1^5*x2*G + 32*x1^3*x2^3*G - 32*x1^3*x2*q1q2*G - '
            '32*x1^3*x2*q3q4*G + 16*x1*x2^5*G - 32*x1*x2^3*q1q2*G - '
            '32*x1*x2^3*q3q4*G + 32*x1*x2*q1q2q3q4*G - 64*x1^3*x2*G - '
            '64*x1*x2^3*G + 64*x1*x2*q1q2*G + 64*x1*x2*q3q4*G + 32*x1*x2*G\n'
            '16*x1^6*G + 16*x1^4*x2^2*G - 32*x1^4*q1q2*G - 32*x1^4*q3q4*G - '
            '16*x1^2*x2^4*G + 32*x1^2*q1q2q3q4*G - 16*x2^6*G + '
            '32*x2^4*q1q2*G + 32*x2^4*q3q4*G - 32*x2^2*q1q2q3q4*G - '
            '64*x1^4*G + 64*x1^2*q1q2*G + 64*x1^2*q3q4*G + 64*x2^4*G - '
            '64*x2^2*q1q2*G - 64*x2^2*q3q4*G + 32*x1^2*G - 32*x2^2*G\n'
            '16*x1^4*x2*q1*G + 32*x1^2*x2^3*q1*G - 32*x1^2*x2*q1q3q4*G + '
            '16*x2^5*q1*G - 32*x2^3*q1q3q4*G - 64*x1^2*x2*q1*G - '
            '64*x2^3*q1*G + 64*x2*q1q3q4*G + 32*x2*q1*G\n'
            '16*x1^5*q1*G + 32*x1^3*x2^2*q1*G - 32*x1^3*q1q3q4*G + '
            '16*x1*x2^4*q1*G - 32*x1*x2^2*q1q3q4*G - 64*x1^3*q1*G - '
            '64*x1*x2^2*q1*G + 64*x1*q1q3q4*G + 32*x1*q1*G\n'
            '16*x1^4*x2*q2*G + 32*x1^2*x2^3*q2*G - 32*x1^2*x2*q2q3q4*G + '
            '16*x2^5*q2*G - 32*x2^3*q2q3q4*G - 64*x1^2*x2*q2*G - '
            '64*x2^3*q2*G + 64*x2*q2q3q4*G + 32*x2*q2*G\n'
            '16*x1^5*q2*G + 32*x1^3*x2^2*q2*G - 32*x1^3*q2q3q4*G + '
            '16*x1*x2^4*q2*G - 32*x1*x2^2*q2q3q4*G - 64*x1^3*q2*G - '
            '64*x1*x2^2*q2*G + 64*x1*q2q3q4*G + 32*x1*q2*G\n'
            '16*x1^4*x2*q3*G + 32*x1^2*x2^3*q3*G - 32*x1^2*x2*q1q2q3*G + '
            '16*x2^5*q3*G - 32*x2^3*q1q2q3*G - 64*x1^2*x2*q3*G - '
            '64*x2^3*q3*G + 64*x2*q1q2q3*G + 32*x2*q3*G\n'
            '16*x1^5*q3*G + 32*x1^3*x2^2*q3*G - 32*x1^3*q1q2q3*G + '
            '16*x1*x2^4*q3*G - 32*x1*x2^2*q1q2q3*G - 64*x1^3*q3*G - '
            '64*x1*x2^2*q3*G + 64*x1*q1q2q3*G + 32*x1*q3*G\n'
            '16*x1^4*x2*q4*G + 32*x1^2*x2^3*q4*G - 32*x1^2*x2*q1q2q4*G + '
            '16*x2^5*q4*G - 32*x2^3*q1q2q4*G - 64*x1^2*x2*q4*G - '
            '64*x2^3*q4*G + 64*x2*q1q2q4*G + 32*x2*q4*G\n'
            '16*x1^5*q4*G + 32*x1^3*x2^2*q4*G - 32*x1^3*q1q2q4*G + '
            '16*x1*x2^4*q4*G - 32*x1*x2^2*q1q2q4*G - 64*x1^3*q4*G - '
            '64*x1*x2^2*q4*G + 64*x1*q1q2q4*G + 32*x1*q4*G\n'
            '-32*x1^4*x2^2*G + 16*x1^4*q1q2*G - 64*x1^2*x2^4*G + '
            '96*x1^2*x2^2*q1q2*G + 64*x1^2*x2^2*q3q4*G - 32*x1^2*q1q2q3q4*G '
            '- 32*x2^6*G + 80*x2^4*q1q2*G + 64*x2^4*q3q4*G - '
            '96*x2^2*q1q2q3q4*G + 128*x1^2*x2^2*G - 64*x1^2*q1q2*G + '
            '128*x2^4*G - 192*x2^2*q1q2*G - 128*x2^2*q3q4*G + 64*q1q2q3q4*G '
            '- 64*x2^2*G + 32*q1q2*G\n'
            '16*x1^4*q1q3*G + 32*x1^2*x2^2*q1q3*G + 16*x2^4*q1q3*G - '
            '64*x1^2*q1q3*G - 64*x2^2*q1q3*G + 32*q1q3*G\n'
            '16*x1^4*q2q3*G + 32*x1^2*x2^2*q2q3*G + 16*x2^4*q2q3*G - '
            '64*x1^2*q2q3*G - 64*x2^2*q2q3*G + 32*q2q3*G\n'
            '16*x1^4*q1q4*G + 32*x1^2*x2^2*q1q4*G + 16*x2^4*q1q4*G - '
            '64*x1^2*q1q4*G - 64*x2^2*q1q4*G + 32*q1q4*G\n'
            '16*x1^4*q2q4*G + 32*x1^2*x2^2*q2q4*G + 16*x2^4*q2q4*G - '
            '64*x1^2*q2q4*G - 64*x2^2*q2q4*G + 32*q2q4*G\n'
            '-32*x1^4*x2^2*G + 16*x1^4*q3q4*G - 64*x1^2*x2^4*G + '
            '64*x1^2*x2^2*q1q2*G + 96*x1^2*x2^2*q3q4*G - 32*x1^2*q1q2q3q4*G '
            '- 32*x2^6*G + 64*x2^4*q1q2*G + 80*x2^4*q3q4*G - '
            '96*x2^2*q1q2q3q4*G + 128*x1^2*x2^2*G - 64*x1^2*q3q4*G + '
            '128*x2^4*G - 128*x2^2*q1q2*G - 192*x2^2*q3q4*G + 64*q1q2q3q4*G '
            '- 64*x2^2*G + 32*q3q4*G',
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [5, 1], "fer": [], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, 3], "fer": [], '
            '"coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, '
            '1], "fer": [1, 2], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [3, 1], "fer": [3, 4], "coeff": [{"q": '
            '[-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 5], "fer": [], '
            '"coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, '
            '3], "fer": [1, 2], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [1, 3], "fer": [3, 4], "coeff": [{"q": '
            '[-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 1], "fer": [1, '
            '2, 3, 4], "coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [3, 1], "fer": [], "coeff": [{"q": [-64, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [1, 3], "fer": [], "coeff": [{"q": '
            '[-64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 1], "fer": [1, '
            '2], "coeff": [{"q": [64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[1, 1], "fer": [3, 4], "coeff": [{"q": [64, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [1, 1], "fer": [], "coeff": [{"q": [32, 1, '
            '0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [6, 0], "fer": [], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4, 2], "fer": [], '
            '"coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4, '
            '0], "fer": [1, 2], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [4, 0], "fer": [3, 4], "coeff": [{"q": '
            '[-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 4], "fer": [], '
            '"coeff": [{"q": [-16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2, 0], "fer": [1, 2, 3, 4], "coeff": [{"q": [32, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0, 6], "fer": [], "coeff": [{"q": '
            '[-16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 4], "fer": [1, '
            '2], "coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0, 4], "fer": [3, 4], "coeff": [{"q": [32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0, 2], "fer": [1, 2, 3, 4], "coeff": '
            '[{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4, 0], '
            '"fer": [], "coeff": [{"q": [-64, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2, 0], "fer": [1, 2], "coeff": [{"q": [64, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [2, 0], "fer": [3, 4], "coeff": '
            '[{"q": [64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 4], '
            '"fer": [], "coeff": [{"q": [64, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 2], "fer": [1, 2], "coeff": [{"q": [-64, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [3, 4], "coeff": '
            '[{"q": [-64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 0], '
            '"fer": [], "coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 2], "fer": [], "coeff": [{"q": [-32, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [4, 1], "fer": [1], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 3], "fer": [1], '
            '"coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, '
            '1], "fer": [1, 3, 4], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0, 5], "fer": [1], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 3], "fer": [1, 3, '
            '4], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2, 1], "fer": [1], "coeff": [{"q": [-64, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0, 3], "fer": [1], "coeff": '
            '[{"q": [-64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 1], '
            '"fer": [1, 3, 4], "coeff": [{"q": [64, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0, 1], "fer": [1], "coeff": [{"q": [32, 1, 0, '
            '1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [5, 0], "fer": [1], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, 2], "fer": [1], '
            '"coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, '
            '0], "fer": [1, 3, 4], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [1, 4], "fer": [1], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 2], "fer": [1, 3, '
            '4], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [3, 0], "fer": [1], "coeff": [{"q": [-64, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [1, 2], "fer": [1], "coeff": '
            '[{"q": [-64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 0], '
            '"fer": [1, 3, 4], "coeff": [{"q": [64, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [1, 0], "fer": [1], "coeff": [{"q": [32, 1, 0, '
            '1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [4, 1], "fer": [2], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 3], "fer": [2], '
            '"coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, '
            '1], "fer": [2, 3, 4], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0, 5], "fer": [2], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 3], "fer": [2, 3, '
            '4], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2, 1], "fer": [2], "coeff": [{"q": [-64, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0, 3], "fer": [2], "coeff": '
            '[{"q": [-64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 1], '
            '"fer": [2, 3, 4], "coeff": [{"q": [64, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0, 1], "fer": [2], "coeff": [{"q": [32, 1, 0, '
            '1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [5, 0], "fer": [2], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, 2], "fer": [2], '
            '"coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, '
            '0], "fer": [2, 3, 4], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [1, 4], "fer": [2], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 2], "fer": [2, 3, '
            '4], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [3, 0], "fer": [2], "coeff": [{"q": [-64, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [1, 2], "fer": [2], "coeff": '
            '[{"q": [-64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 0], '
            '"fer": [2, 3, 4], "coeff": [{"q": [64, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [1, 0], "fer": [2], "coeff": [{"q": [32, 1, 0, '
            '1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [4, 1], "fer": [3], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 3], "fer": [3], '
            '"coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, '
            '1], "fer": [1, 2, 3], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0, 5], "fer": [3], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 3], "fer": [1, 2, '
            '3], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2, 1], "fer": [3], "coeff": [{"q": [-64, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0, 3], "fer": [3], "coeff": '
            '[{"q": [-64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 1], '
            '"fer": [1, 2, 3], "coeff": [{"q": [64, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0, 1], "fer": [3], "coeff": [{"q": [32, 1, 0, '
            '1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [5, 0], "fer": [3], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, 2], "fer": [3], '
            '"coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, '
            '0], "fer": [1, 2, 3], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [1, 4], "fer": [3], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 2], "fer": [1, 2, '
            '3], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [3, 0], "fer": [3], "coeff": [{"q": [-64, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [1, 2], "fer": [3], "coeff": '
            '[{"q": [-64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 0], '
            '"fer": [1, 2, 3], "coeff": [{"q": [64, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [1, 0], "fer": [3], "coeff": [{"q": [32, 1, 0, '
            '1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [4, 1], "fer": [4], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 3], "fer": [4], '
            '"coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, '
            '1], "fer": [1, 2, 4], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0, 5], "fer": [4], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 3], "fer": [1, 2, '
            '4], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2, 1], "fer": [4], "coeff": [{"q": [-64, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0, 3], "fer": [4], "coeff": '
            '[{"q": [-64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 1], '
            '"fer": [1, 2, 4], "coeff": [{"q": [64, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0, 1], "fer": [4], "coeff": [{"q": [32, 1, 0, '
            '1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [5, 0], "fer": [4], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, 2], "fer": [4], '
            '"coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, '
            '0], "fer": [1, 2, 4], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [1, 4], "fer": [4], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 2], "fer": [1, 2, '
            '4], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [3, 0], "fer": [4], "coeff": [{"q": [-64, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [1, 2], "fer": [4], "coeff": '
            '[{"q": [-64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 0], '
            '"fer": [1, 2, 4], "coeff": [{"q": [64, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [1, 0], "fer": [4], "coeff": [{"q": [32, 1, 0, '
            '1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [4, 2], "fer": [], "coeff": [{"q": '
            '[-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4, 0], "fer": [1, '
            '2], "coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2, 4], "fer": [], "coeff": [{"q": [-64, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2, 2], "fer": [1, 2], "coeff": [{"q": '
            '[96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 2], "fer": [3, '
            '4], "coeff": [{"q": [64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2, 0], "fer": [1, 2, 3, 4], "coeff": [{"q": [-32, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0, 6], "fer": [], "coeff": [{"q": '
            '[-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 4], "fer": [1, '
            '2], "coeff": [{"q": [80, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0, 4], "fer": [3, 4], "coeff": [{"q": [64, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0, 2], "fer": [1, 2, 3, 4], "coeff": '
            '[{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 2], '
            '"fer": [], "coeff": [{"q": [128, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2, 0], "fer": [1, 2], "coeff": [{"q": [-64, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0, 4], "fer": [], "coeff": [{"q": '
            '[128, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [1, '
            '2], "coeff": [{"q": [-192, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 2], "fer": [3, 4], "coeff": [{"q": [-128, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0, 0], "fer": [1, 2, 3, 4], '
            '"coeff": [{"q": [64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '2], "fer": [], "coeff": [{"q": [-64, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0, 0], "fer": [1, 2], "coeff": [{"q": [32, 1, 0, '
            '1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [4, 0], "fer": [1, 3], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 2], "fer": [1, '
            '3], "coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0, 4], "fer": [1, 3], "coeff": [{"q": [16, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2, 0], "fer": [1, 3], "coeff": [{"q": '
            '[-64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [1, '
            '3], "coeff": [{"q": [-64, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 0], "fer": [1, 3], "coeff": [{"q": [32, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [4, 0], "fer": [2, 3], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 2], "fer": [2, '
            '3], "coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0, 4], "fer": [2, 3], "coeff": [{"q": [16, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2, 0], "fer": [2, 3], "coeff": [{"q": '
            '[-64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [2, '
            '3], "coeff": [{"q": [-64, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 0], "fer": [2, 3], "coeff": [{"q": [32, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [4, 0], "fer": [1, 4], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 2], "fer": [1, '
            '4], "coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0, 4], "fer": [1, 4], "coeff": [{"q": [16, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2, 0], "fer": [1, 4], "coeff": [{"q": '
            '[-64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [1, '
            '4], "coeff": [{"q": [-64, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 0], "fer": [1, 4], "coeff": [{"q": [32, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [4, 0], "fer": [2, 4], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 2], "fer": [2, '
            '4], "coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0, 4], "fer": [2, 4], "coeff": [{"q": [16, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2, 0], "fer": [2, 4], "coeff": [{"q": '
            '[-64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [2, '
            '4], "coeff": [{"q": [-64, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 0], "fer": [2, 4], "coeff": [{"q": [32, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [4, 2], "fer": [], "coeff": [{"q": '
            '[-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4, 0], "fer": [3, '
            '4], "coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2, 4], "fer": [], "coeff": [{"q": [-64, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2, 2], "fer": [1, 2], "coeff": [{"q": '
            '[64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 2], "fer": [3, '
            '4], "coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2, 0], "fer": [1, 2, 3, 4], "coeff": [{"q": [-32, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0, 6], "fer": [], "coeff": [{"q": '
            '[-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 4], "fer": [1, '
            '2], "coeff": [{"q": [64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0, 4], "fer": [3, 4], "coeff": [{"q": [80, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0, 2], "fer": [1, 2, 3, 4], "coeff": '
            '[{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 2], '
            '"fer": [], "coeff": [{"q": [128, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2, 0], "fer": [3, 4], "coeff": [{"q": [-64, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0, 4], "fer": [], "coeff": [{"q": '
            '[128, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [1, '
            '2], "coeff": [{"q": [-128, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 2], "fer": [3, 4], "coeff": [{"q": [-192, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0, 0], "fer": [1, 2, 3, 4], '
            '"coeff": [{"q": [64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '2], "fer": [], "coeff": [{"q": [-64, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0, 0], "fer": [3, 4], "coeff": [{"q": [32, 1, 0, '
            '1], "b": 0, "eps": 0}]}]}',
            '16 x_{1}^{5}x_{2} e^{x^2/2} + 32 x_{1}^{3}x_{2}^{3} e^{x^2/2} -'
            ' 32 x_{1}^{3}x_{2}q_{1}q_{2} e^{x^2/2} - 32 x_{1}^{3}x_{2}q_{3}'
            'q_{4} e^{x^2/2} + 16 x_{1}x_{2}^{5} e^{x^2/2} - 32 x_{1}x_{2}^{'
            '3}q_{1}q_{2} e^{x^2/2} - 32 x_{1}x_{2}^{3}q_{3}q_{4} e^{x^2/2} '
            '+ 32 x_{1}x_{2}q_{1}q_{2}q_{3}q_{4} e^{x^2/2} - 64 x_{1}^{3}x_{'
            '2} e^{x^2/2} - 64 x_{1}x_{2}^{3} e^{x^2/2} + 64 x_{1}x_{2}q_{1}'
            'q_{2} e^{x^2/2} + 64 x_{1}x_{2}q_{3}q_{4} e^{x^2/2} + 32 x_{1}x'
            '_{2} e^{x^2/2}\n16 x_{1}^{6} e^{x^2/2} + 16 x_{1}^{4}x_{2}^{2} '
            'e^{x^2/2} - 32 x_{1}^{4}q_{1}q_{2} e^{x^2/2} - 32 x_{1}^{4}q_{3'
            '}q_{4} e^{x^2/2} - 16 x_{1}^{2}x_{2}^{4} e^{x^2/2} + 32 x_{1}^{'
            '2}q_{1}q_{2}q_{3}q_{4} e^{x^2/2} - 16 x_{2}^{6} e^{x^2/2} + 32 '
            'x_{2}^{4}q_{1}q_{2} e^{x^2/2} + 32 x_{2}^{4}q_{3}q_{4} e^{x^2/2'
            '} - 32 x_{2}^{2}q_{1}q_{2}q_{3}q_{4} e^{x^2/2} - 64 x_{1}^{4} e'
            '^{x^2/2} + 64 x_{1}^{2}q_{1}q_{2} e^{x^2/2} + 64 x_{1}^{2}q_{3}'
            'q_{4} e^{x^2/2} + 64 x_{2}^{4} e^{x^2/2} - 64 x_{2}^{2}q_{1}q_{'
            '2} e^{x^2/2} - 64 x_{2}^{2}q_{3}q_{4} e^{x^2/2} + 32 x_{1}^{2} '
            'e^{x^2/2} - 32 x_{2}^{2} e^{x^2/2}\n16 x_{1}^{4}x_{2}q_{1} e^{x'
            '^2/2} + 32 x_{1}^{2}x_{2}^{3}q_{1} e^{x^2/2} - 32 x_{1}^{2}x_{2'
            '}q_{1}q_{3}q_{4} e^{x^2/2} + 16 x_{2}^{5}q_{1} e^{x^2/2} - 32 x'
            '_{2}^{3}q_{1}q_{3}q_{4} e^{x^2/2} - 64 x_{1}^{2}x_{2}q_{1} e^{x'
            '^2/2} - 64 x_{2}^{3}q_{1} e^{x^2/2} + 64 x_{2}q_{1}q_{3}q_{4} e'
            '^{x^2/2} + 32 x_{2}q_{1} e^{x^2/2}\n16 x_{1}^{5}q_{1} e^{x^2/2}'
            ' + 32 x_{1}^{3}x_{2}^{2}q_{1} e^{x^2/2} - 32 x_{1}^{3}q_{1}q_{3'
            '}q_{4} e^{x^2/2} + 16 x_{1}x_{2}^{4}q_{1} e^{x^2/2} - 32 x_{1}x'
            '_{2}^{2}q_{1}q_{3}q_{4} e^{x^2/2} - 64 x_{1}^{3}q_{1} e^{x^2/2}'
            ' - 64 x_{1}x_{2}^{2}q_{1} e^{x^2/2} + 64 x_{1}q_{1}q_{3}q_{4} e'
            '^{x^2/2} + 32 x_{1}q_{1} e^{x^2/2}\n16 x_{1}^{4}x_{2}q_{2} e^{x'
            '^2/2} + 32 x_{1}^{2}x_{2}^{3}q_{2} e^{x^2/2} - 32 x_{1}^{2}x_{2'
            '}q_{2}q_{3}q_{4} e^{x^2/2} + 16 x_{2}^{5}q_{2} e^{x^2/2} - 32 x'
            '_{2}^{3}q_{2}q_{3}q_{4} e^{x^2/2} - 64 x_{1}^{2}x_{2}q_{2} e^{x'
            '^2/2} - 64 x_{2}^{3}q_{2} e^{x^2/2} + 64 x_{2}q_{2}q_{3}q_{4} e'
            '^{x^2/2} + 32 x_{2}q_{2} e^{x^2/2}\n16 x_{1}^{5}q_{2} e^{x^2/2}'
            ' + 32 x_{1}^{3}x_{2}^{2}q_{2} e^{x^2/2} - 32 x_{1}^{3}q_{2}q_{3'
            '}q_{4} e^{x^2/2} + 16 x_{1}x_{2}^{4}q_{2} e^{x^2/2} - 32 x_{1}x'
            '_{2}^{2}q_{2}q_{3}q_{4} e^{x^2/2} - 64 x_{1}^{3}q_{2} e^{x^2/2}'
            ' - 64 x_{1}x_{2}^{2}q_{2} e^{x^2/2} + 64 x_{1}q_{2}q_{3}q_{4} e'
            '^{x^2/2} + 32 x_{1}q_{2} e^{x^2/2}\n16 x_{1}^{4}x_{2}q_{3} e^{x'
            '^2/2} + 32 x_{1}^{2}x_{2}^{3}q_{3} e^{x^2/2} - 32 x_{1}^{2}x_{2'
            '}q_{1}q_{2}q_{3} e^{x^2/2} + 16 x_{2}^{5}q_{3} e^{x^2/2} - 32 x'
            '_{2}^{3}q_{1}q_{2}q_{3} e^{x^2/2} - 64 x_{1}^{2}x_{2}q_{3} e^{x'
            '^2/2} - 64 x_{2}^{3}q_{3} e^{x^2/2} + 64 x_{2}q_{1}q_{2}q_{3} e'
            '^{x^2/2} + 32 x_{2}q_{3} e^{x^2/2}\n16 x_{1}^{5}q_{3} e^{x^2/2}'
            ' + 32 x_{1}^{3}x_{2}^{2}q_{3} e^{x^2/2} - 32 x_{1}^{3}q_{1}q_{2'
            '}q_{3} e^{x^2/2} + 16 x_{1}x_{2}^{4}q_{3} e^{x^2/2} - 32 x_{1}x'
            '_{2}^{2}q_{1}q_{2}q_{3} e^{x^2/2} - 64 x_{1}^{3}q_{3} e^{x^2/2}'
            ' - 64 x_{1}x_{2}^{2}q_{3} e^{x^2/2} + 64 x_{1}q_{1}q_{2}q_{3} e'
            '^{x^2/2} + 32 x_{1}q_{3} e^{x^2/2}\n16 x_{1}^{4}x_{2}q_{4} e^{x'
            '^2/2} + 32 x_{1}^{2}x_{2}^{3}q_{4} e^{x^2/2} - 32 x_{1}^{2}x_{2'
            '}q_{1}q_{2}q_{4} e^{x^2/2} + 16 x_{2}^{5}q_{4} e^{x^2/2} - 32 x'
            '_{2}^{3}q_{1}q_{2}q_{4} e^{x^2/2} - 64 x_{1}^{2}x_{2}q_{4} e^{x'
            '^2/2} - 64 x_{2}^{3}q_{4} e^{x^2/2} + 64 x_{2}q_{1}q_{2}q_{4} e'
            '^{x^2/2} + 32 x_{2}q_{4} e^{x^2/2}\n16 x_{1}^{5}q_{4} e^{x^2/2}'
            ' + 32 x_{1}^{3}x_{2}^{2}q_{4} e^{x^2/2} - 32 x_{1}^{3}q_{1}q_{2'
            '}q_{4} e^{x^2/2} + 16 x_{1}x_{2}^{4}q_{4} e^{x^2/2} - 32 x_{1}x'
            '_{2}^{2}q_{1}q_{2}q_{4} e^{x^2/2} - 64 x_{1}^{3}q_{4} e^{x^2/2}'
            ' - 64 x_{1}x_{2}^{2}q_{4} e^{x^2/2} + 64 x_{1}q_{1}q_{2}q_{4} e'
            '^{x^2/2} + 32 x_{1}q_{4} e^{x^2/2}\n-32 x_{1}^{4}x_{2}^{2} e^{x'
            '^2/2} + 16 x_{1}^{4}q_{1}q_{2} e^{x^2/2} - 64 x_{1}^{2}x_{2}^{4'
            '} e^{x^2/2} + 96 x_{1}^{2}x_{2}^{2}q_{1}q_{2} e^{x^2/2} + 64 x_'
            '{1}^{2}x_{2}^{2}q_{3}q_{4} e^{x^2/2} - 32 x_{1}^{2}q_{1}q_{2}q_'
            '{3}q_{4} e^{x^2/2} - 32 x_{2}^{6} e^{x^2/2} + 80 x_{2}^{4}q_{1}'
            'q_{2} e^{x^2/2} + 64 x_{2}^{4}q_{3}q_{4} e^{x^2/2} - 96 x_{2}^{'
            '2}q_{1}q_{2}q_{3}q_{4} e^{x^2/2} + 128 x_{1}^{2}x_{2}^{2} e^{x^'
            '2/2} - 64 x_{1}^{2}q_{1}q_{2} e^{x^2/2} + 128 x_{2}^{4} e^{x^2/'
            '2} - 192 x_{2}^{2}q_{1}q_{2} e^{x^2/2} - 128 x_{2}^{2}q_{3}q_{4'
            '} e^{x^2/2} + 64 q_{1}q_{2}q_{3}q_{4} e^{x^2/2} - 64 x_{2}^{2} '
            'e^{x^2/2} + 32 q_{1}q_{2} e^{x^2/2}\n16 x_{1}^{4}q_{1}q_{3} e^{'
            'x^2/2} + 32 x_{1}^{2}x_{2}^{2}q_{1}q_{3} e^{x^2/2} + 16 x_{2}^{'
            '4}q_{1}q_{3} e^{x^2/2} - 64 x_{1}^{2}q_{1}q_{3} e^{x^2/2} - 64 '
            'x_{2}^{2}q_{1}q_{3} e^{x^2/2} + 32 q_{1}q_{3} e^{x^2/2}\n16 x_{'
            '1}^{4}q_{2}q_{3} e^{x^2/2} + 32 x_{1}^{2}x_{2}^{2}q_{2}q_{3} e^'
            '{x^2/2} + 16 x_{2}^{4}q_{2}q_{3} e^{x^2/2} - 64 x_{1}^{2}q_{2}q'
            '_{3} e^{x^2/2} - 64 x_{2}^{2}q_{2}q_{3} e^{x^2/2} + 32 q_{2}q_{'
            '3} e^{x^2/2}\n16 x_{1}^{4}q_{1}q_{4} e^{x^2/2} + 32 x_{1}^{2}x_'
            '{2}^{2}q_{1}q_{4} e^{x^2/2} + 16 x_{2}^{4}q_{1}q_{4} e^{x^2/2} '
            '- 64 x_{1}^{2}q_{1}q_{4} e^{x^2/2} - 64 x_{2}^{2}q_{1}q_{4} e^{'
            'x^2/2} + 32 q_{1}q_{4} e^{x^2/2}\n16 x_{1}^{4}q_{2}q_{4} e^{x^2'
            '/2} + 32 x_{1}^{2}x_{2}^{2}q_{2}q_{4} e^{x^2/2} + 16 x_{2}^{4}q'
            '_{2}q_{4} e^{x^2/2} - 64 x_{1}^{2}q_{2}q_{4} e^{x^2/2} - 64 x_{'
            '2}^{2}q_{2}q_{4} e^{x^2/2} + 32 q_{2}q_{4} e^{x^2/2}\n-32 x_{1}'
            '^{4}x_{2}^{2} e^{x^2/2} + 16 x_{1}^{4}q_{3}q_{4} e^{x^2/2} - 64'
            ' x_{1}^{2}x_{2}^{4} e^{x^2/2} + 64 x_{1}^{2}x_{2}^{2}q_{1}q_{2}'
            ' e^{x^2/2} + 96 x_{1}^{2}x_{2}^{2}q_{3}q_{4} e^{x^2/2} - 32 x_{'
            '1}^{2}q_{1}q_{2}q_{3}q_{4} e^{x^2/2} - 32 x_{2}^{6} e^{x^2/2} +'
            ' 64 x_{2}^{4}q_{1}q_{2} e^{x^2/2} + 80 x_{2}^{4}q_{3}q_{4} e^{x'
            '^2/2} - 96 x_{2}^{2}q_{1}q_{2}q_{3}q_{4} e^{x^2/2} + 128 x_{1}^'
            '{2}x_{2}^{2} e^{x^2/2} - 64 x_{1}^{2}q_{3}q_{4} e^{x^2/2} + 128'
            ' x_{2}^{4} e^{x^2/2} - 128 x_{2}^{2}q_{1}q_{2} e^{x^2/2} - 192 '
            'x_{2}^{2}q_{3}q_{4} e^{x^2/2} + 64 q_{1}q_{2}q_{3}q_{4} e^{x^2/'
            '2} - 64 x_{2}^{2} e^{x^2/2} + 32 q_{3}q_{4} e^{x^2/2}',
        ),
        (
            'degree 2: dim nullspace 16, dim formula 16 [ok]',
            '{"k": 2, "dim_nullspace": 16, "dim_formula": 16, "dims_match": '
            'true, "product_failures": [], "products_harmonic": true, '
            '"schema": "supertransform/1", "basis": [{"schema": '
            '"supertransform/1", "m": 2, "n": 2, "envelope": false, "terms": '
            '[{"bos": [1, 1], "fer": [], "coeff": [{"q": [1, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}, {"schema": "supertransform/1", "m": 2, "n": '
            '2, "envelope": false, "terms": [{"bos": [2, 0], "fer": [], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '2], "fer": [], "coeff": [{"q": [-1, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}, {"schema": "supertransform/1", "m": 2, "n": 2, '
            '"envelope": false, "terms": [{"bos": [0, 1], "fer": [1], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 2, "n": 2, "envelope": false, "terms": '
            '[{"bos": [1, 0], "fer": [1], "coeff": [{"q": [1, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}, {"schema": "supertransform/1", "m": 2, "n": '
            '2, "envelope": false, "terms": [{"bos": [0, 1], "fer": [2], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 2, "n": 2, "envelope": false, "terms": '
            '[{"bos": [1, 0], "fer": [2], "coeff": [{"q": [1, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}, {"schema": "supertransform/1", "m": 2, "n": '
            '2, "envelope": false, "terms": [{"bos": [0, 1], "fer": [3], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 2, "n": 2, "envelope": false, "terms": '
            '[{"bos": [1, 0], "fer": [3], "coeff": [{"q": [1, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}, {"schema": "supertransform/1", "m": 2, "n": '
            '2, "envelope": false, "terms": [{"bos": [0, 1], "fer": [4], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 2, "n": 2, "envelope": false, "terms": '
            '[{"bos": [1, 0], "fer": [4], "coeff": [{"q": [1, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}, {"schema": "supertransform/1", "m": 2, "n": '
            '2, "envelope": false, "terms": [{"bos": [0, 2], "fer": [], '
            '"coeff": [{"q": [-2, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '0], "fer": [1, 2], "coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}, {"schema": "supertransform/1", "m": 2, "n": 2, '
            '"envelope": false, "terms": [{"bos": [0, 0], "fer": [1, 3], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 2, "n": 2, "envelope": false, "terms": '
            '[{"bos": [0, 0], "fer": [2, 3], "coeff": [{"q": [1, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}, {"schema": "supertransform/1", "m": 2, '
            '"n": 2, "envelope": false, "terms": [{"bos": [0, 0], "fer": [1, '
            '4], "coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}, '
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'false, "terms": [{"bos": [0, 0], "fer": [2, 4], "coeff": [{"q": '
            '[1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 2, "n": 2, "envelope": false, "terms": '
            '[{"bos": [0, 2], "fer": [], "coeff": [{"q": [-2, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [0, 0], "fer": [3, 4], "coeff": [{"q": '
            '[1, 1, 0, 1], "b": 0, "eps": 0}]}]}]}',
            'degree 2: dim nullspace 16, dim formula 16 [ok]',
        ),
    ),
    (2, 2, 3): (
        (
            'x1^2*x2*G - 1/3*x2^3*G\n'
            'x1^3*G - 3*x1*x2^2*G\n'
            'x1*x2*q1*G\n'
            'x1^2*q1*G - x2^2*q1*G\n'
            'x1*x2*q2*G\n'
            'x1^2*q2*G - x2^2*q2*G\n'
            'x1*x2*q3*G\n'
            'x1^2*q3*G - x2^2*q3*G\n'
            'x1*x2*q4*G\n'
            'x1^2*q4*G - x2^2*q4*G\n'
            '-2/3*x2^3*G + x2*q1q2*G\n'
            '-2*x1*x2^2*G + x1*q1q2*G\n'
            'x2*q1q3*G\n'
            'x1*q1q3*G\n'
            'x2*q2q3*G\n'
            'x1*q2q3*G\n'
            'x2*q1q4*G\n'
            'x1*q1q4*G\n'
            'x2*q2q4*G\n'
            'x1*q2q4*G\n'
            '-2/3*x2^3*G + x2*q3q4*G\n'
            '-2*x1*x2^2*G + x1*q3q4*G\n'
            '-2*x2^2*q3*G + q1q2q3*G\n'
            '-2*x2^2*q4*G + q1q2q4*G\n'
            '-2*x2^2*q1*G + q1q3q4*G\n-2*x2^2*q2*G + q2q3q4*G',
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [2, 1], "fer": [], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 3], "fer": [], '
            '"coeff": [{"q": [-1, 3, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [3, 0], "fer": [], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 2], "fer": [], '
            '"coeff": [{"q": [-3, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [1, 1], "fer": [1], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [2, 0], "fer": [1], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [1], '
            '"coeff": [{"q": [-1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [1, 1], "fer": [2], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [2, 0], "fer": [2], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [2], '
            '"coeff": [{"q": [-1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [1, 1], "fer": [3], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [2, 0], "fer": [3], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [3], '
            '"coeff": [{"q": [-1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [1, 1], "fer": [4], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [2, 0], "fer": [4], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [4], '
            '"coeff": [{"q": [-1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [0, 3], "fer": [], "coeff": [{"q": [-2, '
            '3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 1], "fer": [1, 2], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [1, 2], "fer": [], "coeff": [{"q": [-2, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 0], "fer": [1, 2], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [0, 1], "fer": [1, 3], "coeff": [{"q": '
            '[1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [1, 0], "fer": [1, 3], "coeff": [{"q": '
            '[1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [0, 1], "fer": [2, 3], "coeff": [{"q": '
            '[1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [1, 0], "fer": [2, 3], "coeff": [{"q": '
            '[1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [0, 1], "fer": [1, 4], "coeff": [{"q": '
            '[1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [1, 0], "fer": [1, 4], "coeff": [{"q": '
            '[1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [0, 1], "fer": [2, 4], "coeff": [{"q": '
            '[1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [1, 0], "fer": [2, 4], "coeff": [{"q": '
            '[1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [0, 3], "fer": [], "coeff": [{"q": [-2, '
            '3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 1], "fer": [3, 4], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [1, 2], "fer": [], "coeff": [{"q": [-2, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 0], "fer": [3, 4], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [0, 2], "fer": [3], "coeff": [{"q": '
            '[-2, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 0], "fer": [1, '
            '2, 3], "coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [0, 2], "fer": [4], "coeff": [{"q": '
            '[-2, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 0], "fer": [1, '
            '2, 4], "coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [0, 2], "fer": [1], "coeff": [{"q": '
            '[-2, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 0], "fer": [1, '
            '3, 4], "coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [0, 2], "fer": [2], "coeff": [{"q": '
            '[-2, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 0], "fer": [2, '
            '3, 4], "coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}',
            'x_{1}^{2}x_{2} e^{x^2/2} - 1/3 x_{2}^{3} e^{x^2/2}\nx_{1}^{3} e'
            '^{x^2/2} - 3 x_{1}x_{2}^{2} e^{x^2/2}\nx_{1}x_{2}q_{1} e^{x^2/2'
            '}\nx_{1}^{2}q_{1} e^{x^2/2} - x_{2}^{2}q_{1} e^{x^2/2}\nx_{1}x_'
            '{2}q_{2} e^{x^2/2}\nx_{1}^{2}q_{2} e^{x^2/2} - x_{2}^{2}q_{2} e'
            '^{x^2/2}\nx_{1}x_{2}q_{3} e^{x^2/2}\nx_{1}^{2}q_{3} e^{x^2/2} -'
            ' x_{2}^{2}q_{3} e^{x^2/2}\nx_{1}x_{2}q_{4} e^{x^2/2}\nx_{1}^{2}'
            'q_{4} e^{x^2/2} - x_{2}^{2}q_{4} e^{x^2/2}\n-2/3 x_{2}^{3} e^{x'
            '^2/2} + x_{2}q_{1}q_{2} e^{x^2/2}\n-2 x_{1}x_{2}^{2} e^{x^2/2} '
            '+ x_{1}q_{1}q_{2} e^{x^2/2}\nx_{2}q_{1}q_{3} e^{x^2/2}\nx_{1}q_'
            '{1}q_{3} e^{x^2/2}\nx_{2}q_{2}q_{3} e^{x^2/2}\nx_{1}q_{2}q_{3} '
            'e^{x^2/2}\nx_{2}q_{1}q_{4} e^{x^2/2}\nx_{1}q_{1}q_{4} e^{x^2/2}'
            '\nx_{2}q_{2}q_{4} e^{x^2/2}\nx_{1}q_{2}q_{4} e^{x^2/2}\n-2/3 x_'
            '{2}^{3} e^{x^2/2} + x_{2}q_{3}q_{4} e^{x^2/2}\n-2 x_{1}x_{2}^{2'
            '} e^{x^2/2} + x_{1}q_{3}q_{4} e^{x^2/2}\n-2 x_{2}^{2}q_{3} e^{x'
            '^2/2} + q_{1}q_{2}q_{3} e^{x^2/2}\n-2 x_{2}^{2}q_{4} e^{x^2/2} '
            '+ q_{1}q_{2}q_{4} e^{x^2/2}\n-2 x_{2}^{2}q_{1} e^{x^2/2} + q_{1'
            '}q_{3}q_{4} e^{x^2/2}\n-2 x_{2}^{2}q_{2} e^{x^2/2} + q_{2}q_{3}'
            'q_{4} e^{x^2/2}',
        ),
        (
            '-4*x1^4*x2*G - 8/3*x1^2*x2^3*G + 4*x1^2*x2*q1q2*G + '
            '4*x1^2*x2*q3q4*G + 4/3*x2^5*G - 4/3*x2^3*q1q2*G - '
            '4/3*x2^3*q3q4*G + 8*x1^2*x2*G - 8/3*x2^3*G\n'
            '-4*x1^5*G + 8*x1^3*x2^2*G + 4*x1^3*q1q2*G + 4*x1^3*q3q4*G + '
            '12*x1*x2^4*G - 12*x1*x2^2*q1q2*G - 12*x1*x2^2*q3q4*G + 8*x1^3*G '
            '- 24*x1*x2^2*G\n'
            '-4*x1^3*x2*q1*G - 4*x1*x2^3*q1*G + 4*x1*x2*q1q3q4*G + '
            '8*x1*x2*q1*G\n'
            '-4*x1^4*q1*G + 4*x1^2*q1q3q4*G + 4*x2^4*q1*G - 4*x2^2*q1q3q4*G '
            '+ 8*x1^2*q1*G - 8*x2^2*q1*G\n'
            '-4*x1^3*x2*q2*G - 4*x1*x2^3*q2*G + 4*x1*x2*q2q3q4*G + '
            '8*x1*x2*q2*G\n'
            '-4*x1^4*q2*G + 4*x1^2*q2q3q4*G + 4*x2^4*q2*G - 4*x2^2*q2q3q4*G '
            '+ 8*x1^2*q2*G - 8*x2^2*q2*G\n'
            '-4*x1^3*x2*q3*G - 4*x1*x2^3*q3*G + 4*x1*x2*q1q2q3*G + '
            '8*x1*x2*q3*G\n'
            '-4*x1^4*q3*G + 4*x1^2*q1q2q3*G + 4*x2^4*q3*G - 4*x2^2*q1q2q3*G '
            '+ 8*x1^2*q3*G - 8*x2^2*q3*G\n'
            '-4*x1^3*x2*q4*G - 4*x1*x2^3*q4*G + 4*x1*x2*q1q2q4*G + '
            '8*x1*x2*q4*G\n'
            '-4*x1^4*q4*G + 4*x1^2*q1q2q4*G + 4*x2^4*q4*G - 4*x2^2*q1q2q4*G '
            '+ 8*x1^2*q4*G - 8*x2^2*q4*G\n'
            '8/3*x1^2*x2^3*G - 4*x1^2*x2*q1q2*G + 8/3*x2^5*G - '
            '20/3*x2^3*q1q2*G - 8/3*x2^3*q3q4*G + 4*x2*q1q2q3q4*G - '
            '16/3*x2^3*G + 8*x2*q1q2*G\n'
            '8*x1^3*x2^2*G - 4*x1^3*q1q2*G + 8*x1*x2^4*G - 12*x1*x2^2*q1q2*G '
            '- 8*x1*x2^2*q3q4*G + 4*x1*q1q2q3q4*G - 16*x1*x2^2*G + '
            '8*x1*q1q2*G\n'
            '-4*x1^2*x2*q1q3*G - 4*x2^3*q1q3*G + 8*x2*q1q3*G\n'
            '-4*x1^3*q1q3*G - 4*x1*x2^2*q1q3*G + 8*x1*q1q3*G\n'
            '-4*x1^2*x2*q2q3*G - 4*x2^3*q2q3*G + 8*x2*q2q3*G\n'
            '-4*x1^3*q2q3*G - 4*x1*x2^2*q2q3*G + 8*x1*q2q3*G\n'
            '-4*x1^2*x2*q1q4*G - 4*x2^3*q1q4*G + 8*x2*q1q4*G\n'
            '-4*x1^3*q1q4*G - 4*x1*x2^2*q1q4*G + 8*x1*q1q4*G\n'
            '-4*x1^2*x2*q2q4*G - 4*x2^3*q2q4*G + 8*x2*q2q4*G\n'
            '-4*x1^3*q2q4*G - 4*x1*x2^2*q2q4*G + 8*x1*q2q4*G\n'
            '8/3*x1^2*x2^3*G - 4*x1^2*x2*q3q4*G + 8/3*x2^5*G - '
            '8/3*x2^3*q1q2*G - 20/3*x2^3*q3q4*G + 4*x2*q1q2q3q4*G - '
            '16/3*x2^3*G + 8*x2*q3q4*G\n'
            '8*x1^3*x2^2*G - 4*x1^3*q3q4*G + 8*x1*x2^4*G - 8*x1*x2^2*q1q2*G '
            '- 12*x1*x2^2*q3q4*G + 4*x1*q1q2q3q4*G - 16*x1*x2^2*G + '
            '8*x1*q3q4*G\n'
            '8*x1^2*x2^2*q3*G - 4*x1^2*q1q2q3*G + 8*x2^4*q3*G - '
            '12*x2^2*q1q2q3*G - 16*x2^2*q3*G + 8*q1q2q3*G\n'
            '8*x1^2*x2^2*q4*G - 4*x1^2*q1q2q4*G + 8*x2^4*q4*G - '
            '12*x2^2*q1q2q4*G - 16*x2^2*q4*G + 8*q1q2q4*G\n'
            '8*x1^2*x2^2*q1*G - 4*x1^2*q1q3q4*G + 8*x2^4*q1*G - '
            '12*x2^2*q1q3q4*G - 16*x2^2*q1*G + 8*q1q3q4*G\n'
            '8*x1^2*x2^2*q2*G - 4*x1^2*q2q3q4*G + 8*x2^4*q2*G - '
            '12*x2^2*q2q3q4*G - 16*x2^2*q2*G + 8*q2q3q4*G',
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [4, 1], "fer": [], "coeff": [{"q": [-4, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 3], "fer": [], '
            '"coeff": [{"q": [-8, 3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, '
            '1], "fer": [1, 2], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [2, 1], "fer": [3, 4], "coeff": [{"q": [4, 1, 0, '
            '1], "b": 0, "eps": 0}]}, {"bos": [0, 5], "fer": [], "coeff": '
            '[{"q": [4, 3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 3], '
            '"fer": [1, 2], "coeff": [{"q": [-4, 3, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0, 3], "fer": [3, 4], "coeff": [{"q": [-4, 3, 0, '
            '1], "b": 0, "eps": 0}]}, {"bos": [2, 1], "fer": [], "coeff": '
            '[{"q": [8, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 3], '
            '"fer": [], "coeff": [{"q": [-8, 3, 0, 1], "b": 0, "eps": '
            '0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [5, 0], "fer": [], "coeff": [{"q": [-4, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, 2], "fer": [], '
            '"coeff": [{"q": [8, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, '
            '0], "fer": [1, 2], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [3, 0], "fer": [3, 4], "coeff": [{"q": [4, 1, 0, '
            '1], "b": 0, "eps": 0}]}, {"bos": [1, 4], "fer": [], "coeff": '
            '[{"q": [12, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 2], '
            '"fer": [1, 2], "coeff": [{"q": [-12, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [1, 2], "fer": [3, 4], "coeff": [{"q": [-12, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [3, 0], "fer": [], "coeff": '
            '[{"q": [8, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 2], '
            '"fer": [], "coeff": [{"q": [-24, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [3, 1], "fer": [1], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 3], "fer": [1], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, '
            '1], "fer": [1, 3, 4], "coeff": [{"q": [4, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [1, 1], "fer": [1], "coeff": [{"q": [8, 1, '
            '0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [4, 0], "fer": [1], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 0], "fer": [1, '
            '3, 4], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 4], "fer": [1], "coeff": [{"q": [4, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [0, 2], "fer": [1, 3, 4], "coeff": '
            '[{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 0], '
            '"fer": [1], "coeff": [{"q": [8, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 2], "fer": [1], "coeff": [{"q": [-8, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [3, 1], "fer": [2], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 3], "fer": [2], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, '
            '1], "fer": [2, 3, 4], "coeff": [{"q": [4, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [1, 1], "fer": [2], "coeff": [{"q": [8, 1, '
            '0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [4, 0], "fer": [2], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 0], "fer": [2, '
            '3, 4], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 4], "fer": [2], "coeff": [{"q": [4, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [0, 2], "fer": [2, 3, 4], "coeff": '
            '[{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 0], '
            '"fer": [2], "coeff": [{"q": [8, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 2], "fer": [2], "coeff": [{"q": [-8, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [3, 1], "fer": [3], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 3], "fer": [3], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, '
            '1], "fer": [1, 2, 3], "coeff": [{"q": [4, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [1, 1], "fer": [3], "coeff": [{"q": [8, 1, '
            '0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [4, 0], "fer": [3], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 0], "fer": [1, '
            '2, 3], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 4], "fer": [3], "coeff": [{"q": [4, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [0, 2], "fer": [1, 2, 3], "coeff": '
            '[{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 0], '
            '"fer": [3], "coeff": [{"q": [8, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 2], "fer": [3], "coeff": [{"q": [-8, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [3, 1], "fer": [4], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 3], "fer": [4], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, '
            '1], "fer": [1, 2, 4], "coeff": [{"q": [4, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [1, 1], "fer": [4], "coeff": [{"q": [8, 1, '
            '0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [4, 0], "fer": [4], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 0], "fer": [1, '
            '2, 4], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 4], "fer": [4], "coeff": [{"q": [4, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [0, 2], "fer": [1, 2, 4], "coeff": '
            '[{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 0], '
            '"fer": [4], "coeff": [{"q": [8, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 2], "fer": [4], "coeff": [{"q": [-8, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [2, 3], "fer": [], "coeff": [{"q": [8, '
            '3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 1], "fer": [1, 2], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '5], "fer": [], "coeff": [{"q": [8, 3, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0, 3], "fer": [1, 2], "coeff": [{"q": [-20, 3, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 3], "fer": [3, 4], '
            '"coeff": [{"q": [-8, 3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '1], "fer": [1, 2, 3, 4], "coeff": [{"q": [4, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0, 3], "fer": [], "coeff": [{"q": [-16, '
            '3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 1], "fer": [1, 2], '
            '"coeff": [{"q": [8, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [3, 2], "fer": [], "coeff": [{"q": [8, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, 0], "fer": [1, 2], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, '
            '4], "fer": [], "coeff": [{"q": [8, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [1, 2], "fer": [1, 2], "coeff": [{"q": [-12, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 2], "fer": [3, 4], '
            '"coeff": [{"q": [-8, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, '
            '0], "fer": [1, 2, 3, 4], "coeff": [{"q": [4, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [1, 2], "fer": [], "coeff": [{"q": [-16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 0], "fer": [1, 2], '
            '"coeff": [{"q": [8, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [2, 1], "fer": [1, 3], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 3], "fer": [1, '
            '3], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0, 1], "fer": [1, 3], "coeff": [{"q": [8, 1, 0, 1], "b": 0, '
            '"eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [3, 0], "fer": [1, 3], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 2], "fer": [1, '
            '3], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[1, 0], "fer": [1, 3], "coeff": [{"q": [8, 1, 0, 1], "b": 0, '
            '"eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [2, 1], "fer": [2, 3], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 3], "fer": [2, '
            '3], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0, 1], "fer": [2, 3], "coeff": [{"q": [8, 1, 0, 1], "b": 0, '
            '"eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [3, 0], "fer": [2, 3], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 2], "fer": [2, '
            '3], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[1, 0], "fer": [2, 3], "coeff": [{"q": [8, 1, 0, 1], "b": 0, '
            '"eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [2, 1], "fer": [1, 4], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 3], "fer": [1, '
            '4], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0, 1], "fer": [1, 4], "coeff": [{"q": [8, 1, 0, 1], "b": 0, '
            '"eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [3, 0], "fer": [1, 4], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 2], "fer": [1, '
            '4], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[1, 0], "fer": [1, 4], "coeff": [{"q": [8, 1, 0, 1], "b": 0, '
            '"eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [2, 1], "fer": [2, 4], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 3], "fer": [2, '
            '4], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0, 1], "fer": [2, 4], "coeff": [{"q": [8, 1, 0, 1], "b": 0, '
            '"eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [3, 0], "fer": [2, 4], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 2], "fer": [2, '
            '4], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[1, 0], "fer": [2, 4], "coeff": [{"q": [8, 1, 0, 1], "b": 0, '
            '"eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [2, 3], "fer": [], "coeff": [{"q": [8, '
            '3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 1], "fer": [3, 4], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '5], "fer": [], "coeff": [{"q": [8, 3, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0, 3], "fer": [1, 2], "coeff": [{"q": [-8, 3, 0, '
            '1], "b": 0, "eps": 0}]}, {"bos": [0, 3], "fer": [3, 4], '
            '"coeff": [{"q": [-20, 3, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0, 1], "fer": [1, 2, 3, 4], "coeff": [{"q": [4, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [0, 3], "fer": [], "coeff": [{"q": '
            '[-16, 3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 1], "fer": [3, '
            '4], "coeff": [{"q": [8, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [3, 2], "fer": [], "coeff": [{"q": [8, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, 0], "fer": [3, 4], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, '
            '4], "fer": [], "coeff": [{"q": [8, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [1, 2], "fer": [1, 2], "coeff": [{"q": [-8, 1, 0, '
            '1], "b": 0, "eps": 0}]}, {"bos": [1, 2], "fer": [3, 4], '
            '"coeff": [{"q": [-12, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[1, 0], "fer": [1, 2, 3, 4], "coeff": [{"q": [4, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [1, 2], "fer": [], "coeff": [{"q": '
            '[-16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 0], "fer": [3, '
            '4], "coeff": [{"q": [8, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [2, 2], "fer": [3], "coeff": [{"q": [8, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 0], "fer": [1, 2, '
            '3], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0, 4], "fer": [3], "coeff": [{"q": [8, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0, 2], "fer": [1, 2, 3], "coeff": [{"q": '
            '[-12, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": '
            '[3], "coeff": [{"q": [-16, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 0], "fer": [1, 2, 3], "coeff": [{"q": [8, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [2, 2], "fer": [4], "coeff": [{"q": [8, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 0], "fer": [1, 2, '
            '4], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0, 4], "fer": [4], "coeff": [{"q": [8, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0, 2], "fer": [1, 2, 4], "coeff": [{"q": '
            '[-12, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": '
            '[4], "coeff": [{"q": [-16, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 0], "fer": [1, 2, 4], "coeff": [{"q": [8, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [2, 2], "fer": [1], "coeff": [{"q": [8, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 0], "fer": [1, 3, '
            '4], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0, 4], "fer": [1], "coeff": [{"q": [8, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0, 2], "fer": [1, 3, 4], "coeff": [{"q": '
            '[-12, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": '
            '[1], "coeff": [{"q": [-16, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 0], "fer": [1, 3, 4], "coeff": [{"q": [8, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [2, 2], "fer": [2], "coeff": [{"q": [8, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 0], "fer": [2, 3, '
            '4], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0, 4], "fer": [2], "coeff": [{"q": [8, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0, 2], "fer": [2, 3, 4], "coeff": [{"q": '
            '[-12, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": '
            '[2], "coeff": [{"q": [-16, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 0], "fer": [2, 3, 4], "coeff": [{"q": [8, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}',
            '-4 x_{1}^{4}x_{2} e^{x^2/2} - 8/3 x_{1}^{2}x_{2}^{3} e^{x^2/2} '
            '+ 4 x_{1}^{2}x_{2}q_{1}q_{2} e^{x^2/2} + 4 x_{1}^{2}x_{2}q_{3}q'
            '_{4} e^{x^2/2} + 4/3 x_{2}^{5} e^{x^2/2} - 4/3 x_{2}^{3}q_{1}q_'
            '{2} e^{x^2/2} - 4/3 x_{2}^{3}q_{3}q_{4} e^{x^2/2} + 8 x_{1}^{2}'
            'x_{2} e^{x^2/2} - 8/3 x_{2}^{3} e^{x^2/2}\n-4 x_{1}^{5} e^{x^2/'
            '2} + 8 x_{1}^{3}x_{2}^{2} e^{x^2/2} + 4 x_{1}^{3}q_{1}q_{2} e^{'
            'x^2/2} + 4 x_{1}^{3}q_{3}q_{4} e^{x^2/2} + 12 x_{1}x_{2}^{4} e^'
            '{x^2/2} - 12 x_{1}x_{2}^{2}q_{1}q_{2} e^{x^2/2} - 12 x_{1}x_{2}'
            '^{2}q_{3}q_{4} e^{x^2/2} + 8 x_{1}^{3} e^{x^2/2} - 24 x_{1}x_{2'
            '}^{2} e^{x^2/2}\n-4 x_{1}^{3}x_{2}q_{1} e^{x^2/2} - 4 x_{1}x_{2'
            '}^{3}q_{1} e^{x^2/2} + 4 x_{1}x_{2}q_{1}q_{3}q_{4} e^{x^2/2} + '
            '8 x_{1}x_{2}q_{1} e^{x^2/2}\n-4 x_{1}^{4}q_{1} e^{x^2/2} + 4 x_'
            '{1}^{2}q_{1}q_{3}q_{4} e^{x^2/2} + 4 x_{2}^{4}q_{1} e^{x^2/2} -'
            ' 4 x_{2}^{2}q_{1}q_{3}q_{4} e^{x^2/2} + 8 x_{1}^{2}q_{1} e^{x^2'
            '/2} - 8 x_{2}^{2}q_{1} e^{x^2/2}\n-4 x_{1}^{3}x_{2}q_{2} e^{x^2'
            '/2} - 4 x_{1}x_{2}^{3}q_{2} e^{x^2/2} + 4 x_{1}x_{2}q_{2}q_{3}q'
            '_{4} e^{x^2/2} + 8 x_{1}x_{2}q_{2} e^{x^2/2}\n-4 x_{1}^{4}q_{2}'
            ' e^{x^2/2} + 4 x_{1}^{2}q_{2}q_{3}q_{4} e^{x^2/2} + 4 x_{2}^{4}'
            'q_{2} e^{x^2/2} - 4 x_{2}^{2}q_{2}q_{3}q_{4} e^{x^2/2} + 8 x_{1'
            '}^{2}q_{2} e^{x^2/2} - 8 x_{2}^{2}q_{2} e^{x^2/2}\n-4 x_{1}^{3}'
            'x_{2}q_{3} e^{x^2/2} - 4 x_{1}x_{2}^{3}q_{3} e^{x^2/2} + 4 x_{1'
            '}x_{2}q_{1}q_{2}q_{3} e^{x^2/2} + 8 x_{1}x_{2}q_{3} e^{x^2/2}\n'
            '-4 x_{1}^{4}q_{3} e^{x^2/2} + 4 x_{1}^{2}q_{1}q_{2}q_{3} e^{x^2'
            '/2} + 4 x_{2}^{4}q_{3} e^{x^2/2} - 4 x_{2}^{2}q_{1}q_{2}q_{3} e'
            '^{x^2/2} + 8 x_{1}^{2}q_{3} e^{x^2/2} - 8 x_{2}^{2}q_{3} e^{x^2'
            '/2}\n-4 x_{1}^{3}x_{2}q_{4} e^{x^2/2} - 4 x_{1}x_{2}^{3}q_{4} e'
            '^{x^2/2} + 4 x_{1}x_{2}q_{1}q_{2}q_{4} e^{x^2/2} + 8 x_{1}x_{2}'
            'q_{4} e^{x^2/2}\n-4 x_{1}^{4}q_{4} e^{x^2/2} + 4 x_{1}^{2}q_{1}'
            'q_{2}q_{4} e^{x^2/2} + 4 x_{2}^{4}q_{4} e^{x^2/2} - 4 x_{2}^{2}'
            'q_{1}q_{2}q_{4} e^{x^2/2} + 8 x_{1}^{2}q_{4} e^{x^2/2} - 8 x_{2'
            '}^{2}q_{4} e^{x^2/2}\n8/3 x_{1}^{2}x_{2}^{3} e^{x^2/2} - 4 x_{1'
            '}^{2}x_{2}q_{1}q_{2} e^{x^2/2} + 8/3 x_{2}^{5} e^{x^2/2} - 20/3'
            ' x_{2}^{3}q_{1}q_{2} e^{x^2/2} - 8/3 x_{2}^{3}q_{3}q_{4} e^{x^2'
            '/2} + 4 x_{2}q_{1}q_{2}q_{3}q_{4} e^{x^2/2} - 16/3 x_{2}^{3} e^'
            '{x^2/2} + 8 x_{2}q_{1}q_{2} e^{x^2/2}\n8 x_{1}^{3}x_{2}^{2} e^{'
            'x^2/2} - 4 x_{1}^{3}q_{1}q_{2} e^{x^2/2} + 8 x_{1}x_{2}^{4} e^{'
            'x^2/2} - 12 x_{1}x_{2}^{2}q_{1}q_{2} e^{x^2/2} - 8 x_{1}x_{2}^{'
            '2}q_{3}q_{4} e^{x^2/2} + 4 x_{1}q_{1}q_{2}q_{3}q_{4} e^{x^2/2} '
            '- 16 x_{1}x_{2}^{2} e^{x^2/2} + 8 x_{1}q_{1}q_{2} e^{x^2/2}\n-4'
            ' x_{1}^{2}x_{2}q_{1}q_{3} e^{x^2/2} - 4 x_{2}^{3}q_{1}q_{3} e^{'
            'x^2/2} + 8 x_{2}q_{1}q_{3} e^{x^2/2}\n-4 x_{1}^{3}q_{1}q_{3} e^'
            '{x^2/2} - 4 x_{1}x_{2}^{2}q_{1}q_{3} e^{x^2/2} + 8 x_{1}q_{1}q_'
            '{3} e^{x^2/2}\n-4 x_{1}^{2}x_{2}q_{2}q_{3} e^{x^2/2} - 4 x_{2}^'
            '{3}q_{2}q_{3} e^{x^2/2} + 8 x_{2}q_{2}q_{3} e^{x^2/2}\n-4 x_{1}'
            '^{3}q_{2}q_{3} e^{x^2/2} - 4 x_{1}x_{2}^{2}q_{2}q_{3} e^{x^2/2}'
            ' + 8 x_{1}q_{2}q_{3} e^{x^2/2}\n-4 x_{1}^{2}x_{2}q_{1}q_{4} e^{'
            'x^2/2} - 4 x_{2}^{3}q_{1}q_{4} e^{x^2/2} + 8 x_{2}q_{1}q_{4} e^'
            '{x^2/2}\n-4 x_{1}^{3}q_{1}q_{4} e^{x^2/2} - 4 x_{1}x_{2}^{2}q_{'
            '1}q_{4} e^{x^2/2} + 8 x_{1}q_{1}q_{4} e^{x^2/2}\n-4 x_{1}^{2}x_'
            '{2}q_{2}q_{4} e^{x^2/2} - 4 x_{2}^{3}q_{2}q_{4} e^{x^2/2} + 8 x'
            '_{2}q_{2}q_{4} e^{x^2/2}\n-4 x_{1}^{3}q_{2}q_{4} e^{x^2/2} - 4 '
            'x_{1}x_{2}^{2}q_{2}q_{4} e^{x^2/2} + 8 x_{1}q_{2}q_{4} e^{x^2/2'
            '}\n8/3 x_{1}^{2}x_{2}^{3} e^{x^2/2} - 4 x_{1}^{2}x_{2}q_{3}q_{4'
            '} e^{x^2/2} + 8/3 x_{2}^{5} e^{x^2/2} - 8/3 x_{2}^{3}q_{1}q_{2}'
            ' e^{x^2/2} - 20/3 x_{2}^{3}q_{3}q_{4} e^{x^2/2} + 4 x_{2}q_{1}q'
            '_{2}q_{3}q_{4} e^{x^2/2} - 16/3 x_{2}^{3} e^{x^2/2} + 8 x_{2}q_'
            '{3}q_{4} e^{x^2/2}\n8 x_{1}^{3}x_{2}^{2} e^{x^2/2} - 4 x_{1}^{3'
            '}q_{3}q_{4} e^{x^2/2} + 8 x_{1}x_{2}^{4} e^{x^2/2} - 8 x_{1}x_{'
            '2}^{2}q_{1}q_{2} e^{x^2/2} - 12 x_{1}x_{2}^{2}q_{3}q_{4} e^{x^2'
            '/2} + 4 x_{1}q_{1}q_{2}q_{3}q_{4} e^{x^2/2} - 16 x_{1}x_{2}^{2}'
            ' e^{x^2/2} + 8 x_{1}q_{3}q_{4} e^{x^2/2}\n8 x_{1}^{2}x_{2}^{2}q'
            '_{3} e^{x^2/2} - 4 x_{1}^{2}q_{1}q_{2}q_{3} e^{x^2/2} + 8 x_{2}'
            '^{4}q_{3} e^{x^2/2} - 12 x_{2}^{2}q_{1}q_{2}q_{3} e^{x^2/2} - 1'
            '6 x_{2}^{2}q_{3} e^{x^2/2} + 8 q_{1}q_{2}q_{3} e^{x^2/2}\n8 x_{'
            '1}^{2}x_{2}^{2}q_{4} e^{x^2/2} - 4 x_{1}^{2}q_{1}q_{2}q_{4} e^{'
            'x^2/2} + 8 x_{2}^{4}q_{4} e^{x^2/2} - 12 x_{2}^{2}q_{1}q_{2}q_{'
            '4} e^{x^2/2} - 16 x_{2}^{2}q_{4} e^{x^2/2} + 8 q_{1}q_{2}q_{4} '
            'e^{x^2/2}\n8 x_{1}^{2}x_{2}^{2}q_{1} e^{x^2/2} - 4 x_{1}^{2}q_{'
            '1}q_{3}q_{4} e^{x^2/2} + 8 x_{2}^{4}q_{1} e^{x^2/2} - 12 x_{2}^'
            '{2}q_{1}q_{3}q_{4} e^{x^2/2} - 16 x_{2}^{2}q_{1} e^{x^2/2} + 8 '
            'q_{1}q_{3}q_{4} e^{x^2/2}\n8 x_{1}^{2}x_{2}^{2}q_{2} e^{x^2/2} '
            '- 4 x_{1}^{2}q_{2}q_{3}q_{4} e^{x^2/2} + 8 x_{2}^{4}q_{2} e^{x^'
            '2/2} - 12 x_{2}^{2}q_{2}q_{3}q_{4} e^{x^2/2} - 16 x_{2}^{2}q_{2'
            '} e^{x^2/2} + 8 q_{2}q_{3}q_{4} e^{x^2/2}',
        ),
        (
            '16*x1^6*x2*G + 80/3*x1^4*x2^3*G - 32*x1^4*x2*q1q2*G - '
            '32*x1^4*x2*q3q4*G + 16/3*x1^2*x2^5*G - 64/3*x1^2*x2^3*q1q2*G - '
            '64/3*x1^2*x2^3*q3q4*G + 32*x1^2*x2*q1q2q3q4*G - 16/3*x2^7*G + '
            '32/3*x2^5*q1q2*G + 32/3*x2^5*q3q4*G - 32/3*x2^3*q1q2q3q4*G - '
            '96*x1^4*x2*G - 64*x1^2*x2^3*G + 96*x1^2*x2*q1q2*G + '
            '96*x1^2*x2*q3q4*G + 32*x2^5*G - 32*x2^3*q1q2*G - 32*x2^3*q3q4*G '
            '+ 96*x1^2*x2*G - 32*x2^3*G\n'
            '16*x1^7*G - 16*x1^5*x2^2*G - 32*x1^5*q1q2*G - 32*x1^5*q3q4*G - '
            '80*x1^3*x2^4*G + 64*x1^3*x2^2*q1q2*G + 64*x1^3*x2^2*q3q4*G + '
            '32*x1^3*q1q2q3q4*G - 48*x1*x2^6*G + 96*x1*x2^4*q1q2*G + '
            '96*x1*x2^4*q3q4*G - 96*x1*x2^2*q1q2q3q4*G - 96*x1^5*G + '
            '192*x1^3*x2^2*G + 96*x1^3*q1q2*G + 96*x1^3*q3q4*G + '
            '288*x1*x2^4*G - 288*x1*x2^2*q1q2*G - 288*x1*x2^2*q3q4*G + '
            '96*x1^3*G - 288*x1*x2^2*G\n'
            '16*x1^5*x2*q1*G + 32*x1^3*x2^3*q1*G - 32*x1^3*x2*q1q3q4*G + '
            '16*x1*x2^5*q1*G - 32*x1*x2^3*q1q3q4*G - 96*x1^3*x2*q1*G - '
            '96*x1*x2^3*q1*G + 96*x1*x2*q1q3q4*G + 96*x1*x2*q1*G\n'
            '16*x1^6*q1*G + 16*x1^4*x2^2*q1*G - 32*x1^4*q1q3q4*G - '
            '16*x1^2*x2^4*q1*G - 16*x2^6*q1*G + 32*x2^4*q1q3q4*G - '
            '96*x1^4*q1*G + 96*x1^2*q1q3q4*G + 96*x2^4*q1*G - '
            '96*x2^2*q1q3q4*G + 96*x1^2*q1*G - 96*x2^2*q1*G\n'
            '16*x1^5*x2*q2*G + 32*x1^3*x2^3*q2*G - 32*x1^3*x2*q2q3q4*G + '
            '16*x1*x2^5*q2*G - 32*x1*x2^3*q2q3q4*G - 96*x1^3*x2*q2*G - '
            '96*x1*x2^3*q2*G + 96*x1*x2*q2q3q4*G + 96*x1*x2*q2*G\n'
            '16*x1^6*q2*G + 16*x1^4*x2^2*q2*G - 32*x1^4*q2q3q4*G - '
            '16*x1^2*x2^4*q2*G - 16*x2^6*q2*G + 32*x2^4*q2q3q4*G - '
            '96*x1^4*q2*G + 96*x1^2*q2q3q4*G + 96*x2^4*q2*G - '
            '96*x2^2*q2q3q4*G + 96*x1^2*q2*G - 96*x2^2*q2*G\n'
            '16*x1^5*x2*q3*G + 32*x1^3*x2^3*q3*G - 32*x1^3*x2*q1q2q3*G + '
            '16*x1*x2^5*q3*G - 32*x1*x2^3*q1q2q3*G - 96*x1^3*x2*q3*G - '
            '96*x1*x2^3*q3*G + 96*x1*x2*q1q2q3*G + 96*x1*x2*q3*G\n'
            '16*x1^6*q3*G + 16*x1^4*x2^2*q3*G - 32*x1^4*q1q2q3*G - '
            '16*x1^2*x2^4*q3*G - 16*x2^6*q3*G + 32*x2^4*q1q2q3*G - '
            '96*x1^4*q3*G + 96*x1^2*q1q2q3*G + 96*x2^4*q3*G - '
            '96*x2^2*q1q2q3*G + 96*x1^2*q3*G - 96*x2^2*q3*G\n'
            '16*x1^5*x2*q4*G + 32*x1^3*x2^3*q4*G - 32*x1^3*x2*q1q2q4*G + '
            '16*x1*x2^5*q4*G - 32*x1*x2^3*q1q2q4*G - 96*x1^3*x2*q4*G - '
            '96*x1*x2^3*q4*G + 96*x1*x2*q1q2q4*G + 96*x1*x2*q4*G\n'
            '16*x1^6*q4*G + 16*x1^4*x2^2*q4*G - 32*x1^4*q1q2q4*G - '
            '16*x1^2*x2^4*q4*G - 16*x2^6*q4*G + 32*x2^4*q1q2q4*G - '
            '96*x1^4*q4*G + 96*x1^2*q1q2q4*G + 96*x2^4*q4*G - '
            '96*x2^2*q1q2q4*G + 96*x1^2*q4*G - 96*x2^2*q4*G\n'
            '-32/3*x1^4*x2^3*G + 16*x1^4*x2*q1q2*G - 64/3*x1^2*x2^5*G + '
            '160/3*x1^2*x2^3*q1q2*G + 64/3*x1^2*x2^3*q3q4*G - '
            '32*x1^2*x2*q1q2q3q4*G - 32/3*x2^7*G + 112/3*x2^5*q1q2*G + '
            '64/3*x2^5*q3q4*G - 160/3*x2^3*q1q2q3q4*G + 64*x1^2*x2^3*G - '
            '96*x1^2*x2*q1q2*G + 64*x2^5*G - 160*x2^3*q1q2*G - '
            '64*x2^3*q3q4*G + 96*x2*q1q2q3q4*G - 64*x2^3*G + 96*x2*q1q2*G\n'
            '-32*x1^5*x2^2*G + 16*x1^5*q1q2*G - 64*x1^3*x2^4*G + '
            '96*x1^3*x2^2*q1q2*G + 64*x1^3*x2^2*q3q4*G - 32*x1^3*q1q2q3q4*G '
            '- 32*x1*x2^6*G + 80*x1*x2^4*q1q2*G + 64*x1*x2^4*q3q4*G - '
            '96*x1*x2^2*q1q2q3q4*G + 192*x1^3*x2^2*G - 96*x1^3*q1q2*G + '
            '192*x1*x2^4*G - 288*x1*x2^2*q1q2*G - 192*x1*x2^2*q3q4*G + '
            '96*x1*q1q2q3q4*G - 192*x1*x2^2*G + 96*x1*q1q2*G\n'
            '16*x1^4*x2*q1q3*G + 32*x1^2*x2^3*q1q3*G + 16*x2^5*q1q3*G - '
            '96*x1^2*x2*q1q3*G - 96*x2^3*q1q3*G + 96*x2*q1q3*G\n'
            '16*x1^5*q1q3*G + 32*x1^3*x2^2*q1q3*G + 16*x1*x2^4*q1q3*G - '
            '96*x1^3*q1q3*G - 96*x1*x2^2*q1q3*G + 96*x1*q1q3*G\n'
            '16*x1^4*x2*q2q3*G + 32*x1^2*x2^3*q2q3*G + 16*x2^5*q2q3*G - '
            '96*x1^2*x2*q2q3*G - 96*x2^3*q2q3*G + 96*x2*q2q3*G\n'
            '16*x1^5*q2q3*G + 32*x1^3*x2^2*q2q3*G + 16*x1*x2^4*q2q3*G - '
            '96*x1^3*q2q3*G - 96*x1*x2^2*q2q3*G + 96*x1*q2q3*G\n'
            '16*x1^4*x2*q1q4*G + 32*x1^2*x2^3*q1q4*G + 16*x2^5*q1q4*G - '
            '96*x1^2*x2*q1q4*G - 96*x2^3*q1q4*G + 96*x2*q1q4*G\n'
            '16*x1^5*q1q4*G + 32*x1^3*x2^2*q1q4*G + 16*x1*x2^4*q1q4*G - '
            '96*x1^3*q1q4*G - 96*x1*x2^2*q1q4*G + 96*x1*q1q4*G\n'
            '16*x1^4*x2*q2q4*G + 32*x1^2*x2^3*q2q4*G + 16*x2^5*q2q4*G - '
            '96*x1^2*x2*q2q4*G - 96*x2^3*q2q4*G + 96*x2*q2q4*G\n'
            '16*x1^5*q2q4*G + 32*x1^3*x2^2*q2q4*G + 16*x1*x2^4*q2q4*G - '
            '96*x1^3*q2q4*G - 96*x1*x2^2*q2q4*G + 96*x1*q2q4*G\n'
            '-32/3*x1^4*x2^3*G + 16*x1^4*x2*q3q4*G - 64/3*x1^2*x2^5*G + '
            '64/3*x1^2*x2^3*q1q2*G + 160/3*x1^2*x2^3*q3q4*G - '
            '32*x1^2*x2*q1q2q3q4*G - 32/3*x2^7*G + 64/3*x2^5*q1q2*G + '
            '112/3*x2^5*q3q4*G - 160/3*x2^3*q1q2q3q4*G + 64*x1^2*x2^3*G - '
            '96*x1^2*x2*q3q4*G + 64*x2^5*G - 64*x2^3*q1q2*G - '
            '160*x2^3*q3q4*G + 96*x2*q1q2q3q4*G - 64*x2^3*G + 96*x2*q3q4*G\n'
            '-32*x1^5*x2^2*G + 16*x1^5*q3q4*G - 64*x1^3*x2^4*G + '
            '64*x1^3*x2^2*q1q2*G + 96*x1^3*x2^2*q3q4*G - 32*x1^3*q1q2q3q4*G '
            '- 32*x1*x2^6*G + 64*x1*x2^4*q1q2*G + 80*x1*x2^4*q3q4*G - '
            '96*x1*x2^2*q1q2q3q4*G + 192*x1^3*x2^2*G - 96*x1^3*q3q4*G + '
            '192*x1*x2^4*G - 192*x1*x2^2*q1q2*G - 288*x1*x2^2*q3q4*G + '
            '96*x1*q1q2q3q4*G - 192*x1*x2^2*G + 96*x1*q3q4*G\n'
            '-32*x1^4*x2^2*q3*G + 16*x1^4*q1q2q3*G - 64*x1^2*x2^4*q3*G + '
            '96*x1^2*x2^2*q1q2q3*G - 32*x2^6*q3*G + 80*x2^4*q1q2q3*G + '
            '192*x1^2*x2^2*q3*G - 96*x1^2*q1q2q3*G + 192*x2^4*q3*G - '
            '288*x2^2*q1q2q3*G - 192*x2^2*q3*G + 96*q1q2q3*G\n'
            '-32*x1^4*x2^2*q4*G + 16*x1^4*q1q2q4*G - 64*x1^2*x2^4*q4*G + '
            '96*x1^2*x2^2*q1q2q4*G - 32*x2^6*q4*G + 80*x2^4*q1q2q4*G + '
            '192*x1^2*x2^2*q4*G - 96*x1^2*q1q2q4*G + 192*x2^4*q4*G - '
            '288*x2^2*q1q2q4*G - 192*x2^2*q4*G + 96*q1q2q4*G\n'
            '-32*x1^4*x2^2*q1*G + 16*x1^4*q1q3q4*G - 64*x1^2*x2^4*q1*G + '
            '96*x1^2*x2^2*q1q3q4*G - 32*x2^6*q1*G + 80*x2^4*q1q3q4*G + '
            '192*x1^2*x2^2*q1*G - 96*x1^2*q1q3q4*G + 192*x2^4*q1*G - '
            '288*x2^2*q1q3q4*G - 192*x2^2*q1*G + 96*q1q3q4*G\n'
            '-32*x1^4*x2^2*q2*G + 16*x1^4*q2q3q4*G - 64*x1^2*x2^4*q2*G + '
            '96*x1^2*x2^2*q2q3q4*G - 32*x2^6*q2*G + 80*x2^4*q2q3q4*G + '
            '192*x1^2*x2^2*q2*G - 96*x1^2*q2q3q4*G + 192*x2^4*q2*G - '
            '288*x2^2*q2q3q4*G - 192*x2^2*q2*G + 96*q2q3q4*G',
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [6, 1], "fer": [], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4, 3], "fer": [], '
            '"coeff": [{"q": [80, 3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4, '
            '1], "fer": [1, 2], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [4, 1], "fer": [3, 4], "coeff": [{"q": '
            '[-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 5], "fer": [], '
            '"coeff": [{"q": [16, 3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, '
            '3], "fer": [1, 2], "coeff": [{"q": [-64, 3, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2, 3], "fer": [3, 4], "coeff": [{"q": '
            '[-64, 3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 1], "fer": [1, '
            '2, 3, 4], "coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 7], "fer": [], "coeff": [{"q": [-16, 3, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [0, 5], "fer": [1, 2], "coeff": [{"q": '
            '[32, 3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 5], "fer": [3, '
            '4], "coeff": [{"q": [32, 3, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0, 3], "fer": [1, 2, 3, 4], "coeff": [{"q": [-32, 3, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [4, 1], "fer": [], "coeff": [{"q": '
            '[-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 3], "fer": [], '
            '"coeff": [{"q": [-64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2, 1], "fer": [1, 2], "coeff": [{"q": [96, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2, 1], "fer": [3, 4], "coeff": [{"q": '
            '[96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 5], "fer": [], '
            '"coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '3], "fer": [1, 2], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0, 3], "fer": [3, 4], "coeff": [{"q": '
            '[-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 1], "fer": [], '
            '"coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '3], "fer": [], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [7, 0], "fer": [], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [5, 2], "fer": [], '
            '"coeff": [{"q": [-16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[5, 0], "fer": [1, 2], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [5, 0], "fer": [3, 4], "coeff": [{"q": '
            '[-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, 4], "fer": [], '
            '"coeff": [{"q": [-80, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[3, 2], "fer": [1, 2], "coeff": [{"q": [64, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [3, 2], "fer": [3, 4], "coeff": [{"q": '
            '[64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, 0], "fer": [1, '
            '2, 3, 4], "coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [1, 6], "fer": [], "coeff": [{"q": [-48, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [1, 4], "fer": [1, 2], "coeff": [{"q": '
            '[96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 4], "fer": [3, '
            '4], "coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[1, 2], "fer": [1, 2, 3, 4], "coeff": [{"q": [-96, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [5, 0], "fer": [], "coeff": [{"q": '
            '[-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, 2], "fer": [], '
            '"coeff": [{"q": [192, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[3, 0], "fer": [1, 2], "coeff": [{"q": [96, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [3, 0], "fer": [3, 4], "coeff": [{"q": '
            '[96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 4], "fer": [], '
            '"coeff": [{"q": [288, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[1, 2], "fer": [1, 2], "coeff": [{"q": [-288, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [1, 2], "fer": [3, 4], "coeff": [{"q": '
            '[-288, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, 0], "fer": '
            '[], "coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[1, 2], "fer": [], "coeff": [{"q": [-288, 1, 0, 1], "b": 0, '
            '"eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [5, 1], "fer": [1], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, 3], "fer": [1], '
            '"coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, '
            '1], "fer": [1, 3, 4], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [1, 5], "fer": [1], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 3], "fer": [1, 3, '
            '4], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [3, 1], "fer": [1], "coeff": [{"q": [-96, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [1, 3], "fer": [1], "coeff": '
            '[{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 1], '
            '"fer": [1, 3, 4], "coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [1, 1], "fer": [1], "coeff": [{"q": [96, 1, 0, '
            '1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [6, 0], "fer": [1], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4, 2], "fer": [1], '
            '"coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4, '
            '0], "fer": [1, 3, 4], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2, 4], "fer": [1], "coeff": [{"q": [-16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 6], "fer": [1], '
            '"coeff": [{"q": [-16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0, 4], "fer": [1, 3, 4], "coeff": [{"q": [32, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [4, 0], "fer": [1], "coeff": [{"q": '
            '[-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 0], "fer": [1, '
            '3, 4], "coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 4], "fer": [1], "coeff": [{"q": [96, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [0, 2], "fer": [1, 3, 4], "coeff": '
            '[{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 0], '
            '"fer": [1], "coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 2], "fer": [1], "coeff": [{"q": [-96, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [5, 1], "fer": [2], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, 3], "fer": [2], '
            '"coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, '
            '1], "fer": [2, 3, 4], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [1, 5], "fer": [2], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 3], "fer": [2, 3, '
            '4], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [3, 1], "fer": [2], "coeff": [{"q": [-96, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [1, 3], "fer": [2], "coeff": '
            '[{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 1], '
            '"fer": [2, 3, 4], "coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [1, 1], "fer": [2], "coeff": [{"q": [96, 1, 0, '
            '1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [6, 0], "fer": [2], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4, 2], "fer": [2], '
            '"coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4, '
            '0], "fer": [2, 3, 4], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2, 4], "fer": [2], "coeff": [{"q": [-16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 6], "fer": [2], '
            '"coeff": [{"q": [-16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0, 4], "fer": [2, 3, 4], "coeff": [{"q": [32, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [4, 0], "fer": [2], "coeff": [{"q": '
            '[-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 0], "fer": [2, '
            '3, 4], "coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 4], "fer": [2], "coeff": [{"q": [96, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [0, 2], "fer": [2, 3, 4], "coeff": '
            '[{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 0], '
            '"fer": [2], "coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 2], "fer": [2], "coeff": [{"q": [-96, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [5, 1], "fer": [3], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, 3], "fer": [3], '
            '"coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, '
            '1], "fer": [1, 2, 3], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [1, 5], "fer": [3], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 3], "fer": [1, 2, '
            '3], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [3, 1], "fer": [3], "coeff": [{"q": [-96, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [1, 3], "fer": [3], "coeff": '
            '[{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 1], '
            '"fer": [1, 2, 3], "coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [1, 1], "fer": [3], "coeff": [{"q": [96, 1, 0, '
            '1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [6, 0], "fer": [3], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4, 2], "fer": [3], '
            '"coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4, '
            '0], "fer": [1, 2, 3], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2, 4], "fer": [3], "coeff": [{"q": [-16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 6], "fer": [3], '
            '"coeff": [{"q": [-16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0, 4], "fer": [1, 2, 3], "coeff": [{"q": [32, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [4, 0], "fer": [3], "coeff": [{"q": '
            '[-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 0], "fer": [1, '
            '2, 3], "coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 4], "fer": [3], "coeff": [{"q": [96, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [0, 2], "fer": [1, 2, 3], "coeff": '
            '[{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 0], '
            '"fer": [3], "coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 2], "fer": [3], "coeff": [{"q": [-96, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [5, 1], "fer": [4], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, 3], "fer": [4], '
            '"coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, '
            '1], "fer": [1, 2, 4], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [1, 5], "fer": [4], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 3], "fer": [1, 2, '
            '4], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [3, 1], "fer": [4], "coeff": [{"q": [-96, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [1, 3], "fer": [4], "coeff": '
            '[{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 1], '
            '"fer": [1, 2, 4], "coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [1, 1], "fer": [4], "coeff": [{"q": [96, 1, 0, '
            '1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [6, 0], "fer": [4], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4, 2], "fer": [4], '
            '"coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4, '
            '0], "fer": [1, 2, 4], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2, 4], "fer": [4], "coeff": [{"q": [-16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 6], "fer": [4], '
            '"coeff": [{"q": [-16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0, 4], "fer": [1, 2, 4], "coeff": [{"q": [32, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [4, 0], "fer": [4], "coeff": [{"q": '
            '[-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 0], "fer": [1, '
            '2, 4], "coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 4], "fer": [4], "coeff": [{"q": [96, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [0, 2], "fer": [1, 2, 4], "coeff": '
            '[{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 0], '
            '"fer": [4], "coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 2], "fer": [4], "coeff": [{"q": [-96, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [4, 3], "fer": [], "coeff": [{"q": '
            '[-32, 3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4, 1], "fer": [1, '
            '2], "coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2, 5], "fer": [], "coeff": [{"q": [-64, 3, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2, 3], "fer": [1, 2], "coeff": [{"q": '
            '[160, 3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 3], "fer": [3, '
            '4], "coeff": [{"q": [64, 3, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2, 1], "fer": [1, 2, 3, 4], "coeff": [{"q": [-32, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0, 7], "fer": [], "coeff": [{"q": '
            '[-32, 3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 5], "fer": [1, '
            '2], "coeff": [{"q": [112, 3, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 5], "fer": [3, 4], "coeff": [{"q": [64, 3, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0, 3], "fer": [1, 2, 3, 4], '
            '"coeff": [{"q": [-160, 3, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2, 3], "fer": [], "coeff": [{"q": [64, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2, 1], "fer": [1, 2], "coeff": [{"q": '
            '[-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 5], "fer": [], '
            '"coeff": [{"q": [64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '3], "fer": [1, 2], "coeff": [{"q": [-160, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0, 3], "fer": [3, 4], "coeff": [{"q": '
            '[-64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 1], "fer": [1, '
            '2, 3, 4], "coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 3], "fer": [], "coeff": [{"q": [-64, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [0, 1], "fer": [1, 2], "coeff": [{"q": '
            '[96, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [5, 2], "fer": [], "coeff": [{"q": '
            '[-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [5, 0], "fer": [1, '
            '2], "coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[3, 4], "fer": [], "coeff": [{"q": [-64, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [3, 2], "fer": [1, 2], "coeff": [{"q": '
            '[96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, 2], "fer": [3, '
            '4], "coeff": [{"q": [64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[3, 0], "fer": [1, 2, 3, 4], "coeff": [{"q": [-32, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [1, 6], "fer": [], "coeff": [{"q": '
            '[-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 4], "fer": [1, '
            '2], "coeff": [{"q": [80, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[1, 4], "fer": [3, 4], "coeff": [{"q": [64, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [1, 2], "fer": [1, 2, 3, 4], "coeff": '
            '[{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, 2], '
            '"fer": [], "coeff": [{"q": [192, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [3, 0], "fer": [1, 2], "coeff": [{"q": [-96, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [1, 4], "fer": [], "coeff": [{"q": '
            '[192, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 2], "fer": [1, '
            '2], "coeff": [{"q": [-288, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [1, 2], "fer": [3, 4], "coeff": [{"q": [-192, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [1, 0], "fer": [1, 2, 3, 4], '
            '"coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, '
            '2], "fer": [], "coeff": [{"q": [-192, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [1, 0], "fer": [1, 2], "coeff": [{"q": [96, 1, 0, '
            '1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [4, 1], "fer": [1, 3], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 3], "fer": [1, '
            '3], "coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0, 5], "fer": [1, 3], "coeff": [{"q": [16, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2, 1], "fer": [1, 3], "coeff": [{"q": '
            '[-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 3], "fer": [1, '
            '3], "coeff": [{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 1], "fer": [1, 3], "coeff": [{"q": [96, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [5, 0], "fer": [1, 3], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, 2], "fer": [1, '
            '3], "coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[1, 4], "fer": [1, 3], "coeff": [{"q": [16, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [3, 0], "fer": [1, 3], "coeff": [{"q": '
            '[-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 2], "fer": [1, '
            '3], "coeff": [{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [1, 0], "fer": [1, 3], "coeff": [{"q": [96, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [4, 1], "fer": [2, 3], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 3], "fer": [2, '
            '3], "coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0, 5], "fer": [2, 3], "coeff": [{"q": [16, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2, 1], "fer": [2, 3], "coeff": [{"q": '
            '[-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 3], "fer": [2, '
            '3], "coeff": [{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 1], "fer": [2, 3], "coeff": [{"q": [96, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [5, 0], "fer": [2, 3], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, 2], "fer": [2, '
            '3], "coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[1, 4], "fer": [2, 3], "coeff": [{"q": [16, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [3, 0], "fer": [2, 3], "coeff": [{"q": '
            '[-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 2], "fer": [2, '
            '3], "coeff": [{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [1, 0], "fer": [2, 3], "coeff": [{"q": [96, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [4, 1], "fer": [1, 4], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 3], "fer": [1, '
            '4], "coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0, 5], "fer": [1, 4], "coeff": [{"q": [16, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2, 1], "fer": [1, 4], "coeff": [{"q": '
            '[-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 3], "fer": [1, '
            '4], "coeff": [{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 1], "fer": [1, 4], "coeff": [{"q": [96, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [5, 0], "fer": [1, 4], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, 2], "fer": [1, '
            '4], "coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[1, 4], "fer": [1, 4], "coeff": [{"q": [16, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [3, 0], "fer": [1, 4], "coeff": [{"q": '
            '[-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 2], "fer": [1, '
            '4], "coeff": [{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [1, 0], "fer": [1, 4], "coeff": [{"q": [96, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [4, 1], "fer": [2, 4], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 3], "fer": [2, '
            '4], "coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0, 5], "fer": [2, 4], "coeff": [{"q": [16, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2, 1], "fer": [2, 4], "coeff": [{"q": '
            '[-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 3], "fer": [2, '
            '4], "coeff": [{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 1], "fer": [2, 4], "coeff": [{"q": [96, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [5, 0], "fer": [2, 4], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, 2], "fer": [2, '
            '4], "coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[1, 4], "fer": [2, 4], "coeff": [{"q": [16, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [3, 0], "fer": [2, 4], "coeff": [{"q": '
            '[-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 2], "fer": [2, '
            '4], "coeff": [{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [1, 0], "fer": [2, 4], "coeff": [{"q": [96, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [4, 3], "fer": [], "coeff": [{"q": '
            '[-32, 3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4, 1], "fer": [3, '
            '4], "coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2, 5], "fer": [], "coeff": [{"q": [-64, 3, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2, 3], "fer": [1, 2], "coeff": [{"q": '
            '[64, 3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 3], "fer": [3, '
            '4], "coeff": [{"q": [160, 3, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2, 1], "fer": [1, 2, 3, 4], "coeff": [{"q": [-32, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 7], "fer": [], "coeff": '
            '[{"q": [-32, 3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 5], '
            '"fer": [1, 2], "coeff": [{"q": [64, 3, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0, 5], "fer": [3, 4], "coeff": [{"q": [112, 3, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 3], "fer": [1, 2, 3, '
            '4], "coeff": [{"q": [-160, 3, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2, 3], "fer": [], "coeff": [{"q": [64, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [2, 1], "fer": [3, 4], "coeff": [{"q": '
            '[-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 5], "fer": [], '
            '"coeff": [{"q": [64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '3], "fer": [1, 2], "coeff": [{"q": [-64, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0, 3], "fer": [3, 4], "coeff": [{"q": '
            '[-160, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 1], "fer": '
            '[1, 2, 3, 4], "coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0, 3], "fer": [], "coeff": [{"q": [-64, 1, 0, '
            '1], "b": 0, "eps": 0}]}, {"bos": [0, 1], "fer": [3, 4], '
            '"coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [5, 2], "fer": [], "coeff": [{"q": '
            '[-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [5, 0], "fer": [3, '
            '4], "coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[3, 4], "fer": [], "coeff": [{"q": [-64, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [3, 2], "fer": [1, 2], "coeff": [{"q": '
            '[64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, 2], "fer": [3, '
            '4], "coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[3, 0], "fer": [1, 2, 3, 4], "coeff": [{"q": [-32, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [1, 6], "fer": [], "coeff": [{"q": '
            '[-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 4], "fer": [1, '
            '2], "coeff": [{"q": [64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[1, 4], "fer": [3, 4], "coeff": [{"q": [80, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [1, 2], "fer": [1, 2, 3, 4], "coeff": '
            '[{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3, 2], '
            '"fer": [], "coeff": [{"q": [192, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [3, 0], "fer": [3, 4], "coeff": [{"q": [-96, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [1, 4], "fer": [], "coeff": [{"q": '
            '[192, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, 2], "fer": [1, '
            '2], "coeff": [{"q": [-192, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [1, 2], "fer": [3, 4], "coeff": [{"q": [-288, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [1, 0], "fer": [1, 2, 3, 4], '
            '"coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, '
            '2], "fer": [], "coeff": [{"q": [-192, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [1, 0], "fer": [3, 4], "coeff": [{"q": [96, 1, 0, '
            '1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [4, 2], "fer": [3], "coeff": [{"q": '
            '[-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4, 0], "fer": [1, '
            '2, 3], "coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2, 4], "fer": [3], "coeff": [{"q": [-64, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [2, 2], "fer": [1, 2, 3], "coeff": '
            '[{"q": [96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 6], '
            '"fer": [3], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0, 4], "fer": [1, 2, 3], "coeff": [{"q": [80, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 2], "fer": [3], '
            '"coeff": [{"q": [192, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2, 0], "fer": [1, 2, 3], "coeff": [{"q": [-96, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [0, 4], "fer": [3], "coeff": [{"q": '
            '[192, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [1, '
            '2, 3], "coeff": [{"q": [-288, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 2], "fer": [3], "coeff": [{"q": [-192, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0, 0], "fer": [1, 2, 3], "coeff": '
            '[{"q": [96, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [4, 2], "fer": [4], "coeff": [{"q": '
            '[-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4, 0], "fer": [1, '
            '2, 4], "coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2, 4], "fer": [4], "coeff": [{"q": [-64, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [2, 2], "fer": [1, 2, 4], "coeff": '
            '[{"q": [96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 6], '
            '"fer": [4], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0, 4], "fer": [1, 2, 4], "coeff": [{"q": [80, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 2], "fer": [4], '
            '"coeff": [{"q": [192, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2, 0], "fer": [1, 2, 4], "coeff": [{"q": [-96, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [0, 4], "fer": [4], "coeff": [{"q": '
            '[192, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [1, '
            '2, 4], "coeff": [{"q": [-288, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 2], "fer": [4], "coeff": [{"q": [-192, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0, 0], "fer": [1, 2, 4], "coeff": '
            '[{"q": [96, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [4, 2], "fer": [1], "coeff": [{"q": '
            '[-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4, 0], "fer": [1, '
            '3, 4], "coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2, 4], "fer": [1], "coeff": [{"q": [-64, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [2, 2], "fer": [1, 3, 4], "coeff": '
            '[{"q": [96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 6], '
            '"fer": [1], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0, 4], "fer": [1, 3, 4], "coeff": [{"q": [80, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 2], "fer": [1], '
            '"coeff": [{"q": [192, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2, 0], "fer": [1, 3, 4], "coeff": [{"q": [-96, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [0, 4], "fer": [1], "coeff": [{"q": '
            '[192, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [1, '
            '3, 4], "coeff": [{"q": [-288, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 2], "fer": [1], "coeff": [{"q": [-192, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0, 0], "fer": [1, 3, 4], "coeff": '
            '[{"q": [96, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'true, "terms": [{"bos": [4, 2], "fer": [2], "coeff": [{"q": '
            '[-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4, 0], "fer": [2, '
            '3, 4], "coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2, 4], "fer": [2], "coeff": [{"q": [-64, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [2, 2], "fer": [2, 3, 4], "coeff": '
            '[{"q": [96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 6], '
            '"fer": [2], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0, 4], "fer": [2, 3, 4], "coeff": [{"q": [80, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [2, 2], "fer": [2], '
            '"coeff": [{"q": [192, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2, 0], "fer": [2, 3, 4], "coeff": [{"q": [-96, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [0, 4], "fer": [2], "coeff": [{"q": '
            '[192, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, 2], "fer": [2, '
            '3, 4], "coeff": [{"q": [-288, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0, 2], "fer": [2], "coeff": [{"q": [-192, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0, 0], "fer": [2, 3, 4], "coeff": '
            '[{"q": [96, 1, 0, 1], "b": 0, "eps": 0}]}]}',
            '16 x_{1}^{6}x_{2} e^{x^2/2} + 80/3 x_{1}^{4}x_{2}^{3} e^{x^2/2}'
            ' - 32 x_{1}^{4}x_{2}q_{1}q_{2} e^{x^2/2} - 32 x_{1}^{4}x_{2}q_{'
            '3}q_{4} e^{x^2/2} + 16/3 x_{1}^{2}x_{2}^{5} e^{x^2/2} - 64/3 x_'
            '{1}^{2}x_{2}^{3}q_{1}q_{2} e^{x^2/2} - 64/3 x_{1}^{2}x_{2}^{3}q'
            '_{3}q_{4} e^{x^2/2} + 32 x_{1}^{2}x_{2}q_{1}q_{2}q_{3}q_{4} e^{'
            'x^2/2} - 16/3 x_{2}^{7} e^{x^2/2} + 32/3 x_{2}^{5}q_{1}q_{2} e^'
            '{x^2/2} + 32/3 x_{2}^{5}q_{3}q_{4} e^{x^2/2} - 32/3 x_{2}^{3}q_'
            '{1}q_{2}q_{3}q_{4} e^{x^2/2} - 96 x_{1}^{4}x_{2} e^{x^2/2} - 64'
            ' x_{1}^{2}x_{2}^{3} e^{x^2/2} + 96 x_{1}^{2}x_{2}q_{1}q_{2} e^{'
            'x^2/2} + 96 x_{1}^{2}x_{2}q_{3}q_{4} e^{x^2/2} + 32 x_{2}^{5} e'
            '^{x^2/2} - 32 x_{2}^{3}q_{1}q_{2} e^{x^2/2} - 32 x_{2}^{3}q_{3}'
            'q_{4} e^{x^2/2} + 96 x_{1}^{2}x_{2} e^{x^2/2} - 32 x_{2}^{3} e^'
            '{x^2/2}\n16 x_{1}^{7} e^{x^2/2} - 16 x_{1}^{5}x_{2}^{2} e^{x^2/'
            '2} - 32 x_{1}^{5}q_{1}q_{2} e^{x^2/2} - 32 x_{1}^{5}q_{3}q_{4} '
            'e^{x^2/2} - 80 x_{1}^{3}x_{2}^{4} e^{x^2/2} + 64 x_{1}^{3}x_{2}'
            '^{2}q_{1}q_{2} e^{x^2/2} + 64 x_{1}^{3}x_{2}^{2}q_{3}q_{4} e^{x'
            '^2/2} + 32 x_{1}^{3}q_{1}q_{2}q_{3}q_{4} e^{x^2/2} - 48 x_{1}x_'
            '{2}^{6} e^{x^2/2} + 96 x_{1}x_{2}^{4}q_{1}q_{2} e^{x^2/2} + 96 '
            'x_{1}x_{2}^{4}q_{3}q_{4} e^{x^2/2} - 96 x_{1}x_{2}^{2}q_{1}q_{2'
            '}q_{3}q_{4} e^{x^2/2} - 96 x_{1}^{5} e^{x^2/2} + 192 x_{1}^{3}x'
            '_{2}^{2} e^{x^2/2} + 96 x_{1}^{3}q_{1}q_{2} e^{x^2/2} + 96 x_{1'
            '}^{3}q_{3}q_{4} e^{x^2/2} + 288 x_{1}x_{2}^{4} e^{x^2/2} - 288 '
            'x_{1}x_{2}^{2}q_{1}q_{2} e^{x^2/2} - 288 x_{1}x_{2}^{2}q_{3}q_{'
            '4} e^{x^2/2} + 96 x_{1}^{3} e^{x^2/2} - 288 x_{1}x_{2}^{2} e^{x'
            '^2/2}\n16 x_{1}^{5}x_{2}q_{1} e^{x^2/2} + 32 x_{1}^{3}x_{2}^{3}'
            'q_{1} e^{x^2/2} - 32 x_{1}^{3}x_{2}q_{1}q_{3}q_{4} e^{x^2/2} + '
            '16 x_{1}x_{2}^{5}q_{1} e^{x^2/2} - 32 x_{1}x_{2}^{3}q_{1}q_{3}q'
            '_{4} e^{x^2/2} - 96 x_{1}^{3}x_{2}q_{1} e^{x^2/2} - 96 x_{1}x_{'
            '2}^{3}q_{1} e^{x^2/2} + 96 x_{1}x_{2}q_{1}q_{3}q_{4} e^{x^2/2} '
            '+ 96 x_{1}x_{2}q_{1} e^{x^2/2}\n16 x_{1}^{6}q_{1} e^{x^2/2} + 1'
            '6 x_{1}^{4}x_{2}^{2}q_{1} e^{x^2/2} - 32 x_{1}^{4}q_{1}q_{3}q_{'
            '4} e^{x^2/2} - 16 x_{1}^{2}x_{2}^{4}q_{1} e^{x^2/2} - 16 x_{2}^'
            '{6}q_{1} e^{x^2/2} + 32 x_{2}^{4}q_{1}q_{3}q_{4} e^{x^2/2} - 96'
            ' x_{1}^{4}q_{1} e^{x^2/2} + 96 x_{1}^{2}q_{1}q_{3}q_{4} e^{x^2/'
            '2} + 96 x_{2}^{4}q_{1} e^{x^2/2} - 96 x_{2}^{2}q_{1}q_{3}q_{4} '
            'e^{x^2/2} + 96 x_{1}^{2}q_{1} e^{x^2/2} - 96 x_{2}^{2}q_{1} e^{'
            'x^2/2}\n16 x_{1}^{5}x_{2}q_{2} e^{x^2/2} + 32 x_{1}^{3}x_{2}^{3'
            '}q_{2} e^{x^2/2} - 32 x_{1}^{3}x_{2}q_{2}q_{3}q_{4} e^{x^2/2} +'
            ' 16 x_{1}x_{2}^{5}q_{2} e^{x^2/2} - 32 x_{1}x_{2}^{3}q_{2}q_{3}'
            'q_{4} e^{x^2/2} - 96 x_{1}^{3}x_{2}q_{2} e^{x^2/2} - 96 x_{1}x_'
            '{2}^{3}q_{2} e^{x^2/2} + 96 x_{1}x_{2}q_{2}q_{3}q_{4} e^{x^2/2}'
            ' + 96 x_{1}x_{2}q_{2} e^{x^2/2}\n16 x_{1}^{6}q_{2} e^{x^2/2} + '
            '16 x_{1}^{4}x_{2}^{2}q_{2} e^{x^2/2} - 32 x_{1}^{4}q_{2}q_{3}q_'
            '{4} e^{x^2/2} - 16 x_{1}^{2}x_{2}^{4}q_{2} e^{x^2/2} - 16 x_{2}'
            '^{6}q_{2} e^{x^2/2} + 32 x_{2}^{4}q_{2}q_{3}q_{4} e^{x^2/2} - 9'
            '6 x_{1}^{4}q_{2} e^{x^2/2} + 96 x_{1}^{2}q_{2}q_{3}q_{4} e^{x^2'
            '/2} + 96 x_{2}^{4}q_{2} e^{x^2/2} - 96 x_{2}^{2}q_{2}q_{3}q_{4}'
            ' e^{x^2/2} + 96 x_{1}^{2}q_{2} e^{x^2/2} - 96 x_{2}^{2}q_{2} e^'
            '{x^2/2}\n16 x_{1}^{5}x_{2}q_{3} e^{x^2/2} + 32 x_{1}^{3}x_{2}^{'
            '3}q_{3} e^{x^2/2} - 32 x_{1}^{3}x_{2}q_{1}q_{2}q_{3} e^{x^2/2} '
            '+ 16 x_{1}x_{2}^{5}q_{3} e^{x^2/2} - 32 x_{1}x_{2}^{3}q_{1}q_{2'
            '}q_{3} e^{x^2/2} - 96 x_{1}^{3}x_{2}q_{3} e^{x^2/2} - 96 x_{1}x'
            '_{2}^{3}q_{3} e^{x^2/2} + 96 x_{1}x_{2}q_{1}q_{2}q_{3} e^{x^2/2'
            '} + 96 x_{1}x_{2}q_{3} e^{x^2/2}\n16 x_{1}^{6}q_{3} e^{x^2/2} +'
            ' 16 x_{1}^{4}x_{2}^{2}q_{3} e^{x^2/2} - 32 x_{1}^{4}q_{1}q_{2}q'
            '_{3} e^{x^2/2} - 16 x_{1}^{2}x_{2}^{4}q_{3} e^{x^2/2} - 16 x_{2'
            '}^{6}q_{3} e^{x^2/2} + 32 x_{2}^{4}q_{1}q_{2}q_{3} e^{x^2/2} - '
            '96 x_{1}^{4}q_{3} e^{x^2/2} + 96 x_{1}^{2}q_{1}q_{2}q_{3} e^{x^'
            '2/2} + 96 x_{2}^{4}q_{3} e^{x^2/2} - 96 x_{2}^{2}q_{1}q_{2}q_{3'
            '} e^{x^2/2} + 96 x_{1}^{2}q_{3} e^{x^2/2} - 96 x_{2}^{2}q_{3} e'
            '^{x^2/2}\n16 x_{1}^{5}x_{2}q_{4} e^{x^2/2} + 32 x_{1}^{3}x_{2}^'
            '{3}q_{4} e^{x^2/2} - 32 x_{1}^{3}x_{2}q_{1}q_{2}q_{4} e^{x^2/2}'
            ' + 16 x_{1}x_{2}^{5}q_{4} e^{x^2/2} - 32 x_{1}x_{2}^{3}q_{1}q_{'
            '2}q_{4} e^{x^2/2} - 96 x_{1}^{3}x_{2}q_{4} e^{x^2/2} - 96 x_{1}'
            'x_{2}^{3}q_{4} e^{x^2/2} + 96 x_{1}x_{2}q_{1}q_{2}q_{4} e^{x^2/'
            '2} + 96 x_{1}x_{2}q_{4} e^{x^2/2}\n16 x_{1}^{6}q_{4} e^{x^2/2} '
            '+ 16 x_{1}^{4}x_{2}^{2}q_{4} e^{x^2/2} - 32 x_{1}^{4}q_{1}q_{2}'
            'q_{4} e^{x^2/2} - 16 x_{1}^{2}x_{2}^{4}q_{4} e^{x^2/2} - 16 x_{'
            '2}^{6}q_{4} e^{x^2/2} + 32 x_{2}^{4}q_{1}q_{2}q_{4} e^{x^2/2} -'
            ' 96 x_{1}^{4}q_{4} e^{x^2/2} + 96 x_{1}^{2}q_{1}q_{2}q_{4} e^{x'
            '^2/2} + 96 x_{2}^{4}q_{4} e^{x^2/2} - 96 x_{2}^{2}q_{1}q_{2}q_{'
            '4} e^{x^2/2} + 96 x_{1}^{2}q_{4} e^{x^2/2} - 96 x_{2}^{2}q_{4} '
            'e^{x^2/2}\n-32/3 x_{1}^{4}x_{2}^{3} e^{x^2/2} + 16 x_{1}^{4}x_{'
            '2}q_{1}q_{2} e^{x^2/2} - 64/3 x_{1}^{2}x_{2}^{5} e^{x^2/2} + 16'
            '0/3 x_{1}^{2}x_{2}^{3}q_{1}q_{2} e^{x^2/2} + 64/3 x_{1}^{2}x_{2'
            '}^{3}q_{3}q_{4} e^{x^2/2} - 32 x_{1}^{2}x_{2}q_{1}q_{2}q_{3}q_{'
            '4} e^{x^2/2} - 32/3 x_{2}^{7} e^{x^2/2} + 112/3 x_{2}^{5}q_{1}q'
            '_{2} e^{x^2/2} + 64/3 x_{2}^{5}q_{3}q_{4} e^{x^2/2} - 160/3 x_{'
            '2}^{3}q_{1}q_{2}q_{3}q_{4} e^{x^2/2} + 64 x_{1}^{2}x_{2}^{3} e^'
            '{x^2/2} - 96 x_{1}^{2}x_{2}q_{1}q_{2} e^{x^2/2} + 64 x_{2}^{5} '
            'e^{x^2/2} - 160 x_{2}^{3}q_{1}q_{2} e^{x^2/2} - 64 x_{2}^{3}q_{'
            '3}q_{4} e^{x^2/2} + 96 x_{2}q_{1}q_{2}q_{3}q_{4} e^{x^2/2} - 64'
            ' x_{2}^{3} e^{x^2/2} + 96 x_{2}q_{1}q_{2} e^{x^2/2}\n-32 x_{1}^'
            '{5}x_{2}^{2} e^{x^2/2} + 16 x_{1}^{5}q_{1}q_{2} e^{x^2/2} - 64 '
            'x_{1}^{3}x_{2}^{4} e^{x^2/2} + 96 x_{1}^{3}x_{2}^{2}q_{1}q_{2} '
            'e^{x^2/2} + 64 x_{1}^{3}x_{2}^{2}q_{3}q_{4} e^{x^2/2} - 32 x_{1'
            '}^{3}q_{1}q_{2}q_{3}q_{4} e^{x^2/2} - 32 x_{1}x_{2}^{6} e^{x^2/'
            '2} + 80 x_{1}x_{2}^{4}q_{1}q_{2} e^{x^2/2} + 64 x_{1}x_{2}^{4}q'
            '_{3}q_{4} e^{x^2/2} - 96 x_{1}x_{2}^{2}q_{1}q_{2}q_{3}q_{4} e^{'
            'x^2/2} + 192 x_{1}^{3}x_{2}^{2} e^{x^2/2} - 96 x_{1}^{3}q_{1}q_'
            '{2} e^{x^2/2} + 192 x_{1}x_{2}^{4} e^{x^2/2} - 288 x_{1}x_{2}^{'
            '2}q_{1}q_{2} e^{x^2/2} - 192 x_{1}x_{2}^{2}q_{3}q_{4} e^{x^2/2}'
            ' + 96 x_{1}q_{1}q_{2}q_{3}q_{4} e^{x^2/2} - 192 x_{1}x_{2}^{2} '
            'e^{x^2/2} + 96 x_{1}q_{1}q_{2} e^{x^2/2}\n16 x_{1}^{4}x_{2}q_{1'
            '}q_{3} e^{x^2/2} + 32 x_{1}^{2}x_{2}^{3}q_{1}q_{3} e^{x^2/2} + '
            '16 x_{2}^{5}q_{1}q_{3} e^{x^2/2} - 96 x_{1}^{2}x_{2}q_{1}q_{3} '
            'e^{x^2/2} - 96 x_{2}^{3}q_{1}q_{3} e^{x^2/2} + 96 x_{2}q_{1}q_{'
            '3} e^{x^2/2}\n16 x_{1}^{5}q_{1}q_{3} e^{x^2/2} + 32 x_{1}^{3}x_'
            '{2}^{2}q_{1}q_{3} e^{x^2/2} + 16 x_{1}x_{2}^{4}q_{1}q_{3} e^{x^'
            '2/2} - 96 x_{1}^{3}q_{1}q_{3} e^{x^2/2} - 96 x_{1}x_{2}^{2}q_{1'
            '}q_{3} e^{x^2/2} + 96 x_{1}q_{1}q_{3} e^{x^2/2}\n16 x_{1}^{4}x_'
            '{2}q_{2}q_{3} e^{x^2/2} + 32 x_{1}^{2}x_{2}^{3}q_{2}q_{3} e^{x^'
            '2/2} + 16 x_{2}^{5}q_{2}q_{3} e^{x^2/2} - 96 x_{1}^{2}x_{2}q_{2'
            '}q_{3} e^{x^2/2} - 96 x_{2}^{3}q_{2}q_{3} e^{x^2/2} + 96 x_{2}q'
            '_{2}q_{3} e^{x^2/2}\n16 x_{1}^{5}q_{2}q_{3} e^{x^2/2} + 32 x_{1'
            '}^{3}x_{2}^{2}q_{2}q_{3} e^{x^2/2} + 16 x_{1}x_{2}^{4}q_{2}q_{3'
            '} e^{x^2/2} - 96 x_{1}^{3}q_{2}q_{3} e^{x^2/2} - 96 x_{1}x_{2}^'
            '{2}q_{2}q_{3} e^{x^2/2} + 96 x_{1}q_{2}q_{3} e^{x^2/2}\n16 x_{1'
            '}^{4}x_{2}q_{1}q_{4} e^{x^2/2} + 32 x_{1}^{2}x_{2}^{3}q_{1}q_{4'
            '} e^{x^2/2} + 16 x_{2}^{5}q_{1}q_{4} e^{x^2/2} - 96 x_{1}^{2}x_'
            '{2}q_{1}q_{4} e^{x^2/2} - 96 x_{2}^{3}q_{1}q_{4} e^{x^2/2} + 96'
            ' x_{2}q_{1}q_{4} e^{x^2/2}\n16 x_{1}^{5}q_{1}q_{4} e^{x^2/2} + '
            '32 x_{1}^{3}x_{2}^{2}q_{1}q_{4} e^{x^2/2} + 16 x_{1}x_{2}^{4}q_'
            '{1}q_{4} e^{x^2/2} - 96 x_{1}^{3}q_{1}q_{4} e^{x^2/2} - 96 x_{1'
            '}x_{2}^{2}q_{1}q_{4} e^{x^2/2} + 96 x_{1}q_{1}q_{4} e^{x^2/2}\n'
            '16 x_{1}^{4}x_{2}q_{2}q_{4} e^{x^2/2} + 32 x_{1}^{2}x_{2}^{3}q_'
            '{2}q_{4} e^{x^2/2} + 16 x_{2}^{5}q_{2}q_{4} e^{x^2/2} - 96 x_{1'
            '}^{2}x_{2}q_{2}q_{4} e^{x^2/2} - 96 x_{2}^{3}q_{2}q_{4} e^{x^2/'
            '2} + 96 x_{2}q_{2}q_{4} e^{x^2/2}\n16 x_{1}^{5}q_{2}q_{4} e^{x^'
            '2/2} + 32 x_{1}^{3}x_{2}^{2}q_{2}q_{4} e^{x^2/2} + 16 x_{1}x_{2'
            '}^{4}q_{2}q_{4} e^{x^2/2} - 96 x_{1}^{3}q_{2}q_{4} e^{x^2/2} - '
            '96 x_{1}x_{2}^{2}q_{2}q_{4} e^{x^2/2} + 96 x_{1}q_{2}q_{4} e^{x'
            '^2/2}\n-32/3 x_{1}^{4}x_{2}^{3} e^{x^2/2} + 16 x_{1}^{4}x_{2}q_'
            '{3}q_{4} e^{x^2/2} - 64/3 x_{1}^{2}x_{2}^{5} e^{x^2/2} + 64/3 x'
            '_{1}^{2}x_{2}^{3}q_{1}q_{2} e^{x^2/2} + 160/3 x_{1}^{2}x_{2}^{3'
            '}q_{3}q_{4} e^{x^2/2} - 32 x_{1}^{2}x_{2}q_{1}q_{2}q_{3}q_{4} e'
            '^{x^2/2} - 32/3 x_{2}^{7} e^{x^2/2} + 64/3 x_{2}^{5}q_{1}q_{2} '
            'e^{x^2/2} + 112/3 x_{2}^{5}q_{3}q_{4} e^{x^2/2} - 160/3 x_{2}^{'
            '3}q_{1}q_{2}q_{3}q_{4} e^{x^2/2} + 64 x_{1}^{2}x_{2}^{3} e^{x^2'
            '/2} - 96 x_{1}^{2}x_{2}q_{3}q_{4} e^{x^2/2} + 64 x_{2}^{5} e^{x'
            '^2/2} - 64 x_{2}^{3}q_{1}q_{2} e^{x^2/2} - 160 x_{2}^{3}q_{3}q_'
            '{4} e^{x^2/2} + 96 x_{2}q_{1}q_{2}q_{3}q_{4} e^{x^2/2} - 64 x_{'
            '2}^{3} e^{x^2/2} + 96 x_{2}q_{3}q_{4} e^{x^2/2}\n-32 x_{1}^{5}x'
            '_{2}^{2} e^{x^2/2} + 16 x_{1}^{5}q_{3}q_{4} e^{x^2/2} - 64 x_{1'
            '}^{3}x_{2}^{4} e^{x^2/2} + 64 x_{1}^{3}x_{2}^{2}q_{1}q_{2} e^{x'
            '^2/2} + 96 x_{1}^{3}x_{2}^{2}q_{3}q_{4} e^{x^2/2} - 32 x_{1}^{3'
            '}q_{1}q_{2}q_{3}q_{4} e^{x^2/2} - 32 x_{1}x_{2}^{6} e^{x^2/2} +'
            ' 64 x_{1}x_{2}^{4}q_{1}q_{2} e^{x^2/2} + 80 x_{1}x_{2}^{4}q_{3}'
            'q_{4} e^{x^2/2} - 96 x_{1}x_{2}^{2}q_{1}q_{2}q_{3}q_{4} e^{x^2/'
            '2} + 192 x_{1}^{3}x_{2}^{2} e^{x^2/2} - 96 x_{1}^{3}q_{3}q_{4} '
            'e^{x^2/2} + 192 x_{1}x_{2}^{4} e^{x^2/2} - 192 x_{1}x_{2}^{2}q_'
            '{1}q_{2} e^{x^2/2} - 288 x_{1}x_{2}^{2}q_{3}q_{4} e^{x^2/2} + 9'
            '6 x_{1}q_{1}q_{2}q_{3}q_{4} e^{x^2/2} - 192 x_{1}x_{2}^{2} e^{x'
            '^2/2} + 96 x_{1}q_{3}q_{4} e^{x^2/2}\n-32 x_{1}^{4}x_{2}^{2}q_{'
            '3} e^{x^2/2} + 16 x_{1}^{4}q_{1}q_{2}q_{3} e^{x^2/2} - 64 x_{1}'
            '^{2}x_{2}^{4}q_{3} e^{x^2/2} + 96 x_{1}^{2}x_{2}^{2}q_{1}q_{2}q'
            '_{3} e^{x^2/2} - 32 x_{2}^{6}q_{3} e^{x^2/2} + 80 x_{2}^{4}q_{1'
            '}q_{2}q_{3} e^{x^2/2} + 192 x_{1}^{2}x_{2}^{2}q_{3} e^{x^2/2} -'
            ' 96 x_{1}^{2}q_{1}q_{2}q_{3} e^{x^2/2} + 192 x_{2}^{4}q_{3} e^{'
            'x^2/2} - 288 x_{2}^{2}q_{1}q_{2}q_{3} e^{x^2/2} - 192 x_{2}^{2}'
            'q_{3} e^{x^2/2} + 96 q_{1}q_{2}q_{3} e^{x^2/2}\n-32 x_{1}^{4}x_'
            '{2}^{2}q_{4} e^{x^2/2} + 16 x_{1}^{4}q_{1}q_{2}q_{4} e^{x^2/2} '
            '- 64 x_{1}^{2}x_{2}^{4}q_{4} e^{x^2/2} + 96 x_{1}^{2}x_{2}^{2}q'
            '_{1}q_{2}q_{4} e^{x^2/2} - 32 x_{2}^{6}q_{4} e^{x^2/2} + 80 x_{'
            '2}^{4}q_{1}q_{2}q_{4} e^{x^2/2} + 192 x_{1}^{2}x_{2}^{2}q_{4} e'
            '^{x^2/2} - 96 x_{1}^{2}q_{1}q_{2}q_{4} e^{x^2/2} + 192 x_{2}^{4'
            '}q_{4} e^{x^2/2} - 288 x_{2}^{2}q_{1}q_{2}q_{4} e^{x^2/2} - 192'
            ' x_{2}^{2}q_{4} e^{x^2/2} + 96 q_{1}q_{2}q_{4} e^{x^2/2}\n-32 x'
            '_{1}^{4}x_{2}^{2}q_{1} e^{x^2/2} + 16 x_{1}^{4}q_{1}q_{3}q_{4} '
            'e^{x^2/2} - 64 x_{1}^{2}x_{2}^{4}q_{1} e^{x^2/2} + 96 x_{1}^{2}'
            'x_{2}^{2}q_{1}q_{3}q_{4} e^{x^2/2} - 32 x_{2}^{6}q_{1} e^{x^2/2'
            '} + 80 x_{2}^{4}q_{1}q_{3}q_{4} e^{x^2/2} + 192 x_{1}^{2}x_{2}^'
            '{2}q_{1} e^{x^2/2} - 96 x_{1}^{2}q_{1}q_{3}q_{4} e^{x^2/2} + 19'
            '2 x_{2}^{4}q_{1} e^{x^2/2} - 288 x_{2}^{2}q_{1}q_{3}q_{4} e^{x^'
            '2/2} - 192 x_{2}^{2}q_{1} e^{x^2/2} + 96 q_{1}q_{3}q_{4} e^{x^2'
            '/2}\n-32 x_{1}^{4}x_{2}^{2}q_{2} e^{x^2/2} + 16 x_{1}^{4}q_{2}q'
            '_{3}q_{4} e^{x^2/2} - 64 x_{1}^{2}x_{2}^{4}q_{2} e^{x^2/2} + 96'
            ' x_{1}^{2}x_{2}^{2}q_{2}q_{3}q_{4} e^{x^2/2} - 32 x_{2}^{6}q_{2'
            '} e^{x^2/2} + 80 x_{2}^{4}q_{2}q_{3}q_{4} e^{x^2/2} + 192 x_{1}'
            '^{2}x_{2}^{2}q_{2} e^{x^2/2} - 96 x_{1}^{2}q_{2}q_{3}q_{4} e^{x'
            '^2/2} + 192 x_{2}^{4}q_{2} e^{x^2/2} - 288 x_{2}^{2}q_{2}q_{3}q'
            '_{4} e^{x^2/2} - 192 x_{2}^{2}q_{2} e^{x^2/2} + 96 q_{2}q_{3}q_'
            '{4} e^{x^2/2}',
        ),
        (
            'degree 3: dim nullspace 26, dim formula 26 [ok]',
            '{"k": 3, "dim_nullspace": 26, "dim_formula": 26, "dims_match": '
            'true, "product_failures": [], "products_harmonic": true, '
            '"schema": "supertransform/1", "basis": [{"schema": '
            '"supertransform/1", "m": 2, "n": 2, "envelope": false, "terms": '
            '[{"bos": [2, 1], "fer": [], "coeff": [{"q": [1, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [0, 3], "fer": [], "coeff": [{"q": [-1, '
            '3, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": "supertransform/1", '
            '"m": 2, "n": 2, "envelope": false, "terms": [{"bos": [3, 0], '
            '"fer": [], "coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [1, 2], "fer": [], "coeff": [{"q": [-3, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}, {"schema": "supertransform/1", "m": 2, "n": '
            '2, "envelope": false, "terms": [{"bos": [1, 1], "fer": [1], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 2, "n": 2, "envelope": false, "terms": '
            '[{"bos": [2, 0], "fer": [1], "coeff": [{"q": [1, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [0, 2], "fer": [1], "coeff": [{"q": '
            '[-1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 2, "n": 2, "envelope": false, "terms": '
            '[{"bos": [1, 1], "fer": [2], "coeff": [{"q": [1, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}, {"schema": "supertransform/1", "m": 2, "n": '
            '2, "envelope": false, "terms": [{"bos": [2, 0], "fer": [2], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '2], "fer": [2], "coeff": [{"q": [-1, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}, {"schema": "supertransform/1", "m": 2, "n": 2, '
            '"envelope": false, "terms": [{"bos": [1, 1], "fer": [3], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 2, "n": 2, "envelope": false, "terms": '
            '[{"bos": [2, 0], "fer": [3], "coeff": [{"q": [1, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [0, 2], "fer": [3], "coeff": [{"q": '
            '[-1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 2, "n": 2, "envelope": false, "terms": '
            '[{"bos": [1, 1], "fer": [4], "coeff": [{"q": [1, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}, {"schema": "supertransform/1", "m": 2, "n": '
            '2, "envelope": false, "terms": [{"bos": [2, 0], "fer": [4], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '2], "fer": [4], "coeff": [{"q": [-1, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}, {"schema": "supertransform/1", "m": 2, "n": 2, '
            '"envelope": false, "terms": [{"bos": [0, 3], "fer": [], '
            '"coeff": [{"q": [-2, 3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '1], "fer": [1, 2], "coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}, {"schema": "supertransform/1", "m": 2, "n": 2, '
            '"envelope": false, "terms": [{"bos": [1, 2], "fer": [], '
            '"coeff": [{"q": [-2, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, '
            '0], "fer": [1, 2], "coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}, {"schema": "supertransform/1", "m": 2, "n": 2, '
            '"envelope": false, "terms": [{"bos": [0, 1], "fer": [1, 3], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 2, "n": 2, "envelope": false, "terms": '
            '[{"bos": [1, 0], "fer": [1, 3], "coeff": [{"q": [1, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}, {"schema": "supertransform/1", "m": 2, '
            '"n": 2, "envelope": false, "terms": [{"bos": [0, 1], "fer": [2, '
            '3], "coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}, '
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'false, "terms": [{"bos": [1, 0], "fer": [2, 3], "coeff": [{"q": '
            '[1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 2, "n": 2, "envelope": false, "terms": '
            '[{"bos": [0, 1], "fer": [1, 4], "coeff": [{"q": [1, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}, {"schema": "supertransform/1", "m": 2, '
            '"n": 2, "envelope": false, "terms": [{"bos": [1, 0], "fer": [1, '
            '4], "coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}, '
            '{"schema": "supertransform/1", "m": 2, "n": 2, "envelope": '
            'false, "terms": [{"bos": [0, 1], "fer": [2, 4], "coeff": [{"q": '
            '[1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 2, "n": 2, "envelope": false, "terms": '
            '[{"bos": [1, 0], "fer": [2, 4], "coeff": [{"q": [1, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}, {"schema": "supertransform/1", "m": 2, '
            '"n": 2, "envelope": false, "terms": [{"bos": [0, 3], "fer": [], '
            '"coeff": [{"q": [-2, 3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '1], "fer": [3, 4], "coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}, {"schema": "supertransform/1", "m": 2, "n": 2, '
            '"envelope": false, "terms": [{"bos": [1, 2], "fer": [], '
            '"coeff": [{"q": [-2, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1, '
            '0], "fer": [3, 4], "coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}, {"schema": "supertransform/1", "m": 2, "n": 2, '
            '"envelope": false, "terms": [{"bos": [0, 2], "fer": [3], '
            '"coeff": [{"q": [-2, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '0], "fer": [1, 2, 3], "coeff": [{"q": [1, 1, 0, 1], "b": 0, '
            '"eps": 0}]}]}, {"schema": "supertransform/1", "m": 2, "n": 2, '
            '"envelope": false, "terms": [{"bos": [0, 2], "fer": [4], '
            '"coeff": [{"q": [-2, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '0], "fer": [1, 2, 4], "coeff": [{"q": [1, 1, 0, 1], "b": 0, '
            '"eps": 0}]}]}, {"schema": "supertransform/1", "m": 2, "n": 2, '
            '"envelope": false, "terms": [{"bos": [0, 2], "fer": [1], '
            '"coeff": [{"q": [-2, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '0], "fer": [1, 3, 4], "coeff": [{"q": [1, 1, 0, 1], "b": 0, '
            '"eps": 0}]}]}, {"schema": "supertransform/1", "m": 2, "n": 2, '
            '"envelope": false, "terms": [{"bos": [0, 2], "fer": [2], '
            '"coeff": [{"q": [-2, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0, '
            '0], "fer": [2, 3, 4], "coeff": [{"q": [1, 1, 0, 1], "b": 0, '
            '"eps": 0}]}]}]}',
            'degree 3: dim nullspace 26, dim formula 26 [ok]',
        ),
    ),
    (1, 3, 0): (
        (
            'G',
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [0], "fer": [], "coeff": [{"q": [1, 1, '
            '0, 1], "b": 0, "eps": 0}]}]}',
            'e^{x^2/2}',
        ),
        (
            '-4*x1^2*G + 4*q1q2*G + 4*q3q4*G + 4*q5q6*G - 10*G',
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [], "coeff": [{"q": [-4, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 2], '
            '"coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], '
            '"fer": [3, 4], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0], "fer": [5, 6], "coeff": [{"q": [4, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0], "fer": [], "coeff": [{"q": '
            '[-10, 1, 0, 1], "b": 0, "eps": 0}]}]}',
            '-4 x_{1}^{2} e^{x^2/2} + 4 q_{1}q_{2} e^{x^2/2} + 4 q_{3}q_{4} '
            'e^{x^2/2} + 4 q_{5}q_{6} e^{x^2/2} - 10 e^{x^2/2}',
        ),
        (
            '16*x1^4*G - 32*x1^2*q1q2*G - 32*x1^2*q3q4*G - 32*x1^2*q5q6*G + '
            '32*q1q2q3q4*G + 32*q1q2q5q6*G + 32*q3q4q5q6*G + 48*x1^2*G - '
            '48*q1q2*G - 48*q3q4*G - 48*q5q6*G + 60*G',
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [], "coeff": [{"q": [16, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [1, 2], '
            '"coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2], "fer": [3, 4], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2], "fer": [5, 6], "coeff": [{"q": [-32, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 2, 3, '
            '4], "coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0], "fer": [1, 2, 5, 6], "coeff": [{"q": [32, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [0], "fer": [3, 4, 5, 6], "coeff": '
            '[{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": '
            '[], "coeff": [{"q": [48, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0], "fer": [1, 2], "coeff": [{"q": [-48, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0], "fer": [3, 4], "coeff": [{"q": [-48, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [5, 6], '
            '"coeff": [{"q": [-48, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0], "fer": [], "coeff": [{"q": [60, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}',
            '16 x_{1}^{4} e^{x^2/2} - 32 x_{1}^{2}q_{1}q_{2} e^{x^2/2} - 32 '
            'x_{1}^{2}q_{3}q_{4} e^{x^2/2} - 32 x_{1}^{2}q_{5}q_{6} e^{x^2/2'
            '} + 32 q_{1}q_{2}q_{3}q_{4} e^{x^2/2} + 32 q_{1}q_{2}q_{5}q_{6}'
            ' e^{x^2/2} + 32 q_{3}q_{4}q_{5}q_{6} e^{x^2/2} + 48 x_{1}^{2} e'
            '^{x^2/2} - 48 q_{1}q_{2} e^{x^2/2} - 48 q_{3}q_{4} e^{x^2/2} - '
            '48 q_{5}q_{6} e^{x^2/2} + 60 e^{x^2/2}',
        ),
        (
            'degree 0: dim nullspace 1, dim formula 1 [ok]',
            '{"k": 0, "dim_nullspace": 1, "dim_formula": 1, "dims_match": '
            'true, "product_failures": [], "products_harmonic": true, '
            '"schema": "supertransform/1", "basis": [{"schema": '
            '"supertransform/1", "m": 1, "n": 3, "envelope": false, "terms": '
            '[{"bos": [0], "fer": [], "coeff": [{"q": [1, 1, 0, 1], "b": 0, '
            '"eps": 0}]}]}]}',
            'degree 0: dim nullspace 1, dim formula 1 [ok]',
        ),
    ),
    (1, 3, 1): (
        (
            'x1*G\nq1*G\nq2*G\nq3*G\nq4*G\nq5*G\nq6*G',
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [1], "fer": [], "coeff": [{"q": [1, 1, '
            '0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [0], "fer": [1], "coeff": [{"q": [1, 1, '
            '0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [0], "fer": [2], "coeff": [{"q": [1, 1, '
            '0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [0], "fer": [3], "coeff": [{"q": [1, 1, '
            '0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [0], "fer": [4], "coeff": [{"q": [1, 1, '
            '0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [0], "fer": [5], "coeff": [{"q": [1, 1, '
            '0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [0], "fer": [6], "coeff": [{"q": [1, 1, '
            '0, 1], "b": 0, "eps": 0}]}]}',
            'x_{1} e^{x^2/2}\nq_{1} e^{x^2/2}\nq_{2} e^{x^2/2}\nq_{3} e^{x^2'
            '/2}\nq_{4} e^{x^2/2}\nq_{5} e^{x^2/2}\nq_{6} e^{x^2/2}',
        ),
        (
            '-4*x1^3*G + 4*x1*q1q2*G + 4*x1*q3q4*G + 4*x1*q5q6*G - 6*x1*G\n'
            '-4*x1^2*q1*G + 4*q1q3q4*G + 4*q1q5q6*G - 6*q1*G\n'
            '-4*x1^2*q2*G + 4*q2q3q4*G + 4*q2q5q6*G - 6*q2*G\n'
            '-4*x1^2*q3*G + 4*q1q2q3*G + 4*q3q5q6*G - 6*q3*G\n'
            '-4*x1^2*q4*G + 4*q1q2q4*G + 4*q4q5q6*G - 6*q4*G\n'
            '-4*x1^2*q5*G + 4*q1q2q5*G + 4*q3q4q5*G - 6*q5*G\n'
            '-4*x1^2*q6*G + 4*q1q2q6*G + 4*q3q4q6*G - 6*q6*G',
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [3], "fer": [], "coeff": [{"q": [-4, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [1, 2], '
            '"coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], '
            '"fer": [3, 4], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [1], "fer": [5, 6], "coeff": [{"q": [4, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [1], "fer": [], "coeff": [{"q": '
            '[-6, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [1], "coeff": [{"q": [-4, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 3, 4], '
            '"coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], '
            '"fer": [1, 5, 6], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0], "fer": [1], "coeff": [{"q": [-6, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [2], "coeff": [{"q": [-4, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [2, 3, 4], '
            '"coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], '
            '"fer": [2, 5, 6], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0], "fer": [2], "coeff": [{"q": [-6, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [3], "coeff": [{"q": [-4, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 2, 3], '
            '"coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], '
            '"fer": [3, 5, 6], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0], "fer": [3], "coeff": [{"q": [-6, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [4], "coeff": [{"q": [-4, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 2, 4], '
            '"coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], '
            '"fer": [4, 5, 6], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0], "fer": [4], "coeff": [{"q": [-6, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [5], "coeff": [{"q": [-4, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 2, 5], '
            '"coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], '
            '"fer": [3, 4, 5], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0], "fer": [5], "coeff": [{"q": [-6, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [6], "coeff": [{"q": [-4, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 2, 6], '
            '"coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], '
            '"fer": [3, 4, 6], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [0], "fer": [6], "coeff": [{"q": [-6, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}',
            '-4 x_{1}^{3} e^{x^2/2} + 4 x_{1}q_{1}q_{2} e^{x^2/2} + 4 x_{1}q'
            '_{3}q_{4} e^{x^2/2} + 4 x_{1}q_{5}q_{6} e^{x^2/2} - 6 x_{1} e^{'
            'x^2/2}\n-4 x_{1}^{2}q_{1} e^{x^2/2} + 4 q_{1}q_{3}q_{4} e^{x^2/'
            '2} + 4 q_{1}q_{5}q_{6} e^{x^2/2} - 6 q_{1} e^{x^2/2}\n-4 x_{1}^'
            '{2}q_{2} e^{x^2/2} + 4 q_{2}q_{3}q_{4} e^{x^2/2} + 4 q_{2}q_{5}'
            'q_{6} e^{x^2/2} - 6 q_{2} e^{x^2/2}\n-4 x_{1}^{2}q_{3} e^{x^2/2'
            '} + 4 q_{1}q_{2}q_{3} e^{x^2/2} + 4 q_{3}q_{5}q_{6} e^{x^2/2} -'
            ' 6 q_{3} e^{x^2/2}\n-4 x_{1}^{2}q_{4} e^{x^2/2} + 4 q_{1}q_{2}q'
            '_{4} e^{x^2/2} + 4 q_{4}q_{5}q_{6} e^{x^2/2} - 6 q_{4} e^{x^2/2'
            '}\n-4 x_{1}^{2}q_{5} e^{x^2/2} + 4 q_{1}q_{2}q_{5} e^{x^2/2} + '
            '4 q_{3}q_{4}q_{5} e^{x^2/2} - 6 q_{5} e^{x^2/2}\n-4 x_{1}^{2}q_'
            '{6} e^{x^2/2} + 4 q_{1}q_{2}q_{6} e^{x^2/2} + 4 q_{3}q_{4}q_{6}'
            ' e^{x^2/2} - 6 q_{6} e^{x^2/2}',
        ),
        (
            '16*x1^5*G - 32*x1^3*q1q2*G - 32*x1^3*q3q4*G - 32*x1^3*q5q6*G + '
            '32*x1*q1q2q3q4*G + 32*x1*q1q2q5q6*G + 32*x1*q3q4q5q6*G + '
            '16*x1^3*G - 16*x1*q1q2*G - 16*x1*q3q4*G - 16*x1*q5q6*G + '
            '12*x1*G\n'
            '16*x1^4*q1*G - 32*x1^2*q1q3q4*G - 32*x1^2*q1q5q6*G + '
            '32*q1q3q4q5q6*G + 16*x1^2*q1*G - 16*q1q3q4*G - 16*q1q5q6*G + '
            '12*q1*G\n'
            '16*x1^4*q2*G - 32*x1^2*q2q3q4*G - 32*x1^2*q2q5q6*G + '
            '32*q2q3q4q5q6*G + 16*x1^2*q2*G - 16*q2q3q4*G - 16*q2q5q6*G + '
            '12*q2*G\n'
            '16*x1^4*q3*G - 32*x1^2*q1q2q3*G - 32*x1^2*q3q5q6*G + '
            '32*q1q2q3q5q6*G + 16*x1^2*q3*G - 16*q1q2q3*G - 16*q3q5q6*G + '
            '12*q3*G\n'
            '16*x1^4*q4*G - 32*x1^2*q1q2q4*G - 32*x1^2*q4q5q6*G + '
            '32*q1q2q4q5q6*G + 16*x1^2*q4*G - 16*q1q2q4*G - 16*q4q5q6*G + '
            '12*q4*G\n'
            '16*x1^4*q5*G - 32*x1^2*q1q2q5*G - 32*x1^2*q3q4q5*G + '
            '32*q1q2q3q4q5*G + 16*x1^2*q5*G - 16*q1q2q5*G - 16*q3q4q5*G + '
            '12*q5*G\n'
            '16*x1^4*q6*G - 32*x1^2*q1q2q6*G - 32*x1^2*q3q4q6*G + '
            '32*q1q2q3q4q6*G + 16*x1^2*q6*G - 16*q1q2q6*G - 16*q3q4q6*G + '
            '12*q6*G',
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [5], "fer": [], "coeff": [{"q": [16, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [3], "fer": [1, 2], '
            '"coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[3], "fer": [3, 4], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [3], "fer": [5, 6], "coeff": [{"q": [-32, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [1, 2, 3, '
            '4], "coeff": [{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[1], "fer": [1, 2, 5, 6], "coeff": [{"q": [32, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [1], "fer": [3, 4, 5, 6], "coeff": '
            '[{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3], "fer": '
            '[], "coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[1], "fer": [1, 2], "coeff": [{"q": [-16, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [1], "fer": [3, 4], "coeff": [{"q": [-16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [5, 6], '
            '"coeff": [{"q": [-16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[1], "fer": [], "coeff": [{"q": [12, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [1], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [1, 3, 4], '
            '"coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2], "fer": [1, 5, 6], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0], "fer": [1, 3, 4, 5, 6], "coeff": '
            '[{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": '
            '[1], "coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0], "fer": [1, 3, 4], "coeff": [{"q": [-16, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 5, 6], "coeff": '
            '[{"q": [-16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": '
            '[1], "coeff": [{"q": [12, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [2], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [2, 3, 4], '
            '"coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2], "fer": [2, 5, 6], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0], "fer": [2, 3, 4, 5, 6], "coeff": '
            '[{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": '
            '[2], "coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0], "fer": [2, 3, 4], "coeff": [{"q": [-16, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0], "fer": [2, 5, 6], "coeff": '
            '[{"q": [-16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": '
            '[2], "coeff": [{"q": [12, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [3], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [1, 2, 3], '
            '"coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2], "fer": [3, 5, 6], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0], "fer": [1, 2, 3, 5, 6], "coeff": '
            '[{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": '
            '[3], "coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0], "fer": [1, 2, 3], "coeff": [{"q": [-16, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0], "fer": [3, 5, 6], "coeff": '
            '[{"q": [-16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": '
            '[3], "coeff": [{"q": [12, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [4], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [1, 2, 4], '
            '"coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2], "fer": [4, 5, 6], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0], "fer": [1, 2, 4, 5, 6], "coeff": '
            '[{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": '
            '[4], "coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0], "fer": [1, 2, 4], "coeff": [{"q": [-16, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0], "fer": [4, 5, 6], "coeff": '
            '[{"q": [-16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": '
            '[4], "coeff": [{"q": [12, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [5], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [1, 2, 5], '
            '"coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2], "fer": [3, 4, 5], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0], "fer": [1, 2, 3, 4, 5], "coeff": '
            '[{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": '
            '[5], "coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0], "fer": [1, 2, 5], "coeff": [{"q": [-16, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0], "fer": [3, 4, 5], "coeff": '
            '[{"q": [-16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": '
            '[5], "coeff": [{"q": [12, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [6], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [1, 2, 6], '
            '"coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2], "fer": [3, 4, 6], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0], "fer": [1, 2, 3, 4, 6], "coeff": '
            '[{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": '
            '[6], "coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0], "fer": [1, 2, 6], "coeff": [{"q": [-16, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0], "fer": [3, 4, 6], "coeff": '
            '[{"q": [-16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": '
            '[6], "coeff": [{"q": [12, 1, 0, 1], "b": 0, "eps": 0}]}]}',
            '16 x_{1}^{5} e^{x^2/2} - 32 x_{1}^{3}q_{1}q_{2} e^{x^2/2} - 32 '
            'x_{1}^{3}q_{3}q_{4} e^{x^2/2} - 32 x_{1}^{3}q_{5}q_{6} e^{x^2/2'
            '} + 32 x_{1}q_{1}q_{2}q_{3}q_{4} e^{x^2/2} + 32 x_{1}q_{1}q_{2}'
            'q_{5}q_{6} e^{x^2/2} + 32 x_{1}q_{3}q_{4}q_{5}q_{6} e^{x^2/2} +'
            ' 16 x_{1}^{3} e^{x^2/2} - 16 x_{1}q_{1}q_{2} e^{x^2/2} - 16 x_{'
            '1}q_{3}q_{4} e^{x^2/2} - 16 x_{1}q_{5}q_{6} e^{x^2/2} + 12 x_{1'
            '} e^{x^2/2}\n16 x_{1}^{4}q_{1} e^{x^2/2} - 32 x_{1}^{2}q_{1}q_{'
            '3}q_{4} e^{x^2/2} - 32 x_{1}^{2}q_{1}q_{5}q_{6} e^{x^2/2} + 32 '
            'q_{1}q_{3}q_{4}q_{5}q_{6} e^{x^2/2} + 16 x_{1}^{2}q_{1} e^{x^2/'
            '2} - 16 q_{1}q_{3}q_{4} e^{x^2/2} - 16 q_{1}q_{5}q_{6} e^{x^2/2'
            '} + 12 q_{1} e^{x^2/2}\n16 x_{1}^{4}q_{2} e^{x^2/2} - 32 x_{1}^'
            '{2}q_{2}q_{3}q_{4} e^{x^2/2} - 32 x_{1}^{2}q_{2}q_{5}q_{6} e^{x'
            '^2/2} + 32 q_{2}q_{3}q_{4}q_{5}q_{6} e^{x^2/2} + 16 x_{1}^{2}q_'
            '{2} e^{x^2/2} - 16 q_{2}q_{3}q_{4} e^{x^2/2} - 16 q_{2}q_{5}q_{'
            '6} e^{x^2/2} + 12 q_{2} e^{x^2/2}\n16 x_{1}^{4}q_{3} e^{x^2/2} '
            '- 32 x_{1}^{2}q_{1}q_{2}q_{3} e^{x^2/2} - 32 x_{1}^{2}q_{3}q_{5'
            '}q_{6} e^{x^2/2} + 32 q_{1}q_{2}q_{3}q_{5}q_{6} e^{x^2/2} + 16 '
            'x_{1}^{2}q_{3} e^{x^2/2} - 16 q_{1}q_{2}q_{3} e^{x^2/2} - 16 q_'
            '{3}q_{5}q_{6} e^{x^2/2} + 12 q_{3} e^{x^2/2}\n16 x_{1}^{4}q_{4}'
            ' e^{x^2/2} - 32 x_{1}^{2}q_{1}q_{2}q_{4} e^{x^2/2} - 32 x_{1}^{'
            '2}q_{4}q_{5}q_{6} e^{x^2/2} + 32 q_{1}q_{2}q_{4}q_{5}q_{6} e^{x'
            '^2/2} + 16 x_{1}^{2}q_{4} e^{x^2/2} - 16 q_{1}q_{2}q_{4} e^{x^2'
            '/2} - 16 q_{4}q_{5}q_{6} e^{x^2/2} + 12 q_{4} e^{x^2/2}\n16 x_{'
            '1}^{4}q_{5} e^{x^2/2} - 32 x_{1}^{2}q_{1}q_{2}q_{5} e^{x^2/2} -'
            ' 32 x_{1}^{2}q_{3}q_{4}q_{5} e^{x^2/2} + 32 q_{1}q_{2}q_{3}q_{4'
            '}q_{5} e^{x^2/2} + 16 x_{1}^{2}q_{5} e^{x^2/2} - 16 q_{1}q_{2}q'
            '_{5} e^{x^2/2} - 16 q_{3}q_{4}q_{5} e^{x^2/2} + 12 q_{5} e^{x^2'
            '/2}\n16 x_{1}^{4}q_{6} e^{x^2/2} - 32 x_{1}^{2}q_{1}q_{2}q_{6} '
            'e^{x^2/2} - 32 x_{1}^{2}q_{3}q_{4}q_{6} e^{x^2/2} + 32 q_{1}q_{'
            '2}q_{3}q_{4}q_{6} e^{x^2/2} + 16 x_{1}^{2}q_{6} e^{x^2/2} - 16 '
            'q_{1}q_{2}q_{6} e^{x^2/2} - 16 q_{3}q_{4}q_{6} e^{x^2/2} + 12 q'
            '_{6} e^{x^2/2}',
        ),
        (
            'degree 1: dim nullspace 7, dim formula 7 [ok]',
            '{"k": 1, "dim_nullspace": 7, "dim_formula": 7, "dims_match": '
            'true, "product_failures": [], "products_harmonic": true, '
            '"schema": "supertransform/1", "basis": [{"schema": '
            '"supertransform/1", "m": 1, "n": 3, "envelope": false, "terms": '
            '[{"bos": [1], "fer": [], "coeff": [{"q": [1, 1, 0, 1], "b": 0, '
            '"eps": 0}]}]}, {"schema": "supertransform/1", "m": 1, "n": 3, '
            '"envelope": false, "terms": [{"bos": [0], "fer": [1], "coeff": '
            '[{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 1, "n": 3, "envelope": false, "terms": '
            '[{"bos": [0], "fer": [2], "coeff": [{"q": [1, 1, 0, 1], "b": 0, '
            '"eps": 0}]}]}, {"schema": "supertransform/1", "m": 1, "n": 3, '
            '"envelope": false, "terms": [{"bos": [0], "fer": [3], "coeff": '
            '[{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 1, "n": 3, "envelope": false, "terms": '
            '[{"bos": [0], "fer": [4], "coeff": [{"q": [1, 1, 0, 1], "b": 0, '
            '"eps": 0}]}]}, {"schema": "supertransform/1", "m": 1, "n": 3, '
            '"envelope": false, "terms": [{"bos": [0], "fer": [5], "coeff": '
            '[{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 1, "n": 3, "envelope": false, "terms": '
            '[{"bos": [0], "fer": [6], "coeff": [{"q": [1, 1, 0, 1], "b": 0, '
            '"eps": 0}]}]}]}',
            'degree 1: dim nullspace 7, dim formula 7 [ok]',
        ),
    ),
    (1, 3, 2): (
        (
            'x1*q1*G\n'
            'x1*q2*G\n'
            'x1*q3*G\n'
            'x1*q4*G\n'
            'x1*q5*G\n'
            'x1*q6*G\n'
            '-2*x1^2*G + q1q2*G\n'
            'q1q3*G\n'
            'q2q3*G\n'
            'q1q4*G\n'
            'q2q4*G\n'
            '-2*x1^2*G + q3q4*G\n'
            'q1q5*G\n'
            'q2q5*G\n'
            'q3q5*G\n'
            'q4q5*G\nq1q6*G\nq2q6*G\nq3q6*G\nq4q6*G\n-2*x1^2*G + q5q6*G',
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [1], "fer": [1], "coeff": [{"q": [1, 1, '
            '0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [1], "fer": [2], "coeff": [{"q": [1, 1, '
            '0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [1], "fer": [3], "coeff": [{"q": [1, 1, '
            '0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [1], "fer": [4], "coeff": [{"q": [1, 1, '
            '0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [1], "fer": [5], "coeff": [{"q": [1, 1, '
            '0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [1], "fer": [6], "coeff": [{"q": [1, 1, '
            '0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [], "coeff": [{"q": [-2, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 2], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [0], "fer": [1, 3], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [0], "fer": [2, 3], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [0], "fer": [1, 4], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [0], "fer": [2, 4], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [], "coeff": [{"q": [-2, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [3, 4], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [0], "fer": [1, 5], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [0], "fer": [2, 5], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [0], "fer": [3, 5], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [0], "fer": [4, 5], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [0], "fer": [1, 6], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [0], "fer": [2, 6], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [0], "fer": [3, 6], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [0], "fer": [4, 6], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [], "coeff": [{"q": [-2, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [5, 6], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}',
            'x_{1}q_{1} e^{x^2/2}\nx_{1}q_{2} e^{x^2/2}\nx_{1}q_{3} e^{x^2/2'
            '}\nx_{1}q_{4} e^{x^2/2}\nx_{1}q_{5} e^{x^2/2}\nx_{1}q_{6} e^{x^'
            '2/2}\n-2 x_{1}^{2} e^{x^2/2} + q_{1}q_{2} e^{x^2/2}\nq_{1}q_{3}'
            ' e^{x^2/2}\nq_{2}q_{3} e^{x^2/2}\nq_{1}q_{4} e^{x^2/2}\nq_{2}q_'
            '{4} e^{x^2/2}\n-2 x_{1}^{2} e^{x^2/2} + q_{3}q_{4} e^{x^2/2}\nq'
            '_{1}q_{5} e^{x^2/2}\nq_{2}q_{5} e^{x^2/2}\nq_{3}q_{5} e^{x^2/2}'
            '\nq_{4}q_{5} e^{x^2/2}\nq_{1}q_{6} e^{x^2/2}\nq_{2}q_{6} e^{x^2'
            '/2}\nq_{3}q_{6} e^{x^2/2}\nq_{4}q_{6} e^{x^2/2}\n-2 x_{1}^{2} e'
            '^{x^2/2} + q_{5}q_{6} e^{x^2/2}',
        ),
        (
            '-4*x1^3*q1*G + 4*x1*q1q3q4*G + 4*x1*q1q5q6*G - 2*x1*q1*G\n'
            '-4*x1^3*q2*G + 4*x1*q2q3q4*G + 4*x1*q2q5q6*G - 2*x1*q2*G\n'
            '-4*x1^3*q3*G + 4*x1*q1q2q3*G + 4*x1*q3q5q6*G - 2*x1*q3*G\n'
            '-4*x1^3*q4*G + 4*x1*q1q2q4*G + 4*x1*q4q5q6*G - 2*x1*q4*G\n'
            '-4*x1^3*q5*G + 4*x1*q1q2q5*G + 4*x1*q3q4q5*G - 2*x1*q5*G\n'
            '-4*x1^3*q6*G + 4*x1*q1q2q6*G + 4*x1*q3q4q6*G - 2*x1*q6*G\n'
            '8*x1^4*G - 12*x1^2*q1q2*G - 8*x1^2*q3q4*G - 8*x1^2*q5q6*G + '
            '4*q1q2q3q4*G + 4*q1q2q5q6*G + 4*x1^2*G - 2*q1q2*G\n'
            '-4*x1^2*q1q3*G + 4*q1q3q5q6*G - 2*q1q3*G\n'
            '-4*x1^2*q2q3*G + 4*q2q3q5q6*G - 2*q2q3*G\n'
            '-4*x1^2*q1q4*G + 4*q1q4q5q6*G - 2*q1q4*G\n'
            '-4*x1^2*q2q4*G + 4*q2q4q5q6*G - 2*q2q4*G\n'
            '8*x1^4*G - 8*x1^2*q1q2*G - 12*x1^2*q3q4*G - 8*x1^2*q5q6*G + '
            '4*q1q2q3q4*G + 4*q3q4q5q6*G + 4*x1^2*G - 2*q3q4*G\n'
            '-4*x1^2*q1q5*G + 4*q1q3q4q5*G - 2*q1q5*G\n'
            '-4*x1^2*q2q5*G + 4*q2q3q4q5*G - 2*q2q5*G\n'
            '-4*x1^2*q3q5*G + 4*q1q2q3q5*G - 2*q3q5*G\n'
            '-4*x1^2*q4q5*G + 4*q1q2q4q5*G - 2*q4q5*G\n'
            '-4*x1^2*q1q6*G + 4*q1q3q4q6*G - 2*q1q6*G\n'
            '-4*x1^2*q2q6*G + 4*q2q3q4q6*G - 2*q2q6*G\n'
            '-4*x1^2*q3q6*G + 4*q1q2q3q6*G - 2*q3q6*G\n'
            '-4*x1^2*q4q6*G + 4*q1q2q4q6*G - 2*q4q6*G\n'
            '8*x1^4*G - 8*x1^2*q1q2*G - 8*x1^2*q3q4*G - 12*x1^2*q5q6*G + '
            '4*q1q2q5q6*G + 4*q3q4q5q6*G + 4*x1^2*G - 2*q5q6*G',
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [3], "fer": [1], "coeff": [{"q": [-4, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [1, 3, 4], '
            '"coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], '
            '"fer": [1, 5, 6], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [1], "fer": [1], "coeff": [{"q": [-2, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [3], "fer": [2], "coeff": [{"q": [-4, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [2, 3, 4], '
            '"coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], '
            '"fer": [2, 5, 6], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [1], "fer": [2], "coeff": [{"q": [-2, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [3], "fer": [3], "coeff": [{"q": [-4, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [1, 2, 3], '
            '"coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], '
            '"fer": [3, 5, 6], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [1], "fer": [3], "coeff": [{"q": [-2, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [3], "fer": [4], "coeff": [{"q": [-4, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [1, 2, 4], '
            '"coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], '
            '"fer": [4, 5, 6], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [1], "fer": [4], "coeff": [{"q": [-2, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [3], "fer": [5], "coeff": [{"q": [-4, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [1, 2, 5], '
            '"coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], '
            '"fer": [3, 4, 5], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [1], "fer": [5], "coeff": [{"q": [-2, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [3], "fer": [6], "coeff": [{"q": [-4, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [1, 2, 6], '
            '"coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], '
            '"fer": [3, 4, 6], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [1], "fer": [6], "coeff": [{"q": [-2, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [], "coeff": [{"q": [8, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [1, 2], '
            '"coeff": [{"q": [-12, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2], "fer": [3, 4], "coeff": [{"q": [-8, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2], "fer": [5, 6], "coeff": [{"q": [-8, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 2, 3, '
            '4], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0], "fer": [1, 2, 5, 6], "coeff": [{"q": [4, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2], "fer": [], "coeff": [{"q": [4, 1, 0, '
            '1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 2], "coeff": '
            '[{"q": [-2, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [1, 3], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 3, '
            '5, 6], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0], "fer": [1, 3], "coeff": [{"q": [-2, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [2, 3], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [2, 3, '
            '5, 6], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0], "fer": [2, 3], "coeff": [{"q": [-2, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [1, 4], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 4, '
            '5, 6], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0], "fer": [1, 4], "coeff": [{"q": [-2, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [2, 4], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [2, 4, '
            '5, 6], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0], "fer": [2, 4], "coeff": [{"q": [-2, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [], "coeff": [{"q": [8, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [1, 2], '
            '"coeff": [{"q": [-8, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2], "fer": [3, 4], "coeff": [{"q": [-12, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2], "fer": [5, 6], "coeff": [{"q": [-8, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 2, 3, '
            '4], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0], "fer": [3, 4, 5, 6], "coeff": [{"q": [4, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2], "fer": [], "coeff": [{"q": [4, 1, 0, '
            '1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [3, 4], "coeff": '
            '[{"q": [-2, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [1, 5], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 3, '
            '4, 5], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0], "fer": [1, 5], "coeff": [{"q": [-2, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [2, 5], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [2, 3, '
            '4, 5], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0], "fer": [2, 5], "coeff": [{"q": [-2, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [3, 5], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 2, '
            '3, 5], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0], "fer": [3, 5], "coeff": [{"q": [-2, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [4, 5], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 2, '
            '4, 5], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0], "fer": [4, 5], "coeff": [{"q": [-2, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [1, 6], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 3, '
            '4, 6], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0], "fer": [1, 6], "coeff": [{"q": [-2, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [2, 6], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [2, 3, '
            '4, 6], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0], "fer": [2, 6], "coeff": [{"q": [-2, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [3, 6], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 2, '
            '3, 6], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0], "fer": [3, 6], "coeff": [{"q": [-2, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [4, 6], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 2, '
            '4, 6], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0], "fer": [4, 6], "coeff": [{"q": [-2, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [], "coeff": [{"q": [8, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [1, 2], '
            '"coeff": [{"q": [-8, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2], "fer": [3, 4], "coeff": [{"q": [-8, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2], "fer": [5, 6], "coeff": [{"q": [-12, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 2, 5, '
            '6], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0], "fer": [3, 4, 5, 6], "coeff": [{"q": [4, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2], "fer": [], "coeff": [{"q": [4, 1, 0, '
            '1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [5, 6], "coeff": '
            '[{"q": [-2, 1, 0, 1], "b": 0, "eps": 0}]}]}',
            '-4 x_{1}^{3}q_{1} e^{x^2/2} + 4 x_{1}q_{1}q_{3}q_{4} e^{x^2/2} '
            '+ 4 x_{1}q_{1}q_{5}q_{6} e^{x^2/2} - 2 x_{1}q_{1} e^{x^2/2}\n-4'
            ' x_{1}^{3}q_{2} e^{x^2/2} + 4 x_{1}q_{2}q_{3}q_{4} e^{x^2/2} + '
            '4 x_{1}q_{2}q_{5}q_{6} e^{x^2/2} - 2 x_{1}q_{2} e^{x^2/2}\n-4 x'
            '_{1}^{3}q_{3} e^{x^2/2} + 4 x_{1}q_{1}q_{2}q_{3} e^{x^2/2} + 4 '
            'x_{1}q_{3}q_{5}q_{6} e^{x^2/2} - 2 x_{1}q_{3} e^{x^2/2}\n-4 x_{'
            '1}^{3}q_{4} e^{x^2/2} + 4 x_{1}q_{1}q_{2}q_{4} e^{x^2/2} + 4 x_'
            '{1}q_{4}q_{5}q_{6} e^{x^2/2} - 2 x_{1}q_{4} e^{x^2/2}\n-4 x_{1}'
            '^{3}q_{5} e^{x^2/2} + 4 x_{1}q_{1}q_{2}q_{5} e^{x^2/2} + 4 x_{1'
            '}q_{3}q_{4}q_{5} e^{x^2/2} - 2 x_{1}q_{5} e^{x^2/2}\n-4 x_{1}^{'
            '3}q_{6} e^{x^2/2} + 4 x_{1}q_{1}q_{2}q_{6} e^{x^2/2} + 4 x_{1}q'
            '_{3}q_{4}q_{6} e^{x^2/2} - 2 x_{1}q_{6} e^{x^2/2}\n8 x_{1}^{4} '
            'e^{x^2/2} - 12 x_{1}^{2}q_{1}q_{2} e^{x^2/2} - 8 x_{1}^{2}q_{3}'
            'q_{4} e^{x^2/2} - 8 x_{1}^{2}q_{5}q_{6} e^{x^2/2} + 4 q_{1}q_{2'
            '}q_{3}q_{4} e^{x^2/2} + 4 q_{1}q_{2}q_{5}q_{6} e^{x^2/2} + 4 x_'
            '{1}^{2} e^{x^2/2} - 2 q_{1}q_{2} e^{x^2/2}\n-4 x_{1}^{2}q_{1}q_'
            '{3} e^{x^2/2} + 4 q_{1}q_{3}q_{5}q_{6} e^{x^2/2} - 2 q_{1}q_{3}'
            ' e^{x^2/2}\n-4 x_{1}^{2}q_{2}q_{3} e^{x^2/2} + 4 q_{2}q_{3}q_{5'
            '}q_{6} e^{x^2/2} - 2 q_{2}q_{3} e^{x^2/2}\n-4 x_{1}^{2}q_{1}q_{'
            '4} e^{x^2/2} + 4 q_{1}q_{4}q_{5}q_{6} e^{x^2/2} - 2 q_{1}q_{4} '
            'e^{x^2/2}\n-4 x_{1}^{2}q_{2}q_{4} e^{x^2/2} + 4 q_{2}q_{4}q_{5}'
            'q_{6} e^{x^2/2} - 2 q_{2}q_{4} e^{x^2/2}\n8 x_{1}^{4} e^{x^2/2}'
            ' - 8 x_{1}^{2}q_{1}q_{2} e^{x^2/2} - 12 x_{1}^{2}q_{3}q_{4} e^{'
            'x^2/2} - 8 x_{1}^{2}q_{5}q_{6} e^{x^2/2} + 4 q_{1}q_{2}q_{3}q_{'
            '4} e^{x^2/2} + 4 q_{3}q_{4}q_{5}q_{6} e^{x^2/2} + 4 x_{1}^{2} e'
            '^{x^2/2} - 2 q_{3}q_{4} e^{x^2/2}\n-4 x_{1}^{2}q_{1}q_{5} e^{x^'
            '2/2} + 4 q_{1}q_{3}q_{4}q_{5} e^{x^2/2} - 2 q_{1}q_{5} e^{x^2/2'
            '}\n-4 x_{1}^{2}q_{2}q_{5} e^{x^2/2} + 4 q_{2}q_{3}q_{4}q_{5} e^'
            '{x^2/2} - 2 q_{2}q_{5} e^{x^2/2}\n-4 x_{1}^{2}q_{3}q_{5} e^{x^2'
            '/2} + 4 q_{1}q_{2}q_{3}q_{5} e^{x^2/2} - 2 q_{3}q_{5} e^{x^2/2}'
            '\n-4 x_{1}^{2}q_{4}q_{5} e^{x^2/2} + 4 q_{1}q_{2}q_{4}q_{5} e^{'
            'x^2/2} - 2 q_{4}q_{5} e^{x^2/2}\n-4 x_{1}^{2}q_{1}q_{6} e^{x^2/'
            '2} + 4 q_{1}q_{3}q_{4}q_{6} e^{x^2/2} - 2 q_{1}q_{6} e^{x^2/2}'
            '\n-4 x_{1}^{2}q_{2}q_{6} e^{x^2/2} + 4 q_{2}q_{3}q_{4}q_{6} e^{'
            'x^2/2} - 2 q_{2}q_{6} e^{x^2/2}\n-4 x_{1}^{2}q_{3}q_{6} e^{x^2/'
            '2} + 4 q_{1}q_{2}q_{3}q_{6} e^{x^2/2} - 2 q_{3}q_{6} e^{x^2/2}'
            '\n-4 x_{1}^{2}q_{4}q_{6} e^{x^2/2} + 4 q_{1}q_{2}q_{4}q_{6} e^{'
            'x^2/2} - 2 q_{4}q_{6} e^{x^2/2}\n8 x_{1}^{4} e^{x^2/2} - 8 x_{1'
            '}^{2}q_{1}q_{2} e^{x^2/2} - 8 x_{1}^{2}q_{3}q_{4} e^{x^2/2} - 1'
            '2 x_{1}^{2}q_{5}q_{6} e^{x^2/2} + 4 q_{1}q_{2}q_{5}q_{6} e^{x^2'
            '/2} + 4 q_{3}q_{4}q_{5}q_{6} e^{x^2/2} + 4 x_{1}^{2} e^{x^2/2} '
            '- 2 q_{5}q_{6} e^{x^2/2}',
        ),
        (
            '16*x1^5*q1*G - 32*x1^3*q1q3q4*G - 32*x1^3*q1q5q6*G + '
            '32*x1*q1q3q4q5q6*G - 16*x1^3*q1*G + 16*x1*q1q3q4*G + '
            '16*x1*q1q5q6*G - 4*x1*q1*G\n'
            '16*x1^5*q2*G - 32*x1^3*q2q3q4*G - 32*x1^3*q2q5q6*G + '
            '32*x1*q2q3q4q5q6*G - 16*x1^3*q2*G + 16*x1*q2q3q4*G + '
            '16*x1*q2q5q6*G - 4*x1*q2*G\n'
            '16*x1^5*q3*G - 32*x1^3*q1q2q3*G - 32*x1^3*q3q5q6*G + '
            '32*x1*q1q2q3q5q6*G - 16*x1^3*q3*G + 16*x1*q1q2q3*G + '
            '16*x1*q3q5q6*G - 4*x1*q3*G\n'
            '16*x1^5*q4*G - 32*x1^3*q1q2q4*G - 32*x1^3*q4q5q6*G + '
            '32*x1*q1q2q4q5q6*G - 16*x1^3*q4*G + 16*x1*q1q2q4*G + '
            '16*x1*q4q5q6*G - 4*x1*q4*G\n'
            '16*x1^5*q5*G - 32*x1^3*q1q2q5*G - 32*x1^3*q3q4q5*G + '
            '32*x1*q1q2q3q4q5*G - 16*x1^3*q5*G + 16*x1*q1q2q5*G + '
            '16*x1*q3q4q5*G - 4*x1*q5*G\n'
            '16*x1^5*q6*G - 32*x1^3*q1q2q6*G - 32*x1^3*q3q4q6*G + '
            '32*x1*q1q2q3q4q6*G - 16*x1^3*q6*G + 16*x1*q1q2q6*G + '
            '16*x1*q3q4q6*G - 4*x1*q6*G\n'
            '-32*x1^6*G + 80*x1^4*q1q2*G + 64*x1^4*q3q4*G + 64*x1^4*q5q6*G - '
            '96*x1^2*q1q2q3q4*G - 96*x1^2*q1q2q5q6*G - 64*x1^2*q3q4q5q6*G + '
            '32*q1q2q3q4q5q6*G + 32*x1^4*G - 48*x1^2*q1q2*G - 32*x1^2*q3q4*G '
            '- 32*x1^2*q5q6*G + 16*q1q2q3q4*G + 16*q1q2q5q6*G + 8*x1^2*G - '
            '4*q1q2*G\n'
            '16*x1^4*q1q3*G - 32*x1^2*q1q3q5q6*G - 16*x1^2*q1q3*G + '
            '16*q1q3q5q6*G - 4*q1q3*G\n'
            '16*x1^4*q2q3*G - 32*x1^2*q2q3q5q6*G - 16*x1^2*q2q3*G + '
            '16*q2q3q5q6*G - 4*q2q3*G\n'
            '16*x1^4*q1q4*G - 32*x1^2*q1q4q5q6*G - 16*x1^2*q1q4*G + '
            '16*q1q4q5q6*G - 4*q1q4*G\n'
            '16*x1^4*q2q4*G - 32*x1^2*q2q4q5q6*G - 16*x1^2*q2q4*G + '
            '16*q2q4q5q6*G - 4*q2q4*G\n'
            '-32*x1^6*G + 64*x1^4*q1q2*G + 80*x1^4*q3q4*G + 64*x1^4*q5q6*G - '
            '96*x1^2*q1q2q3q4*G - 64*x1^2*q1q2q5q6*G - 96*x1^2*q3q4q5q6*G + '
            '32*q1q2q3q4q5q6*G + 32*x1^4*G - 32*x1^2*q1q2*G - 48*x1^2*q3q4*G '
            '- 32*x1^2*q5q6*G + 16*q1q2q3q4*G + 16*q3q4q5q6*G + 8*x1^2*G - '
            '4*q3q4*G\n'
            '16*x1^4*q1q5*G - 32*x1^2*q1q3q4q5*G - 16*x1^2*q1q5*G + '
            '16*q1q3q4q5*G - 4*q1q5*G\n'
            '16*x1^4*q2q5*G - 32*x1^2*q2q3q4q5*G - 16*x1^2*q2q5*G + '
            '16*q2q3q4q5*G - 4*q2q5*G\n'
            '16*x1^4*q3q5*G - 32*x1^2*q1q2q3q5*G - 16*x1^2*q3q5*G + '
            '16*q1q2q3q5*G - 4*q3q5*G\n'
            '16*x1^4*q4q5*G - 32*x1^2*q1q2q4q5*G - 16*x1^2*q4q5*G + '
            '16*q1q2q4q5*G - 4*q4q5*G\n'
            '16*x1^4*q1q6*G - 32*x1^2*q1q3q4q6*G - 16*x1^2*q1q6*G + '
            '16*q1q3q4q6*G - 4*q1q6*G\n'
            '16*x1^4*q2q6*G - 32*x1^2*q2q3q4q6*G - 16*x1^2*q2q6*G + '
            '16*q2q3q4q6*G - 4*q2q6*G\n'
            '16*x1^4*q3q6*G - 32*x1^2*q1q2q3q6*G - 16*x1^2*q3q6*G + '
            '16*q1q2q3q6*G - 4*q3q6*G\n'
            '16*x1^4*q4q6*G - 32*x1^2*q1q2q4q6*G - 16*x1^2*q4q6*G + '
            '16*q1q2q4q6*G - 4*q4q6*G\n'
            '-32*x1^6*G + 64*x1^4*q1q2*G + 64*x1^4*q3q4*G + 80*x1^4*q5q6*G - '
            '64*x1^2*q1q2q3q4*G - 96*x1^2*q1q2q5q6*G - 96*x1^2*q3q4q5q6*G + '
            '32*q1q2q3q4q5q6*G + 32*x1^4*G - 32*x1^2*q1q2*G - 32*x1^2*q3q4*G '
            '- 48*x1^2*q5q6*G + 16*q1q2q5q6*G + 16*q3q4q5q6*G + 8*x1^2*G - '
            '4*q5q6*G',
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [5], "fer": [1], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3], "fer": [1, 3, 4], '
            '"coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[3], "fer": [1, 5, 6], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [1], "fer": [1, 3, 4, 5, 6], "coeff": '
            '[{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3], "fer": '
            '[1], "coeff": [{"q": [-16, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [1], "fer": [1, 3, 4], "coeff": [{"q": [16, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [1], "fer": [1, 5, 6], "coeff": '
            '[{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": '
            '[1], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [5], "fer": [2], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3], "fer": [2, 3, 4], '
            '"coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[3], "fer": [2, 5, 6], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [1], "fer": [2, 3, 4, 5, 6], "coeff": '
            '[{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3], "fer": '
            '[2], "coeff": [{"q": [-16, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [1], "fer": [2, 3, 4], "coeff": [{"q": [16, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [1], "fer": [2, 5, 6], "coeff": '
            '[{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": '
            '[2], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [5], "fer": [3], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3], "fer": [1, 2, 3], '
            '"coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[3], "fer": [3, 5, 6], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [1], "fer": [1, 2, 3, 5, 6], "coeff": '
            '[{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3], "fer": '
            '[3], "coeff": [{"q": [-16, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [1], "fer": [1, 2, 3], "coeff": [{"q": [16, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [1], "fer": [3, 5, 6], "coeff": '
            '[{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": '
            '[3], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [5], "fer": [4], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3], "fer": [1, 2, 4], '
            '"coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[3], "fer": [4, 5, 6], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [1], "fer": [1, 2, 4, 5, 6], "coeff": '
            '[{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3], "fer": '
            '[4], "coeff": [{"q": [-16, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [1], "fer": [1, 2, 4], "coeff": [{"q": [16, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [1], "fer": [4, 5, 6], "coeff": '
            '[{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": '
            '[4], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [5], "fer": [5], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3], "fer": [1, 2, 5], '
            '"coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[3], "fer": [3, 4, 5], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [1], "fer": [1, 2, 3, 4, 5], "coeff": '
            '[{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3], "fer": '
            '[5], "coeff": [{"q": [-16, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [1], "fer": [1, 2, 5], "coeff": [{"q": [16, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [1], "fer": [3, 4, 5], "coeff": '
            '[{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": '
            '[5], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [5], "fer": [6], "coeff": [{"q": [16, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3], "fer": [1, 2, 6], '
            '"coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[3], "fer": [3, 4, 6], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [1], "fer": [1, 2, 3, 4, 6], "coeff": '
            '[{"q": [32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3], "fer": '
            '[6], "coeff": [{"q": [-16, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [1], "fer": [1, 2, 6], "coeff": [{"q": [16, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [1], "fer": [3, 4, 6], "coeff": '
            '[{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": '
            '[6], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [6], "fer": [], "coeff": [{"q": [-32, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4], "fer": [1, 2], '
            '"coeff": [{"q": [80, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[4], "fer": [3, 4], "coeff": [{"q": [64, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [4], "fer": [5, 6], "coeff": [{"q": [64, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [1, 2, 3, '
            '4], "coeff": [{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2], "fer": [1, 2, 5, 6], "coeff": [{"q": [-96, 1, 0, '
            '1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [3, 4, 5, 6], '
            '"coeff": [{"q": [-64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0], "fer": [1, 2, 3, 4, 5, 6], "coeff": [{"q": [32, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [4], "fer": [], "coeff": [{"q": '
            '[32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [1, 2], '
            '"coeff": [{"q": [-48, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2], "fer": [3, 4], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2], "fer": [5, 6], "coeff": [{"q": [-32, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 2, 3, '
            '4], "coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0], "fer": [1, 2, 5, 6], "coeff": [{"q": [16, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [2], "fer": [], "coeff": [{"q": [8, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 2], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [1, 3], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [1, 3, '
            '5, 6], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2], "fer": [1, 3], "coeff": [{"q": [-16, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 3, 5, 6], "coeff": '
            '[{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": '
            '[1, 3], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [2, 3], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [2, 3, '
            '5, 6], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2], "fer": [2, 3], "coeff": [{"q": [-16, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0], "fer": [2, 3, 5, 6], "coeff": '
            '[{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": '
            '[2, 3], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [1, 4], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [1, 4, '
            '5, 6], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2], "fer": [1, 4], "coeff": [{"q": [-16, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 4, 5, 6], "coeff": '
            '[{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": '
            '[1, 4], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [2, 4], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [2, 4, '
            '5, 6], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2], "fer": [2, 4], "coeff": [{"q": [-16, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0], "fer": [2, 4, 5, 6], "coeff": '
            '[{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": '
            '[2, 4], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [6], "fer": [], "coeff": [{"q": [-32, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4], "fer": [1, 2], '
            '"coeff": [{"q": [64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[4], "fer": [3, 4], "coeff": [{"q": [80, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [4], "fer": [5, 6], "coeff": [{"q": [64, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [1, 2, 3, '
            '4], "coeff": [{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2], "fer": [1, 2, 5, 6], "coeff": [{"q": [-64, 1, 0, '
            '1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [3, 4, 5, 6], '
            '"coeff": [{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0], "fer": [1, 2, 3, 4, 5, 6], "coeff": [{"q": [32, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [4], "fer": [], "coeff": [{"q": '
            '[32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [1, 2], '
            '"coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2], "fer": [3, 4], "coeff": [{"q": [-48, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2], "fer": [5, 6], "coeff": [{"q": [-32, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 2, 3, '
            '4], "coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0], "fer": [3, 4, 5, 6], "coeff": [{"q": [16, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [2], "fer": [], "coeff": [{"q": [8, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [3, 4], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [1, 5], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [1, 3, '
            '4, 5], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2], "fer": [1, 5], "coeff": [{"q": [-16, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 3, 4, 5], "coeff": '
            '[{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": '
            '[1, 5], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [2, 5], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [2, 3, '
            '4, 5], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2], "fer": [2, 5], "coeff": [{"q": [-16, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0], "fer": [2, 3, 4, 5], "coeff": '
            '[{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": '
            '[2, 5], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [3, 5], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [1, 2, '
            '3, 5], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2], "fer": [3, 5], "coeff": [{"q": [-16, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 2, 3, 5], "coeff": '
            '[{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": '
            '[3, 5], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [4, 5], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [1, 2, '
            '4, 5], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2], "fer": [4, 5], "coeff": [{"q": [-16, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 2, 4, 5], "coeff": '
            '[{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": '
            '[4, 5], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [1, 6], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [1, 3, '
            '4, 6], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2], "fer": [1, 6], "coeff": [{"q": [-16, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 3, 4, 6], "coeff": '
            '[{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": '
            '[1, 6], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [2, 6], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [2, 3, '
            '4, 6], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2], "fer": [2, 6], "coeff": [{"q": [-16, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0], "fer": [2, 3, 4, 6], "coeff": '
            '[{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": '
            '[2, 6], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [3, 6], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [1, 2, '
            '3, 6], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2], "fer": [3, 6], "coeff": [{"q": [-16, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 2, 3, 6], "coeff": '
            '[{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": '
            '[3, 6], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [4, 6], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [1, 2, '
            '4, 6], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2], "fer": [4, 6], "coeff": [{"q": [-16, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 2, 4, 6], "coeff": '
            '[{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": '
            '[4, 6], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [6], "fer": [], "coeff": [{"q": [-32, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4], "fer": [1, 2], '
            '"coeff": [{"q": [64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[4], "fer": [3, 4], "coeff": [{"q": [64, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [4], "fer": [5, 6], "coeff": [{"q": [80, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [1, 2, 3, '
            '4], "coeff": [{"q": [-64, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2], "fer": [1, 2, 5, 6], "coeff": [{"q": [-96, 1, 0, '
            '1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [3, 4, 5, 6], '
            '"coeff": [{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0], "fer": [1, 2, 3, 4, 5, 6], "coeff": [{"q": [32, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [4], "fer": [], "coeff": [{"q": '
            '[32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [1, 2], '
            '"coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2], "fer": [3, 4], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2], "fer": [5, 6], "coeff": [{"q": [-48, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 2, 5, '
            '6], "coeff": [{"q": [16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0], "fer": [3, 4, 5, 6], "coeff": [{"q": [16, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [2], "fer": [], "coeff": [{"q": [8, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [5, 6], '
            '"coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}]}',
            '16 x_{1}^{5}q_{1} e^{x^2/2} - 32 x_{1}^{3}q_{1}q_{3}q_{4} e^{x^'
            '2/2} - 32 x_{1}^{3}q_{1}q_{5}q_{6} e^{x^2/2} + 32 x_{1}q_{1}q_{'
            '3}q_{4}q_{5}q_{6} e^{x^2/2} - 16 x_{1}^{3}q_{1} e^{x^2/2} + 16 '
            'x_{1}q_{1}q_{3}q_{4} e^{x^2/2} + 16 x_{1}q_{1}q_{5}q_{6} e^{x^2'
            '/2} - 4 x_{1}q_{1} e^{x^2/2}\n16 x_{1}^{5}q_{2} e^{x^2/2} - 32 '
            'x_{1}^{3}q_{2}q_{3}q_{4} e^{x^2/2} - 32 x_{1}^{3}q_{2}q_{5}q_{6'
            '} e^{x^2/2} + 32 x_{1}q_{2}q_{3}q_{4}q_{5}q_{6} e^{x^2/2} - 16 '
            'x_{1}^{3}q_{2} e^{x^2/2} + 16 x_{1}q_{2}q_{3}q_{4} e^{x^2/2} + '
            '16 x_{1}q_{2}q_{5}q_{6} e^{x^2/2} - 4 x_{1}q_{2} e^{x^2/2}\n16 '
            'x_{1}^{5}q_{3} e^{x^2/2} - 32 x_{1}^{3}q_{1}q_{2}q_{3} e^{x^2/2'
            '} - 32 x_{1}^{3}q_{3}q_{5}q_{6} e^{x^2/2} + 32 x_{1}q_{1}q_{2}q'
            '_{3}q_{5}q_{6} e^{x^2/2} - 16 x_{1}^{3}q_{3} e^{x^2/2} + 16 x_{'
            '1}q_{1}q_{2}q_{3} e^{x^2/2} + 16 x_{1}q_{3}q_{5}q_{6} e^{x^2/2}'
            ' - 4 x_{1}q_{3} e^{x^2/2}\n16 x_{1}^{5}q_{4} e^{x^2/2} - 32 x_{'
            '1}^{3}q_{1}q_{2}q_{4} e^{x^2/2} - 32 x_{1}^{3}q_{4}q_{5}q_{6} e'
            '^{x^2/2} + 32 x_{1}q_{1}q_{2}q_{4}q_{5}q_{6} e^{x^2/2} - 16 x_{'
            '1}^{3}q_{4} e^{x^2/2} + 16 x_{1}q_{1}q_{2}q_{4} e^{x^2/2} + 16 '
            'x_{1}q_{4}q_{5}q_{6} e^{x^2/2} - 4 x_{1}q_{4} e^{x^2/2}\n16 x_{'
            '1}^{5}q_{5} e^{x^2/2} - 32 x_{1}^{3}q_{1}q_{2}q_{5} e^{x^2/2} -'
            ' 32 x_{1}^{3}q_{3}q_{4}q_{5} e^{x^2/2} + 32 x_{1}q_{1}q_{2}q_{3'
            '}q_{4}q_{5} e^{x^2/2} - 16 x_{1}^{3}q_{5} e^{x^2/2} + 16 x_{1}q'
            '_{1}q_{2}q_{5} e^{x^2/2} + 16 x_{1}q_{3}q_{4}q_{5} e^{x^2/2} - '
            '4 x_{1}q_{5} e^{x^2/2}\n16 x_{1}^{5}q_{6} e^{x^2/2} - 32 x_{1}^'
            '{3}q_{1}q_{2}q_{6} e^{x^2/2} - 32 x_{1}^{3}q_{3}q_{4}q_{6} e^{x'
            '^2/2} + 32 x_{1}q_{1}q_{2}q_{3}q_{4}q_{6} e^{x^2/2} - 16 x_{1}^'
            '{3}q_{6} e^{x^2/2} + 16 x_{1}q_{1}q_{2}q_{6} e^{x^2/2} + 16 x_{'
            '1}q_{3}q_{4}q_{6} e^{x^2/2} - 4 x_{1}q_{6} e^{x^2/2}\n-32 x_{1}'
            '^{6} e^{x^2/2} + 80 x_{1}^{4}q_{1}q_{2} e^{x^2/2} + 64 x_{1}^{4'
            '}q_{3}q_{4} e^{x^2/2} + 64 x_{1}^{4}q_{5}q_{6} e^{x^2/2} - 96 x'
            '_{1}^{2}q_{1}q_{2}q_{3}q_{4} e^{x^2/2} - 96 x_{1}^{2}q_{1}q_{2}'
            'q_{5}q_{6} e^{x^2/2} - 64 x_{1}^{2}q_{3}q_{4}q_{5}q_{6} e^{x^2/'
            '2} + 32 q_{1}q_{2}q_{3}q_{4}q_{5}q_{6} e^{x^2/2} + 32 x_{1}^{4}'
            ' e^{x^2/2} - 48 x_{1}^{2}q_{1}q_{2} e^{x^2/2} - 32 x_{1}^{2}q_{'
            '3}q_{4} e^{x^2/2} - 32 x_{1}^{2}q_{5}q_{6} e^{x^2/2} + 16 q_{1}'
            'q_{2}q_{3}q_{4} e^{x^2/2} + 16 q_{1}q_{2}q_{5}q_{6} e^{x^2/2} +'
            ' 8 x_{1}^{2} e^{x^2/2} - 4 q_{1}q_{2} e^{x^2/2}\n16 x_{1}^{4}q_'
            '{1}q_{3} e^{x^2/2} - 32 x_{1}^{2}q_{1}q_{3}q_{5}q_{6} e^{x^2/2}'
            ' - 16 x_{1}^{2}q_{1}q_{3} e^{x^2/2} + 16 q_{1}q_{3}q_{5}q_{6} e'
            '^{x^2/2} - 4 q_{1}q_{3} e^{x^2/2}\n16 x_{1}^{4}q_{2}q_{3} e^{x^'
            '2/2} - 32 x_{1}^{2}q_{2}q_{3}q_{5}q_{6} e^{x^2/2} - 16 x_{1}^{2'
            '}q_{2}q_{3} e^{x^2/2} + 16 q_{2}q_{3}q_{5}q_{6} e^{x^2/2} - 4 q'
            '_{2}q_{3} e^{x^2/2}\n16 x_{1}^{4}q_{1}q_{4} e^{x^2/2} - 32 x_{1'
            '}^{2}q_{1}q_{4}q_{5}q_{6} e^{x^2/2} - 16 x_{1}^{2}q_{1}q_{4} e^'
            '{x^2/2} + 16 q_{1}q_{4}q_{5}q_{6} e^{x^2/2} - 4 q_{1}q_{4} e^{x'
            '^2/2}\n16 x_{1}^{4}q_{2}q_{4} e^{x^2/2} - 32 x_{1}^{2}q_{2}q_{4'
            '}q_{5}q_{6} e^{x^2/2} - 16 x_{1}^{2}q_{2}q_{4} e^{x^2/2} + 16 q'
            '_{2}q_{4}q_{5}q_{6} e^{x^2/2} - 4 q_{2}q_{4} e^{x^2/2}\n-32 x_{'
            '1}^{6} e^{x^2/2} + 64 x_{1}^{4}q_{1}q_{2} e^{x^2/2} + 80 x_{1}^'
            '{4}q_{3}q_{4} e^{x^2/2} + 64 x_{1}^{4}q_{5}q_{6} e^{x^2/2} - 96'
            ' x_{1}^{2}q_{1}q_{2}q_{3}q_{4} e^{x^2/2} - 64 x_{1}^{2}q_{1}q_{'
            '2}q_{5}q_{6} e^{x^2/2} - 96 x_{1}^{2}q_{3}q_{4}q_{5}q_{6} e^{x^'
            '2/2} + 32 q_{1}q_{2}q_{3}q_{4}q_{5}q_{6} e^{x^2/2} + 32 x_{1}^{'
            '4} e^{x^2/2} - 32 x_{1}^{2}q_{1}q_{2} e^{x^2/2} - 48 x_{1}^{2}q'
            '_{3}q_{4} e^{x^2/2} - 32 x_{1}^{2}q_{5}q_{6} e^{x^2/2} + 16 q_{'
            '1}q_{2}q_{3}q_{4} e^{x^2/2} + 16 q_{3}q_{4}q_{5}q_{6} e^{x^2/2}'
            ' + 8 x_{1}^{2} e^{x^2/2} - 4 q_{3}q_{4} e^{x^2/2}\n16 x_{1}^{4}'
            'q_{1}q_{5} e^{x^2/2} - 32 x_{1}^{2}q_{1}q_{3}q_{4}q_{5} e^{x^2/'
            '2} - 16 x_{1}^{2}q_{1}q_{5} e^{x^2/2} + 16 q_{1}q_{3}q_{4}q_{5}'
            ' e^{x^2/2} - 4 q_{1}q_{5} e^{x^2/2}\n16 x_{1}^{4}q_{2}q_{5} e^{'
            'x^2/2} - 32 x_{1}^{2}q_{2}q_{3}q_{4}q_{5} e^{x^2/2} - 16 x_{1}^'
            '{2}q_{2}q_{5} e^{x^2/2} + 16 q_{2}q_{3}q_{4}q_{5} e^{x^2/2} - 4'
            ' q_{2}q_{5} e^{x^2/2}\n16 x_{1}^{4}q_{3}q_{5} e^{x^2/2} - 32 x_'
            '{1}^{2}q_{1}q_{2}q_{3}q_{5} e^{x^2/2} - 16 x_{1}^{2}q_{3}q_{5} '
            'e^{x^2/2} + 16 q_{1}q_{2}q_{3}q_{5} e^{x^2/2} - 4 q_{3}q_{5} e^'
            '{x^2/2}\n16 x_{1}^{4}q_{4}q_{5} e^{x^2/2} - 32 x_{1}^{2}q_{1}q_'
            '{2}q_{4}q_{5} e^{x^2/2} - 16 x_{1}^{2}q_{4}q_{5} e^{x^2/2} + 16'
            ' q_{1}q_{2}q_{4}q_{5} e^{x^2/2} - 4 q_{4}q_{5} e^{x^2/2}\n16 x_'
            '{1}^{4}q_{1}q_{6} e^{x^2/2} - 32 x_{1}^{2}q_{1}q_{3}q_{4}q_{6} '
            'e^{x^2/2} - 16 x_{1}^{2}q_{1}q_{6} e^{x^2/2} + 16 q_{1}q_{3}q_{'
            '4}q_{6} e^{x^2/2} - 4 q_{1}q_{6} e^{x^2/2}\n16 x_{1}^{4}q_{2}q_'
            '{6} e^{x^2/2} - 32 x_{1}^{2}q_{2}q_{3}q_{4}q_{6} e^{x^2/2} - 16'
            ' x_{1}^{2}q_{2}q_{6} e^{x^2/2} + 16 q_{2}q_{3}q_{4}q_{6} e^{x^2'
            '/2} - 4 q_{2}q_{6} e^{x^2/2}\n16 x_{1}^{4}q_{3}q_{6} e^{x^2/2} '
            '- 32 x_{1}^{2}q_{1}q_{2}q_{3}q_{6} e^{x^2/2} - 16 x_{1}^{2}q_{3'
            '}q_{6} e^{x^2/2} + 16 q_{1}q_{2}q_{3}q_{6} e^{x^2/2} - 4 q_{3}q'
            '_{6} e^{x^2/2}\n16 x_{1}^{4}q_{4}q_{6} e^{x^2/2} - 32 x_{1}^{2}'
            'q_{1}q_{2}q_{4}q_{6} e^{x^2/2} - 16 x_{1}^{2}q_{4}q_{6} e^{x^2/'
            '2} + 16 q_{1}q_{2}q_{4}q_{6} e^{x^2/2} - 4 q_{4}q_{6} e^{x^2/2}'
            '\n-32 x_{1}^{6} e^{x^2/2} + 64 x_{1}^{4}q_{1}q_{2} e^{x^2/2} + '
            '64 x_{1}^{4}q_{3}q_{4} e^{x^2/2} + 80 x_{1}^{4}q_{5}q_{6} e^{x^'
            '2/2} - 64 x_{1}^{2}q_{1}q_{2}q_{3}q_{4} e^{x^2/2} - 96 x_{1}^{2'
            '}q_{1}q_{2}q_{5}q_{6} e^{x^2/2} - 96 x_{1}^{2}q_{3}q_{4}q_{5}q_'
            '{6} e^{x^2/2} + 32 q_{1}q_{2}q_{3}q_{4}q_{5}q_{6} e^{x^2/2} + 3'
            '2 x_{1}^{4} e^{x^2/2} - 32 x_{1}^{2}q_{1}q_{2} e^{x^2/2} - 32 x'
            '_{1}^{2}q_{3}q_{4} e^{x^2/2} - 48 x_{1}^{2}q_{5}q_{6} e^{x^2/2}'
            ' + 16 q_{1}q_{2}q_{5}q_{6} e^{x^2/2} + 16 q_{3}q_{4}q_{5}q_{6} '
            'e^{x^2/2} + 8 x_{1}^{2} e^{x^2/2} - 4 q_{5}q_{6} e^{x^2/2}',
        ),
        (
            'degree 2: dim nullspace 21, dim formula 21 [ok]',
            '{"k": 2, "dim_nullspace": 21, "dim_formula": 21, "dims_match": '
            'true, "product_failures": [], "products_harmonic": true, '
            '"schema": "supertransform/1", "basis": [{"schema": '
            '"supertransform/1", "m": 1, "n": 3, "envelope": false, "terms": '
            '[{"bos": [1], "fer": [1], "coeff": [{"q": [1, 1, 0, 1], "b": 0, '
            '"eps": 0}]}]}, {"schema": "supertransform/1", "m": 1, "n": 3, '
            '"envelope": false, "terms": [{"bos": [1], "fer": [2], "coeff": '
            '[{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 1, "n": 3, "envelope": false, "terms": '
            '[{"bos": [1], "fer": [3], "coeff": [{"q": [1, 1, 0, 1], "b": 0, '
            '"eps": 0}]}]}, {"schema": "supertransform/1", "m": 1, "n": 3, '
            '"envelope": false, "terms": [{"bos": [1], "fer": [4], "coeff": '
            '[{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 1, "n": 3, "envelope": false, "terms": '
            '[{"bos": [1], "fer": [5], "coeff": [{"q": [1, 1, 0, 1], "b": 0, '
            '"eps": 0}]}]}, {"schema": "supertransform/1", "m": 1, "n": 3, '
            '"envelope": false, "terms": [{"bos": [1], "fer": [6], "coeff": '
            '[{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 1, "n": 3, "envelope": false, "terms": '
            '[{"bos": [2], "fer": [], "coeff": [{"q": [-2, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0], "fer": [1, 2], "coeff": [{"q": [1, 1, '
            '0, 1], "b": 0, "eps": 0}]}]}, {"schema": "supertransform/1", '
            '"m": 1, "n": 3, "envelope": false, "terms": [{"bos": [0], '
            '"fer": [1, 3], "coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}, {"schema": "supertransform/1", "m": 1, "n": 3, '
            '"envelope": false, "terms": [{"bos": [0], "fer": [2, 3], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 1, "n": 3, "envelope": false, "terms": '
            '[{"bos": [0], "fer": [1, 4], "coeff": [{"q": [1, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}, {"schema": "supertransform/1", "m": 1, "n": '
            '3, "envelope": false, "terms": [{"bos": [0], "fer": [2, 4], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 1, "n": 3, "envelope": false, "terms": '
            '[{"bos": [2], "fer": [], "coeff": [{"q": [-2, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0], "fer": [3, 4], "coeff": [{"q": [1, 1, '
            '0, 1], "b": 0, "eps": 0}]}]}, {"schema": "supertransform/1", '
            '"m": 1, "n": 3, "envelope": false, "terms": [{"bos": [0], '
            '"fer": [1, 5], "coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}, {"schema": "supertransform/1", "m": 1, "n": 3, '
            '"envelope": false, "terms": [{"bos": [0], "fer": [2, 5], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 1, "n": 3, "envelope": false, "terms": '
            '[{"bos": [0], "fer": [3, 5], "coeff": [{"q": [1, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}, {"schema": "supertransform/1", "m": 1, "n": '
            '3, "envelope": false, "terms": [{"bos": [0], "fer": [4, 5], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 1, "n": 3, "envelope": false, "terms": '
            '[{"bos": [0], "fer": [1, 6], "coeff": [{"q": [1, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}, {"schema": "supertransform/1", "m": 1, "n": '
            '3, "envelope": false, "terms": [{"bos": [0], "fer": [2, 6], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 1, "n": 3, "envelope": false, "terms": '
            '[{"bos": [0], "fer": [3, 6], "coeff": [{"q": [1, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}, {"schema": "supertransform/1", "m": 1, "n": '
            '3, "envelope": false, "terms": [{"bos": [0], "fer": [4, 6], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 1, "n": 3, "envelope": false, "terms": '
            '[{"bos": [2], "fer": [], "coeff": [{"q": [-2, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0], "fer": [5, 6], "coeff": [{"q": [1, 1, '
            '0, 1], "b": 0, "eps": 0}]}]}]}',
            'degree 2: dim nullspace 21, dim formula 21 [ok]',
        ),
    ),
    (1, 3, 3): (
        (
            '-2/3*x1^3*G + x1*q1q2*G\n'
            'x1*q1q3*G\n'
            'x1*q2q3*G\n'
            'x1*q1q4*G\n'
            'x1*q2q4*G\n'
            '-2/3*x1^3*G + x1*q3q4*G\n'
            'x1*q1q5*G\n'
            'x1*q2q5*G\n'
            'x1*q3q5*G\n'
            'x1*q4q5*G\n'
            'x1*q1q6*G\n'
            'x1*q2q6*G\n'
            'x1*q3q6*G\n'
            'x1*q4q6*G\n'
            '-2/3*x1^3*G + x1*q5q6*G\n'
            '-2*x1^2*q3*G + q1q2q3*G\n'
            '-2*x1^2*q4*G + q1q2q4*G\n'
            '-2*x1^2*q1*G + q1q3q4*G\n'
            '-2*x1^2*q2*G + q2q3q4*G\n'
            '-2*x1^2*q5*G + q1q2q5*G\n'
            'q1q3q5*G\n'
            'q2q3q5*G\n'
            'q1q4q5*G\n'
            'q2q4q5*G\n'
            '-2*x1^2*q5*G + q3q4q5*G\n'
            '-2*x1^2*q6*G + q1q2q6*G\n'
            'q1q3q6*G\n'
            'q2q3q6*G\n'
            'q1q4q6*G\n'
            'q2q4q6*G\n'
            '-2*x1^2*q6*G + q3q4q6*G\n'
            '-2*x1^2*q1*G + q1q5q6*G\n'
            '-2*x1^2*q2*G + q2q5q6*G\n'
            '-2*x1^2*q3*G + q3q5q6*G\n-2*x1^2*q4*G + q4q5q6*G',
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [3], "fer": [], "coeff": [{"q": [-2, 3, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [1, 2], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [1], "fer": [1, 3], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [1], "fer": [2, 3], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [1], "fer": [1, 4], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [1], "fer": [2, 4], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [3], "fer": [], "coeff": [{"q": [-2, 3, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [3, 4], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [1], "fer": [1, 5], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [1], "fer": [2, 5], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [1], "fer": [3, 5], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [1], "fer": [4, 5], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [1], "fer": [1, 6], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [1], "fer": [2, 6], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [1], "fer": [3, 6], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [1], "fer": [4, 6], "coeff": [{"q": [1, '
            '1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [3], "fer": [], "coeff": [{"q": [-2, 3, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [5, 6], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [3], "coeff": [{"q": [-2, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 2, 3], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [4], "coeff": [{"q": [-2, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 2, 4], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [1], "coeff": [{"q": [-2, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 3, 4], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [2], "coeff": [{"q": [-2, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [2, 3, 4], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [5], "coeff": [{"q": [-2, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 2, 5], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [0], "fer": [1, 3, 5], "coeff": [{"q": '
            '[1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [0], "fer": [2, 3, 5], "coeff": [{"q": '
            '[1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [0], "fer": [1, 4, 5], "coeff": [{"q": '
            '[1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [0], "fer": [2, 4, 5], "coeff": [{"q": '
            '[1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [5], "coeff": [{"q": [-2, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [3, 4, 5], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [6], "coeff": [{"q": [-2, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 2, 6], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [0], "fer": [1, 3, 6], "coeff": [{"q": '
            '[1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [0], "fer": [2, 3, 6], "coeff": [{"q": '
            '[1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [0], "fer": [1, 4, 6], "coeff": [{"q": '
            '[1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [0], "fer": [2, 4, 6], "coeff": [{"q": '
            '[1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [6], "coeff": [{"q": [-2, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [3, 4, 6], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [1], "coeff": [{"q": [-2, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 5, 6], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [2], "coeff": [{"q": [-2, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [2, 5, 6], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [3], "coeff": [{"q": [-2, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [3, 5, 6], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [4], "coeff": [{"q": [-2, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [4, 5, 6], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}',
            '-2/3 x_{1}^{3} e^{x^2/2} + x_{1}q_{1}q_{2} e^{x^2/2}\nx_{1}q_{1'
            '}q_{3} e^{x^2/2}\nx_{1}q_{2}q_{3} e^{x^2/2}\nx_{1}q_{1}q_{4} e^'
            '{x^2/2}\nx_{1}q_{2}q_{4} e^{x^2/2}\n-2/3 x_{1}^{3} e^{x^2/2} + '
            'x_{1}q_{3}q_{4} e^{x^2/2}\nx_{1}q_{1}q_{5} e^{x^2/2}\nx_{1}q_{2'
            '}q_{5} e^{x^2/2}\nx_{1}q_{3}q_{5} e^{x^2/2}\nx_{1}q_{4}q_{5} e^'
            '{x^2/2}\nx_{1}q_{1}q_{6} e^{x^2/2}\nx_{1}q_{2}q_{6} e^{x^2/2}\n'
            'x_{1}q_{3}q_{6} e^{x^2/2}\nx_{1}q_{4}q_{6} e^{x^2/2}\n-2/3 x_{1'
            '}^{3} e^{x^2/2} + x_{1}q_{5}q_{6} e^{x^2/2}\n-2 x_{1}^{2}q_{3} '
            'e^{x^2/2} + q_{1}q_{2}q_{3} e^{x^2/2}\n-2 x_{1}^{2}q_{4} e^{x^2'
            '/2} + q_{1}q_{2}q_{4} e^{x^2/2}\n-2 x_{1}^{2}q_{1} e^{x^2/2} + '
            'q_{1}q_{3}q_{4} e^{x^2/2}\n-2 x_{1}^{2}q_{2} e^{x^2/2} + q_{2}q'
            '_{3}q_{4} e^{x^2/2}\n-2 x_{1}^{2}q_{5} e^{x^2/2} + q_{1}q_{2}q_'
            '{5} e^{x^2/2}\nq_{1}q_{3}q_{5} e^{x^2/2}\nq_{2}q_{3}q_{5} e^{x^'
            '2/2}\nq_{1}q_{4}q_{5} e^{x^2/2}\nq_{2}q_{4}q_{5} e^{x^2/2}\n-2 '
            'x_{1}^{2}q_{5} e^{x^2/2} + q_{3}q_{4}q_{5} e^{x^2/2}\n-2 x_{1}^'
            '{2}q_{6} e^{x^2/2} + q_{1}q_{2}q_{6} e^{x^2/2}\nq_{1}q_{3}q_{6}'
            ' e^{x^2/2}\nq_{2}q_{3}q_{6} e^{x^2/2}\nq_{1}q_{4}q_{6} e^{x^2/2'
            '}\nq_{2}q_{4}q_{6} e^{x^2/2}\n-2 x_{1}^{2}q_{6} e^{x^2/2} + q_{'
            '3}q_{4}q_{6} e^{x^2/2}\n-2 x_{1}^{2}q_{1} e^{x^2/2} + q_{1}q_{5'
            '}q_{6} e^{x^2/2}\n-2 x_{1}^{2}q_{2} e^{x^2/2} + q_{2}q_{5}q_{6}'
            ' e^{x^2/2}\n-2 x_{1}^{2}q_{3} e^{x^2/2} + q_{3}q_{5}q_{6} e^{x^'
            '2/2}\n-2 x_{1}^{2}q_{4} e^{x^2/2} + q_{4}q_{5}q_{6} e^{x^2/2}',
        ),
        (
            '8/3*x1^5*G - 20/3*x1^3*q1q2*G - 8/3*x1^3*q3q4*G - '
            '8/3*x1^3*q5q6*G + 4*x1*q1q2q3q4*G + 4*x1*q1q2q5q6*G - '
            '4/3*x1^3*G + 2*x1*q1q2*G\n'
            '-4*x1^3*q1q3*G + 4*x1*q1q3q5q6*G + 2*x1*q1q3*G\n'
            '-4*x1^3*q2q3*G + 4*x1*q2q3q5q6*G + 2*x1*q2q3*G\n'
            '-4*x1^3*q1q4*G + 4*x1*q1q4q5q6*G + 2*x1*q1q4*G\n'
            '-4*x1^3*q2q4*G + 4*x1*q2q4q5q6*G + 2*x1*q2q4*G\n'
            '8/3*x1^5*G - 8/3*x1^3*q1q2*G - 20/3*x1^3*q3q4*G - '
            '8/3*x1^3*q5q6*G + 4*x1*q1q2q3q4*G + 4*x1*q3q4q5q6*G - '
            '4/3*x1^3*G + 2*x1*q3q4*G\n'
            '-4*x1^3*q1q5*G + 4*x1*q1q3q4q5*G + 2*x1*q1q5*G\n'
            '-4*x1^3*q2q5*G + 4*x1*q2q3q4q5*G + 2*x1*q2q5*G\n'
            '-4*x1^3*q3q5*G + 4*x1*q1q2q3q5*G + 2*x1*q3q5*G\n'
            '-4*x1^3*q4q5*G + 4*x1*q1q2q4q5*G + 2*x1*q4q5*G\n'
            '-4*x1^3*q1q6*G + 4*x1*q1q3q4q6*G + 2*x1*q1q6*G\n'
            '-4*x1^3*q2q6*G + 4*x1*q2q3q4q6*G + 2*x1*q2q6*G\n'
            '-4*x1^3*q3q6*G + 4*x1*q1q2q3q6*G + 2*x1*q3q6*G\n'
            '-4*x1^3*q4q6*G + 4*x1*q1q2q4q6*G + 2*x1*q4q6*G\n'
            '8/3*x1^5*G - 8/3*x1^3*q1q2*G - 8/3*x1^3*q3q4*G - '
            '20/3*x1^3*q5q6*G + 4*x1*q1q2q5q6*G + 4*x1*q3q4q5q6*G - '
            '4/3*x1^3*G + 2*x1*q5q6*G\n'
            '8*x1^4*q3*G - 12*x1^2*q1q2q3*G - 8*x1^2*q3q5q6*G + '
            '4*q1q2q3q5q6*G - 4*x1^2*q3*G + 2*q1q2q3*G\n'
            '8*x1^4*q4*G - 12*x1^2*q1q2q4*G - 8*x1^2*q4q5q6*G + '
            '4*q1q2q4q5q6*G - 4*x1^2*q4*G + 2*q1q2q4*G\n'
            '8*x1^4*q1*G - 12*x1^2*q1q3q4*G - 8*x1^2*q1q5q6*G + '
            '4*q1q3q4q5q6*G - 4*x1^2*q1*G + 2*q1q3q4*G\n'
            '8*x1^4*q2*G - 12*x1^2*q2q3q4*G - 8*x1^2*q2q5q6*G + '
            '4*q2q3q4q5q6*G - 4*x1^2*q2*G + 2*q2q3q4*G\n'
            '8*x1^4*q5*G - 12*x1^2*q1q2q5*G - 8*x1^2*q3q4q5*G + '
            '4*q1q2q3q4q5*G - 4*x1^2*q5*G + 2*q1q2q5*G\n'
            '-4*x1^2*q1q3q5*G + 2*q1q3q5*G\n'
            '-4*x1^2*q2q3q5*G + 2*q2q3q5*G\n'
            '-4*x1^2*q1q4q5*G + 2*q1q4q5*G\n'
            '-4*x1^2*q2q4q5*G + 2*q2q4q5*G\n'
            '8*x1^4*q5*G - 8*x1^2*q1q2q5*G - 12*x1^2*q3q4q5*G + '
            '4*q1q2q3q4q5*G - 4*x1^2*q5*G + 2*q3q4q5*G\n'
            '8*x1^4*q6*G - 12*x1^2*q1q2q6*G - 8*x1^2*q3q4q6*G + '
            '4*q1q2q3q4q6*G - 4*x1^2*q6*G + 2*q1q2q6*G\n'
            '-4*x1^2*q1q3q6*G + 2*q1q3q6*G\n'
            '-4*x1^2*q2q3q6*G + 2*q2q3q6*G\n'
            '-4*x1^2*q1q4q6*G + 2*q1q4q6*G\n'
            '-4*x1^2*q2q4q6*G + 2*q2q4q6*G\n'
            '8*x1^4*q6*G - 8*x1^2*q1q2q6*G - 12*x1^2*q3q4q6*G + '
            '4*q1q2q3q4q6*G - 4*x1^2*q6*G + 2*q3q4q6*G\n'
            '8*x1^4*q1*G - 8*x1^2*q1q3q4*G - 12*x1^2*q1q5q6*G + '
            '4*q1q3q4q5q6*G - 4*x1^2*q1*G + 2*q1q5q6*G\n'
            '8*x1^4*q2*G - 8*x1^2*q2q3q4*G - 12*x1^2*q2q5q6*G + '
            '4*q2q3q4q5q6*G - 4*x1^2*q2*G + 2*q2q5q6*G\n'
            '8*x1^4*q3*G - 8*x1^2*q1q2q3*G - 12*x1^2*q3q5q6*G + '
            '4*q1q2q3q5q6*G - 4*x1^2*q3*G + 2*q3q5q6*G\n'
            '8*x1^4*q4*G - 8*x1^2*q1q2q4*G - 12*x1^2*q4q5q6*G + '
            '4*q1q2q4q5q6*G - 4*x1^2*q4*G + 2*q4q5q6*G',
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [5], "fer": [], "coeff": [{"q": [8, 3, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [3], "fer": [1, 2], '
            '"coeff": [{"q": [-20, 3, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[3], "fer": [3, 4], "coeff": [{"q": [-8, 3, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [3], "fer": [5, 6], "coeff": [{"q": [-8, '
            '3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [1, 2, 3, '
            '4], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[1], "fer": [1, 2, 5, 6], "coeff": [{"q": [4, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [3], "fer": [], "coeff": [{"q": [-4, 3, 0, '
            '1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [1, 2], "coeff": '
            '[{"q": [2, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [3], "fer": [1, 3], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [1, 3, '
            '5, 6], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [1], "fer": [1, 3], "coeff": [{"q": [2, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [3], "fer": [2, 3], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [2, 3, '
            '5, 6], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [1], "fer": [2, 3], "coeff": [{"q": [2, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [3], "fer": [1, 4], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [1, 4, '
            '5, 6], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [1], "fer": [1, 4], "coeff": [{"q": [2, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [3], "fer": [2, 4], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [2, 4, '
            '5, 6], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [1], "fer": [2, 4], "coeff": [{"q": [2, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [5], "fer": [], "coeff": [{"q": [8, 3, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [3], "fer": [1, 2], '
            '"coeff": [{"q": [-8, 3, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[3], "fer": [3, 4], "coeff": [{"q": [-20, 3, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [3], "fer": [5, 6], "coeff": [{"q": [-8, '
            '3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [1, 2, 3, '
            '4], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[1], "fer": [3, 4, 5, 6], "coeff": [{"q": [4, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [3], "fer": [], "coeff": [{"q": [-4, 3, 0, '
            '1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [3, 4], "coeff": '
            '[{"q": [2, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [3], "fer": [1, 5], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [1, 3, '
            '4, 5], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [1], "fer": [1, 5], "coeff": [{"q": [2, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [3], "fer": [2, 5], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [2, 3, '
            '4, 5], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [1], "fer": [2, 5], "coeff": [{"q": [2, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [3], "fer": [3, 5], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [1, 2, '
            '3, 5], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [1], "fer": [3, 5], "coeff": [{"q": [2, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [3], "fer": [4, 5], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [1, 2, '
            '4, 5], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [1], "fer": [4, 5], "coeff": [{"q": [2, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [3], "fer": [1, 6], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [1, 3, '
            '4, 6], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [1], "fer": [1, 6], "coeff": [{"q": [2, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [3], "fer": [2, 6], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [2, 3, '
            '4, 6], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [1], "fer": [2, 6], "coeff": [{"q": [2, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [3], "fer": [3, 6], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [1, 2, '
            '3, 6], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [1], "fer": [3, 6], "coeff": [{"q": [2, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [3], "fer": [4, 6], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [1, 2, '
            '4, 6], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [1], "fer": [4, 6], "coeff": [{"q": [2, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [5], "fer": [], "coeff": [{"q": [8, 3, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [3], "fer": [1, 2], '
            '"coeff": [{"q": [-8, 3, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[3], "fer": [3, 4], "coeff": [{"q": [-8, 3, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [3], "fer": [5, 6], "coeff": [{"q": [-20, '
            '3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [1, 2, 5, '
            '6], "coeff": [{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[1], "fer": [3, 4, 5, 6], "coeff": [{"q": [4, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [3], "fer": [], "coeff": [{"q": [-4, 3, 0, '
            '1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [5, 6], "coeff": '
            '[{"q": [2, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [3], "coeff": [{"q": [8, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [1, 2, 3], '
            '"coeff": [{"q": [-12, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2], "fer": [3, 5, 6], "coeff": [{"q": [-8, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0], "fer": [1, 2, 3, 5, 6], "coeff": '
            '[{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": '
            '[3], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0], "fer": [1, 2, 3], "coeff": [{"q": [2, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [4], "coeff": [{"q": [8, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [1, 2, 4], '
            '"coeff": [{"q": [-12, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2], "fer": [4, 5, 6], "coeff": [{"q": [-8, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0], "fer": [1, 2, 4, 5, 6], "coeff": '
            '[{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": '
            '[4], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0], "fer": [1, 2, 4], "coeff": [{"q": [2, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [1], "coeff": [{"q": [8, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [1, 3, 4], '
            '"coeff": [{"q": [-12, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2], "fer": [1, 5, 6], "coeff": [{"q": [-8, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0], "fer": [1, 3, 4, 5, 6], "coeff": '
            '[{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": '
            '[1], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0], "fer": [1, 3, 4], "coeff": [{"q": [2, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [2], "coeff": [{"q": [8, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [2, 3, 4], '
            '"coeff": [{"q": [-12, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2], "fer": [2, 5, 6], "coeff": [{"q": [-8, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0], "fer": [2, 3, 4, 5, 6], "coeff": '
            '[{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": '
            '[2], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0], "fer": [2, 3, 4], "coeff": [{"q": [2, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [5], "coeff": [{"q": [8, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [1, 2, 5], '
            '"coeff": [{"q": [-12, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2], "fer": [3, 4, 5], "coeff": [{"q": [-8, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0], "fer": [1, 2, 3, 4, 5], "coeff": '
            '[{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": '
            '[5], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0], "fer": [1, 2, 5], "coeff": [{"q": [2, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [1, 3, 5], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 3, '
            '5], "coeff": [{"q": [2, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [2, 3, 5], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [2, 3, '
            '5], "coeff": [{"q": [2, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [1, 4, 5], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 4, '
            '5], "coeff": [{"q": [2, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [2, 4, 5], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [2, 4, '
            '5], "coeff": [{"q": [2, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [5], "coeff": [{"q": [8, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [1, 2, 5], '
            '"coeff": [{"q": [-8, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2], "fer": [3, 4, 5], "coeff": [{"q": [-12, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0], "fer": [1, 2, 3, 4, 5], "coeff": '
            '[{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": '
            '[5], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0], "fer": [3, 4, 5], "coeff": [{"q": [2, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [6], "coeff": [{"q": [8, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [1, 2, 6], '
            '"coeff": [{"q": [-12, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2], "fer": [3, 4, 6], "coeff": [{"q": [-8, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0], "fer": [1, 2, 3, 4, 6], "coeff": '
            '[{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": '
            '[6], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0], "fer": [1, 2, 6], "coeff": [{"q": [2, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [1, 3, 6], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 3, '
            '6], "coeff": [{"q": [2, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [2, 3, 6], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [2, 3, '
            '6], "coeff": [{"q": [2, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [1, 4, 6], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 4, '
            '6], "coeff": [{"q": [2, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [2], "fer": [2, 4, 6], "coeff": [{"q": '
            '[-4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [2, 4, '
            '6], "coeff": [{"q": [2, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [6], "coeff": [{"q": [8, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [1, 2, 6], '
            '"coeff": [{"q": [-8, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2], "fer": [3, 4, 6], "coeff": [{"q": [-12, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0], "fer": [1, 2, 3, 4, 6], "coeff": '
            '[{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": '
            '[6], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0], "fer": [3, 4, 6], "coeff": [{"q": [2, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [1], "coeff": [{"q": [8, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [1, 3, 4], '
            '"coeff": [{"q": [-8, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2], "fer": [1, 5, 6], "coeff": [{"q": [-12, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0], "fer": [1, 3, 4, 5, 6], "coeff": '
            '[{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": '
            '[1], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0], "fer": [1, 5, 6], "coeff": [{"q": [2, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [2], "coeff": [{"q": [8, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [2, 3, 4], '
            '"coeff": [{"q": [-8, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2], "fer": [2, 5, 6], "coeff": [{"q": [-12, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0], "fer": [2, 3, 4, 5, 6], "coeff": '
            '[{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": '
            '[2], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0], "fer": [2, 5, 6], "coeff": [{"q": [2, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [3], "coeff": [{"q": [8, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [1, 2, 3], '
            '"coeff": [{"q": [-8, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2], "fer": [3, 5, 6], "coeff": [{"q": [-12, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0], "fer": [1, 2, 3, 5, 6], "coeff": '
            '[{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": '
            '[3], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0], "fer": [3, 5, 6], "coeff": [{"q": [2, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [4], "coeff": [{"q": [8, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [1, 2, 4], '
            '"coeff": [{"q": [-8, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[2], "fer": [4, 5, 6], "coeff": [{"q": [-12, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [0], "fer": [1, 2, 4, 5, 6], "coeff": '
            '[{"q": [4, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": '
            '[4], "coeff": [{"q": [-4, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0], "fer": [4, 5, 6], "coeff": [{"q": [2, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}',
            '8/3 x_{1}^{5} e^{x^2/2} - 20/3 x_{1}^{3}q_{1}q_{2} e^{x^2/2} - '
            '8/3 x_{1}^{3}q_{3}q_{4} e^{x^2/2} - 8/3 x_{1}^{3}q_{5}q_{6} e^{'
            'x^2/2} + 4 x_{1}q_{1}q_{2}q_{3}q_{4} e^{x^2/2} + 4 x_{1}q_{1}q_'
            '{2}q_{5}q_{6} e^{x^2/2} - 4/3 x_{1}^{3} e^{x^2/2} + 2 x_{1}q_{1'
            '}q_{2} e^{x^2/2}\n-4 x_{1}^{3}q_{1}q_{3} e^{x^2/2} + 4 x_{1}q_{'
            '1}q_{3}q_{5}q_{6} e^{x^2/2} + 2 x_{1}q_{1}q_{3} e^{x^2/2}\n-4 x'
            '_{1}^{3}q_{2}q_{3} e^{x^2/2} + 4 x_{1}q_{2}q_{3}q_{5}q_{6} e^{x'
            '^2/2} + 2 x_{1}q_{2}q_{3} e^{x^2/2}\n-4 x_{1}^{3}q_{1}q_{4} e^{'
            'x^2/2} + 4 x_{1}q_{1}q_{4}q_{5}q_{6} e^{x^2/2} + 2 x_{1}q_{1}q_'
            '{4} e^{x^2/2}\n-4 x_{1}^{3}q_{2}q_{4} e^{x^2/2} + 4 x_{1}q_{2}q'
            '_{4}q_{5}q_{6} e^{x^2/2} + 2 x_{1}q_{2}q_{4} e^{x^2/2}\n8/3 x_{'
            '1}^{5} e^{x^2/2} - 8/3 x_{1}^{3}q_{1}q_{2} e^{x^2/2} - 20/3 x_{'
            '1}^{3}q_{3}q_{4} e^{x^2/2} - 8/3 x_{1}^{3}q_{5}q_{6} e^{x^2/2} '
            '+ 4 x_{1}q_{1}q_{2}q_{3}q_{4} e^{x^2/2} + 4 x_{1}q_{3}q_{4}q_{5'
            '}q_{6} e^{x^2/2} - 4/3 x_{1}^{3} e^{x^2/2} + 2 x_{1}q_{3}q_{4} '
            'e^{x^2/2}\n-4 x_{1}^{3}q_{1}q_{5} e^{x^2/2} + 4 x_{1}q_{1}q_{3}'
            'q_{4}q_{5} e^{x^2/2} + 2 x_{1}q_{1}q_{5} e^{x^2/2}\n-4 x_{1}^{3'
            '}q_{2}q_{5} e^{x^2/2} + 4 x_{1}q_{2}q_{3}q_{4}q_{5} e^{x^2/2} +'
            ' 2 x_{1}q_{2}q_{5} e^{x^2/2}\n-4 x_{1}^{3}q_{3}q_{5} e^{x^2/2} '
            '+ 4 x_{1}q_{1}q_{2}q_{3}q_{5} e^{x^2/2} + 2 x_{1}q_{3}q_{5} e^{'
            'x^2/2}\n-4 x_{1}^{3}q_{4}q_{5} e^{x^2/2} + 4 x_{1}q_{1}q_{2}q_{'
            '4}q_{5} e^{x^2/2} + 2 x_{1}q_{4}q_{5} e^{x^2/2}\n-4 x_{1}^{3}q_'
            '{1}q_{6} e^{x^2/2} + 4 x_{1}q_{1}q_{3}q_{4}q_{6} e^{x^2/2} + 2 '
            'x_{1}q_{1}q_{6} e^{x^2/2}\n-4 x_{1}^{3}q_{2}q_{6} e^{x^2/2} + 4'
            ' x_{1}q_{2}q_{3}q_{4}q_{6} e^{x^2/2} + 2 x_{1}q_{2}q_{6} e^{x^2'
            '/2}\n-4 x_{1}^{3}q_{3}q_{6} e^{x^2/2} + 4 x_{1}q_{1}q_{2}q_{3}q'
            '_{6} e^{x^2/2} + 2 x_{1}q_{3}q_{6} e^{x^2/2}\n-4 x_{1}^{3}q_{4}'
            'q_{6} e^{x^2/2} + 4 x_{1}q_{1}q_{2}q_{4}q_{6} e^{x^2/2} + 2 x_{'
            '1}q_{4}q_{6} e^{x^2/2}\n8/3 x_{1}^{5} e^{x^2/2} - 8/3 x_{1}^{3}'
            'q_{1}q_{2} e^{x^2/2} - 8/3 x_{1}^{3}q_{3}q_{4} e^{x^2/2} - 20/3'
            ' x_{1}^{3}q_{5}q_{6} e^{x^2/2} + 4 x_{1}q_{1}q_{2}q_{5}q_{6} e^'
            '{x^2/2} + 4 x_{1}q_{3}q_{4}q_{5}q_{6} e^{x^2/2} - 4/3 x_{1}^{3}'
            ' e^{x^2/2} + 2 x_{1}q_{5}q_{6} e^{x^2/2}\n8 x_{1}^{4}q_{3} e^{x'
            '^2/2} - 12 x_{1}^{2}q_{1}q_{2}q_{3} e^{x^2/2} - 8 x_{1}^{2}q_{3'
            '}q_{5}q_{6} e^{x^2/2} + 4 q_{1}q_{2}q_{3}q_{5}q_{6} e^{x^2/2} -'
            ' 4 x_{1}^{2}q_{3} e^{x^2/2} + 2 q_{1}q_{2}q_{3} e^{x^2/2}\n8 x_'
            '{1}^{4}q_{4} e^{x^2/2} - 12 x_{1}^{2}q_{1}q_{2}q_{4} e^{x^2/2} '
            '- 8 x_{1}^{2}q_{4}q_{5}q_{6} e^{x^2/2} + 4 q_{1}q_{2}q_{4}q_{5}'
            'q_{6} e^{x^2/2} - 4 x_{1}^{2}q_{4} e^{x^2/2} + 2 q_{1}q_{2}q_{4'
            '} e^{x^2/2}\n8 x_{1}^{4}q_{1} e^{x^2/2} - 12 x_{1}^{2}q_{1}q_{3'
            '}q_{4} e^{x^2/2} - 8 x_{1}^{2}q_{1}q_{5}q_{6} e^{x^2/2} + 4 q_{'
            '1}q_{3}q_{4}q_{5}q_{6} e^{x^2/2} - 4 x_{1}^{2}q_{1} e^{x^2/2} +'
            ' 2 q_{1}q_{3}q_{4} e^{x^2/2}\n8 x_{1}^{4}q_{2} e^{x^2/2} - 12 x'
            '_{1}^{2}q_{2}q_{3}q_{4} e^{x^2/2} - 8 x_{1}^{2}q_{2}q_{5}q_{6} '
            'e^{x^2/2} + 4 q_{2}q_{3}q_{4}q_{5}q_{6} e^{x^2/2} - 4 x_{1}^{2}'
            'q_{2} e^{x^2/2} + 2 q_{2}q_{3}q_{4} e^{x^2/2}\n8 x_{1}^{4}q_{5}'
            ' e^{x^2/2} - 12 x_{1}^{2}q_{1}q_{2}q_{5} e^{x^2/2} - 8 x_{1}^{2'
            '}q_{3}q_{4}q_{5} e^{x^2/2} + 4 q_{1}q_{2}q_{3}q_{4}q_{5} e^{x^2'
            '/2} - 4 x_{1}^{2}q_{5} e^{x^2/2} + 2 q_{1}q_{2}q_{5} e^{x^2/2}'
            '\n-4 x_{1}^{2}q_{1}q_{3}q_{5} e^{x^2/2} + 2 q_{1}q_{3}q_{5} e^{'
            'x^2/2}\n-4 x_{1}^{2}q_{2}q_{3}q_{5} e^{x^2/2} + 2 q_{2}q_{3}q_{'
            '5} e^{x^2/2}\n-4 x_{1}^{2}q_{1}q_{4}q_{5} e^{x^2/2} + 2 q_{1}q_'
            '{4}q_{5} e^{x^2/2}\n-4 x_{1}^{2}q_{2}q_{4}q_{5} e^{x^2/2} + 2 q'
            '_{2}q_{4}q_{5} e^{x^2/2}\n8 x_{1}^{4}q_{5} e^{x^2/2} - 8 x_{1}^'
            '{2}q_{1}q_{2}q_{5} e^{x^2/2} - 12 x_{1}^{2}q_{3}q_{4}q_{5} e^{x'
            '^2/2} + 4 q_{1}q_{2}q_{3}q_{4}q_{5} e^{x^2/2} - 4 x_{1}^{2}q_{5'
            '} e^{x^2/2} + 2 q_{3}q_{4}q_{5} e^{x^2/2}\n8 x_{1}^{4}q_{6} e^{'
            'x^2/2} - 12 x_{1}^{2}q_{1}q_{2}q_{6} e^{x^2/2} - 8 x_{1}^{2}q_{'
            '3}q_{4}q_{6} e^{x^2/2} + 4 q_{1}q_{2}q_{3}q_{4}q_{6} e^{x^2/2} '
            '- 4 x_{1}^{2}q_{6} e^{x^2/2} + 2 q_{1}q_{2}q_{6} e^{x^2/2}\n-4 '
            'x_{1}^{2}q_{1}q_{3}q_{6} e^{x^2/2} + 2 q_{1}q_{3}q_{6} e^{x^2/2'
            '}\n-4 x_{1}^{2}q_{2}q_{3}q_{6} e^{x^2/2} + 2 q_{2}q_{3}q_{6} e^'
            '{x^2/2}\n-4 x_{1}^{2}q_{1}q_{4}q_{6} e^{x^2/2} + 2 q_{1}q_{4}q_'
            '{6} e^{x^2/2}\n-4 x_{1}^{2}q_{2}q_{4}q_{6} e^{x^2/2} + 2 q_{2}q'
            '_{4}q_{6} e^{x^2/2}\n8 x_{1}^{4}q_{6} e^{x^2/2} - 8 x_{1}^{2}q_'
            '{1}q_{2}q_{6} e^{x^2/2} - 12 x_{1}^{2}q_{3}q_{4}q_{6} e^{x^2/2}'
            ' + 4 q_{1}q_{2}q_{3}q_{4}q_{6} e^{x^2/2} - 4 x_{1}^{2}q_{6} e^{'
            'x^2/2} + 2 q_{3}q_{4}q_{6} e^{x^2/2}\n8 x_{1}^{4}q_{1} e^{x^2/2'
            '} - 8 x_{1}^{2}q_{1}q_{3}q_{4} e^{x^2/2} - 12 x_{1}^{2}q_{1}q_{'
            '5}q_{6} e^{x^2/2} + 4 q_{1}q_{3}q_{4}q_{5}q_{6} e^{x^2/2} - 4 x'
            '_{1}^{2}q_{1} e^{x^2/2} + 2 q_{1}q_{5}q_{6} e^{x^2/2}\n8 x_{1}^'
            '{4}q_{2} e^{x^2/2} - 8 x_{1}^{2}q_{2}q_{3}q_{4} e^{x^2/2} - 12 '
            'x_{1}^{2}q_{2}q_{5}q_{6} e^{x^2/2} + 4 q_{2}q_{3}q_{4}q_{5}q_{6'
            '} e^{x^2/2} - 4 x_{1}^{2}q_{2} e^{x^2/2} + 2 q_{2}q_{5}q_{6} e^'
            '{x^2/2}\n8 x_{1}^{4}q_{3} e^{x^2/2} - 8 x_{1}^{2}q_{1}q_{2}q_{3'
            '} e^{x^2/2} - 12 x_{1}^{2}q_{3}q_{5}q_{6} e^{x^2/2} + 4 q_{1}q_'
            '{2}q_{3}q_{5}q_{6} e^{x^2/2} - 4 x_{1}^{2}q_{3} e^{x^2/2} + 2 q'
            '_{3}q_{5}q_{6} e^{x^2/2}\n8 x_{1}^{4}q_{4} e^{x^2/2} - 8 x_{1}^'
            '{2}q_{1}q_{2}q_{4} e^{x^2/2} - 12 x_{1}^{2}q_{4}q_{5}q_{6} e^{x'
            '^2/2} + 4 q_{1}q_{2}q_{4}q_{5}q_{6} e^{x^2/2} - 4 x_{1}^{2}q_{4'
            '} e^{x^2/2} + 2 q_{4}q_{5}q_{6} e^{x^2/2}',
        ),
        (
            '-32/3*x1^7*G + 112/3*x1^5*q1q2*G + 64/3*x1^5*q3q4*G + '
            '64/3*x1^5*q5q6*G - 160/3*x1^3*q1q2q3q4*G - '
            '160/3*x1^3*q1q2q5q6*G - 64/3*x1^3*q3q4q5q6*G + '
            '32*x1*q1q2q3q4q5q6*G + 32*x1^5*G - 80*x1^3*q1q2*G - '
            '32*x1^3*q3q4*G - 32*x1^3*q5q6*G + 48*x1*q1q2q3q4*G + '
            '48*x1*q1q2q5q6*G - 8*x1^3*G + 12*x1*q1q2*G\n'
            '16*x1^5*q1q3*G - 32*x1^3*q1q3q5q6*G - 48*x1^3*q1q3*G + '
            '48*x1*q1q3q5q6*G + 12*x1*q1q3*G\n'
            '16*x1^5*q2q3*G - 32*x1^3*q2q3q5q6*G - 48*x1^3*q2q3*G + '
            '48*x1*q2q3q5q6*G + 12*x1*q2q3*G\n'
            '16*x1^5*q1q4*G - 32*x1^3*q1q4q5q6*G - 48*x1^3*q1q4*G + '
            '48*x1*q1q4q5q6*G + 12*x1*q1q4*G\n'
            '16*x1^5*q2q4*G - 32*x1^3*q2q4q5q6*G - 48*x1^3*q2q4*G + '
            '48*x1*q2q4q5q6*G + 12*x1*q2q4*G\n'
            '-32/3*x1^7*G + 64/3*x1^5*q1q2*G + 112/3*x1^5*q3q4*G + '
            '64/3*x1^5*q5q6*G - 160/3*x1^3*q1q2q3q4*G - 64/3*x1^3*q1q2q5q6*G '
            '- 160/3*x1^3*q3q4q5q6*G + 32*x1*q1q2q3q4q5q6*G + 32*x1^5*G - '
            '32*x1^3*q1q2*G - 80*x1^3*q3q4*G - 32*x1^3*q5q6*G + '
            '48*x1*q1q2q3q4*G + 48*x1*q3q4q5q6*G - 8*x1^3*G + 12*x1*q3q4*G\n'
            '16*x1^5*q1q5*G - 32*x1^3*q1q3q4q5*G - 48*x1^3*q1q5*G + '
            '48*x1*q1q3q4q5*G + 12*x1*q1q5*G\n'
            '16*x1^5*q2q5*G - 32*x1^3*q2q3q4q5*G - 48*x1^3*q2q5*G + '
            '48*x1*q2q3q4q5*G + 12*x1*q2q5*G\n'
            '16*x1^5*q3q5*G - 32*x1^3*q1q2q3q5*G - 48*x1^3*q3q5*G + '
            '48*x1*q1q2q3q5*G + 12*x1*q3q5*G\n'
            '16*x1^5*q4q5*G - 32*x1^3*q1q2q4q5*G - 48*x1^3*q4q5*G + '
            '48*x1*q1q2q4q5*G + 12*x1*q4q5*G\n'
            '16*x1^5*q1q6*G - 32*x1^3*q1q3q4q6*G - 48*x1^3*q1q6*G + '
            '48*x1*q1q3q4q6*G + 12*x1*q1q6*G\n'
            '16*x1^5*q2q6*G - 32*x1^3*q2q3q4q6*G - 48*x1^3*q2q6*G + '
            '48*x1*q2q3q4q6*G + 12*x1*q2q6*G\n'
            '16*x1^5*q3q6*G - 32*x1^3*q1q2q3q6*G - 48*x1^3*q3q6*G + '
            '48*x1*q1q2q3q6*G + 12*x1*q3q6*G\n'
            '16*x1^5*q4q6*G - 32*x1^3*q1q2q4q6*G - 48*x1^3*q4q6*G + '
            '48*x1*q1q2q4q6*G + 12*x1*q4q6*G\n'
            '-32/3*x1^7*G + 64/3*x1^5*q1q2*G + 64/3*x1^5*q3q4*G + '
            '112/3*x1^5*q5q6*G - 64/3*x1^3*q1q2q3q4*G - '
            '160/3*x1^3*q1q2q5q6*G - 160/3*x1^3*q3q4q5q6*G + '
            '32*x1*q1q2q3q4q5q6*G + 32*x1^5*G - 32*x1^3*q1q2*G - '
            '32*x1^3*q3q4*G - 80*x1^3*q5q6*G + 48*x1*q1q2q5q6*G + '
            '48*x1*q3q4q5q6*G - 8*x1^3*G + 12*x1*q5q6*G\n'
            '-32*x1^6*q3*G + 80*x1^4*q1q2q3*G + 64*x1^4*q3q5q6*G - '
            '96*x1^2*q1q2q3q5q6*G + 96*x1^4*q3*G - 144*x1^2*q1q2q3*G - '
            '96*x1^2*q3q5q6*G + 48*q1q2q3q5q6*G - 24*x1^2*q3*G + '
            '12*q1q2q3*G\n'
            '-32*x1^6*q4*G + 80*x1^4*q1q2q4*G + 64*x1^4*q4q5q6*G - '
            '96*x1^2*q1q2q4q5q6*G + 96*x1^4*q4*G - 144*x1^2*q1q2q4*G - '
            '96*x1^2*q4q5q6*G + 48*q1q2q4q5q6*G - 24*x1^2*q4*G + '
            '12*q1q2q4*G\n'
            '-32*x1^6*q1*G + 80*x1^4*q1q3q4*G + 64*x1^4*q1q5q6*G - '
            '96*x1^2*q1q3q4q5q6*G + 96*x1^4*q1*G - 144*x1^2*q1q3q4*G - '
            '96*x1^2*q1q5q6*G + 48*q1q3q4q5q6*G - 24*x1^2*q1*G + '
            '12*q1q3q4*G\n'
            '-32*x1^6*q2*G + 80*x1^4*q2q3q4*G + 64*x1^4*q2q5q6*G - '
            '96*x1^2*q2q3q4q5q6*G + 96*x1^4*q2*G - 144*x1^2*q2q3q4*G - '
            '96*x1^2*q2q5q6*G + 48*q2q3q4q5q6*G - 24*x1^2*q2*G + '
            '12*q2q3q4*G\n'
            '-32*x1^6*q5*G + 80*x1^4*q1q2q5*G + 64*x1^4*q3q4q5*G - '
            '96*x1^2*q1q2q3q4q5*G + 96*x1^4*q5*G - 144*x1^2*q1q2q5*G - '
            '96*x1^2*q3q4q5*G + 48*q1q2q3q4q5*G - 24*x1^2*q5*G + '
            '12*q1q2q5*G\n'
            '16*x1^4*q1q3q5*G - 48*x1^2*q1q3q5*G + 12*q1q3q5*G\n'
            '16*x1^4*q2q3q5*G - 48*x1^2*q2q3q5*G + 12*q2q3q5*G\n'
            '16*x1^4*q1q4q5*G - 48*x1^2*q1q4q5*G + 12*q1q4q5*G\n'
            '16*x1^4*q2q4q5*G - 48*x1^2*q2q4q5*G + 12*q2q4q5*G\n'
            '-32*x1^6*q5*G + 64*x1^4*q1q2q5*G + 80*x1^4*q3q4q5*G - '
            '96*x1^2*q1q2q3q4q5*G + 96*x1^4*q5*G - 96*x1^2*q1q2q5*G - '
            '144*x1^2*q3q4q5*G + 48*q1q2q3q4q5*G - 24*x1^2*q5*G + '
            '12*q3q4q5*G\n'
            '-32*x1^6*q6*G + 80*x1^4*q1q2q6*G + 64*x1^4*q3q4q6*G - '
            '96*x1^2*q1q2q3q4q6*G + 96*x1^4*q6*G - 144*x1^2*q1q2q6*G - '
            '96*x1^2*q3q4q6*G + 48*q1q2q3q4q6*G - 24*x1^2*q6*G + '
            '12*q1q2q6*G\n'
            '16*x1^4*q1q3q6*G - 48*x1^2*q1q3q6*G + 12*q1q3q6*G\n'
            '16*x1^4*q2q3q6*G - 48*x1^2*q2q3q6*G + 12*q2q3q6*G\n'
            '16*x1^4*q1q4q6*G - 48*x1^2*q1q4q6*G + 12*q1q4q6*G\n'
            '16*x1^4*q2q4q6*G - 48*x1^2*q2q4q6*G + 12*q2q4q6*G\n'
            '-32*x1^6*q6*G + 64*x1^4*q1q2q6*G + 80*x1^4*q3q4q6*G - '
            '96*x1^2*q1q2q3q4q6*G + 96*x1^4*q6*G - 96*x1^2*q1q2q6*G - '
            '144*x1^2*q3q4q6*G + 48*q1q2q3q4q6*G - 24*x1^2*q6*G + '
            '12*q3q4q6*G\n'
            '-32*x1^6*q1*G + 64*x1^4*q1q3q4*G + 80*x1^4*q1q5q6*G - '
            '96*x1^2*q1q3q4q5q6*G + 96*x1^4*q1*G - 96*x1^2*q1q3q4*G - '
            '144*x1^2*q1q5q6*G + 48*q1q3q4q5q6*G - 24*x1^2*q1*G + '
            '12*q1q5q6*G\n'
            '-32*x1^6*q2*G + 64*x1^4*q2q3q4*G + 80*x1^4*q2q5q6*G - '
            '96*x1^2*q2q3q4q5q6*G + 96*x1^4*q2*G - 96*x1^2*q2q3q4*G - '
            '144*x1^2*q2q5q6*G + 48*q2q3q4q5q6*G - 24*x1^2*q2*G + '
            '12*q2q5q6*G\n'
            '-32*x1^6*q3*G + 64*x1^4*q1q2q3*G + 80*x1^4*q3q5q6*G - '
            '96*x1^2*q1q2q3q5q6*G + 96*x1^4*q3*G - 96*x1^2*q1q2q3*G - '
            '144*x1^2*q3q5q6*G + 48*q1q2q3q5q6*G - 24*x1^2*q3*G + '
            '12*q3q5q6*G\n'
            '-32*x1^6*q4*G + 64*x1^4*q1q2q4*G + 80*x1^4*q4q5q6*G - '
            '96*x1^2*q1q2q4q5q6*G + 96*x1^4*q4*G - 96*x1^2*q1q2q4*G - '
            '144*x1^2*q4q5q6*G + 48*q1q2q4q5q6*G - 24*x1^2*q4*G + 12*q4q5q6*G',
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [7], "fer": [], "coeff": [{"q": [-32, '
            '3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [5], "fer": [1, 2], '
            '"coeff": [{"q": [112, 3, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[5], "fer": [3, 4], "coeff": [{"q": [64, 3, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [5], "fer": [5, 6], "coeff": [{"q": [64, '
            '3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3], "fer": [1, 2, 3, '
            '4], "coeff": [{"q": [-160, 3, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [3], "fer": [1, 2, 5, 6], "coeff": [{"q": [-160, 3, 0, '
            '1], "b": 0, "eps": 0}]}, {"bos": [3], "fer": [3, 4, 5, 6], '
            '"coeff": [{"q": [-64, 3, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[1], "fer": [1, 2, 3, 4, 5, 6], "coeff": [{"q": [32, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [5], "fer": [], "coeff": [{"q": '
            '[32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3], "fer": [1, 2], '
            '"coeff": [{"q": [-80, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[3], "fer": [3, 4], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [3], "fer": [5, 6], "coeff": [{"q": [-32, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [1, 2, 3, '
            '4], "coeff": [{"q": [48, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[1], "fer": [1, 2, 5, 6], "coeff": [{"q": [48, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [3], "fer": [], "coeff": [{"q": [-8, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [1, 2], '
            '"coeff": [{"q": [12, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [5], "fer": [1, 3], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3], "fer": [1, 3, '
            '5, 6], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [3], "fer": [1, 3], "coeff": [{"q": [-48, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [1], "fer": [1, 3, 5, 6], "coeff": '
            '[{"q": [48, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": '
            '[1, 3], "coeff": [{"q": [12, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [5], "fer": [2, 3], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3], "fer": [2, 3, '
            '5, 6], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [3], "fer": [2, 3], "coeff": [{"q": [-48, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [1], "fer": [2, 3, 5, 6], "coeff": '
            '[{"q": [48, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": '
            '[2, 3], "coeff": [{"q": [12, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [5], "fer": [1, 4], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3], "fer": [1, 4, '
            '5, 6], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [3], "fer": [1, 4], "coeff": [{"q": [-48, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [1], "fer": [1, 4, 5, 6], "coeff": '
            '[{"q": [48, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": '
            '[1, 4], "coeff": [{"q": [12, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [5], "fer": [2, 4], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3], "fer": [2, 4, '
            '5, 6], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [3], "fer": [2, 4], "coeff": [{"q": [-48, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [1], "fer": [2, 4, 5, 6], "coeff": '
            '[{"q": [48, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": '
            '[2, 4], "coeff": [{"q": [12, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [7], "fer": [], "coeff": [{"q": [-32, '
            '3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [5], "fer": [1, 2], '
            '"coeff": [{"q": [64, 3, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[5], "fer": [3, 4], "coeff": [{"q": [112, 3, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [5], "fer": [5, 6], "coeff": [{"q": [64, '
            '3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3], "fer": [1, 2, 3, '
            '4], "coeff": [{"q": [-160, 3, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [3], "fer": [1, 2, 5, 6], "coeff": [{"q": [-64, 3, 0, '
            '1], "b": 0, "eps": 0}]}, {"bos": [3], "fer": [3, 4, 5, 6], '
            '"coeff": [{"q": [-160, 3, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[1], "fer": [1, 2, 3, 4, 5, 6], "coeff": [{"q": [32, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [5], "fer": [], "coeff": [{"q": '
            '[32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3], "fer": [1, 2], '
            '"coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[3], "fer": [3, 4], "coeff": [{"q": [-80, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [3], "fer": [5, 6], "coeff": [{"q": [-32, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [1, 2, 3, '
            '4], "coeff": [{"q": [48, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[1], "fer": [3, 4, 5, 6], "coeff": [{"q": [48, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [3], "fer": [], "coeff": [{"q": [-8, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [3, 4], '
            '"coeff": [{"q": [12, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [5], "fer": [1, 5], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3], "fer": [1, 3, '
            '4, 5], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [3], "fer": [1, 5], "coeff": [{"q": [-48, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [1], "fer": [1, 3, 4, 5], "coeff": '
            '[{"q": [48, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": '
            '[1, 5], "coeff": [{"q": [12, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [5], "fer": [2, 5], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3], "fer": [2, 3, '
            '4, 5], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [3], "fer": [2, 5], "coeff": [{"q": [-48, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [1], "fer": [2, 3, 4, 5], "coeff": '
            '[{"q": [48, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": '
            '[2, 5], "coeff": [{"q": [12, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [5], "fer": [3, 5], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3], "fer": [1, 2, '
            '3, 5], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [3], "fer": [3, 5], "coeff": [{"q": [-48, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [1], "fer": [1, 2, 3, 5], "coeff": '
            '[{"q": [48, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": '
            '[3, 5], "coeff": [{"q": [12, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [5], "fer": [4, 5], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3], "fer": [1, 2, '
            '4, 5], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [3], "fer": [4, 5], "coeff": [{"q": [-48, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [1], "fer": [1, 2, 4, 5], "coeff": '
            '[{"q": [48, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": '
            '[4, 5], "coeff": [{"q": [12, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [5], "fer": [1, 6], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3], "fer": [1, 3, '
            '4, 6], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [3], "fer": [1, 6], "coeff": [{"q": [-48, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [1], "fer": [1, 3, 4, 6], "coeff": '
            '[{"q": [48, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": '
            '[1, 6], "coeff": [{"q": [12, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [5], "fer": [2, 6], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3], "fer": [2, 3, '
            '4, 6], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [3], "fer": [2, 6], "coeff": [{"q": [-48, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [1], "fer": [2, 3, 4, 6], "coeff": '
            '[{"q": [48, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": '
            '[2, 6], "coeff": [{"q": [12, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [5], "fer": [3, 6], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3], "fer": [1, 2, '
            '3, 6], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [3], "fer": [3, 6], "coeff": [{"q": [-48, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [1], "fer": [1, 2, 3, 6], "coeff": '
            '[{"q": [48, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": '
            '[3, 6], "coeff": [{"q": [12, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [5], "fer": [4, 6], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3], "fer": [1, 2, '
            '4, 6], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [3], "fer": [4, 6], "coeff": [{"q": [-48, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [1], "fer": [1, 2, 4, 6], "coeff": '
            '[{"q": [48, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": '
            '[4, 6], "coeff": [{"q": [12, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [7], "fer": [], "coeff": [{"q": [-32, '
            '3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [5], "fer": [1, 2], '
            '"coeff": [{"q": [64, 3, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[5], "fer": [3, 4], "coeff": [{"q": [64, 3, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [5], "fer": [5, 6], "coeff": [{"q": [112, '
            '3, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3], "fer": [1, 2, 3, '
            '4], "coeff": [{"q": [-64, 3, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [3], "fer": [1, 2, 5, 6], "coeff": [{"q": [-160, 3, 0, '
            '1], "b": 0, "eps": 0}]}, {"bos": [3], "fer": [3, 4, 5, 6], '
            '"coeff": [{"q": [-160, 3, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[1], "fer": [1, 2, 3, 4, 5, 6], "coeff": [{"q": [32, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [5], "fer": [], "coeff": [{"q": '
            '[32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [3], "fer": [1, 2], '
            '"coeff": [{"q": [-32, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[3], "fer": [3, 4], "coeff": [{"q": [-32, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [3], "fer": [5, 6], "coeff": [{"q": [-80, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [1, 2, 5, '
            '6], "coeff": [{"q": [48, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[1], "fer": [3, 4, 5, 6], "coeff": [{"q": [48, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [3], "fer": [], "coeff": [{"q": [-8, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [1], "fer": [5, 6], '
            '"coeff": [{"q": [12, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [6], "fer": [3], "coeff": [{"q": [-32, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4], "fer": [1, 2, 3], '
            '"coeff": [{"q": [80, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[4], "fer": [3, 5, 6], "coeff": [{"q": [64, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2], "fer": [1, 2, 3, 5, 6], "coeff": '
            '[{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4], "fer": '
            '[3], "coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2], "fer": [1, 2, 3], "coeff": [{"q": [-144, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [2], "fer": [3, 5, 6], "coeff": '
            '[{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": '
            '[1, 2, 3, 5, 6], "coeff": [{"q": [48, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [2], "fer": [3], "coeff": [{"q": [-24, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 2, 3], "coeff": '
            '[{"q": [12, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [6], "fer": [4], "coeff": [{"q": [-32, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4], "fer": [1, 2, 4], '
            '"coeff": [{"q": [80, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[4], "fer": [4, 5, 6], "coeff": [{"q": [64, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2], "fer": [1, 2, 4, 5, 6], "coeff": '
            '[{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4], "fer": '
            '[4], "coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2], "fer": [1, 2, 4], "coeff": [{"q": [-144, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [2], "fer": [4, 5, 6], "coeff": '
            '[{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": '
            '[1, 2, 4, 5, 6], "coeff": [{"q": [48, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [2], "fer": [4], "coeff": [{"q": [-24, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 2, 4], "coeff": '
            '[{"q": [12, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [6], "fer": [1], "coeff": [{"q": [-32, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4], "fer": [1, 3, 4], '
            '"coeff": [{"q": [80, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[4], "fer": [1, 5, 6], "coeff": [{"q": [64, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2], "fer": [1, 3, 4, 5, 6], "coeff": '
            '[{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4], "fer": '
            '[1], "coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2], "fer": [1, 3, 4], "coeff": [{"q": [-144, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [2], "fer": [1, 5, 6], "coeff": '
            '[{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": '
            '[1, 3, 4, 5, 6], "coeff": [{"q": [48, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [2], "fer": [1], "coeff": [{"q": [-24, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 3, 4], "coeff": '
            '[{"q": [12, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [6], "fer": [2], "coeff": [{"q": [-32, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4], "fer": [2, 3, 4], '
            '"coeff": [{"q": [80, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[4], "fer": [2, 5, 6], "coeff": [{"q": [64, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2], "fer": [2, 3, 4, 5, 6], "coeff": '
            '[{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4], "fer": '
            '[2], "coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2], "fer": [2, 3, 4], "coeff": [{"q": [-144, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [2], "fer": [2, 5, 6], "coeff": '
            '[{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": '
            '[2, 3, 4, 5, 6], "coeff": [{"q": [48, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [2], "fer": [2], "coeff": [{"q": [-24, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0], "fer": [2, 3, 4], "coeff": '
            '[{"q": [12, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [6], "fer": [5], "coeff": [{"q": [-32, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4], "fer": [1, 2, 5], '
            '"coeff": [{"q": [80, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[4], "fer": [3, 4, 5], "coeff": [{"q": [64, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2], "fer": [1, 2, 3, 4, 5], "coeff": '
            '[{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4], "fer": '
            '[5], "coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2], "fer": [1, 2, 5], "coeff": [{"q": [-144, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [2], "fer": [3, 4, 5], "coeff": '
            '[{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": '
            '[1, 2, 3, 4, 5], "coeff": [{"q": [48, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [2], "fer": [5], "coeff": [{"q": [-24, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 2, 5], "coeff": '
            '[{"q": [12, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [1, 3, 5], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [1, 3, '
            '5], "coeff": [{"q": [-48, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0], "fer": [1, 3, 5], "coeff": [{"q": [12, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [2, 3, 5], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [2, 3, '
            '5], "coeff": [{"q": [-48, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0], "fer": [2, 3, 5], "coeff": [{"q": [12, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [1, 4, 5], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [1, 4, '
            '5], "coeff": [{"q": [-48, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0], "fer": [1, 4, 5], "coeff": [{"q": [12, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [2, 4, 5], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [2, 4, '
            '5], "coeff": [{"q": [-48, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0], "fer": [2, 4, 5], "coeff": [{"q": [12, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [6], "fer": [5], "coeff": [{"q": [-32, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4], "fer": [1, 2, 5], '
            '"coeff": [{"q": [64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[4], "fer": [3, 4, 5], "coeff": [{"q": [80, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2], "fer": [1, 2, 3, 4, 5], "coeff": '
            '[{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4], "fer": '
            '[5], "coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2], "fer": [1, 2, 5], "coeff": [{"q": [-96, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [2], "fer": [3, 4, 5], "coeff": '
            '[{"q": [-144, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], '
            '"fer": [1, 2, 3, 4, 5], "coeff": [{"q": [48, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2], "fer": [5], "coeff": [{"q": [-24, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [3, 4, 5], '
            '"coeff": [{"q": [12, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [6], "fer": [6], "coeff": [{"q": [-32, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4], "fer": [1, 2, 6], '
            '"coeff": [{"q": [80, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[4], "fer": [3, 4, 6], "coeff": [{"q": [64, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2], "fer": [1, 2, 3, 4, 6], "coeff": '
            '[{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4], "fer": '
            '[6], "coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2], "fer": [1, 2, 6], "coeff": [{"q": [-144, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [2], "fer": [3, 4, 6], "coeff": '
            '[{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": '
            '[1, 2, 3, 4, 6], "coeff": [{"q": [48, 1, 0, 1], "b": 0, "eps": '
            '0}]}, {"bos": [2], "fer": [6], "coeff": [{"q": [-24, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 2, 6], "coeff": '
            '[{"q": [12, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [1, 3, 6], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [1, 3, '
            '6], "coeff": [{"q": [-48, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0], "fer": [1, 3, 6], "coeff": [{"q": [12, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [2, 3, 6], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [2, 3, '
            '6], "coeff": [{"q": [-48, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0], "fer": [2, 3, 6], "coeff": [{"q": [12, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [1, 4, 6], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [1, 4, '
            '6], "coeff": [{"q": [-48, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0], "fer": [1, 4, 6], "coeff": [{"q": [12, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [4], "fer": [2, 4, 6], "coeff": [{"q": '
            '[16, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [2], "fer": [2, 4, '
            '6], "coeff": [{"q": [-48, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0], "fer": [2, 4, 6], "coeff": [{"q": [12, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [6], "fer": [6], "coeff": [{"q": [-32, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4], "fer": [1, 2, 6], '
            '"coeff": [{"q": [64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[4], "fer": [3, 4, 6], "coeff": [{"q": [80, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2], "fer": [1, 2, 3, 4, 6], "coeff": '
            '[{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4], "fer": '
            '[6], "coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2], "fer": [1, 2, 6], "coeff": [{"q": [-96, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [2], "fer": [3, 4, 6], "coeff": '
            '[{"q": [-144, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], '
            '"fer": [1, 2, 3, 4, 6], "coeff": [{"q": [48, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2], "fer": [6], "coeff": [{"q": [-24, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [3, 4, 6], '
            '"coeff": [{"q": [12, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [6], "fer": [1], "coeff": [{"q": [-32, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4], "fer": [1, 3, 4], '
            '"coeff": [{"q": [64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[4], "fer": [1, 5, 6], "coeff": [{"q": [80, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2], "fer": [1, 3, 4, 5, 6], "coeff": '
            '[{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4], "fer": '
            '[1], "coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2], "fer": [1, 3, 4], "coeff": [{"q": [-96, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [2], "fer": [1, 5, 6], "coeff": '
            '[{"q": [-144, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], '
            '"fer": [1, 3, 4, 5, 6], "coeff": [{"q": [48, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2], "fer": [1], "coeff": [{"q": [-24, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [1, 5, 6], '
            '"coeff": [{"q": [12, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [6], "fer": [2], "coeff": [{"q": [-32, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4], "fer": [2, 3, 4], '
            '"coeff": [{"q": [64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[4], "fer": [2, 5, 6], "coeff": [{"q": [80, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2], "fer": [2, 3, 4, 5, 6], "coeff": '
            '[{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4], "fer": '
            '[2], "coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2], "fer": [2, 3, 4], "coeff": [{"q": [-96, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [2], "fer": [2, 5, 6], "coeff": '
            '[{"q": [-144, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], '
            '"fer": [2, 3, 4, 5, 6], "coeff": [{"q": [48, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2], "fer": [2], "coeff": [{"q": [-24, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [2, 5, 6], '
            '"coeff": [{"q": [12, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [6], "fer": [3], "coeff": [{"q": [-32, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4], "fer": [1, 2, 3], '
            '"coeff": [{"q": [64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[4], "fer": [3, 5, 6], "coeff": [{"q": [80, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2], "fer": [1, 2, 3, 5, 6], "coeff": '
            '[{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4], "fer": '
            '[3], "coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2], "fer": [1, 2, 3], "coeff": [{"q": [-96, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [2], "fer": [3, 5, 6], "coeff": '
            '[{"q": [-144, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], '
            '"fer": [1, 2, 3, 5, 6], "coeff": [{"q": [48, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2], "fer": [3], "coeff": [{"q": [-24, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [3, 5, 6], '
            '"coeff": [{"q": [12, 1, 0, 1], "b": 0, "eps": 0}]}]}\n'
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'true, "terms": [{"bos": [6], "fer": [4], "coeff": [{"q": [-32, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4], "fer": [1, 2, 4], '
            '"coeff": [{"q": [64, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[4], "fer": [4, 5, 6], "coeff": [{"q": [80, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2], "fer": [1, 2, 4, 5, 6], "coeff": '
            '[{"q": [-96, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [4], "fer": '
            '[4], "coeff": [{"q": [96, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [2], "fer": [1, 2, 4], "coeff": [{"q": [-96, 1, 0, 1], '
            '"b": 0, "eps": 0}]}, {"bos": [2], "fer": [4, 5, 6], "coeff": '
            '[{"q": [-144, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], '
            '"fer": [1, 2, 4, 5, 6], "coeff": [{"q": [48, 1, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [2], "fer": [4], "coeff": [{"q": [-24, 1, '
            '0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [4, 5, 6], '
            '"coeff": [{"q": [12, 1, 0, 1], "b": 0, "eps": 0}]}]}',
            '-32/3 x_{1}^{7} e^{x^2/2} + 112/3 x_{1}^{5}q_{1}q_{2} e^{x^2/2}'
            ' + 64/3 x_{1}^{5}q_{3}q_{4} e^{x^2/2} + 64/3 x_{1}^{5}q_{5}q_{6'
            '} e^{x^2/2} - 160/3 x_{1}^{3}q_{1}q_{2}q_{3}q_{4} e^{x^2/2} - 1'
            '60/3 x_{1}^{3}q_{1}q_{2}q_{5}q_{6} e^{x^2/2} - 64/3 x_{1}^{3}q_'
            '{3}q_{4}q_{5}q_{6} e^{x^2/2} + 32 x_{1}q_{1}q_{2}q_{3}q_{4}q_{5'
            '}q_{6} e^{x^2/2} + 32 x_{1}^{5} e^{x^2/2} - 80 x_{1}^{3}q_{1}q_'
            '{2} e^{x^2/2} - 32 x_{1}^{3}q_{3}q_{4} e^{x^2/2} - 32 x_{1}^{3}'
            'q_{5}q_{6} e^{x^2/2} + 48 x_{1}q_{1}q_{2}q_{3}q_{4} e^{x^2/2} +'
            ' 48 x_{1}q_{1}q_{2}q_{5}q_{6} e^{x^2/2} - 8 x_{1}^{3} e^{x^2/2}'
            ' + 12 x_{1}q_{1}q_{2} e^{x^2/2}\n16 x_{1}^{5}q_{1}q_{3} e^{x^2/'
            '2} - 32 x_{1}^{3}q_{1}q_{3}q_{5}q_{6} e^{x^2/2} - 48 x_{1}^{3}q'
            '_{1}q_{3} e^{x^2/2} + 48 x_{1}q_{1}q_{3}q_{5}q_{6} e^{x^2/2} + '
            '12 x_{1}q_{1}q_{3} e^{x^2/2}\n16 x_{1}^{5}q_{2}q_{3} e^{x^2/2} '
            '- 32 x_{1}^{3}q_{2}q_{3}q_{5}q_{6} e^{x^2/2} - 48 x_{1}^{3}q_{2'
            '}q_{3} e^{x^2/2} + 48 x_{1}q_{2}q_{3}q_{5}q_{6} e^{x^2/2} + 12 '
            'x_{1}q_{2}q_{3} e^{x^2/2}\n16 x_{1}^{5}q_{1}q_{4} e^{x^2/2} - 3'
            '2 x_{1}^{3}q_{1}q_{4}q_{5}q_{6} e^{x^2/2} - 48 x_{1}^{3}q_{1}q_'
            '{4} e^{x^2/2} + 48 x_{1}q_{1}q_{4}q_{5}q_{6} e^{x^2/2} + 12 x_{'
            '1}q_{1}q_{4} e^{x^2/2}\n16 x_{1}^{5}q_{2}q_{4} e^{x^2/2} - 32 x'
            '_{1}^{3}q_{2}q_{4}q_{5}q_{6} e^{x^2/2} - 48 x_{1}^{3}q_{2}q_{4}'
            ' e^{x^2/2} + 48 x_{1}q_{2}q_{4}q_{5}q_{6} e^{x^2/2} + 12 x_{1}q'
            '_{2}q_{4} e^{x^2/2}\n-32/3 x_{1}^{7} e^{x^2/2} + 64/3 x_{1}^{5}'
            'q_{1}q_{2} e^{x^2/2} + 112/3 x_{1}^{5}q_{3}q_{4} e^{x^2/2} + 64'
            '/3 x_{1}^{5}q_{5}q_{6} e^{x^2/2} - 160/3 x_{1}^{3}q_{1}q_{2}q_{'
            '3}q_{4} e^{x^2/2} - 64/3 x_{1}^{3}q_{1}q_{2}q_{5}q_{6} e^{x^2/2'
            '} - 160/3 x_{1}^{3}q_{3}q_{4}q_{5}q_{6} e^{x^2/2} + 32 x_{1}q_{'
            '1}q_{2}q_{3}q_{4}q_{5}q_{6} e^{x^2/2} + 32 x_{1}^{5} e^{x^2/2} '
            '- 32 x_{1}^{3}q_{1}q_{2} e^{x^2/2} - 80 x_{1}^{3}q_{3}q_{4} e^{'
            'x^2/2} - 32 x_{1}^{3}q_{5}q_{6} e^{x^2/2} + 48 x_{1}q_{1}q_{2}q'
            '_{3}q_{4} e^{x^2/2} + 48 x_{1}q_{3}q_{4}q_{5}q_{6} e^{x^2/2} - '
            '8 x_{1}^{3} e^{x^2/2} + 12 x_{1}q_{3}q_{4} e^{x^2/2}\n16 x_{1}^'
            '{5}q_{1}q_{5} e^{x^2/2} - 32 x_{1}^{3}q_{1}q_{3}q_{4}q_{5} e^{x'
            '^2/2} - 48 x_{1}^{3}q_{1}q_{5} e^{x^2/2} + 48 x_{1}q_{1}q_{3}q_'
            '{4}q_{5} e^{x^2/2} + 12 x_{1}q_{1}q_{5} e^{x^2/2}\n16 x_{1}^{5}'
            'q_{2}q_{5} e^{x^2/2} - 32 x_{1}^{3}q_{2}q_{3}q_{4}q_{5} e^{x^2/'
            '2} - 48 x_{1}^{3}q_{2}q_{5} e^{x^2/2} + 48 x_{1}q_{2}q_{3}q_{4}'
            'q_{5} e^{x^2/2} + 12 x_{1}q_{2}q_{5} e^{x^2/2}\n16 x_{1}^{5}q_{'
            '3}q_{5} e^{x^2/2} - 32 x_{1}^{3}q_{1}q_{2}q_{3}q_{5} e^{x^2/2} '
            '- 48 x_{1}^{3}q_{3}q_{5} e^{x^2/2} + 48 x_{1}q_{1}q_{2}q_{3}q_{'
            '5} e^{x^2/2} + 12 x_{1}q_{3}q_{5} e^{x^2/2}\n16 x_{1}^{5}q_{4}q'
            '_{5} e^{x^2/2} - 32 x_{1}^{3}q_{1}q_{2}q_{4}q_{5} e^{x^2/2} - 4'
            '8 x_{1}^{3}q_{4}q_{5} e^{x^2/2} + 48 x_{1}q_{1}q_{2}q_{4}q_{5} '
            'e^{x^2/2} + 12 x_{1}q_{4}q_{5} e^{x^2/2}\n16 x_{1}^{5}q_{1}q_{6'
            '} e^{x^2/2} - 32 x_{1}^{3}q_{1}q_{3}q_{4}q_{6} e^{x^2/2} - 48 x'
            '_{1}^{3}q_{1}q_{6} e^{x^2/2} + 48 x_{1}q_{1}q_{3}q_{4}q_{6} e^{'
            'x^2/2} + 12 x_{1}q_{1}q_{6} e^{x^2/2}\n16 x_{1}^{5}q_{2}q_{6} e'
            '^{x^2/2} - 32 x_{1}^{3}q_{2}q_{3}q_{4}q_{6} e^{x^2/2} - 48 x_{1'
            '}^{3}q_{2}q_{6} e^{x^2/2} + 48 x_{1}q_{2}q_{3}q_{4}q_{6} e^{x^2'
            '/2} + 12 x_{1}q_{2}q_{6} e^{x^2/2}\n16 x_{1}^{5}q_{3}q_{6} e^{x'
            '^2/2} - 32 x_{1}^{3}q_{1}q_{2}q_{3}q_{6} e^{x^2/2} - 48 x_{1}^{'
            '3}q_{3}q_{6} e^{x^2/2} + 48 x_{1}q_{1}q_{2}q_{3}q_{6} e^{x^2/2}'
            ' + 12 x_{1}q_{3}q_{6} e^{x^2/2}\n16 x_{1}^{5}q_{4}q_{6} e^{x^2/'
            '2} - 32 x_{1}^{3}q_{1}q_{2}q_{4}q_{6} e^{x^2/2} - 48 x_{1}^{3}q'
            '_{4}q_{6} e^{x^2/2} + 48 x_{1}q_{1}q_{2}q_{4}q_{6} e^{x^2/2} + '
            '12 x_{1}q_{4}q_{6} e^{x^2/2}\n-32/3 x_{1}^{7} e^{x^2/2} + 64/3 '
            'x_{1}^{5}q_{1}q_{2} e^{x^2/2} + 64/3 x_{1}^{5}q_{3}q_{4} e^{x^2'
            '/2} + 112/3 x_{1}^{5}q_{5}q_{6} e^{x^2/2} - 64/3 x_{1}^{3}q_{1}'
            'q_{2}q_{3}q_{4} e^{x^2/2} - 160/3 x_{1}^{3}q_{1}q_{2}q_{5}q_{6}'
            ' e^{x^2/2} - 160/3 x_{1}^{3}q_{3}q_{4}q_{5}q_{6} e^{x^2/2} + 32'
            ' x_{1}q_{1}q_{2}q_{3}q_{4}q_{5}q_{6} e^{x^2/2} + 32 x_{1}^{5} e'
            '^{x^2/2} - 32 x_{1}^{3}q_{1}q_{2} e^{x^2/2} - 32 x_{1}^{3}q_{3}'
            'q_{4} e^{x^2/2} - 80 x_{1}^{3}q_{5}q_{6} e^{x^2/2} + 48 x_{1}q_'
            '{1}q_{2}q_{5}q_{6} e^{x^2/2} + 48 x_{1}q_{3}q_{4}q_{5}q_{6} e^{'
            'x^2/2} - 8 x_{1}^{3} e^{x^2/2} + 12 x_{1}q_{5}q_{6} e^{x^2/2}\n'
            '-32 x_{1}^{6}q_{3} e^{x^2/2} + 80 x_{1}^{4}q_{1}q_{2}q_{3} e^{x'
            '^2/2} + 64 x_{1}^{4}q_{3}q_{5}q_{6} e^{x^2/2} - 96 x_{1}^{2}q_{'
            '1}q_{2}q_{3}q_{5}q_{6} e^{x^2/2} + 96 x_{1}^{4}q_{3} e^{x^2/2} '
            '- 144 x_{1}^{2}q_{1}q_{2}q_{3} e^{x^2/2} - 96 x_{1}^{2}q_{3}q_{'
            '5}q_{6} e^{x^2/2} + 48 q_{1}q_{2}q_{3}q_{5}q_{6} e^{x^2/2} - 24'
            ' x_{1}^{2}q_{3} e^{x^2/2} + 12 q_{1}q_{2}q_{3} e^{x^2/2}\n-32 x'
            '_{1}^{6}q_{4} e^{x^2/2} + 80 x_{1}^{4}q_{1}q_{2}q_{4} e^{x^2/2}'
            ' + 64 x_{1}^{4}q_{4}q_{5}q_{6} e^{x^2/2} - 96 x_{1}^{2}q_{1}q_{'
            '2}q_{4}q_{5}q_{6} e^{x^2/2} + 96 x_{1}^{4}q_{4} e^{x^2/2} - 144'
            ' x_{1}^{2}q_{1}q_{2}q_{4} e^{x^2/2} - 96 x_{1}^{2}q_{4}q_{5}q_{'
            '6} e^{x^2/2} + 48 q_{1}q_{2}q_{4}q_{5}q_{6} e^{x^2/2} - 24 x_{1'
            '}^{2}q_{4} e^{x^2/2} + 12 q_{1}q_{2}q_{4} e^{x^2/2}\n-32 x_{1}^'
            '{6}q_{1} e^{x^2/2} + 80 x_{1}^{4}q_{1}q_{3}q_{4} e^{x^2/2} + 64'
            ' x_{1}^{4}q_{1}q_{5}q_{6} e^{x^2/2} - 96 x_{1}^{2}q_{1}q_{3}q_{'
            '4}q_{5}q_{6} e^{x^2/2} + 96 x_{1}^{4}q_{1} e^{x^2/2} - 144 x_{1'
            '}^{2}q_{1}q_{3}q_{4} e^{x^2/2} - 96 x_{1}^{2}q_{1}q_{5}q_{6} e^'
            '{x^2/2} + 48 q_{1}q_{3}q_{4}q_{5}q_{6} e^{x^2/2} - 24 x_{1}^{2}'
            'q_{1} e^{x^2/2} + 12 q_{1}q_{3}q_{4} e^{x^2/2}\n-32 x_{1}^{6}q_'
            '{2} e^{x^2/2} + 80 x_{1}^{4}q_{2}q_{3}q_{4} e^{x^2/2} + 64 x_{1'
            '}^{4}q_{2}q_{5}q_{6} e^{x^2/2} - 96 x_{1}^{2}q_{2}q_{3}q_{4}q_{'
            '5}q_{6} e^{x^2/2} + 96 x_{1}^{4}q_{2} e^{x^2/2} - 144 x_{1}^{2}'
            'q_{2}q_{3}q_{4} e^{x^2/2} - 96 x_{1}^{2}q_{2}q_{5}q_{6} e^{x^2/'
            '2} + 48 q_{2}q_{3}q_{4}q_{5}q_{6} e^{x^2/2} - 24 x_{1}^{2}q_{2}'
            ' e^{x^2/2} + 12 q_{2}q_{3}q_{4} e^{x^2/2}\n-32 x_{1}^{6}q_{5} e'
            '^{x^2/2} + 80 x_{1}^{4}q_{1}q_{2}q_{5} e^{x^2/2} + 64 x_{1}^{4}'
            'q_{3}q_{4}q_{5} e^{x^2/2} - 96 x_{1}^{2}q_{1}q_{2}q_{3}q_{4}q_{'
            '5} e^{x^2/2} + 96 x_{1}^{4}q_{5} e^{x^2/2} - 144 x_{1}^{2}q_{1}'
            'q_{2}q_{5} e^{x^2/2} - 96 x_{1}^{2}q_{3}q_{4}q_{5} e^{x^2/2} + '
            '48 q_{1}q_{2}q_{3}q_{4}q_{5} e^{x^2/2} - 24 x_{1}^{2}q_{5} e^{x'
            '^2/2} + 12 q_{1}q_{2}q_{5} e^{x^2/2}\n16 x_{1}^{4}q_{1}q_{3}q_{'
            '5} e^{x^2/2} - 48 x_{1}^{2}q_{1}q_{3}q_{5} e^{x^2/2} + 12 q_{1}'
            'q_{3}q_{5} e^{x^2/2}\n16 x_{1}^{4}q_{2}q_{3}q_{5} e^{x^2/2} - 4'
            '8 x_{1}^{2}q_{2}q_{3}q_{5} e^{x^2/2} + 12 q_{2}q_{3}q_{5} e^{x^'
            '2/2}\n16 x_{1}^{4}q_{1}q_{4}q_{5} e^{x^2/2} - 48 x_{1}^{2}q_{1}'
            'q_{4}q_{5} e^{x^2/2} + 12 q_{1}q_{4}q_{5} e^{x^2/2}\n16 x_{1}^{'
            '4}q_{2}q_{4}q_{5} e^{x^2/2} - 48 x_{1}^{2}q_{2}q_{4}q_{5} e^{x^'
            '2/2} + 12 q_{2}q_{4}q_{5} e^{x^2/2}\n-32 x_{1}^{6}q_{5} e^{x^2/'
            '2} + 64 x_{1}^{4}q_{1}q_{2}q_{5} e^{x^2/2} + 80 x_{1}^{4}q_{3}q'
            '_{4}q_{5} e^{x^2/2} - 96 x_{1}^{2}q_{1}q_{2}q_{3}q_{4}q_{5} e^{'
            'x^2/2} + 96 x_{1}^{4}q_{5} e^{x^2/2} - 96 x_{1}^{2}q_{1}q_{2}q_'
            '{5} e^{x^2/2} - 144 x_{1}^{2}q_{3}q_{4}q_{5} e^{x^2/2} + 48 q_{'
            '1}q_{2}q_{3}q_{4}q_{5} e^{x^2/2} - 24 x_{1}^{2}q_{5} e^{x^2/2} '
            '+ 12 q_{3}q_{4}q_{5} e^{x^2/2}\n-32 x_{1}^{6}q_{6} e^{x^2/2} + '
            '80 x_{1}^{4}q_{1}q_{2}q_{6} e^{x^2/2} + 64 x_{1}^{4}q_{3}q_{4}q'
            '_{6} e^{x^2/2} - 96 x_{1}^{2}q_{1}q_{2}q_{3}q_{4}q_{6} e^{x^2/2'
            '} + 96 x_{1}^{4}q_{6} e^{x^2/2} - 144 x_{1}^{2}q_{1}q_{2}q_{6} '
            'e^{x^2/2} - 96 x_{1}^{2}q_{3}q_{4}q_{6} e^{x^2/2} + 48 q_{1}q_{'
            '2}q_{3}q_{4}q_{6} e^{x^2/2} - 24 x_{1}^{2}q_{6} e^{x^2/2} + 12 '
            'q_{1}q_{2}q_{6} e^{x^2/2}\n16 x_{1}^{4}q_{1}q_{3}q_{6} e^{x^2/2'
            '} - 48 x_{1}^{2}q_{1}q_{3}q_{6} e^{x^2/2} + 12 q_{1}q_{3}q_{6} '
            'e^{x^2/2}\n16 x_{1}^{4}q_{2}q_{3}q_{6} e^{x^2/2} - 48 x_{1}^{2}'
            'q_{2}q_{3}q_{6} e^{x^2/2} + 12 q_{2}q_{3}q_{6} e^{x^2/2}\n16 x_'
            '{1}^{4}q_{1}q_{4}q_{6} e^{x^2/2} - 48 x_{1}^{2}q_{1}q_{4}q_{6} '
            'e^{x^2/2} + 12 q_{1}q_{4}q_{6} e^{x^2/2}\n16 x_{1}^{4}q_{2}q_{4'
            '}q_{6} e^{x^2/2} - 48 x_{1}^{2}q_{2}q_{4}q_{6} e^{x^2/2} + 12 q'
            '_{2}q_{4}q_{6} e^{x^2/2}\n-32 x_{1}^{6}q_{6} e^{x^2/2} + 64 x_{'
            '1}^{4}q_{1}q_{2}q_{6} e^{x^2/2} + 80 x_{1}^{4}q_{3}q_{4}q_{6} e'
            '^{x^2/2} - 96 x_{1}^{2}q_{1}q_{2}q_{3}q_{4}q_{6} e^{x^2/2} + 96'
            ' x_{1}^{4}q_{6} e^{x^2/2} - 96 x_{1}^{2}q_{1}q_{2}q_{6} e^{x^2/'
            '2} - 144 x_{1}^{2}q_{3}q_{4}q_{6} e^{x^2/2} + 48 q_{1}q_{2}q_{3'
            '}q_{4}q_{6} e^{x^2/2} - 24 x_{1}^{2}q_{6} e^{x^2/2} + 12 q_{3}q'
            '_{4}q_{6} e^{x^2/2}\n-32 x_{1}^{6}q_{1} e^{x^2/2} + 64 x_{1}^{4'
            '}q_{1}q_{3}q_{4} e^{x^2/2} + 80 x_{1}^{4}q_{1}q_{5}q_{6} e^{x^2'
            '/2} - 96 x_{1}^{2}q_{1}q_{3}q_{4}q_{5}q_{6} e^{x^2/2} + 96 x_{1'
            '}^{4}q_{1} e^{x^2/2} - 96 x_{1}^{2}q_{1}q_{3}q_{4} e^{x^2/2} - '
            '144 x_{1}^{2}q_{1}q_{5}q_{6} e^{x^2/2} + 48 q_{1}q_{3}q_{4}q_{5'
            '}q_{6} e^{x^2/2} - 24 x_{1}^{2}q_{1} e^{x^2/2} + 12 q_{1}q_{5}q'
            '_{6} e^{x^2/2}\n-32 x_{1}^{6}q_{2} e^{x^2/2} + 64 x_{1}^{4}q_{2'
            '}q_{3}q_{4} e^{x^2/2} + 80 x_{1}^{4}q_{2}q_{5}q_{6} e^{x^2/2} -'
            ' 96 x_{1}^{2}q_{2}q_{3}q_{4}q_{5}q_{6} e^{x^2/2} + 96 x_{1}^{4}'
            'q_{2} e^{x^2/2} - 96 x_{1}^{2}q_{2}q_{3}q_{4} e^{x^2/2} - 144 x'
            '_{1}^{2}q_{2}q_{5}q_{6} e^{x^2/2} + 48 q_{2}q_{3}q_{4}q_{5}q_{6'
            '} e^{x^2/2} - 24 x_{1}^{2}q_{2} e^{x^2/2} + 12 q_{2}q_{5}q_{6} '
            'e^{x^2/2}\n-32 x_{1}^{6}q_{3} e^{x^2/2} + 64 x_{1}^{4}q_{1}q_{2'
            '}q_{3} e^{x^2/2} + 80 x_{1}^{4}q_{3}q_{5}q_{6} e^{x^2/2} - 96 x'
            '_{1}^{2}q_{1}q_{2}q_{3}q_{5}q_{6} e^{x^2/2} + 96 x_{1}^{4}q_{3}'
            ' e^{x^2/2} - 96 x_{1}^{2}q_{1}q_{2}q_{3} e^{x^2/2} - 144 x_{1}^'
            '{2}q_{3}q_{5}q_{6} e^{x^2/2} + 48 q_{1}q_{2}q_{3}q_{5}q_{6} e^{'
            'x^2/2} - 24 x_{1}^{2}q_{3} e^{x^2/2} + 12 q_{3}q_{5}q_{6} e^{x^'
            '2/2}\n-32 x_{1}^{6}q_{4} e^{x^2/2} + 64 x_{1}^{4}q_{1}q_{2}q_{4'
            '} e^{x^2/2} + 80 x_{1}^{4}q_{4}q_{5}q_{6} e^{x^2/2} - 96 x_{1}^'
            '{2}q_{1}q_{2}q_{4}q_{5}q_{6} e^{x^2/2} + 96 x_{1}^{4}q_{4} e^{x'
            '^2/2} - 96 x_{1}^{2}q_{1}q_{2}q_{4} e^{x^2/2} - 144 x_{1}^{2}q_'
            '{4}q_{5}q_{6} e^{x^2/2} + 48 q_{1}q_{2}q_{4}q_{5}q_{6} e^{x^2/2'
            '} - 24 x_{1}^{2}q_{4} e^{x^2/2} + 12 q_{4}q_{5}q_{6} e^{x^2/2}',
        ),
        (
            'degree 3: dim nullspace 35, dim formula 35 [ok]',
            '{"k": 3, "dim_nullspace": 35, "dim_formula": 35, "dims_match": '
            'true, "product_failures": [], "products_harmonic": true, '
            '"schema": "supertransform/1", "basis": [{"schema": '
            '"supertransform/1", "m": 1, "n": 3, "envelope": false, "terms": '
            '[{"bos": [3], "fer": [], "coeff": [{"q": [-2, 3, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [1], "fer": [1, 2], "coeff": [{"q": [1, 1, '
            '0, 1], "b": 0, "eps": 0}]}]}, {"schema": "supertransform/1", '
            '"m": 1, "n": 3, "envelope": false, "terms": [{"bos": [1], '
            '"fer": [1, 3], "coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}, {"schema": "supertransform/1", "m": 1, "n": 3, '
            '"envelope": false, "terms": [{"bos": [1], "fer": [2, 3], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 1, "n": 3, "envelope": false, "terms": '
            '[{"bos": [1], "fer": [1, 4], "coeff": [{"q": [1, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}, {"schema": "supertransform/1", "m": 1, "n": '
            '3, "envelope": false, "terms": [{"bos": [1], "fer": [2, 4], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 1, "n": 3, "envelope": false, "terms": '
            '[{"bos": [3], "fer": [], "coeff": [{"q": [-2, 3, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [1], "fer": [3, 4], "coeff": [{"q": [1, 1, '
            '0, 1], "b": 0, "eps": 0}]}]}, {"schema": "supertransform/1", '
            '"m": 1, "n": 3, "envelope": false, "terms": [{"bos": [1], '
            '"fer": [1, 5], "coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": '
            '0}]}]}, {"schema": "supertransform/1", "m": 1, "n": 3, '
            '"envelope": false, "terms": [{"bos": [1], "fer": [2, 5], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 1, "n": 3, "envelope": false, "terms": '
            '[{"bos": [1], "fer": [3, 5], "coeff": [{"q": [1, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}, {"schema": "supertransform/1", "m": 1, "n": '
            '3, "envelope": false, "terms": [{"bos": [1], "fer": [4, 5], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 1, "n": 3, "envelope": false, "terms": '
            '[{"bos": [1], "fer": [1, 6], "coeff": [{"q": [1, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}, {"schema": "supertransform/1", "m": 1, "n": '
            '3, "envelope": false, "terms": [{"bos": [1], "fer": [2, 6], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 1, "n": 3, "envelope": false, "terms": '
            '[{"bos": [1], "fer": [3, 6], "coeff": [{"q": [1, 1, 0, 1], "b": '
            '0, "eps": 0}]}]}, {"schema": "supertransform/1", "m": 1, "n": '
            '3, "envelope": false, "terms": [{"bos": [1], "fer": [4, 6], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 1, "n": 3, "envelope": false, "terms": '
            '[{"bos": [3], "fer": [], "coeff": [{"q": [-2, 3, 0, 1], "b": 0, '
            '"eps": 0}]}, {"bos": [1], "fer": [5, 6], "coeff": [{"q": [1, 1, '
            '0, 1], "b": 0, "eps": 0}]}]}, {"schema": "supertransform/1", '
            '"m": 1, "n": 3, "envelope": false, "terms": [{"bos": [2], '
            '"fer": [3], "coeff": [{"q": [-2, 1, 0, 1], "b": 0, "eps": 0}]}, '
            '{"bos": [0], "fer": [1, 2, 3], "coeff": [{"q": [1, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}, {"schema": "supertransform/1", "m": 1, '
            '"n": 3, "envelope": false, "terms": [{"bos": [2], "fer": [4], '
            '"coeff": [{"q": [-2, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0], "fer": [1, 2, 4], "coeff": [{"q": [1, 1, 0, 1], "b": 0, '
            '"eps": 0}]}]}, {"schema": "supertransform/1", "m": 1, "n": 3, '
            '"envelope": false, "terms": [{"bos": [2], "fer": [1], "coeff": '
            '[{"q": [-2, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": '
            '[1, 3, 4], "coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}, '
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'false, "terms": [{"bos": [2], "fer": [2], "coeff": [{"q": [-2, '
            '1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": [2, 3, 4], '
            '"coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 1, "n": 3, "envelope": false, "terms": '
            '[{"bos": [2], "fer": [5], "coeff": [{"q": [-2, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [0], "fer": [1, 2, 5], "coeff": [{"q": '
            '[1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 1, "n": 3, "envelope": false, "terms": '
            '[{"bos": [0], "fer": [1, 3, 5], "coeff": [{"q": [1, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}, {"schema": "supertransform/1", "m": 1, '
            '"n": 3, "envelope": false, "terms": [{"bos": [0], "fer": [2, 3, '
            '5], "coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}, '
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'false, "terms": [{"bos": [0], "fer": [1, 4, 5], "coeff": [{"q": '
            '[1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 1, "n": 3, "envelope": false, "terms": '
            '[{"bos": [0], "fer": [2, 4, 5], "coeff": [{"q": [1, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}, {"schema": "supertransform/1", "m": 1, '
            '"n": 3, "envelope": false, "terms": [{"bos": [2], "fer": [5], '
            '"coeff": [{"q": [-2, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": '
            '[0], "fer": [3, 4, 5], "coeff": [{"q": [1, 1, 0, 1], "b": 0, '
            '"eps": 0}]}]}, {"schema": "supertransform/1", "m": 1, "n": 3, '
            '"envelope": false, "terms": [{"bos": [2], "fer": [6], "coeff": '
            '[{"q": [-2, 1, 0, 1], "b": 0, "eps": 0}]}, {"bos": [0], "fer": '
            '[1, 2, 6], "coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}, '
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'false, "terms": [{"bos": [0], "fer": [1, 3, 6], "coeff": [{"q": '
            '[1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 1, "n": 3, "envelope": false, "terms": '
            '[{"bos": [0], "fer": [2, 3, 6], "coeff": [{"q": [1, 1, 0, 1], '
            '"b": 0, "eps": 0}]}]}, {"schema": "supertransform/1", "m": 1, '
            '"n": 3, "envelope": false, "terms": [{"bos": [0], "fer": [1, 4, '
            '6], "coeff": [{"q": [1, 1, 0, 1], "b": 0, "eps": 0}]}]}, '
            '{"schema": "supertransform/1", "m": 1, "n": 3, "envelope": '
            'false, "terms": [{"bos": [0], "fer": [2, 4, 6], "coeff": [{"q": '
            '[1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 1, "n": 3, "envelope": false, "terms": '
            '[{"bos": [2], "fer": [6], "coeff": [{"q": [-2, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [0], "fer": [3, 4, 6], "coeff": [{"q": '
            '[1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 1, "n": 3, "envelope": false, "terms": '
            '[{"bos": [2], "fer": [1], "coeff": [{"q": [-2, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [0], "fer": [1, 5, 6], "coeff": [{"q": '
            '[1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 1, "n": 3, "envelope": false, "terms": '
            '[{"bos": [2], "fer": [2], "coeff": [{"q": [-2, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [0], "fer": [2, 5, 6], "coeff": [{"q": '
            '[1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 1, "n": 3, "envelope": false, "terms": '
            '[{"bos": [2], "fer": [3], "coeff": [{"q": [-2, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [0], "fer": [3, 5, 6], "coeff": [{"q": '
            '[1, 1, 0, 1], "b": 0, "eps": 0}]}]}, {"schema": '
            '"supertransform/1", "m": 1, "n": 3, "envelope": false, "terms": '
            '[{"bos": [2], "fer": [4], "coeff": [{"q": [-2, 1, 0, 1], "b": '
            '0, "eps": 0}]}, {"bos": [0], "fer": [4, 5, 6], "coeff": [{"q": '
            '[1, 1, 0, 1], "b": 0, "eps": 0}]}]}]}',
            'degree 3: dim nullspace 35, dim formula 35 [ok]',
        ),
    ),
}
_BASES_SHA256 = {
    ('hermite', '--j', '0'): (
        'a1c65870f2b0f487418bf56698eb7d1409ea4de1252b2ede0c551fa1edd6f9c9',
        'ce0e0c3e97eb49cd1fe0f582d7d00ab749ac088226f528c91c54d9e4ff3ce165',
        '286a462510268a38585e0abb760128d5847e5745c07d0a11a385454b23d901f8',
    ),
    ('hermite', '--j', '1'): (
        'd24e879e52066145252f87cb24a6e281bb148d9f4c25dcbdec68933860fae89d',
        'ae8f22fcaf8124cd94ce52b4f75e0ee482838dcb45ec567878356b628673c7e2',
        '51180b51e7bd2ee4e4e370465258b637a100d12a867f0148fd8e7039acd6acb7',
    ),
    ('hermite', '--j', '2'): (
        '6809787aa1c596ffcdd5049e3cb920e5a181e8a226d7fc974e2cb8b624f109ff',
        '5547d59ba07d955026bc517394a297914a37a852066473e0806c040c8ab8b34b',
        '789e4fd28c41188c3204569efbcb5df500672f6155acb944ccb37c0f6f3d94f8',
    ),
    ('decompose',): (
        'e4f60515f223fc16be4193c388add654386d61be36c7a18d77cb8b60e636038f',
        'edf7b0d55350f0e12d405c4b7e35233152b414484f6b5aba331b80caf86be487',
        'e4f60515f223fc16be4193c388add654386d61be36c7a18d77cb8b60e636038f',
    ),
}


def _bases_stdout(capsys, m, n, fmt, command, k):
    code = main(["--m", str(m), "--n", str(n), "--format", fmt, *command,
                 "--k", str(k)])
    out = capsys.readouterr()
    assert (code, out.err) == (0, "")
    return out.out


@pytest.mark.parametrize("cmd", range(len(_BASES_COMMANDS)),
                         ids=[" ".join(c) for c in _BASES_COMMANDS])
@pytest.mark.parametrize("m, n, k", list(_BASES_GOLDEN))
def test_cli_bases_golden_outputs(capsys, m, n, k, cmd):
    for fmt, want in zip(_TRANSFORM_FORMATS, _BASES_GOLDEN[m, n, k][cmd]):
        assert _bases_stdout(capsys, m, n, fmt, _BASES_COMMANDS[cmd],
                             k) == want + "\n"


@pytest.mark.parametrize("command", list(_BASES_SHA256),
                         ids=[" ".join(c) for c in _BASES_SHA256])
def test_cli_bases_benchmark_sized_digests(capsys, command):
    for fmt, want in zip(_TRANSFORM_FORMATS, _BASES_SHA256[command]):
        out = _bases_stdout(capsys, 3, 2, fmt, command, 6)
        assert hashlib.sha256(out.encode()).hexdigest() == want


# Output of dirac while it applied one derivative through the envelope
# and one generator product per variable; keyed (m, n, text) for every
# listed input that parses in that universe.  dirac prints text under
# every --format.  _DIRAC_SHA256 pins a 26 kB output at (3, 2) by the
# sha256 of stdout.
_DIRAC_GOLDEN = {
    (1, 0, 'x1'):
        '(-1) (x) e1',
    (1, 0, 'G'):
        '(x1*G) (x) e1',
    (0, 1, 'G'):
        '(q2*G) (x) f2 + (q1*G) (x) f1',
    (1, 1, 'x1'):
        '(-1) (x) e1',
    (1, 1, 'G'):
        '(q2*G) (x) f2 + (q1*G) (x) f1 + (x1*G) (x) e1',
    (1, 1, 'x1*q1*G'):
        '(-x1*q1q2*G + 2*x1*G) (x) f2 + (x1^2*q1*G - q1*G) (x) e1',
    (1, 1, '(1 + x1 + q1q2)*G'):
        ('(x1*q2*G + 3*q2*G) (x) f2 + (x1*q1*G + 3*q1*G) (x) f1 + (x1*q1q2*G'
         ' + x1^2*G + x1*G - G) (x) e1'),
    (1, 1, 'x1^2*q1 + q2'):
        '(2*x1^2) (x) f2 + (-2) (x) f1 + (-2*x1*q1) (x) e1',
    (2, 1, 'x1'):
        '(-1) (x) e1',
    (2, 1, 'G'):
        '(q2*G) (x) f2 + (q1*G) (x) f1 + (x1*G) (x) e1 + (x2*G) (x) e2',
    (2, 1, 'x1*q1*G'):
        ('(-x1*q1q2*G + 2*x1*G) (x) f2 + (x1^2*q1*G - q1*G) (x) e1 + (x1*x2*'
         'q1*G) (x) e2'),
    (2, 1, '(1 + x1 + q1q2)*G'):
        ('(x1*q2*G + 3*q2*G) (x) f2 + (x1*q1*G + 3*q1*G) (x) f1 + (x1*q1q2*G'
         ' + x1^2*G + x1*G - G) (x) e1 + (x2*q1q2*G + x1*x2*G + x2*G) (x) e2'),
    (2, 1, 'x1^2*q1 + q2'):
        '(2*x1^2) (x) f2 + (-2) (x) f1 + (-2*x1*q1) (x) e1',
    (0, 2, 'G'):
        '(q4*G) (x) f4 + (q3*G) (x) f3 + (q2*G) (x) f2 + (q1*G) (x) f1',
    (3, 2, 'x1'):
        '(-1) (x) e1',
    (3, 2, 'G'):
        ('(q4*G) (x) f4 + (q3*G) (x) f3 + (q2*G) (x) f2 + (q1*G) (x) f1 + (x'
         '1*G) (x) e1 + (x2*G) (x) e2 + (x3*G) (x) e3'),
    (3, 2, 'x1*q1*G'):
        ('(-x1*q1q4*G) (x) f4 + (-x1*q1q3*G) (x) f3 + (-x1*q1q2*G + 2*x1*G) '
         '(x) f2 + (x1^2*q1*G - q1*G) (x) e1 + (x1*x2*q1*G) (x) e2 + (x1*x3*'
         'q1*G) (x) e3'),
    (3, 2, '(1 + x1 + q1q2)*G'):
        ('(q1q2q4*G + x1*q4*G + q4*G) (x) f4 + (q1q2q3*G + x1*q3*G + q3*G) ('
         'x) f3 + (x1*q2*G + 3*q2*G) (x) f2 + (x1*q1*G + 3*q1*G) (x) f1 + (x'
         '1*q1q2*G + x1^2*G + x1*G - G) (x) e1 + (x2*q1q2*G + x1*x2*G + x2*G'
         ') (x) e2 + (x3*q1q2*G + x1*x3*G + x3*G) (x) e3'),
    (3, 2, 'x1^2*q1 + q2'):
        '(2*x1^2) (x) f2 + (-2) (x) f1 + (-2*x1*q1) (x) e1',
}
_DIRAC_SHA256 = {
    (3, 2, "(x1+x2+x3+q1+q2+q3+q4+1)^5*G"):
        "c58746dd5ce3ebc9ac1126d75538ce7e69f73176adef40b6c735662b9963f4a1",
}


def _dirac_stdout(capsys, m, n, fmt, text):
    code = main(["--m", str(m), "--n", str(n), "--format", fmt, "dirac",
                 text])
    out = capsys.readouterr()
    assert (code, out.err) == (0, "")
    return out.out


@pytest.mark.parametrize("fmt", _TRANSFORM_FORMATS)
@pytest.mark.parametrize("m, n, text", list(_DIRAC_GOLDEN))
def test_cli_dirac_golden_outputs(capsys, m, n, text, fmt):
    assert _dirac_stdout(capsys, m, n, fmt, text) == \
        _DIRAC_GOLDEN[m, n, text] + "\n"


@pytest.mark.parametrize("m, n, text", list(_DIRAC_SHA256))
def test_cli_dirac_large_input_digest(capsys, m, n, text):
    for fmt in _TRANSFORM_FORMATS:
        out = _dirac_stdout(capsys, m, n, fmt, text)
        assert hashlib.sha256(out.encode()).hexdigest() == \
            _DIRAC_SHA256[m, n, text]


# one run of every subcommand at (m, n) = (2, 1)
_EVERY_SUBCOMMAND = (
    ("normalize", "x1*q1"), ("fourier", "x1*G"), ("berezin", "q1q2"),
    ("laplace", "x1^2*G"), ("euler", "x1"), ("d2", "G"), ("dirac", "x1*G"),
    ("hermite", "--j", "1", "--k", "1"), ("decompose", "--k", "2"),
    ("fracfourier", "--a", "1/2", "x1*G"), ("radon", "x1*G"), ("fundsol",),
    ("parseval", "x1*G", "G"))


def test_cli_subcommands_do_not_import_scipy():
    # scipy is a test dependency: no subcommand may need it at run time
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == {argv[0] for argv in _EVERY_SUBCOMMAND}
    script = ("import sys\n"
              "from supertransform.cli import main\n"
              f"for argv in {_EVERY_SUBCOMMAND!r}:\n"
              "    assert main(['--m', '2', '--n', '1', *argv]) == 0, argv\n"
              "print('scipy' in sys.modules)\n")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[-1] == "False"


_CLI_INPUT_CASES = [
    (('{"schema": "supertransform/1", "m": 2, "n": 1, "terms": []}',), 2,
     "", "parse error: JSON shape disagrees with --m/--n (at position 0)"),
    (('{"schema": "supertransform/1", "terms": [{"bos": [1, 2]}]}',), 2,
     "", "parse error: bad bosonic exponent vector (at position 0)"),
    (('{"schema": "supertransform/1", "terms": [{"bos": [1], "fer": 3}]}',),
     2, "", "parse error: bad fermionic index list (at position 0)"),
    (('{"schema": "supertransform/1", "terms": [{"bos": [1], "fer": [3]}]}',),
     2, "", "parse error: bad fermionic index list (at position 0)"),
    (('{"schema": "supertransform/1", '
      '"terms": [{"bos": [1], "fer": [1, 1]}]}',),
     2, "", "parse error: bad fermionic index list (at position 0)"),
    (("q1^0",), 0, "1", ""),
    (("q1^1",), 0, "q1", ""),
    (("(pi)^(1/2)",), 0, "sqrtpi", ""),
    (("sqrt2^-1",), 0, "1/2*sqrt2", ""),
]


@pytest.mark.parametrize("argv, code, out, err", _CLI_INPUT_CASES, ids=[
    "json-shape", "json-bos", "json-fer-not-list", "json-fer-range",
    "json-fer-repeat", "q1-pow0", "q1-pow1", "paren-pi-half",
    "sqrt2-neg-pow"])
def test_cli_input_branches(capsys, argv, code, out, err):
    assert _run_cli(capsys, "--m", "1", "--n", "1", "normalize", *argv) == \
        (code, out, err)
