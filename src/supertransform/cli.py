"""Command-line front end: parse expressions, run one operation, render.

Exit codes: 0 success, 1 domain error, 2 parse error.  Input comes from
the positional expression or, when absent, line-by-line from stdin.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .expr import ParseError, parse, poly_to_json, read_json, \
    render_poly_latex, render_poly_text
from .fourier import berezin, fermionic_fourier, parseval_check, super_fourier
from .fracfourier import frac_fourier
from .harmonics import check_basis_degree, decomposition_check, \
    harmonic_basis
from .hermite import check_psi_orders, psi_element
from .operators import euler, laplace, scalar_square
from .radon import radon
from .fundsol import super_fundamental_solution, \
    verify_harmonic_away_from_origin
from .superalg import (MAX_PAIRS, GaussianFunction, SuperPolynomial, TEXT,
                       VariableUniverse, check_bosonic_count,
                       monomial_codec)


def build_parser():
    p = argparse.ArgumentParser(
        prog="supertransform",
        description="Exact super Fourier / fractional Fourier / Radon "
                    "calculator on m bosonic and 2n fermionic variables.")
    p.add_argument("--m", type=int, default=1,
                   help="number of commuting variables x1..xm")
    p.add_argument("--n", type=int, default=1,
                   help="number of anticommuting pairs (variables q1..q2n)")
    p.add_argument("--format", choices=("text", "json", "latex"),
                   default="text")
    sub = p.add_subparsers(dest="command", required=True)

    def with_expr(sp):
        sp.add_argument("expr", nargs="?", default=None)

    with_expr(sub.add_parser("normalize", help="parse and re-render"))
    f = sub.add_parser("fourier", help="super Fourier transform")
    f.add_argument("--sign", choices=("+", "-"), default="+")
    with_expr(f)
    with_expr(sub.add_parser("berezin", help="Berezin integral"))
    lp = sub.add_parser("laplace", help="Laplace operator")
    lp.add_argument("--sector", choices=("bosonic", "fermionic", "full"),
                    default="full")
    with_expr(lp)
    with_expr(sub.add_parser("euler", help="Euler operator"))
    with_expr(sub.add_parser("d2", help="the scalar operator (d_x + x)^2"))
    with_expr(sub.add_parser("dirac", help="super Dirac operator"))
    h = sub.add_parser("hermite", help="Clifford-Hermite basis function")
    h.add_argument("--j", type=int, required=True)
    h.add_argument("--k", type=int, required=True)
    h.add_argument("--l", type=int, default=None)
    d = sub.add_parser("decompose",
                       help="harmonic decomposition report for degree k")
    d.add_argument("--k", type=int, required=True)
    ff = sub.add_parser("fracfourier", help="fractional Fourier transform")
    ff.add_argument("--a", type=str, required=True,
                    help="order in [-1,1]; rational p/q or float")
    with_expr(ff)
    with_expr(sub.add_parser("radon", help="super Radon transform"))
    sub.add_parser("fundsol",
                   help="fundamental solution of the super Laplacian")
    pv = sub.add_parser("parseval", help="exact Parseval check on two inputs")
    pv.add_argument("expr", nargs=2)
    return p


def _parse_order(text):
    """Order text as an integer, a fraction p/q or a finite decimal."""
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            num, den = int(num), int(den)
            if den:
                return Fraction(num, den)
        elif "." in text or "e" in text or "E" in text:
            value = float(text)
            if math.isfinite(value):
                return value
        else:
            return int(text)
    except ValueError:
        pass
    raise ValueError(f"order {text!r} must be an integer, a fraction p/q "
                     "with q != 0, or a finite decimal")


def _render(result, fmt):
    if fmt == "json":
        return json.dumps(poly_to_json(result))
    if fmt == "latex":
        return render_poly_latex(result)
    return render_poly_text(result)


def _render_radon(res, fmt):
    if fmt == "json":
        js = res.to_json()
        js["schema"] = "supertransform/1"
        return json.dumps(js)
    codec = monomial_codec(res.universe)
    bits = []
    for key, ppoly in res.by_omega():
        mono = codec[key][TEXT]
        ptxt = " + ".join(
            f"({c.render()})" + (f"*p^{e}" if e > 1 else "*p" if e else "")
            for e, c in ppoly)
        piece = f"[{ptxt}]*exp(-p^2/2)"
        if mono:
            piece += f" (x) {mono}"
        bits.append(piece)
    return " + ".join(bits) if bits else "0"


def _render_cvalued(cv):
    """Text in every format: (scalar part) (x) unit word, per word."""
    from .cliffweyl import word_text
    return " + ".join(
        f"({render_poly_text(GaussianFunction(p) if cv.envelope else p)})"
        f" (x) {word_text(key)}" for key, p in sorted(cv.parts.items())) \
        or "0"


def _read(source, u):
    """One operand: JSON when it starts with '{', an expression
    otherwise."""
    if source.lstrip().startswith("{"):
        return read_json(source, u)
    return parse(source, u)


def run(args, source):
    """Execute one command over one parsed expression source string."""
    cmd = args.command
    # the universe budgets come before any symbol name is built
    check_bosonic_count(args.m)
    if cmd == "fundsol":
        # no universe: MAX_FUNDSOL_PAIRS is its pair budget
        sr = super_fundamental_solution(args.m, args.n)
        if not verify_harmonic_away_from_origin(sr, args.m):
            raise ValueError("internal telescope check failed")
        return sr.render()
    if args.n > MAX_PAIRS:
        raise ValueError(f"n = {args.n} pairs exceeds MAX_PAIRS = "
                         f"{MAX_PAIRS}")
    u = VariableUniverse.standard(args.m, args.n)
    if cmd == "hermite":
        # every refusal on the orders comes before the basis is built
        check_basis_degree(args.k, u)
        check_psi_orders(args.j, args.k, u)
        basis = harmonic_basis(args.k, "full", u)
        if args.l is not None:
            if not 0 <= args.l < basis.dimension:
                raise ValueError("harmonic index out of range")
            elems = [basis.elements[args.l]]
        else:
            elems = list(basis)
        out = [_render(psi_element(args.j, h), args.format) for h in elems]
        return "\n".join(out)
    if cmd == "decompose":
        rep = decomposition_check(args.k, u)
        if args.format == "json":
            rep = dict(rep)
            rep["schema"] = "supertransform/1"
            rep["basis"] = [poly_to_json(h)
                            for h in harmonic_basis(args.k, "full", u)]
            return json.dumps(rep)
        status = "ok" if rep["dims_match"] and rep["products_harmonic"] \
            else "FAILED"
        return (f"degree {rep['k']}: dim nullspace {rep['dim_nullspace']}, "
                f"dim formula {rep['dim_formula']} [{status}]")
    if cmd == "parseval":
        f, g = (_read(text, u) for text in source)
        if isinstance(f, GaussianFunction) != isinstance(g, GaussianFunction):
            raise ValueError("operands must share the Gaussian marker")
        if isinstance(f, GaussianFunction):
            ok = parseval_check(f, g, "full")
        else:
            if args.m:
                raise ValueError("plain Parseval requires m = 0")
            ok = parseval_check(f, g, "fermionic")
        return "true" if ok else "false"

    f = _read(source, u)
    if cmd in ("fourier", "fracfourier", "radon") and not f \
            and isinstance(f, SuperPolynomial) \
            and (args.m or cmd != "fourier") \
            and not source.lstrip().startswith("{"):
        # "0*G" renders as 0 in text, so a plain zero reads back as 0*G
        # (JSON keeps its envelope flag); at m = 0 a plain fourier input
        # is a fermionic transform and stays one
        f = GaussianFunction(f)
    if cmd == "normalize":
        return _render(f, args.format)
    if cmd == "berezin":
        return _render(berezin(f), args.format)
    if cmd == "laplace":
        return _render(laplace(f, args.sector), args.format)
    if cmd == "euler":
        return _render(euler(f), args.format)
    if cmd == "d2":
        return _render(scalar_square(f), args.format)
    if cmd == "dirac":
        from .cliffweyl import dirac_apply
        return _render_cvalued(dirac_apply(f))
    if cmd == "fourier":
        if isinstance(f, GaussianFunction):
            return _render(super_fourier(f, args.sign), args.format)
        if args.m:
            raise ValueError("full transform requires the Gaussian marker G")
        return _render(fermionic_fourier(f, args.sign), args.format)
    if cmd == "fracfourier":
        order = _parse_order(args.a)
        if not isinstance(f, GaussianFunction):
            raise ValueError("fractional transform requires the marker G")
        return _render(frac_fourier(f, order), args.format)
    if cmd == "radon":
        if not isinstance(f, GaussianFunction):
            raise ValueError("Radon transform requires the marker G")
        return _render_radon(radon(f), args.format)
    raise ValueError(f"unknown command {cmd}")


def _glue_order(argv):
    """Join `--a TEXT` into `--a=TEXT`, so an order text that starts with
    a minus sign (-1/2, -inf) reaches _parse_order instead of reading as
    an option."""
    out = []
    it = iter(argv)
    for tok in it:
        nxt = next(it, None) if tok == "--a" else None
        out.append(tok if nxt is None else f"--a={nxt}")
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_glue_order(argv))
    try:
        if args.command == "parseval":
            print(run(args, args.expr))
            return 0
        if getattr(args, "expr", None) is not None \
                or args.command in ("fundsol", "hermite", "decompose"):
            out = run(args, getattr(args, "expr", None))
            print(out)
            return 0
        # batch mode: one expression per stdin line
        for line in sys.stdin:
            line = line.strip()
            if not line:
                continue
            print(run(args, line))
        return 0
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
