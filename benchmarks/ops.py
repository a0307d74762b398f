"""One benchmark operation along the command line's path, and the exact
checks on its result.

``prepare`` turns a generated operation into the text the command line
would receive (radon eigenbasis combinations are rendered here, outside
any timed region).  ``execute`` parses that text, runs the library call and
renders the result, returning both the result object and its text.
``check`` verifies a result exactly and returns None or the reason it
is wrong.
"""

from __future__ import annotations

from fractions import Fraction

from supertransform import cli, expr
from supertransform.fourier import parseval_check, super_fourier
from supertransform.fracfourier import frac_fourier, relative_deviation
from supertransform.harmonics import decomposition_check, harmonic_basis
from supertransform.hermite import psi_element, psi_tilde_element
from supertransform.operators import laplace
from supertransform.radon import RadonResult, omega_universe, radon, \
    radon_expected_eigenbasis
from supertransform.superalg import (GaussianFunction, SuperPolynomial,
                                     VariableUniverse, sp_mul, vector_square)

# The command line's domain errors (exit code 1); anything else raised by
# an operation is a defect and makes the run incorrect.
DOMAIN_ERRORS = (ValueError, ZeroDivisionError)

FRACTIONAL_TOLERANCE = 1e-10


def universe(op):
    return VariableUniverse.standard(op["m"], op["n"])


def _eigen_element(u, j, k, l):
    basis = harmonic_basis(k, "full", u)
    h = basis.elements[l % basis.dimension]
    return h, psi_tilde_element(j, h)


def prepare(op):
    """Fill in ``text`` for an operation; radon eigenbasis combinations
    are rendered to expression text here."""
    if "eigen" in op:
        u = universe(op)
        pieces = []
        for (j, k, l), c in zip(op["eigen"], op["coeffs"]):
            _, psi = _eigen_element(u, j, k, l)
            pieces.append(f"{c}*({expr.render_poly_text(psi)})")
        op["text"] = " + ".join(pieces)
    else:
        op["text"] = op.get("expr")
    return op


def warmup_op(workload, m, n):
    """The fixed operation each universe runs once during set-up."""
    if workload == "exact_transforms":
        return {"op": "fourier", "m": m, "n": n, "sign": 1, "text": "G"}
    if workload == "fractional":
        return {"op": "fracfourier", "m": m, "n": n, "a_num": 1,
                "a_den": 2, "text": "G"}
    return {"op": "hermite", "m": m, "n": n, "j": 1, "k": 2}


def _sign(op):
    return "+" if op["sign"] > 0 else "-"


def run(op):
    """The library call for one operation, on parsed input."""
    u = universe(op)
    kind = op["op"]
    if kind == "fourier":
        return super_fourier(expr.parse(op["text"], u), _sign(op))
    if kind == "radon":
        return radon(expr.parse(op["text"], u))
    if kind == "parseval":
        f, g = (expr.parse(t, u) for t in op["text"])
        return parseval_check(f, g, "full")
    if kind == "fracfourier":
        order = Fraction(op["a_num"], op["a_den"])
        return frac_fourier(expr.parse(op["text"], u), order)
    if kind == "hermite":
        return [psi_element(op["j"], h)
                for h in harmonic_basis(op["k"], "full", u)]
    if kind == "decompose":
        return decomposition_check(op["k"], u)
    raise ValueError(f"unknown operation {kind!r}")


def render(result):
    """Result text as the command line prints it."""
    if isinstance(result, RadonResult):
        return cli._render_radon(result, "text")
    if isinstance(result, bool):
        return "true" if result else "false"
    if isinstance(result, list):
        return "\n".join(expr.render_poly_text(g) for g in result)
    if isinstance(result, dict):
        status = "ok" if result["dims_match"] \
            and result["products_harmonic"] else "FAILED"
        return (f"degree {result['k']}: dim nullspace "
                f"{result['dim_nullspace']}, dim formula "
                f"{result['dim_formula']} [{status}]")
    return expr.render_poly_text(result)


def execute(op):
    """Parse, run and render one operation; returns (result, text)."""
    result = run(op)
    return result, render(result)


# -- exact checks ---------------------------------------------------------

def _reflect(f):
    """f(-x): every monomial times (-1)^degree."""
    poly = f.poly
    terms = {key: (-c if (sum(key[0]) + key[1].bit_count()) & 1 else c)
             for key, c in poly.terms.items()}
    return GaussianFunction(SuperPolynomial(poly.universe, terms), True)


def _check_fourier(op, result):
    f = expr.parse(op["text"], universe(op))
    sign = _sign(op)
    other = "-" if sign == "+" else "+"
    if not isinstance(result, GaussianFunction):
        return "fourier: result is not a Gaussian-class function"
    if super_fourier(result, other) != f:
        return f"fourier: F^{other} F^{sign} f != f"
    if super_fourier(result, sign) != _reflect(f):
        return f"fourier: F^{sign} F^{sign} f != f(-x)"
    return None


def _check_radon(op, result):
    """Eigenbasis combinations against the closed form; a Gaussian-class
    input has no closed form, so only its result type is checked (and
    its text must agree between interpreters)."""
    if not isinstance(result, RadonResult):
        return "radon: result is not a Radon transform"
    if "eigen" not in op:
        return None
    u = universe(op)
    want = RadonResult(omega_universe(u.m, u.pairs))
    for (j, k, l), c in zip(op["eigen"], op["coeffs"]):
        h, _ = _eigen_element(u, j, k, l)
        coeff = expr.parse(c, u).constant_term()
        want = want + radon_expected_eigenbasis(j, k, h, u).scale(coeff)
    if result != want:
        return "radon: result differs from the eigenbasis closed form"
    return None


def _check_parseval(op, result):
    if result is not True:
        return "parseval: identity reported false"
    return None


def _check_fracfourier(op, result):
    """Index law F^(s-a) F^a f = F^s f with s = sign(a), against the
    exact transform."""
    u = universe(op)
    a = Fraction(op["a_num"], op["a_den"])
    s = 1 if a > 0 else -1
    f = expr.parse(op["text"], u)
    want = super_fourier(f, "+" if s > 0 else "-")
    got = frac_fourier(result, s - a)
    dev = relative_deviation(got.poly, want.poly)
    if not dev <= FRACTIONAL_TOLERANCE:
        return f"fracfourier: index law deviation {dev:.3g}"
    return None


def _check_hermite(op, result):
    """(Delta - x^2) psi = (2(2j+k) + M) psi exactly, and the top-degree
    part of psi_{j,k,l} is 4^j (x^2)^j times the l-th harmonic."""
    u = universe(op)
    j, k = op["j"], op["k"]
    basis = harmonic_basis(k, "full", u)
    if len(result) != basis.dimension:
        return "hermite: wrong number of basis functions"
    eigenvalue = 2 * (2 * j + k) + u.superdim
    square = vector_square(u)
    for h, psi in zip(basis, result):
        lhs = laplace(psi, "full") - psi.mul_poly(square)
        if lhs != psi.scale(eigenvalue):
            return "hermite: eigen-equation fails"
        lead = h.scale(4 ** j)
        for _ in range(j):
            lead = sp_mul(square, lead)
        top = {key: c for key, c in psi.poly.terms.items()
               if sum(key[0]) + key[1].bit_count() == 2 * j + k}
        if SuperPolynomial(u, top) != lead:
            return "hermite: leading part is not 4^j (x^2)^j h"
    return None


def _check_decompose(op, result):
    if result.get("k") != op["k"]:
        return "decompose: report for the wrong degree"
    if not (result.get("dims_match") and result.get("products_harmonic")):
        return "decompose: report does not confirm the decomposition"
    return None


_CHECKS = {
    "fourier": _check_fourier,
    "radon": _check_radon,
    "parseval": _check_parseval,
    "fracfourier": _check_fracfourier,
    "hermite": _check_hermite,
    "decompose": _check_decompose,
}


def check(op, result):
    """None when the result is exactly right, else the reason it is not.
    A check that raises counts as a failed check."""
    try:
        return _CHECKS[op["op"]](op, result)
    except DOMAIN_ERRORS as exc:
        return f"{op['op']}: check raised {type(exc).__name__}: {exc}"
