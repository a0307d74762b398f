"""Exact symbolic Fourier, fractional Fourier and Radon transforms on
superspace, with Berezin integration, Clifford-Weyl operators,
Clifford-Hermite eigenbases and the super Laplace fundamental solution."""

from .scalars import (Angle, ExactScalar, FloatScalar, QQi,
                      gamma_half_integer, to_float)
from .superalg import (GaussianFunction, SuperPolynomial, VariableUniverse,
                       pairing, sp_mul, vector_square)
from .operators import euler, laplace, scalar_square
from .cliffweyl import (CValued, CWElement, cw_mul, dirac_apply,
                        monogenic_basis, vector_mul)
from .harmonics import (HarmonicBasis, decomposition_check, f_poly,
                        harmonic_basis)
from .hermite import psi_element, psi_tilde_element
from .fourier import (berezin, bosonic_fourier, convolution_fermionic,
                      delta_fourier, fermionic_fourier, parseval_check,
                      super_fourier, super_integral)
from .fracfourier import frac_fermionic_table, frac_fourier
from .radon import (RadonResult, hermite_1d, one_dim_fourier, radon,
                    reduce_mod_sphere)
from .fundsol import (RadialFunction, nu_poly_laplace, radial_laplace,
                      super_fundamental_solution,
                      verify_harmonic_away_from_origin)
from .expr import parse, poly_to_json, render_poly_text

__all__ = [
    "Angle", "ExactScalar", "FloatScalar", "QQi", "gamma_half_integer",
    "to_float",
    "GaussianFunction", "SuperPolynomial", "VariableUniverse",
    "pairing", "sp_mul", "vector_square",
    "euler", "laplace", "scalar_square",
    "CValued", "CWElement", "cw_mul", "dirac_apply", "monogenic_basis",
    "vector_mul",
    "HarmonicBasis", "decomposition_check", "f_poly", "harmonic_basis",
    "psi_element", "psi_tilde_element",
    "berezin", "bosonic_fourier", "convolution_fermionic", "delta_fourier",
    "fermionic_fourier", "parseval_check", "super_fourier", "super_integral",
    "frac_fermionic_table", "frac_fourier",
    "RadonResult", "hermite_1d", "one_dim_fourier", "radon",
    "reduce_mod_sphere",
    "RadialFunction", "nu_poly_laplace", "radial_laplace",
    "super_fundamental_solution", "verify_harmonic_away_from_origin",
    "parse", "poly_to_json", "render_poly_text",
]

__version__ = "0.1.0"
