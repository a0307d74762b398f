"""Independent routes kept only to test the fast paths against.

`peel_bosonic_fourier` is the peel rule F(x_i g) = -/+ i d_{y_i} F(g)
from F(G) = G, one derivative per unit of degree; the package reads the
same transform off cached Hermite rows.  `reduce_mod_sphere_per_monomial`
rewrites w_m^2 monomial by monomial with fresh sphere powers; the package
groups the terms by power and builds each power once per call.
"""

from supertransform.operators import bosonic_derivative
from supertransform.radon import _sphere_substitution
from supertransform.scalars import ExactScalar
from supertransform.superalg import GaussianFunction, SuperPolynomial, sp_mul


def peel_bosonic_fourier(f, sign):
    """Bosonic transform of a Gaussian-class f by the peel rule; exact."""
    c_sign = ExactScalar.i_power(-1 if sign == "+" else 1)   # -/+ i
    u = f.universe
    out = GaussianFunction(SuperPolynomial.zero(u), True)
    for (bos, mask), coeff in f.poly.terms.items():
        g = GaussianFunction(
            SuperPolynomial(u, {((0,) * u.m, mask): coeff}), True)
        for i, e in enumerate(bos):
            for _ in range(e):
                g = bosonic_derivative(g, i).scale(c_sign)
        out = out + g
    return out


def reduce_mod_sphere_per_monomial(f):
    """Normal form mod (omega^2 + 1), one sp_mul and one sum per term."""
    u = f.universe
    last = u.m - 1
    sub = _sphere_substitution(u)
    powers = {0: SuperPolynomial.one(u)}

    def sub_power(q):
        if q not in powers:
            powers[q] = sp_mul(sub_power(q - 1), sub)
        return powers[q]

    out = SuperPolynomial.zero(u)
    for (bos, mask), c in f.terms.items():
        q, s = divmod(bos[last], 2)
        piece = SuperPolynomial(u, {(bos[:last] + (s,), mask): c})
        out = out + sp_mul(sub_power(q), piece)
    return out
