"""Public refusals that no other test reaches: each call raises its
error type with its message, and builds nothing first."""

import pytest

from supertransform.cliffweyl import CValued, CWElement, vector_mul
from supertransform.fourier import (berezin, convolution_fermionic,
                                    gaussian_moment, parseval_check,
                                    super_fourier)
from supertransform.scalars import ExactScalar, QQi
from supertransform.superalg import (GaussianFunction, SuperPolynomial,
                                     VariableUniverse, sp_rename)

U11 = VariableUniverse.standard(1, 1)
U01 = VariableUniverse.standard(0, 1)
X1 = SuperPolynomial.bosonic_var(U11, 0)
Q1Q2 = SuperPolynomial.monomial(U01, (), 0b11, ExactScalar.one())
PI = ExactScalar.pi_half_power(2)

REFUSALS = [
    ("super_fourier-sign",
     lambda: super_fourier(GaussianFunction(X1), "x"),
     ValueError, "sign must be '+' or '-'"),
    ("gaussian_moment-width", lambda: gaussian_moment(0, 2),
     ValueError, "unsupported Gaussian width"),
    ("parseval-fermionic-at-m1",
     lambda: parseval_check(X1, X1, "fermionic"),
     ValueError, "non-damped bosonic integrand"),
    ("parseval-unknown-scope",
     lambda: parseval_check(Q1Q2, Q1Q2, "bosonic"),
     ValueError, "unknown scope 'bosonic'"),
    ("convolution-at-m1", lambda: convolution_fermionic(X1, X1),
     ValueError, "convolution implemented fermionically only"),
    ("convolution-universe-mismatch",
     lambda: convolution_fermionic(
         SuperPolynomial.fermionic_var(U01, 0),
         SuperPolynomial.monomial(VariableUniverse.standard(0, 2), (), 0b10,
                                  ExactScalar.one())),
     ValueError, "universe mismatch"),
    ("convolution-gaussian",
     lambda: convolution_fermionic(GaussianFunction(Q1Q2),
                                   GaussianFunction(Q1Q2)),
     ValueError, "convolution expects a plain polynomial"),
    ("berezin-over-past-the-symbols", lambda: berezin(Q1Q2, over=[2, 3]),
     ValueError, "subset must be symbol indices below 2n = 2"),
    ("berezin-over-negative", lambda: berezin(Q1Q2, over=[-2, -1]),
     ValueError, "subset must be symbol indices below 2n = 2"),
    ("bosonic_var-range", lambda: SuperPolynomial.bosonic_var(U11, 1),
     IndexError, "bosonic index out of range"),
    ("fermionic_var-range", lambda: SuperPolynomial.fermionic_var(U11, 2),
     IndexError, "fermionic index out of range"),
    ("sp_rename-collision", lambda: sp_rename(Q1Q2, U01, [], [0, 0]),
     ValueError, "fermionic rename collision"),
    ("CWElement.e-range", lambda: CWElement.e(1, 1, 1),
     IndexError, "orthogonal generator index out of range"),
    ("CWElement.eg-range", lambda: CWElement.eg(1, 1, 2),
     IndexError, "symplectic generator index out of range"),
    ("scalar_function-non-scalar",
     lambda: vector_mul(CValued.from_scalar(X1)).scalar_function(),
     ValueError, "value is not scalar"),
    ("QQi-add-text", lambda: QQi(1) + "a",
     TypeError, "cannot interpret 'a' as complex rational"),
    ("rational_value-pi", lambda: PI.rational_value(),
     ValueError, "scalar is not rational"),
    ("qqi_value-pi", lambda: PI.qqi_value(),
     ValueError, "scalar is not a complex rational"),
]


@pytest.mark.parametrize("call, error, message",
                         [case[1:] for case in REFUSALS],
                         ids=[case[0] for case in REFUSALS])
def test_public_refusals_raise_their_error_and_message(call, error,
                                                      message):
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message
