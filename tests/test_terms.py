"""The canonical term-map core shared by every linear-combination type:
no stored zero coefficient, whatever the arithmetic that produced it."""

import pytest

from supertransform._terms import add_into
from supertransform.cliffweyl import CValued, CWElement
from supertransform.fundsol import RadialFunction
from supertransform.radon import RadonResult, omega_universe
from supertransform.scalars import ExactScalar, QQi
from supertransform.superalg import SuperPolynomial, VariableUniverse

U = VariableUniverse.standard(1, 1)
UO = omega_universe(2, 1)
R = ExactScalar.rational


def _poly(c, e):
    return SuperPolynomial(U, {((e,), 0b11): R(c), ((0,), 0): R(1)})


# (constructor from a terms dict, canonical terms with three keys,
#  a zero coefficient)
CASES = {
    "ExactScalar": (ExactScalar,
                    {(0, 0): QQi(1), (1, 0): QQi(2, 1), (-2, 1): QQi(-3)},
                    QQi(0)),
    "SuperPolynomial": (lambda t: SuperPolynomial(U, t),
                        {((2,), 0): R(1), ((0,), 0b01): R(-2),
                         ((1,), 0b11): ExactScalar.sqrt2()},
                        ExactScalar.zero()),
    "CWElement": (lambda t: CWElement(1, 1, t),
                  {(0, (0, 0)): R(1), (1, (1, 0)): R(3),
                   (0, (2, 1)): ExactScalar.i()},
                  ExactScalar.zero()),
    "CValued": (lambda t: CValued(U, t, envelope=True),
                {(0, (0, 0)): _poly(1, 1), (1, (0, 1)): _poly(-1, 2),
                 (1, (1, 1)): _poly(5, 0)},
                SuperPolynomial.zero(U)),
    "RadialFunction": (RadialFunction,
                       {(2, 0): R(1), (-1, 1): R(-4), (0, 2): R(1, 3)},
                       ExactScalar.zero()),
    "RadonResult": (lambda t: RadonResult(UO, t),
                    {((0, 0), 0): {0: R(1), 2: R(-1)},
                     ((1, 0), 0b01): {1: ExactScalar.sqrt2()},
                     ((0, 1), 0b11): {3: R(2)}},
                    {}),
}


@pytest.mark.parametrize("name", list(CASES))
def test_term_map_keeps_no_zero_coefficient(name):
    make, terms, zero = CASES[name]
    x = make(terms)
    assert x and x.terms == terms
    for cancelled in (x + (-x), x - x, x.scale(0)):
        assert not cancelled and cancelled.terms == {}
    key = next(iter(terms))
    assert set(make({**terms, key: zero}).terms) == set(terms) - {key}
    rest = x + (-make({key: terms[key]}))
    assert set(rest.terms) == set(terms) - {key}
    assert rest + make({key: terms[key]}) == x


def test_add_into_removes_a_cancelled_key():
    acc = {"a": 1, "b": 2}
    add_into(acc, "a", -1)
    add_into(acc, "c", 0)
    add_into(acc, "b", 3)
    assert acc == {"b": 5}
