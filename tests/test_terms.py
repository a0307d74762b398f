"""The canonical term-map core shared by every linear-combination type:
no stored zero coefficient, whatever the arithmetic that produced it."""

import importlib
import pkgutil

import pytest

import supertransform
from supertransform._terms import TermMap, add_into
from supertransform.cliffweyl import CValued, CWElement
from supertransform.fundsol import RadialFunction
from supertransform.radon import RadonResult, omega_universe
from supertransform.scalars import ExactScalar, QQi
from supertransform.superalg import (GaussianFunction, SuperPolynomial,
                                     VariableUniverse)

U = VariableUniverse.standard(1, 1)
UY = VariableUniverse(["y1"], ["p1", "p2"])
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
    "GaussianFunction": (lambda t: GaussianFunction(SuperPolynomial(U, t)),
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
                    {(((0, 0), 0), 0): R(1), (((0, 0), 0), 2): R(-1),
                     (((1, 0), 0b01), 1): ExactScalar.sqrt2()},
                    ExactScalar.zero()),
}


def _in_y(t):
    return {key: SuperPolynomial(UY, p.terms) for key, p in t.items()}


# constructors of the same terms in another shape, for every CASES type
# whose values carry one
OTHER_SHAPES = {
    "SuperPolynomial": [lambda t: SuperPolynomial(UY, t)],
    "GaussianFunction": [lambda t: GaussianFunction(SuperPolynomial(UY, t))],
    "CWElement": [lambda t: CWElement(2, 1, t),
                  lambda t: CWElement(1, 2, {(0, (0,) * 4): R(1)})],
    "CValued": [lambda t: CValued(UY, _in_y(t), envelope=True),
                lambda t: CValued(U, t, envelope=False)],
    "RadonResult": [lambda t: RadonResult(VariableUniverse.standard(2, 1),
                                          t)],
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


def test_every_shaped_term_map_has_another_shape():
    assert set(OTHER_SHAPES) == {name for name, (make, terms, _)
                                 in CASES.items() if make(terms)._shape}


@pytest.mark.parametrize("name", list(OTHER_SHAPES))
def test_values_of_another_shape_neither_add_nor_compare_equal(name):
    make, terms, _ = CASES[name]
    x = make(terms)
    for other in OTHER_SHAPES[name]:
        y = other(terms)
        assert x != y and y != x
        for a, b in ((x, y), (y, x)):
            with pytest.raises(ValueError, match="shape mismatch"):
                a + b
            with pytest.raises(ValueError, match="shape mismatch"):
                a - b


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _package_term_maps():
    for mod in pkgutil.iter_modules(supertransform.__path__):
        importlib.import_module(f"supertransform.{mod.name}")
    return [sub for sub in _subclasses(TermMap)
            if sub.__module__.startswith("supertransform.")]


def test_every_term_map_of_the_package_has_a_case():
    assert {sub.__name__ for sub in _package_term_maps()} == set(CASES)


def test_radon_results_and_gaussian_functions_inherit_the_arithmetic():
    for cls in (RadonResult, GaussianFunction):
        assert not {"__add__", "__sub__", "__neg__", "scale",
                    "__bool__"} & set(vars(cls)), cls
    # equality, the operand check and conjugation are TermMap's alone; a
    # scalar keeps its own equality, as it also equals an int or Fraction
    for cls in _package_term_maps():
        own = {"__eq__", "_check", "conjugate"} & set(vars(cls))
        assert own == ({"__eq__"} if cls is ExactScalar else set()), cls
    assert not hasattr(GaussianFunction(SuperPolynomial.one(U)), "envelope")


def test_add_into_removes_a_cancelled_key():
    acc = {"a": 1, "b": 2}
    add_into(acc, "a", -1)
    add_into(acc, "c", 0)
    add_into(acc, "b", 3)
    assert acc == {"b": 5}
