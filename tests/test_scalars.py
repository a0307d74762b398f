import math
import random
from fractions import Fraction

import pytest

from supertransform.scalars import (ExactScalar, QQi, gamma_half_integer,
                                    to_float)
from tests.conftest import random_scalar


def test_sqrt2_squares_to_two():
    assert ExactScalar.sqrt2() * ExactScalar.sqrt2() == ExactScalar.rational(2)


def test_inverse_pi_half_powers_cancel():
    a = ExactScalar.pi_half_power(1) * ExactScalar.pi_half_power(-1)
    assert a == ExactScalar.one()


def test_two_pi_to_the_half_for_superdim_minus_one():
    # M = m - 2n = -1 at m=1, n=1, so (2pi)^(-M/2) = (2pi)^(1/2) = sqrt2*sqrtpi
    want = ExactScalar.sqrt2() * ExactScalar.pi_half_power(1)
    assert ExactScalar.two_pi_half_power(1) == want


def test_monomial_inverse():
    a = ExactScalar.rational(2) * ExactScalar.pi_half_power(1)
    inv = a.inverse()
    assert inv == ExactScalar.rational(1, 2) * ExactScalar.pi_half_power(-1)
    assert a * inv == ExactScalar.one()


def test_multi_term_inverse_rejected():
    a = ExactScalar.one() + ExactScalar.sqrt2()
    with pytest.raises(ValueError, match="non-monomial"):
        a.inverse()
    with pytest.raises(ZeroDivisionError):
        ExactScalar.zero().inverse()


def test_imaginary_pi_three_half_inverse():
    a = ExactScalar.i() * ExactScalar.pi_half_power(3)
    inv = a.inverse()
    assert inv == ExactScalar.from_qqi(QQi(0, -1)) * ExactScalar.pi_half_power(-3)
    assert a * inv == ExactScalar.one()


def test_to_float_known_values():
    assert to_float(ExactScalar.zero()) == 0
    assert abs(to_float(ExactScalar.sqrt2()) - 1.4142135623730951) < 1e-15
    half_sqrt_pi = ExactScalar.rational(1, 2) * ExactScalar.pi_half_power(1)
    assert abs(to_float(half_sqrt_pi) - 0.8862269254527580) < 1e-15


def test_ring_axioms_random_triples():
    rng = random.Random(7)
    for _ in range(1000):
        a = random_scalar(rng)
        b = random_scalar(rng)
        c = random_scalar(rng)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)


def test_equality_via_difference():
    rng = random.Random(11)
    for _ in range(200):
        a = random_scalar(rng)
        b = random_scalar(rng)
        assert (a == b) == (not (a - b))
    a = random_scalar(rng)
    assert not (a - a)


def test_to_float_is_ring_homomorphism():
    rng = random.Random(13)
    for _ in range(200):
        a = random_scalar(rng, parts=8)
        b = random_scalar(rng, parts=8)
        fa, fb = to_float(a), to_float(b)
        prod = to_float(a * b)
        tot = to_float(a + b)
        if prod or fa * fb:
            assert abs(prod - fa * fb) <= 1e-12 * max(1.0, abs(prod))
        assert abs(tot - (fa + fb)) <= 1e-12 * max(1.0, abs(tot))


def test_gamma_half_integer():
    assert gamma_half_integer(2) == ExactScalar.one()          # Gamma(1)
    assert gamma_half_integer(8) == ExactScalar.rational(6)    # Gamma(4)=3!
    # Gamma(1/2) = sqrt(pi), Gamma(5/2) = 3/4 sqrt(pi), Gamma(3/2) = sqrt(pi)/2
    assert gamma_half_integer(1) == ExactScalar.pi_half_power(1)
    assert gamma_half_integer(5) == \
        ExactScalar.rational(3, 4) * ExactScalar.pi_half_power(1)
    assert gamma_half_integer(3) == \
        ExactScalar.rational(1, 2) * ExactScalar.pi_half_power(1)
    with pytest.raises(ValueError):
        gamma_half_integer(0)
    assert abs(to_float(gamma_half_integer(7)) - math.gamma(3.5)) < 1e-12


def test_power_and_i_power():
    i = ExactScalar.i()
    assert i ** 2 == ExactScalar.rational(-1)
    assert ExactScalar.i_power(3) == -i
    assert ExactScalar.i_power(4) == ExactScalar.one()
    assert ExactScalar.sqrt2() ** -2 == ExactScalar.rational(1, 2)


def test_render_and_json():
    a = (ExactScalar.rational(3, 2) * ExactScalar.sqrt2()
         * ExactScalar.pi_half_power(1))
    assert a.render() == "3/2*sqrt2*sqrtpi"
    b = ExactScalar.rational(1, 2) * ExactScalar.pi_half_power(-3)
    assert b.render() == "1/2*pi^(-3/2)"
    assert ExactScalar.zero().render() == "0"
    js = a.to_json()
    assert js == [{"q": [3, 2, 0, 1], "b": 1, "eps": 1}]


def test_conjugate():
    a = ExactScalar.i() * ExactScalar.sqrt2() + ExactScalar.rational(2)
    c = a.conjugate()
    assert c == ExactScalar.rational(2) - ExactScalar.i() * ExactScalar.sqrt2()


def test_equal_values_hash_alike():
    # QQi(2) == 2 and ExactScalar.rational(3, 2) == Fraction(3, 2), so a
    # set or dict must see one value, not two
    assert len({QQi(2), 2}) == 1
    assert len({QQi(Fraction(-7, 3)), Fraction(-7, 3)}) == 1
    assert len({ExactScalar.rational(3, 2), Fraction(3, 2)}) == 1
    assert len({ExactScalar.rational(1), 1, Fraction(1)}) == 1
    assert hash(ExactScalar.zero()) == hash(QQi(0)) == hash(0) == 0
    assert hash(QQi(5, 0)) == hash(QQi(Fraction(10, 2))) == hash(5)
    assert QQi(1, 2) == QQi(Fraction(2, 2), Fraction(4, 2))
    assert hash(QQi(1, 2)) == hash(QQi(Fraction(2, 2), Fraction(4, 2)))
    assert ExactScalar.i() != 0 and QQi(0, 1) != 0


def test_qqi_fields_are_canonical():
    q = QQi(Fraction(3, 4), Fraction(-5, 6))
    assert (q.a, q.b, q.d) == (9, -10, 12)
    assert (q.re, q.im) == (Fraction(3, 4), Fraction(-5, 6))
    z = q - q
    assert (z.a, z.b, z.d) == (0, 0, 1) and z == 0 and not z
    inv = QQi(0, -2).inverse()
    assert (inv.a, inv.b, inv.d) == (0, 1, 2)
    assert q * Fraction(4, 3) == QQi(1, Fraction(-10, 9))
    with pytest.raises(ZeroDivisionError):
        QQi(0).inverse()


def test_equality_across_coefficient_types_is_transitive():
    # one value in each coefficient type: every pair compares equal, in
    # either order, and hashes alike; a sqrt2 or pi term keeps a value
    # apart from every complex rational
    values = [
        [1, Fraction(1), QQi(1), ExactScalar.from_qqi(QQi(1))],
        [Fraction(-7, 3), QQi(Fraction(-7, 3)), ExactScalar.rational(-7, 3)],
        [0, Fraction(0), QQi(0), ExactScalar.zero()],
        [QQi(1, 1), ExactScalar.from_qqi(QQi(1, 1)),
         ExactScalar.one() + ExactScalar.i()],
        [QQi(Fraction(1, 2), -3),
         ExactScalar.from_qqi(QQi(Fraction(1, 2), -3))],
    ]
    for group in values:
        for x in group:
            for y in group:
                assert x == y and y == x and hash(x) == hash(y)
    flat = [x for group in values for x in group]
    for i, group in enumerate(values):
        for j, other in enumerate(values):
            if i != j:
                assert all(x != y for x in group for y in other)
    apart = [ExactScalar.sqrt2(), ExactScalar.pi_half_power(2),
             ExactScalar.one() + ExactScalar.sqrt2()]
    assert all(x != y and y != x for x in apart for y in flat)
    assert len(set(flat)) == len(values)
