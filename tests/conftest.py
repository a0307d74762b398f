import random
from fractions import Fraction

import pytest
from hypothesis import settings

from supertransform.scalars import ExactScalar, QQi
from supertransform.superalg import GaussianFunction, SuperPolynomial

# every property test is reproducible and keeps no example database; a
# test sets only its own max_examples
settings.register_profile("supertransform", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("supertransform")


def random_scalar(rng, parts=2, radical=True):
    terms = {}
    for _ in range(rng.randint(1, parts)):
        b = rng.randint(-2, 2) if radical else 0
        eps = rng.randint(0, 1) if radical else 0
        q = QQi(Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
                Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
        terms[(b, eps)] = q
    return ExactScalar(terms)


def random_rational_scalar(rng):
    return ExactScalar.rational(rng.randint(-5, 5), rng.randint(1, 4))


def random_poly(u, rng, degree=3, nterms=5, rational=True):
    terms = {}
    for _ in range(nterms):
        d = rng.randint(0, degree)
        bos = [0] * u.m
        mask = 0
        for _ in range(d):
            if u.m and (not u.fermionic or rng.random() < 0.5):
                bos[rng.randrange(u.m)] += 1
            elif u.fermionic:
                mask |= 1 << rng.randrange(len(u.fermionic))
        c = (random_rational_scalar(rng) if rational
             else random_scalar(rng))
        terms[(tuple(bos), mask)] = c
    return SuperPolynomial(u, terms)


def random_gaussian(u, rng, degree=3, nterms=4):
    return GaussianFunction(random_poly(u, rng, degree, nterms))


@pytest.fixture
def rng():
    return random.Random(20260808)
