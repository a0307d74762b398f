"""The checks of the exact transforms hold on the integer-numerator
routes of `radon` and of the full `parseval_check`: float-lane input is
refused, the transform budget refuses before any image is made, radon's
result budget comes first, and the Parseval check reads the transforms
it computes."""

import sys

import pytest

from supertransform import fourier
from supertransform.expr import parse
from supertransform.fourier import parseval_check, super_integral_pair
from supertransform.radon import radon
from supertransform.scalars import to_float
from supertransform.superalg import VariableUniverse
from tests.oracles import radon_by_scalars

RADON = sys.modules["supertransform.radon"]

U11 = VariableUniverse.standard(1, 1)
F = parse("x1^4*G + x1*q1q2*G + q1*G", U11)     # 3 + 2 + 1 images
FLOAT = F.map_coefficients(to_float)
EXACT_LANE = "^exact transform or integral requires exact-lane input$"


def _no_images(*args):
    raise AssertionError("an image was made before the refusal")


@pytest.mark.parametrize("call", [
    lambda: radon(FLOAT),
    lambda: parseval_check(FLOAT, F, "full"),
    lambda: parseval_check(F, FLOAT, "full"),
], ids=["radon", "parseval-f", "parseval-g"])
def test_float_lane_input_is_refused(monkeypatch, call):
    monkeypatch.setattr(fourier, "_exact_images", _no_images)
    with pytest.raises(ValueError, match=EXACT_LANE):
        call()


@pytest.mark.parametrize("call", [
    lambda: radon(F),
    lambda: radon(FLOAT),
    lambda: parseval_check(F, F, "full"),
], ids=["radon", "radon-float", "parseval"])
def test_the_transform_budget_refuses_before_any_image(monkeypatch, call):
    monkeypatch.setattr(fourier, "MAX_TRANSFORM_TERMS", 5)
    monkeypatch.setattr(fourier, "_exact_images", _no_images)
    with pytest.raises(ValueError, match=(
            "^the transform could make 6 terms, over "
            "MAX_TRANSFORM_TERMS = 5$")):
        call()


def test_at_the_budget_both_routes_build(monkeypatch):
    # a limit of the count builds, and radon equals the scalar route
    monkeypatch.setattr(fourier, "MAX_TRANSFORM_TERMS", 6)
    assert radon(F) == radon_by_scalars(F)
    assert parseval_check(F, F, "full")


@pytest.mark.parametrize("lane", [lambda f: f,
                                  lambda f: f.map_coefficients(to_float)],
                         ids=["exact", "float"])
def test_radon_result_budget_comes_first(monkeypatch, lane):
    # over both budgets, and on either lane, the result budget names
    # itself, before any transform
    f = lane(parse("x3^30*G", VariableUniverse.standard(3, 2)))
    monkeypatch.setattr(fourier, "MAX_TRANSFORM_TERMS", 1)
    monkeypatch.setattr(RADON, "fourier_numerators", _no_images)
    with pytest.raises(ValueError, match=(
            "^radon could make 2236960 result entries, over "
            "MAX_RESULT_ENTRIES = 2000000$")):
        radon(f)


def test_parseval_reads_the_transforms_it_computes(monkeypatch):
    # doubling every image weight of the numerator pass scales each
    # transformed pairing by 4, so the check must fail
    f = parse("x1^2*G + 2*x1*q1*G + (1+i)*q1q2*G", U11)
    g = parse("3*G + x1*q2*G - q1q2*G", U11)
    assert super_integral_pair(f, g) and parseval_check(f, g, "full")
    images = fourier._images

    def corrupted(*args):
        return [(key, 2 * n, k) for key, n, k in images(*args)]

    monkeypatch.setattr(fourier, "_images", corrupted)
    assert parseval_check(f, g, "full") is False
