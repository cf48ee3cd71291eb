"""Coefficient-level behaviour of integral binary quadratic forms."""

import itertools
import random

import pytest

from bqf import QuadraticForm

from helpers import random_positive_definite


@pytest.mark.parametrize("text", ["", "1,2", "1,2,3,4", "1,x,3", "1;2;3"])
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError) as refusal:
        QuadraticForm.parse(text)
    assert str(refusal.value) == f"expected 'a,b,c', got {text!r}"


def test_discriminant_examples():
    assert QuadraticForm(1, 0, 1).discriminant() == -4
    assert QuadraticForm(1, 1, 1).discriminant() == -3
    assert QuadraticForm(11, 49, 55).discriminant() == -19
    assert QuadraticForm(2, 1, 3).discriminant() == -23
    assert QuadraticForm(1, 0, -1).discriminant() == 4


def test_discriminant_completes_the_square():
    # 4a*f(x, y) == (2ax + by)^2 - disc(f) * y^2 identically
    rng = random.Random(0xF0)
    for _ in range(300):
        f = QuadraticForm(*(rng.randint(-40, 40) for _ in range(3)))
        for x, y in ((1, 0), (0, 1), (1, 1), (2, -3), (-5, 4)):
            lhs = 4 * f.a * f.evaluate(x, y)
            rhs = (2 * f.a * x + f.b * y) ** 2 - f.discriminant() * y * y
            assert lhs == rhs


def test_evaluate_examples():
    assert QuadraticForm(1, 0, 1).evaluate(3, 4) == 25
    assert QuadraticForm(2, -1, 3).evaluate(1, 1) == 4
    assert QuadraticForm(11, 49, 55).evaluate(1, -1) == 17
    assert QuadraticForm(5, 3, -2).evaluate(0, 0) == 0


def test_content_and_primitivity():
    assert QuadraticForm(4, 6, 10).content() == 2
    assert QuadraticForm(4, 6, 10).is_primitive() is False
    assert QuadraticForm(2, 1, 3).content() == 1
    assert QuadraticForm(2, 1, 3).is_primitive() is True
    assert QuadraticForm(0, 0, 7).content() == 7
    assert QuadraticForm(-4, 0, -8).content() == 4


def test_content_of_zero_form_rejected():
    with pytest.raises(ValueError):
        QuadraticForm(0, 0, 0).content()


def test_positive_definite():
    # disc -4 and -23 hold; disc 5, a < 0, a = 0 and disc 0 do not
    texts = ("1,0,1", "2,-1,3", "1,3,1", "-1,0,-1", "0,0,1", "1,2,1")
    flags = [QuadraticForm.parse(t).is_positive_definite() for t in texts]
    assert flags == [True, True, False, False, False, False]


def test_positive_definite_means_positive_values():
    rng = random.Random(0xF1)
    for _ in range(200):
        f = random_positive_definite(rng, max_coeff=50)
        assert f.is_positive_definite()
        for _ in range(10):
            x, y = rng.randint(-8, 8), rng.randint(-8, 8)
            if (x, y) != (0, 0):
                assert f.evaluate(x, y) > 0


def test_almost_reduced_and_reduced():
    # (almost reduced, reduced): reduced forbids b = -a, and a = c with b < 0;
    # the last three fail |b| <= a <= c
    texts = ("2,1,3", "2,-1,3", "1,1,1", "3,3,5", "2,1,2", "3,-3,5", "2,-1,2", "3,4,5", "5,1,3", "1,3,1")
    flags = [(f.is_almost_reduced(), f.is_reduced()) for f in map(QuadraticForm.parse, texts)]
    assert flags == [(True, True)] * 5 + [(True, False)] * 2 + [(False, False)] * 3


def test_reduced_implies_almost_reduced():
    for coefficients in itertools.product(range(-9, 10), repeat=3):
        f = QuadraticForm(*coefficients)
        assert f.is_almost_reduced() or not f.is_reduced(), f


def test_mirror():
    assert QuadraticForm(2, 1, 3).mirror() == QuadraticForm(2, -1, 3)
    f = QuadraticForm(11, 49, 55)
    assert f.mirror().mirror() == f
    assert f.mirror().discriminant() == f.discriminant()


def test_ordering_and_hash():
    assert len({QuadraticForm(1, 0, 1), QuadraticForm(1, 0, 1), QuadraticForm(1, 1, 1)}) == 2
    assert QuadraticForm(1, 0, 1) < QuadraticForm(1, 1, 1) < QuadraticForm(2, -1, 3)


def _chained_positive_definite(f):
    return f.discriminant() < 0 and f.a > 0 and f.c > 0


def _chained_almost_reduced(f):
    return _chained_positive_definite(f) and abs(f.b) <= f.a <= f.c


def _chained_reduced(f):
    if not _chained_almost_reduced(f):
        return False
    if abs(f.b) == f.a and f.b != f.a:
        return False
    if f.a == f.c and f.b < 0:
        return False
    return True


def test_predicates_match_the_chained_definitions():
    # every form with coefficients in [-9, 9]; the reference is the predicates'
    # earlier definition as a chain:
    # is_reduced -> is_almost_reduced -> is_positive_definite -> discriminant
    for a, b, c in itertools.product(range(-9, 10), repeat=3):
        f = QuadraticForm(a, b, c)
        assert f.is_positive_definite() is _chained_positive_definite(f), f
        assert f.is_almost_reduced() is _chained_almost_reduced(f), f
        assert f.is_reduced() is _chained_reduced(f), f
