"""Gauss reduction with witnesses, and equivalence testing."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bqf import (
    IDENTITY,
    R,
    GroupElement,
    QuadraticForm,
    act_on_form,
    base_point,
    compose,
    element_to_word,
    equivalent,
    inverse,
    minimum_represented,
    reduce_form,
    reduction,
    word_to_element,
)

from helpers import random_element, random_positive_definite, random_skewed_form, within

WIDE = QuadraticForm(1, 2 * 10**7, 10**14 + 1)  # one translation by 10^7


@st.composite
def moved_forms(draw):
    """A positive definite form moved by an arbitrary word."""
    a, c = draw(st.integers(1, 10**6)), draw(st.integers(1, 10**6))
    b_max = math.isqrt(4 * a * c - 1)
    f = QuadraticForm(a, draw(st.integers(-b_max, b_max)), c)
    return act_on_form(word_to_element(draw(st.text(alphabet="RTUV", max_size=40))), f)


def test_worked_example():
    result = reduce_form(QuadraticForm(11, 49, 55))
    assert result.reduced == QuadraticForm(1, 1, 5)
    assert result.witness == GroupElement(-3, -7, 1, 2)
    assert result.word == "VTVTVTUTU"
    assert result.steps == 3
    assert act_on_form(result.witness, QuadraticForm(11, 49, 55)) == result.reduced
    assert word_to_element(result.word) == result.witness


def test_already_reduced_is_untouched():
    for f in (QuadraticForm(1, 1, 1), QuadraticForm(2, -1, 3), QuadraticForm(1, 0, 1)):
        result = reduce_form(f)
        assert result.reduced == f
        assert result.witness == IDENTITY
        assert result.word == ""
        assert result.steps == 0


def test_tie_rules_applied():
    # a = c with b < 0 swaps to the nonnegative-b representative
    result = reduce_form(QuadraticForm(3, -2, 3))
    assert result.reduced == QuadraticForm(3, 2, 3)
    assert act_on_form(result.witness, QuadraticForm(3, -2, 3)) == result.reduced
    # b = -a translates to b = +a
    result = reduce_form(QuadraticForm(2, -2, 5))
    assert result.reduced == QuadraticForm(2, 2, 5)


def test_content_is_carried_through():
    result = reduce_form(QuadraticForm(22, 98, 110))
    assert result.reduced == QuadraticForm(2, 2, 10)
    assert act_on_form(result.witness, QuadraticForm(22, 98, 110)) == result.reduced


def test_rejects_non_positive_definite():
    with pytest.raises(ValueError):
        reduce_form(QuadraticForm(1, 3, 1))
    with pytest.raises(ValueError):
        reduce_form(QuadraticForm(-1, 0, -1))


def test_reduction_properties_bulk():
    # soundness, canonicality ingredients, and the step bound in one sweep
    rng = random.Random(0xD0)
    for k in range(10_000):
        f = random_positive_definite(rng) if k % 2 else random_skewed_form(rng)
        result = reduce_form(f)
        assert result.reduced.is_reduced()
        assert result.reduced.is_almost_reduced()
        assert result.reduced.discriminant() == f.discriminant()
        assert act_on_form(result.witness, f) == result.reduced
        assert word_to_element(result.word) == result.witness
        assert 3 * result.reduced.a**2 <= -f.discriminant()
        limit = 4 * max(f.a, abs(f.b), f.c).bit_length() + 8
        assert result.steps <= limit


def two_branch_reduce(form):
    # reference loop: each pass either translates, swaps or stops
    a, b, c = form
    r, s, t, u = 1, 0, 0, 1
    steps = 0
    while True:
        if not -a < b <= a:
            m = -((a - b) // (2 * a))  # ceil((b - a) / (2a))
            c = a * m * m - b * m + c
            b = b - 2 * a * m
            r, s = r + m * t, s + m * u
            steps += 1
        elif a > c or (a == c and b < 0):
            a, b, c = c, -b, a
            r, s, t, u = -t, -u, r, s
            steps += 1
        else:
            break
    return QuadraticForm(a, b, c), GroupElement(r, s, t, u), steps


def reduce_checked(form):
    # _reduce with its raw witness validated and made canonical, as reduce_form does
    reduced, (r, s, t, u), steps = reduction._reduce(form)
    assert r * u - s * t == 1  # as _reduce's docstring says, not just +-1
    return reduced, GroupElement(r, s, t, u), steps


@st.composite
def uniform_forms(draw, bound=10**6):
    a, c = draw(st.integers(1, bound)), draw(st.integers(1, bound))
    b_max = math.isqrt(4 * a * c - 1)
    return QuadraticForm(a, draw(st.integers(-b_max, b_max)), c)


@st.composite
def continued_fraction_forms(draw, qbits=40):
    """A small form moved by (q1 1 / 1 0)(q2 1 / 1 0)... up to 1024 bits, with
    partial quotients of both signs and up to qbits bits, so that reduction takes
    many steps."""
    f = draw(uniform_forms(50))
    bits = draw(st.integers(1, 1024))
    r, s, t, u = 1, 0, 0, 1
    while max(abs(r), abs(s), abs(t), abs(u)).bit_length() < bits:
        q = draw(st.integers(1, 2 ** draw(st.integers(1, qbits)))) * draw(st.sampled_from((1, -1)))
        r, s, t, u = r * q + s, r, t * q + u, t
    return act_on_form(GroupElement(r, s, t, u), f)


@st.composite
def tie_forms(draw):
    """b = -a, or a = c with b < 0, possibly moved by a translation that the
    reduction undoes first."""
    a = draw(st.integers(1, 10**6))
    if draw(st.booleans()):
        f = QuadraticForm(a, -a, draw(st.integers(a // 4 + 1, 10**6 + a)))
    else:
        f = QuadraticForm(a, -draw(st.integers(1, 2 * a - 1)), a)
    m = draw(st.integers(-3, 3))  # act by (1 m / 0 1): b -> b + 2am
    return act_on_form(GroupElement(1, m, 0, 1), f)


@settings(deadline=None, max_examples=400)
@given(
    st.one_of(uniform_forms(), continued_fraction_forms(), tie_forms()),
    st.sampled_from((1, 1, 2, 6, 10**9)),
)
def test_reduce_matches_two_branch_loop(f, content):
    # one pass of _reduce translates and then swaps; the reduced form, the
    # witness and the step count are those of the two-branch loop
    f = QuadraticForm(content * f.a, content * f.b, content * f.c)
    reduced, witness, steps = reduce_checked(f)
    assert (reduced, witness, steps) == two_branch_reduce(f)
    assert reduced.is_reduced()
    assert act_on_form(witness, f) == reduced
    assert steps <= 4 * max(f.a, abs(f.b), f.c).bit_length() + 8


def test_reduce_returns_from_both_half_passes():
    # _reduce's round is two half-passes, the second on the swapped form read in
    # place; an odd swap count returns from the second, an even one from the
    # first. Moves: t a translation, s a swap, = the stop.
    cases = [
        QuadraticForm(1, 0, 1),  # = (0 swaps)
        QuadraticForm(1, -2, 2),  # t = (0)
        QuadraticForm(2, 3, 2),  # t s = (1)
        QuadraticForm(9, -10, 3),  # t s t s = (2)
        QuadraticForm(54, -44, 9),  # s t s t s = (3)
        QuadraticForm(3, -2, 3),  # a == c, b < 0: s = (1)
        QuadraticForm(3, 2, 3),  # a == c, b > 0: = (0)
        QuadraticForm(5, 5, 2),  # s t, then a == c with b < 0: s = (2)
        QuadraticForm(3, -3, 1),  # t s t, then a == c with b > 0: = (1)
        QuadraticForm(2, 2, 1),  # s t, then a == c with b == 0: = (1)
        QuadraticForm(2, 1, 1),  # s, then b == -a: t = (1)
        QuadraticForm(7, 7, 2),  # s t s, then b == -a: t = (2)
    ]
    rng = random.Random(4096)  # partial quotients <= 3 up to 4096 bits
    r, s, t, u = 1, 0, 0, 1
    while max(r, s, t, u).bit_length() < 4096:
        q = rng.randint(1, 3)
        r, s, t, u = r * q + s, r, t * q + u, t
    cases.append(act_on_form(GroupElement(r, s, t, u), QuadraticForm(2, 1, 3)))
    for f in cases:
        assert reduce_checked(f) == two_branch_reduce(f), f
    assert reduction._reduce(cases[-1])[2] > 4096


@settings(deadline=None)
@given(st.one_of(moved_forms(), continued_fraction_forms(qbits=6)))
def test_word_is_the_witness_normal_form(f):
    # a continued fraction form's word has hundreds of runs, each read off one column of
    # the witness: the odd-length expansion and the trailing run must multiply back to it
    result = reduce_form(f)
    assert result.word == element_to_word(result.witness)
    assert word_to_element(result.word) == result.witness


def test_wide_translation_word():
    result = within(1.0, lambda: reduce_form(WIDE))
    assert result.reduced == QuadraticForm(1, 0, 1)
    assert result.witness == GroupElement(1, 10**7, 0, 1)
    assert result.steps == 1
    assert result.word == "TU" * 10**7


def test_equivalent_wide_builds_no_word():
    g = within(1.0, lambda: equivalent(WIDE, QuadraticForm(1, 0, 1)))
    assert act_on_form(g, QuadraticForm(1, 0, 1)) == WIDE


def test_word_bound_refuses_huge_translation():
    huge = QuadraticForm(1, 2 * 10**300, 10**600 + 1)  # one translation by 10^300
    with pytest.raises(ValueError) as err:
        within(0.01, lambda: reduce_form(huge))
    assert str(err.value) == f"word of {2 * 10**300} letters exceeds the word bound 10^8"
    g = within(0.01, lambda: equivalent(huge, QuadraticForm(1, 0, 1)))
    assert act_on_form(g, QuadraticForm(1, 0, 1)) == huge


def test_reduction_is_idempotent_on_classes():
    rng = random.Random(0xD1)
    for _ in range(300):
        f = random_positive_definite(rng, max_coeff=10**4)
        g = random_element(rng, rng.randint(0, 12))
        if g.det == -1:
            g = compose(g, g)  # force det +1
        moved = act_on_form(g, f)
        assert reduce_form(moved).reduced == reduce_form(f).reduced


def test_equivalent_same_class():
    rng = random.Random(0xD2)
    for _ in range(300):
        f = random_positive_definite(rng, max_coeff=10**4)
        g = random_element(rng, rng.randint(0, 10))
        if g.det == -1:
            g = compose(g, g)
        moved = act_on_form(g, f)
        witness = equivalent(f, moved, mode="proper")
        assert witness is not None
        assert witness.det == 1
        assert act_on_form(witness, moved) == f


def test_equivalent_examples():
    assert equivalent(QuadraticForm(1, 0, 5), QuadraticForm(2, 2, 3)) is None
    w = equivalent(QuadraticForm(11, 49, 55), QuadraticForm(1, 1, 5))
    assert w is not None
    assert act_on_form(w, QuadraticForm(1, 1, 5)) == QuadraticForm(11, 49, 55)


def test_equivalent_reduces_each_form_once(monkeypatch):
    calls = []
    real = reduction._reduce
    monkeypatch.setattr(reduction, "_reduce", lambda f: calls.append(f) or real(f))
    pairs = [((2, 1, 3), (2, -1, 3)), ((11, 49, 55), (1, 1, 5)), ((1, 0, 5), (2, 2, 3)),
             ((2, 1, 3), (2, 1, 4))]
    for mode in ("proper", "extended"):
        for f, g in pairs:
            calls.clear()
            result = equivalent(QuadraticForm(*f), QuadraticForm(*g), mode)
            assert len(calls) == 2
        assert result is None  # the last pair's discriminants differ: both are still reduced


@settings(deadline=None, max_examples=200)
@given(moved_forms(), st.text(alphabet="RTUV", max_size=30))
def test_equivalent_witness_is_the_group_product(f, word):
    # equivalent multiplies raw matrices and validates once; the witness is still the
    # public group product of the two reduce_form witnesses, R between them if mirrored
    other = act_on_form(word_to_element(word), f)
    wf, wo = reduce_form(f).witness, reduce_form(other).witness
    proper = compose(inverse(wf), wo)
    same = act_on_form(proper, other) == f
    assert equivalent(f, other, "proper") == (proper if same else None)
    assert equivalent(f, other, "extended") == (proper if same else
                                                compose(compose(inverse(wf), R), wo))


def test_extended_finds_every_mirror_image():
    # small coefficients put many reduced forms on the boundary, where the
    # mirror of a reduced form is not reduced
    rng = random.Random(0xD4)
    for _ in range(400):
        f = random_positive_definite(rng, max_coeff=30)
        moved = act_on_form(random_element(rng, rng.randint(0, 10)), f.mirror())
        w = equivalent(f, moved, mode="extended")
        assert w is not None
        assert act_on_form(w, moved) == f


def test_extended_covers_proper():
    rng = random.Random(0xD3)
    for _ in range(200):
        f = random_positive_definite(rng, max_coeff=10**3)
        g = random_element(rng, rng.randint(0, 8))
        if g.det == -1:
            g = compose(g, g)
        moved = act_on_form(g, f)
        w = equivalent(f, moved, mode="extended")
        assert w is not None
        assert act_on_form(w, moved) == f


def test_equivalent_mismatched_discriminants():
    # reduction keeps the discriminant, so the reduced forms differ, and so does each mirror
    pairs = [((1, 0, 1), (1, 0, 2)), ((2, 1, 3), (2, 1, 4)), ((2, 1, 3), (2, -1, 4)),
             ((2, -1, 3), (2, 1, 4))]
    for mode in ("proper", "extended"):
        for f, g in pairs:
            assert equivalent(QuadraticForm(*f), QuadraticForm(*g), mode) is None
            assert equivalent(QuadraticForm(*g), QuadraticForm(*f), mode) is None


def test_equivalent_input_validation():
    refused = "only positive definite forms can be reduced"
    definite, indefinite = QuadraticForm(1, 0, 1), QuadraticForm(1, 3, 1)
    for mode in ("proper", "extended"):
        with pytest.raises(ValueError, match=f"^{refused}$"):
            equivalent(indefinite, definite, mode)
        with pytest.raises(ValueError, match=f"^{refused}$"):
            equivalent(definite, indefinite, mode)
        # the discriminants differ too, but the reduction refuses before any comparison
        with pytest.raises(ValueError, match=f"^{refused}$"):
            equivalent(indefinite, QuadraticForm(1, 0, 2), mode)
    with pytest.raises(ValueError, match="^mode must be 'proper' or 'extended', got 'sideways'$"):
        equivalent(indefinite, definite, mode="sideways")


def test_equivalence_matches_base_point_canonicality():
    # proper equivalence <=> identical reduced forms <=> identical base points
    rng = random.Random(0xD4)
    for _ in range(400):
        f = random_positive_definite(rng, max_coeff=200)
        g = random_positive_definite(rng, max_coeff=200)
        rf, rg = reduce_form(f).reduced, reduce_form(g).reduced
        same = equivalent(f, g, mode="proper") is not None
        assert same == (rf == rg)
        assert same == (base_point(rf) == base_point(rg))


def test_minimum_represented_examples():
    assert minimum_represented(QuadraticForm(1, 0, 5)) == 1
    assert minimum_represented(QuadraticForm(2, 2, 3)) == 2
    assert minimum_represented(QuadraticForm(11, 49, 55)) == 1


def test_minimum_represented_against_scan():
    rng = random.Random(0xD5)
    for _ in range(60):
        f = random_positive_definite(rng, max_coeff=15)
        window = math.isqrt(-f.discriminant()) + 6
        best = min(
            f.evaluate(x, y)
            for x in range(-window, window + 1)
            for y in range(-window, window + 1)
            if (x, y) != (0, 0)
        )
        assert minimum_represented(f) == best
