"""Matrix group mod sign: composition, actions, words."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bqf import (
    IDENTITY,
    R,
    T,
    U,
    V,
    AlgebraicPoint,
    GroupElement,
    QuadraticForm,
    act_on_form,
    act_on_point,
    base_point,
    base_point_transform,
    compose,
    element_to_word,
    generator_element,
    inverse,
    normalize_word,
    word_to_element,
)
from bqf.group import MAX_WORD_LETTERS

from helpers import random_element, random_positive_definite


@st.composite
def normal_chunks(draw):
    """An R-free normal word: letters alternating between T and {U, V}.

    A same-letter run of up to 50 U or V at each end of the random middle
    gives long (TU)^k and (TV)^k runs at both ends of the word.
    """
    run = st.tuples(st.sampled_from("UV"), st.integers(0, 50))
    (head, i), (tail, k) = draw(run), draw(run)
    middle = draw(st.lists(st.sampled_from("UV"), max_size=12))
    body = "T".join([head] * i + middle + [tail] * k)
    if not body:
        return draw(st.sampled_from(("", "T")))
    return draw(st.sampled_from(("", "T"))) + body + draw(st.sampled_from(("", "T")))


def raw_product(g, h):
    # independent 2x2 product on plain tuples, canonical sign by hand
    r = g[0] * h[0] + g[1] * h[2]
    s = g[0] * h[1] + g[1] * h[3]
    t = g[2] * h[0] + g[3] * h[2]
    u = g[2] * h[1] + g[3] * h[3]
    if t < 0 or (t == 0 and u < 0):
        r, s, t, u = -r, -s, -t, -u
    return (r, s, t, u)


def as_tuple(g):
    return (g.r, g.s, g.t, g.u)


def test_constants():
    assert as_tuple(T) == (0, -1, 1, 0)
    assert as_tuple(U) == (0, -1, 1, 1)
    assert as_tuple(V) == (-1, -1, 1, 0)
    assert as_tuple(R) == (-1, 0, 0, 1)  # sign flipped to the canonical side
    assert as_tuple(IDENTITY) == (1, 0, 0, 1)
    assert T.det == U.det == V.det == 1
    assert R.det == -1


def test_generator_element():
    assert generator_element("T") == T


def test_compose_against_raw_product():
    rng = random.Random(0x61)
    for _ in range(400):
        g = random_element(rng, rng.randint(0, 12))
        h = random_element(rng, rng.randint(0, 12))
        assert as_tuple(compose(g, h)) == raw_product(as_tuple(g), as_tuple(h))
        assert g * h == compose(g, h)


def test_group_relations():
    assert compose(T, T) == IDENTITY
    assert compose(U, compose(U, U)) == IDENTITY
    assert compose(U, U) == V
    assert compose(R, R) == IDENTITY
    assert compose(T, U) == GroupElement(1, 1, 0, 1)  # the unit translation


def test_inverse():
    rng = random.Random(0x62)
    for _ in range(300):
        g = random_element(rng, rng.randint(0, 14))
        assert compose(g, inverse(g)) == IDENTITY
        assert compose(inverse(g), g) == IDENTITY
    assert inverse(T) == T
    assert inverse(U) == V


def test_det_multiplicative():
    rng = random.Random(0x63)
    for _ in range(200):
        g = random_element(rng, 9)
        h = random_element(rng, 9)
        assert compose(g, h).det == g.det * h.det


def test_form_action_examples():
    f = QuadraticForm(1, 2, 3)
    assert act_on_form(T, f) == QuadraticForm(3, -2, 1)
    assert act_on_form(R, f) == QuadraticForm(1, -2, 3)
    assert act_on_form(IDENTITY, f) == f
    # the translation T*U shifts b by -2a and keeps a
    s = compose(T, U)
    assert act_on_form(s, f) == QuadraticForm(1, 0, 2)


def test_form_action_is_adjugate_substitution():
    # defining property: (g F)(x, y) == F(ux - sy, -tx + ry)
    rng = random.Random(0x66)
    for _ in range(500):
        f = random_positive_definite(rng, max_coeff=10**4)
        g = random_element(rng, rng.randint(0, 10))
        image = act_on_form(g, f)
        for _ in range(4):
            x, y = rng.randint(-9, 9), rng.randint(-9, 9)
            assert image.evaluate(x, y) == f.evaluate(
                g.u * x - g.s * y, -g.t * x + g.r * y
            )


def test_form_action_is_left_action():
    rng = random.Random(0x64)
    for _ in range(2000):
        g = random_element(rng, rng.randint(0, 10))
        h = random_element(rng, rng.randint(0, 10))
        f = random_positive_definite(rng, max_coeff=10**4)
        assert act_on_form(g, act_on_form(h, f)) == act_on_form(compose(g, h), f)


def test_form_action_preserves_invariants():
    rng = random.Random(0x65)
    for _ in range(500):
        g = random_element(rng, rng.randint(0, 12))
        f = random_positive_definite(rng, max_coeff=10**5)
        image = act_on_form(g, f)
        assert image.discriminant() == f.discriminant()
        assert image.is_positive_definite()
        assert image.content() == f.content()


def test_point_action_examples():
    i = AlgebraicPoint(0, 1, -1)
    rho = AlgebraicPoint(-1, 2, -3)  # the order-3 fixed point of U
    assert act_on_point(T, i) == i
    assert act_on_point(U, rho) == rho
    assert act_on_point(R, AlgebraicPoint(1, 2, -5)) == AlgebraicPoint(-1, 2, -5)
    assert act_on_point(compose(T, U), rho) == AlgebraicPoint(1, 2, -3)


def test_point_action_is_left_action():
    rng = random.Random(0x67)
    for _ in range(600):
        g = random_element(rng, rng.randint(0, 10))
        h = random_element(rng, rng.randint(0, 10))
        z = base_point(random_positive_definite(rng, max_coeff=50))
        assert act_on_point(g, act_on_point(h, z)) == act_on_point(compose(g, h), z)


def test_point_action_preserves_upper_half_plane():
    rng = random.Random(0x68)
    for _ in range(300):
        g = random_element(rng, rng.randint(0, 12))
        z = base_point(random_positive_definite(rng, max_coeff=100))
        w = act_on_point(g, z)
        assert w.q > 0 and w.D < 0


def test_base_point_equivariance():
    rng = random.Random(0x69)
    for _ in range(800):
        g = random_element(rng, rng.randint(0, 10))
        f = random_positive_definite(rng, max_coeff=10**4)
        lhs = base_point(act_on_form(g, f))
        rhs = act_on_point(base_point_transform(g), base_point(f))
        assert lhs == rhs


def test_base_point_transform_is_automorphism():
    rng = random.Random(0x6A)
    for _ in range(300):
        g = random_element(rng, 8)
        h = random_element(rng, 8)
        assert base_point_transform(compose(g, h)) == compose(
            base_point_transform(g), base_point_transform(h)
        )
    assert base_point_transform(base_point_transform(T)) == T


def test_word_to_element():
    assert word_to_element("") == IDENTITY
    assert word_to_element("TU") == GroupElement(1, 1, 0, 1)
    assert word_to_element("VTVTVTUTU") == GroupElement(-3, -7, 1, 2)


def test_normalize_word_relations():
    for rel in ("RR", "TT", "UUU", "UV", "VU", "VVV", "RTRT", "TRTR",
                "RURTUT", "RVRTVT"):
        assert normalize_word(rel) == ""
    assert normalize_word("UU") == "V"
    assert normalize_word("VV") == "U"
    assert normalize_word("TRU") == "RTU"


def test_normalize_word_preserves_element_and_shape():
    rng = random.Random(0x6B)
    for _ in range(2000):
        w = "".join(rng.choice("RTUV") for _ in range(rng.randint(0, 20)))
        n = normalize_word(w)
        assert word_to_element(n) == word_to_element(w)
        assert normalize_word(n) == n
        body = n[1:] if n.startswith("R") else n
        assert "R" not in body
        for x, y in zip(body, body[1:]):
            assert (x == "T") != (y == "T")


def six_candidate_word(g):
    # reference: build all six x^-1 g y^-1 and take the first that is +- nonnegative
    r, s, t, u = g
    lead = "R" if r * u - s * t == -1 else ""
    if lead:
        t, u = -t, -u
    x, y, m = next(
        (x, y, m)
        for y, (r, s, t, u) in (("", (r, s, t, u)), ("T", (s, -r, u, -t)))
        for x, m in (
            ("", (r, s, t, u)), ("U", (-r - t, -s - u, r, s)), ("V", (-t, -u, r + t, s + u))
        )
        if min(m) >= 0 or max(m) <= 0
    )
    a, b, c, d = map(abs, m)
    runs = []
    while b or c:
        k = b // d
        a, b = a - k * c, b - k * d
        j = c // a
        c, d = c - j * a, d - j * b
        runs.append((k, j))
    return lead + x + "".join("TU" * k + "TV" * j for k, j in runs) + y


def test_element_to_word_on_every_small_element():
    # every element of determinant +-1 with entries in [-4, 4], mod sign
    span = range(-4, 5)
    elements = {
        GroupElement(r, s, t, u)
        for r in span for s in span for t in span for u in span
        if r * u - s * t in (1, -1)
    }
    assert len(elements) == 180
    for g in elements:
        w = element_to_word(g)
        body = w[1:] if w.startswith("R") else w
        assert "R" not in body
        assert all((x == "T") != (y == "T") for x, y in zip(body, body[1:]))
        assert word_to_element(w) == g
        assert w == six_candidate_word(g)


def test_word_bound_counts_every_letter():
    m = MAX_WORD_LETTERS // 2
    for g, letters in ((GroupElement(1, m + 1, 0, 1), 2 * m + 2),  # (TU)^(m+1)
                       (GroupElement(-1, m, 0, 1), 2 * m + 1)):  # R V (TV)^(m-1) T
        with pytest.raises(ValueError) as err:
            element_to_word(g)
        assert str(err.value) == f"word of {letters} letters exceeds the word bound 10^8"


@settings(deadline=None)
@given(st.booleans(), normal_chunks())
def test_normal_form_is_unique(lead_r, body):
    # every normal-shape word is the normal word of its own element
    n = "R" * lead_r + body
    assert element_to_word(word_to_element(n)) == n


def test_word_to_element_splits_at_any_point():
    rng = random.Random(0x6D)
    w = "".join(rng.choice("RTUV") for _ in range(10**5))
    g = word_to_element(w)
    for k in (0, 1, 2, 3, 777, rng.randrange(len(w)), len(w) // 2, len(w) - 1, len(w)):
        assert g == word_to_element(w[:k]) * word_to_element(w[k:])


def test_word_to_element_matches_left_to_right_compose():
    rng = random.Random(0x6E)
    for length in (1, 2, 3, 5, 8, 2000):
        w = "".join(rng.choice("RTUV") for _ in range(length))
        g = IDENTITY
        for ch in w:
            g = compose(g, generator_element(ch))
        assert word_to_element(w) == g


def test_word_to_element_unknown_letter():
    # the refusal names the first letter that is no generator, whichever function reads it
    cases = [(word_to_element, "X", "X"), (word_to_element, "TX", "X"),
             (word_to_element, "TUX", "X"), (word_to_element, "RTUVRTUVq", "q"),
             (normalize_word, "AB", "A"), (generator_element, "X", "X")]
    for fn, word, letter in cases:
        with pytest.raises(ValueError) as err:
            fn(word)
        assert str(err.value) == f"unknown generator letter {letter!r}", (fn, word)
