"""Imaginary quadratic irrationals (a + sqrt(-n))/c and their orbits."""

import random
from fractions import Fraction

import pytest

from bqf import (
    IDENTITY,
    R,
    T,
    U,
    AlgebraicPoint,
    QuadFieldElement,
    QuadraticForm,
    SameOrbitReport,
    act_on_element,
    act_on_point,
    compose,
    element_form,
    equivalent,
    generator_element,
    membership,
    norm,
    orbit_explore,
    same_orbit_form_check,
)
from bqf.qfield import _orbit

from helpers import random_element


def random_field_element(rng, span=60):
    while True:
        c = rng.randint(1, span)
        a = rng.randint(-span, span)
        n = rng.randint(1, span)
        if (a * a + n) % c == 0:
            return QuadFieldElement(a, c, n)


def test_construction_and_derived_b():
    alpha = QuadFieldElement(1, 2, 5)
    assert alpha.b == 3
    assert QuadFieldElement(0, 1, 1).b == 1


def test_membership():
    alpha = membership(1, 2, 5)
    assert alpha is not None and alpha.b == 3
    assert membership(1, 4, 5) is None
    assert membership(0, 0, 5) is None
    member = membership(0, 1, 1)
    assert member is not None and member.b == 1
    with pytest.raises(ValueError):
        membership(1, 2, 0)


def test_membership_primitive_flag():
    assert membership(2, 4, 4) is not None
    assert membership(2, 4, 4, primitive_only=True) is None
    assert membership(1, 2, 5, primitive_only=True) is not None


def test_to_point():
    assert QuadFieldElement(1, 2, 5).to_point() == AlgebraicPoint(1, 2, -5)
    assert QuadFieldElement(0, 1, 1).to_point() == AlgebraicPoint(0, 1, -1)


def test_norm():
    assert norm(QuadFieldElement(1, 2, 5)) == Fraction(3, 2)
    assert norm(QuadFieldElement(0, 1, 1)) == 1
    assert norm(QuadFieldElement(3, 2, 5)) == Fraction(7, 2)
    rng = random.Random(0xC0)
    for _ in range(300):
        alpha = random_field_element(rng)
        assert norm(alpha) == Fraction(alpha.b, alpha.c)
        assert norm(alpha) > 0


def test_element_form():
    assert element_form(QuadFieldElement(1, 2, 5)) == QuadraticForm(2, -2, 3)
    assert element_form(QuadFieldElement(0, 1, 1)) == QuadraticForm(1, 0, 1)
    assert element_form(QuadFieldElement(3, 2, 5)) == QuadraticForm(2, -6, 7)
    rng = random.Random(0xC1)
    for _ in range(300):
        alpha = random_field_element(rng)
        f = element_form(alpha)
        assert f.discriminant() == -4 * alpha.n
        assert f.is_positive_definite()


def test_act_examples():
    i = QuadFieldElement(0, 1, 1)
    assert act_on_element(T, i) == i
    alpha = QuadFieldElement(1, 2, 5)
    assert act_on_element(compose(T, U), alpha) == QuadFieldElement(3, 2, 5)
    assert act_on_element(IDENTITY, alpha) == alpha


def test_act_reflection_is_minus_conjugate():
    # R maps alpha to -conj(alpha): (a + sqrt(-n))/c to (-a + sqrt(-n))/c
    assert act_on_element(R, QuadFieldElement(1, 2, 5)) == QuadFieldElement(-1, 2, 5)
    rng = random.Random(0xC6)
    for _ in range(300):
        alpha = random_field_element(rng)
        assert act_on_element(R, alpha) == QuadFieldElement(-alpha.a, alpha.c, alpha.n)


def test_act_closure_and_axiom():
    rng = random.Random(0xC2)
    for _ in range(2000):
        alpha = random_field_element(rng)
        g = random_element(rng, rng.randint(0, 10))
        image = act_on_element(g, alpha)
        assert image.n == alpha.n
        assert (image.a**2 + image.n) % image.c == 0
        h = random_element(rng, rng.randint(0, 6))
        assert act_on_element(g, act_on_element(h, alpha)) == act_on_element(
            compose(g, h), alpha
        )


def test_act_agrees_with_point_action():
    rng = random.Random(0xC3)
    for _ in range(800):
        alpha = random_field_element(rng)
        g = random_element(rng, rng.randint(0, 10))
        assert act_on_element(g, alpha).to_point() == act_on_point(g, alpha.to_point())


def test_orbit_explore_small():
    alpha = QuadFieldElement(1, 2, 5)
    assert orbit_explore(alpha, 0) == {alpha}
    depth2 = orbit_explore(alpha, 2)
    expected = {
        QuadFieldElement(-4, 3, 5),
        QuadFieldElement(-3, 7, 5),
        QuadFieldElement(-2, 3, 5),
        QuadFieldElement(-1, 2, 5),
        QuadFieldElement(-1, 3, 5),
        QuadFieldElement(1, 2, 5),
        QuadFieldElement(3, 2, 5),
        QuadFieldElement(4, 7, 5),
    }
    assert depth2 == expected
    assert QuadFieldElement(3, 2, 5) in depth2


def test_orbit_explore_depth_validation():
    alpha = QuadFieldElement(0, 1, 1)
    with pytest.raises(ValueError):
        orbit_explore(alpha, -1)
    with pytest.raises(ValueError):
        orbit_explore(alpha, 13)


def test_orbit_monotone_in_depth():
    alpha = QuadFieldElement(1, 2, 5)
    previous = {alpha}
    for depth in range(1, 6):
        current = orbit_explore(alpha, depth)
        assert previous <= current
        previous = current


def test_same_orbit_form_check_positive():
    report = same_orbit_form_check(
        QuadFieldElement(1, 2, 5), QuadFieldElement(3, 2, 5), 6
    )
    assert report.alpha_form == QuadraticForm(2, -2, 3)
    assert report.beta_form == QuadraticForm(2, -6, 7)
    assert report.forms_equivalent and report.reachable
    assert report.consistent and not report.violation
    assert not report.possibly_truncated


def test_same_orbit_form_check_reflexive():
    alpha = QuadFieldElement(1, 2, 5)
    report = same_orbit_form_check(alpha, alpha, 0)
    assert report.forms_equivalent and report.reachable


def test_same_orbit_form_check_negative():
    report = same_orbit_form_check(
        QuadFieldElement(0, 1, 5), QuadFieldElement(1, 2, 5), 6
    )
    assert not report.forms_equivalent and not report.reachable
    assert report.consistent


def test_same_orbit_form_check_truncation():
    # (3 + sqrt(-5))/2 needs two letters; depth 1 must report truncation
    report = same_orbit_form_check(
        QuadFieldElement(1, 2, 5), QuadFieldElement(3, 2, 5), 1
    )
    assert report.forms_equivalent and not report.reachable
    assert report.possibly_truncated and report.consistent


def test_same_orbit_form_check_rejects_mixed_n():
    with pytest.raises(ValueError):
        same_orbit_form_check(QuadFieldElement(0, 1, 5), QuadFieldElement(0, 1, 1), 2)


def test_pibar_orbit_is_extended_equivalent():
    # the paper's group on Q*(sqrt(-n)): Pi-bar = Pi u Pi R, so the Pi-bar orbit of alpha is
    # the rotation orbits of alpha and of R alpha = -conj(alpha); every member's form is
    # extended-equivalent to alpha's, and 900 of the pairs only by a reflection
    pairs = improper = 0
    for n in (1, 2, 3, 5, 6, 14):
        for a in range(-6, 7):
            for c in range(1, 7):
                alpha = membership(a, c, n)
                if alpha is None:
                    continue
                fa = element_form(alpha)
                for beta in orbit_explore(alpha, 6) | orbit_explore(act_on_element(R, alpha), 6):
                    fb = element_form(beta)
                    assert equivalent(fa, fb, "extended") is not None
                    improper += equivalent(fa, fb, "proper") is None
                    pairs += 1
    assert (pairs, improper) == (16221, 900)


def reference_orbit_distances(alpha, depth):
    # breadth first through act_on_element, each member with its word length
    gens = [generator_element(ch) for ch in "TUV"]
    dist = {alpha: 0}
    frontier = [alpha]
    for d in range(1, depth + 1):
        grown = []
        for el in frontier:
            for g in gens:
                image = act_on_element(g, el)
                if image not in dist:
                    dist[image] = d
                    grown.append(image)
        frontier = grown
    return dist


def large_field_element(rng, a_max, c_max, n_max):
    # n is drawn from the class of -a^2 mod c, so no draw is rejected
    a, c = rng.randint(-a_max, a_max), rng.randint(1, c_max)
    return QuadFieldElement(a, c, (-a * a) % c + c * rng.randint(1, n_max // c))


def orbit_test_elements():
    # negative a, c > 1 and n up to 10^6, besides the README example and i
    rng = random.Random(0xC4)
    elements = [QuadFieldElement(1, 2, 5), QuadFieldElement(0, 1, 1)]
    while len(elements) < 8:
        alpha = large_field_element(rng, 2000, 400, 10**6)
        if alpha.a < 0 and alpha.c > 1:
            elements.append(alpha)
    return elements


def test_orbit_explore_matches_reference_bfs():
    for alpha in orbit_test_elements():
        dist = reference_orbit_distances(alpha, 12)
        for depth in range(13):
            assert orbit_explore(alpha, depth) == {e for e, d in dist.items() if d <= depth}


def test_additive_images_are_the_generator_actions():
    rng = random.Random(0xC5)
    checked = 0
    while checked < 300:
        alpha = random_field_element(rng) if checked % 2 else large_field_element(rng, 10**6, 10**3, 10**6)
        images = [act_on_element(generator_element(ch), alpha) for ch in "TUV"]
        if len({alpha, *images}) < 4:
            continue  # a fixed point or a coincidence; then _orbit yields fewer
        walked = list(_orbit(alpha, 1))
        assert walked[0] == (alpha.a, alpha.c, alpha.b)
        assert walked[1:] == [(e.a, e.c, e.b) for e in images]
        checked += 1


# i = 0/1/1 and rho = -1/2/3, and 0/2/4 and 1/2/3 over them, have nontrivial stabilizers,
# so two words of one length meet there and the walk's seen set has work to do
STABILIZED = [QuadFieldElement(0, 1, 1), QuadFieldElement(-1, 2, 3), QuadFieldElement(0, 2, 4),
              QuadFieldElement(1, 2, 3)]


def test_walk_matches_reference_bfs_at_stabilized_points():
    # every alpha with n <= 12 and |a| <= 3, the four stabilized points among them
    elements = [membership(a, c, n) for n in range(1, 13) for a in range(-3, 4)
                for c in range(1, a * a + n + 1)]
    elements = [alpha for alpha in elements if alpha is not None]
    assert set(STABILIZED) <= set(elements)
    for alpha in elements:
        layers = [[] for _ in range(13)]
        for e, d in reference_orbit_distances(alpha, 12).items():
            layers[d].append((e.a, e.c, e.b))
        expected = set()
        for depth, layer in enumerate(layers):
            expected.update(layer)
            walked = list(_orbit(alpha, depth))
            assert len(walked) == len(expected) and set(walked) == expected  # no triple twice


def test_same_orbit_form_check_matches_orbit_membership():
    # reachable against the reference distance k, not against orbit_explore, which shares the
    # walk: beta is missed at depth k - 1 and reached at depth k; past depth 12, never reached
    for alpha in STABILIZED + orbit_test_elements()[:5]:
        dist = reference_orbit_distances(alpha, 12)
        betas = sorted(dist.items())[::7]
        betas += [(beta, 13) for beta in (QuadFieldElement(alpha.a + alpha.c, alpha.c, alpha.n),
                                          QuadFieldElement(0, 1, alpha.n)) if beta not in dist]
        fa = element_form(alpha)
        for beta, k in betas:
            fb = element_form(beta)
            forms_equivalent = equivalent(fa, fb) is not None
            for depth in {max(k - 1, 0), min(k, 12)}:
                expected = SameOrbitReport(fa, fb, forms_equivalent, k <= depth, depth)
                assert same_orbit_form_check(alpha, beta, depth) == expected


def test_orbit_depth_bounds_in_both_functions():
    alpha = QuadFieldElement(1, 2, 5)
    for depth in (-1, 13):
        with pytest.raises(ValueError):
            orbit_explore(alpha, depth)
        with pytest.raises(ValueError):
            same_orbit_form_check(alpha, alpha, depth)
