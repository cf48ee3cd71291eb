"""Exact upper-half-plane points and the base-point correspondence."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bqf import (
    AlgebraicPoint,
    GroupElement,
    QuadraticForm,
    act_on_form,
    act_on_point,
    base_point,
    base_point_transform,
    enumerate_almost_reduced,
    form_from_point,
    in_fundamental_domain_pi,
    in_fundamental_domain_pibar,
    reduce_form,
)
from bqf import points
from bqf.residues import is_prime, smallest_prime_factors

from helpers import random_element, random_positive_definite, within


def moebius_oracle(g, z):
    # image of x + iy under g, tracked as exact (Re, Im^2); the same
    # rational formula covers both determinant signs
    x, y2 = z.re(), z.im_sq()
    den = (g.t * x + g.u) ** 2 + g.t * g.t * y2
    wx = ((g.r * x + g.s) * (g.t * x + g.u) + g.r * g.t * y2) / den
    return wx, y2 / den**2


def greedy_normalize(p, q, d):
    # the minimal triple by trial division of gcd(p, q) up to its square
    # root: exact, but exponential in the bit length
    g = math.gcd(p, q)
    f = 2
    while f * f <= g:
        if g % f == 0:
            while g % f == 0 and d % (f * f) == 0:
                p, q, d, g = p // f, q // f, d // (f * f), g // f
            while g % f == 0:
                g //= f
        f += 1
    if g > 1 and d % (g * g) == 0:
        p, q, d = p // g, q // g, d // (g * g)
    return p, q, d


def triple(z):
    return z.p, z.q, z.D


M61, M89 = 2**61 - 1, 2**89 - 1  # Mersenne primes


def test_coordinates():
    z = AlgebraicPoint(1, 2, -5)
    assert z.re() == Fraction(1, 2)
    assert z.im_sq() == Fraction(5, 4)
    assert z.abs_sq() == Fraction(3, 2)
    i = AlgebraicPoint(0, 1, -1)
    assert i.re() == 0 and i.im_sq() == 1 and i.abs_sq() == 1


def test_normalized_triple_is_canonical():
    # two equal points always normalize to identical field triples
    rng = random.Random(0x70)
    for _ in range(500):
        p = rng.randint(-30, 30)
        q = rng.randint(1, 30)
        d = -rng.randint(1, 60)
        k = rng.randint(1, 6)
        z = AlgebraicPoint(p, q, d)
        w = AlgebraicPoint(k * p, k * q, k * k * d)
        assert z == w
        assert (z.p, z.q, z.D) == (w.p, w.q, w.D)


@settings(deadline=None, max_examples=300)
@given(
    st.integers(-(10**6), 10**6),
    st.integers(1, 10**6),
    st.integers(-(10**6), -1),
    st.integers(1, 1000),
)
def test_normalization_matches_greedy_oracle(p, q, d, k):
    for args in ((p, q, d), (k * p, k * q, k * k * d)):
        assert triple(AlgebraicPoint(*args)) == greedy_normalize(*args)
        # M' = g^2 / gcd(g^2, D), g = gcd(p, q), is M / gcd(M, Q^2): Im^2 = -N/M, Re = P/Q
        pk, qk, dk = args
        g, m = math.gcd(pk, qk), qk * qk // math.gcd(qk * qk, dk)
        assert g * g // math.gcd(g * g, dk) == m // math.gcd(m, (qk // g) ** 2)


@settings(deadline=None)
@given(
    st.integers(-(10**6), 10**6),
    st.integers(1, 10**6),
    st.integers(-(10**6), -1),
    st.sampled_from([M61, M89, M61 * M89, M61 * M61]),
)
def test_normalized_triple_ignores_large_prime_scale(p, q, d, k):
    z = AlgebraicPoint(p, q, d)
    assert triple(AlgebraicPoint(k * p, k * q, k * k * d)) == triple(z)


def test_normalization_beyond_trial_bound_is_canonical():
    # M' = l^2 * m with primes l, m > 2^16 is past the bound: the rule keeps
    # q = l^2 * m where the minimal triple, (0, l*m, -m), has q = l*m
    ell, m = 2**20 - 3, 2**20 - 5
    z = AlgebraicPoint(0, ell * m, -m)
    assert triple(z) == (0, ell * ell * m, -ell * ell * m)
    assert (z.re(), z.im_sq()) == (0, Fraction(1, ell * ell * m))
    for k in (3, ell, M61):
        assert triple(AlgebraicPoint(0, k * ell * m, -k * k * m)) == triple(z)
    assert z == AlgebraicPoint(0, ell * m, -m)
    assert base_point(form_from_point(z)[0]) == z


def test_base_point_of_100_bit_prime_form_is_fast():
    p = 2**100 - 15  # prime
    z = within(1.0, lambda: base_point(QuadraticForm(p, p, p + 1)))
    assert triple(z) == (p, 2 * p, -3 * p * p - 4 * p)


def test_act_on_point_with_300_bit_witness_is_fast():
    rng = random.Random(0x76)
    r, s, t, u = 1, 0, 0, 1
    while max(abs(r), abs(s), abs(t), abs(u)).bit_length() < 300:
        for _ in range(2):  # two continued-fraction steps keep det = +1
            a = rng.randint(1, 3)
            r, s, t, u = r * a + s, r, t * a + u, t
    form = act_on_form(GroupElement(r, s, t, u), QuadraticForm(1, 1, 6))
    assert max(form.a, abs(form.b), form.c).bit_length() >= 300
    res = reduce_form(form)
    g = base_point_transform(res.witness)
    w = within(1.0, lambda: act_on_point(g, base_point(form)))
    assert w == base_point(res.reduced)


def test_trial_loop_worst_case_is_fast():
    # M' = l * m with two 40-bit primes: no early stop, every prime <= 2^16 tried
    ell, m = 2**40 - 87, 2**40 - 167
    z = within(1.0, lambda: AlgebraicPoint(0, ell * m, -ell * m))
    assert triple(z) == (0, ell * m, -ell * m)


def test_cofactor_prime_bound_keeps_every_triple_and_time(monkeypatch):
    # the prime test on the cofactor only ends trial division early, so with the bound
    # lowered to 20 bits, cofactors on both sides of it give the same triples; a prime ell
    # of up to 32 bits in both q and D is often the cofactor left after the small primes
    rng = random.Random(0x78)
    pool = [n for n in (rng.randrange(1 << (b - 1), 1 << b) for b in range(2, 33) for _ in range(12))
            if is_prime(n)]
    cases = []
    for _ in range(600):
        s = math.prod(rng.choice(pool) ** rng.randint(1, 2) for _ in range(rng.randint(0, 2)))
        ell = rng.choice(pool)
        d = -ell * math.gcd(s * s, rng.choice(pool) ** 2 * rng.choice(pool)) * rng.randint(1, 1000)
        cases.append((s * ell * rng.randint(-1000, 1000), s * ell * rng.randint(1, 1000), d))
    expected = [triple(AlgebraicPoint(*args)) for args in cases]
    monkeypatch.setattr(points, "MAX_PRIME_BITS", 20)
    assert [triple(AlgebraicPoint(*args)) for args in cases] == expected
    monkeypatch.undo()
    # F = 2^16384 + 1 has no prime factor below 2^16, so the cofactor F^2 of (F, F, -1)
    # gets neither a primality test above the real bound nor, after one gcd, trial division
    f = 2**16384 + 1
    assert triple(within(1.0, lambda: AlgebraicPoint(f, f, -1))) == (f, f, -1)


def test_cofactor_past_the_prime_bound_skips_trial_division_with_no_small_prime():
    # F = 10^130000 + 7 has no prime factor below 2^16, so one gcd with their product
    # shows that trial division of the ~864k-bit cofactor F^2 would strip nothing
    f = 10**130000 + 7
    assert math.gcd(f, points._small_primorial()) == 1
    assert triple(within(1.0, lambda: AlgebraicPoint(f, f, -1))) == (f, f, -1)
    # a small prime factor still sends a cofactor past the bound through the loop
    f = 2**16384 + 1
    assert triple(within(1.0, lambda: AlgebraicPoint(3 * f, 3 * f, -1))) == (3 * f, 3 * f, -1)


def test_cofactor_past_the_prime_bound_divides_only_by_its_small_primes():
    # 257 is the one prime below 2^16 that divides F = 3^270000 + 2 (or 3^60080 + 2), so
    # only 257 is tried on the cofactor F^2. On a 2-vCPU x86-64 VM, trial division by all
    # 6542 primes took ~1.8 s (~0.35 s); the ~0.45 s (~0.05 s) now fits 4x under each budget
    for f, budget in ((3**270000 + 2, 2.0), (3**60080 + 2, 0.25)):
        assert math.gcd(f, points._small_primorial()) == 257
        assert triple(within(budget, lambda: AlgebraicPoint(f, f, -1))) == (f, f, -1)


def test_small_primorial_is_the_product_of_the_table_primes():
    spf = smallest_prime_factors()
    assert points._small_primorial() == math.prod(n for n in range(2, len(spf)) if spf[n] == 0)


def test_trial_division_reads_primes_off_the_one_table():
    spf = smallest_prime_factors()
    flags = points._prime_flags()
    assert len(flags) == len(spf) - 2
    assert [n for n, flag in enumerate(flags, 2) if flag] == [n for n in range(2, len(spf)) if spf[n] == 0]


def test_base_point_examples():
    assert base_point(QuadraticForm(1, 0, 1)) == AlgebraicPoint(0, 1, -1)
    assert base_point(QuadraticForm(1, 1, 1)) == AlgebraicPoint(1, 2, -3)
    assert base_point(QuadraticForm(2, 2, 3)) == AlgebraicPoint(1, 2, -5)
    assert base_point(QuadraticForm(11, 49, 55)) == AlgebraicPoint(49, 22, -19)


def test_base_point_requires_positive_definite():
    with pytest.raises(ValueError):
        base_point(QuadraticForm(1, 3, 1))
    with pytest.raises(ValueError):
        base_point(QuadraticForm(-1, 0, -1))


def test_form_from_point_examples():
    f, scale = form_from_point(AlgebraicPoint(1, 2, -5))
    assert f == QuadraticForm(2, 2, 3)
    assert scale == Fraction(1, 3)
    f, scale = form_from_point(AlgebraicPoint(0, 1, -1))
    assert f == QuadraticForm(1, 0, 1)
    assert scale == Fraction(1, 1)


def test_point_form_round_trip():
    rng = random.Random(0x71)
    for _ in range(800):
        z = AlgebraicPoint(rng.randint(-40, 40), rng.randint(1, 40), -rng.randint(1, 80))
        f, _ = form_from_point(z)
        assert f.is_primitive() and f.is_positive_definite()
        assert base_point(f) == z


def test_form_point_round_trip():
    rng = random.Random(0x72)
    for _ in range(800):
        f = random_positive_definite(rng, max_coeff=10**4)
        g = f.content()
        primitive = QuadraticForm(f.a // g, f.b // g, f.c // g)
        recovered, _ = form_from_point(base_point(f))
        assert recovered == primitive


def test_point_action_matches_rational_oracle():
    rng = random.Random(0x73)
    for _ in range(1500):
        g = random_element(rng, rng.randint(0, 12))
        z = AlgebraicPoint(rng.randint(-20, 20), rng.randint(1, 20), -rng.randint(1, 40))
        w = act_on_point(g, z)
        wx, wy2 = moebius_oracle(g, z)
        assert (w.re(), w.im_sq()) == (wx, wy2)


def test_fundamental_domain_pi():
    assert in_fundamental_domain_pi(AlgebraicPoint(0, 1, -1))
    assert in_fundamental_domain_pi(AlgebraicPoint(1, 2, -3))   # corner
    assert in_fundamental_domain_pi(AlgebraicPoint(-1, 2, -3))  # mirror corner
    assert in_fundamental_domain_pi(AlgebraicPoint(0, 1, -9))
    assert not in_fundamental_domain_pi(AlgebraicPoint(1, 1, -1))
    assert not in_fundamental_domain_pi(AlgebraicPoint(0, 2, -1))


def test_fundamental_domain_pibar():
    assert in_fundamental_domain_pibar(AlgebraicPoint(0, 1, -1))
    assert in_fundamental_domain_pibar(AlgebraicPoint(1, 2, -3))
    # the reflected corner and the left half are excluded
    assert not in_fundamental_domain_pibar(AlgebraicPoint(-1, 2, -3))
    assert not in_fundamental_domain_pibar(AlgebraicPoint(-1, 4, -23))
    assert in_fundamental_domain_pibar(AlgebraicPoint(1, 4, -23))


def test_domain_membership_mirrors_reduction_shape():
    # base point lands in Pi iff the form is almost reduced, and in the
    # closed right half Pibar iff it is reduced with b >= 0
    rng = random.Random(0x75)
    for _ in range(1500):
        f = random_positive_definite(rng, max_coeff=60)
        z = base_point(f)
        assert in_fundamental_domain_pi(z) == f.is_almost_reduced()
        assert in_fundamental_domain_pibar(z) == (f.is_reduced() and f.b >= 0)

    def form_based_pibar(z):  # the earlier predicate, read off the primitive form of z
        form, _ = form_from_point(z)
        return form.b >= 0 and form.is_reduced()

    # the boundary points: every almost-reduced form, so the ties b = -a, b = a,
    # a = c and b = 0 all occur, primitive or not
    for delta in range(-2000, -2):
        if delta % 4 not in (0, 1):
            continue
        for f in enumerate_almost_reduced(delta):
            z = base_point(f)
            assert in_fundamental_domain_pi(z), f
            assert in_fundamental_domain_pibar(z) == form_based_pibar(z), f
            assert in_fundamental_domain_pibar(z) == (f.is_reduced() and f.b >= 0), f
