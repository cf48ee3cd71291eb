"""Acceptance gates, one test per numbered criterion.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion; add -s to see the timing summaries.  Oracles here are written
against raw integer triples on purpose, independent of the library's own
group machinery.
"""

import math
import random
import time
from fractions import Fraction

from helpers import random_positive_definite, random_primitive_positive_definite
from test_cli import ALL_GOLDENS, run as run_cli

from bqf import (
    IDENTITY,
    QuadraticForm,
    act_on_element,
    act_on_form,
    base_point,
    class_number,
    element_form,
    element_to_word,
    enumerate_reduced,
    equivalent,
    form_from_point,
    generator_element,
    legendre,
    membership,
    normalize_word,
    orbit_explore,
    quadratic_residues,
    reduce_form,
    same_orbit_form_check,
    word_to_element,
)

from test_enumeration import rectangle_scan


def test_criterion_01_reduction_soundness_under_10s():
    rng = random.Random(0xACC1)
    start = time.perf_counter()
    for _ in range(10_000):
        f = random_positive_definite(rng, max_coeff=10**6)
        rep = reduce_form(f)
        assert rep.reduced.is_reduced()
        assert rep.reduced.discriminant() == f.discriminant()
        assert act_on_form(rep.witness, f) == rep.reduced
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 1: 10000 reductions sound, {elapsed:.2f}s < 10s")


def test_criterion_02_reduced_leading_coefficient_bound():
    rng = random.Random(0xACC2)
    violations = 0
    for _ in range(10_000):
        f = random_positive_definite(rng, max_coeff=10**6)
        g = reduce_form(f).reduced
        if 3 * g.a * g.a > -g.discriminant():
            violations += 1
    assert violations == 0
    print("criterion 2: 3a^2 <= -disc on 10000 reduced outputs, 0 violations")


# independent change-of-variable substitutions on raw (a, b, c) triples;
# the set is closed under inverses (T is an involution, U and V undo each
# other), so two radius-7 balls meet exactly when the forms are joined by
# a generator word of length <= 14
_SUBS = (
    lambda a, b, c: (c, -b, a),
    lambda a, b, c: (a - b + c, 2 * a - b, a),
    lambda a, b, c: (c, 2 * c - b, a - b + c),
)


def _substitution_ball(form, radius):
    start = (form.a, form.b, form.c)
    seen = {start}
    frontier = [start]
    for _ in range(radius):
        grown = []
        for triple in frontier:
            for sub in _SUBS:
                image = sub(*triple)
                if image not in seen:
                    seen.add(image)
                    grown.append(image)
        frontier = grown
    return seen


def test_criterion_03_reduction_agrees_with_bfs_under_60s():
    start = time.perf_counter()
    family = [
        f
        for a in range(1, 13)
        for b in range(-12, 13)
        for c in range(1, 13)
        if (f := QuadraticForm(a, b, c)).is_positive_definite() and f.is_primitive()
    ]
    classes: dict[QuadraticForm, list[QuadraticForm]] = {}
    for f in family:
        classes.setdefault(reduce_form(f).reduced, []).append(f)

    balls = {(f.a, f.b, f.c): _substitution_ball(f, 7) for f in family}

    # different reduced outputs must mean no length-14 word joins the forms:
    # no triple may ever appear in balls of two different classes
    owner: dict[tuple, QuadraticForm] = {}
    for rep, members in classes.items():
        for f in members:
            for triple in balls[(f.a, f.b, f.c)]:
                assert owner.setdefault(triple, rep) == rep
    # equal reduced outputs must be certified by a length-14 word
    pair_count = 0
    for members in classes.values():
        for i, f in enumerate(members):
            ball_f = balls[(f.a, f.b, f.c)]
            for g in members[i + 1 :]:
                assert ball_f & balls[(g.a, g.b, g.c)]
                pair_count += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"criterion 3: {len(family)} forms, {len(classes)} classes, "
        f"{pair_count} equivalent pairs certified, {elapsed:.2f}s < 60s"
    )


def test_criterion_04_enumeration_matches_rectangle_oracle():
    checked = 0
    for delta in range(-500, -2):
        if delta % 4 not in (0, 1):
            continue
        assert enumerate_reduced(delta) == rectangle_scan(
            delta, QuadraticForm.is_reduced
        )
        checked += 1
    pinned = {-3: 1, -4: 1, -19: 1, -20: 2, -23: 3, -163: 1}
    for delta, h in pinned.items():
        assert class_number(delta) == h
    print(f"criterion 4: enumeration matches oracle for {checked} discriminants, "
          f"pinned class numbers exact")


def test_criterion_05_proper_extended_split():
    f, g = QuadraticForm(2, 1, 3), QuadraticForm(2, -1, 3)
    assert f.discriminant() == g.discriminant() == -23
    assert equivalent(f, g, mode="proper") is None
    witness = equivalent(f, g, mode="extended")
    assert witness is not None
    assert witness.det == -1
    assert act_on_form(witness, g) == f
    print("criterion 5: [2,1,3] vs [2,-1,3] split confirmed, det -1 witness")


def _odd_primes(limit):
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, limit, i)))
    return [p for p in range(3, limit) if sieve[p]]


def test_criterion_06_legendre_layer():
    assert legendre(-1, 37) == 1
    assert legendre(-1, 79) == -1
    for p in _odd_primes(10_000):
        squares = {v * v % p for v in range(1, p)}
        for v in range(1, p):
            assert legendre(v, p) == (1 if v in squares else -1), (v, p)
    checked = 0
    for p in _odd_primes(2_000):
        sign = p % 4 == 1
        for a in quadratic_residues(p):
            assert ((p - a) in quadratic_residues(p)) == sign
            checked += 1
    print(f"criterion 6: Euler vs squaring exact below 10^4, "
          f"complement law on {checked} residues below 2000")


def test_criterion_07_base_point_bijection():
    rng = random.Random(0xACC7)
    for _ in range(10_000):
        f = random_primitive_positive_definite(rng)
        g, scale = form_from_point(base_point(f))
        assert g == f and scale == Fraction(1, f.c)
    distinct = 0
    for delta in range(-500, -2):
        if delta % 4 not in (0, 1):
            continue
        forms = enumerate_reduced(delta)
        points = {base_point(f) for f in forms}
        assert len(points) == len(forms)
        distinct += len(forms)
    print(f"criterion 7: 10000 round trips exact, {distinct} base points "
          f"pairwise distinct within their discriminants")


def test_criterion_08_quadratic_field_layer_under_120s():
    start = time.perf_counter()
    rng = random.Random(0xACC8)
    gens = [generator_element(w) for w in ("T", "U", "V")]
    trials = 0
    while trials < 10_000:
        n = rng.randint(1, 50)
        alpha = membership(rng.randint(-60, 60), rng.randint(-60, 60) or 1, n)
        if alpha is None:
            continue
        beta = act_on_element(rng.choice(gens), alpha)
        assert (beta.a * beta.a + n) % beta.c == 0
        assert element_form(alpha).discriminant() == -4 * n
        assert element_form(beta).discriminant() == -4 * n
        trials += 1

    violations = 0
    pairs = 0
    for n in (1, 2, 3, 5):
        box = {
            alpha
            for a in range(-6, 7)
            for c in range(-6, 7)
            if c and (alpha := membership(a, c, n)) is not None
        }
        for alpha in box:
            source = element_form(alpha)
            for beta in orbit_explore(alpha, 8):
                pairs += 1
                if equivalent(source, element_form(beta)) is None:
                    violations += 1
        # the library's own report must agree on a sample
        sample = rng.sample(sorted(box, key=str), 8)
        for alpha in sample:
            for beta in sample:
                assert not same_orbit_form_check(alpha, beta, depth=8).violation
    assert violations == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"criterion 8: closure 10000 trials, disc = -4n exact, "
          f"{pairs} reachable pairs all equivalent, {elapsed:.2f}s < 120s")


def test_criterion_09_word_engine():
    rng = random.Random(0xACC9)
    for _ in range(10_000):
        g = word_to_element("".join(rng.choices("RTUV", k=rng.randint(0, 24))))
        word = element_to_word(g)
        assert word_to_element(word) == g
    # relation words for the presentation on (reflect-in-unit-circle,
    # half-turn, order-three) generators; the reflection is the word RT
    relations = ("RR", "TT", "UUU", "RTRT", "RTTRTT", "RTURTU")
    for word in relations:
        assert normalize_word(word) == ""
        assert word_to_element(word) == IDENTITY
    print("criterion 9: 10000 word round trips, "
          f"{len(relations)} relation words normalize to the empty word")


def test_criterion_10_cli_goldens_stable():
    commands = [argv for argv, _ in ALL_GOLDENS] + [
        ["plot", "1,0,1", "--region", "pi"],
        ["plot", "1,1,6", "2,-1,3", "2,1,3", "--region", "pibar"],
    ]
    frozen = dict(
        ((*argv,), want.replace("\r\n", "\n")) for argv, want in ALL_GOLDENS
    )
    for argv in commands:
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second, argv
        code, out, err = first
        assert code == 0 and err == ""
        normalized = out.replace("\r\n", "\n")
        if (*argv,) in frozen:
            assert normalized == frozen[(*argv,)], argv
    print(f"criterion 10: {len(commands)} documented commands byte-stable "
          f"across consecutive runs")
