"""Listing reduced forms per discriminant; class numbers."""

import math
import random
import re
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bqf import (
    QuadraticForm,
    ReductionResult,
    almost_reduced_count,
    class_number,
    enumerate_almost_reduced,
    enumerate_reduced,
    equivalent,
    legendre,
    reduce_form,
    validate_discriminant,
)
from bqf import enumeration
from bqf._value import Value
from bqf.residues import smallest_prime_factors

from helpers import README, python, random_positive_definite, within


def rectangle_scan(delta, predicate):
    # independent oracle: no sqrt bound, just the full |b| <= a <= -delta box
    out = []
    for a in range(1, -delta + 1):
        for b in range(-a, a + 1):
            num = b * b - delta
            if num % (4 * a):
                continue
            c = num // (4 * a)
            f = QuadraticForm(a, b, c)
            if predicate(f):
                out.append(f)
    return sorted(out)


def box_scan(delta):
    # the enumeration before root finding: every (a, b) of the right parity
    # with |b| <= a <= sqrt(|delta|/3), keeping integral c >= a
    out = []
    a = 1
    while 3 * a * a <= -delta:
        for b in range(-a if (a + delta) % 2 == 0 else -a + 1, a + 1, 2):
            num = b * b - delta
            if num % (4 * a) == 0 and num // (4 * a) >= a:
                out.append(QuadraticForm(a, b, num // (4 * a)))
        a += 1
    return out


def kronecker(a, b):
    # the Kronecker symbol (a/b) for b > 0: Cohen, Alg. 1.4.10
    if a % 2 == 0 and b % 2 == 0:
        return 0
    v = (b & -b).bit_length() - 1
    b >>= v
    k = -1 if v % 2 and (a & 7) in (3, 5) else 1
    while a:
        v = (a & -a).bit_length() - 1
        a >>= v
        if v % 2 and (b & 7) in (3, 5):
            k = -k
        if a & b & 2:  # reciprocity: both are 3 (mod 4)
            k = -k
        a, b = b % abs(a), abs(a)
    return k if b == 1 else 0


def fundamental(delta):
    def squarefree(m):
        return all(m % (p * p) for p in range(2, math.isqrt(m) + 1))

    if delta % 4 == 1:
        return squarefree(-delta)
    return delta % 16 in (8, 12) and squarefree(-delta // 4)


def admissible(delta):
    return -2 * 10**5 <= delta <= -3 and delta % 4 in (0, 1)


# discriminants up to 2*10^5, plus square-heavy ones (many roots mod 4a)
square_heavy = st.builds(
    lambda k, m: -4 * k * k * m, st.integers(1, 223), st.integers(1, 50)
)
two_three = st.builds(lambda i, j: -(2**i) * 3**j, st.integers(0, 17), st.integers(0, 11))
discriminants = st.one_of(st.integers(-2 * 10**5, -3), square_heavy, two_three).filter(
    admissible
)


def test_validate_discriminant():
    validate_discriminant(-3)
    validate_discriminant(-4)
    validate_discriminant(-163)
    for bad in (0, 1, 4, -1, -2, -5, -6, 9):
        with pytest.raises(ValueError):
            validate_discriminant(bad)


def test_examples_reduced():
    assert enumerate_reduced(-4) == [QuadraticForm(1, 0, 1)]
    assert enumerate_reduced(-3) == [QuadraticForm(1, 1, 1)]
    assert enumerate_reduced(-23) == [
        QuadraticForm(1, 1, 6),
        QuadraticForm(2, -1, 3),
        QuadraticForm(2, 1, 3),
    ]
    assert enumerate_reduced(-20) == [QuadraticForm(1, 0, 5), QuadraticForm(2, 2, 3)]


def test_examples_almost_reduced():
    assert enumerate_almost_reduced(-4) == [QuadraticForm(1, 0, 1)]
    assert enumerate_almost_reduced(-3) == [
        QuadraticForm(1, -1, 1),
        QuadraticForm(1, 1, 1),
    ]
    assert enumerate_almost_reduced(-23) == [
        QuadraticForm(1, -1, 6),
        QuadraticForm(1, 1, 6),
        QuadraticForm(2, -1, 3),
        QuadraticForm(2, 1, 3),
    ]


def test_class_numbers():
    assert class_number(-9999999999) == 110464  # just inside the enumeration bound 10^10


def test_primitive_filter():
    # delta = -12: [2,2,2] is reduced but imprimitive
    assert enumerate_reduced(-12) == [QuadraticForm(1, 0, 3), QuadraticForm(2, 2, 2)]
    assert enumerate_reduced(-12, primitive_only=True) == [QuadraticForm(1, 0, 3)]
    assert class_number(-12) == 1
    assert almost_reduced_count(-12) == 3


def test_against_rectangle_oracle():
    for delta in range(-200, -2):
        if delta % 4 not in (0, 1):
            continue
        assert enumerate_almost_reduced(delta) == rectangle_scan(
            delta, QuadraticForm.is_almost_reduced
        )


def test_pairwise_inequivalent():
    for delta in range(-200, -2):
        if delta % 4 not in (0, 1):
            continue
        forms = enumerate_reduced(delta)
        for i, f in enumerate(forms):
            for g in forms[i + 1 :]:
                assert equivalent(f, g, mode="proper") is None


def test_completeness_spot_checks():
    rng = random.Random(0xE0)
    for _ in range(100):
        f = random_positive_definite(rng, max_coeff=40)
        reduced = reduce_form(f).reduced
        assert reduced in enumerate_reduced(f.discriminant())


@settings(deadline=None)
@given(discriminants)
def test_root_enumeration_matches_box_scan(delta):
    box = box_scan(delta)
    for primitive_only in (False, True):
        kept = [f for f in box if not primitive_only or f.is_primitive()]
        assert enumerate_reduced(delta, primitive_only) == [
            f for f in kept if f.is_reduced()
        ]
        assert enumerate_almost_reduced(delta, primitive_only) == [
            f for f in kept if f.is_almost_reduced()
        ]


def test_root_enumeration_matches_box_scan_exhaustively():
    # every admissible delta in [-5000, -3]: roots x = a of an odd delta (b = a),
    # x on both sides of a (b = x and b = x - 2a), and the CRT for even a = 2^j m, j <= 5
    for delta in range(-5000, -2):
        if delta % 4 not in (0, 1):
            continue
        box = box_scan(delta)
        for primitive_only in (False, True):
            kept = [f for f in box if not primitive_only or f.is_primitive()]
            assert enumerate_reduced(delta, primitive_only) == [
                f for f in kept if f.is_reduced()
            ], delta
            assert enumerate_almost_reduced(delta, primitive_only) == [
                f for f in kept if f.is_almost_reduced()
            ], delta
        assert class_number(delta) == sum(f.is_reduced() and f.is_primitive() for f in box), delta
        assert almost_reduced_count(delta) == sum(f.is_almost_reduced() for f in box), delta


@pytest.mark.parametrize("delta, p", [(-(2**33), 2), (-4 * 3**19, 3), (-4 * 5**13, 5),
                                      (-4 * 7**11, 7)])
def test_prime_power_roots_match_a_scan_of_b(delta, p):
    # a = p^k far past the exhaustive range, where many roots lift from k - 1 to k
    # (and powers of 2 and of 11, which divides no delta here): the almost-reduced b
    # with that a are exactly those of a scan of b in [-a, a]
    by_a = {}
    for f in enumerate_almost_reduced(delta):
        by_a.setdefault(f.a, []).append(f.b)
    powers = [q ** k for q in {2, p, 11} for k in range(1, 40) if 3 * q ** (2 * k) <= -delta]
    assert max(powers) > 10**4
    for a in powers:
        scan = [b for b in range(-a, a + 1)
                if (b * b - delta) % (4 * a) == 0 and (b * b - delta) // (4 * a) >= a]
        assert by_a.get(a, []) == scan, a


def test_enumeration_bound():
    message = "|delta| = 10000000003 exceeds the enumeration bound 10^10"
    fns = (class_number, enumerate_reduced, enumerate_almost_reduced, almost_reduced_count)
    for fn in fns:
        with pytest.raises(ValueError, match=re.escape(message)):
            fn(-10000000003)


def test_class_number_large_discriminant_fast():
    # the (a, b) box has ~6.7*10^7 cells here; box_scan gives the same h in ~10 s
    assert within(2.0, lambda: class_number(-400000003)) == 3172


@settings(deadline=None, max_examples=100)
@given(st.integers(-20000, -7).filter(fundamental))
@example(-19999)  # the far end of the range: 1 (mod 4), 12 and 8 (mod 16)
@example(-19988)
@example(-19976)
def test_class_number_formula(delta):
    # an oracle with no forms in it: h = -(1/|delta|) sum_{n<|delta|} (delta/n) n
    # for fundamental delta < -4 (Cohen, Sec. 5.3)
    total = sum(kronecker(delta, n) * n for n in range(1, -delta))
    assert total % delta == 0
    assert class_number(delta) == total // delta


def test_kronecker_oracle():
    # the oracle against Legendre symbols, its rule at 2, and multiplicativity
    for p in (3, 5, 7, 11, 13, 101):
        assert all(kronecker(a, p) == legendre(a, p) for a in range(-60, 60))
    for a in range(-40, 40):
        if a % 2:
            assert kronecker(a, 2) == (1 if a % 8 in (1, 7) else -1)
        for b in range(1, 30):
            assert all(
                kronecker(a, b * c) == kronecker(a, b) * kronecker(a, c)
                for c in range(1, 30)
            )


def test_counts_build_no_forms(monkeypatch):
    def refuse(*args):
        raise AssertionError("a count built a QuadraticForm")

    h = class_number(-99999)
    monkeypatch.setattr(enumeration, "QuadraticForm", refuse)
    monkeypatch.setattr(enumeration, "_form", refuse)
    assert (class_number(-23), almost_reduced_count(-23)) == (3, 4)
    assert (class_number(-12), almost_reduced_count(-12)) == (1, 3)
    assert class_number(-99999) == h
    # the lists, reduction and act_on_form build forms, and reduce_form its results, by
    # tuple.__new__, past the constructor (_value._unchecked), which gives what the
    # constructor gives only while no such kind, nor Value, has a __new__ that validates
    # or normalizes; a kind newly built that way must join this list
    kinds = (QuadraticForm, ReductionResult)
    sources = (README.parent / "src" / "bqf").glob("*.py")
    source = "".join(path.read_text(encoding="utf-8") for path in sources)
    assert set(re.findall(r"= _unchecked\((\w+)\)", source)) == {k.__name__ for k in kinds}
    assert all("__new__" not in vars(cls) for cls in (*kinds, Value))


def test_prime_table_matches_trial_division():
    spf = smallest_prime_factors()
    assert len(spf) == 2**16
    small_primes = [p for p in range(2, 256) if all(p % q for q in range(2, p))]
    for n in range(2, 2**16):
        least = next((p for p in small_primes if p * p <= n and n % p == 0), 0)
        assert spf[n] == least  # 0 for a prime n
    # every a <= sqrt(|delta|/3) below the enumeration cap is in the table
    assert math.isqrt(enumeration.MAX_ABS_DELTA // 3) < len(spf)


def test_bound_past_the_recipe_table_is_refused(monkeypatch):
    # the recipes are array("H") columns over a prime table that ends at 2^16: a bound
    # past 3 * 2^32 reaches a = 2^16 and is refused by name before any table is built
    monkeypatch.setattr(enumeration, "MAX_ABS_DELTA", 10**11)
    monkeypatch.setattr(enumeration, "smallest_prime_factors", lambda: pytest.fail("built"))
    enumeration._recipe_table.cache_clear()
    with pytest.raises(ValueError, match=r"^MAX_ABS_DELTA = 10\^11 exceeds 3 \* 2\^32$"):
        class_number(-3 * 2**32)
    assert enumeration._recipe_table.cache_info().currsize == 0


def test_prime_table_is_built_on_first_use():
    # nor the Tonelli-Shanks constants and the recipe tables with their root rows: import
    # stays as fast as before; a second walk of the same size builds no table
    code, out, err = python(
        "-c", "import bqf.cli; from bqf import enumeration, residues\n"
        "print(residues.smallest_prime_factors.cache_info(),"
        " residues._tonelli_constants.cache_info(), enumeration._recipe_table.cache_info())\n"
        "enumeration.class_number(-99999); first = enumeration._recipe_table.cache_info()\n"
        "enumeration.class_number(-99995); print(first.misses,"
        " enumeration._recipe_table.cache_info().misses)"
    )
    assert code == 0 and out.count("currsize=0") == 3 and out.split()[-2:] == ["1", "1"], (
        out, err)


def test_root_tables_hold_the_least_root():
    # every odd prime p < 2^9 and x in [1, p): the least r with r^2 = x (mod p), 0 for none
    def check():
        spf, rows = smallest_prime_factors(), enumeration._recipe_table(1 << 9)[-1]
        assert len(rows) == 1 << 9
        for p in range(3, 1 << 9, 2):
            if spf[p]:
                continue
            least = [0] * p
            for r in range(p - 1, 0, -1):  # downwards: the least root writes last
                least[r * r % p] = r
            assert len(rows[p]) == p and list(rows[p][1:]) == least[1:], p

    within(1.0, check)


def test_recipe_columns_are_the_crt_split():
    # a = q n, q the largest power of a's least prime p; e = n (n^-1 mod q) is 0 mod n,
    # 1 mod q and below a, and 0 where q = a: neither column can be read off the other
    def check():
        spf, (qs, es, _) = smallest_prime_factors(), enumeration._recipe_table(1 << 16)
        for a in range(2, 1 << 16):
            p, q = spf[a] or a, 1
            while a % (q * p) == 0:
                q *= p
            assert qs[a] == q, a
            if q < a:
                assert es[a] % (a // q) == 0 and es[a] % q == 1 and es[a] < a, a
            else:
                assert es[a] == 0, a

    within(1.0, check)


def test_table_cache_order_changes_no_triple():
    # each process caches the tables of its deltas' sizes, one process largest first and
    # one smallest first: the order in which table sizes are first cached changes no triple
    deltas = sorted([-(10**10), -(10**10) + 1, -400000003, -99999, -23, -4, -3])
    code = (
        "import hashlib, sys; from bqf.enumeration import _candidates\n"
        "deltas = [int(d) for d in sys.argv[1:]]\n"
        "got = {d: _candidates(d, True, False) for d in deltas}\n"
        "print(hashlib.sha256(repr(sorted(got.items())).encode()).hexdigest())"
    )
    runs = [python("-c", code, *order) for order in (deltas, deltas[::-1])]
    assert runs[0] == runs[1] and runs[0][0] == 0, runs


def test_threads_share_the_recipe_table():
    # more threads than cores start together on an empty cache, with a short switch
    # interval, so one builds a table while the others walk or build theirs; a thread
    # walks again until every thread has an answer or one has failed, so walks meet
    # each build, and each round must match one thread's answers
    deltas = [-(4 * 10**8) - 3, -(4 * 10**4), -(4 * 10**6) - 3, -(4 * 10**2)]
    expected = [enumeration._candidates(d, True, False) for d in deltas]
    start = threading.Barrier(len(deltas))
    got, errors = [None] * len(deltas), []

    def work(i):
        try:
            start.wait(timeout=10)
            while not errors and got[i] in (None, expected[i]) and None in got:
                got[i] = enumeration._candidates(deltas[i], True, False)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    def rounds():
        for _ in range(10):
            enumeration._recipe_table.cache_clear()
            got[:] = [None] * len(deltas)
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(deltas))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads) and not errors, errors
            assert got == expected

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        within(10.0, rounds)
    finally:
        sys.setswitchinterval(interval)
