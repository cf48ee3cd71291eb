"""Primality, Legendre symbols, residue tables, and the scaling criterion."""

import math
import random

import pytest

from bqf import (
    is_prime,
    legendre,
    quadratic_residues,
    residue_complement_law,
    scaled_form_criterion,
    scaled_representation_oracle,
)
from bqf import residues
from bqf.residues import sqrt_mod_prime

from helpers import within


def sieve_odd_primes(limit):
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(flags[i * i :: i]))
    return [i for i in range(3, limit) if flags[i]]


def test_is_prime_small():
    table = set(sieve_odd_primes(200)) | {2}
    for n in range(-5, 200):
        assert is_prime(n) == (n in table)


def test_is_prime_carmichael_and_large():
    assert not is_prime(561)
    assert not is_prime(41041)
    assert is_prime(2**89 - 1)       # Mersenne prime
    assert not is_prime(2**67 - 1)   # 193707721 * 761838257287
    assert is_prime(2**127 - 1)      # beyond the deterministic witness range


def test_fixed_bases_are_a_proof_below_psi_12(monkeypatch):
    psi_12 = 318665857834031151167461  # strong pseudoprime to the bases 2..37
    assert psi_12 == 399165290221 * 798330580441
    assert not is_prime(psi_12)  # the extra strong Lucas step above the bound catches it
    calls = []
    real = residues._miller_rabin
    monkeypatch.setattr(residues, "_miller_rabin", lambda n, b: calls.append(b) or real(n, b))
    p = 2**70 - 35  # a 70-bit prime no other test validates
    assert is_prime(p)
    assert calls == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


# psi_k for k = 1..12: the least strong pseudoprime to the first k bases (OEIS A014233)
PSI = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
       3825123056546413051, 318665857834031151167461]
BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def twelve_bases(n):
    # reference below psi_12: trial division by the bases, then all twelve strong tests
    if n in BASES:
        return True
    if n < 2 or any(n % p == 0 for p in BASES):
        return False
    return all(residues._miller_rabin(n, b) for b in BASES)


def test_first_k_bases_below_psi_k(monkeypatch):
    for k, psi in enumerate(PSI, 1):  # k bases are no proof at psi_k itself
        assert all(residues._miller_rabin(psi, b) for b in BASES[:k])
    for psi in set(PSI):
        assert not is_prime(psi)
    # the least and the greatest prime of each nonempty [psi_(k-1), psi_k), where
    # psi_0 = 41 is the least prime that trial division by the bases leaves
    probes = []
    for k, (lo, hi) in enumerate(zip([41, *PSI], PSI), 1):
        if lo < hi:
            probes.append((k, next(n for n in range(lo, hi) if twelve_bases(n))))
            probes.append((k, next(n for n in range(hi - 1, lo, -1) if twelve_bases(n))))
    assert sorted({k for k, _ in probes}) == [1, 2, 3, 4, 5, 6, 7, 9, 12]
    calls = []
    real = residues._miller_rabin
    monkeypatch.setattr(residues, "_miller_rabin", lambda n, b: calls.append(b) or real(n, b))
    for k, p in probes:
        calls.clear()
        assert residues.is_prime.__wrapped__(p)  # past the cache, which earlier tests fill
        assert calls == list(BASES[:k]), p


def test_first_k_bases_agree_with_all_twelve():
    rng = random.Random(0x5E)
    for _ in range(4000):
        n = rng.randrange(3, min(2 ** rng.randint(3, 79), PSI[-1])) | 1
        assert residues.is_prime.__wrapped__(n) == twelve_bases(n), n


def test_baillie_psw_agrees_with_all_twelve_bases():
    # below psi_12 the twelve bases are a proof, so they check both halves of
    # Baillie-PSW on random odd n and on random primes from 2^64 up
    rng = random.Random(0x5F)
    odd = [rng.randrange(3, PSI[-1]) | 1 for _ in range(2000)]
    primes = []
    while len(primes) < 200:
        n = rng.randrange(2**64, PSI[-1]) | 1
        if twelve_bases(n):
            primes.append(n)
    for n in odd + primes:
        bpsw = residues._miller_rabin(n, 2) and residues._extra_strong_lucas(n)
        assert bpsw == twelve_bases(n), n


def test_lucas_step_rejects_psi_13():
    psi_13 = 3317044064679887385961981  # strong pseudoprime to the bases 2..41
    assert all(residues._miller_rabin(psi_13, b) for b in residues._MR_BASES_SMALL)
    assert not is_prime(psi_13)


def odd_composites(limit):
    primes = set(sieve_odd_primes(limit))
    return [n for n in range(9, limit, 2) if n not in primes]


def test_strong_lucas_rejects_base_2_strong_pseudoprimes():
    spsp2 = [n for n in odd_composites(10**5) if residues._miller_rabin(n, 2)]
    assert len(spsp2) == 16 and spsp2[:3] == [2047, 3277, 4033]
    assert not any(residues._extra_strong_lucas(n) for n in spsp2)


def test_strong_lucas_pseudoprimes_below_1e5():
    # OEIS A217719, extra strong Lucas pseudoprimes with Baillie's parameter P
    a217719 = [989, 3239, 5777, 10877, 27971, 29681, 30739, 31631, 39059, 72389, 73919,
               75077]
    found = [
        n for n in odd_composites(10**5)
        if math.isqrt(n) ** 2 != n and residues._extra_strong_lucas(n)
    ]
    assert found == a217719
    assert not any(residues._miller_rabin(n, 2) for n in found)


def test_jacobi_is_the_product_of_legendre_symbols():
    primes = sieve_odd_primes(300)
    for n in range(1, 300, 2):
        factors, rest = [], n
        for p in primes:
            while rest % p == 0:
                factors.append(p)
                rest //= p
        for a in range(-30, 30):
            assert residues._jacobi(a, n) == math.prod(legendre(a, p) for p in factors)


def test_strong_lucas_rejects_odd_squares():
    # no P has (P^2 - 4 / n) = -1 for a square n; 1093^2 also passes the base-2 strong test
    assert residues._miller_rabin(1093**2, 2)
    assert not any(residues._extra_strong_lucas(m * m) for m in [*range(3, 400, 2), 1093, 3511])


def test_strong_lucas_accepts_odd_primes():
    assert all(residues._extra_strong_lucas(p) for p in sieve_odd_primes(10**5))


def test_is_prime_matches_trial_division_below_2e5():
    flags = bytearray(2 * 10**5)
    for p in [2, *sieve_odd_primes(len(flags))]:
        flags[p] = 1
    assert all(is_prime(n) == flags[n] for n in range(len(flags)))


def test_prime_validated_once(monkeypatch):
    # legendre validates p; a later is_prime(p) reuses that Miller-Rabin run
    calls = []
    real = residues._miller_rabin
    monkeypatch.setattr(residues, "_miller_rabin", lambda n, b: calls.append(n) or real(n, b))
    p = 2**107 - 1  # a Mersenne prime no other test validates
    assert legendre(-23, p) in (-1, 1)
    validated = len(calls)
    assert validated > 0
    assert is_prime(p)
    assert len(calls) == validated


def test_legendre_examples():
    assert legendre(-1, 37) == 1
    assert legendre(-1, 79) == -1
    assert legendre(37, 37) == 0
    assert legendre(0, 7) == 0
    assert legendre(2, 7) == 1
    assert legendre(3, 7) == -1


def test_legendre_rejects_non_odd_prime():
    for p in (2, 1, 0, -3, -7, 9, 15, 561, 65535, 65537 * 65539):
        with pytest.raises(ValueError, match=f"^{p} is not an odd prime$"):
            legendre(1, p)


def test_prime_bound_refuses_before_any_test():
    # a 4097-bit p is refused by its bit length, not by a primality test, and
    # quadratic_residues by its own smaller bound; a 4096-bit p reaches the test
    p = 2**4096 + 1
    bound = "^p of 4097 bits exceeds the prime bound of 4096 bits$"
    calls = [
        (lambda: legendre(3, p), bound),
        (lambda: scaled_form_criterion(3, p), bound),
        (lambda: residue_complement_law(p, 1), bound),
        (lambda: scaled_representation_oracle(3, p, 10), bound),
        (lambda: quadratic_residues(p), r"^p = \d+ exceeds the residue-set bound 10\^6$"),
    ]
    for call, message in calls:
        with pytest.raises(ValueError, match=message):
            within(0.01, call)
    assert residues.MAX_PRIME_BITS == 4096
    with pytest.raises(ValueError, match="is not an odd prime$"):
        legendre(3, 2**4096 - 1)  # divisible by 3


def test_small_prime_legendre_is_the_jacobi_symbol():
    # below 2^16 legendre answers by one pow; the Jacobi loop is the reference, also for
    # the first and last primes past the one prime table
    rng = random.Random(0xB3)
    for p in [*sieve_odd_primes(1 << 16), 65537, 131071]:
        for v in (0, 1, -1, p - 1, 3 * p, -rng.randrange(1, 10**7), rng.randrange(10**12)):
            assert legendre(v, p) == residues._jacobi(v, p), (v, p)


def test_quadratic_residue_tables():
    assert quadratic_residues(3) == {1}
    assert quadratic_residues(7) == {1, 2, 4}
    assert quadratic_residues(13) == {1, 3, 4, 9, 10, 12}


def test_quadratic_residues_bound():
    assert len(quadratic_residues(999983)) == 499991  # the largest prime below 10^6
    assert quadratic_residues(999983) is quadratic_residues(999983)
    for p in (1000003, 2**61 - 1):
        with pytest.raises(ValueError, match=r"p = \d+ exceeds the residue-set bound 10\^6"):
            quadratic_residues(p)


def test_residue_set_sizes():
    for p in sieve_odd_primes(1000):
        assert len(quadratic_residues(p)) == (p - 1) // 2


def test_legendre_matches_squaring_table():
    for p in sieve_odd_primes(1000):
        squares = {v * v % p for v in range(1, p)}
        for v in range(1, p):
            assert legendre(v, p) == (1 if v in squares else -1)
        assert legendre(p, p) == 0
        assert quadratic_residues(p) == squares


def euler_criterion(value, p):
    e = pow(value, (p - 1) // 2, p)
    return -1 if e == p - 1 else e


def test_legendre_matches_euler_criterion():
    for p in sieve_odd_primes(500):
        for v in range(-p, 2 * p):
            assert legendre(v, p) == euler_criterion(v, p)
    rng = random.Random(0xB2)
    p = 2**127 - 1
    for v in [rng.randrange(-p, 2 * p) for _ in range(200)] + [0, p, 2**64]:
        assert legendre(v, p) == euler_criterion(v, p)


def test_legendre_multiplicative():
    rng = random.Random(0xB0)
    primes = sieve_odd_primes(500)
    for _ in range(500):
        p = rng.choice(primes)
        a = rng.randint(1, 10**6)
        b = rng.randint(1, 10**6)
        if a % p == 0 or b % p == 0:
            continue
        assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_complement_law_examples():
    assert residue_complement_law(13, 3) is True
    assert residue_complement_law(7, 2) is False
    assert residue_complement_law(5, 1) is True


def test_complement_law_rejects_non_residue():
    with pytest.raises(ValueError):
        residue_complement_law(13, 2)
    with pytest.raises(ValueError):
        residue_complement_law(7, 7)


def test_complement_law_sweep():
    for p in sieve_odd_primes(500):
        expected = p % 4 == 1
        for a in quadratic_residues(p):
            assert residue_complement_law(p, a) == expected


def test_scaled_form_criterion():
    assert scaled_form_criterion(-1, 37) is True
    assert scaled_form_criterion(-1, 79) is False
    for p in (3, 5, 37, 79, 101):
        assert scaled_form_criterion(1, p) is True


def test_scaled_representation_oracle_examples():
    assert scaled_representation_oracle(1, 37, 10) == (1, 0)
    assert scaled_representation_oracle(38, 37, 10) == (1, 1)
    assert scaled_representation_oracle(-1, 37, 100) is None
    assert scaled_representation_oracle(0, 37, 10) == (0, 0)


def test_scaled_representation_oracle_bounds():
    with pytest.raises(ValueError):
        scaled_representation_oracle(1, 37, 0)
    with pytest.raises(ValueError):
        scaled_representation_oracle(1, 37, 10**5)


def test_witness_implies_criterion():
    # a representation r^2 + p t^2 = v with p not dividing v forces
    # v to be a square mod p
    rng = random.Random(0xB1)
    primes = sieve_odd_primes(200)
    for _ in range(400):
        p = rng.choice(primes)
        v = rng.randint(1, 5000)
        if v % p == 0:
            continue
        witness = scaled_representation_oracle(v, p, 80)
        if witness is not None:
            r, t = witness
            assert r * r + p * t * t == v
            assert scaled_form_criterion(v, p) is True


def test_sqrt_mod_prime():
    primes = sieve_odd_primes(2000)
    # both branches: one power (p = 3 mod 4) and Tonelli-Shanks (p = 1 mod 8 too)
    assert any(p % 4 == 3 for p in primes) and any(p % 8 == 1 for p in primes)
    for p in primes:
        assert sqrt_mod_prime(0, p) == 0
        for n in {r * r % p for r in range(1, p)}:
            r = sqrt_mod_prime(n, p)
            assert r * r % p == n
            assert sqrt_mod_prime(n + 5 * p, p) in (r, p - r)
        if p < 200:
            for n in set(range(1, p)) - quadratic_residues(p):
                assert sqrt_mod_prime(n, p) is None


def test_sqrt_mod_prime_agrees_with_euler():
    # no Euler criterion runs first, so the root computation itself must tell
    # residues from non-residues; 2^16 and 2^23 exactly divide p - 1 here
    rng = random.Random(0x5E)
    for p in (65537, 998244353, 2**31 - 1):
        for n in [*range(1, 50), *(rng.randrange(1, p) for _ in range(300))]:
            r = sqrt_mod_prime(n, p)
            if pow(n, (p - 1) // 2, p) == 1:
                assert r is not None and r * r % p == n
            else:
                assert r is None
        assert sqrt_mod_prime(p, p) == 0
    # every p = 1 (mod 4) below 2^16, the whole range enumeration calls it with:
    # each p finds its own non-residue z
    for p in sieve_odd_primes(1 << 16):
        if p % 4 == 1:
            for n in (1, 2, 3, p - 1, *(rng.randrange(1, p) for _ in range(4))):
                r = sqrt_mod_prime(n, p)
                if pow(n, (p - 1) // 2, p) == 1:
                    assert r is not None and r * r % p == n, (n, p)
                else:
                    assert r is None, (n, p)


def test_sqrt_mod_prime_ends_when_p_is_no_odd_prime():
    # no primality test runs, so an even or composite p must still end, in a root,
    # None or ValueError: 2 and a square such as 9 or 25 have no z with (z/p) = -1,
    # and for 21 and 45 some t has an order that is no power of 2, so t^(2^i) != 1
    def sweep():
        raised = set()
        for p in range(2, 2000):
            if p % 2 and is_prime(p):
                continue
            for n in (1, 2, 3, 5, 7, p - 1, p // 2):
                try:
                    r = sqrt_mod_prime(n, p)
                except ValueError as exc:
                    assert str(exc) == f"{p} is not an odd prime"
                    raised.add(p)
                else:
                    assert r is None or r * r % p == n % p, (n, p)
        return raised

    raised = within(1.0, sweep)
    assert {2, 9, 21, 25, 45} <= raised
