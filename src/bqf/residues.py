"""Legendre symbols, quadratic residue sets, and the scaled-form criteria."""

from __future__ import annotations

import functools
import math

from ._value import _bound_text

__all__ = ["is_prime", "legendre", "quadratic_residues", "residue_complement_law",
           "scaled_form_criterion", "scaled_representation_oracle"]

MAX_PRIME_BITS = 2**12  # longest p the odd-prime checks test; is_prime has no bound
MAX_RESIDUE_SET_P = 10**6  # largest p whose residue set quadratic_residues builds
MAX_ORACLE_BOUND = 10**4  # largest search bound of scaled_representation_oracle

_MR_BASES_SMALL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# psi_k, the least strong pseudoprime to the first k bases (OEIS A014233), k = 1..12
_MR_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
           341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
           3825123056546413051, 318665857834031151167461)


def _miller_rabin(n: int, base: int) -> bool:
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^r with d odd
    x = pow(base, (n - 1) >> r, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a, t = a % n, 1
    while a:
        z = (a & -a).bit_length() - 1  # a = 2^z times an odd number
        a >>= z
        t *= -1 if (z % 2 and n % 8 in (3, 5)) != (a % 4 == n % 4 == 3) else 1
        a, n = n % a, a
    return t if n == 1 else 0


def _extra_strong_lucas(n: int) -> bool:
    """Extra strong Lucas test of an odd n > 1 (Grantham 2001): Q = 1 and the first P in
    3, 4, 5, ... with (P^2 - 4 / n) = -1 (Baillie); a square has none, and fails."""
    if math.isqrt(n) ** 2 == n:
        return False
    P = 3
    while (j := _jacobi(P * P - 4, n)) != -1:
        if j == 0 and P * P - 4 < n:  # gcd(P^2 - 4, n) is a proper factor of n
            return False
        P += 1
    s = ((n + 1) & -(n + 1)).bit_length() - 1  # n + 1 = d 2^s with d odd
    v, w = 2, P  # V_k, V_(k+1) at k = 0
    for bit in bin((n + 1) >> s)[2:]:  # k -> 2k, then 2k + 1 on a 1 bit
        vw = (v * w - P) % n  # V_(2k+1), which both branches keep
        v, w = (vw, (w * w - 2) % n) if bit == "1" else ((v * v - 2) % n, vw)
    if v in (2, n - 2) and 2 * w % n == P * v % n:  # V_d = +-2 and U_d = 0
        return True
    for _ in range(s - 1):  # V_k at k = d, 2d, ..., 2^(s-2) d
        if v == 0:
            return True
        v = (v * v - 2) % n
    return False


# cached so legendre sweeps over one p, and is_prime(p) after them, test p once
@functools.lru_cache(maxsize=4096)
def is_prime(n: int) -> bool:
    """Miller-Rabin on the first k bases 2, 3, 5, ..., 37 below psi_k, the least strong
    pseudoprime to them: a proof below psi_12 ~ 2^78.1 (Jaeschke, Math. Comp. 1993;
    Sorenson and Webster, Math. Comp. 2017). Above it Baillie-PSW (Baillie and Wagstaff,
    Math. Comp. 1980), a strong test to base 2 and an extra strong Lucas test (Grantham,
    Math. Comp. 2001): True there means BPSW-prime, with no known composite that passes."""
    if n < 2:
        return False
    for p in _MR_BASES_SMALL:
        if n == p:
            return True
        if n % p == 0:
            return False
    for k, psi in enumerate(_MR_PSI, 1):
        if n < psi:
            return all(_miller_rabin(n, b) for b in _MR_BASES_SMALL[:k])
    return _miller_rabin(n, 2) and _extra_strong_lucas(n)


def _require_odd_prime(p: int) -> None:
    if (bits := p.bit_length()) > MAX_PRIME_BITS:
        raise ValueError(f"p of {bits} bits exceeds the prime bound of {MAX_PRIME_BITS} bits")
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")


def legendre(value: int, p: int) -> int:
    """Legendre symbol (value/p); 0 when p divides value. A p below 2^16 is looked
    up in the one prime table and answered by Euler's criterion, one C-level pow;
    a larger p is proved prime, and the symbol read off as the Jacobi symbol by
    reciprocity in O(log p) steps."""
    if 2 < p < 1 << 16 and not smallest_prime_factors()[p]:
        return (pow(value, p >> 1, p) + 1) % p - 1  # 0, 1 and p - 1 read 0, 1 and -1
    _require_odd_prime(p)
    return _jacobi(value, p)


# bounded, above the 3257 primes p = 1 (mod 4) below 2^16, which hold all enumeration asks for
@functools.lru_cache(maxsize=4096)
def _tonelli_constants(p: int) -> tuple[int, int, int]:
    """(s, q, z^q mod p) for p - 1 = q 2^s, q odd, and z the least with (z/p) = -1."""
    s = ((p - 1) & (1 - p)).bit_length() - 1
    q, z = (p - 1) >> s, 2
    while _jacobi(z, p) != -1:
        z += 1
    return s, q, pow(z, q, p)


def sqrt_mod_prime(n: int, p: int) -> int | None:
    """A square root of n modulo the odd prime p, or None for a non-residue.

    Tonelli-Shanks, with its constants for p cached, in one power when p = 3 (mod 4);
    both detect a non-residue themselves. p is not tested: a composite p may give a
    wrong None, or ValueError where the method cannot go on, but every call ends.
    """
    n %= p
    if p % 4 == 3 or n == 0:  # for n = 0, t = 0 below would never reach 1
        r = pow(n, (p + 1) // 4, p)
        return r if r * r % p == n else None
    if p % 2 == 0 or math.isqrt(p) ** 2 == p:  # no z has (z/p) = -1: no end to its search
        raise ValueError(f"{p} is not an odd prime")
    s, q, c = _tonelli_constants(p)
    t, r = pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            if i == s:  # t^(2^s) != 1, which no prime p allows
                raise ValueError(f"{p} is not an odd prime")
            i, t2 = i + 1, t2 * t2 % p
        if i == s:  # t has order 2^s, so n^((p-1)/2) = -1
            return None
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


@functools.cache
def smallest_prime_factors() -> bytes:
    """spf[n] for n < 2^16: the least prime factor of a composite n (at most 251,
    so one byte), 0 for a prime. The one prime table, built on first use, for
    points trial division and enumeration's a <= isqrt(MAX_ABS_DELTA // 3) < 2^16."""
    size = 1 << 16
    spf = bytearray(size)
    for i in range(math.isqrt(size - 1), 1, -1):  # downwards: the least factor wins
        spf[i * i :: i] = bytes([i]) * len(range(i * i, size, i))
    return bytes(spf)


@functools.lru_cache(maxsize=1)
def quadratic_residues(p: int) -> frozenset[int]:
    """The (p - 1)/2 nonzero squares mod p, for an odd prime p <= MAX_RESIDUE_SET_P.

    The set is built in full, so a larger p raises ValueError. The last
    set is cached: a loop over the residues of one p builds it once.
    """
    if p > MAX_RESIDUE_SET_P:
        raise ValueError(f"p = {p} exceeds the residue-set bound {_bound_text(MAX_RESIDUE_SET_P)}")
    _require_odd_prime(p)
    return frozenset([r * r % p for r in range(1, (p - 1) // 2 + 1)])


def residue_complement_law(p: int, a: int) -> bool:
    """Whether p - a is again a residue, for a residue a of p.

    The answer depends only on p mod 4: yes exactly when p = 1 (mod 4).
    The computed truth is checked against that prediction on every call.
    """
    if legendre(a, p) != 1:  # legendre validates p
        raise ValueError(f"{a} is not a quadratic residue of {p}")
    computed = legendre(p - a, p) == 1
    if computed != (p % 4 == 1):
        raise ArithmeticError("complement law mismatch; unreachable for odd primes")
    return computed


def scaled_form_criterion(value: int, p: int) -> bool:
    """Residue test (value/p) == 1 for representing value by X^2 + p Y^2 mod p."""
    return legendre(value, p) == 1


def scaled_representation_oracle(value: int, p: int, bound: int) -> tuple[int, int] | None:
    """Search |r|, |t| <= bound for r^2 + p t^2 == value; None if absent.

    Exhaustive only within the bound: a True criterion need not produce
    a witness (the search is over integers, capped at MAX_ORACLE_BOUND).
    """
    _require_odd_prime(p)
    if not 1 <= bound <= MAX_ORACLE_BOUND:
        raise ValueError(f"bound must be between 1 and {MAX_ORACLE_BOUND}")
    if value < 0:
        return None
    t_max = min(bound, math.isqrt(value // p))
    for t in range(t_max + 1):
        rest = value - p * t * t
        r = math.isqrt(rest)
        if r <= bound and r * r == rest:
            return (r, t)
    return None
