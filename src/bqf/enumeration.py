"""Enumeration of reduced forms and class numbers for negative discriminants.

A reduced [a, b, c] of discriminant delta has 3a^2 <= |delta| and
b^2 = delta (mod 4a). So for each a <= sqrt(|delta|/3) the b to try are the
roots of that congruence, found by factoring a with the one prime table
residues.smallest_prime_factors() (2^16 > sqrt(10^10/3)), Tonelli-Shanks,
lifting to prime powers and the CRT: O(sqrt|delta|) values of a with a few
roots each, not the ~|delta|/6 cells of the (a, b) box. The walk yields
exactly the (a, b, c) asked for; counts build no form. |delta| is capped at
MAX_ABS_DELTA = 10^10 (under a second); above it the functions raise ValueError.
"""

from __future__ import annotations

from math import gcd, isqrt

from .forms import QuadraticForm
from .residues import smallest_prime_factors, sqrt_mod_prime

MAX_ABS_DELTA = 10**10


def validate_discriminant(delta: int) -> None:
    """Admissible discriminants are negative and congruent to 0 or 1 mod 4."""
    if delta >= 0 or delta % 4 not in (0, 1):
        raise ValueError(
            f"invalid discriminant {delta}: need delta < 0 and delta = 0 or 1 (mod 4)"
        )


def _prime_power_roots(delta: int, p: int, q: int, roots: dict) -> list[int]:
    # roots of x^2 = delta (mod q), q = p^k; a simple root mod p comes from
    # Tonelli-Shanks, and each root mod q/p is tried at its p lifts mod q
    if q not in roots:
        if q == p and (2 * delta) % p:
            r = sqrt_mod_prime(delta, p)
            roots[q] = [] if r is None else [r, p - r]
        else:
            prev = q // p
            roots[q] = [
                x
                for r in _prime_power_roots(delta, p, prev, roots)
                for x in range(r, q, prev)
                if (x * x - delta) % q == 0
            ]
    return roots[q]


def _crt(rs: list[int], m: int, ss: list[int], q: int) -> list[int]:
    # x = r (mod m) and x = s (mod q) for coprime m, q; x in [0, mq)
    inv = pow(m, -1, q)
    return [r + m * ((s - r) * inv % q) for r in rs for s in ss]


def _candidates(delta: int, almost: bool) -> list[tuple[int, int, int]]:
    # reduced (a, b, c), or almost-reduced ones, in (a, b) order. For a = 2^j m, m odd,
    # the b in (-a, a] with b^2 = delta (mod 4a) are a CRT over 2^(j+1) and m.
    validate_discriminant(delta)
    if -delta > MAX_ABS_DELTA:
        raise ValueError(f"|delta| = {-delta} exceeds the enumeration bound 10^10")
    roots: dict[int, list[int]] = {1: [0]}  # n -> roots of x^2 = delta (mod n)
    out = []
    for a in range(1, isqrt(-delta // 3) + 1):
        low = a & -a
        m = a // low
        if m not in roots:  # then m = a is odd and m // q was done before it
            p = q = smallest_prime_factors()[m] or m  # m <= 57735 < 2^16
            while m % (q * p) == 0:
                q *= p
            odd_q = _prime_power_roots(delta, p, q, roots)
            roots[m] = _crt(roots[m // q], m // q, odd_q, q)
        if not roots[m]:
            continue
        two = [r for r in _prime_power_roots(delta, 2, 4 * low, roots) if r < 2 * low]
        bs = sorted(r if r <= a else r - 2 * a for r in _crt(two, 2 * low, roots[m], m))
        if almost and a in bs:  # the mirror -a of the root a
            bs.insert(0, -a)
        for b in bs:
            c = (b * b - delta) // (4 * a)
            if c > a or c == a and (almost or b >= 0):
                out.append((a, b, c))
    return out


def enumerate_reduced(delta: int, primitive_only: bool = False) -> list[QuadraticForm]:
    """All reduced forms of the given discriminant, sorted by (a, b, c).

    Raises ValueError when |delta| exceeds MAX_ABS_DELTA = 10^10.
    """
    triples = _candidates(delta, almost=False)
    return [QuadraticForm(*t) for t in triples if not primitive_only or gcd(*t) == 1]


def enumerate_almost_reduced(
    delta: int, primitive_only: bool = False
) -> list[QuadraticForm]:
    """Like enumerate_reduced but keeping both boundary mirrors."""
    triples = _candidates(delta, almost=True)
    return [QuadraticForm(*t) for t in triples if not primitive_only or gcd(*t) == 1]


def class_number(delta: int) -> int:
    """h(delta): the number of primitive reduced forms; |delta| <= 10^10."""
    return sum(gcd(*t) == 1 for t in _candidates(delta, almost=False))


def almost_reduced_count(delta: int) -> int:
    """Count of almost reduced forms, primitivity not required; |delta| <= 10^10."""
    return len(_candidates(delta, almost=True))
