"""Enumeration of reduced forms and class numbers for negative discriminants.

A reduced [a, b, c] of discriminant delta has 3a^2 <= |delta| and b^2 = delta
(mod 4a): O(sqrt|delta|) values of a with a few b each, not the ~|delta|/6 cells
of the (a, b) box. An odd a = n q, q the power of its least prime (from the one
prime table residues.smallest_prime_factors()), gets its roots s mod a by
the CRT from those mod n and mod q, both found before a (Tonelli-Shanks, lifted);
b is s or s - a, whichever has delta's parity. An even a = 2^j m joins the roots
mod m by the CRT with the 2-adic roots, found once per j. Counts build no form.
|delta| is capped at MAX_ABS_DELTA = 10^10; above it the functions raise ValueError.
"""

from __future__ import annotations

from math import gcd, isqrt

from .forms import QuadraticForm
from .residues import smallest_prime_factors, sqrt_mod_prime

__all__ = ["almost_reduced_count", "class_number", "enumerate_almost_reduced",
           "enumerate_reduced", "validate_discriminant"]

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


def _candidates(delta: int, almost: bool, primitive: bool) -> list[tuple[int, int, int]]:
    # reduced (a, b, c), or almost-reduced ones, in (a, b) order; b in (-a, a], sorted
    validate_discriminant(delta)
    if -delta > MAX_ABS_DELTA:
        raise ValueError(f"|delta| = {-delta} exceeds the enumeration bound 10^10")
    spf = smallest_prime_factors()  # a <= 57735 < 2^16
    roots: dict[int, list[int]] = {1: [0]}  # n -> roots of x^2 = delta (mod n)
    twos: dict[int, list[int]] = {}  # 2^j -> the roots mod 2^(j+2) below 2^(j+1)
    out = []
    for a in range(1, isqrt(-delta // 3) + 1):
        if a & 1:
            if a > 1:  # a = n q, q the power of its least prime p; n and q / p are done
                p = q = spf[a] or a
                while a % (q * p) == 0:
                    q *= p
                n = a // q
                if n == 1:
                    roots[a] = _prime_power_roots(delta, p, q, roots)
                elif roots[n] and roots[q]:  # the CRT: x = r (mod n), x = s (mod q)
                    inv, qs = pow(n, -1, q), roots[q]
                    roots[a] = [r + n * ((s - r) * inv % q) for r in roots[n] for s in qs]
                else:
                    roots[a] = []
            if not (rs := roots[a]):
                continue
            # b = s (mod a) and b = delta (mod 2): s or s - a; root 0 of an odd delta gives a
            bs = sorted([s if (s - delta) & 1 == 0 else s - a if s else a for s in rs])
        else:
            low = a & -a
            m = a // low
            if not roots[m]:
                continue
            t = 2 * low  # b = r (mod t), b = s (mod m): x in [0, 2a) gives b = x or x - 2a
            if low not in twos:  # once per j
                twos[low] = [r for r in _prime_power_roots(delta, 2, 2 * t, roots) if r < t]
            inv = pow(t, -1, m)
            bs = sorted([x if (x := r + t * ((s - r) * inv % m)) <= a else x - 2 * a
                         for r in twos[low] for s in roots[m]])
        if almost and a in bs:  # the mirror -a of the root a
            bs.insert(0, -a)
        for b in bs:
            c = (b * b - delta) // (4 * a)
            if (c > a or c == a and (almost or b >= 0)) and (not primitive or gcd(a, b, c) == 1):
                out.append((a, b, c))
    return out


def enumerate_reduced(delta: int, primitive_only: bool = False) -> list[QuadraticForm]:
    """All reduced forms of the given discriminant, sorted by (a, b, c).

    Raises ValueError when |delta| exceeds MAX_ABS_DELTA = 10^10.
    """
    return [QuadraticForm(*t) for t in _candidates(delta, False, primitive_only)]


def enumerate_almost_reduced(
    delta: int, primitive_only: bool = False
) -> list[QuadraticForm]:
    """Like enumerate_reduced but keeping both boundary mirrors."""
    return [QuadraticForm(*t) for t in _candidates(delta, True, primitive_only)]


def class_number(delta: int) -> int:
    """h(delta): the number of primitive reduced forms; |delta| <= 10^10."""
    return len(_candidates(delta, False, True))


def almost_reduced_count(delta: int) -> int:
    """Count of almost reduced forms, primitivity not required; |delta| <= 10^10."""
    return len(_candidates(delta, True, False))
