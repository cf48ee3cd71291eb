"""Enumeration of reduced forms and class numbers for negative discriminants.

A reduced [a, b, c] of discriminant delta has 3a^2 <= |delta| and b^2 = delta
(mod 4a): O(sqrt|delta|) values of a with a few b each, not the ~|delta|/6 cells
of the (a, b) box. One table holds, for every a, the x in [0, 2a) with
x^2 = delta (mod 4a); each has delta's parity, and b = x (mod 2a). An a = q n,
q the power of its least prime (from the one prime table
residues.smallest_prime_factors()) and n > 1 odd, joins the roots for n and q,
both found before a, by one CRT; a prime power lifts the roots for q / p, and
only a prime not dividing delta takes Tonelli-Shanks. Counts build no form.
|delta| is capped at MAX_ABS_DELTA; above it the functions raise ValueError.
"""

from __future__ import annotations

import functools
from math import gcd, isqrt

from ._value import _bound_text
from .forms import QuadraticForm
from .residues import smallest_prime_factors, sqrt_mod_prime

__all__ = ["almost_reduced_count", "class_number", "enumerate_almost_reduced",
           "enumerate_reduced", "validate_discriminant"]

MAX_ABS_DELTA = 10**10
# QuadraticForm and Value define no __new__; the namedtuple's only calls tuple.__new__
_form = functools.partial(tuple.__new__, QuadraticForm)


def validate_discriminant(delta: int) -> None:
    """Admissible discriminants are negative and congruent to 0 or 1 mod 4."""
    if delta >= 0 or delta % 4 not in (0, 1):
        raise ValueError(
            f"invalid discriminant {delta}: need delta < 0 and delta = 0 or 1 (mod 4)"
        )


def _candidates(delta: int, almost: bool, primitive: bool) -> list[tuple[int, int, int]]:
    # reduced (a, b, c), or almost-reduced ones, in (a, b) order; b in (-a, a], sorted
    validate_discriminant(delta)
    if -delta > MAX_ABS_DELTA:
        raise ValueError(f"|delta| = {-delta} exceeds the enumeration bound "
                         f"{_bound_text(MAX_ABS_DELTA)}")
    spf = smallest_prime_factors()  # a <= isqrt(MAX_ABS_DELTA // 3) < 2^16
    roots = {1: [delta & 1]}  # a -> the x in [0, 2a) with x^2 = delta (mod 4a)
    out = []
    for a in range(1, isqrt(-delta // 3) + 1):
        if a > 1:  # a = q n, q the power of its least prime p, n odd; n and q / p are done
            p = q = spf[a] or a
            while a % (q * p) == 0:
                q *= p
            n = a // q
            if n > 1:  # the CRT: x = r (mod 2n), x = s (mod 2q), r = s = delta (mod 2)
                if (rn := roots[n]) and (rq := roots[q]):
                    e = n * pow(n, -1, q)
                    roots[a] = [(r + (s - r) * e) % (2 * a) for r in rn for s in rq]
                else:
                    roots[a] = ()
            elif q == p > 2 and delta % p:  # simple: x = +-sqrt(delta) (mod p), delta's parity
                r = sqrt_mod_prime(delta, p)
                roots[a] = () if r is None else [x + p * ((x ^ delta) & 1) for x in (r, p - r)]
            else:  # each root mod 2q / p, at its p lifts mod 2q, tested mod 4q
                roots[a] = [x for y in roots[q // p] for x in range(y, 2 * q, 2 * q // p)
                            if (x * x - delta) % (4 * q) == 0]
        if not (xs := roots[a]):
            continue
        bs = sorted([x if x <= a else x - 2 * a for x in xs])  # x = b (mod 2a)
        if almost and a in bs:  # the mirror -a of the root a
            bs.insert(0, -a)
        for b in bs:
            c = (b * b - delta) // (4 * a)
            if (c > a or c == a and (almost or b >= 0)) and (not primitive or gcd(a, b, c) == 1):
                out.append((a, b, c))
    return out


def enumerate_reduced(delta: int, primitive_only: bool = False) -> list[QuadraticForm]:
    """All reduced forms of discriminant delta, sorted by (a, b, c); |delta| <= MAX_ABS_DELTA."""
    return list(map(_form, _candidates(delta, False, primitive_only)))


def enumerate_almost_reduced(delta: int, primitive_only: bool = False) -> list[QuadraticForm]:
    """Like enumerate_reduced but keeping both boundary mirrors."""
    return list(map(_form, _candidates(delta, True, primitive_only)))


def class_number(delta: int) -> int:
    """h(delta): the number of primitive reduced forms; |delta| <= MAX_ABS_DELTA."""
    return len(_candidates(delta, False, True))


def almost_reduced_count(delta: int) -> int:
    """Count of almost reduced forms, primitivity not required; |delta| <= MAX_ABS_DELTA."""
    return len(_candidates(delta, True, False))
