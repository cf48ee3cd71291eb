"""Enumeration of reduced forms and class numbers for negative discriminants.

A reduced [a, b, c] of discriminant delta has 3a^2 <= |delta| and b^2 = delta
(mod 4a): O(sqrt|delta|) values of a with a few b each, not the ~|delta|/6 cells
of the (a, b) box. One list holds, for every a, the x in [0, 2a) with
x^2 = delta (mod 4a); each has delta's parity, and b = x (mod 2a). Each a has a
recipe: a = q n, q the power of its least prime p. An n > 1 joins the roots for n
and q, both found before a, by one CRT with e = n (n^-1 mod q). A prime or prime
power a = q takes p from the one prime table residues.smallest_prime_factors() and
lifts the roots of a / p; a prime a > 2 not dividing delta instead reads its least
root off a byte row of a entries when a < 2^9 (all 96 hold 22.5 KB and build in
~0.7 ms), and takes Tonelli-Shanks from 2^9 up. One table, independent of delta,
holds the columns q and e and the rows for every a below a power of two: cached per
size, built on first need (~18 ms at 2^16, ~1.2 ms at 2^11), all sizes together
< 1 MB. Counts build no form. |delta| is capped at MAX_ABS_DELTA; above it the
functions raise ValueError.
"""

from __future__ import annotations

import functools
from math import gcd, isqrt

from ._value import _bound_text
from .forms import QuadraticForm, _form
from .residues import smallest_prime_factors, sqrt_mod_prime

__all__ = ["almost_reduced_count", "class_number", "enumerate_almost_reduced",
           "enumerate_reduced", "validate_discriminant"]

MAX_ABS_DELTA = 10**10


@functools.cache
def _recipe_table(size: int):
    """Columns q and e of each a < size's recipe (see above), e = 0 where q = a, and rows
    least[p], the least root of each x mod an odd prime p < min(size, 2^9), 0 for none;
    size a power of two."""
    if size > 1 << 16:  # array("H") holds a < 2^16, and the prime table ends there
        raise ValueError(f"MAX_ABS_DELTA = {_bound_text(MAX_ABS_DELTA)} exceeds 3 * 2^32")
    from array import array  # here, not at import: loading array costs every process

    spf = smallest_prime_factors()
    qs = array("H", range(size))  # q = a for a prime a
    for p in range(isqrt(size - 1), 1, -1):  # downwards, so the least prime writes last
        if not spf[p]:
            q = p
            while q < size:  # upwards, so the highest power of p writes last
                qs[q::q] = array("H", [q]) * len(range(q, size, q))
                q *= p
    es = array("H", [(n := a // q) * pow(n, -1, q) if q < a else 0 for a, q in enumerate(qs)])
    least = [b""] * min(size, 1 << 9)
    for p in range(3, len(least)):
        if not spf[p]:  # a residue's one root in [1, p/2] is its least
            row = bytearray(p)
            for r in range(1, p // 2 + 1):
                row[r * r % p] = r
            least[p] = bytes(row)
    return qs, es, least


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
    qs, es, least = _recipe_table(1 << (amax := isqrt(-delta // 3)).bit_length())
    spf = smallest_prime_factors()  # read once the table has accepted the size
    roots = [(), [delta & 1]]  # roots[a]: the x in [0, 2a) with x^2 = delta (mod 4a)
    out = []
    for a in range(1, amax + 1):
        if a > 1:  # a = q n as its recipe says; n, q and a / p are done
            if (q := qs[a]) < a:  # the CRT: x = r (mod 2n), x = s (mod 2q), r = s = delta (mod 2)
                if (rn := roots[a // q]) and (rq := roots[q]):
                    e = es[a]
                    roots.append([(r + (s - r) * e) % (2 * a) for r in rn for s in rq])
                else:
                    roots.append(())
            elif (p := spf[a] or a) == a and a > 2 and (k := delta % a):  # x = +-sqrt(delta) mod a
                if a < 1 << 9:
                    r = least[a][k] or None
                else:
                    r = sqrt_mod_prime(delta, a)
                roots.append(() if r is None else [x + a * ((x ^ delta) & 1) for x in (r, a - r)])
            else:  # a = p^j: each root mod 2a / p lifts to p candidates mod 2a, tested mod 4a
                roots.append([x for y in roots[a // p] for x in range(y, 2 * a, 2 * a // p)
                              if (x * x - delta) % (4 * a) == 0])
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
