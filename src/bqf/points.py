"""Exact upper-half-plane points (p + sqrt(D))/q and base-point geometry.

Every positive definite form owns one root in the upper half plane; the
functions here move back and forth between forms and those points without
ever leaving integer/rational arithmetic.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple

TYPE_CHECKING = False  # typing's flag without importing typing
if TYPE_CHECKING:  # fractions (and decimal) load on first use, by a plain `import fractions`:
    import fractions  # a function-level `from fractions import Fraction` costs ~1.3 µs on 3.11

from ._value import Value
from .forms import QuadraticForm
from .residues import MAX_PRIME_BITS, is_prime, smallest_prime_factors

__all__ = ["AlgebraicPoint", "base_point", "form_from_point", "in_fundamental_domain_pi",
           "in_fundamental_domain_pibar"]


@functools.cache
def _prime_flags() -> bytes:
    """1 for each prime n in 2 .. 2^16 - 1, else 0: the one prime table's zeros."""
    return smallest_prime_factors()[2:].translate(bytes([1]) + bytes(255))


@functools.cache
def _small_primorial() -> int:
    """The product of the primes below 2^16, ~94k bits: one gcd finds if any divides."""
    return math.prod(itertools.compress(range(2, 1 << 16), _prime_flags()))


def _normalize(p: int, q: int, d: int) -> tuple[int, int, int]:
    g = math.gcd(p, q)
    if g == 1:  # nothing can be stripped, so this is the minimal triple
        return p, q, d
    rest = g * g // math.gcd(g * g, d)  # M' (see AlgebraicPoint)
    k = 1  # a prime rest, or one past MAX_PRIME_BITS with no prime factor below 2^16, ends the loop
    if rest > 1 and not (is_prime(rest) if rest.bit_length() <= MAX_PRIME_BITS  # often rest = 1
                         else (small := math.gcd(rest, _small_primorial())) == 1):
        primes = itertools.compress(range(2, 1 << 16), _prime_flags())
        if rest.bit_length() > MAX_PRIME_BITS:  # no other prime below 2^16 divides rest
            primes = [f for f in primes if small % f == 0]
        for f in primes:
            if rest < f * f * f:  # so rest is 1, a prime, l^2 or l*m
                break
            if rest % f == 0:
                while rest % f == 0:  # one f in k per f^2, or last lone f, stripped
                    rest //= f * f if rest % (f * f) == 0 else f
                    k *= f
                if rest.bit_length() <= MAX_PRIME_BITS and is_prime(rest):
                    break
    r = math.isqrt(rest)
    k *= r if r * r == rest else rest
    return p // g * k, q // g * k, d * k * k // (g * g)


class AlgebraicPoint(Value, namedtuple("AlgebraicPoint", "p q D")):
    """The point (p + sqrt(D))/q with D < 0 and q > 0, so Im > 0 always.

    The stored triple depends only on the point, so equality and hashing
    compare fields. With g = gcd(p, q) it is (p/g*k, q/g*k, D*k^2/g^2) for
    the least k with M' | k^2, M' = g^2/gcd(g^2, D). As g^2 | q^2, M' is
    M/gcd(M, Q^2) for Re = P/Q and Im^2 = -N/M in lowest terms, a function of
    the point. k comes from trial division of M' by the primes up to 2^16 in
    the one prime table, residues.smallest_prime_factors(), stopped once the
    cofactor C is 1, prime or below f^3; C then adds isqrt(C) if it is a
    square, else C. The triple is minimal when the loop stops early, so for
    every M' <= 2^48; past that, C = l^2*m with primes l, m above 2^16
    gives a canonical but not minimal q. gcd(p, q) = 1 is kept.
    """

    __slots__ = ()
    _text = "%s,%s,%s"

    def __new__(cls, p: int, q: int, D: int) -> AlgebraicPoint:
        if q <= 0:
            raise ValueError("denominator q must be positive")
        if D >= 0:
            raise ValueError("radicand D must be negative")
        return tuple.__new__(cls, _normalize(p, q, D))

    def re(self) -> fractions.Fraction:
        import fractions
        p, q, _ = self
        return fractions.Fraction(p, q)

    def im_sq(self) -> fractions.Fraction:
        import fractions
        _, q, d = self
        return fractions.Fraction(-d, q * q)

    def abs_sq(self) -> fractions.Fraction:
        import fractions
        p, q, d = self
        return fractions.Fraction(p * p - d, q * q)


def base_point(form: QuadraticForm) -> AlgebraicPoint:
    """The root (b + sqrt(disc))/(2a) of form in the upper half plane."""
    if not form.is_positive_definite():
        raise ValueError("base point defined only for positive definite forms")
    a, b, c = form
    return AlgebraicPoint(b, 2 * a, b * b - 4 * a * c)


def form_from_point(z: AlgebraicPoint) -> tuple[QuadraticForm, fractions.Fraction]:
    """Invert base_point: the primitive integral form with root z.

    Returns (G, scale) where scale * G is the monic-at-c normalization
    [1/|z|^2, 2 Re(z)/|z|^2, 1]. G has positive leading coefficient and
    base_point(G) == z.
    """
    import fractions
    p, q, d = z
    norm_num = p * p - d  # q^2 * |z|^2, positive
    aa, bb = q * q, 2 * p * q
    g = math.gcd(aa, bb, norm_num)
    return QuadraticForm(aa // g, bb // g, norm_num // g), fractions.Fraction(g, norm_num)


def in_fundamental_domain_pi(z: AlgebraicPoint) -> bool:
    """Closed fundamental region of the rotation subgroup: |Re| <= 1/2, |z| >= 1."""
    return 2 * abs(z.p) <= z.q and z.p * z.p - z.D >= z.q * z.q


def in_fundamental_domain_pibar(z: AlgebraicPoint) -> bool:
    """Fundamental region of the full extended group, boundary ties included.

    It is the half Re(z) >= 0 of Pi, which the reflection z -> -conj(z) cuts
    off; there the primitive form of z is reduced with b >= 0.
    """
    return z.p >= 0 and in_fundamental_domain_pi(z)
