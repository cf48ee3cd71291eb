"""Answer oracles on raw integers, written independently of the library.

Nothing here imports bqf. Forms are (a, b, c) triples, group elements are
(r, s, t, u) matrices taken modulo sign, points are exact (Re, Im^2)
pairs of Fractions. The conventions are the library's documented ones:
forms move by the adjugate substitution (X, Y) -> (uX - sY, -tX + rY),
quadratic irrationals by z -> (rz + s)/(tz + u), and a word multiplies
its letters left to right.
"""

from __future__ import annotations

import math
import re
from array import array
from fractions import Fraction

GENERATORS = {
    "R": (1, 0, 0, -1),
    "T": (0, -1, 1, 0),
    "U": (0, -1, 1, 1),
    "V": (-1, -1, 1, 0),
}


# --- group elements ------------------------------------------------------

def mat_mul(g, h):
    r, s, t, u = g
    r2, s2, t2, u2 = h
    return (r * r2 + s * t2, r * s2 + s * u2, t * r2 + u * t2, t * s2 + u * u2)


def det(g) -> int:
    return g[0] * g[3] - g[1] * g[2]


def adjugate(g):
    """The inverse modulo sign."""
    r, s, t, u = g
    return (u, -s, -t, r)


def same_element(g, h) -> bool:
    return tuple(g) == tuple(h) or tuple(g) == tuple(-x for x in h)


# TU is the translation z -> z + 1 and VT its inverse, both up to sign, so
# a run of either multiplies out in one step
_SYLLABLES = re.compile(r"(?:TU)+|(?:VT)+|[RTUV]")
_NORMAL = re.compile(r"R?T?(?:[UV]T)*[UV]?")


def word_product(word: str):
    """The product of the letters, left to right, modulo sign."""
    g = (1, 0, 0, 1)
    for m in _SYLLABLES.finditer(word):
        run = m.group()
        if len(run) == 1:
            g = mat_mul(g, GENERATORS[run])
        else:
            g = mat_mul(g, translation(len(run) // 2 if run[0] == "T" else -(len(run) // 2)))
    if _SYLLABLES.sub("", word):
        raise ValueError(f"unknown letters in word {word!r}")
    return g


def is_normal_word(word: str) -> bool:
    """At most one R, in front, then letters alternating T and {U, V}."""
    return _NORMAL.fullmatch(word) is not None


def translation(m: int):
    return (1, m, 0, 1)


def cf_element(quotients):
    """Product of (q 1 / 1 0) factors: a continued-fraction element."""
    g = (1, 0, 0, 1)
    for q in quotients:
        g = mat_mul(g, (q, 1, 1, 0))
    return g


# --- forms -----------------------------------------------------------------

def substitute(g, form):
    """F(uX - sY, -tX + rY) expanded coefficient by coefficient."""
    a, b, c = form
    r, s, t, u = g
    x = (u, -s)   # coefficients of X and Y in the first variable
    y = (-t, r)
    return (
        a * x[0] * x[0] + b * x[0] * y[0] + c * y[0] * y[0],
        2 * a * x[0] * x[1] + b * (x[0] * y[1] + x[1] * y[0]) + 2 * c * y[0] * y[1],
        a * x[1] * x[1] + b * x[1] * y[1] + c * y[1] * y[1],
    )


def disc(form) -> int:
    a, b, c = form
    return b * b - 4 * a * c


def is_reduced(form) -> bool:
    a, b, c = form
    if not (disc(form) < 0 and a > 0 and c > 0 and abs(b) <= a <= c):
        return False
    if abs(b) == a and b != a:
        return False
    return not (a == c and b < 0)


def reduce_triple(form):
    """Gauss reduction of the proper class, without a witness."""
    a, b, c = form
    while True:
        if b > a or b <= -a:
            m = (a - b) // (2 * a)
            b, c = b + 2 * a * m, a * m * m + b * m + c
        elif a > c or (a == c and b < 0):
            a, b, c = c, -b, a
        else:
            return (a, b, c)


def primitive_part(form):
    g = math.gcd(*form)
    return tuple(x // g for x in form)


# --- points ------------------------------------------------------------------

def form_point(form):
    """Base point (b + sqrt(disc))/(2a) as (Re, Im^2)."""
    a, b, c = form
    return Fraction(b, 2 * a), Fraction(4 * a * c - b * b, 4 * a * a)


def triple_point(p: int, q: int, d: int):
    """The point (p + sqrt(d))/q as (Re, Im^2)."""
    return Fraction(p, q), Fraction(-d, q * q)


# --- quadratic irrationals (a + sqrt(-n))/c --------------------------------

def move_irrational(g, element):
    """Image of (a + sqrt(-n))/c under a det +1 element, as (a', c', n).

    With z = x + iy, x = a/c, y^2 = n/c^2 and K = (ta + uc)^2 + t^2 n, the
    Moebius formula gives Re w = ((ra + sc)(ta + uc) + rtn)/K and
    Im w = c sqrt(n)/K, so c' = K/c and a' = Re(w) c'.
    """
    a, c, n = element
    r, s, t, u = g
    k = (t * a + u * c) ** 2 + t * t * n
    top = (r * a + s * c) * (t * a + u * c) + r * t * n
    if k % c or top % c:
        raise ArithmeticError(f"image of {element} under {g} is not a member")
    return (top // c, k // c, n)


def orbit_depths(element, max_depth: int) -> dict:
    """Breadth-first distance of every element reachable within max_depth."""
    dist = {element: 0}
    frontier = [element]
    for depth in range(1, max_depth + 1):
        grown = []
        for el in frontier:
            for letter in "TUV":
                image = move_irrational(GENERATORS[letter], el)
                if image not in dist:
                    dist[image] = depth
                    grown.append(image)
        if not grown:
            break
        frontier = grown
    return dist


def irrational_form(element):
    a, c, n = element
    return (c, -2 * a, (a * a + n) // c)


# --- residues ------------------------------------------------------------------

def jacobi(a: int, n: int) -> int:
    """Jacobi symbol by quadratic reciprocity, n odd and positive."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def odd_primes_below(limit: int) -> list[int]:
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, limit, i)))
    return [p for p in range(3, limit) if sieve[p]]


def _small_prime(rng, bits: int) -> int:
    # trial division is exact and cheap below 2^20
    while True:
        n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if all(n % f for f in range(3, math.isqrt(n) + 1, 2)):
            return n


def certified_prime(rng, bits: int) -> int:
    """A prime of exactly `bits` bits, proved by Pocklington's criterion.

    n = 2kq + 1 with q a certified prime above sqrt(n) is prime as soon as
    some base w has w^(n-1) = 1 and gcd(w^((n-1)/q) - 1, n) = 1.
    """
    if bits <= 20:
        return _small_prime(rng, bits)
    q = certified_prime(rng, bits // 2 + 2)
    lo, hi = (1 << (bits - 1)) // (2 * q) + 1, ((1 << bits) - 2) // (2 * q)
    while True:
        n = 2 * rng.randint(lo, hi) * q + 1
        for w in (2, 3, 5, 7):
            if pow(w, n - 1, n) != 1:
                break
            if math.gcd(pow(w, (n - 1) // q, n) - 1, n) == 1:
                return n


# --- reduced forms of a discriminant -----------------------------------------

def rectangle_reduced(delta: int) -> list[tuple]:
    """Reduced forms of delta by scanning the (a, b) rectangle."""
    out = []
    a = 1
    while 3 * a * a <= -delta:
        for b in range(-a, a + 1):
            num = b * b - delta
            if num % (4 * a) == 0 and is_reduced((a, b, num // (4 * a))):
                out.append((a, b, num // (4 * a)))
        a += 1
    return out


class DivisorScan:
    """Reduced forms of delta from the divisors of (b^2 - delta)/4.

    For each b >= 0 with 3b^2 <= |delta|, the reduced forms [a, +-b, c] are
    the factorizations ac = (b^2 - delta)/4 with b <= a <= c. A table of one
    prime factor per integer up to `limit` makes each factorization cheap.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self.factor = array("I", [0]) * (limit + 1)
        for p in range(2, math.isqrt(limit) + 1):
            if not self.factor[p]:
                self.factor[p * p :: p] = array("I", [p]) * len(range(p * p, limit + 1, p))

    def _divisors(self, n: int) -> list[int]:
        divs = [1]
        while n > 1:
            p = self.factor[n] or n
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            divs = [d * p**e for d in divs for e in range(k + 1)]
        return divs

    def reduced(self, delta: int) -> list[tuple]:
        if (-delta) // 3 + 1 > self.limit:
            raise ValueError(f"|delta| = {-delta} exceeds the scan table")
        out = []
        b = delta % 2
        while 3 * b * b <= -delta:
            n = (b * b - delta) // 4
            for a in self._divisors(n):
                c = n // a
                if max(b, 1) <= a <= c:
                    out.append((a, b, c))
                    if b and b != a and a != c:
                        out.append((a, -b, c))
            b += 2
        return sorted(out)


def almost_from_reduced(reduced: list[tuple]) -> list[tuple]:
    """Almost reduced forms: the reduced ones plus their boundary mirrors."""
    out = set(reduced)
    out.update((a, -b, c) for a, b, c in reduced)
    return sorted(out)


def is_primitive(form) -> bool:
    return math.gcd(*form) == 1
