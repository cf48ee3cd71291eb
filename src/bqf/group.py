"""The extended modular group and its actions.

Elements are 2x2 integer matrices (r s / t u) of determinant +-1 taken
modulo global sign. Generators: the inversion T, the order-3 rotation U,
and the reflection R (determinant -1). Words over the letters R, T, U, V
(V stands for U^2) multiply left to right.

Convention fixed here once and for all: points transform by
z -> (r z + s)/(t z + u) for determinant +1 and by the same fraction in
-conj(z) composed with the reflection for determinant -1, while forms
transform by the adjugate substitution (X, Y) -> (uX - sY, -tX + rY).
That substitution gives a genuine left action, g(hF) = (gh)F, for both
determinant signs, and the two actions are intertwined by base_point via
the diagonal conjugate returned by base_point_transform.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import cycle
from operator import mul

from ._value import Value, _bound_text
from .forms import QuadraticForm, _form
from .points import AlgebraicPoint

__all__ = ["IDENTITY", "R", "T", "U", "V", "GroupElement", "act_on_form", "act_on_point",
           "base_point_transform", "compose", "element_to_word", "generator_element", "inverse",
           "normalize_word", "word_to_element"]


class GroupElement(Value, namedtuple("GroupElement", "r s t u")):
    """Matrix (r s / t u) with ru - st = +-1, stored modulo sign.

    The canonical representative has t > 0, or t == 0 and u > 0; equality
    and hashing compare canonical representatives. Text format "r,s;t,u".
    """

    __slots__ = ()
    _text = "%s,%s;%s,%s"

    def __new__(cls, r: int, s: int, t: int, u: int) -> GroupElement:
        if r * u - s * t not in (1, -1):
            raise ValueError("matrix must have determinant +1 or -1")
        if t < 0 or (t == 0 and u < 0):
            r, s, t, u = -r, -s, -t, -u
        return tuple.__new__(cls, (r, s, t, u))

    @property
    def det(self) -> int:
        r, s, t, u = self
        return r * u - s * t

    def __mul__(self, other: GroupElement) -> GroupElement:
        return compose(self, other) if type(other) is GroupElement else NotImplemented


IDENTITY = GroupElement(1, 0, 0, 1)
T = GroupElement(0, -1, 1, 0)   # z -> -1/z
U = GroupElement(0, -1, 1, 1)   # z -> -1/(z + 1)
V = GroupElement(-1, -1, 1, 0)  # U^2
R = GroupElement(1, 0, 0, -1)   # z -> -conj(z)

_GENERATORS = {"R": R, "T": T, "U": U, "V": V}

MAX_WORD_LETTERS = 10**8  # longest word element_to_word writes


def generator_element(letter: str) -> GroupElement:
    try:
        return _GENERATORS[letter]
    except KeyError:
        raise ValueError(f"unknown generator letter {letter!r}") from None


def _product(g: tuple, h: tuple) -> tuple[int, int, int, int]:
    """The raw matrix product of two 4-int tuples (r, s, t, u)."""
    (r, s, t, u), (r2, s2, t2, u2) = g, h
    return r * r2 + s * t2, r * s2 + s * u2, t * r2 + u * t2, t * s2 + u * u2


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    """Matrix product g*h (apply h first when acting on the left)."""
    return GroupElement(*_product(g, h))


def inverse(g: GroupElement) -> GroupElement:
    # The adjugate is the inverse up to the sign det, which vanishes mod +-1.
    return GroupElement(g.u, -g.s, -g.t, g.r)


def act_on_form(g: GroupElement, form: QuadraticForm) -> QuadraticForm:
    """Left action of g on a form; preserves discriminant and definiteness.

    Substitutes (X, Y) -> (uX - sY, -tX + rY), i.e. composes the form with
    the adjugate matrix. Valid for both determinant signs; R acts as the
    mirror [a, -b, c].
    """
    (a, b, c), (r, s, t, u) = form, g
    aa = a * u * u - b * u * t + c * t * t
    bb = -2 * a * u * s + b * (r * u + s * t) - 2 * c * t * r
    cc = a * s * s - b * s * r + c * r * r
    return _form((aa, bb, cc))


def _mobius(g: GroupElement, p: int, q: int, d: int) -> tuple[int, int, int]:
    """The image of (p + sqrt(d))/q under g as an unnormalized triple."""
    r, s, t, u = g
    m, n = r * p + s * q, t * p + u * q
    return m * n - r * t * d, n * n - t * t * d, q * q * d


def act_on_point(g: GroupElement, z: AlgebraicPoint) -> AlgebraicPoint:
    """Exact Moebius action on upper-half-plane points.

    det +1: z -> (rz + s)/(tz + u); det -1: the same fraction evaluated at
    conj(z), which realizes R as z -> -conj(z) and keeps Im > 0. The sqrt
    coefficient comes out as +q times the determinant squared, so both
    cases collapse to one integer formula.
    """
    return AlgebraicPoint(*_mobius(g, z.p, z.q, z.D))


def base_point_transform(g: GroupElement) -> GroupElement:
    """The point map matching the form action of g.

    base_point(act_on_form(g, F)) == act_on_point(base_point_transform(g), base_point(F));
    concretely the conjugate of g by diag(1, -1), a group automorphism.
    """
    return GroupElement(g.r, -g.s, -g.t, g.u)


def word_to_element(word: str) -> GroupElement:
    """Multiply out a word over R, T, U, V left to right: the letters' matrices as
    a balanced tree of raw products, near-linear in the word length, then one
    GroupElement."""
    level = [generator_element(ch) for ch in word]
    while len(level) > 1:  # an odd last factor moves up a level unpaired
        level = list(map(_product, level[::2], level[1::2])) + level[len(level) & ~1 :]
    return GroupElement(*level[0]) if level else IDENTITY


def normalize_word(word: str) -> str:
    """The unique normal word of the element that word multiplies out to:
    at most one R, in front, then letters alternating between T and {U, V}."""
    return element_to_word(word_to_element(word))


def element_to_word(g: GroupElement) -> str:
    """Express g as its normal word in the generators.

    A determinant -1 element gets a leading R. The rest is x w y with
    x in {"", U, V}, y in {"", T} and w a word in TU = (1 1 / 0 1) and
    TV = (1 0 / 1 1), which freely generate the nonnegative matrices of
    SL(2, Z); so exactly one x^-1 g y^-1 is +- a nonnegative matrix
    (a b / c d). Its runs (TU)^k (TV)^j are the odd-length continued fraction
    of b / d, then (TV)^j with j = (a - 1) // b, as the part before (TV)^j
    has determinant 1, second column (b, d) and top left p in [1, b], and
    a = p + j b: a two-number Euclidean algorithm, O(log) bigint steps. The
    letter count follows from the runs before any letter is written. Raises
    ValueError, with that count as its letters attribute, when the word would
    exceed MAX_WORD_LETTERS letters.
    """
    r, s, t, u = g
    lead = "R" if r * u - s * t == -1 else ""
    if lead:
        t, u = -t, -u  # R g
    for y in "", "T":
        if y:
            r, s, t, u = s, -r, u, -t  # g T^-1
        # x^-1 g y^-1 is +-(r s / t u), (v w / r s), (t u / v w) for x = "", U, V; with det 1,
        # it is +- nonnegative iff its entries but the bottom right are all >= 0 or all <= 0
        v, w = -r - t, -s - u
        if r >= 0 <= s and t >= 0 or r <= 0 >= s and t <= 0:
            x, a, b, c, d = "", r, s, t, u
        elif v >= 0 <= w and r >= 0 or v <= 0 >= w and r <= 0:
            x, a, b, c, d = "U", v, w, r, s
        elif t >= 0 <= u and v >= 0 or t <= 0 >= u and v <= 0:
            x, a, b, c, d = "V", t, u, v, w
        else:
            continue
        break
    a, b, c, d = abs(a), abs(b), abs(c), abs(d)
    quotients, n, m = [], b, d
    while m:  # the continued fraction of b / d: the runs but the trailing (TV)^j
        (q, m), n = divmod(n, m), m
        quotients.append(q)
    if not len(quotients) & 1:  # the expansion of odd length: [..., q] -> [..., q - 1, 1]
        quotients[-1:] = quotients[-1] - 1, 1
    quotients.append((a - 1) // b if b else c)  # a = p + j b with p in [1, b]
    letters = len(lead + x + y) + 2 * sum(quotients)
    if letters > MAX_WORD_LETTERS:
        error = ValueError(f"word of {letters} letters exceeds the word bound "
                           f"{_bound_text(MAX_WORD_LETTERS)}")
        error.letters = letters
        raise error
    # join returns a lone nonempty run as it is, so a one-run word is written once
    return lead + x + "".join(filter(None, map(mul, cycle(("TU", "TV")), quotients))) + y
