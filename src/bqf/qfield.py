"""Imaginary quadratic irrationals (a + sqrt(-n))/c closed under the extended group.

Membership requires c | a^2 + n; the quotient b = (a^2 + n)/c makes each element carry
the integral form [c, -2a, b] of discriminant -4n. Moebius images of members under either
determinant sign are members again; the orbit walks the rotation subgroup on int triples
(orbit_explore validates each member once), cross-checked by proper equivalence.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator

TYPE_CHECKING = False  # as in points: fractions loads on first use
if TYPE_CHECKING:
    import fractions

from ._value import Value
from .forms import QuadraticForm
from .group import GroupElement, _mobius
from .points import AlgebraicPoint
from .reduction import equivalent

__all__ = ["QuadFieldElement", "SameOrbitReport", "element_form", "membership", "norm",
           "orbit_explore", "same_orbit_form_check"]

MAX_ORBIT_DEPTH = 12


class QuadFieldElement(Value, namedtuple("QuadFieldElement", "a c n")):
    """The point (a + sqrt(-n))/c with n > 0, c != 0 and c | a^2 + n.

    A negative c is absorbed by negating both a and c, so stored elements
    always sit in the upper half plane. Text format "a/c/n".
    """

    __slots__ = ()
    _text = "%s/%s/%s"

    def __new__(cls, a: int, c: int, n: int) -> QuadFieldElement:
        if n <= 0:
            raise ValueError("n must be a positive integer")
        if c == 0:
            raise ValueError("denominator c must be nonzero")
        if (a * a + n) % c != 0:
            raise ValueError("c must divide a^2 + n")
        return tuple.__new__(cls, (-a, -c, n) if c < 0 else (a, c, n))

    @property
    def b(self) -> int:
        return (self.a * self.a + self.n) // self.c

    def to_point(self) -> AlgebraicPoint:
        return AlgebraicPoint(self.a, self.c, -self.n)


def membership(a: int, c: int, n: int, primitive_only: bool = False) -> QuadFieldElement | None:
    """The element (a + sqrt(-n))/c if the divisibility test passes.

    With primitive_only, additionally require gcd(a, b, c) = 1 for the
    derived b.
    """
    if n <= 0:
        raise ValueError("n must be a positive integer")
    if c == 0 or (a * a + n) % c != 0:
        return None
    if primitive_only and math.gcd(a, (a * a + n) // c, c) != 1:
        return None
    return QuadFieldElement(a, c, n)


def norm(alpha: QuadFieldElement) -> fractions.Fraction:
    """Field norm alpha * conj(alpha) = (a^2 + n)/c^2, equal to b/c."""
    import fractions
    return fractions.Fraction(alpha.a * alpha.a + alpha.n, alpha.c * alpha.c)


def element_form(alpha: QuadFieldElement) -> QuadraticForm:
    """The attached integral form [c, -2a, b]; discriminant -4n.

    The canonical c > 0 keeps the leading coefficient positive, so the
    form is positive definite.
    """
    return QuadraticForm(alpha.c, -2 * alpha.a, alpha.b)


def act(g: GroupElement, alpha: QuadFieldElement) -> QuadFieldElement:
    """Exact Moebius image of alpha under any element of the extended group.

    group._mobius is the point action: a determinant -1 element is evaluated
    at conj(alpha), so R maps alpha to -conj(alpha), a/c/n to -a/c/n. Both
    outputs are divisible by c for either determinant sign, and closure is
    re-verified by the membership arithmetic on every call.
    """
    a, c, n = alpha
    top, bottom, _ = _mobius(g, a, c, -n)
    return QuadFieldElement(top // c, bottom // c, n)


def _orbit(alpha: QuadFieldElement, depth: int) -> Iterator[tuple[int, int, int]]:
    """Each new triple (a, c, b) of the orbit, breadth first over words in T, U, V up to
    depth, alpha first. With b = (a^2 + n)/c the generators act by additions, the moves
    _reduce makes on form triples: T (a, c, b) -> (-a, b, c), U -> (-a - c, 2a + b + c, c),
    V -> (-a - b, b, 2a + b + c). As T^2 = U^3 = 1 (V = U^2), a node reached by T has its
    parent as T image, one reached by U or V its parent and sibling as U, V images: only the
    other kind of move is tried (alpha takes all three); seen catches words meeting at i, rho."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if depth > MAX_ORBIT_DEPTH:
        raise ValueError(f"depth {depth} exceeds the configured maximum {MAX_ORBIT_DEPTH}")
    by_t = by_uv = [(alpha.a, alpha.c, alpha.b)]
    seen = set(by_t)
    yield by_t[0]
    for _ in range(depth):
        grown_t, grown_uv = [], []
        for a, c, b in by_uv:
            if (image := (-a, b, c)) not in seen:
                seen.add(image)
                grown_t.append(image)
                yield image
        for a, c, b in by_t:
            s = 2 * a + b + c
            for image in ((-a - c, s, c), (-a - b, b, s)):
                if image not in seen:
                    seen.add(image)
                    grown_uv.append(image)
                    yield image
        by_t, by_uv = grown_t, grown_uv


def orbit_explore(alpha: QuadFieldElement, depth: int) -> set[QuadFieldElement]:
    """Breadth-first orbit over generator words in T, U, U^2 up to depth; each
    member is walked as an int triple and validated once as an element."""
    n = alpha.n
    return {QuadFieldElement(a, c, n) for a, c, _ in _orbit(alpha, depth)}


class SameOrbitReport(
    Value, namedtuple("SameOrbitReport", "alpha_form beta_form forms_equivalent reachable depth")
):
    """Both sides of the orbit/form-equivalence comparison.

    reachable True with forms_equivalent False would be a genuine
    violation; the converse only means the search depth was too small.
    """

    __slots__ = ()

    @property
    def violation(self) -> bool:
        return self.reachable and not self.forms_equivalent

    @property
    def possibly_truncated(self) -> bool:
        return self.forms_equivalent and not self.reachable

    @property
    def consistent(self) -> bool:
        return not self.violation


def same_orbit_form_check(
    alpha: QuadFieldElement, beta: QuadFieldElement, depth: int
) -> SameOrbitReport:
    """Compare BFS reachability of beta from alpha against form equivalence."""
    if alpha.n != beta.n:
        raise ValueError("elements lie over different n")
    fa = element_form(alpha)
    fb = element_form(beta)
    forms_equivalent = equivalent(fa, fb, "proper") is not None
    reachable = (beta.a, beta.c, beta.b) in _orbit(alpha, depth)  # stops at beta
    return SameOrbitReport(fa, fb, forms_equivalent, reachable, depth)
