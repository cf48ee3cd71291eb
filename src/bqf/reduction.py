"""Gauss reduction of positive definite forms, with explicit witnesses."""

from __future__ import annotations

from collections import namedtuple

from ._value import Value, _unchecked
from .forms import QuadraticForm, _form
from .group import GroupElement, _product, element_to_word

__all__ = ["ReductionResult", "equivalent", "minimum_represented", "reduce_form"]


class ReductionResult(Value, namedtuple("ReductionResult", "reduced witness word steps")):
    """Reduced form plus the group element carrying the input onto it.

    act_on_form(witness, original) == reduced, word multiplies out to
    witness mod sign, steps counts elementary moves. The word is
    element_to_word(witness), read off the witness as runs (TU)^k (TV)^j
    by a Euclidean algorithm on one column; reduce_form raises ValueError
    when it would exceed MAX_WORD_LETTERS letters.
    """

    __slots__ = ()


_result = _unchecked(ReductionResult)


def _reduce(form: QuadraticForm) -> tuple[QuadraticForm, tuple[int, int, int, int], int]:
    """Reduced form, witness (r s / t u) as a raw 4-tuple of determinant 1, and steps:
    reduce_form without a word or a GroupElement, which equivalent does not return.

    A move acts on each witness column alone, so the loop carries (r, t) only. At the
    exit, with [A, B, C] reduced from [a0, b0, c0], (s, u) solves ru - ts = 1 and
    (2Ar + Bt)s + (Br + 2Ct)u = b0, as the inverse witness takes [A, B, C] back to b0:
    the system's determinant is 2a0 > 0, so both divisions are exact.
    """
    if not form.is_positive_definite():
        raise ValueError("only positive definite forms can be reduced")
    a, b, c = a0, b0, _ = form
    r, t, steps = 1, 0, 0
    while True:  # two passes a round; the swap between them renames, moving no value
        m = (a - b) // (2 * a)  # zero exactly when -a < b <= a
        if m:  # translate by (TU)^-m: b -> b + 2am, c by m times the mean of old and new b
            am = a * m
            b += am
            c += m * b
            b += am
            r -= m * t  # (1 -m / 0 1) times the witness
            steps += 1
        if a < c or a == c and b >= 0:
            break
        m = (c + b) // (2 * c)  # the same on the swapped form (c, -b, a), witness (-t, -u, r, s)
        if m:
            cm = c * m
            b -= cm
            a -= m * b
            b -= cm
            t += m * r
            steps += 1
        if c < a or c == a and b <= 0:
            a, b, c, r, t, steps = c, -b, a, -t, r, steps + 1
            break
        steps += 2  # two swaps negate the witness, which is stored modulo sign
    d = 2 * a0
    s, u = (r * (b0 - b) - 2 * c * t) // d, (2 * a * r + t * (b + b0)) // d
    return _form((a, b, c)), (r, s, t, u), steps


def reduce_form(form: QuadraticForm) -> ReductionResult:
    """Reduce by alternating translations and swaps; always terminates.

    Translation by (TU)^m moves b into the half-open window (-a, a], which
    settles the b == -a tie on its own; the swap T exchanges the outer
    coefficients when a > c, or when a == c with b < 0 to settle the other
    tie. Content is linear through every move, so imprimitive forms reduce
    to their content times a reduced form with the same witness.
    """
    reduced, w, steps = _reduce(form)
    witness = GroupElement(*w)
    return _result((reduced, witness, element_to_word(witness), steps))


def equivalent(
    form: QuadraticForm, other: QuadraticForm, mode: str = "proper"
) -> GroupElement | None:
    """Witness g with act_on_form(g, other) == form, or None.

    "proper" searches the determinant +1 orbit; "extended" also allows a
    reflection, in which case the witness has determinant -1. The reduction
    refuses a form that is not positive definite; forms of different
    discriminants reduce to different forms, so the comparison gives None.
    """
    if mode not in ("proper", "extended"):
        raise ValueError(f"mode must be 'proper' or 'extended', got {mode!r}")
    rf, (r, s, t, u), _ = _reduce(form)
    ro, wo, _ = _reduce(other)
    if rf == ro:  # adj(wf) wo: the adjugate inverts wf modulo sign
        return GroupElement(*_product((u, -s, -t, r), wo))
    # R takes ro to its mirror, which is reduced unless ro lies on the boundary;
    # there the mirror reduces back to ro, which was already compared with rf
    if mode == "extended" and rf == ro.mirror():  # adj(wf) R wo, R = diag(1, -1)
        return GroupElement(*_product((u, s, -t, -r), wo))
    return None


def minimum_represented(form: QuadraticForm) -> int:
    """Smallest positive integer the form takes on (x, y) != (0, 0)."""
    return _reduce(form)[0].a
