"""Integral binary quadratic forms a*X^2 + b*X*Y + c*Y^2."""

from __future__ import annotations

import math
from collections import namedtuple

from ._value import Value, _unchecked

__all__ = ["QuadraticForm"]


class QuadraticForm(Value, namedtuple("QuadraticForm", "a b c")):
    """A form [a, b, c] with exact integer coefficients.

    Instances are immutable and sort lexicographically by (a, b, c) among
    forms. Text format "a,b,c".
    """

    __slots__ = ()
    _text = "%s,%s,%s"

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def evaluate(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def content(self) -> int:
        if self.a == 0 and self.b == 0 and self.c == 0:
            raise ValueError("zero form has no content")
        return math.gcd(self.a, self.b, self.c)

    def is_primitive(self) -> bool:
        return self.content() == 1

    def is_positive_definite(self) -> bool:
        """Negative discriminant with both outer coefficients positive."""
        a, b, c = self
        return b * b < 4 * a * c and a > 0 and c > 0

    def is_almost_reduced(self) -> bool:
        a, b, c = self
        return 0 < a and abs(b) <= a <= c  # so b^2 <= ac < 4ac: positive definite

    def is_reduced(self) -> bool:
        """Almost reduced plus the boundary tie rules.

        On the ties the positive sign of b wins: a == |b| forces b == a,
        and a == c forces b >= 0.
        """
        a, b, c = self
        return 0 < a and -a < b <= a <= c and (b >= 0 or a < c)

    def mirror(self) -> QuadraticForm:
        """The reflected form [a, -b, c]; same discriminant."""
        return _form((self.a, -self.b, self.c))


_form = _unchecked(QuadraticForm)  # _form((a, b, c)) == QuadraticForm(a, b, c), built in C
