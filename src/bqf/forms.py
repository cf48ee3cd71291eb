"""Integral binary quadratic forms a*X^2 + b*X*Y + c*Y^2."""

from __future__ import annotations

import math
from collections import namedtuple

from ._value import Value


class QuadraticForm(Value, namedtuple("QuadraticForm", "a b c")):
    """A form [a, b, c] with exact integer coefficients.

    Instances are immutable and sort lexicographically by (a, b, c).
    The canonical text rendering is "a,b,c".
    """

    __slots__ = ()

    @classmethod
    def parse(cls, text: str) -> QuadraticForm:
        parts = text.split(",")
        if len(parts) != 3:
            raise ValueError(f"expected 'a,b,c', got {text!r}")
        return cls(int(parts[0]), int(parts[1]), int(parts[2]))

    def __str__(self) -> str:
        return f"{self.a},{self.b},{self.c}"

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
        return self.discriminant() < 0 and self.a > 0 and self.c > 0

    def is_almost_reduced(self) -> bool:
        return self.is_positive_definite() and abs(self.b) <= self.a <= self.c

    def is_reduced(self) -> bool:
        """Almost reduced plus the boundary tie rules.

        On the ties the positive sign of b wins: a == |b| forces b == a,
        and a == c forces b >= 0.
        """
        if not self.is_almost_reduced():
            return False
        if abs(self.b) == self.a and self.b != self.a:
            return False
        if self.a == self.c and self.b < 0:
            return False
        return True

    def mirror(self) -> QuadraticForm:
        """The reflected form [a, -b, c]; same discriminant."""
        return QuadraticForm(self.a, -self.b, self.c)
