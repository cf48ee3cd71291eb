"""Value, the immutable base of the library's value types."""


class Value(tuple):
    """Coefficients as a tuple that equals only values of its own class.

    Each value type derives from Value and a namedtuple of its fields, with
    empty __slots__. Validation and normalization live in its __new__;
    _make, and so _replace, call the constructor and cannot skip them.
    __ne__ is spelled out because tuple's own would compare across classes.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
