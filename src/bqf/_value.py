"""Value, the immutable base of the library's value types, and its helpers."""

from functools import partial


def _plain(text: str) -> bool:  # ASCII, printable and no "_", as str() writes an int
    return text.isascii() and text.isprintable() and "_" not in text


def _bound_text(bound: int) -> str:  # as error texts write a bound: 10^k for 10**k, else digits
    return f"10^{len(str(bound)) - 1}" if str(bound).rstrip("0") == "1" else str(bound)


def _unchecked(cls):  # cls from one iterable, built in C by tuple.__new__ (see Value)
    return partial(tuple.__new__, cls)


def _within_kind(compare):
    def method(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot order {type(self).__name__} against {type(other).__name__}")
        return compare(self, other)

    return method


class Value(tuple):
    """Coefficients as a tuple that equals and orders only values of its own class.

    Each value type derives from Value and a namedtuple of its fields, with empty
    __slots__, and declares its text form once, as _text with one %s per field and
    one-character separators, for str() and parse(); the records have none, keep
    their repr as str and refuse parse. Validation and normalization live in
    __new__; _make, and so _replace, call it. QuadraticForm and ReductionResult have
    none to run (the namedtuple's own only calls tuple.__new__), so _unchecked(cls)
    builds exactly the same value, skipping one Python call; reduction, act_on_form,
    mirror and the enumerations build them so. __ne__ is spelled out because tuple's
    own would compare across classes, and <, <=, >, >= raise TypeError across kinds
    because NotImplemented would let tuple's reflected comparison answer for a plain
    tuple. value + x and * raise TypeError (GroupElement's compose is its own *), but
    a plain tuple x + value runs tuple's +: (1, 0) + QuadraticForm(1, 0, 1) is (1, 0, 1, 0, 1).
    """

    __slots__ = ()
    _text = None

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__
    __lt__, __le__ = _within_kind(tuple.__lt__), _within_kind(tuple.__le__)
    __gt__, __ge__ = _within_kind(tuple.__gt__), _within_kind(tuple.__ge__)

    def __add__(self, other):
        return NotImplemented

    __mul__ = __rmul__ = __add__

    def __str__(self) -> str:
        return repr(self) if self._text is None else self._text % self

    @classmethod
    def parse(cls, text: str):
        """The value whose str() is text, spaces around each int allowed.

        A sign + and leading zeros are accepted too; int()'s "_", non-ASCII digits
        and whitespace other than the space are not, since str() never writes them.
        Where _text has two kinds of separator, rebuilding text checks their places.
        """
        if (fmt := cls._text) is None:
            raise TypeError(f"{cls.__name__} has no text form to parse")
        sep, mid = fmt[2], fmt[5]  # the first two separators
        parts = text.replace(mid, sep).split(sep)
        try:
            ints = [int(part) for part in parts] if _plain(text) else []
        except ValueError:  # the format's error, not int()'s; cls keeps its own
            ints = []
        if len(ints) != len(cls._fields) or (mid != sep and fmt % tuple(parts) != text):
            raise ValueError(f"expected {fmt % cls._fields!r}, got {text!r}")
        return cls(*ints)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
