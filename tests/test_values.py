"""Value semantics shared by the six value types: immutable tuples of their
coefficients, equal to and ordered against only values of their own class."""

import operator
import pickle
import re
from pathlib import Path

import pytest

import bqf
from bqf import (
    AlgebraicPoint,
    GroupElement,
    QuadFieldElement,
    QuadraticForm,
    ReductionResult,
    SameOrbitReport,
    reduce_form,
    same_orbit_form_check,
)

from helpers import python

# (value, its fields, its repr)
VALUES = [
    (QuadraticForm(11, 49, 55), "a b c", "QuadraticForm(a=11, b=49, c=55)"),
    (GroupElement(3, 7, -1, -2), "r s t u", "GroupElement(r=-3, s=-7, t=1, u=2)"),
    (AlgebraicPoint(2, 4, -4), "p q D", "AlgebraicPoint(p=1, q=2, D=-1)"),
    (QuadFieldElement(-1, -2, 5), "a c n", "QuadFieldElement(a=1, c=2, n=5)"),
    (
        reduce_form(QuadraticForm(11, 49, 55)),
        "reduced witness word steps",
        "ReductionResult(reduced=QuadraticForm(a=1, b=1, c=5), "
        "witness=GroupElement(r=-3, s=-7, t=1, u=2), word='VTVTVTUTU', steps=3)",
    ),
    (
        same_orbit_form_check(QuadFieldElement(1, 2, 5), QuadFieldElement(3, 2, 5), 8),
        "alpha_form beta_form forms_equivalent reachable depth",
        "SameOrbitReport(alpha_form=QuadraticForm(a=2, b=-2, c=3), "
        "beta_form=QuadraticForm(a=2, b=-6, c=7), forms_equivalent=True, "
        "reachable=True, depth=8)",
    ),
]
IDS = [type(v).__name__ for v, _, _ in VALUES]
# str() of the four types with a text form; the two records print their repr
STRINGS = {
    "QuadraticForm": "11,49,55",
    "GroupElement": "-3,-7;1,2",
    "AlgebraicPoint": "1,2,-1",
    "QuadFieldElement": "1/2/5",
}
ORDERINGS = [operator.lt, operator.le, operator.gt, operator.ge]
# (kind, constructor arguments, the fields it stores): the sign rules of the
# two projective kinds and the square factors a point keeps out of D
BUILT = [
    (GroupElement, (-1, 0, 0, -1), (1, 0, 0, 1)),
    (GroupElement, (0, 1, -1, 0), (0, -1, 1, 0)),
    (GroupElement, (1, 0, 0, -1), (-1, 0, 0, 1)),
    (AlgebraicPoint, (2, 4, -16), (1, 2, -4)),
    (AlgebraicPoint, (0, 2, -4), (0, 1, -1)),
    (AlgebraicPoint, (6, 4, -20), (3, 2, -5)),
    # only square factors compatible with gcd(p, q) come out of D
    (AlgebraicPoint, (-6, 12, -12), (-3, 6, -3)),
    (AlgebraicPoint, (2, 2, -36), (1, 1, -9)),
    (QuadFieldElement, (1, -2, 5), (-1, 2, 5)),
    (QuadFieldElement, (-3, -2, 5), (3, 2, 5)),
]
DETERMINANT = "matrix must have determinant +1 or -1"
# (kind, constructor arguments, the exact refusal)
REFUSED = [
    (GroupElement, (1, 0, 0, 2), DETERMINANT),
    (GroupElement, (0, 0, 0, 0), DETERMINANT),
    (AlgebraicPoint, (1, 0, -1), "denominator q must be positive"),
    (AlgebraicPoint, (1, -2, -1), "denominator q must be positive"),
    (AlgebraicPoint, (1, 2, 5), "radicand D must be negative"),
    (AlgebraicPoint, (1, 2, 0), "radicand D must be negative"),
    (QuadFieldElement, (1, 4, 5), "c must divide a^2 + n"),
    (QuadFieldElement, (1, 0, 5), "denominator c must be nonzero"),
    # c = 1 divides a^2 + n, so only the n rule refuses these two
    (QuadFieldElement, (0, 1, 0), "n must be a positive integer"),
    (QuadFieldElement, (1, 1, -5), "n must be a positive integer"),
]


def call_ids(rows):
    return [f"{kind.__name__}({','.join(map(str, args))})" for kind, args, _ in rows]


@pytest.mark.parametrize("value, fields, text", VALUES, ids=IDS)
def test_fields_cannot_be_assigned(value, fields, text):
    for name in fields.split() + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
    assert repr(value) == text


@pytest.mark.parametrize("value, fields, text", VALUES, ids=IDS)
def test_value_is_the_tuple_of_its_fields(value, fields, text):
    coefficients = tuple(getattr(value, name) for name in fields.split())
    assert tuple(value) == coefficients and len(value) == len(coefficients)
    assert value != coefficients and coefficients != value
    assert not value == coefficients
    assert type(value)(*coefficients) == value


@pytest.mark.parametrize("value, fields, text", VALUES, ids=IDS)
def test_pickle_round_trip(value, fields, text):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is type(value) and back == value and hash(back) == hash(value)


@pytest.mark.parametrize("value, fields, text", VALUES, ids=IDS)
def test_str_is_the_text_form_or_the_repr(value, fields, text):
    kind = type(value)
    string = STRINGS.get(kind.__name__, text)
    assert str(value) == f"{value}" == string
    if kind.__name__ in STRINGS:
        back = kind.parse(string)
        assert type(back) is kind and back == value


@pytest.mark.parametrize("value, fields, text", VALUES, ids=IDS)
def test_ordering_only_within_the_kind(value, fields, text):
    other_kind = VALUES[(IDS.index(type(value).__name__) + 1) % len(VALUES)][0]
    for other in (other_kind, tuple(value), tuple(other_kind)):
        for compare in ORDERINGS:
            with pytest.raises(TypeError):
                compare(value, other)
            with pytest.raises(TypeError):
                compare(other, value)
    assert value <= value and value >= value and not value < value and not value > value


@pytest.mark.parametrize("value, fields, text", VALUES, ids=IDS)
def test_no_tuple_arithmetic(value, fields, text):
    # only GroupElement * GroupElement is a product (compose, see test_group)
    products = (lambda: value * 2, lambda: 2 * value, lambda: value * tuple(value))
    for combine in (lambda: value + value, *products):
        with pytest.raises(TypeError):
            combine()


@pytest.mark.parametrize("kind, args, fields", BUILT, ids=call_ids(BUILT))
def test_construction_stores_the_normal_fields(kind, args, fields):
    value, normal = kind(*args), kind(*fields)
    assert tuple(value) == fields
    assert value == normal and hash(value) == hash(normal)


@pytest.mark.parametrize("kind, args, message", REFUSED, ids=call_ids(REFUSED))
def test_construction_refusal_names_the_rule(kind, args, message):
    with pytest.raises(ValueError) as caught:
        kind(*args)
    assert str(caught.value) == message


def test_plain_tuple_on_the_left_concatenates():
    # tuple's own + runs before any method of the right operand
    joined = (1, 0) + QuadraticForm(1, 0, 1)
    assert type(joined) is tuple and joined == (1, 0, 1, 0, 1)


@pytest.mark.parametrize("kind", [ReductionResult, SameOrbitReport])
def test_records_have_no_parse(kind):
    with pytest.raises(TypeError, match=f"^{kind.__name__} has no text form to parse$"):
        kind.parse("x")


@pytest.mark.parametrize(
    "values",
    [
        [QuadraticForm(2, 1, 3), QuadraticForm(1, 0, 1), QuadraticForm(2, -1, 3)],
        [GroupElement(0, -1, 1, 1), GroupElement(1, 0, 0, 1), GroupElement(3, 7, -1, -2)],
        [AlgebraicPoint(1, 2, -5), AlgebraicPoint(0, 1, -1), AlgebraicPoint(-1, 2, -3)],
        [QuadFieldElement(3, 2, 5), QuadFieldElement(1, 2, 5), QuadFieldElement(1, -2, 5)],
    ],
    ids=IDS[:4],
)
def test_sorted_within_a_kind_is_by_fields(values):
    assert len(set(values)) == len(values)  # distinct fields, distinct values
    ordered = sorted(values)
    assert ordered == sorted(values, key=tuple)
    assert all(x < y or x == y for x, y in zip(ordered, ordered[1:]))
    assert min(values) == ordered[0] and max(values) == ordered[-1]


@pytest.mark.parametrize(
    "kind, text, shown",
    [
        # spaces around an int, a sign + and leading zeros, as int() reads them
        (QuadraticForm, " 2 , -1 , 3 ", "2,-1,3"),
        (QuadraticForm, "+11,049,55", "11,49,55"),
        # the projective kinds print the sign they keep
        (GroupElement, "0,1;-1,0", "0,-1;1,0"),
        (QuadFieldElement, "3/-2/5", "-3/2/5"),
    ],
)
def test_parse_accepts_and_normalizes(kind, text, shown):
    value = kind.parse(text)
    assert type(value) is kind and str(value) == shown and kind.parse(shown) == value


@pytest.mark.parametrize(
    "kind, text, message",
    [
        (QuadraticForm, "", "expected 'a,b,c', got ''"),
        (QuadraticForm, "1;2;3", "expected 'a,b,c', got '1;2;3'"),
        (QuadraticForm, "1,2", "expected 'a,b,c', got '1,2'"),
        (QuadraticForm, "1,2,3,4", "expected 'a,b,c', got '1,2,3,4'"),
        (QuadraticForm, "1/2/3", "expected 'a,b,c', got '1/2/3'"),
        (GroupElement, "1,0;0", "expected 'r,s;t,u', got '1,0;0'"),
        (GroupElement, "1,0,0,1", "expected 'r,s;t,u', got '1,0,0,1'"),
        (GroupElement, "1;2,3,4", "expected 'r,s;t,u', got '1;2,3,4'"),
        (GroupElement, "1,2;3;4", "expected 'r,s;t,u', got '1,2;3;4'"),
        (GroupElement, "1;2;3", "expected 'r,s;t,u', got '1;2;3'"),
        (AlgebraicPoint, "1,2", "expected 'p,q,D', got '1,2'"),
        (AlgebraicPoint, "1;2;-5", "expected 'p,q,D', got '1;2;-5'"),
        (QuadFieldElement, "1/2/5/7", "expected 'a/c/n', got '1/2/5/7'"),
        (QuadFieldElement, "1,2,5", "expected 'a/c/n', got '1,2,5'"),
        (QuadFieldElement, "1/2", "expected 'a/c/n', got '1/2'"),
        (QuadraticForm, "1,1,x", "expected 'a,b,c', got '1,1,x'"),
        (GroupElement, "1,0;0,x", "expected 'r,s;t,u', got '1,0;0,x'"),
        # int() reads "_" between digits and non-ASCII digits; str() writes neither
        (QuadraticForm, "1_1,4_9,55", "expected 'a,b,c', got '1_1,4_9,55'"),
        (QuadraticForm, "\u0661,1,5", "expected 'a,b,c', got '\u0661,1,5'"),
        (QuadFieldElement, "1/2/\uff15", "expected 'a/c/n', got '1/2/\uff15'"),
        # int() strips whitespace other than the space too; str() writes none
        (QuadraticForm, "1,\t1,5", "expected 'a,b,c', got '1,\\t1,5'"),
        (QuadraticForm, "1,\x0c1,\x0b5", "expected 'a,b,c', got '1,\\x0c1,\\x0b5'"),
        (QuadraticForm, "1,1,5\n", "expected 'a,b,c', got '1,1,5\\n'"),
        (QuadraticForm, "1,\r1,5", "expected 'a,b,c', got '1,\\r1,5'"),
        (AlgebraicPoint, "1,0,-3", "denominator q must be positive"),
        (AlgebraicPoint, "1,2,5", "radicand D must be negative"),
    ],
)
def test_parse_error_names_the_text_form(kind, text, message):
    with pytest.raises(ValueError) as caught:
        kind.parse(text)
    assert str(caught.value) == message


def test_equal_only_to_own_class():
    form, element = QuadraticForm(1, 2, 1), QuadFieldElement(1, 2, 1)
    assert tuple(form) == tuple(element)
    assert form != element and element != form and not form == element
    assert len({form, element}) == 2
    assert QuadraticForm(0, 1, -1) != AlgebraicPoint(0, 1, -1)
    assert AlgebraicPoint(0, 1, -1) != "0,1,-1"
    assert GroupElement(1, 0, 0, 1) != (1, 0, 0, 1)


def test_hash_agrees_with_equality():
    pairs = [
        (GroupElement(3, 7, -1, -2), GroupElement(-3, -7, 1, 2)),
        (AlgebraicPoint(2, 4, -4), AlgebraicPoint(1, 2, -1)),
        (QuadFieldElement(-1, -2, 5), QuadFieldElement(1, 2, 5)),
        (QuadraticForm(2, 1, 3), QuadraticForm.parse("2,1,3")),
    ]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    assert len({QuadraticForm(2, 1, 3), QuadraticForm(2, -1, 3)}) == 2


def test_make_and_replace_normalize_or_raise():
    assert type(QuadraticForm._make([1, 2, 3])) is QuadraticForm
    assert GroupElement._make([3, 7, -1, -2]) == GroupElement(-3, -7, 1, 2)
    assert GroupElement(1, 0, 0, 1)._replace(s=5, u=-1) == GroupElement(-1, -5, 0, 1)
    with pytest.raises(ValueError, match=f"^{re.escape(DETERMINANT)}$"):
        GroupElement(1, 0, 0, 1)._replace(r=2)
    assert AlgebraicPoint(1, 2, -1)._replace(p=2, q=4, D=-4) == AlgebraicPoint(1, 2, -1)
    with pytest.raises(ValueError, match="^radicand D must be negative$"):
        AlgebraicPoint(1, 2, -1)._replace(D=1)
    with pytest.raises(ValueError, match="^denominator q must be positive$"):
        AlgebraicPoint._make([1, 0, -1])
    assert QuadFieldElement(1, 2, 5)._replace(c=-2) == QuadFieldElement(-1, 2, 5)
    with pytest.raises(ValueError, match=r"^c must divide a\^2 \+ n$"):
        QuadFieldElement(1, 2, 5)._replace(c=4)


def test_import_leaves_dataclasses_out():
    src = str(Path(bqf.__file__).resolve().parent.parent)
    code = (
        f"import io, sys; sys.path.insert(0, {src!r}); import bqf.cli; "
        "assert bqf.__file__.startswith(sys.path[0]); "
        "assert 'dataclasses' not in sys.modules; "
        # fractions (with decimal) and json load only for the verbs that use them, and
        # argparse only for an argv the verb table leaves to it, such as a usage error
        "lazy = ('fractions', 'decimal', 'json', 'argparse'); "
        "assert not [m for m in lazy if m in sys.modules]; "
        "sys.stdout = io.StringIO(); assert bqf.cli.main(['reduce', '11,49,55']) == 0; "
        "assert not [m for m in lazy if m in sys.modules]; "
        "sys.stderr = io.StringIO(); code = None\n"
        "try:\n    bqf.cli.main(['reduce', '1,2'])\nexcept SystemExit as exc:\n    code = exc.code\n"
        "assert code == 2 and 'argparse' in sys.modules"
    )
    assert python("-I", "-c", code) == (0, "", "")
