"""The public names: each module's __all__, and the package's union of them."""

import inspect
import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bqf
from bqf import enumeration, forms, group, points, qfield, reduction, residues

from helpers import within_a_second


def test_each_public_name_is_stated_once_by_its_module():
    owners = {}
    for module in (enumeration, forms, group, points, qfield, reduction, residues):
        for name in module.__all__:
            obj = getattr(module, name)
            defined_in = obj.__module__ if callable(obj) else type(obj).__module__
            assert defined_in == module.__name__, name
            assert name not in owners, (name, owners.get(name), module.__name__)
            owners[name] = module.__name__
    assert bqf.act_on_element is qfield.act
    assert sorted(bqf.__all__) == sorted([*owners, "act_on_element"])
    namespace = {}
    exec("from bqf import *", namespace)
    assert {name: namespace[name] for name in bqf.__all__} == {
        name: getattr(bqf, name) for name in bqf.__all__
    }
    assert set(namespace) == {*bqf.__all__, "__builtins__"}


def definite_form(a, c, x):
    m = math.isqrt(4 * a * c - 1)  # |b| <= m keeps b^2 < 4ac
    return bqf.QuadraticForm(a, x % (2 * m + 1) - m, c)


def field_element(a, c, k):
    return bqf.QuadFieldElement(a, c, (-a * a) % c + c * k)  # n from the class of -a^2 mod c


LARGEST_SET_PRIME = max(filter(residues.is_prime, range(residues.MAX_RESIDUE_SET_P - 200,
                                                         residues.MAX_RESIDUE_SET_P + 1)))

# values by parameter name: ints up to 400 digits, words over R, T, U, V up to 10^5
# letters, and the forms, points, group elements and irrationals built from them
BIG = st.integers(-(10**400), 10**400) | st.integers(-50, 2000)
POSITIVE = st.integers(1, 10**400) | st.integers(1, 2000)
NEGATIVE = POSITIVE.map(int.__neg__)
WORD = st.builds(str.__mul__, st.text("RTUV", max_size=20), st.integers(0, 5000))
ELEMENT = st.builds(bqf.word_to_element, st.builds(str.__mul__, st.text("RTUV", max_size=12),
                                                   st.integers(1, 40)))
DEFINITE = st.builds(definite_form, POSITIVE, POSITIVE, BIG)
FORM = (DEFINITE | st.builds(bqf.act_on_form, ELEMENT, DEFINITE)
        | st.builds(bqf.QuadraticForm, BIG, BIG, BIG))
POINT = st.builds(bqf.base_point, DEFINITE) | st.builds(bqf.AlgebraicPoint, BIG, POSITIVE, NEGATIVE)
FIELD = st.builds(field_element, BIG, POSITIVE, POSITIVE)
ARGUMENTS = {
    **dict.fromkeys(["a", "b", "c", "n", "value", "r", "s", "t", "u", "q", "D", "steps"], BIG),
    "p": BIG | st.integers(residues.MAX_RESIDUE_SET_P - 60, residues.MAX_RESIDUE_SET_P + 60)
    | st.sampled_from([3, 5, LARGEST_SET_PRIME, 2**89 - 1]),
    "bound": BIG | st.integers(residues.MAX_ORACLE_BOUND - 5, residues.MAX_ORACLE_BOUND + 5),
    "delta": st.integers(0, 9).flatmap(lambda k: st.integers(-(10**k) - 4, 4))
    | st.just(-(10**10) - 3) | BIG,  # -(10^10) - 3: past the enumeration bound
    "depth": st.integers(-1, 13),
    "mode": st.sampled_from(["proper", "extended"]) | st.text(max_size=3),
    "letter": st.sampled_from("RTUV") | st.text(max_size=2),
    "word": WORD | st.text(max_size=5),
    **dict.fromkeys(["primitive_only", "forms_equivalent", "reachable"], st.booleans()),
    **dict.fromkeys(["form", "other", "reduced", "alpha_form", "beta_form"], FORM),
    **dict.fromkeys(["g", "h", "witness"], ELEMENT),
    "z": POINT,
    "alpha": FIELD,
}
CALLABLES = [name for name in bqf.__all__ if callable(getattr(bqf, name))]


@settings(deadline=None, max_examples=600, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(CALLABLES), st.data())
def test_public_api_returns_or_raises_value_error(name, data):
    # every public function and value type, on any values of its parameters' kinds:
    # a value or ValueError, within a second
    fn = getattr(bqf, name)
    args = []
    for param in inspect.signature(fn).parameters:
        if param == "beta":  # also drawn from the orbit of alpha under the whole group
            strategy = FIELD | st.builds(bqf.act_on_element, ELEMENT, st.just(args[0]))
        else:
            strategy = ARGUMENTS[param]
        args.append(data.draw(strategy, label=param))
    try:
        within_a_second(lambda: fn(*args))
    except ValueError:
        pass


WORD_AT_BOUND = "".join(random.Random(5).choice("RTUV") for _ in range(10**5))
ALPHA, BETA = bqf.QuadFieldElement(0, 1, 59), bqf.QuadFieldElement(1, 2, 59)  # not in one orbit
AT_BOUND = [
    *[(name, (-9999999999,)) for name in ("class_number", "enumerate_reduced",
                                          "enumerate_almost_reduced", "almost_reduced_count")],
    ("orbit_explore", (ALPHA, 12)),
    ("same_orbit_form_check", (ALPHA, BETA, 12)),
    ("word_to_element", (WORD_AT_BOUND,)),
    ("normalize_word", (WORD_AT_BOUND,)),
    ("quadratic_residues", (LARGEST_SET_PRIME,)),
    ("scaled_representation_oracle",  # no witness, so every t up to the bound is tried
     (3 * residues.MAX_ORACLE_BOUND**2 + 2, 3, residues.MAX_ORACLE_BOUND)),
]


@pytest.mark.parametrize("name, args", AT_BOUND, ids=[name for name, _ in AT_BOUND])
def test_bounded_api_at_its_bound_returns_or_raises_value_error(name, args):
    # the costly inputs the fuzz above rarely draws: |delta| just under the enumeration
    # bound, depth-12 orbits and 10^5-letter words, each a value or ValueError within a second
    try:
        within_a_second(lambda: getattr(bqf, name)(*args))
    except ValueError:
        pass
