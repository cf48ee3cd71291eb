"""The public names: each module's __all__, and the package's union of them."""

import ast
import inspect
import math
import random
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bqf
from bqf import cli, enumeration, forms, group, points, qfield, reduction, residues

from helpers import README, within


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


def test_no_module_rebinds_a_global():
    # module state is constants and functools caches: no function rebinds a name
    # outside its own scope, so no result depends on which call bound it last
    sources = sorted((README.parent / "src" / "bqf").glob("*.py"))
    assert len(sources) >= 10, sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            assert not isinstance(node, (ast.Global, ast.Nonlocal)), (path.name, node.lineno)


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
    | st.just(-enumeration.MAX_ABS_DELTA - 3) | BIG,  # past the enumeration bound
    "depth": st.integers(-1, qfield.MAX_ORBIT_DEPTH + 1),
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
        within(1.0, lambda: fn(*args))
    except ValueError:
        pass


WORD_AT_BOUND = "".join(random.Random(5).choice("RTUV") for _ in range(10**5))
ALPHA, BETA = bqf.QuadFieldElement(0, 1, 59), bqf.QuadFieldElement(1, 2, 59)  # not in one orbit
HALF_WORD = group.MAX_WORD_LETTERS // 2  # (TU)^k is a word of 2k letters
ORACLE = residues.MAX_ORACLE_BOUND
PLOTTED = [(p, 1, -1) for p in range(cli._POINT_LIMIT + 1)]
# One row per bounded callable: the constant that bounds it, the callable, arguments at the
# bound, arguments past it and the text those raise, the bound in it marked {as written}.
# A word's cost is bounded by its own length: those rows have no constant and no past.
BOUNDS = [
    *[("enumeration.MAX_ABS_DELTA", fn, (1 - enumeration.MAX_ABS_DELTA,),
       (-3 - enumeration.MAX_ABS_DELTA,),
       "|delta| = 10000000003 exceeds the enumeration bound {10^10}")
      for fn in (bqf.class_number, bqf.enumerate_reduced, bqf.enumerate_almost_reduced,
                 bqf.almost_reduced_count)],
    ("qfield.MAX_ORBIT_DEPTH", bqf.orbit_explore, (ALPHA, qfield.MAX_ORBIT_DEPTH),
     (ALPHA, qfield.MAX_ORBIT_DEPTH + 1), "depth 13 exceeds the configured maximum {12}"),
    ("qfield.MAX_ORBIT_DEPTH", bqf.same_orbit_form_check, (ALPHA, BETA, qfield.MAX_ORBIT_DEPTH),
     (ALPHA, BETA, qfield.MAX_ORBIT_DEPTH + 1), "depth 13 exceeds the configured maximum {12}"),
    (None, bqf.word_to_element, (WORD_AT_BOUND,), None, None),
    (None, bqf.normalize_word, (WORD_AT_BOUND,), None, None),
    ("group.MAX_WORD_LETTERS", bqf.element_to_word, (bqf.GroupElement(1, HALF_WORD, 0, 1),),
     (bqf.GroupElement(1, HALF_WORD + 1, 0, 1),),
     "word of 100000002 letters exceeds the word bound {10^8}"),
    ("group.MAX_WORD_LETTERS", bqf.reduce_form,  # one translation by (TU)^-k
     (bqf.QuadraticForm(1, 2 * HALF_WORD, HALF_WORD**2 + 1),),
     (bqf.QuadraticForm(1, 2 * HALF_WORD + 2, (HALF_WORD + 1) ** 2 + 1),),
     "word of 100000002 letters exceeds the word bound {10^8}"),
    ("residues.MAX_PRIME_BITS", bqf.legendre,  # a composite that only a strong test refuses
     (3, 2 ** (residues.MAX_PRIME_BITS - 1) + 3), (3, 2**residues.MAX_PRIME_BITS + 1),
     "p of 4097 bits exceeds the prime bound of {4096} bits"),
    ("residues.MAX_RESIDUE_SET_P", bqf.quadratic_residues, (LARGEST_SET_PRIME,), (1000003,),
     "p = 1000003 exceeds the residue-set bound {10^6}"),
    ("residues.MAX_ORACLE_BOUND", bqf.scaled_representation_oracle,  # no witness: every t is tried
     (3 * ORACLE**2 + 2, 3, ORACLE), (3 * ORACLE**2 + 2, 3, ORACLE + 1),
     "bound must be between 1 and {10000}"),
    ("cli._POINT_LIMIT", cli.render_region_svg, (PLOTTED[:-1], "pi"), (PLOTTED, "pi"),
     "too many points to plot (limit {10000})"),
]
PAST = [row for row in BOUNDS if row[3] is not None]


def constant(name):
    """The module and attribute name of a constant named "module.NAME"."""
    module, attr = name.split(".")
    return getattr(bqf, module), attr


def marked_value(text):
    """The int that a text's {marked} bound writes, 10^k or digits."""
    written = re.search(r"\{(.*)\}", text)[1]
    base, _, exponent = written.partition("^")
    return int(base) ** int(exponent or 1)


def unmarked(text):
    return text.replace("{", "").replace("}", "")


@pytest.mark.parametrize("name, fn, at, past, text", BOUNDS,
                         ids=[row[1].__name__ for row in BOUNDS])
def test_bounded_api_at_its_bound_returns_or_raises_value_error(name, fn, at, past, text):
    # the costly inputs the fuzz above rarely draws: |delta| just under the enumeration
    # bound, depth-12 orbits, 10^5-letter words and each other bound's largest input,
    # each a value or ValueError within a second
    try:
        within(1.0, lambda: fn(*at))
    except ValueError:
        pass


@pytest.mark.parametrize("name, fn, at, past, text", PAST, ids=[row[1].__name__ for row in PAST])
def test_past_its_bound_the_text_names_the_constant(name, fn, at, past, text, monkeypatch):
    # the text exactly, its marked bound the constant's value; patched to one less, the
    # text names the new value, so no text can spell its bound apart from the constant
    module, attr = constant(name)
    value = getattr(module, attr)
    assert marked_value(text) == value
    with pytest.raises(ValueError) as err:
        fn(*past)
    assert str(err.value) == unmarked(text)
    monkeypatch.setattr(module, attr, value - 1)
    with pytest.raises(ValueError) as err:
        fn(*past)
    assert str(err.value) == re.sub(r"\{.*\}", str(value - 1), text)


def readme_bounds():
    """(constant, verbs, error text, cost) of each row of README.md's Bounds table."""
    section = README.read_text(encoding="utf-8").split("\n## Bounds\n")[1].split("\n## ")[0]
    rows = [[cell.strip().replace("\\|", "|") for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
            for line in section.splitlines() if line.startswith("| `")]
    return [(name.strip("`"), verbs, text.strip("`"), cost) for name, verbs, text, cost in rows]


def test_readme_bounds_table_is_the_constants():
    # one README row per bounded constant, with the text each of its BOUNDS rows pins,
    # CLI verbs that exist and a cost that is a measured figure or says it is not
    rows = {name: row for name, *row in readme_bounds()}
    assert len(rows) == len(readme_bounds()) and set(rows) == {row[0] for row in PAST}
    for name, _, _, _, text in PAST:
        assert rows[name][1] == unmarked(text), name
    verbs = cli.build_parser().verbs
    for verb_cell, _, cost in rows.values():
        assert verb_cell == "none" or set(re.findall(r"`([a-z0-9-]+)`", verb_cell)) <= set(verbs)
        assert cost == "unmeasured" or cost.startswith("~"), cost
