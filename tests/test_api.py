"""The public names: each module's __all__, and the package's union of them."""

import bqf
from bqf import enumeration, forms, group, points, qfield, reduction, residues


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
