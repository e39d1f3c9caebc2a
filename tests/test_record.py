"""The record contract: the package's three value types compare, hash,
print, refuse assignment and pickle the way frozen dataclasses do."""

import importlib
import pickle
import pkgutil

import pytest

import outreg
from outreg.linalg import Matrix
from outreg.record import Record
from outreg.scenario import Polynomial, ScenarioConfig, with_overrides

_STOCK_REPR = (
    "ScenarioConfig(c1=-2.0, c2=1.5, c3=0.5, sigma=0.5, x0=(1.0, -1.0), v0=(1.0, 1.0), "
    "eta1_0=(0.0, 0.0, 0.0, 0.0), eta2_0=(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0), "
    "khat0=0.0, m1=(10.0, 18.0, 15.0, 6.0), "
    "m2=(1.0, 5.0, 13.0, 22.0, 26.0, 22.0, 13.0, 5.0), epsilon=0.1, mask1=(False, True), "
    "mask2=(False, True, False, True), rho=Polynomial(coeffs=(10.0, 0.0, 0.0, 0.0, 4.0)), "
    "k=Polynomial(coeffs=(1.0, 0.0, 1.0)), k0=1.0, h=0.001, t_end=100.0, stride=10, "
    "disturbance_amp=0.0, disturbance_freq=0.0, mode='nonadaptive')")

# (build, build an equal record from other inputs, build a different one, repr)
RECORDS = {
    "Polynomial": (lambda: Polynomial((1.0, 0.0, 2.0)), lambda: Polynomial([1, 0, 2, 0]),
                   lambda: Polynomial((1.0, 0.0, 3.0)), "Polynomial(coeffs=(1.0, 0.0, 2.0))"),
    # the same entries in another shape are another matrix
    "Matrix": (lambda: Matrix([[1.0, 2.0], [3.0, 4.0]]), lambda: Matrix(((1, 2), (3, 4))),
               lambda: Matrix([[1.0, 2.0, 3.0, 4.0]]), "Matrix([[1.0, 2.0], [3.0, 4.0]])"),
    "ScenarioConfig": (lambda: ScenarioConfig(), lambda: ScenarioConfig(c1=-2.0, mode="nonadaptive"),
                       lambda: ScenarioConfig(k0=2.0), _STOCK_REPR),
}
NAMES = sorted(RECORDS)


def test_every_value_type_is_listed():
    # a Record subclass anywhere in the package is a value type the tests
    # below must cover
    for mod in pkgutil.iter_modules(outreg.__path__):
        importlib.import_module("outreg." + mod.name)
    assert sorted(cls.__name__ for cls in Record.__subclasses__()
                  if cls.__module__.startswith("outreg.")) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_equal_values_give_equal_records_and_hashes(name):
    build, build_equal, build_other, _ = RECORDS[name]
    a, b = build(), build_equal()
    assert type(a).__name__ == name
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != build_other()


@pytest.mark.parametrize("name", NAMES)
def test_another_class_is_not_equal(name):
    a = RECORDS[name][0]()
    # the same fields in a subclass, as a frozen dataclass compares them
    sub = object.__new__(type("Sub", (type(a),), {}))
    sub.__dict__.update(a.__dict__)
    assert a != sub and sub != a
    assert a.__eq__(object()) is NotImplemented
    for other in NAMES:
        if other != name:
            assert a != RECORDS[other][0]()


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_pinned(name):
    assert repr(RECORDS[name][0]()) == RECORDS[name][3]


@pytest.mark.parametrize("name", NAMES)
def test_fields_refuse_assignment_and_deletion(name):
    a = RECORDS[name][0]()
    for field in a._fields:
        before = getattr(a, field)
        with pytest.raises(AttributeError):
            setattr(a, field, before)
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert getattr(a, field) is before
    with pytest.raises(AttributeError):
        a.extra = 1


@pytest.mark.parametrize("name", NAMES)
def test_pickle_round_trip(name):
    a = RECORDS[name][0]()
    back = pickle.loads(pickle.dumps(a))
    assert type(back) is type(a)
    assert back == a and hash(back) == hash(a)


def test_unknown_scenario_field_is_a_type_error():
    # as dataclasses.replace reports it
    with pytest.raises(TypeError, match="unexpected keyword argument 'nope'"):
        with_overrides(ScenarioConfig(), nope=1)
    with pytest.raises(TypeError, match="unexpected keyword argument 'nope'"):
        ScenarioConfig(nope=1)


def test_replace_changes_only_the_named_fields():
    cfg = ScenarioConfig()
    out = cfg.replace(k0=2.0, mode="adaptive")
    assert (out.k0, out.mode) == (2.0, "adaptive")
    assert out.replace(k0=1.0, mode="nonadaptive") == cfg
    assert cfg == ScenarioConfig()
