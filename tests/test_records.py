"""The package's value records behave as immutable values.

One table holds two field sets for each record class, as keyword
arguments in field order; every field differs between the two.  Each
test runs on every class: equality and hash by the fields, inequality
to a tuple and to the other classes, read-only fields, the repr, the
constructor's positional, keyword and default forms, and `copy`,
`deepcopy` and `pickle`.  `ChowElement` is a record too, with its own
hash and repr because its terms are a dict, so it has its own tests of
the read-only fields and the copies; it is a field of `FanoClassReport`.
A last test pins that importing the CLI loads neither `dataclasses` nor
`inspect`.
"""

import copy
import pathlib
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import alghyp
from alghyp.chern import FanoClassReport
from alghyp.genus import CaseBound, GenusBoundReport
from alghyp.grassmann import ChowElement, RingContext, make_class
from alghyp.sections import SectionDominationResult
from alghyp.varieties import Classification, Counterexample, VarietyDescriptor, projective_space

G27 = RingContext(2, 7)
P1 = projective_space(1)
B = CaseBound("B", 0, (5, -2), 2)
C = CaseBound("C", 1, (1, 0), 7)

FIELDS = {
    RingContext: (dict(k=2, n=4), dict(k=3, n=5)),
    VarietyDescriptor: (
        dict(name="P(2)", D=2, a=(-3,), factors=(), notes=()),
        dict(name="P(1)xP(1)", D=3, a=(-4, -2), factors=(P1, P1), notes=("a note",)),
    ),
    Classification: (
        dict(kind="OpenGap", witness=None, boundary=(0, 1)),
        dict(kind="ContainsLines", witness=1, boundary=()),
    ),
    Counterexample: (
        dict(spaces=(2, 2), condition="d_1 = 4", note="elliptic", citation="Y22"),
        dict(spaces=(2, 1), condition="d_2 = 3", note="boundary", citation="CR19"),
    ),
    CaseBound: (
        dict(case="A", j=None, numerators=(1, -2), denominator=1),
        dict(case="B", j=0, numerators=(5, -2), denominator=2),
    ),
    GenusBoundReport: (
        dict(variety="P(4)", degrees=(7,), cases=(B,), epsilon=Fraction(1, 7), binding=C, ledger_flags=("flag",)),
        dict(variety="P(5)", degrees=(8,), cases=(B, C), epsilon=None, binding=B, ledger_flags=()),
    ),
    FanoClassReport: (
        dict(d=4, N=7, expansion=ChowElement(G27, {(4, 1): 3, (3, 2): 5}), missing_class_ok=True, line_count=None),
        dict(d=5, N=8, expansion=make_class(G27, (3, 2)), missing_class_ok=False, line_count=27),
    ),
    SectionDominationResult: (
        dict(n=2, d=2, ok=True, rank=5, target_dim=5),
        dict(n=3, d=1, ok=False, rank=2, target_dim=3),
    ),
}
CLASSES = list(FIELDS)

# each constructor called with the fields that have no default
DEFAULTS = (
    (VarietyDescriptor, ("P(1)", 1, (-2,)), dict(factors=(), notes=())),
    (Classification, ("Hyperbolic",), dict(witness=None, boundary=())),
    (FanoClassReport, (4, 7, make_class(G27, (3, 2)), True), dict(line_count=None)),
)


def record(cls, which=0):
    return cls(**FIELDS[cls][which])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
class TestRecord:
    def test_equal_fields_give_equal_records(self, cls):
        a, b = record(cls), cls(*FIELDS[cls][0].values())
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)

    def test_one_changed_field_gives_an_unequal_record(self, cls):
        first, second = FIELDS[cls]
        assert first.keys() == second.keys()
        for name in first:
            changed = cls(**{**first, name: second[name]})
            assert changed != record(cls) and not changed == record(cls), name

    def test_never_equals_a_tuple_or_another_class(self, cls):
        a = record(cls)
        values = tuple(FIELDS[cls][0].values())
        assert a != values and values != a
        assert a.__eq__(values) is NotImplemented
        for other in CLASSES:
            if other is not cls:
                assert a != record(other) and record(other) != a

    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        a = record(cls)
        for name, value in FIELDS[cls][1].items():
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(a, name, value)
            with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                delattr(a, name)
        with pytest.raises(AttributeError):
            a.extra = 1
        assert a == record(cls)

    def test_repr_names_every_field(self, cls):
        for fields in FIELDS[cls]:
            body = ", ".join(f"{name}={value!r}" for name, value in fields.items())
            assert repr(cls(**fields)) == f"{cls.__name__}({body})"

    def test_positional_and_keyword_construction_agree(self, cls):
        for fields in FIELDS[cls]:
            a = cls(*fields.values())
            assert {name: getattr(a, name) for name in fields} == fields
            assert a == cls(**fields)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_copy_deepcopy_and_pickle_give_an_equal_record(self, cls, protocol):
        for which in (0, 1):
            a = record(cls, which)
            for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a, protocol))):
                assert type(twin) is cls and twin == a and hash(twin) == hash(a)


@pytest.mark.parametrize("cls, args, defaults", DEFAULTS, ids=lambda x: getattr(x, "__name__", ""))
def test_default_fields(cls, args, defaults):
    a = cls(*args)
    assert {name: getattr(a, name) for name in defaults} == defaults
    assert a == cls(*args, *defaults.values())


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_chow_element_copies_and_pickles(protocol):
    x = 3 * make_class(G27, (2, 1)) + -2 * make_class(G27, (1, 1)) + make_class(G27, ())
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x, protocol))):
        assert type(twin) is ChowElement and twin == x and hash(twin) == hash(x)
        assert twin.sorted_terms() == x.sorted_terms() and twin.context == x.context
        assert twin._terms is not x._terms  # the constructor copies the dict
    assert copy.deepcopy(ChowElement(G27)) == ChowElement(G27)


@pytest.mark.parametrize("name", ["context", "_terms"])
@pytest.mark.parametrize("verb", ["assign to", "delete"])
def test_chow_element_fields_cannot_be_assigned_or_deleted(verb, name):
    x = 3 * make_class(G27, (2, 1))
    with pytest.raises(AttributeError, match=f"^cannot {verb} field '{name}'$"):
        if verb == "delete":
            delattr(x, name)
        else:
            setattr(x, name, getattr(make_class(RingContext(2, 5), (1,)), name))
    with pytest.raises(AttributeError):
        x.extra = 1
    assert x.context is G27 and x == 3 * make_class(G27, (2, 1))


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """A fresh interpreter without `site` imports the CLI from the source
    tree the suite imports; the dataclass machinery must stay unloaded."""
    src = pathlib.Path(alghyp.__file__).resolve().parent.parent
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import alghyp.cli;"
        " print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"
