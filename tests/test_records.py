"""The frozen records: every label family and every result record is a
plain slotted class that behaves as a frozen dataclass did (positional
construction, repr, equality only within one class, a hash of the
fields, no assignment or deletion, pickle and copy)."""
import copy
import pickle

import pytest

from sl2q.chars import CharLabel
from sl2q.fixdim import SubgroupDesc, SubgroupKey, subgroup
from sl2q.grp import ONE, ClassLabel, ConjClass, representatives
from sl2q.labels import _Record
from sl2q.realrep import RealCharLabel, RealClassPartition
from sl2q.verify import VerificationCheck, VerificationReport

_CHECK = VerificationCheck("group_order", True, "24 elements")

# (a record, its repr as the dataclasses wrote it); the four label
# families stand for their base _Label, which has no kinds of its own
RECORDS = [
    (ClassLabel("a", 3), "ClassLabel(kind='a', index=3)"),
    (CharLabel("chi", 1), "CharLabel(kind='chi', index=1)"),
    (RealCharLabel("two_chi_odd", 1),
     "RealCharLabel(kind='two_chi_odd', index=1)"),
    (SubgroupKey("BH", 2), "SubgroupKey(kind='BH', index=2)"),
    (representatives(5)[2],
     "ConjClass(label=ClassLabel(kind='c', index=0), "
     "representative=GroupElem(5, 1, 0, 1, 1), size=12, element_order=5)"),
    (subgroup(5, "ZH"),
     "SubgroupDesc(q=5, key=SubgroupKey(kind='ZH', index=0), order=2, "
     "generator=GroupElem(5, 4, 0, 0, 4), "
     "elements=(GroupElem(5, 4, 0, 0, 4), GroupElem(5, 1, 0, 0, 1)))"),
    (RealClassPartition(3, (frozenset({ONE}),)),
     "RealClassPartition(q=3, blocks=(frozenset({ClassLabel(kind='1', "
     "index=0)}),))"),
    (_CHECK, "VerificationCheck(name='group_order', passed=True, "
             "details='24 elements')"),
    (VerificationReport(3, (_CHECK,)),
     "VerificationReport(q=3, checks=(VerificationCheck(name='group_order', "
     "passed=True, details='24 elements'),))"),
]
IDS = [type(x).__name__ for x, _ in RECORDS]


def _fields(x) -> tuple:
    return tuple(getattr(x, name) for name in type(x)._FIELDS)


def test_every_record_class_is_covered():
    assert {type(x) for x, _ in RECORDS} == {
        ClassLabel, CharLabel, RealCharLabel, SubgroupKey, ConjClass,
        SubgroupDesc, RealClassPartition, VerificationCheck,
        VerificationReport}
    assert all(isinstance(x, _Record) for x, _ in RECORDS)


@pytest.mark.parametrize("x, text", RECORDS, ids=IDS)
def test_repr_is_the_dataclass_repr(x, text):
    assert repr(x) == text


@pytest.mark.parametrize("x, text", RECORDS, ids=IDS)
def test_equal_within_one_class_only(x, text):
    cls = type(x)
    same = cls(*_fields(x))
    assert same is not x and same == x and not same != x
    assert hash(same) == hash(x) == hash(_fields(x))
    # a class with the same fields, even a subclass, never compares equal
    twin = type("Twin", (cls,), {"__slots__": ()})(*_fields(x))
    assert twin != x and x != twin and not twin == x
    assert hash(twin) == hash(x) and len({twin, x}) == 2


@pytest.mark.parametrize("x, text", RECORDS, ids=IDS)
def test_fields_cannot_be_set_or_deleted(x, text):
    name = type(x)._FIELDS[0]
    before = _fields(x)
    with pytest.raises(AttributeError):
        setattr(x, name, None)
    with pytest.raises(AttributeError):
        delattr(x, name)
    with pytest.raises(AttributeError):
        x.note = "records stay frozen"
    assert _fields(x) == before and not hasattr(x, "__dict__")


@pytest.mark.parametrize("x, text", RECORDS, ids=IDS)
def test_pickle_and_copy_round_trip(x, text):
    clones = [pickle.loads(pickle.dumps(x, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    clones += [copy.copy(x), copy.deepcopy(x)]
    for clone in clones:
        assert type(clone) is type(x) and clone == x and repr(clone) == text


def test_construction_is_positional_and_complete():
    with pytest.raises(ValueError):
        VerificationCheck("group_order", True)
    with pytest.raises(TypeError):
        VerificationCheck(name="group_order", passed=True, details="")
    # a label still checks its kind and index as it is built
    with pytest.raises(ValueError, match="takes no index"):
        ClassLabel("z", 1)
    assert ClassLabel("z") == ClassLabel("z", 0)
