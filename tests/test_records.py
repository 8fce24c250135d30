"""What every record gives: repr, equality and hash by type and value, refused assignment.

The five public records are ``Partition``, ``PrimitiveTriple``, ``Gnomon``,
``GeneralTriple`` and ``DiagramSpec``.  Each takes its fields by position or
keyword, runs its ``__post_init__`` check once per construction, holds its fields in
slots (no ``__dict__``, no weak references), and survives ``pickle`` and ``copy``
unchanged, rebuilt through that check.
"""

import copy
import inspect
import pickle
import weakref
from types import MemberDescriptorType

import pytest

import gnomon_triples
from gnomon_triples import (
    DiagramSpec, GeneralTriple, Gnomon, NotATripleError, Partition, PrimitiveTriple
)

TRIPLE = PrimitiveTriple(3, 4, 5)

# (class, field names, field values, repr)
RECORDS = [
    (Partition, ("t", "l", "side"), (40, 41, 3280), "Partition(t=40, l=41, side=3280)"),
    (PrimitiveTriple, ("x", "y", "z"), (3, 4, 5), "PrimitiveTriple(x=3, y=4, z=5)"),
    (Gnomon, ("thickness", "side_length"), (2, 5), "Gnomon(thickness=2, side_length=5)"),
    (
        GeneralTriple, ("base", "scale"), (TRIPLE, 4),
        "GeneralTriple(base=PrimitiveTriple(x=3, y=4, z=5), scale=4)",
    ),
    (
        DiagramSpec, ("kind", "triple", "scale_k", "unit_px"), ("lattice", TRIPLE, 2, 2.5),
        "DiagramSpec(kind='lattice', triple=PrimitiveTriple(x=3, y=4, z=5), "
        "scale_k=2, unit_px=2.5)",
    ),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]
each_record = pytest.mark.parametrize("cls,names,values,text", RECORDS, ids=IDS)


@each_record
def test_repr_names_every_field(cls, names, values, text):
    assert repr(cls(*values)) == text


@each_record
def test_positional_and_keyword_construction_agree(cls, names, values, text):
    keywords = dict(zip(names, values))
    positional = cls(*values)
    assert positional == cls(**keywords) == cls(values[0], **dict(list(keywords.items())[1:]))
    assert hash(positional) == hash(cls(**keywords))


@each_record
def test_equality_and_hash_are_by_type_and_value(cls, names, values, text):
    record = cls(*values)
    assert record == cls(*values) and not record != cls(*values)
    assert record is not cls(*values)
    assert record != values and values != record
    assert record.__eq__(values) is NotImplemented
    assert hash(record) == hash(values)
    assert len({record, cls(*values)}) == 1


def test_records_of_different_values_or_types_differ():
    assert PrimitiveTriple(3, 4, 5) != (3, 4, 5)
    assert PrimitiveTriple(3, 4, 5) != PrimitiveTriple(5, 12, 13)
    assert Gnomon(2, 5) != Gnomon(1, 5)
    assert Gnomon(2, 5) != GeneralTriple(TRIPLE, 1)
    assert Gnomon(2, 5) != type("Sub", (Gnomon,), {"__slots__": ()})(2, 5)  # by exact type
    assert Partition(1, 1, 2) != PrimitiveTriple(3, 4, 5)
    assert GeneralTriple(TRIPLE, 1) != GeneralTriple(TRIPLE, 2)
    assert DiagramSpec("lattice", TRIPLE) != DiagramSpec("connected", TRIPLE)
    p = Partition(40, 41, 3280)
    assert hash(p) == hash((p.t, p.l, p.side))


@each_record
@pytest.mark.parametrize("name_index", [0, -1])
def test_assigning_or_deleting_a_field_is_refused(cls, names, values, text, name_index):
    record, name = cls(*values), names[name_index]
    with pytest.raises(AttributeError):
        setattr(record, name, values[name_index])
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == text and not hasattr(record, "extra")


def test_diagram_spec_defaults():
    """Read by both constructors; on the class, ``scale_k`` and ``unit_px`` are slots."""
    spec = DiagramSpec("lattice", TRIPLE)
    assert (spec.scale_k, spec.unit_px) == (1, 10.0)
    assert type(spec.unit_px) is float
    assert spec == DiagramSpec("lattice", TRIPLE, 1, 10.0)
    assert spec == DiagramSpec._unchecked("lattice", TRIPLE)
    assert DiagramSpec("lattice", TRIPLE, 3) == DiagramSpec("lattice", TRIPLE, 3, 10.0)
    assert DiagramSpec("lattice", TRIPLE, unit_px=3).scale_k == 1
    assert DiagramSpec(kind="lattice", triple=TRIPLE, scale_k=3).unit_px == 10.0
    for maker in (DiagramSpec, DiagramSpec._unchecked):
        defaults = [p.default for p in inspect.signature(maker).parameters.values()]
        assert defaults == [inspect.Parameter.empty] * 2 + [1, 10.0]
    assert isinstance(DiagramSpec.scale_k, MemberDescriptorType)
    assert isinstance(DiagramSpec.unit_px, MemberDescriptorType)
    with pytest.raises(TypeError):
        DiagramSpec("lattice")


@each_record
def test_post_init_runs_once_per_construction(cls, names, values, text, monkeypatch):
    calls = []

    def counted(self, check=cls.__post_init__):
        calls.append(self)
        check(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    positional = cls(*values)
    assert calls == [positional]
    keywords = cls(**dict(zip(names, values)))
    assert calls == [positional, keywords] and calls[1] is keywords


@each_record
def test_the_unchecked_maker_skips_only_the_check(cls, names, values, text, monkeypatch):
    """``construct`` and a ``GeneralTriple``'s gnomons build through it; it is not exported."""
    checked = cls(*values)
    monkeypatch.setattr(cls, "__post_init__", None)  # a call would raise TypeError
    made = cls._unchecked(*values)
    assert type(made) is cls and made == checked and repr(made) == text
    assert hash(made) == hash(checked) and cls._unchecked(**dict(zip(names, values))) == checked
    with pytest.raises(AttributeError):
        made.extra = 1
    assert [name for name in gnomon_triples.__all__ if "unchecked" in name] == []


@each_record
@pytest.mark.parametrize("protocol", [0, pickle.HIGHEST_PROTOCOL])  # copyreg's two ways
def test_pickle_round_trips(cls, names, values, text, protocol):
    record = cls(*values)
    back = pickle.loads(pickle.dumps(record, protocol))
    assert type(back) is cls and back == record and repr(back) == text
    assert hash(back) == hash(record)


@each_record
def test_deepcopy_and_copy_round_trip(cls, names, values, text):
    record = cls(*values)
    for twin in (copy.deepcopy(record), copy.copy(record)):
        assert type(twin) is cls and twin == record and repr(twin) == text
        with pytest.raises(AttributeError):
            setattr(twin, names[0], values[0])


@each_record
def test_a_record_holds_only_its_fields_in_slots(cls, names, values, text):
    """As ``dataclass(slots=True)``: the slots are the fields in order, with no ``__dict__``
    and, like the tuples a record stands for, no weak references."""
    record = cls(*values)
    assert cls.__slots__ == cls.__match_args__ == names
    assert not hasattr(record, "__dict__") and not hasattr(record, "__weakref__")
    with pytest.raises(TypeError):
        weakref.ref(record)


# (class, fields that fail its check, the error and message its constructor gives)
UNCHECKED_WRONG = [
    (Partition, (1, 2, 4), ValueError, "l must be odd, got l=2"),
    (PrimitiveTriple, (3, 4, 6), NotATripleError, "3^2 + 4^2 != 6^2"),
    (Gnomon, (6, 5), ValueError, "side_length must be at least 6, got 5"),
    (GeneralTriple, (TRIPLE, 0), ValueError, "scale must be at least 1, got 0"),
    (DiagramSpec, ("lattice", TRIPLE, 0), ValueError, "scale_k must be at least 1, got 0"),
]


@pytest.mark.parametrize("cls,fields,error,message", UNCHECKED_WRONG, ids=IDS)
def test_pickle_and_copy_rebuild_through_the_check(cls, fields, error, message):
    """A record made unchecked from fields its check refuses is refused, not copied."""
    made = cls._unchecked(*fields)
    for rebuild in (copy.copy, copy.deepcopy, *(
        lambda r, p=protocol: pickle.loads(pickle.dumps(r, p))
        for protocol in (0, pickle.HIGHEST_PROTOCOL)
    )):
        with pytest.raises(error) as caught:
            rebuild(made)
        assert type(caught.value) is error and str(caught.value) == message
