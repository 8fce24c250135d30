"""What every record gives: repr, equality and hash by type and value, refused assignment.

The five public records are ``Partition``, ``PrimitiveTriple``, ``Gnomon``,
``GeneralTriple`` and ``DiagramSpec``.  Each takes its fields by position or
keyword, runs its ``__post_init__`` check once per construction, and survives
``pickle`` and ``copy.deepcopy`` unchanged.
"""

import copy
import pickle

import pytest

import gnomon_triples
from gnomon_triples import DiagramSpec, GeneralTriple, Gnomon, Partition, PrimitiveTriple

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
    spec = DiagramSpec("lattice", TRIPLE)
    assert (spec.scale_k, spec.unit_px) == (1, 10.0)
    assert type(spec.unit_px) is float
    assert spec == DiagramSpec("lattice", TRIPLE, 1, 10.0)
    assert DiagramSpec("lattice", TRIPLE, unit_px=3).scale_k == 1
    assert DiagramSpec(kind="lattice", triple=TRIPLE, scale_k=3).unit_px == 10.0
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
