"""Value records: every record class of the package against a frozen
dataclass over the same fields, the exceptions to plain field semantics
(PrimitiveSpec's hash, cached properties, defaults), wires that do not
order, and an import of the CLI that leaves dataclasses out."""

import dataclasses
import importlib
import operator
import os
import subprocess
import sys

import pytest

import xdicheck
from test_exports import MODULES
from xdicheck.checker import BLOCKING, TemporalQuery
from xdicheck.circuit import compose, parse_netlist
from xdicheck.formulas import And, Or, VarAtom
from xdicheck.library import PrimitiveSpec, get_primitive
from xdicheck.machine import Wire, parse_document
from xdicheck.record import Record

RECORDS = sorted(
    {
        value
        for module in MODULES
        for value in vars(importlib.import_module(f"xdicheck.{module}")).values()
        if isinstance(value, type) and issubclass(value, Record) and value is not Record
    },
    key=lambda cls: (cls.__module__, cls.__name__),
)


def _reference(cls):
    """A frozen dataclass with the record's name, fields and defaults."""

    namespace = {"__annotations__": dict.fromkeys(cls._fields, object)}
    for name in cls._fields:
        if name in cls.__dict__:
            namespace[name] = cls.__dict__[name]
    if cls is PrimitiveSpec:
        namespace["fullness"] = dataclasses.field(hash=False)
    reference = type(cls.__name__, (), namespace)
    reference.__qualname__ = cls.__qualname__
    return dataclasses.dataclass(frozen=True)(reference)


def test_the_package_has_its_records():
    names = {cls.__name__ for cls in RECORDS}
    assert len(RECORDS) == 30
    assert {"Wire", "XdiMachine", "TemporalQuery", "And", "Or", "PrimitiveSpec", "ProductSystem"} <= names
    assert {"_Command", "_Option"} <= names  # the CLI's argument table


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_behaves_as_a_frozen_dataclass(cls):
    reference = _reference(cls)
    fields = cls._fields
    assert fields == tuple(field.name for field in dataclasses.fields(reference))
    values = tuple(f"v{index}" for index in range(len(fields)))
    other = values[:-1] + ("w",)
    record, twin, different = cls(*values), cls(*values), cls(*other)
    assert repr(record) == repr(reference(*values))
    assert hash(record) == hash(reference(*values)) == hash(twin)
    assert record == twin and not record != twin
    assert (record == different) == (reference(*values) == reference(*other))
    assert record != reference(*values) and record != values
    assert cls(**dict(zip(fields, values))) == record
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, "x")
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(TypeError):
        cls(*values, "extra")
    with pytest.raises(TypeError):
        cls(*values, extra=1)


def test_formula_nodes_of_different_kinds_differ():
    a, b = VarAtom("a"), VarAtom("b")
    assert And(a, b) != Or(a, b)
    assert And(a, b) == And(VarAtom("a"), VarAtom("b"))
    assert len({And(a, b), Or(a, b), And(a, b)}) == 2


def test_wires_order_as_their_field_tuples():
    # As on a frozen dataclass without order=True, wires sort only by a key.
    wires = [Wire(h, p, d) for h in "ba" for p in "RA" for d in "OI"]
    assert sorted(wires, key=Wire._values)[:2] == [Wire("a", "A", "I"), Wire("a", "A", "O")]
    low, high = Wire("a", "A", "I"), Wire("a", "R", "I")
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            compare(low, high)
    with pytest.raises(TypeError):
        sorted(wires)


def test_primitive_spec_hashes_without_its_fullness():
    storage = get_primitive("storage")
    emptied = storage._replace(fullness={})
    assert hash(emptied) == hash(storage)
    assert emptied != storage


def test_cached_properties_compute_once(join_document, machines_dir):
    machine, _ = parse_document(join_document)
    assert machine.state_map is machine.state_map
    calls = []

    def count(machine, key):
        calls.append(key)
        return len(calls)

    assert machine.memo(count, "x") == machine.memo(count, "x") == 1
    netlist = parse_netlist((machines_dir / "pipeline.net").read_text())
    assert netlist.instance_map is netlist.instance_map
    system = compose(netlist)
    assert system.states is system.states


def test_temporal_query_copies_with_changes(join):
    query = TemporalQuery(join, "a", BLOCKING, frozenset())
    assert query.start is None and query == TemporalQuery(join, "a", BLOCKING, frozenset(), None)
    moved = query._replace(start="s1")
    assert moved.start == "s1" and moved.machine is join and query.start is None
    with pytest.raises(TypeError):
        query._replace(stop="s1")
    with pytest.raises(TypeError):
        TemporalQuery(join, "a")


def test_importing_the_cli_leaves_dataclasses_out():
    code = (
        "import sys; before = set(sys.modules); import xdicheck.cli;"
        " print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & (set(sys.modules) - before)))"
    )
    source = os.path.dirname(os.path.dirname(xdicheck.__file__))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=source),
    )
    assert done.stdout.strip() == "[]"
