"""Packaged primitive machines and their shipped conditions."""

import pytest

from dsl_reference import to_dsl
from xdicheck import labeling, library
from xdicheck.checker import reasonable_envs
from xdicheck.library import (
    PRIMITIVE_NAMES,
    STORAGE_FULLNESS,
    builtin_library,
    get_primitive,
    verify_library,
)
from xdicheck.machine import validate


def test_library_lists_six_primitives():
    assert PRIMITIVE_NAMES == (
        "join",
        "distributor",
        "fork",
        "storage",
        "source",
        "sink",
    )
    assert tuple(spec.name for spec in builtin_library()) == PRIMITIVE_NAMES


def test_get_primitive_by_name():
    join = get_primitive("join")
    assert join.machine.name == "join"
    assert {c.name for c in join.conditions} == {"blocked_in0", "blocked_in1", "idle_out"}
    with pytest.raises(KeyError):
        get_primitive("mixer")


def test_a_netlist_loads_only_the_primitives_it_names(machines_dir):
    from xdicheck.circuit import compose, parse_netlist

    get_primitive.cache_clear()
    compose(parse_netlist((machines_dir / "single_join.net").read_text()))
    assert get_primitive.cache_info().currsize == 1
    with pytest.raises(KeyError):
        get_primitive("mixer")
    assert get_primitive.cache_info().currsize == 1
    assert tuple(spec.name for spec in builtin_library()) == PRIMITIVE_NAMES
    assert builtin_library() == builtin_library()
    assert all(a is b for a, b in zip(builtin_library(), map(get_primitive, PRIMITIVE_NAMES)))


def test_every_primitive_validates():
    for spec in builtin_library():
        report = validate(spec.machine)
        assert report.ok, (spec.name, report.violations)


def test_every_primitive_is_unambiguous_everywhere():
    for spec in builtin_library():
        for handshake in sorted(spec.machine.handshakes):
            assert not labeling.check_unambiguous(spec.machine, handshake).ambiguous


def test_condition_text_matches_parsed_formula():
    from xdicheck.formulas import parse_condition

    for spec in builtin_library():
        for cond in spec.conditions:
            assert parse_condition(cond.text) == cond.formula
            assert parse_condition(to_dsl(cond.formula)) == cond.formula


def test_verify_library_all_green():
    reports = verify_library()
    assert len(reports) == len(PRIMITIVE_NAMES)
    for report in reports:
        assert report.ok, (report.primitive, report.problems)
        for name, verdict in report.verdicts:
            assert verdict.holds_overall, (report.primitive, name)


def test_expected_environment_counts():
    counts = {
        "join": 8,
        "distributor": 64,
        "fork": 8,
        "storage": 4,
        "source": 2,
        "sink": 2,
    }
    for spec in builtin_library():
        assert len(reasonable_envs(spec.machine)) == counts[spec.name]


def test_join_interface_names():
    join = get_primitive("join").machine
    assert join.handshakes == frozenset({"in0", "in1", "out"})
    assert join.input_wires == frozenset({("in0", "R"), ("in1", "R"), ("out", "A")})


def test_distributor_interface_names():
    dist = get_primitive("distributor").machine
    assert dist.handshakes == frozenset(
        {"a", "b", "c", "select00", "select01", "select10"}
    )
    assert len(dist.states) == 15


def test_storage_fullness_covers_the_settled_states():
    from xdicheck.circuit import settled_states

    storage = get_primitive("storage").machine
    settled = settled_states(storage)
    assert settled == frozenset(STORAGE_FULLNESS)
    assert STORAGE_FULLNESS == {"s0": False, "s2": True}


def test_facts_are_the_conditions_unless_the_library_states_others():
    for spec in builtin_library():
        hash(spec)  # fullness is a dict, yet specs hash
        if spec.name in ("join", "distributor", "fork"):
            assert spec.facts == spec.conditions
    assert [fact.text for fact in get_primitive("storage").facts] == [
        "blocked(in) <-> full & blocked(out)",
        "idle(out) <-> !full & idle(in)",
    ]
    assert [fact.text for fact in get_primitive("source").facts] == ["!idle(out)"]
    assert [fact.text for fact in get_primitive("sink").facts] == ["!blocked(in)"]
    assert {spec.name: dict(spec.fullness) for spec in builtin_library() if spec.fullness} == {
        "storage": {"s0": False, "s2": True}
    }


def _parities(machine, handshake):
    """Every (state, parity) pair reachable from the start, parity toggled
    by each transition on the handshake."""

    seen = {(machine.init_state, False)}
    stack = list(seen)
    while stack:
        state, parity = stack.pop()
        for wire, target in machine.entry(state).transitions:
            pair = (target, parity ^ (wire.handshake == handshake))
            if pair not in seen:
                seen.add(pair)
                stack.append(pair)
    return seen


def test_fact_invariants():
    from xdicheck.circuit import settled_states
    from xdicheck.formulas import VarAtom, atoms

    for spec in builtin_library():
        for fact in spec.facts:
            # text and tree cannot drift: the text is the formula's rendering
            assert fact.text == to_dsl(fact.formula), (spec.name, fact.name)
            variables = {atom.name for atom in atoms(fact.formula) if isinstance(atom, VarAtom)}
            assert variables <= ({"full"} if spec.fullness else set()), (spec.name, fact.name)
        if spec.fullness:
            assert frozenset(spec.fullness) == settled_states(spec.machine), spec.name
        # No state, transient ones included, is reached with both parities,
        # so no label, settled state or fullness key depends on the order
        # in which transitions are declared.
        for handshake in spec.machine.handshakes:
            pairs = _parities(spec.machine, handshake)
            both = sorted(state for state, parity in pairs if parity and (state, False) in pairs)
            assert both == [], (spec.name, handshake, both)


def test_source_and_sink_are_two_state_cycles():
    source = get_primitive("source").machine
    sink = get_primitive("sink").machine
    assert len(source.states) == 2
    assert len(sink.states) == 2
    assert source.input_wires == frozenset({("out", "A")})
    assert sink.input_wires == frozenset({("in", "R")})
