"""Machine file parsing, validation, and enabled transitions."""

import pytest

from conftest import is_trace
from xdicheck import machine as m
from xdicheck.machine import Wire, parse_document, parse_env, validate
from xdicheck.sexpr import ParseError


def test_join_document_parses_with_conditions(join, join_conditions):
    assert join.name == "join"
    assert len(join.states) == 10
    assert join.init_state == "s0"
    assert [name for name, _ in join_conditions] == ["blocked_a", "blocked_b", "idle_c"]


def test_wires_and_directions(join):
    assert join.handshakes == frozenset({"a", "b", "c"})
    assert join.wire_direction("a", "R") == "I"
    assert join.wire_direction("a", "A") == "O"
    assert join.wire_direction("c", "R") == "O"
    assert join.wire_direction("c", "A") == "I"
    assert join.wire_direction("zz", "R") is None
    assert join.input_wires == frozenset({("a", "R"), ("b", "R"), ("c", "A")})
    assert join.sorted_input_wires == (("a", "R"), ("b", "R"), ("c", "A"))


def test_transitions_keep_declaration_order(join):
    entry = join.entry("s0")
    assert [(w.handshake, w.phase, w.direction) for w, _ in entry.transitions] == [
        ("b", "R", "I"),
        ("a", "R", "I"),
    ]
    assert [t for _, t in entry.transitions] == ["s2", "s1"]


def test_entry_rejects_unknown_state(join):
    with pytest.raises(ValueError, match="no state 'nope'"):
        join.entry("nope")


def test_validate_accepts_corpus_machines(machines_dir):
    for name in ("join.xdi", "distributor.xdi", "ambiguous.xdi"):
        parsed, _ = parse_document((machines_dir / name).read_text())
        report = validate(parsed)
        assert report.ok, report.violations


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("(machine m (s0 nil box ()))", "no initial state"),
        ("(machine m (s0 t box ()) (s1 t box ()))", "multiple initial states: s0 s1"),
        ("(machine m (s0 t box (((a R I) s9))))", "undeclared state s9"),
        (
            "(machine m (s0 t box (((a R I) s1) ((a R O) s0))) (s1 nil box ()))",
            "direction conflict on (a,R)",
        ),
        ("(machine m (s0 t box ()) (s1 nil box ()))", "unreachable states: s1"),
    ],
)
def test_validate_reports_structural_violations(text, fragment):
    report = validate(parse_document(text)[0])
    assert not report.ok
    assert any(fragment in v for v in report.violations)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("(machine m (s0 t box ()) (s0 nil box ()))", "duplicate state id"),
        ("(machine m (s0 t spinny ()))", "kind must be box or transient"),
        ("(machine m (s0 maybe box ()))", "init flag must be t or nil"),
        ("(machine m (s0 t box (((a X I) s0))))", "phase must be R or A"),
        ("(machine m (s0 t box))", "state entry must be"),
    ],
)
def test_parser_rejects_malformed_entries(text, fragment):
    with pytest.raises(ParseError) as info:
        parse_document(text)
    assert fragment in info.value.message


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ("x", "expected (machine ...) form", 1, 1),
        ("(machine m\n  s0)", "expected state entry", 2, 3),
        ("(machine m\n  (s0 t box x))", "expected transition list", 2, 13),
        ("(machine m (s0 t (box) ()))", "expected state kind", 1, 18),
        ('(machine "m" (s0 t box ()))', "expected machine name", 1, 10),
        ("(machine m (s0 t box ()))\n(conditions\n  x)", 'expected condition (name "dsl")', 3, 3),
    ],
)
def test_parse_errors_point_at_the_offending_form(text, message, line, column):
    with pytest.raises(ParseError) as info:
        parse_document(text)
    assert (info.value.message, info.value.line, info.value.column) == (message, line, column)


_PLAIN = "(machine m (s0 t box ()))\n"


@pytest.mark.parametrize(
    "trailer, message, line, column",
    [
        ('(conditions (c1 "blocked(a)") (c1 "!blocked(a)"))', "duplicate condition name 'c1'", 2, 31),
        ('(conditions (c1 "true") (c2 "true")\n (c1 "true"))', "duplicate condition name 'c1'", 3, 2),
        ('(conditions)\n(conditions (c "true"))', "duplicate (conditions ...) form", 3, 1),
        ('(conditions (c "true")) (conditions)', "duplicate (conditions ...) form", 2, 25),
    ],
)
def test_a_condition_is_named_once_in_one_trailer(trailer, message, line, column):
    with pytest.raises(ParseError) as info:
        parse_document(_PLAIN + trailer)
    assert (info.value.message, info.value.line, info.value.column) == (message, line, column)


def test_parse_document_requires_machine_form():
    with pytest.raises(ParseError):
        parse_document("(conditions (x \"true\"))")


def test_enabled_transitions_drop_stable_inputs_only(join):
    live = m.enabled_transitions(join, "s0", frozenset())
    assert [t for _, t in live] == ["s2", "s1"]
    stable_b = m.enabled_transitions(join, "s0", frozenset({("b", "R")}))
    assert [t for _, t in stable_b] == ["s1"]
    # output wires stay enabled no matter what the environment holds
    outs = m.enabled_transitions(join, "s3", frozenset({("a", "R"), ("b", "R"), ("c", "A")}))
    assert [t for _, t in outs] == ["s4"]


def test_step_returns_target_set(join):
    def targets(env):
        return {target for _, target in m.enabled_transitions(join, "s0", env)}

    assert targets(frozenset()) == {"s1", "s2"}
    assert targets(frozenset({("a", "R"), ("b", "R")})) == set()


def test_is_trace_accepts_paths_and_rejects_junk(join):
    live = frozenset()
    assert is_trace(join, ["s0"], live)
    assert is_trace(join, ["s0", "s1", "s3", "s4"], live)
    assert not is_trace(join, [], live)
    assert not is_trace(join, ["s0", "s4"], live)
    assert not is_trace(join, ["s0", "ghost"], live)
    # stable a.R removes the only edge s0 -> s1
    assert not is_trace(join, ["s0", "s1"], frozenset({("a", "R")}))


def test_is_environment_checks_input_wires(join):
    assert m.is_environment(join, {("a", "R"), ("c", "A")})
    assert not m.is_environment(join, {("a", "A")})
    assert not m.is_environment(join, {("c", "R")})


def test_parse_env_and_format_env(join):
    assert parse_env("") == frozenset()
    assert parse_env("a.R,c.A", join) == frozenset({("a", "R"), ("c", "A")})
    assert parse_env(" b.r ", join) == frozenset({("b", "R")})
    assert m.format_env(frozenset()) == "{}"
    assert m.format_env(frozenset({("c", "A"), ("a", "R")})) == "a.R,c.A"


@pytest.mark.parametrize("text", ["a", "a.X", ".R", "a.R;b.R"])
def test_parse_env_rejects_malformed_entries(text):
    with pytest.raises(ValueError):
        parse_env(text)


def test_parse_env_rejects_non_input_wires(join):
    with pytest.raises(ValueError, match="not input wires of join"):
        parse_env("a.A", join)


def test_wire_str():
    assert str(Wire("a", "R", "I")) == "(a R I)"
    assert str(Wire("c", "A", "O")) == "(c A O)"


def test_memo_computes_once_per_machine_and_arguments(join_document):
    calls = []

    def count(machine, *args):
        calls.append(args)
        return object()

    mach = parse_document(join_document)[0]
    first = mach.memo(count, "a", 1)
    assert mach.memo(count, "a", 1) is first
    assert mach.memo(count, "a", 2) is not first
    assert parse_document(join_document)[0].memo(count, "a", 1) is not first
    assert calls == [("a", 1), ("a", 2), ("a", 1)]


def test_memo_keeps_no_result_when_fn_raises(join):
    calls = []

    def fail(machine):
        calls.append(machine)
        raise ValueError("no")

    for _ in range(2):
        with pytest.raises(ValueError):
            join.memo(fail)
    assert len(calls) == 2
