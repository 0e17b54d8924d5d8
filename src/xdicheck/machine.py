"""State machine model for delay-insensitive handshake primitives.

A machine is a finite automaton whose transitions are labelled with wires.
A wire names a handshake together with a phase (request or acknowledge)
and a direction (input or output). An environment is a set of input wires
declared permanently stable; under an environment, every transition
labelled with a stable wire is disabled.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import cached_property
from typing import Callable, Hashable, Iterable, NamedTuple, Sequence, TypeVar

from .record import Record
from .sexpr import Form, ParseError, error_at, expect_list, expect_symbol, located, read_forms
from .sexpr import string_value

__all__ = [
    "Wire",
    "StateEntry",
    "XdiMachine",
    "Environment",
    "ValidationReport",
    "parse_document",
    "validate",
    "is_environment",
    "enabled_transitions",
    "parse_env",
    "format_env",
]

Environment = frozenset  # of (handshake, phase) pairs
T = TypeVar("T")

REQUEST = "R"
ACK = "A"
INPUT = "I"
OUTPUT = "O"
BOX = "box"
TRANSIENT = "transient"


class Wire(Record):
    """A transition label: handshake id, phase R|A, direction I|O.

    Like every record it compares only for equality and prints as
    Wire(handshake=..., phase=..., direction=...); wires have no order."""

    handshake: str
    phase: str
    direction: str


class StateEntry(NamedTuple):
    """One declared state: id, initial flag, kind, ordered transitions.

    It compares and hashes as the plain tuple of its fields."""

    name: str
    init: bool
    kind: str
    transitions: tuple[tuple[Wire, str], ...]

    @property
    def is_transient(self) -> bool:
        return self.kind == TRANSIENT


class XdiMachine(Record):
    """A named machine with its ordered state entries."""

    name: str
    states: tuple[StateEntry, ...]

    @cached_property
    def _memo(self) -> dict:
        return {}

    def memo(self, fn: Callable[..., T], *args: Hashable) -> T:
        """fn(self, *args), computed once per machine and argument tuple.

        The table lives on the machine, so it is freed with it.
        """

        key = (fn, args)
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = fn(self, *args)
            return value

    @cached_property
    def state_map(self) -> dict[str, StateEntry]:
        return {entry.name: entry for entry in self.states}

    @cached_property
    def init_state(self) -> str:
        for entry in self.states:
            if entry.init:
                return entry.name
        raise ValueError(f"machine {self.name} has no initial state")

    @cached_property
    def wires(self) -> frozenset[Wire]:
        # Keyed by the fields first, so that a Wire is hashed once per
        # distinct wire, not once per transition.
        distinct = {
            (wire.handshake, wire.phase, wire.direction): wire
            for entry in self.states
            for wire, _ in entry.transitions
        }
        return frozenset(distinct.values())

    @cached_property
    def handshakes(self) -> frozenset[str]:
        return frozenset(wire.handshake for wire in self.wires)

    @cached_property
    def input_wires(self) -> frozenset[tuple[str, str]]:
        return frozenset(
            (wire.handshake, wire.phase)
            for wire in self.wires
            if wire.direction == INPUT
        )

    @cached_property
    def sorted_input_wires(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(self.input_wires))

    def entry(self, state: str) -> StateEntry:
        try:
            return self.state_map[state]
        except KeyError:
            raise ValueError(f"machine {self.name} has no state {state!r}") from None

    def wire_direction(self, handshake: str, phase: str) -> str | None:
        for wire in self.wires:
            if wire.handshake == handshake and wire.phase == phase:
                return wire.direction
        return None


class ValidationReport(Record):
    """Validation outcome: an empty violation list means the machine is valid."""

    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _is_identifier(text: str) -> bool:
    """True iff text matches [A-Za-z_][A-Za-z0-9_]*."""

    return text.isascii() and text.isidentifier()


def _expect_identifier(node: Form, what: str) -> str:
    text = expect_symbol(node, what)
    if not _is_identifier(text):
        raise error_at(node, f"{what} {text!r} is not an identifier")
    return text


def _parse_wire(node: Form) -> Wire:
    """The node's wire, a new Wire per transition: the token reader runs
    only where the pattern reader, which shares one per spelling, declines."""

    items = expect_list(node, "wire (handshake R|A I|O)")
    if len(items) != 3:
        raise error_at(node, "wire must have exactly three elements")
    handshake = _expect_identifier(items[0], "handshake")
    phase = expect_symbol(items[1], "phase").upper()
    if phase not in (REQUEST, ACK):
        raise error_at(items[1], f"phase must be R or A, got {phase!r}")
    direction = expect_symbol(items[2], "direction").upper()
    if direction not in (INPUT, OUTPUT):
        raise error_at(items[2], f"direction must be I or O, got {direction!r}")
    return Wire(handshake, phase, direction)


def _parse_state(node: Form) -> StateEntry:
    items = expect_list(node, "state entry")
    if len(items) != 4:
        raise error_at(node, "state entry must be (id init kind (transitions...))")
    name = _expect_identifier(items[0], "state id")
    init_token = expect_symbol(items[1], "init flag").lower()
    if init_token not in ("t", "nil"):
        raise error_at(items[1], f"init flag must be t or nil, got {init_token!r}")
    kind = expect_symbol(items[2], "state kind").lower()
    if kind not in (BOX, TRANSIENT):
        raise error_at(items[2], f"kind must be box or transient, got {kind!r}")
    transitions = []
    for transition_node in expect_list(items[3], "transition list"):
        pair = expect_list(transition_node, "transition (wire target)")
        if len(pair) != 2:
            raise error_at(transition_node, "transition must be ((h R|A I|O) target)")
        wire = _parse_wire(pair[0])
        target = _expect_identifier(pair[1], "target state id")
        transitions.append((wire, target))
    return StateEntry(name, init_token == "t", kind, tuple(transitions))


def _machine_from_form(node: Form) -> XdiMachine:
    items = expect_list(node, "(machine ...) form")
    if not items or expect_symbol(items[0], "machine keyword") != "machine":
        raise error_at(node, "expected (machine name states...)")
    if len(items) < 2:
        raise error_at(node, "machine form needs a name")
    name = _expect_identifier(items[1], "machine name")
    states = tuple(_parse_state(child) for child in items[2:])
    if not states:
        raise error_at(node, "machine declares no states")
    seen: set[str] = set()
    for index, entry in enumerate(states):
        if entry.name in seen:
            raise error_at(items[2 + index], f"duplicate state id {entry.name!r}")
        seen.add(entry.name)
    return XdiMachine(name, states)


def _conditions_from_form(items: tuple[Form, ...]) -> tuple[tuple[str, str], ...]:
    conditions: dict[str, str] = {}
    for child in items[1:]:
        pair = expect_list(child, "condition (name \"dsl\")")
        text = string_value(pair[1]) if len(pair) == 2 else None
        if text is None:
            raise error_at(child, "condition must be (name \"formula text\")")
        name = _expect_identifier(pair[0], "condition name")
        if name in conditions:
            raise error_at(child, f"duplicate condition name {name!r}")
        conditions[name] = text
    return tuple(conditions.items())


def _conditions_after(forms: Sequence[Form]) -> tuple[tuple[str, str], ...]:
    """The conditions of the forms after the machine: none, or one (conditions ...)."""

    conditions = None
    for node in forms:
        items = expect_list(node, "trailing form")
        head = expect_symbol(items[0], "form keyword") if items else ""
        if head != "conditions":
            raise error_at(node, f"unexpected form {head!r} after machine")
        if conditions is not None:
            raise error_at(node, "duplicate (conditions ...) form")
        conditions = _conditions_from_form(items)
    return conditions or ()


# The pattern reader's grammar: ASCII whitespace, with ; comments only
# between forms. Every quantifier is possessive: no text the patterns take
# has a second way to match, so nothing is given back. That pins a comment
# to the end of its line, so that it cannot stop early and let its rest be
# read as forms. The entry match captures the wire text and target of the
# first two transitions; further ones come back as one text, which
# _TRANSITION.findall reads. re.ASCII keeps a name to
# [A-Za-z_][A-Za-z0-9_]* and the (?i:) keywords to ASCII case, as lower()
# and upper() read them on ASCII text.
_GAP = r"(?:\s++|;[^\n]*+)*+"
_NAME = r"[A-Za-z_]\w*+"


def _transition_text(group: str) -> str:
    """A transition ((h R|A I|O) target), its wire text and target each in
    a group that opens with ``group``."""

    return (
        rf"\(\s*+\(\s*+{group}{_NAME}\s++(?i:[ra])\s++(?i:[io]))\s*+\)"
        rf"\s*+{group}{_NAME})\s*+\)"
    )


_HEAD = re.compile(rf"{_GAP}\(\s*+machine\s++({_NAME})", re.ASCII)
_ENTRY = re.compile(
    rf"{_GAP}\(\s*+({_NAME})\s++(?i:(t)|nil)\s++(?i:(box)|transient)\s*+\("
    rf"(?:\s*+{_transition_text('(')}"
    rf"(?:\s*+{_transition_text('(')}((?:\s*+{_transition_text('(?:')})*+))?+)?+"
    rf"\s*+\)\s*+\)",
    re.ASCII,
)
_TRANSITION = re.compile(_transition_text("("), re.ASCII)
_CLOSE = re.compile(rf"{_GAP}\)", re.ASCII)


class _Wires(dict):
    """Wires by the text of their three items, each built on first use."""

    def __missing__(self, key: str) -> Wire:
        handshake, phase, direction = key.split()
        wire = self[key] = Wire(handshake, phase.upper(), direction.upper())
        return wire


def _read_by_pattern(text: str) -> tuple[XdiMachine, tuple[tuple[str, str], ...]] | None:
    """The document, read with one match per state entry; None when the
    text is not of the plain shape the patterns take, or is not valid.

    What it returns is what the token reader returns, so parse_document
    falls back to that reader, which places every error, on None."""

    head = _HEAD.match(text)
    if head is None:
        return None
    entry_at, transitions_in, new_entry = _ENTRY.match, _TRANSITION.findall, tuple.__new__
    wires = _Wires()
    states = []
    end = head.end()
    while entry := entry_at(text, end):
        name, init, box, wire, target, second, second_target, rest = entry.groups()
        if second is not None:
            transitions = ((wires[wire], target), (wires[second], second_target))
            if rest:
                transitions += tuple([(wires[key], to) for key, to in transitions_in(rest)])
        elif wire is not None:
            transitions = ((wires[wire], target),)
        else:
            transitions = ()
        # tuple.__new__ skips the namedtuple's generated Python __new__.
        kind = BOX if box else TRANSIENT
        states.append(new_entry(StateEntry, (name, init is not None, kind, transitions)))
        end = entry.end()
    close = _CLOSE.match(text, end)
    if close is None or not states or len({state.name for state in states}) < len(states):
        return None
    try:
        conditions = _conditions_after(read_forms(text[close.end():]))
    except ParseError:
        return None
    return XdiMachine(head[1], tuple(states)), conditions


def _read_by_tokens(text: str) -> tuple[XdiMachine, tuple[tuple[str, str], ...]]:
    """The document, read from its forms; a ParseError placed at its token."""

    with located(text):
        forms = read_forms(text)
        if not forms:
            raise ParseError("empty input, expected a (machine ...) form")
        return _machine_from_form(forms[0]), _conditions_after(forms[1:])


def parse_document(text: str) -> tuple[XdiMachine, tuple[tuple[str, str], ...]]:
    """Parse a machine file plus its optional named-condition trailer."""

    return _read_by_pattern(text) or _read_by_tokens(text)


def validate(machine: XdiMachine) -> ValidationReport:
    """Check the structural invariants; violations come back as report entries."""

    violations: list[str] = []
    initials = [entry.name for entry in machine.states if entry.init]
    if not initials:
        violations.append("no initial state")
    elif len(initials) > 1:
        violations.append("multiple initial states: " + " ".join(initials))
    declared = machine.state_map
    unique = len(declared) == len(machine.states)
    if not unique:
        counts = Counter(entry.name for entry in machine.states)
        dupes = sorted(name for name, count in counts.items() if count > 1)
        violations.append("duplicate state ids: " + " ".join(dupes))
    directions: dict[tuple[str, str], str] = {}
    for entry in machine.states:
        for wire, target in entry.transitions:
            if target not in declared:
                violations.append(
                    f"state {entry.name} has transition to undeclared state {target}"
                )
            key = (wire.handshake, wire.phase)
            prior = directions.setdefault(key, wire.direction)
            if prior != wire.direction:
                violations.append(
                    f"direction conflict on ({wire.handshake},{wire.phase}):"
                    f" both {prior} and {wire.direction}"
                )
    if len(initials) == 1 and unique:
        reached = {initials[0]}
        frontier = [initials[0]]
        while frontier:
            state = frontier.pop()
            for _, target in declared[state].transitions:
                if target in declared and target not in reached:
                    reached.add(target)
                    frontier.append(target)
        unreachable = sorted(declared.keys() - reached)
        if unreachable:
            violations.append("unreachable states: " + " ".join(unreachable))
    return ValidationReport(tuple(violations))


def is_environment(machine: XdiMachine, env: Iterable[tuple[str, str]]) -> bool:
    """True iff every member names an input wire of the machine."""

    return all(pair in machine.input_wires for pair in env)


def enabled_transitions(
    machine: XdiMachine, state: str, env: Environment
) -> tuple[tuple[Wire, str], ...]:
    """Transitions out of a state, in declaration order, minus stable wires.

    Only input wires can be stable, so output transitions always remain.
    """

    return tuple(
        (wire, target)
        for wire, target in machine.entry(state).transitions
        if wire.direction == OUTPUT or (wire.handshake, wire.phase) not in env
    )


def parse_env(text: str, machine: XdiMachine | None = None) -> Environment:
    """Parse a command-line environment spec like ``a.R,c.A``; empty means live."""

    text = text.strip()
    pairs: set[tuple[str, str]] = set()
    if text:
        for token in text.split(","):
            token = token.strip()
            if "." not in token:
                raise ValueError(
                    f"bad environment entry {token!r}, expected handshake.R or handshake.A"
                )
            handshake, _, phase = token.rpartition(".")
            phase = phase.upper()
            if not _is_identifier(handshake) or phase not in (REQUEST, ACK):
                raise ValueError(f"bad environment entry {token!r}")
            pairs.add((handshake, phase))
    env = frozenset(pairs)
    if machine is not None and not is_environment(machine, env):
        bad = sorted(pair for pair in env if pair not in machine.input_wires)
        listing = ",".join(f"{h}.{p}" for h, p in bad)
        raise ValueError(f"not input wires of {machine.name}: {listing}")
    return env


def format_env(env: Environment) -> str:
    """Render an environment as the command-line spec; ``{}`` when empty."""

    if not env:
        return "{}"
    return ",".join(f"{h}.{p}" for h, p in sorted(env))
