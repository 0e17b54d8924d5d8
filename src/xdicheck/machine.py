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
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Iterable, Sequence, TypeVar

from .sexpr import Node, ParseError, Symbol, read_forms, write_form

__all__ = [
    "Wire",
    "StateEntry",
    "XdiMachine",
    "Environment",
    "ValidationReport",
    "parse_machine",
    "parse_document",
    "serialize",
    "validate",
    "is_input_wire",
    "is_environment",
    "enabled_transitions",
    "is_trace",
    "parse_env",
    "format_env",
]

Environment = frozenset  # of (handshake, phase) pairs
T = TypeVar("T")

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

REQUEST = "R"
ACK = "A"
INPUT = "I"
OUTPUT = "O"
BOX = "box"
TRANSIENT = "transient"


@dataclass(frozen=True, order=True)
class Wire:
    """A transition label: handshake id, phase R|A, direction I|O."""

    handshake: str
    phase: str
    direction: str

    def __str__(self) -> str:
        return f"({self.handshake} {self.phase} {self.direction})"


@dataclass(frozen=True)
class StateEntry:
    """One declared state: id, initial flag, kind, ordered transitions."""

    name: str
    init: bool
    kind: str
    transitions: tuple[tuple[Wire, str], ...]

    @property
    def is_transient(self) -> bool:
        return self.kind == TRANSIENT


@dataclass(frozen=True)
class XdiMachine:
    """A named machine with its ordered state entries."""

    name: str
    states: tuple[StateEntry, ...]

    @cached_property
    def _memo(self) -> dict:
        return {}

    def memo(self, fn: Callable[..., T], *args: Hashable) -> T:
        """fn(self, *args), computed once per machine and argument tuple.

        The table lives on the machine, so it is freed with it. It takes
        no lock: two threads may both compute a missing value, and the
        later store wins, which only matters for identity since every
        memoised function is deterministic.
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
        return frozenset(
            wire for entry in self.states for wire, _ in entry.transitions
        )

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


@dataclass(frozen=True)
class ValidationReport:
    """Validation outcome: an empty violation list means the machine is valid."""

    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _expect_symbol(node: Node, what: str) -> str:
    if not node.is_symbol:
        raise node.error(f"expected {what}")
    return str(node.value)


def _expect_identifier(node: Node, what: str) -> str:
    text = _expect_symbol(node, what)
    if not _IDENTIFIER.match(text):
        raise node.error(f"{what} {text!r} is not an identifier")
    return text


def _expect_list(node: Node, what: str) -> tuple[Node, ...]:
    if not node.is_list:
        raise node.error(f"expected {what}")
    return node.value


def _parse_wire(node: Node) -> Wire:
    items = _expect_list(node, "wire (handshake R|A I|O)")
    if len(items) != 3:
        raise node.error("wire must have exactly three elements")
    handshake = _expect_identifier(items[0], "handshake")
    phase = _expect_symbol(items[1], "phase").upper()
    if phase not in (REQUEST, ACK):
        raise items[1].error(f"phase must be R or A, got {phase!r}")
    direction = _expect_symbol(items[2], "direction").upper()
    if direction not in (INPUT, OUTPUT):
        raise items[2].error(f"direction must be I or O, got {direction!r}")
    return Wire(handshake, phase, direction)


def _parse_state(node: Node) -> StateEntry:
    items = _expect_list(node, "state entry")
    if len(items) != 4:
        raise node.error("state entry must be (id init kind (transitions...))")
    name = _expect_identifier(items[0], "state id")
    init_token = _expect_symbol(items[1], "init flag").lower()
    if init_token not in ("t", "nil"):
        raise items[1].error(f"init flag must be t or nil, got {init_token!r}")
    kind = _expect_symbol(items[2], "state kind").lower()
    if kind not in (BOX, TRANSIENT):
        raise items[2].error(f"kind must be box or transient, got {kind!r}")
    transitions = []
    for transition_node in _expect_list(items[3], "transition list"):
        pair = _expect_list(transition_node, "transition (wire target)")
        if len(pair) != 2:
            raise transition_node.error("transition must be ((h R|A I|O) target)")
        wire = _parse_wire(pair[0])
        target = _expect_identifier(pair[1], "target state id")
        transitions.append((wire, target))
    return StateEntry(name, init_token == "t", kind, tuple(transitions))


def _parse_machine_form(node: Node) -> XdiMachine:
    items = _expect_list(node, "(machine ...) form")
    if not items or _expect_symbol(items[0], "machine keyword") != "machine":
        raise node.error("expected (machine name states...)")
    if len(items) < 2:
        raise node.error("machine form needs a name")
    name = _expect_identifier(items[1], "machine name")
    states = tuple(_parse_state(child) for child in items[2:])
    if not states:
        raise node.error("machine declares no states")
    seen: set[str] = set()
    for index, entry in enumerate(states):
        if entry.name in seen:
            raise items[2 + index].error(f"duplicate state id {entry.name!r}")
        seen.add(entry.name)
    return XdiMachine(name, states)


def _parse_conditions_form(node: Node) -> tuple[tuple[str, str], ...]:
    items = _expect_list(node, "(conditions ...) form")
    out = []
    for child in items[1:]:
        pair = _expect_list(child, "condition (name \"dsl\")")
        if len(pair) != 2 or not pair[1].is_string:
            raise child.error("condition must be (name \"formula text\")")
        out.append((_expect_identifier(pair[0], "condition name"), str(pair[1].value)))
    return tuple(out)


def parse_machine(text: str) -> XdiMachine:
    """Parse a machine file, ignoring any trailing conditions form."""

    machine, _ = parse_document(text)
    return machine


def parse_document(text: str) -> tuple[XdiMachine, tuple[tuple[str, str], ...]]:
    """Parse a machine file plus its optional named-condition trailer."""

    forms = read_forms(text)
    if not forms:
        raise ParseError("empty input, expected a (machine ...) form")
    machine = _parse_machine_form(forms[0])
    conditions: tuple[tuple[str, str], ...] = ()
    for node in forms[1:]:
        items = _expect_list(node, "trailing form")
        head = _expect_symbol(items[0], "form keyword") if items else ""
        if head == "conditions":
            if conditions:
                raise node.error("duplicate (conditions ...) form")
            conditions = _parse_conditions_form(node)
        else:
            raise node.error(f"unexpected form {head!r} after machine")
    return machine, conditions


def serialize(machine: XdiMachine, conditions: Sequence[tuple[str, str]] = ()) -> str:
    """Render a machine (and optional conditions) in the file format."""

    lines = [f"(machine {machine.name}"]
    for entry in machine.states:
        transitions = " ".join(
            f"(({w.handshake} {w.phase} {w.direction}) {target})"
            for w, target in entry.transitions
        )
        init = "t" if entry.init else "nil"
        lines.append(f"  ({entry.name} {init} {entry.kind} ({transitions}))")
    text = "\n".join(lines) + ")\n"
    if conditions:
        body = "\n".join(
            f"  ({name} {write_form(formula)})" for name, formula in conditions
        )
        text += f"(conditions\n{body})\n"
    return text


def validate(machine: XdiMachine) -> ValidationReport:
    """Check the structural invariants; violations come back as report entries."""

    violations: list[str] = []
    initials = [entry.name for entry in machine.states if entry.init]
    if not initials:
        violations.append("no initial state")
    elif len(initials) > 1:
        violations.append("multiple initial states: " + " ".join(initials))
    names = [entry.name for entry in machine.states]
    dupes = sorted(name for name, count in Counter(names).items() if count > 1)
    if dupes:
        violations.append("duplicate state ids: " + " ".join(dupes))
    declared = set(names)
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
    if initials and len(initials) == 1 and not dupes:
        reached = {initials[0]}
        frontier = [initials[0]]
        while frontier:
            state = frontier.pop()
            for _, target in machine.state_map[state].transitions:
                if target in declared and target not in reached:
                    reached.add(target)
                    frontier.append(target)
        unreachable = sorted(declared - reached)
        if unreachable:
            violations.append("unreachable states: " + " ".join(unreachable))
    return ValidationReport(tuple(violations))


def is_input_wire(machine: XdiMachine, handshake: str, phase: str) -> bool:
    return (handshake, phase) in machine.input_wires


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


def is_trace(
    machine: XdiMachine, states: Sequence[str], env: Environment
) -> bool:
    """True iff each state is the target of an enabled transition out of the
    one before it; a single declared state qualifies."""

    if not states:
        return False
    for name in states:
        if name not in machine.state_map:
            return False
    return all(
        after in {target for _, target in enabled_transitions(machine, before, env)}
        for before, after in zip(states, states[1:])
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
            if not _IDENTIFIER.match(handshake) or phase not in (REQUEST, ACK):
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
