"""Per-handshake blocking/idling labels.

Every path from the initial state assigns a state the parity of the
handshake events seen along the way: even parity is idling, odd parity is
blocking. A machine is unambiguous for a handshake when all paths agree
on every non-transient state; labels are only meaningful in that case.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping

from .machine import XdiMachine

__all__ = [
    "Mode",
    "BLOCKING",
    "IDLING",
    "LabelMap",
    "ParityConflict",
    "AmbiguityReport",
    "UnknownHandshakeError",
    "AmbiguousMachineError",
    "compute_block_idle",
    "check_unambiguous",
]

BLOCKING = "blocking"
IDLING = "idling"
Mode = str


class UnknownHandshakeError(ValueError):
    """The handshake labels no transition of the machine."""


class AmbiguousMachineError(ValueError):
    """Two paths assign conflicting labels to a non-transient state."""

    def __init__(self, machine: XdiMachine, handshake: str, report: "AmbiguityReport"):
        states = " ".join(conflict.state for conflict in report.witnesses)
        super().__init__(
            f"machine {machine.name} is ambiguous for handshake {handshake!r}"
            f" at: {states}"
        )
        self.report = report


@dataclass(frozen=True)
class LabelMap:
    """Map from state id to its label; True means blocking."""

    handshake: str
    labels: Mapping[str, bool]

    def mode(self, state: str) -> Mode:
        return BLOCKING if self.labels[state] else IDLING


@dataclass(frozen=True)
class ParityConflict:
    """A state reached with both parities, with one witness path for each."""

    state: str
    idling_path: tuple[str, ...]
    blocking_path: tuple[str, ...]


@dataclass(frozen=True)
class AmbiguityReport:
    """Conflicts found by parity propagation.

    Conflicts on non-transient states make the machine ambiguous and are
    listed as witnesses. A transient state reached with both parities is
    not reported: compute_block_idle gives it the parity that first
    reaches it depth first in declaration order.
    """

    ambiguous: bool
    witnesses: tuple[ParityConflict, ...]


def _require_handshake(machine: XdiMachine, handshake: str) -> None:
    if handshake not in machine.handshakes:
        raise UnknownHandshakeError(
            f"machine {machine.name} has no transition on handshake {handshake!r}"
        )


def check_unambiguous(machine: XdiMachine, handshake: str) -> AmbiguityReport:
    """Propagate (state, parity) pairs breadth first and report conflicts."""

    _require_handshake(machine, handshake)
    return machine.memo(_check_unambiguous, handshake)


def _check_unambiguous(machine: XdiMachine, handshake: str) -> AmbiguityReport:
    start = (machine.init_state, False)
    parents: dict[tuple[str, bool], tuple[str, bool] | None] = {start: None}
    queue = deque([start])
    while queue:
        state, parity = queue.popleft()
        for wire, target in machine.entry(state).transitions:
            next_pair = (target, parity ^ (wire.handshake == handshake))
            if next_pair not in parents:
                parents[next_pair] = (state, parity)
                queue.append(next_pair)

    def path_to(pair: tuple[str, bool]) -> tuple[str, ...]:
        trail = []
        cursor: tuple[str, bool] | None = pair
        while cursor is not None:
            trail.append(cursor[0])
            cursor = parents[cursor]
        return tuple(reversed(trail))

    witnesses: list[ParityConflict] = []
    for entry in machine.states:
        name = entry.name
        if not entry.is_transient and (name, False) in parents and (name, True) in parents:
            witnesses.append(ParityConflict(name, path_to((name, False)), path_to((name, True))))
    return AmbiguityReport(bool(witnesses), tuple(witnesses))


def compute_block_idle(machine: XdiMachine, handshake: str) -> LabelMap:
    """Label every state by depth-first parity propagation from the start.

    The flag starts as idling and toggles on any transition whose wire names
    the handshake, request and acknowledge alike. The first flag value to
    reach a state wins; descent follows declaration order. Ambiguity on a
    non-transient state is an error, checked up front; an ambiguous
    machine raises on every call, since no label map is memoised for it.
    """

    _require_handshake(machine, handshake)
    return machine.memo(_compute_block_idle, handshake)


def _compute_block_idle(machine: XdiMachine, handshake: str) -> LabelMap:
    report = check_unambiguous(machine, handshake)
    if report.ambiguous:
        raise AmbiguousMachineError(machine, handshake, report)
    labels: dict[str, bool] = {}
    stack: list[tuple[str, bool]] = [(machine.init_state, False)]
    while stack:
        state, flag = stack.pop()
        if state in labels:
            continue
        labels[state] = flag
        entry = machine.entry(state)
        for wire, target in reversed(entry.transitions):
            if target not in labels:
                stack.append((target, flag ^ (wire.handshake == handshake)))
    # Validation rejects unreachable states, but tolerate them here so the
    # label map always covers every declared state.
    for entry in machine.states:
        labels.setdefault(entry.name, False)
    return LabelMap(handshake, labels)

