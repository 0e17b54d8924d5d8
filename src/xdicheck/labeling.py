"""Per-handshake blocking/idling labels.

Every path from the initial state assigns a state the parity of the
handshake events seen along the way: even parity is idling, odd parity is
blocking. A machine is unambiguous for a handshake when all paths agree
on every state, box and transient alike; labels exist only in that case.
One breadth-first search over (state, parity) pairs yields both the
labels and the conflicts, so neither a label nor the set of conflicting
states depends on declaration order; only the choice between equally
short witness paths does.
"""

from __future__ import annotations

from collections import deque
from typing import Mapping

from .machine import XdiMachine
from .record import Record

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
    """Two paths assign conflicting labels to a state."""

    def __init__(self, machine: XdiMachine, handshake: str, report: "AmbiguityReport"):
        states = " ".join(conflict.state for conflict in report.witnesses)
        super().__init__(
            f"machine {machine.name} is ambiguous for handshake {handshake!r}"
            f" at: {states}"
        )
        self.report = report


class LabelMap(Record):
    """Map from state id to its label; True means blocking."""

    handshake: str
    labels: Mapping[str, bool]

    def mode(self, state: str) -> Mode:
        return BLOCKING if self.labels[state] else IDLING


class ParityConflict(Record):
    """A state reached with both parities, with one witness path for each."""

    state: str
    idling_path: tuple[str, ...]
    blocking_path: tuple[str, ...]


class AmbiguityReport(Record):
    """Conflicts found by parity propagation.

    Every state reached with both parities, box or transient, is a witness,
    in declaration order of the states; any witness makes the machine
    ambiguous for the handshake.
    """

    ambiguous: bool
    witnesses: tuple[ParityConflict, ...]


def _require_handshake(machine: XdiMachine, handshake: str) -> None:
    if handshake not in machine.handshakes:
        raise UnknownHandshakeError(
            f"machine {machine.name} has no transition on handshake {handshake!r}"
        )


def check_unambiguous(machine: XdiMachine, handshake: str) -> AmbiguityReport:
    """Every state reached with both parities, with a witness path for each."""

    _require_handshake(machine, handshake)
    return machine.memo(_parity_search, handshake)[0]


def compute_block_idle(machine: XdiMachine, handshake: str) -> LabelMap:
    """Label every state with the parity the search reaches it with.

    The flag starts as idling and toggles on any transition whose wire names
    the handshake, request and acknowledge alike. A state is blocking when
    it is reached with odd parity; a state never reached stays idling. An
    ambiguous machine raises AmbiguousMachineError on every call.
    """

    _require_handshake(machine, handshake)
    report, labels = machine.memo(_parity_search, handshake)
    if report.ambiguous:
        raise AmbiguousMachineError(machine, handshake, report)
    return labels


def _parity_search(machine: XdiMachine, handshake: str) -> tuple[AmbiguityReport, LabelMap]:
    """Propagate (state, parity) pairs breadth first from the initial state."""

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

    witnesses = tuple(
        ParityConflict(entry.name, path_to((entry.name, False)), path_to((entry.name, True)))
        for entry in machine.states
        if (entry.name, False) in parents and (entry.name, True) in parents
    )
    labels = {entry.name: (entry.name, True) in parents for entry in machine.states}
    return AmbiguityReport(bool(witnesses), witnesses), LabelMap(handshake, labels)
