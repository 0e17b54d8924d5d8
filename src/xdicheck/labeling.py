"""Per-handshake blocking/idling labels.

Every path from the initial state assigns a state the parity of the
handshake events seen along the way: even parity is idling, odd parity is
blocking. A machine is unambiguous for a handshake when all paths agree
on every state, box and transient alike; labels exist only in that case,
as a plain dict from each declared state to True (blocking) or False
(idling). One breadth-first search over (state, parity) pairs yields
both the labels and the conflicts, so neither a label nor the set of
conflicting states depends on declaration order; only the choice between
equally short witness paths does.
"""

from __future__ import annotations

from .machine import XdiMachine
from .record import Record

__all__ = [
    "Mode",
    "BLOCKING",
    "IDLING",
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

    witnesses: tuple[ParityConflict, ...]

    @property
    def ambiguous(self) -> bool:
        return bool(self.witnesses)


def _require_handshake(machine: XdiMachine, handshake: str) -> None:
    if handshake not in machine.handshakes:
        raise UnknownHandshakeError(
            f"machine {machine.name} has no transition on handshake {handshake!r}"
        )


def check_unambiguous(machine: XdiMachine, handshake: str) -> AmbiguityReport:
    """Every state reached with both parities, with a witness path for each."""

    _require_handshake(machine, handshake)
    return machine.memo(_parity_search, handshake)[0]


def compute_block_idle(machine: XdiMachine, handshake: str) -> dict[str, bool]:
    """Every declared state's label, in declaration order: True means
    blocking, False idling.

    The flag starts as idling and toggles on any transition whose wire names
    the handshake, request and acknowledge alike. A state is blocking when
    it is reached with odd parity; a state never reached stays idling. The
    dict is the search's own, memoised on the machine, so every call returns
    the same object: read it, do not change it. An ambiguous machine raises
    AmbiguousMachineError on every call.
    """

    _require_handshake(machine, handshake)
    report, labels = machine.memo(_parity_search, handshake)
    if report.ambiguous:
        raise AmbiguousMachineError(machine, handshake, report)
    return labels


def _parity_search(machine: XdiMachine, handshake: str) -> tuple[AmbiguityReport, dict[str, bool]]:
    """Propagate (state, parity) pairs breadth first from the initial state.

    parents[parity] maps each state reached with that parity to the
    (state, parity) pair it was first reached from; the two lists hold
    the pairs' states and parities in discovery order, in step, and are
    the queue: the loop over them sees the pairs appended while it runs."""

    entries = machine.state_map
    start = machine.init_state
    parents: tuple[dict, dict] = ({start: None}, {})
    states, parities = [start], [False]
    try:
        for state, parity in zip(states, parities):
            for wire, target in entries[state].transitions:
                next_parity = parity ^ (wire.handshake == handshake)
                reached = parents[next_parity]
                if target not in reached:
                    reached[target] = (state, parity)
                    states.append(target)
                    parities.append(next_parity)
    except KeyError:
        machine.entry(state)  # raises entry()'s ValueError for an undeclared state
        raise

    def path_to(state: str, parity: bool) -> tuple[str, ...]:
        trail = []
        cursor: tuple[str, bool] | None = (state, parity)
        while cursor is not None:
            trail.append(cursor[0])
            cursor = parents[cursor[1]][cursor[0]]
        return tuple(reversed(trail))

    idling, blocking = parents
    both = idling.keys() & blocking.keys()
    witnesses = tuple(
        ParityConflict(entry.name, path_to(entry.name, False), path_to(entry.name, True))
        for entry in machine.states
        if entry.name in both
    )
    return AmbiguityReport(witnesses), {name: name in blocking for name in entries}
