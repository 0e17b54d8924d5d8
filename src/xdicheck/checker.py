"""Temporal predicates over machines under stable-wire environments.

g_check decides "globally" queries: every state reachable from the start
must be transient, carry the queried label, or be a dead end under the
environment. fg_check decides "eventually globally" queries, EF AG pass
in CTL, with one fixpoint: the reachable states from which a failing
state is reachable form the backward closure of the failing states, and
any reachable state outside it is a witness. Both run in time linear in
the reachable states plus edges. blocked and idle are the fg forms from
the initial state, with the blocking and idling labels.

A dead end satisfies either mode: a machine stranded by its environment
stays in that state forever, which is vacuously permanent for both
readings. Both the graph algorithms and the walk-enumeration oracle
apply the same rule, so the two implementations stay comparable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .labeling import BLOCKING, IDLING, Mode, compute_block_idle
from .machine import Environment, XdiMachine, enabled_transitions, is_environment

__all__ = [
    "TemporalQuery",
    "CheckResult",
    "reasonable_envs",
    "g_check",
    "fg_check",
    "blocked",
    "idle",
    "oracle_g_check",
    "oracle_fg_check",
    "cross_validate",
    "Disagreement",
    "BLOCKING",
    "IDLING",
]

@dataclass(frozen=True)
class TemporalQuery:
    """One check: machine, handshake, mode, environment, start state.

    A start of None means the machine's initial state.
    """

    machine: XdiMachine
    handshake: str
    mode: Mode
    env: Environment
    start: str | None = None

    def resolved_start(self) -> str:
        return self.machine.init_state if self.start is None else self.start


@dataclass(frozen=True)
class CheckResult:
    """Outcome plus evidence.

    visited is the explored state set. For a failed g check the
    counterexample is a shortest trace from the start to an offending
    state; for a successful fg check it is a trace from the start to the
    witness state.
    """

    holds: bool
    visited: frozenset[str]
    counterexample: tuple[str, ...] | None

    @property
    def witness(self) -> str | None:
        if self.holds and self.counterexample:
            return self.counterexample[-1]
        return None


class _QueryContext:
    __slots__ = ("machine", "env", "mode", "labels", "start")

    def __init__(self, query: TemporalQuery) -> None:
        machine = query.machine
        if query.mode not in (BLOCKING, IDLING):
            raise ValueError(f"unknown mode {query.mode!r}")
        if not is_environment(machine, query.env):
            raise ValueError(f"not an environment of {machine.name}")
        self.machine = machine
        self.env = query.env
        self.mode = query.mode
        self.labels = compute_block_idle(machine, query.handshake)
        self.start = query.resolved_start()
        if self.start not in machine.state_map:
            raise ValueError(f"machine {machine.name} has no state {self.start!r}")

    def passes(self, state: str) -> bool:
        entry = self.machine.entry(state)
        if entry.is_transient:
            return True
        if self.labels.mode(state) == self.mode:
            return True
        return not enabled_transitions(self.machine, state, self.env)


def reasonable_envs(machine: XdiMachine) -> tuple[Environment, ...]:
    """All environments, smallest first and lexicographic within a size."""

    wires = machine.sorted_input_wires
    return tuple(
        frozenset(subset)
        for size in range(len(wires) + 1)
        for subset in combinations(wires, size)
    )


def _reach(machine: XdiMachine, env: Environment, start: str):
    """Breadth-first reachability.

    Returns the discovery order, parent links for trace rebuilding, and
    the predecessors of each reached state over the enabled edges.
    """

    parents: dict[str, str | None] = {start: None}
    preds: dict[str, list[str]] = {start: []}
    order: list[str] = []
    queue = deque([start])
    while queue:
        state = queue.popleft()
        order.append(state)
        for _, target in enabled_transitions(machine, state, env):
            if target not in parents:
                parents[target] = state
                preds[target] = []
                queue.append(target)
            preds[target].append(state)
    return order, parents, preds


def _trace_to(parents: dict[str, str | None], state: str) -> tuple[str, ...]:
    trail = []
    cursor: str | None = state
    while cursor is not None:
        trail.append(cursor)
        cursor = parents[cursor]
    return tuple(reversed(trail))


def g_check(query: TemporalQuery) -> CheckResult:
    """Check that every reachable state passes the mode test.

    Exploration is breadth first, so the returned counterexample is a
    shortest offending trace. When the check holds, visited is exactly
    the reachable set from the start.
    """

    ctx = _QueryContext(query)
    parents: dict[str, str | None] = {ctx.start: None}
    queue = deque([ctx.start])
    seen: list[str] = []
    while queue:
        state = queue.popleft()
        seen.append(state)
        if not ctx.passes(state):
            return CheckResult(False, frozenset(parents), _trace_to(parents, state))
        for _, target in enabled_transitions(ctx.machine, state, ctx.env):
            if target not in parents:
                parents[target] = state
                queue.append(target)
    return CheckResult(True, frozenset(seen), None)


def fg_check(query: TemporalQuery) -> CheckResult:
    """Find the first reachable state, in breadth-first order, where g holds.

    g holds from a state iff no failing state is reachable from it, so the
    states where it fails are the backward closure of the failing states.
    The witness is the first reachable state outside that closure, and the
    evidence trace leads from the start to it. The cost is linear in the
    reachable states plus edges.
    """

    ctx = _QueryContext(query)
    order, parents, preds = _reach(ctx.machine, ctx.env, ctx.start)
    doomed = {state for state in order if not ctx.passes(state)}
    pending = list(doomed)
    while pending:
        for pred in preds[pending.pop()]:
            if pred not in doomed:
                doomed.add(pred)
                pending.append(pred)
    visited = frozenset(order)
    for state in order:
        if state not in doomed:
            return CheckResult(True, visited, _trace_to(parents, state))
    return CheckResult(False, visited, None)


def blocked(machine: XdiMachine, handshake: str, env: Environment) -> bool:
    """Eventually permanently blocking, from the initial state."""

    return fg_check(TemporalQuery(machine, handshake, BLOCKING, env)).holds


def idle(machine: XdiMachine, handshake: str, env: Environment) -> bool:
    """Eventually permanently idling, from the initial state."""

    return fg_check(TemporalQuery(machine, handshake, IDLING, env)).holds


# --- Bounded walk-enumeration oracle ---------------------------------------
#
# The oracle transliterates the quantified definitions: a g query holds iff
# the final state of every walk of at most `bound` steps passes the mode
# test, and an fg query holds iff some such walk ends in a state whose g
# query holds. Since every prefix of a walk is a walk, the final states of
# all bounded walks are exactly the states reachable within the bound,
# which _walk_states collects one breadth-first layer per step. Both
# helpers run through XdiMachine.memo, so each walk set and each g answer
# is computed once per machine.

ORACLE_MAX_STATES = 20


def _oracle_bound(machine: XdiMachine, bound: int | None) -> int:
    if bound is None:
        return len(machine.states) + 1
    if bound < 0:
        raise ValueError("oracle bound must be non-negative")
    return bound


def _check_oracle_size(machine: XdiMachine, max_states: int) -> None:
    if len(machine.states) > max_states:
        raise ValueError(
            f"machine {machine.name} has {len(machine.states)} states,"
            f" above the oracle limit of {max_states}"
        )


def _walk_states(
    machine: XdiMachine, env: Environment, start: str, bound: int
) -> frozenset[str]:
    """Final states of all walks from start taking at most `bound` steps.

    Layer k holds the states first reached in k steps; the loop stops at
    the bound or at the first empty layer, so it never recurses.
    """

    reached = {start}
    layer = {start}
    for _ in range(bound):
        layer = {
            target for state in layer for _, target in enabled_transitions(machine, state, env)
        } - reached
        if not layer:
            break
        reached |= layer
    return frozenset(reached)


def _oracle_g(
    machine: XdiMachine,
    handshake: str,
    mode: Mode,
    env: Environment,
    start: str,
    bound: int,
) -> bool:
    labels = compute_block_idle(machine, handshake)
    for state in machine.memo(_walk_states, env, start, bound):
        if machine.entry(state).is_transient:
            continue
        if labels.mode(state) == mode:
            continue
        if not enabled_transitions(machine, state, env):
            continue
        return False
    return True


def oracle_g_check(
    query: TemporalQuery,
    bound: int | None = None,
    max_states: int = ORACLE_MAX_STATES,
) -> bool:
    """Reference implementation of the g query over bounded walks."""

    ctx = _QueryContext(query)
    _check_oracle_size(ctx.machine, max_states)
    steps = _oracle_bound(ctx.machine, bound)
    return ctx.machine.memo(_oracle_g, query.handshake, ctx.mode, ctx.env, ctx.start, steps)


def oracle_fg_check(
    query: TemporalQuery,
    bound: int | None = None,
    max_states: int = ORACLE_MAX_STATES,
) -> bool:
    """Reference implementation of the fg query over bounded walks."""

    ctx = _QueryContext(query)
    _check_oracle_size(ctx.machine, max_states)
    steps = _oracle_bound(ctx.machine, bound)
    machine = ctx.machine
    return any(
        machine.memo(_oracle_g, query.handshake, ctx.mode, ctx.env, state, steps)
        for state in machine.memo(_walk_states, ctx.env, ctx.start, steps)
    )


# --- Cross validation -------------------------------------------------------

@dataclass(frozen=True)
class Disagreement:
    """One query where the graph algorithm and the oracle differ."""

    op: str
    handshake: str
    mode: Mode
    env: Environment
    start: str
    fast: bool
    slow: bool


def cross_validate(
    machine: XdiMachine,
    bound: int | None = None,
    max_states: int = ORACLE_MAX_STATES,
) -> tuple[Disagreement, ...]:
    """Compare g/fg against the oracle over every state, handshake, mode,
    and environment; an empty result means full agreement."""

    _check_oracle_size(machine, max_states)
    handshakes = sorted(machine.handshakes)
    states = [entry.name for entry in machine.states]
    found: list[Disagreement] = []
    for env in reasonable_envs(machine):
        for handshake in handshakes:
            for mode in (BLOCKING, IDLING):
                for start in states:
                    query = TemporalQuery(machine, handshake, mode, env, start)
                    pairs = (
                        ("g", g_check(query).holds, oracle_g_check(query, bound, max_states)),
                        ("fg", fg_check(query).holds, oracle_fg_check(query, bound, max_states)),
                    )
                    for op, fast, slow in pairs:
                        if fast != slow:
                            found.append(
                                Disagreement(op, handshake, mode, env, start, fast, slow)
                            )
    return tuple(found)
