"""Temporal predicates over machines under stable-wire environments.

g_check decides "globally" queries: every state reachable from the start
must be transient, carry the queried label, or be a dead end under the
environment. fg_check decides "eventually globally" queries, EF AG pass
in CTL. blocked and idle are the fg forms from the initial state, with
the blocking and idling labels.

Every answer comes from _EnvAnswers, the one g/fg engine: one exploration
of the enabled graph, then one backward closure of the failing states per
(handshake, mode). g_check and fg_check build one from their start and read
their trace and witness from it; cross validation builds one per
environment and condition verification one per class of environments
(_EnvClasses), and each shares it among its queries. A query costs time
linear in the reachable states plus edges, and a failing g query explores
the whole reachable graph.

The bounded walk oracle (oracle_g_check, oracle_fg_check) answers the same
queries from the definitions, with none of the engine's code: _oracle_sets
gives the states where g holds and those where fg holds, for one
environment, handshake, mode and bound. cross_validate compares those two
sets with the engine's per (environment, handshake, mode) and lists
disagreements state by state only where a pair of sets differs.

A dead end satisfies either mode: a machine stranded by its environment
stays in that state forever, which is vacuously permanent for both
readings. Both the graph algorithms and the walk-enumeration oracle
apply the same rule, so the two implementations stay comparable.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from typing import Iterable, Sequence

from .labeling import BLOCKING, IDLING, Mode, compute_block_idle
from .machine import OUTPUT, Environment, XdiMachine, enabled_transitions, is_environment
from .record import Record

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

class TemporalQuery(Record):
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


class CheckResult(Record):
    """Outcome plus evidence.

    visited is the reachable state set, except for a failed g check:
    there it holds the states a breadth-first search from the start has
    discovered when it dequeues the first failing state, that is, the
    start and the successors of every state dequeued before that one.
    For a failed g check the counterexample is a shortest trace from the
    start to that failing state; for a successful fg check it is a trace
    from the start to the witness state.
    """

    holds: bool
    visited: frozenset[str]
    counterexample: tuple[str, ...] | None

    @property
    def witness(self) -> str | None:
        if self.holds and self.counterexample:
            return self.counterexample[-1]
        return None


def _checked_start(query: TemporalQuery) -> str:
    """The query's start state, once the query is known to be well formed.

    Checks, in order, the mode, the environment, the handshake's labels
    (unknown or ambiguous handshakes raise from labeling) and the start.
    """

    machine = query.machine
    if query.mode not in (BLOCKING, IDLING):
        raise ValueError(f"unknown mode {query.mode!r}")
    if not is_environment(machine, query.env):
        raise ValueError(f"not an environment of {machine.name}")
    compute_block_idle(machine, query.handshake)
    start = query.resolved_start()
    if start not in machine.state_map:
        raise ValueError(f"machine {machine.name} has no state {start!r}")
    return start


def reasonable_envs(machine: XdiMachine) -> tuple[Environment, ...]:
    """All environments, smallest first and lexicographic within a size;
    built once per machine."""

    return machine.memo(_environments)


def _environments(machine: XdiMachine) -> tuple[Environment, ...]:
    wires = machine.sorted_input_wires
    return tuple(
        frozenset(subset)
        for size in range(len(wires) + 1)
        for subset in combinations(wires, size)
    )


def _reach(machine: XdiMachine, env: Environment, *starts: str):
    """Breadth-first reachability from the start states.

    Returns the discovery order, parent links for trace rebuilding (None
    at each start), the predecessors of each reached state over the
    enabled edges, and the input wires tested against env, in first-test
    order (a dict used as an ordered set). The enabled_transitions filter
    is inlined so each test can be recorded as it is made.
    """

    parents: dict[str, str | None] = dict.fromkeys(starts)
    preds: dict[str, list[str]] = {start: [] for start in parents}
    order: list[str] = []
    tested: dict[tuple[str, str], None] = {}
    entry = machine.entry
    queue = deque(parents)
    while queue:
        state = queue.popleft()
        order.append(state)
        for wire, target in entry(state).transitions:
            if wire.direction != OUTPUT:
                key = (wire.handshake, wire.phase)
                tested[key] = None
                if key in env:
                    continue
            if target not in parents:
                parents[target] = state
                preds[target] = []
                queue.append(target)
            preds[target].append(state)
    return order, parents, preds, tested


def _back_closure(preds: dict[str, list[str]], seeds: Iterable[str]) -> set[str]:
    """The seeds plus every state with an enabled path into one of them."""

    closure = set(seeds)
    pending = list(closure)
    while pending:
        for pred in preds[pending.pop()]:
            if pred not in closure:
                closure.add(pred)
                pending.append(pred)
    return closure


def _trace_to(parents: dict[str, str | None], state: str) -> tuple[str, ...]:
    trail = []
    cursor: str | None = state
    while cursor is not None:
        trail.append(cursor)
        cursor = parents[cursor]
    return tuple(reversed(trail))


def g_check(query: TemporalQuery) -> CheckResult:
    """Check that every reachable state passes the mode test.

    On failure the counterexample is a shortest trace to the first failing
    state in breadth-first order. When the check holds, visited is exactly
    the reachable set from the start.
    """

    start = _checked_start(query)
    answers = _EnvAnswers(query.machine, query.env, (start,))
    order, parents = answers.order, answers.parents
    if answers.g(query.handshake, query.mode, start):
        return CheckResult(True, frozenset(order), None)
    first = answers.failing(query.handshake, query.mode)[0]
    expanded = set(order[: order.index(first)])
    visited = frozenset([start, *(state for state in order if parents[state] in expanded)])
    return CheckResult(False, visited, _trace_to(parents, first))


def fg_check(query: TemporalQuery) -> CheckResult:
    """Find the first reachable state, in breadth-first order, where g holds.

    The witness is the first reachable state that is not doomed, and the
    evidence trace leads from the start to it.
    """

    start = _checked_start(query)
    answers = _EnvAnswers(query.machine, query.env, (start,))
    doomed = answers.doomed(query.handshake, query.mode)
    visited = frozenset(answers.order)
    witness = next((state for state in answers.order if state not in doomed), None)
    if witness is None:
        return CheckResult(False, visited, None)
    return CheckResult(True, visited, _trace_to(answers.parents, witness))


def blocked(machine: XdiMachine, handshake: str, env: Environment) -> bool:
    """Eventually permanently blocking, from the initial state."""

    return fg_check(TemporalQuery(machine, handshake, BLOCKING, env)).holds


def idle(machine: XdiMachine, handshake: str, env: Environment) -> bool:
    """Eventually permanently idling, from the initial state."""

    return fg_check(TemporalQuery(machine, handshake, IDLING, env)).holds


class _EnvAnswers:
    """The g and fg answers for every handshake, mode and reached state
    under one environment, from one exploration.

    The enabled graph reachable from the starts is explored once. A state
    fails when it can move but is neither transient nor labeled with the
    queried mode. Per (handshake, mode), on first use, the backward closure
    of the failing states, the doomed states, is computed: g holds at a
    state iff it is not doomed, and fg iff it lies in the backward closure
    of the undoomed states. From a graph's only start every state is
    reached, so there fg is just "some state is not doomed". tested holds
    the input wires the exploration tested against the environment, in
    first-test order: every environment that answers those wires alike
    gets the same graph, so the same answers. Build one per query or per
    environment and drop it after: it is never memoised on the machine.
    """

    __slots__ = (
        "machine", "root", "order", "parents", "preds", "tested", "movers", "_doomed", "_hopeful"
    )

    def __init__(self, machine: XdiMachine, env: Environment, starts: Sequence[str]) -> None:
        self.machine = machine
        self.root = starts[0] if len(starts) == 1 else None
        self.order, self.parents, self.preds, self.tested = _reach(machine, env, *starts)
        # A state with an enabled move is some state's predecessor.
        self.movers = {pred for preds in self.preds.values() for pred in preds}
        self._doomed: dict[tuple[str, Mode], set[str]] = {}
        self._hopeful: dict[tuple[str, Mode], set[str]] = {}

    def failing(self, handshake: str, mode: Mode) -> list[str]:
        """The failing states, in discovery order."""

        labels = compute_block_idle(self.machine, handshake)
        entry = self.machine.entry
        return [
            state
            for state in self.order
            if state in self.movers
            and labels.mode(state) != mode
            and not entry(state).is_transient
        ]

    def doomed(self, handshake: str, mode: Mode) -> set[str]:
        key = (handshake, mode)
        if key not in self._doomed:
            self._doomed[key] = _back_closure(self.preds, self.failing(handshake, mode))
        return self._doomed[key]

    def g(self, handshake: str, mode: Mode, state: str) -> bool:
        return state not in self.doomed(handshake, mode)

    def hopeful(self, handshake: str, mode: Mode) -> set[str]:
        """The backward closure of the undoomed states: where fg holds."""

        key = (handshake, mode)
        if key not in self._hopeful:
            doomed = self.doomed(handshake, mode)
            undoomed = [state for state in self.order if state not in doomed]
            self._hopeful[key] = _back_closure(self.preds, undoomed)
        return self._hopeful[key]

    def fg(self, handshake: str, mode: Mode, state: str) -> bool:
        if state == self.root:
            return len(self.doomed(handshake, mode)) < len(self.order)
        return state in self.hopeful(handshake, mode)


class _EnvClasses:
    """Environments grouped by their answers to the input wires an
    exploration from the initial state tests.

    Each answer to "is this wire stable?" fixes which wire the exploration
    tests next, so two environments that answer the tested wires alike get
    the same order, parents and preds, hence the same fg answer for every
    handshake and mode. The trie branches on those answers: an inner node
    is [wire, live branch, stable branch], and a leaf is the value filed
    for its class, anything but a list or None. Keep small values in it:
    a verdict keeps its trie, and a leaf holding an _EnvAnswers would keep
    every class's graph alive.
    """

    __slots__ = ("_top",)

    def __init__(self) -> None:
        self._top: list = [None]  # holds the root at index 0

    def find(self, env: Environment):
        """The value filed for env's class, or None."""

        node = self._top[0]
        while type(node) is list:
            node = node[2 if node[0] in env else 1]
        return node

    def add(self, env: Environment, tested: Iterable[tuple[str, str]], value) -> None:
        """File value for env's class; tested is what env's exploration
        tested, in first-test order."""

        holder, index, depth = self._top, 0, 0
        while type(holder[index]) is list:
            holder = holder[index]
            index, depth = 2 if holder[0] in env else 1, depth + 1
        # The walk followed the first depth tested wires; branch on the rest.
        node = value
        for key in reversed(list(tested)[depth:]):
            node = [key, None, node] if key in env else [key, node, None]
        holder[index] = node


# --- Bounded walk-enumeration oracle ---------------------------------------
#
# The oracle transliterates the quantified definitions: a g query holds iff
# the final state of every walk of at most `bound` steps passes the mode
# test, and an fg query holds iff some such walk ends in a state whose g
# query holds. Since every prefix of a walk is a walk, the final states of
# all bounded walks are exactly the states reachable within the bound,
# which _walk_states collects one breadth-first layer per step.
# _oracle_sets answers both queries for every start at once. Per
# environment and bound, _oracle_walks builds every state's walk set and
# lists the states that may fail a mode test, once per machine through
# XdiMachine.memo. Per handshake and mode, the g set holds the starts whose
# walk set misses the failing states, and the fg set the starts whose walk
# set meets the g set. The oracle reads nothing of the g/fg engine above.

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


def _oracle_walks(
    machine: XdiMachine, env: Environment, bound: int
) -> tuple[dict[str, frozenset[str]], list[str]]:
    """Every state's walk set under env, and the states that may fail a
    mode test: those with an enabled move that are not transient."""

    walks = {entry.name: _walk_states(machine, env, entry.name, bound) for entry in machine.states}
    candidates = [
        state
        for state in walks
        if not machine.entry(state).is_transient and enabled_transitions(machine, state, env)
    ]
    return walks, candidates


def _oracle_sets(
    machine: XdiMachine, handshake: str, mode: Mode, env: Environment, bound: int
) -> tuple[set[str], set[str]]:
    """The states where the g query holds, and those where the fg query holds."""

    walks, candidates = machine.memo(_oracle_walks, env, bound)
    labels = compute_block_idle(machine, handshake)
    failing = {state for state in candidates if labels.mode(state) != mode}
    g = {state for state, walk in walks.items() if failing.isdisjoint(walk)}
    fg = {state for state, walk in walks.items() if not g.isdisjoint(walk)}
    return g, fg


def _oracle_answers(query: TemporalQuery, bound: int | None, max_states: int) -> tuple[bool, bool]:
    """The oracle's g and fg answers at the query's start."""

    start = _checked_start(query)
    machine = query.machine
    _check_oracle_size(machine, max_states)
    steps = _oracle_bound(machine, bound)
    g, fg = _oracle_sets(machine, query.handshake, query.mode, query.env, steps)
    return start in g, start in fg


def oracle_g_check(
    query: TemporalQuery,
    bound: int | None = None,
    max_states: int = ORACLE_MAX_STATES,
) -> bool:
    """Reference implementation of the g query over bounded walks."""

    return _oracle_answers(query, bound, max_states)[0]


def oracle_fg_check(
    query: TemporalQuery,
    bound: int | None = None,
    max_states: int = ORACLE_MAX_STATES,
) -> bool:
    """Reference implementation of the fg query over bounded walks."""

    return _oracle_answers(query, bound, max_states)[1]


# --- Cross validation -------------------------------------------------------

class Disagreement(Record):
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
    and environment; an empty result means full agreement.

    The queries are validated once for the sweep, not once each: the
    size limit first, then, as the first query would, the first
    handshake's labels, then the bound, whether or not the machine has a
    handshake. Per environment, handshake and mode, the engine's g set
    (the undoomed states) and fg set (their backward closure) are compared
    with the oracle's; only a pair that differs is walked state by state,
    in declaration order, g before fg. The engine's sets read each
    handshake's labels before the oracle's, so an ambiguous machine raises
    at the same handshake as a query would.
    """

    _check_oracle_size(machine, max_states)
    handshakes = sorted(machine.handshakes)
    if handshakes:
        compute_block_idle(machine, handshakes[0])
    steps = _oracle_bound(machine, bound)
    states = [entry.name for entry in machine.states]
    every = set(states)
    found: list[Disagreement] = []
    for env in reasonable_envs(machine):
        answers = _EnvAnswers(machine, env, states)
        for handshake in handshakes:
            for mode in (BLOCKING, IDLING):
                g = every - answers.doomed(handshake, mode)
                fg = answers.hopeful(handshake, mode)
                oracle_g, oracle_fg = _oracle_sets(machine, handshake, mode, env, steps)
                if g == oracle_g and fg == oracle_fg:
                    continue
                for start in states:
                    for op, fast, slow in (
                        ("g", start in g, start in oracle_g),
                        ("fg", start in fg, start in oracle_fg),
                    ):
                        if fast != slow:
                            found.append(
                                Disagreement(op, handshake, mode, env, start, fast, slow)
                            )
    return tuple(found)
