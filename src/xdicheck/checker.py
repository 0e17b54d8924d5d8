"""Temporal predicates over machines under stable-wire environments.

g_check decides "globally" queries: every state reachable from the start
must be transient, carry the queried label, or be a dead end under the
environment. fg_check decides "eventually globally" queries, EF AG pass
in CTL. blocked and idle are the fg forms from the initial state, with
the blocking and idling labels.

Every answer comes from _EnvAnswers, the one g/fg engine: one exploration
of the enabled graph, then backward passes over its predecessor lists
from the failing states. g_check and fg_check build one from their start
and read their trace and witness from it. g_check settles no key: every
state it reaches is reached from its start, so g holds there iff no
reached state fails. fg_check settles its (handshake, mode) key with one
_back_closure, for the doomed states; _env_classes, the walk behind
formulas.verify_condition, builds one per class of environments and
settles each key it is asked the same way, sharing it among its queries.
cross_validate builds one per environment and settles every key at once,
in two _back_fixpoint passes that carry one bit per key: one for the
doomed states and one for the hopeful ones. The same fixpoint, with one
bit per instance, settles which instances can still move in a product
(circuit._can_move). A query costs time linear in the reachable states
plus edges, and a failing g query explores the whole reachable graph.

The bounded walk oracle (oracle_g_check, oracle_fg_check) answers the same
queries from the definitions, with none of the engine's code. It holds its
sets of states as bitmasks, one bit per declared state, and reads each
declared state's moves once per environment, before its walks:
_oracle_walks gives every state's walk mask and the states that may
fail, per environment and bound, and _oracle_sets the masks of the
states where g holds and where fg holds, per handshake and mode.
cross_validate compares those two masks with the engine's sets per
(environment, handshake, mode) and lists disagreements state by state
only where a pair differs.

A dead end satisfies either mode: a machine stranded by its environment
stays in that state forever, which is vacuously permanent for both
readings. Both the graph algorithms and the walk-enumeration oracle
apply the same rule, so the two implementations stay comparable.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, Mapping, Sequence

from .labeling import BLOCKING, IDLING, Mode, compute_block_idle
from .machine import OUTPUT, TRANSIENT, Environment, XdiMachine, enabled_transitions, is_environment
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
    return machine.entry(query.resolved_start()).name


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

    Returns the discovery order, the predecessors of each reached state
    over the enabled edges, in discovery order of the source (the first
    is a non-start state's breadth-first parent), and the input wires
    tested against env, in first-test order (a dict used as an ordered
    set). The order list is the queue: the loop over it sees the states
    appended while it runs. The enabled_transitions filter is inlined so
    each test can be recorded as it is made.
    """

    preds: dict[str, list[str]] = {start: [] for start in starts}
    order = list(preds)
    tested: dict[tuple[str, str], None] = {}
    entries = machine.state_map
    try:
        for state in order:
            for wire, target in entries[state].transitions:
                if wire.direction != OUTPUT:
                    key = (wire.handshake, wire.phase)
                    tested[key] = None
                    if key in env:
                        continue
                if target in preds:
                    preds[target].append(state)
                else:
                    preds[target] = [state]
                    order.append(target)
    except KeyError:
        machine.entry(state)  # raises entry()'s ValueError for an undeclared state
        raise
    return order, preds, tested


def _back_closure(preds: Mapping | Sequence, seeds: Iterable) -> set:
    """The seeds plus every state with a path into one of them. preds[state]
    lists the states with an edge into state: by name over a machine's
    enabled transitions, by number over a product (circuit._can_move)."""

    closure = set(seeds)
    pending = list(closure)
    for state in pending:  # pending grows as the loop runs
        for pred in preds[state]:
            if pred not in closure:
                closure.add(pred)
                pending.append(pred)
    return closure


def _back_fixpoint(preds: Mapping | Sequence, masks: dict | list) -> dict | list:
    """The least masks above the given ones in which every state's mask
    holds the masks of the states it has an edge into: masks[p] holds
    masks[s] for every p in preds[s]. masks is indexed as preds is, by
    name over a machine's enabled transitions (_EnvAnswers.key_masks) or
    by number over a product (circuit._can_move); it is updated in place
    and returned. Bit k of a state's result is set iff the state is in
    the backward closure of the states whose given mask has bit k. A
    state enters the worklist only when its mask grows and is never in
    it twice, so the cost is at most bits x (states + edges)."""

    worklist = [s for s in (range(len(masks)) if isinstance(masks, list) else masks) if masks[s]]
    queued = set(worklist)
    while worklist:
        s = worklist.pop()
        queued.discard(s)
        mask = masks[s]
        for prior in preds[s]:
            if mask & ~masks[prior]:
                masks[prior] |= mask
                if prior not in queued:
                    queued.add(prior)
                    worklist.append(prior)
    return masks


def _trace_to(preds: Mapping | Sequence, start, state) -> tuple:
    """The breadth-first tree path from start to state, over predecessor
    lists whose first entry is the parent: by name from _reach over a
    machine, by number from compose over a product (circuit._path)."""

    trail = [state]
    while state != start:
        state = preds[state][0]
        trail.append(state)
    return tuple(reversed(trail))


def g_check(query: TemporalQuery) -> CheckResult:
    """Check that every reachable state passes the mode test.

    Every reached state is reached from the start, so the check holds iff
    no reached state fails, and no backward pass is made. On failure the
    counterexample is a shortest trace to the first failing state in
    breadth-first order. When the check holds, visited is exactly the
    reachable set from the start.
    """

    start = _checked_start(query)
    answers = _EnvAnswers(query.machine, query.env, (start,))
    order, preds = answers.order, answers.preds
    failing = answers.failing(query.handshake, query.mode)
    if not failing:
        return CheckResult(True, frozenset(order), None)
    expanded = set(order[: order.index(failing[0])])
    visited = frozenset([start, *(state for state in order[1:] if preds[state][0] in expanded)])
    return CheckResult(False, visited, _trace_to(preds, start, failing[0]))


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
    return CheckResult(True, visited, _trace_to(answers.preds, start, witness))


def blocked(machine: XdiMachine, handshake: str, env: Environment) -> bool:
    """Eventually permanently blocking, from the initial state."""

    return fg_check(TemporalQuery(machine, handshake, BLOCKING, env)).holds


def idle(machine: XdiMachine, handshake: str, env: Environment) -> bool:
    """Eventually permanently idling, from the initial state."""

    return fg_check(TemporalQuery(machine, handshake, IDLING, env)).holds


def _failing(machine: XdiMachine, handshake: str, mode: Mode, states: Iterable[str]) -> list[str]:
    """The given states, in their order, that fail the (handshake, mode)
    test wherever they can move: those neither transient nor labeled with
    the mode."""

    blocking = compute_block_idle(machine, handshake)
    entries = machine.state_map
    other = mode != BLOCKING  # the label (True: blocking) of the other mode
    return [state for state in states if blocking[state] == other and entries[state].kind != TRANSIENT]


def _failing_keys(machine: XdiMachine, keys: Sequence[tuple[str, Mode]]) -> dict[str, int]:
    """Per declared state, the mask of the keys (handshake, mode) whose
    test it fails wherever it can move: bit k for keys[k]. Reads the
    labels in key order, so an ambiguous handshake raises at its first key."""

    masks = dict.fromkeys(machine.state_map, 0)
    for k, (handshake, mode) in enumerate(keys):
        for state in _failing(machine, handshake, mode, masks):
            masks[state] |= 1 << k
    return masks


class _EnvAnswers:
    """The g and fg answers for every handshake, mode and reached state
    under one environment, from one exploration.

    The enabled graph reachable from the starts is explored once (_reach):
    order holds the reached states in discovery order and preds each
    one's predecessors, the first of which is a non-start state's
    breadth-first parent, so traces need no parent table. A state fails a
    (handshake, mode) key when it can move and is neither transient nor
    labeled with the mode (_failing). The doomed states of a key are the
    backward closure of its failing states: g holds at a state iff it is
    not doomed, and fg iff it is hopeful, in the backward closure of the
    undoomed states. doomed settles one key on first use, with one
    _back_closure; key_masks settles many keys at once, with one bit per
    key, in two _back_fixpoint passes: one for the doomed states and one
    for the hopeful ones.
    tested holds the input wires the exploration tested against the
    environment, in first-test order: every environment that answers
    those wires alike gets the same graph, so the same answers. Build one
    per query or per environment and drop it after: it is never memoised
    on the machine.
    """

    __slots__ = ("machine", "order", "preds", "tested", "movers", "_doomed")

    def __init__(self, machine: XdiMachine, env: Environment, starts: Sequence[str]) -> None:
        self.machine = machine
        self.order, self.preds, self.tested = _reach(machine, env, *starts)
        # A state with an enabled move is some state's predecessor.
        self.movers = {pred for preds in self.preds.values() for pred in preds}
        self._doomed: dict[tuple[str, Mode], set[str]] = {}

    def failing(self, handshake: str, mode: Mode) -> list[str]:
        """The failing states, in discovery order."""

        return _failing(self.machine, handshake, mode, filter(self.movers.__contains__, self.order))

    def doomed(self, handshake: str, mode: Mode) -> set[str]:
        key = (handshake, mode)
        if key not in self._doomed:
            self._doomed[key] = _back_closure(self.preds, self.failing(handshake, mode))
        return self._doomed[key]

    def key_masks(self, failing: Mapping[str, int], every: int) -> tuple[dict[str, int], dict[str, int]]:
        """Per reached state, the mask of the keys it is doomed for and the
        mask of those it is hopeful for, given _failing_keys's masks and
        every, the mask of all their keys: bit k of a state's first mask is
        set iff the state is in doomed(*keys[k]), and of its second iff the
        state is in the backward closure of the states not in
        doomed(*keys[k])."""

        movers = self.movers
        seeds = {state: failing[state] if state in movers else 0 for state in self.order}
        doomed = _back_fixpoint(self.preds, seeds)
        hopeful = _back_fixpoint(self.preds, {state: every & ~mask for state, mask in doomed.items()})
        return doomed, hopeful


def _env_classes(machine: XdiMachine, outcome: Callable[[Callable[[str, Mode], bool]], object]):
    """Call outcome once per class of environments; return the trie
    that files its values, which _find_class reads.

    The environments that answer alike the input wires an exploration from
    the initial state tests get the same graph, hence the same fg answers:
    a class. outcome gets answer(handshake, mode), the fg answer at the
    initial state of the class's smallest environment, read from the
    doomed set alone; its first call explores. Taking the classes size by
    size, each size in wire order, is reasonable_envs order, so an error
    outcome raises is the first environment's. An inner node is [wire,
    live branch, stable branch]; a leaf is a class's value, anything but a
    list. The wires tested past those that fix a class are live in its
    smallest environment: each one's node hangs in the live branch of the
    one before (the first in the class's slot), and its stable branch is
    the slot of a child class. Keep values small: a verdict keeps its trie.
    """

    wires = machine.sorted_input_wires
    rank = {wire: position for position, wire in enumerate(wires)}
    top: list = [None]
    # A class of this size by its smallest environment, as positions in
    # wires: how many of its exploration's tested wires fix it, and its slot.
    level: dict[tuple[int, ...], tuple[int, list, int]] = {(): (0, top, 0)}
    while level:
        larger = {}
        for positions in sorted(level):
            fixed, holder, index = level[positions]
            env = frozenset(wires[position] for position in positions)
            made: list[_EnvAnswers] = []

            def answer(handshake: str, mode: Mode) -> bool:
                if not made:
                    made.append(_EnvAnswers(machine, env, (machine.init_state,)))
                # Every state is reached from the only start, so fg holds
                # there iff some state is not doomed.
                return len(made[0].doomed(handshake, mode)) < len(made[0].order)

            value = outcome(answer)
            tested = list(made[0].tested) if made else []
            for depth in range(fixed, len(tested)):
                holder[index] = node = [tested[depth], None, None]
                larger[tuple(sorted((*positions, rank[tested[depth]])))] = (depth + 1, node, 2)
                holder, index = node, 1
            holder[index] = value
        level = larger
    return top[0]


def _find_class(trie, env: Environment):
    """The value filed for env's class in a trie from _env_classes."""

    while type(trie) is list:
        trie = trie[2 if trie[0] in env else 1]
    return trie


# --- Bounded walk-enumeration oracle ---------------------------------------
#
# The oracle transliterates the quantified definitions: a g query holds iff
# the final state of every walk of at most `bound` steps passes the mode
# test, and an fg query holds iff some such walk ends in a state whose g
# query holds. Since every prefix of a walk is a walk, the final states of
# all bounded walks are exactly the states reachable within the bound,
# which _oracle_walks collects one breadth-first layer per step. Sets of
# states are bitmasks: bit i stands for the i-th declared state, and an
# undeclared target takes the next free bit. Per environment and bound,
# once per machine through XdiMachine.memo, _oracle_walks reads every
# declared state's enabled moves once, before the walks, as the mask of
# their targets, and keeps only ints: every declared state's walk mask and
# the mask of the states that may fail a mode test. _oracle_sets answers
# both queries for every start at once: per handshake and mode, the g mask
# holds the starts whose walk misses the failing states, and the fg mask
# the starts whose walk meets the g mask.
# The oracle reads nothing of the g/fg engine above.

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


def _state_bits(machine: XdiMachine) -> dict[str, int]:
    """Each declared state's bit, in declaration order."""

    return {name: 1 << position for position, name in enumerate(machine.state_map)}


def _oracle_walks(
    machine: XdiMachine, env: Environment, bound: int
) -> tuple[tuple[tuple[int, int], ...], int]:
    """Every declared state's bit and walk mask under env, in declaration
    order, and the mask of the states that may fail a mode test: those
    with an enabled move that are not transient.

    Every declared state's enabled moves are read once, in declaration
    order, before any walk, as the mask of their targets; the same loop
    builds the mask of the states that may fail. A walk mask holds the
    final states of all walks from the state taking at most `bound` steps.
    Layer k holds the states first reached in k steps; a walk stops at the
    bound or at the first empty layer. A walk that expands an undeclared
    state raises entry()'s ValueError.
    """

    bits = _state_bits(machine)
    names = list(bits)
    declared = list(bits.values())
    moves: dict[int, int] = {}  # a declared state's bit -> the mask of its enabled moves' targets
    may_fail = 0
    for bit, entry in zip(declared, machine.state_map.values()):
        mask = 0
        for _, target in enabled_transitions(machine, entry.name, env):
            if target not in bits:
                bits[target] = 1 << len(names)
                names.append(target)
            mask |= bits[target]
        moves[bit] = mask
        if mask and not entry.is_transient:
            may_fail |= bit
    walks = []
    try:
        for start in declared:
            reached = layer = start
            for _ in range(bound):
                step = 0
                while layer:
                    bit = layer & -layer
                    layer ^= bit
                    step |= moves[bit]
                layer = step & ~reached
                if not layer:
                    break
                reached |= layer
            walks.append((start, reached))
    except KeyError:
        machine.entry(names[bit.bit_length() - 1])  # raises entry()'s ValueError for an undeclared state
        raise
    return tuple(walks), may_fail


def _blocking_mask(machine: XdiMachine, handshake: str) -> int:
    """The mask of the declared states labeled blocking for the handshake."""

    labels = compute_block_idle(machine, handshake)
    return sum(bit for state, bit in _state_bits(machine).items() if labels[state])


def _oracle_sets(
    walks: Sequence[tuple[int, int]], may_fail: int, blocking: int, mode: Mode
) -> tuple[int, int]:
    """The masks of the states where the g query holds and where the fg
    query holds, from _oracle_walks and the handshake's blocking mask."""

    failing = may_fail & (~blocking if mode == BLOCKING else blocking)
    g = fg = 0
    for start, walk in walks:
        if not walk & failing:
            g |= start
    for start, walk in walks:
        if walk & g:
            fg |= start
    return g, fg


def _oracle_answers(query: TemporalQuery, bound: int | None, max_states: int) -> tuple[bool, bool]:
    """The oracle's g and fg answers at the query's start."""

    start = _checked_start(query)
    machine = query.machine
    _check_oracle_size(machine, max_states)
    steps = _oracle_bound(machine, bound)
    walks, may_fail = machine.memo(_oracle_walks, query.env, steps)
    g, fg = _oracle_sets(walks, may_fail, _blocking_mask(machine, query.handshake), query.mode)
    bit = _state_bits(machine)[start]
    return g & bit != 0, fg & bit != 0


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


def _per_key(masks: Mapping[str, int], bits: Mapping[str, int], count: int) -> list[int]:
    """Per-state key masks turned into per-key state masks: entry k holds
    the bits of the states whose key mask has bit k. The states are
    grouped by key mask first, since a pass leaves few distinct masks."""

    groups: dict[int, int] = {}
    for state, mask in masks.items():
        groups[mask] = groups.get(mask, 0) | bits[state]
    states = [0] * count
    for mask, held in groups.items():
        while mask:
            low = mask & -mask
            states[low.bit_length() - 1] |= held
            mask ^= low
    return states


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
    handshake. Per environment the engine settles every (handshake, mode)
    key at once, in two fixpoint passes (_EnvAnswers.key_masks); per key,
    its g set (the undoomed states) and fg set (the hopeful ones) are
    turned into state masks and compared with the oracle's masks, and
    only a pair that differs is walked state by state, in declaration
    order, g before fg. The engine explores from every state first, so it
    meets an undeclared state before the oracle's walks; the labels of
    every handshake are read in sorted order after the first
    environment's exploration and walks, so an ambiguous machine raises
    at the same handshake as a query would.
    """

    _check_oracle_size(machine, max_states)
    handshakes = sorted(machine.handshakes)
    if handshakes:
        compute_block_idle(machine, handshakes[0])
    steps = _oracle_bound(machine, bound)
    states = [entry.name for entry in machine.states]
    bits = _state_bits(machine)
    every = sum(bits.values())
    keys = [(handshake, mode) for handshake in handshakes for mode in (BLOCKING, IDLING)]
    failing: dict[str, int] | None = None  # read with the labels, in the first environment
    found: list[Disagreement] = []
    for env in reasonable_envs(machine):
        answers = _EnvAnswers(machine, env, states)
        walks, may_fail = machine.memo(_oracle_walks, env, steps)
        if failing is None:
            failing = _failing_keys(machine, keys)
            blocking = {handshake: _blocking_mask(machine, handshake) for handshake in handshakes}
        doomed, hopeful = answers.key_masks(failing, (1 << len(keys)) - 1)
        doomed_states, fg_states = (_per_key(masks, bits, len(keys)) for masks in (doomed, hopeful))
        for k, (handshake, mode) in enumerate(keys):
            key = 1 << k
            oracle_g, oracle_fg = _oracle_sets(walks, may_fail, blocking[handshake], mode)
            if oracle_g == every ^ doomed_states[k] and oracle_fg == fg_states[k]:
                continue
            for start in states:
                bit = bits[start]
                for op, fast, slow in (
                    ("g", doomed[start] & key == 0, oracle_g & bit != 0),
                    ("fg", hopeful[start] & key != 0, oracle_fg & bit != 0),
                ):
                    if fast != slow:
                        found.append(Disagreement(op, handshake, mode, env, start, fast, slow))
    return tuple(found)
