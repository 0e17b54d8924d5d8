"""Reference g and fg checks, used only by the tests.

reference_g_check is the breadth-first loop that g_check ran before the
per-environment answer table became the only g/fg engine: it tests each
state as it is dequeued and stops at the first failing one.
reference_fg_check is the fg fixpoint as it stood beside that loop, with
its own failing-state rule. Both validate a query as the checker did, in
the same order and with the same messages.

reference_cross_validate is the per-query loop that cross_validate ran
before it compared whole answer sets: for every environment, handshake,
mode and start, one g and one fg answer from the engine and one of each
from the walk oracle, asked query by query (_oracle_g, _oracle_fg).
Its engine fg answer is reference_hopeful, the one backward closure per
(handshake, mode) key that _EnvAnswers.hopeful made before key_masks
settled every key of an environment in one pass; the tests hold
key_masks to it.

_walk_states is the oracle's walk as a set of state names, the loop the
checker ran before its walks became bitmasks; _oracle_g and _oracle_fg
read it.

reference_reach is the exploration that checker._reach ran before its
discovery list became its queue: a deque beside the list, and a parent
table beside the predecessor lists. reference_trace rebuilds a trace
from such a table. The references above read these two, not the
engine's exploration.
"""

from collections import deque

from xdicheck.checker import (
    BLOCKING,
    IDLING,
    CheckResult,
    Disagreement,
    _back_closure,
    _check_oracle_size,
    _EnvAnswers,
    _oracle_bound,
    reasonable_envs,
)
from xdicheck.labeling import compute_block_idle
from xdicheck.machine import OUTPUT, enabled_transitions, is_environment


def reference_reach(machine, env, *starts):
    """Breadth-first reachability from the start states: the discovery
    order, parent links (None at each start), the predecessors of each
    reached state over the enabled edges, and the input wires tested
    against env, in first-test order."""

    parents = dict.fromkeys(starts)
    preds = {start: [] for start in parents}
    order = []
    tested = {}
    entries = machine.state_map
    queue = deque(parents)
    try:
        while queue:
            state = queue.popleft()
            order.append(state)
            for wire, target in entries[state].transitions:
                if wire.direction != OUTPUT:
                    key = (wire.handshake, wire.phase)
                    tested[key] = None
                    if key in env:
                        continue
                if target in parents:
                    preds[target].append(state)
                else:
                    parents[target] = state
                    preds[target] = [state]
                    queue.append(target)
    except KeyError:
        machine.entry(state)  # raises entry()'s ValueError for an undeclared state
        raise
    return order, parents, preds, tested


def reference_trace(parents, state) -> tuple[str, ...]:
    """The states from the start to state, following the parent links."""

    trail = []
    while state is not None:
        trail.append(state)
        state = parents[state]
    return tuple(reversed(trail))


class _QueryContext:
    __slots__ = ("machine", "env", "mode", "labels", "start")

    def __init__(self, query) -> None:
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
        if self.labels[state] == (self.mode == BLOCKING):
            return True
        return not enabled_transitions(self.machine, state, self.env)


def reference_g_check(query) -> CheckResult:
    """Every reachable state passes; on failure, the states discovered so
    far and a shortest trace to the first failing state dequeued."""

    ctx = _QueryContext(query)
    parents = {ctx.start: None}
    queue = deque([ctx.start])
    seen = []
    while queue:
        state = queue.popleft()
        seen.append(state)
        if not ctx.passes(state):
            return CheckResult(False, frozenset(parents), reference_trace(parents, state))
        for _, target in enabled_transitions(ctx.machine, state, ctx.env):
            if target not in parents:
                parents[target] = state
                queue.append(target)
    return CheckResult(True, frozenset(seen), None)


def reference_fg_check(query) -> CheckResult:
    """The first reachable state, in breadth-first order, outside the
    backward closure of the failing states."""

    ctx = _QueryContext(query)
    order, parents, preds, _ = reference_reach(ctx.machine, ctx.env, ctx.start)
    doomed = _back_closure(preds, [state for state in order if not ctx.passes(state)])
    visited = frozenset(order)
    for state in order:
        if state not in doomed:
            return CheckResult(True, visited, reference_trace(parents, state))
    return CheckResult(False, visited, None)


def reference_hopeful(answers, handshake, mode) -> set[str]:
    """The states of an _EnvAnswers where the fg query holds: the backward
    closure of the states it explored that are not doomed for the key."""

    doomed = answers.doomed(handshake, mode)
    return _back_closure(answers.preds, [state for state in answers.order if state not in doomed])


def _walk_states(machine, env, start, bound) -> frozenset[str]:
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


def _oracle_g(machine, handshake, mode, env, start, bound, memo) -> bool:
    """Every bounded walk from start ends in a passing state."""

    key = (handshake, mode, env, start, bound)
    if key not in memo:
        labels = compute_block_idle(machine, handshake)
        memo[key] = all(
            machine.entry(state).is_transient
            or labels[state] == (mode == BLOCKING)
            or not enabled_transitions(machine, state, env)
            for state in _walk_states(machine, env, start, bound)
        )
    return memo[key]


def _oracle_fg(machine, handshake, mode, env, start, bound, memo) -> bool:
    """Some bounded walk from start ends in a state where _oracle_g holds."""

    return any(
        _oracle_g(machine, handshake, mode, env, state, bound, memo)
        for state in _walk_states(machine, env, start, bound)
    )


def reference_cross_validate(machine, bound=None, max_states=20) -> tuple[Disagreement, ...]:
    """Every disagreement, query by query: env, handshake, mode, start, then
    g before fg. Validates as cross_validate does: the size limit, the
    first handshake's labels, then the bound."""

    _check_oracle_size(machine, max_states)
    handshakes = sorted(machine.handshakes)
    if handshakes:
        compute_block_idle(machine, handshakes[0])
    steps = _oracle_bound(machine, bound)
    states = [entry.name for entry in machine.states]
    memo = {}
    found = []
    for env in reasonable_envs(machine):
        answers = _EnvAnswers(machine, env, states)
        for handshake in handshakes:
            for mode in (BLOCKING, IDLING):
                for start in states:
                    g = start not in answers.doomed(handshake, mode)
                    oracle_g = _oracle_g(machine, handshake, mode, env, start, steps, memo)
                    fg = start in reference_hopeful(answers, handshake, mode)
                    oracle_fg = _oracle_fg(machine, handshake, mode, env, start, steps, memo)
                    for op, fast, slow in (("g", g, oracle_g), ("fg", fg, oracle_fg)):
                        if fast != slow:
                            found.append(Disagreement(op, handshake, mode, env, start, fast, slow))
    return tuple(found)
