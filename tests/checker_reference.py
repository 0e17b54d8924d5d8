"""Reference g and fg checks, used only by the tests.

reference_g_check is the breadth-first loop that g_check ran before the
per-environment answer table became the only g/fg engine: it tests each
state as it is dequeued and stops at the first failing one.
reference_fg_check is the fg fixpoint as it stood beside that loop, with
its own failing-state rule. Both validate a query as the checker did, in
the same order and with the same messages.
"""

from collections import deque

from xdicheck.checker import BLOCKING, IDLING, CheckResult, _back_closure, _reach, _trace_to
from xdicheck.labeling import compute_block_idle
from xdicheck.machine import enabled_transitions, is_environment


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
        if self.labels.mode(state) == self.mode:
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
            return CheckResult(False, frozenset(parents), _trace_to(parents, state))
        for _, target in enabled_transitions(ctx.machine, state, ctx.env):
            if target not in parents:
                parents[target] = state
                queue.append(target)
    return CheckResult(True, frozenset(seen), None)


def reference_fg_check(query) -> CheckResult:
    """The first reachable state, in breadth-first order, outside the
    backward closure of the failing states."""

    ctx = _QueryContext(query)
    order, parents, preds, _ = _reach(ctx.machine, ctx.env, ctx.start)
    doomed = _back_closure(preds, [state for state in order if not ctx.passes(state)])
    visited = frozenset(order)
    for state in order:
        if state not in doomed:
            return CheckResult(True, visited, _trace_to(parents, state))
    return CheckResult(False, visited, None)
