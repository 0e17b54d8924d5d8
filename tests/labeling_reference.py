"""Reference parity search, used only by the tests.

reference_parity_search is the breadth-first (state, parity) search that
labeling._parity_search ran before it kept one parent dict per parity:
one queue of (state, parity) pairs and one parent dict keyed by them.
tests/labeling_sweep.py compares the two on every swept machine under
every order of its transitions: the ambiguity report, witness by witness
with both paths, and the labels, in order.
"""

from collections import deque

from xdicheck.labeling import AmbiguityReport, ParityConflict


def reference_parity_search(machine, handshake: str) -> tuple[AmbiguityReport, dict[str, bool]]:
    """Propagate (state, parity) pairs breadth first from the initial state."""

    start = (machine.init_state, False)
    parents = {start: None}
    queue = deque([start])
    while queue:
        state, parity = queue.popleft()
        for wire, target in machine.entry(state).transitions:
            next_pair = (target, parity ^ (wire.handshake == handshake))
            if next_pair not in parents:
                parents[next_pair] = (state, parity)
                queue.append(next_pair)

    def path_to(pair):
        trail = []
        cursor = pair
        while cursor is not None:
            trail.append(cursor[0])
            cursor = parents[cursor]
        return tuple(reversed(trail))

    witnesses = tuple(
        ParityConflict(entry.name, path_to((entry.name, False)), path_to((entry.name, True)))
        for entry in machine.states
        if (entry.name, False) in parents and (entry.name, True) in parents
    )
    return AmbiguityReport(witnesses), {entry.name: (entry.name, True) in parents for entry in machine.states}
