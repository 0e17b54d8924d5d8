"""Bounded-exhaustive sweep of the block/idle labeling, used by the tests.

machines() enumerates every valid machine within a bound, up to renaming
the non-initial states. parity_oracle() is the brute-force reference: it
follows every walk of at most 2·|states| steps from the initial state,
which is enough to reach every reachable (state, parity) pair, since there
are only 2·|states| of them. check_machine() compares check_unambiguous
and compute_block_idle with the oracle under every order of every state's
transitions, so no label and no verdict may depend on declaration order.

The sweep draws transitions from a fixed wire alphabet. Direction is fixed
per wire (by default requests are inputs, acknowledges outputs; wires()
also takes an explicit direction): validation only asks that it be
consistent, and the parity search reads neither direction nor phase nor
state kind, so these choices change no label. tests/oracle_sweep.py runs
cross validation over the same machines, where directions do matter.

The tests run a small slice. Run a larger bound from the repository root:

    PYTHONPATH=src python tests/labeling_sweep.py

By default that is every machine of at most 3 states over wires a.R, a.A,
b.R and b.A with at most 2 transitions per state. It prints the number of
machines and of (machine, handshake) checks, and stops at the first
disagreement with an AssertionError.
"""

from __future__ import annotations

import argparse
import sys
from itertools import combinations, permutations, product

from xdicheck.labeling import AmbiguousMachineError, check_unambiguous, compute_block_idle
from xdicheck.machine import BOX, TRANSIENT, StateEntry, Wire, XdiMachine, validate


def wires(text: str) -> tuple[Wire, ...]:
    """Wires from text such as ``a.R,b.A``: requests in, acknowledges out,
    unless a third part gives the direction, as in ``b.R.O,b.A.I``."""

    made = []
    for item in text.split(","):
        name, phase, *direction = item.split(".")
        made.append(Wire(name, phase, direction[0] if direction else "I" if phase == "R" else "O"))
    return tuple(made)


def machines(max_states: int, alphabet: tuple[Wire, ...], max_out: int, kinds=(BOX, TRANSIENT)):
    """Every machine of 1..max_states states over the alphabet, each state with
    at most max_out distinct transitions, all states reachable from s0.

    Transitions come in one canonical order per state; check_machine tries
    the others. Of machines equal up to renaming s1.., only the one with
    the least canonical key is yielded.
    """

    for count in range(1, max_states + 1):
        names = tuple(f"s{i}" for i in range(count))
        moves = [(wire, target) for wire in alphabet for target in names]
        outs = [combo for size in range(max_out + 1) for combo in combinations(moves, size)]
        renamings = [(0,) + rest for rest in permutations(range(1, count))]
        for kinds_of in product(kinds, repeat=count):
            for chosen in product(outs, repeat=count):
                if not _all_reachable(chosen):
                    continue
                key = _key(kinds_of, chosen)
                if any(_key(*_renamed(kinds_of, chosen, order)) < key for order in renamings):
                    continue
                yield XdiMachine(
                    f"m{count}",
                    tuple(
                        StateEntry(name, name == "s0", kind, out)
                        for name, kind, out in zip(names, kinds_of, chosen)
                    ),
                )


def _index(name: str) -> int:
    return int(name[1:])


def _all_reachable(chosen) -> bool:
    seen = {0}
    frontier = [0]
    while frontier:
        for _, target in chosen[frontier.pop()]:
            if _index(target) not in seen:
                seen.add(_index(target))
                frontier.append(_index(target))
    return len(seen) == len(chosen)


def _key(kinds_of, chosen):
    return tuple(zip(kinds_of, (tuple(sorted(out)) for out in chosen)))


def _renamed(kinds_of, chosen, order):
    """The machine with state i renamed to s{order[i]}."""

    inverse = {new: old for old, new in enumerate(order)}
    rename = lambda name: f"s{order[_index(name)]}"
    return (
        tuple(kinds_of[inverse[i]] for i in range(len(order))),
        tuple(
            tuple((wire, rename(target)) for wire, target in chosen[inverse[i]])
            for i in range(len(order))
        ),
    )


def reorderings(machine: XdiMachine):
    """The machine under every order of every state's transitions."""

    for outs in product(*(permutations(entry.transitions) for entry in machine.states)):
        yield XdiMachine(
            machine.name,
            tuple(
                StateEntry(entry.name, entry.init, entry.kind, out)
                for entry, out in zip(machine.states, outs)
            ),
        )


def parity_oracle(machine: XdiMachine, handshake: str) -> dict[tuple[str, bool], int]:
    """(state, parity) -> fewest steps of a walk from the initial state that
    reaches it, over every walk of at most 2·|states| steps."""

    shortest: dict[tuple[str, bool], int] = {}
    walks = [(machine.init_state, False)]
    for steps in range(2 * len(machine.states) + 1):
        for pair in walks:
            shortest.setdefault(pair, steps)
        walks = [
            (target, parity ^ (wire.handshake == handshake))
            for state, parity in walks
            for wire, target in machine.entry(state).transitions
        ]
    return shortest


def _path_parities(machine: XdiMachine, handshake: str, path) -> set[bool]:
    """Parities with which some walk along the given states reaches its end."""

    parities = {False} if path[:1] == (machine.init_state,) else set()
    for before, after in zip(path, path[1:]):
        parities = {
            parity ^ (wire.handshake == handshake)
            for parity in parities
            for wire, target in machine.entry(before).transitions
            if target == after
        }
    return parities


def check_machine(machine: XdiMachine) -> int:
    """Assert the labeling matches the oracle for every handshake and every
    transition order; return the number of handshakes checked."""

    assert validate(machine).ok, machine
    handshakes = sorted(machine.handshakes)
    for handshake in handshakes:
        oracle = parity_oracle(machine, handshake)
        both = [
            entry.name
            for entry in machine.states
            if (entry.name, False) in oracle and (entry.name, True) in oracle
        ]
        labels = {entry.name: (entry.name, True) in oracle for entry in machine.states}
        for variant in reorderings(machine):
            report = check_unambiguous(variant, handshake)
            assert report.ambiguous == bool(both), (variant, handshake)
            assert [w.state for w in report.witnesses] == both, (variant, handshake)
            for witness in report.witnesses:
                for path, parity in ((witness.idling_path, False), (witness.blocking_path, True)):
                    assert path[-1] == witness.state, (variant, handshake, witness)
                    assert parity in _path_parities(variant, handshake, path), (variant, witness)
                    assert len(path) - 1 == oracle[witness.state, parity], (variant, witness)
            try:
                found = compute_block_idle(variant, handshake).labels
            except AmbiguousMachineError as exc:
                assert both and exc.report is report, (variant, handshake)
            else:
                assert not both and found == labels, (variant, handshake)
    return len(handshakes)


def sweep(alphabet: str, max_states: int, max_out: int, kinds=(BOX, TRANSIENT)) -> tuple[int, int]:
    """Check every machine within the bound; return (machines, checks)."""

    count = checks = 0
    for machine in machines(max_states, wires(alphabet), max_out, kinds):
        count += 1
        checks += check_machine(machine)
    return count, checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--wires", default="a.R,a.A,b.R,b.A", help="wire alphabet")
    parser.add_argument("--states", type=int, default=3, help="most states per machine")
    parser.add_argument("--out", type=int, default=2, help="most transitions per state")
    args = parser.parse_args(argv)
    count, checks = sweep(args.wires, args.states, args.out)
    print(f"machines: {count}, checks: {checks}, disagreements: 0")
    return 0


if __name__ == "__main__":
    sys.exit(main())
