"""Bounded-exhaustive sweep of cross validation.

sweep() runs checker.cross_validate, the g/fg engine against the walk
oracle, on every machine that labeling_sweep.machines() enumerates within
a bound and whose handshakes are all unambiguous (cross validation raises
on an ambiguous one), and asserts full agreement. Direction matters here,
since only input wires can be stable: the default alphabet answers
requests on a and makes them on b.

The tests run a small slice. Run a larger bound from the repository root:

    PYTHONPATH=src python tests/oracle_sweep.py

By default that is every machine of at most 4 states over wires a.R.I,
a.A.O, b.R.O and b.A.I with at most 1 transition per state. It prints the
number of machines cross-validated and of ambiguous ones skipped, and
stops at the first disagreement with an AssertionError.

Point PYTHONPATH at another checkout's src to check that commit over the
same machines. pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import sys

from labeling_sweep import machines, wires
from xdicheck.checker import cross_validate
from xdicheck.labeling import check_unambiguous
from xdicheck.machine import validate

ALPHABET = "a.R.I,a.A.O,b.R.O,b.A.I"


def sweep(alphabet: str, max_states: int, max_out: int) -> tuple[int, int]:
    """Cross-validate every unambiguous machine within the bound; return
    (machines checked, ambiguous machines skipped)."""

    checked = skipped = 0
    for machine in machines(max_states, wires(alphabet), max_out):
        assert validate(machine).ok, machine
        if any(check_unambiguous(machine, handshake).ambiguous for handshake in machine.handshakes):
            skipped += 1
            continue
        checked += 1
        assert cross_validate(machine) == (), machine
    return checked, skipped


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--wires", default=ALPHABET, help="wire alphabet")
    parser.add_argument("--states", type=int, default=4, help="most states per machine")
    parser.add_argument("--out", type=int, default=1, help="most transitions per state")
    args = parser.parse_args(argv)
    checked, skipped = sweep(args.wires, args.states, args.out)
    print(f"machines: {checked}, ambiguous skipped: {skipped}, disagreements: 0")
    return 0


if __name__ == "__main__":
    sys.exit(main())
