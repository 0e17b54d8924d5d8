"""Bounded-exhaustive sweep of cross validation, and a doubling sweep of its cost.

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

With --doubling it times cross_validate instead, on the wide machines of
tests/conftest.py with K = 3..8 input handshakes (K + 1 input wires, so
2^(K+1) environments, doubling per point), each point in a fresh
interpreter and on a freshly parsed machine per call, since the walk sets
are memoised on the machine. It prints per point the states, the
environments, the queries, the seconds of the first call, the best of
five, and the peak RSS, then the log/log slope of both timings against
environments (least squares):

    PYTHONPATH=src python tests/oracle_sweep.py --doubling [--json sweep.json]
    PYTHONPATH=src python tests/oracle_sweep.py --point wide 3

Point PYTHONPATH at another checkout's src to measure that commit with
the same machines. pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time

from conftest import wide_document
from labeling_sweep import machines, wires
from product_sweep import slope
from xdicheck.checker import cross_validate
from xdicheck.labeling import check_unambiguous
from xdicheck.machine import parse_document, validate

ALPHABET = "a.R.I,a.A.O,b.R.O,b.A.I"
SIZES = (3, 4, 5, 6, 7, 8)
REPEATS = 5


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


def measure(size: int) -> dict:
    """Time cross_validate on wide K in this process; return its row."""

    text = wide_document(size)
    times = []
    for _ in range(REPEATS):
        machine = parse_document(text)[0]
        start = time.perf_counter()
        found = cross_validate(machine)
        times.append(time.perf_counter() - start)
    envs = 2 ** len(machine.input_wires)
    # ru_maxrss is in KiB on Linux.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "kind": "wide",
        "size": size,
        "states": len(machine.states),
        "envs": envs,
        "queries": envs * len(machine.handshakes) * 2 * len(machine.states) * 2,
        "disagreements": len(found),
        "first_s": times[0],
        "best_s": min(times),
        "peak_rss_mb": peak_mb,
    }


def doubling(out: str | None) -> None:
    print(f"{'input':<8}{'states':>7}{'envs':>6}{'queries':>9}{'first ms':>10}{'best ms':>10}{'peak MB':>9}")
    rows = []
    for size in SIZES:
        child = subprocess.run(
            [sys.executable, __file__, "--point", "wide", str(size)],
            check=True, capture_output=True, text=True,
        )
        row = json.loads(child.stdout)
        assert row["disagreements"] == 0, row
        rows.append(row)
        print(
            f"{'wide' + str(size):<8}{row['states']:>7}{row['envs']:>6}{row['queries']:>9}"
            f"{row['first_s'] * 1000:>10.1f}{row['best_s'] * 1000:>10.1f}{row['peak_rss_mb']:>9.1f}",
            flush=True,
        )
    slopes = {key: slope(rows, key, "envs") for key in ("first_s", "best_s")}
    print(
        "  slope against environments: "
        + ", ".join(
            f"{key[:-2]} {value:.2f}" if value is not None else f"{key[:-2]} -"
            for key, value in slopes.items()
        )
    )
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump({"python": sys.version.split()[0], "rows": rows, "slopes": slopes}, handle, indent=1)
            handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--wires", default=ALPHABET, help="wire alphabet")
    parser.add_argument("--states", type=int, default=4, help="most states per machine")
    parser.add_argument("--out", type=int, default=1, help="most transitions per state")
    parser.add_argument("--doubling", action="store_true", help="time cross_validate on wide machines")
    parser.add_argument("--json", help="with --doubling, also write the rows and slopes to this file")
    parser.add_argument(
        "--point", nargs=2, metavar=("KIND", "K"), help="time one point (KIND is wide) and print its row"
    )
    args = parser.parse_args(argv)
    if args.point:
        kind, size = args.point
        if kind != "wide":
            parser.error(f"unknown kind {kind!r}, expected wide")
        print(json.dumps(measure(int(size))))
    elif args.doubling:
        doubling(args.json)
    else:
        checked, skipped = sweep(args.wires, args.states, args.out)
        print(f"machines: {checked}, ambiguous skipped: {skipped}, disagreements: 0")
    return 0


if __name__ == "__main__":
    sys.exit(main())
