"""Doubling sweep of condition verification: verify_condition on wide machines.

For the wide machines of tests/conftest.py with K = 6, 8, 10 and 12 input
handshakes (K + 1 input wires, so 2^(K+1) environments, quadrupling per
point), it verifies every_atom_iff(wide K), the iff chain that resolves
every blocked and idle atom, each point in a fresh interpreter. It prints
per point the environments, the explorations made (checker._reach calls),
the seconds of the first call, the best of five, and the peak RSS, then
the log/log slope of both timings against environments (least squares).
Run from the repository root:

    PYTHONPATH=src python tests/condition_sweep.py [--out sweep.json]
    PYTHONPATH=src python tests/condition_sweep.py --point wide 6

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

from conftest import every_atom_iff, wide_document
from product_sweep import slope

SIZES = (6, 8, 10, 12)
REPEATS = 5


def measure(size: int) -> dict:
    """Time one point in this process; return its row."""

    from xdicheck import checker
    from xdicheck.formulas import verify_condition
    from xdicheck.machine import parse_document

    machine = parse_document(wide_document(size))[0]
    form = every_atom_iff(machine)
    explorations = 0
    reach = checker._reach

    def counted(*args):
        nonlocal explorations
        explorations += 1
        return reach(*args)

    checker._reach = counted
    times = []
    for _ in range(REPEATS):
        explorations = 0
        start = time.perf_counter()
        verdict = verify_condition(form, machine)
        times.append(time.perf_counter() - start)
    checker._reach = reach
    # ru_maxrss is in KiB on Linux.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "kind": "wide",
        "size": size,
        "envs": len(verdict.per_env),
        "explorations": explorations,
        "holds": verdict.holds_overall,
        "first_s": times[0],
        "best_s": min(times),
        "peak_rss_mb": peak_mb,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="also write the rows and slopes as JSON to this file")
    parser.add_argument(
        "--point", nargs=2, metavar=("KIND", "K"), help="measure one point (KIND is wide) and print its row"
    )
    args = parser.parse_args(argv)
    if args.point:
        kind, size = args.point
        if kind != "wide":
            parser.error(f"unknown kind {kind!r}, expected wide")
        print(json.dumps(measure(int(size))))
        return 0

    print(f"{'input':<10}{'envs':>7}{'explored':>10}{'first ms':>10}{'best ms':>10}{'peak MB':>9}")
    rows = []
    for size in SIZES:
        child = subprocess.run(
            [sys.executable, __file__, "--point", "wide", str(size)],
            check=True, capture_output=True, text=True,
        )
        row = json.loads(child.stdout)
        rows.append(row)
        print(
            f"{'wide' + str(size):<10}{row['envs']:>7}{row['explorations']:>10}"
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
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"python": sys.version.split()[0], "rows": rows, "slopes": slopes}, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
