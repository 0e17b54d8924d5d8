"""Doubling sweep of the front end: parse_document and builtin_library.

For ring machines of 400, 800, 1,600 and 3,200 ring states (the
documents conftest.py builds, two states more than the ring), it reads
the document with machine.parse_document, and it loads the six library
files with library.builtin_library, each point in a fresh interpreter.
It prints per point the seconds of the first call, which is what one
command-line run pays, the best of nine calls, and the peak RSS, and for
the rings the log/log slope of both timings against states (least
squares). Run from the repository root:

    PYTHONPATH=src python tests/parse_sweep.py [--out sweep.json]

Point PYTHONPATH at another checkout's src to measure that commit with
the same documents. pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time

from conftest import _ring_document
from product_sweep import slope

RINGS = (400, 800, 1600, 3200)
REPEATS = 9


def _timed(call) -> tuple[float, float]:
    """Seconds of the first call and the best of REPEATS calls."""

    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return times[0], min(times)


def measure(kind: str, size: int) -> dict:
    """Time one point in this process; return its row."""

    if kind == "ring":
        from xdicheck.machine import parse_document

        text = _ring_document(size, "idle")
        machine, _ = parse_document(text)
        states = len(machine.states)
        first_s, best_s = _timed(lambda: parse_document(text))
    else:
        from xdicheck import library

        # The parsed files are cached per primitive by get_primitive, or,
        # in checkouts before the lazy library, as one tuple by
        # builtin_library.
        lazy = hasattr(library.get_primitive, "cache_clear")
        clear = (library.get_primitive if lazy else library.builtin_library).cache_clear

        def load():
            clear()
            return library.builtin_library()

        states = sum(len(spec.machine.states) for spec in load())
        clear()
        first_s, best_s = _timed(load)
    # ru_maxrss is in KiB on Linux.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "kind": kind,
        "size": size,
        "states": states,
        "first_s": first_s,
        "best_s": best_s,
        "peak_rss_mb": peak_mb,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="also write the rows and slopes as JSON to this file")
    parser.add_argument("--point", nargs=2, metavar=("KIND", "SIZE"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.point:
        kind, size = args.point
        print(json.dumps(measure(kind, int(size))))
        return 0

    print(f"{'input':<14}{'states':>8}{'first ms':>10}{'best ms':>10}{'peak MB':>9}")
    rows = []
    for kind, size in [("ring", size) for size in RINGS] + [("library", 6)]:
        child = subprocess.run(
            [sys.executable, __file__, "--point", kind, str(size)],
            check=True, capture_output=True, text=True,
        )
        row = json.loads(child.stdout)
        rows.append(row)
        print(
            f"{kind + str(size):<14}{row['states']:>8}{row['first_s'] * 1000:>10.1f}"
            f"{row['best_s'] * 1000:>10.1f}{row['peak_rss_mb']:>9.1f}",
            flush=True,
        )
    rings = [row for row in rows if row["kind"] == "ring"]
    slopes = {key: slope(rings, key) for key in ("first_s", "best_s")}
    print(
        "  slope rings: "
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
