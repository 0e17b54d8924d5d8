"""Doubling sweep of the product core: compose and analyze_deadlock.

For clean and broken storage chains of n = 6..11 storages and fork/join
trees of depth 1..2 (the netlists the tests build, see conftest.py), it
composes the product and searches it for a deadlock, each point in a
fresh interpreter so that peak RSS is that point's own. It prints per
point the product states and edges, the seconds of compose and of
analyze_deadlock, the peak RSS, and per family the log/log slope of
each phase's seconds against states (least squares over the family).
Run from the repository root:

    PYTHONPATH=src python tests/product_sweep.py [--out sweep.json]

Point PYTHONPATH at another checkout's src to measure that commit with
the same workloads. pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import subprocess
import sys
import time

from conftest import _chain_netlist, _tree_netlist

FAMILIES = (
    ("chain", False, range(6, 12)),
    ("chain", True, range(6, 12)),
    ("tree", False, range(1, 3)),
    ("tree", True, range(1, 3)),
)


def _counts(system) -> tuple[int, int]:
    """Product states and edges. They are read from the packed columns; a
    ProductSystem of a commit before the packed core has only the tuple
    fields, so the same sweep can measure that commit too."""

    if hasattr(system, "codes"):
        return len(system.codes), len(system.targets)
    return len(system.states), sum(len(edges) for edges in system.adjacency.values())


def measure(kind: str, size: int, broken: bool) -> dict:
    """Compose and analyze one netlist in this process; return its row."""

    from xdicheck.circuit import analyze_deadlock, compose, parse_netlist

    build = _chain_netlist if kind == "chain" else _tree_netlist
    netlist = parse_netlist(build(size, broken))
    start = time.perf_counter()
    system = compose(netlist)
    composed = time.perf_counter()
    finding = analyze_deadlock(system)
    analyzed = time.perf_counter()
    # ru_maxrss is in KiB on Linux.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    states, edges = _counts(system)
    return {
        "kind": kind,
        "size": size,
        "broken": broken,
        "states": states,
        "edges": edges,
        "deadlock": finding is not None,
        "compose_s": composed - start,
        "analyze_s": analyzed - composed,
        "peak_rss_mb": peak_mb,
    }


def slope(rows: list[dict], key: str, size: str = "states") -> float | None:
    """Least-squares slope of log(seconds) against log(states), or against
    the log of another size column."""

    points = [(math.log(row[size]), math.log(row[key])) for row in rows if row[key] > 0]
    if len(points) < 2:
        return None
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    spread = sum((x - mean_x) ** 2 for x, _ in points)
    if spread == 0:
        return None
    return sum((x - mean_x) * (y - mean_y) for x, y in points) / spread


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="also write the rows and slopes as JSON to this file")
    parser.add_argument("--point", nargs=3, metavar=("KIND", "SIZE", "BROKEN"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.point:
        kind, size, broken = args.point
        print(json.dumps(measure(kind, int(size), broken == "1")))
        return 0

    header = f"{'circuit':<16}{'states':>9}{'edges':>10}{'compose s':>11}{'analyze s':>11}{'peak MB':>9}"
    print(header)
    families = []
    for kind, broken, sizes in FAMILIES:
        rows = []
        for size in sizes:
            child = subprocess.run(
                [sys.executable, __file__, "--point", kind, str(size), "1" if broken else "0"],
                check=True, capture_output=True, text=True,
            )
            row = json.loads(child.stdout)
            rows.append(row)
            name = f"{kind}{size}{'_broken' if broken else ''}"
            print(
                f"{name:<16}{row['states']:>9}{row['edges']:>10}{row['compose_s']:>11.3f}"
                f"{row['analyze_s']:>11.3f}{row['peak_rss_mb']:>9.1f}",
                flush=True,
            )
        slopes = {key: slope(rows, key) for key in ("compose_s", "analyze_s")}
        print(
            f"  slope {kind}{' broken' if broken else ''}: "
            + ", ".join(
                f"{key[:-2]} {value:.2f}" if value is not None else f"{key[:-2]} -"
                for key, value in slopes.items()
            )
        )
        families.append({"kind": kind, "broken": broken, "rows": rows, "slopes": slopes})
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"python": sys.version.split()[0], "families": families}, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
