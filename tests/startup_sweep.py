"""Start-up cost of a command-line call, in fresh interpreters.

Each command below runs in RUNS fresh interpreters, from the repository
root, and the script prints the best and the median wall time of the
runs, seen from this process, so interpreter start and exit are
included. The commands are an empty program, the import of xdicheck.cli,
and three CLI calls made as the installed console script makes them.

Every command is timed twice. Uncached: the package is imported from a
copy without bytecode, and no bytecode is written, so the package is
compiled at every start, as in a fresh checkout run with
PYTHONDONTWRITEBYTECODE=1; the standard library keeps its installed
bytecode. Cached: the interpreter reads and writes bytecode under a
temporary PYTHONPYCACHEPREFIX, filled by one run before the timed ones.
Run from the repository root:

    PYTHONPATH=src python tests/startup_sweep.py [--runs 9] [--out startup.json]
    PYTHONPATH=src python tests/startup_sweep.py --point import --runs 3

The package is the one PYTHONPATH selects, so pointing PYTHONPATH at
another checkout's src measures that commit with the same commands.
pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 9
CLI = "from xdicheck.cli import entrypoint; entrypoint()"
COMMANDS = {
    "pass": ["-c", "pass"],
    "import": ["-c", "import xdicheck.cli"],
    "validate": ["-c", CLI, "validate", "machines/join.xdi"],
    "deadlock": ["-c", CLI, "deadlock", "machines/pipeline.net"],
    "check-library": ["-c", CLI, "check-library"],
}
MODES = ("uncached", "cached")


def _package_copy(into: str) -> str:
    """A copy of the xdicheck package PYTHONPATH selects, without bytecode;
    returns the directory to put on the child's path."""

    import xdicheck

    source = os.path.dirname(xdicheck.__file__)
    shutil.copytree(source, os.path.join(into, "xdicheck"), ignore=shutil.ignore_patterns("__pycache__"))
    return into


def _environment(mode: str, path: str, prefix: str) -> dict:
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONPYCACHEPREFIX", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if mode == "uncached":
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        env["PYTHONPYCACHEPREFIX"] = prefix
    return env


def _run(argv: list[str], env: dict) -> float:
    # No timeout: with one, subprocess polls the child with sleeps that
    # grow to 50 ms, and the times snap to the end of a sleep.
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, check=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def measure(names: list[str], runs: int) -> list[dict]:
    """One row per command and mode: the best and median of runs."""

    rows = []
    with tempfile.TemporaryDirectory() as scratch:
        path = _package_copy(os.path.join(scratch, "path"))
        prefix = os.path.join(scratch, "pycache")
        for name in names:
            for mode in MODES:
                env = _environment(mode, path, prefix)
                if mode == "cached":
                    _run(COMMANDS[name], env)
                times = [_run(COMMANDS[name], env) for _ in range(runs)]
                rows.append({
                    "command": name,
                    "mode": mode,
                    "runs": runs,
                    "best_s": min(times),
                    "median_s": statistics.median(times),
                })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=RUNS, help="fresh interpreters per point")
    parser.add_argument("--out", help="also write the rows as JSON to this file")
    parser.add_argument("--point", choices=COMMANDS, help="time one command and print its rows")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    if args.point:
        for row in measure([args.point], args.runs):
            print(json.dumps(row))
        return 0

    print(f"{'command':<15}{'mode':<10}{'best ms':>9}{'median ms':>11}")
    rows = []
    for name in COMMANDS:
        for row in measure([name], args.runs):
            rows.append(row)
            print(
                f"{name:<15}{row['mode']:<10}{row['best_s'] * 1000:>9.1f}"
                f"{row['median_s'] * 1000:>11.1f}",
                flush=True,
            )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"python": sys.version.split()[0], "runs": args.runs, "rows": rows}, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
