"""Doubling sweeps: how each layer's cost grows, one fresh interpreter per point.

A family is a measure function, its groups of points (a point is the
function's arguments), the size column that its slopes are taken against,
and its timed columns. Every point runs in a fresh interpreter, so that its
peak RSS is its own. The script prints a row per point and, per group, the
least-squares slope of each timed column against the size column on
log/log axes. The families, described at their measure functions, are
product (compose and analyze_deadlock), deadlock (Dead(ch) for every
channel), parse (parse_document and builtin_library), query (the layers of
one query command), condition (verify_condition) and oracle
(cross_validate on wide machines, the shipped join and distributor, and
rings).
Run from the repository root:

    PYTHONPATH=src python tests/sweep.py FAMILY [--out sweep.json]
    PYTHONPATH=src python tests/sweep.py --point product chain 6 0
    PYTHONPATH=src python tests/sweep.py --point oracle shipped distributor

--out also writes {"python", "family", "groups": [{"rows", "slopes"}]}.
--point measures one point in this process and prints its row. Point
PYTHONPATH at another checkout's src to measure that commit with the same
workloads. pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from typing import Callable, NamedTuple

from conftest import _chain_netlist, _ring_document, _tree_netlist, every_atom_iff, wide_document


def timed(call: Callable, repeats: int, setup: Callable | None = None) -> tuple:
    """Call `call` `repeats` times; return the last result and the seconds
    of the first call and of the fastest. A call's seconds include freeing
    the previous call's result. With a setup, each call is call(setup()),
    and setup runs untimed once the last call's argument is freed, so that
    only one argument is alive at a time."""

    times = []
    for _ in range(repeats):
        args = (setup(),) if setup else ()
        start = time.perf_counter()
        result = call(*args)
        times.append(time.perf_counter() - start)
        del args
    return result, times[0], min(times)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _row(kind: str, size: str, **fields) -> dict:
    """A point's row: its kind and size (a number, or a shipped machine's
    name), the fields, and the peak RSS."""

    number = int(size) if size.isdigit() else size
    return {"kind": kind, "size": number, **fields, "peak_rss_mb": peak_rss_mb()}


def slope(rows: list[dict], key: str, size: str) -> float | None:
    """Least-squares slope of log(row[key]) against log(row[size])."""

    kept = [row for row in rows if row[key] > 0]
    try:
        return statistics.linear_regression(
            [math.log(row[size]) for row in kept], [math.log(row[key]) for row in kept]
        ).slope
    except statistics.StatisticsError:  # fewer than two points, or a single size
        return None


def measure_product(kind: str, size: str, broken: str) -> dict:
    """Compose, then search for a deadlock, the storage chain of SIZE
    storages, the fork/join tree of depth SIZE or, as tree2, the depth-2
    tree with SIZE storages per leaf (conftest.py's netlists), broken if
    BROKEN is 1: product states and edges, and the seconds of
    each phase, the best of three fresh composes and the searches on them
    (nine at tree depth 1, whose phases take well under a millisecond),
    with one product alive at a time. The peak RSS is the first compose
    and search's: a later compose, on the memory the first one freed,
    peaks higher (chain 11: 162 MB after the first, 218 MB after two)."""

    from xdicheck.circuit import analyze_deadlock, compose, parse_netlist

    if kind == "tree2":
        text = _tree_netlist(2, broken == "1", int(size))
    else:
        text = (_chain_netlist if kind == "chain" else _tree_netlist)(int(size), broken == "1")
    netlist = parse_netlist(text)
    runs = []
    for _ in range(9 if (kind, size) == ("tree", "1") else 3):
        system = None  # freed, untimed, before the next compose
        system, compose_s, _ = timed(lambda: compose(netlist), 1)
        finding, analyze_s, _ = timed(lambda: analyze_deadlock(system), 1)
        runs.append((compose_s, analyze_s, peak_rss_mb()))
    compose_s, analyze_s, peak = map(min, zip(*runs))  # the peak only grows: the first
    row = _row(
        kind, size, broken=broken == "1", states=len(system.codes),
        edges=sum(map(len, system.predecessors)), deadlock=finding is not None,
        compose_s=compose_s, analyze_s=analyze_s,
    )
    return {**row, "peak_rss_mb": peak}


def measure_deadlock(kind: str, size: str, broken: str) -> dict:
    """Answer Dead(ch) for every channel as `deadlock --channel CH` does:
    compose the storage chain of SIZE storages or the fork/join tree of
    depth SIZE (conftest.py's netlists), broken if BROKEN is 1, once; then,
    per channel, derive_deadlock_formula on that product and first_model.
    The product states, the channels, how many are sat, and the seconds of
    the compose and of the derivations and the solves, each summed over the
    channels; one run."""

    from xdicheck.circuit import compose, derive_deadlock_formula, parse_netlist

    text = (_chain_netlist if kind == "chain" else _tree_netlist)(int(size), broken == "1")
    netlist = parse_netlist(text)
    system, compose_s, _ = timed(lambda: compose(netlist), 1)
    sat, derive_s, solve_s = 0, 0.0, 0.0
    for channel in netlist.channels:
        instance, seconds, _ = timed(lambda: derive_deadlock_formula(netlist, channel.name, system), 1)
        derive_s += seconds
        model, seconds, _ = timed(instance.first_model, 1)
        solve_s += seconds
        sat += model is not None
    return _row(
        kind, size, broken=broken == "1", states=len(system.codes), channels=len(netlist.channels),
        sat=sat, compose_s=compose_s, derive_s=derive_s, solve_s=solve_s,
    )


def _fan_document(length: int, width: int) -> str:
    """A cycle of `length` box states, each with `width` transitions, one
    on each of the handshakes h0, h1, ...: an even state requests on all of
    them (outputs) and an odd one takes all their acknowledges (inputs), the
    transition on hk going k + 1 states ahead. length must be even."""

    def moves(i: int) -> str:
        phase, way = ("R", "O") if i % 2 == 0 else ("A", "I")
        return " ".join(f"((h{k} {phase} {way}) f{(i + k + 1) % length})" for k in range(width))

    body = "\n".join(f"  (f{i} {'t' if i == 0 else 'nil'} box ({moves(i)}))" for i in range(length))
    return f"(machine fan_{width}_{length}\n{body})\n"


def measure_parse(kind: str, size: str, width: str = "") -> dict:
    """Read the ring machine of SIZE ring states (two states more), or the
    fan machine of SIZE states with WIDTH transitions each, with
    parse_document, or load the library with builtin_library and the
    per-primitive cache cleared (SIZE is its six files): the cold call, the
    point's very first; the states and transitions, from an untimed call;
    then the first and the best of nine more calls, each timed with the
    freeing of what it returns."""

    if kind in ("ring", "fan"):
        from xdicheck.machine import parse_document

        if kind == "ring":
            text = _ring_document(int(size), "idle")
        else:
            text = _fan_document(int(size), int(width))

        def call():
            parse_document(text)

        _, cold_s, _ = timed(call, 1)
        machine = parse_document(text)[0]  # alive while timing, as for BENCH_14.json
        entries = machine.states
    else:
        from xdicheck import library

        def call():
            library.get_primitive.cache_clear()
            library.builtin_library()

        _, cold_s, _ = timed(call, 1)
        entries = [entry for spec in library.builtin_library() for entry in spec.machine.states]

    _, first_s, best_s = timed(call, 9)
    transitions = sum(len(entry.transitions) for entry in entries)
    return _row(
        kind, size, states=len(entries), transitions=transitions, cold_s=cold_s, first_s=first_s, best_s=best_s
    )


def measure_query(kind: str, size: str) -> dict:
    """The layers of `query --op P` on the ring machine of SIZE ring states
    with polarity P, idle for ring and blocked for blocked (the branch
    handshake x, live): validate on a freshly read machine, labels on a
    validated one (compute_block_idle, so the wires and the parity search),
    explore + doomed on a labeled one (one _EnvAnswers and its doomed set,
    as fg_check builds them), a g query on x in blocking mode on a
    labeled one (g_check, which fails on both rings) and the whole CLI
    call on the file, output captured. Each is the best of nine calls,
    every call on a machine of its own, read untimed; the fg result is an
    untimed call's."""

    import contextlib
    import io
    import tempfile

    from xdicheck import cli
    from xdicheck.checker import BLOCKING, IDLING, TemporalQuery, _EnvAnswers, fg_check, g_check
    from xdicheck.labeling import compute_block_idle
    from xdicheck.machine import parse_document, validate

    polarity = "idle" if kind == "ring" else "blocked"
    mode = IDLING if kind == "ring" else BLOCKING
    text = _ring_document(int(size), polarity)

    def read():
        return parse_document(text)[0]

    def validated():
        machine = read()
        assert validate(machine).ok
        return machine

    def labeled():
        machine = validated()
        compute_block_idle(machine, "x")
        return machine

    def explore(machine):
        return _EnvAnswers(machine, frozenset(), (machine.init_state,)).doomed("x", mode)

    def g_query(machine):
        return g_check(TemporalQuery(machine, "x", BLOCKING, frozenset()))

    _, _, validate_s = timed(validate, 9, read)
    _, _, labels_s = timed(lambda machine: compute_block_idle(machine, "x"), 9, validated)
    _, _, explore_s = timed(explore, 9, labeled)
    failed, _, g_s = timed(g_query, 9, labeled)
    assert not failed.holds, failed.counterexample
    result = fg_check(TemporalQuery(labeled(), "x", mode, frozenset()))
    with tempfile.TemporaryDirectory() as folder:
        path = f"{folder}/ring.xdi"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)

        def query():
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert cli.main(["query", path, "--handshake", "x", "--op", polarity]) == 0
            return out.getvalue()

        printed, _, query_s = timed(query, 9)
    assert printed.startswith("holds: yes\n"), printed
    return _row(
        kind, size, states=len(read().states), visited=len(result.visited), holds=result.holds,
        validate_s=validate_s, labels_s=labels_s, explore_s=explore_s, g_s=g_s, query_s=query_s,
    )


def measure_condition(kind: str, size: str) -> dict:
    """Verify every_atom_iff(wide SIZE), the iff chain that resolves every
    blocked and idle atom, over the 2^(SIZE+1) environments: the
    explorations (checker._reach calls) of one call, the verdict, and the
    first and the best of five. The environments are the verdict's count,
    so its per-environment entries are never built."""

    from xdicheck import checker
    from xdicheck.formulas import verify_condition
    from xdicheck.machine import parse_document

    machine = parse_document(wide_document(int(size)))[0]
    form = every_atom_iff(machine)
    explored = []  # one entry per exploration of the current call
    reach = checker._reach

    def counted(*args):
        explored.append(None)
        return reach(*args)

    checker._reach = counted
    try:
        verdict, first_s, best_s = timed(lambda _: verify_condition(form, machine), 5, explored.clear)
    finally:
        checker._reach = reach
    return _row(
        kind, size, envs=verdict.environments, explorations=len(explored), holds=verdict.holds_overall,
        first_s=first_s, best_s=best_s,
    )


def measure_oracle(kind: str, size: str) -> dict:
    """Cross-validate wide SIZE, the ring machine of SIZE ring states
    (idle polarity) or, as shipped, machines/SIZE.xdi, on a freshly parsed
    machine per call since the walk masks are memoised on the machine: the
    queries, the engine's backward passes (checker._back_closure and
    checker._back_fixpoint calls) of one more, untimed call, and the first
    and the best of five. A disagreement raises."""

    from pathlib import Path

    from xdicheck import checker
    from xdicheck.checker import cross_validate
    from xdicheck.machine import parse_document

    if kind == "wide":
        text = wide_document(int(size))
    elif kind == "ring":
        text = _ring_document(int(size), "idle")
    else:
        text = (Path(__file__).resolve().parents[1] / "machines" / f"{size}.xdi").read_text()
    found, first_s, best_s = timed(cross_validate, 5, lambda: parse_document(text)[0])
    assert not found, found
    machine = parse_document(text)[0]
    passes = []  # one entry per backward pass
    # A checkout from before the shared fixpoint has only the closure.
    names = [name for name in ("_back_closure", "_back_fixpoint") if hasattr(checker, name)]
    wrapped = {name: getattr(checker, name) for name in names}

    def counting(name):
        def counted(*args):
            passes.append(name)
            return wrapped[name](*args)

        return counted

    for name in wrapped:
        setattr(checker, name, counting(name))
    try:
        cross_validate(machine)
    finally:
        for name, function in wrapped.items():
            setattr(checker, name, function)
    states, envs = len(machine.states), 2 ** len(machine.input_wires)
    queries = envs * len(machine.handshakes) * 2 * states * 2
    return _row(
        kind, size, states=states, envs=envs, queries=queries, disagreements=len(found),
        passes=len(passes), first_s=first_s, best_s=best_s,
    )


class Family(NamedTuple):
    measure: Callable[..., dict]
    groups: tuple  # of tuples of points
    size: str
    times: tuple[str, ...]


def _group(kind: str, sizes, *rest: str) -> tuple:
    return tuple((kind, str(size), *rest) for size in sizes)


FIRST_BEST = ("first_s", "best_s")
FAMILIES = {
    "product": Family(
        measure_product,
        (_group("chain", range(6, 12), "0"), _group("chain", range(6, 12), "1"))
        + (_group("tree", (1, 2), "0"), _group("tree", (1, 2), "1"), _group("tree2", (1, 2), "0")),
        "states",
        ("compose_s", "analyze_s"),
    ),
    "deadlock": Family(
        measure_deadlock,
        (_group("chain", range(5, 11), "0"), _group("chain", range(5, 11), "1"))
        + (_group("tree", (1, 2), "0"), _group("tree", (1, 2), "1")),
        "states",
        ("compose_s", "derive_s", "solve_s"),
    ),
    "parse": Family(
        measure_parse,
        (_group("ring", (400, 800, 1600, 3200)), _group("library", (6,)))
        + (_group("fan", (400, 800, 1600, 3200), "3"), _group("fan", (400, 800, 1600, 3200), "5")),
        "states",
        ("cold_s", *FIRST_BEST),
    ),
    "query": Family(
        measure_query,
        (_group("ring", (400, 800, 1600, 3200)), _group("blocked", (400, 800, 1600, 3200))),
        "states",
        ("validate_s", "labels_s", "explore_s", "g_s", "query_s"),
    ),
    "condition": Family(measure_condition, (_group("wide", (6, 8, 10, 12, 14)),), "envs", FIRST_BEST),
    "oracle": Family(
        measure_oracle,
        (_group("wide", range(3, 9)), _group("shipped", ("join", "distributor")), _group("ring", (8, 14))),
        "envs",
        FIRST_BEST,
    ),
}


def _heading(key: str) -> str:
    return key[:-2] + " ms" if key.endswith("_s") else key.replace("_", " ")


def _cell(key: str, value) -> str:
    if key.endswith("_s"):
        return f"{value * 1000:.1f}"
    return f"{value:.1f}" if isinstance(value, float) else str(value)


def run(name: str, out: str | None) -> None:
    """Measure every point of a family, each in a child interpreter; print
    the rows and the slopes, and write them to `out` if given."""

    family = FAMILIES[name]
    width = max(14, *(len(" ".join(point)) + 2 for points in family.groups for point in points))
    groups = []
    for points in family.groups:
        rows = []
        for point in points:
            command = [sys.executable, __file__, "--point", name, *point]
            row = json.loads(subprocess.run(command, check=True, capture_output=True, text=True).stdout)
            columns = [key for key in row if key not in ("kind", "size", "broken")]
            if not groups and not rows:
                print(f"{'point':<{width}}" + "".join(f"{_heading(key):>14}" for key in columns))
            cells = "".join(f"{_cell(key, row[key]):>14}" for key in columns)
            print(f"{' '.join(point):<{width}}{cells}", flush=True)
            rows.append(row)
        slopes = {key: slope(rows, key, family.size) for key in family.times}
        shown = (f"{key} -" if value is None else f"{key} {value:.2f}" for key, value in slopes.items())
        print(f"  slope against {family.size}: " + ", ".join(shown))
        groups.append({"rows": rows, "slopes": slopes})
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            record = {"python": sys.version.split()[0], "family": name, "groups": groups}
            json.dump(record, handle, indent=1)
            handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("family", nargs="?", choices=sorted(FAMILIES), help="the family to sweep")
    parser.add_argument("--out", help="also write the rows and slopes as JSON to this file")
    parser.add_argument("--point", nargs="+", metavar="ARG", help="FAMILY ARG...: print one point's row")
    args = parser.parse_args(argv)
    if args.point:
        name, *point = args.point
        if name not in FAMILIES:
            parser.error(f"unknown family {name!r}, expected one of {', '.join(sorted(FAMILIES))}")
        examples = {example[0]: example for points in FAMILIES[name].groups for example in points}
        if not point or len(point) != len(examples.get(point[0], ())):
            usage = " or ".join(map(" ".join, examples.values()))
            parser.error(f"--point {name} takes arguments like {usage}")
        print(json.dumps(FAMILIES[name].measure(*point)))
    elif args.family:
        run(args.family, args.out)
    else:
        parser.error("name a FAMILY or give --point")
    return 0


if __name__ == "__main__":
    sys.exit(main())
