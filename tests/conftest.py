"""Shared fixtures: corpus paths, parsed machines, and a CLI runner."""

from __future__ import annotations

import contextlib
import importlib.util
import io
import pathlib
import sys

import pytest

from xdicheck import machine as machine_mod
from xdicheck.cli import main as cli_main
from xdicheck.formulas import BlockedAtom, Formula, IdleAtom, Iff

REPO = pathlib.Path(__file__).resolve().parent.parent
MACHINES = REPO / "machines"


def bench_jobs(monkeypatch) -> list:
    """Every job the benchmark's workloads can draw, from bench/workloads.py
    loaded without touching bench/."""

    spec = importlib.util.spec_from_file_location("bench_workloads", REPO / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up there
    spec.loader.exec_module(workloads)
    return [job for name in workloads.WORKLOADS for job in workloads.catalog(name)]


@pytest.fixture(scope="session")
def machines_dir() -> pathlib.Path:
    return MACHINES


@pytest.fixture(scope="session")
def join_document() -> str:
    return (MACHINES / "join.xdi").read_text()


@pytest.fixture(scope="session")
def join(join_document):
    parsed, _ = machine_mod.parse_document(join_document)
    return parsed


@pytest.fixture(scope="session")
def join_conditions(join_document):
    _, conditions = machine_mod.parse_document(join_document)
    return conditions


@pytest.fixture(scope="session")
def distributor():
    parsed, _ = machine_mod.parse_document((MACHINES / "distributor.xdi").read_text())
    return parsed


@pytest.fixture(scope="session")
def distributor_conditions():
    _, conditions = machine_mod.parse_document((MACHINES / "distributor.xdi").read_text())
    return conditions


@pytest.fixture(scope="session")
def twopath():
    parsed, _ = machine_mod.parse_document((MACHINES / "ambiguous.xdi").read_text())
    return parsed


def _ring_document(length: int, polarity: str) -> str:
    """A cycle of `length` box states on handshake y, with one x handshake
    leaving its last state for a dead end.

    With polarity "idle" the cycle idles on x; with "blocked" an x request
    precedes the cycle, so the cycle blocks on x. length must be even, or
    the labels on y would be ambiguous.
    """

    ring = [f"r{i}" for i in range(length)]
    rows = []
    if polarity == "blocked":
        rows.append(("head", True, [("x", "R", "I", ring[0])]))
    for i, name in enumerate(ring):
        phase = ("y", "R", "O") if i % 2 == 0 else ("y", "A", "I")
        rows.append((name, polarity == "idle" and i == 0, [(*phase, ring[(i + 1) % length])]))
    if polarity == "idle":
        first, second = ("x", "R", "I"), ("x", "A", "O")
    else:
        first, second = ("x", "A", "O"), ("x", "R", "I")
    rows[-1][2].append((*first, "armed"))
    rows.append(("armed", False, [(*second, "done")]))
    rows.append(("done", False, []))
    body = "\n".join(
        f"  ({name} {'t' if init else 'nil'} box ("
        + " ".join(f"(({h} {phase} {way}) {target})" for h, phase, way, target in moves)
        + "))"
        for name, init, moves in rows
    )
    return f"(machine ring_{polarity}_{length}\n{body})\n"


@pytest.fixture(scope="session")
def ring_document():
    """Factory for ring machine documents: ring_document(length, polarity)."""

    return _ring_document


def wide_document(k: int) -> str:
    """Requests on inputs i0..i{k-1} in turn, a transient request on output
    o, its acknowledgement, then the input acknowledgements in the same
    order: k + 1 input wires, so 2^(k+1) environments."""

    rows = [f"(q{j} {'t' if j == 0 else 'nil'} box (((i{j} R I) q{j + 1})))" for j in range(k)]
    rows.append(f"(q{k} nil transient (((o R O) h)))")
    rows.append("(h nil box (((o A I) a0)))")
    for j in range(k):
        target = f"a{j + 1}" if j + 1 < k else "q0"
        rows.append(f"(a{j} nil transient (((i{j} A O) {target})))")
    return f"(machine wide{k}\n  " + "\n  ".join(rows) + ")\n"


def every_atom_iff(machine) -> Formula:
    """An iff chain over every blocked and idle atom: evaluate resolves all
    of them under every environment, since no iff operand short-circuits."""

    form = None
    for handshake in sorted(machine.handshakes):
        for atom in (BlockedAtom(handshake), IdleAtom(handshake)):
            form = atom if form is None else Iff(form, atom)
    return form


def _chain_netlist(n: int, broken: bool) -> str:
    """source -> n storages -> sink. Broken: a join sits before the sink
    with its second input left external and stable, so it waits forever."""

    instances = ["(instance src source)"]
    instances += [f"(instance st{i} storage)" for i in range(n)]
    ends = ["src out"] + [f"st{i} out" for i in range(n)]
    starts = [f"st{i} in" for i in range(n)]
    extra = []
    if broken:
        instances.append("(instance j join)")
        starts.append("j in0")
        ends.append("j out")
        extra.append("(stable (j in1))")
    instances.append("(instance snk sink)")
    starts.append("snk in")
    channels = [
        f"(channel c{i} ({a}) ({b}))" for i, (a, b) in enumerate(zip(ends, starts))
    ]
    name = f"chain{n}{'_broken' if broken else ''}"
    return f"(circuit {name}\n  " + "\n  ".join(instances + channels + extra) + ")\n"


def _tree_netlist(depth: int, broken: bool, per_leaf: int = 1) -> str:
    """source -> balanced fork tree -> a run of per_leaf storages per leaf
    -> join tree -> sink. Broken: the last leaf's storages are missing,
    leaving its fork output external and live and its join input external
    and stable."""

    leaves = 2**depth
    runs = [
        [f"st{i}" if per_leaf == 1 else f"st{i}_{k}" for k in range(per_leaf)]
        for i in range(leaves - (1 if broken else 0))
    ]
    instances = ["(instance src source)"]
    instances += [f"(instance f{i} fork)" for i in range(1, leaves)]
    instances += [f"(instance {s} storage)" for run in runs for s in run]
    instances += [f"(instance j{i} join)" for i in range(1, leaves)]
    instances.append("(instance snk sink)")
    links = [("src out", "f1 in")]
    # Heap numbering: node i has children 2i and 2i+1; leaves are leaves..2*leaves-1.
    for i in range(1, leaves):
        for side, child in ((0, 2 * i), (1, 2 * i + 1)):
            if child < leaves:
                links.append((f"f{i} out{side}", f"f{child} in"))
                links.append((f"j{child} out", f"j{i} in{side}"))
            elif child - leaves < len(runs):
                run = runs[child - leaves]
                links.append((f"f{i} out{side}", f"{run[0]} in"))
                links += [(f"{a} out", f"{b} in") for a, b in zip(run, run[1:])]
                links.append((f"{run[-1]} out", f"j{i} in{side}"))
    links.append(("j1 out", "snk in"))
    channels = [f"(channel c{i} ({a}) ({b}))" for i, (a, b) in enumerate(links)]
    extra = [f"(stable (j{leaves - 1} in1))"] if broken else []
    shape = f"{depth}x{per_leaf}" if per_leaf != 1 else f"{depth}"
    name = f"tree{shape}{'_broken' if broken else ''}"
    return f"(circuit {name}\n  " + "\n  ".join(instances + channels + extra) + ")\n"


@pytest.fixture(scope="session")
def circuit_document():
    """Factory for generated netlist texts: circuit_document(kind, size, broken),
    kind "chain" (size = storages) or "tree" (size = depth)."""

    def build(kind: str, size: int, broken: bool) -> str:
        return {"chain": _chain_netlist, "tree": _tree_netlist}[kind](size, broken)

    return build


class CliResult:
    def __init__(self, code: int, out: str, err: str) -> None:
        self.code = code
        self.out = out
        self.err = err


@pytest.fixture()
def run_cli():
    """Invoke the command line entry in process and capture its streams."""

    def run(*argv: str) -> CliResult:
        out = io.StringIO()
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(list(argv))
        return CliResult(code, out.getvalue(), err.getvalue())

    return run
