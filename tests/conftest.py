"""Shared fixtures: corpus paths, parsed machines, and a CLI runner."""

from __future__ import annotations

import contextlib
import io
import pathlib

import pytest

from xdicheck import machine as machine_mod
from xdicheck.cli import main as cli_main

REPO = pathlib.Path(__file__).resolve().parent.parent
MACHINES = REPO / "machines"


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
