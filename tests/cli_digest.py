"""Digests of the whole command-line output on the shipped files.

Every distinct file among machines/*.xdi, machines/*.net and the builtin
library's machines is run through each subcommand that reads it, in text
and with --json, in process through cli.main:

- validate, writing --emit-dot;
- labels, for every handshake;
- envs, check and oracle-check (default bound, then bounds 0, 1 and 2);
- query: every handshake x every listed environment x blocked, idle and
  g/fg in both modes from the initial state, then g/fg in both modes from
  every start under the live environment;
- deadlock on each netlist, with no channel and with every --channel,
  writing --emit-smt;
- check-library once.

Each argv's exit code, stdout, stderr and written file are hashed with
sha256. The calls are grouped by subcommand and file (and handshake, for
labels and query); a group's digest is the sha256 of its argvs and their
digests in order, so a recorded group pins every byte of its calls.

    PYTHONPATH=src python tests/cli_digest.py            # print the digests as JSON
    PYTHONPATH=src python tests/cli_digest.py --record   # write tests/cli_digests.json
    PYTHONPATH=src python tests/cli_digest.py --group 'labels machines/ambiguous.xdi a'
                                                         # one group's argvs and digests

Paths are relative to the repository root, where the calls run, since
some outputs name the file they read.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

from xdicheck import checker, circuit, cli, machine

REPO = pathlib.Path(__file__).resolve().parent.parent
RECORD = pathlib.Path(__file__).resolve().parent / "cli_digests.json"
OUT = "OUT"  # stands for the path a call writes; replaced by a scratch file
BOUNDS = (None, 0, 1, 2)


def _files(pattern: str) -> list[str]:
    return sorted(str(path.relative_to(REPO)) for path in REPO.glob(pattern))


def distinct_files() -> list[str]:
    """The shipped files with distinct bytes, the first of each in
    machines/ then library order."""

    seen: set[bytes] = set()
    kept = []
    for name in _files("machines/*.xdi") + _files("machines/*.net") + _files("src/xdicheck/library_data/*.xdi"):
        data = (REPO / name).read_bytes()
        if data not in seen:
            seen.add(data)
            kept.append(name)
    return kept


def _machine_groups(name: str) -> dict[str, list[list[str]]]:
    mach, _ = machine.parse_document((REPO / name).read_text())
    handshakes = sorted(mach.handshakes)
    envs = [machine.format_env(env) for env in checker.reasonable_envs(mach)]
    env_args = [[] if env == "{}" else ["--env", env] for env in envs]
    modes = (checker.BLOCKING, checker.IDLING)
    groups = {
        f"validate {name}": [["validate", name, "--emit-dot", OUT]],
        f"envs {name}": [["envs", name]],
        f"check {name}": [["check", name]],
        f"oracle-check {name}": [
            ["oracle-check", name] + ([] if bound is None else ["--bound", str(bound)]) for bound in BOUNDS
        ],
    }
    for handshake in handshakes:
        groups[f"labels {name} {handshake}"] = [["labels", name, "--handshake", handshake]]
        query = ["query", name, "--handshake", handshake]
        calls = []
        for env in env_args:
            calls += [query + ["--op", op] + env for op in ("blocked", "idle")]
            calls += [query + ["--op", op, "--mode", mode] + env for op in ("g", "fg") for mode in modes]
        for entry in mach.states:
            calls += [
                query + ["--op", op, "--mode", mode, "--start", entry.name] for op in ("g", "fg") for mode in modes
            ]
        groups[f"query {name} {handshake}"] = calls
    return groups


def _netlist_groups(name: str) -> dict[str, list[list[str]]]:
    netlist = circuit.parse_netlist((REPO / name).read_text())
    calls = [["deadlock", name]]
    calls += [["deadlock", name, "--channel", channel.name, "--emit-smt", OUT] for channel in netlist.channels]
    return {f"deadlock {name}": calls}


def groups() -> dict[str, list[list[str]]]:
    """Every group's argvs, in text form; each also runs with --json."""

    found = {"check-library": [["check-library"]]}
    for name in distinct_files():
        found.update(_netlist_groups(name) if name.endswith(".net") else _machine_groups(name))
    return found


def run(argv: list[str], scratch: pathlib.Path) -> str:
    """The sha256 of one call's exit code, stdout, stderr and written file."""

    target = scratch / "out"
    with contextlib.suppress(FileNotFoundError):
        target.unlink()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(target) if token == OUT else token for token in argv])
    written = target.read_bytes() if target.exists() else b""
    digest = hashlib.sha256()
    for part in (str(code), out.getvalue(), err.getvalue()):
        digest.update(part.encode() + b"\0")
    digest.update(written)
    return digest.hexdigest()


def group_digests(calls: list[list[str]], scratch: pathlib.Path) -> list[tuple[str, str]]:
    """(argv, digest) for each call, text then --json."""

    return [
        (" ".join(argv), run(argv, scratch))
        for base in calls
        for argv in (base, base + ["--json"])
    ]


def digests() -> dict[str, str]:
    """Every group's digest, run from the repository root."""

    cwd = os.getcwd()
    os.chdir(REPO)
    try:
        with tempfile.TemporaryDirectory() as scratch:
            result = {}
            for key, calls in groups().items():
                digest = hashlib.sha256()
                for argv, call in group_digests(calls, pathlib.Path(scratch)):
                    digest.update(f"{argv}\0{call}\n".encode())
                result[key] = digest.hexdigest()
            return result
    finally:
        os.chdir(cwd)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--group"]:
        os.chdir(REPO)
        with tempfile.TemporaryDirectory() as scratch:
            for line, digest in group_digests(groups()[argv[1]], pathlib.Path(scratch)):
                print(digest, line)
        return 0
    text = json.dumps(digests(), indent=1, sort_keys=True) + "\n"
    if argv == ["--record"]:
        RECORD.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
