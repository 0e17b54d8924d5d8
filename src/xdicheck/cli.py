"""Command-line front end.

One executable, eight subcommands: validate, labels, envs, query, check,
check-library, oracle-check, deadlock. Exit code 0 means the command
succeeded and any checked property holds, 1 means a property was
violated (details on stdout), 2 means the invocation or input was bad or
the program failed internally.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace
from typing import Callable, Sequence

from . import checker, circuit, formulas, labeling, library, machine
from .record import Record
from .sexpr import ParseError, read_text

__all__ = ["main", "entrypoint"]


class CommandError(Exception):
    """Invalid input or usage; reported on stderr with exit code 2."""


def _read_file(path: str) -> str:
    try:
        return read_text(path)
    except OSError as exc:
        raise CommandError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise CommandError(f"{path}: not UTF-8 at byte {exc.start}: {exc.reason}") from exc


def _write_file(path: str, text: str) -> None:
    """Write text to path as UTF-8; a CommandError naming the path if that fails.

    The caller renders the text first, so a failure to render it leaves
    no empty file behind."""

    data = text.encode("utf-8")
    try:
        with open(path, "wb") as handle:
            handle.write(data)
    except OSError as exc:
        raise CommandError(f"cannot write {path}: {exc.strerror}") from exc


def _load(path: str, parse):
    """What parse reads from the file; a CommandError naming the file if it fails."""

    try:
        return parse(_read_file(path))
    except ParseError as exc:
        raise CommandError(f"{path}:{exc.line}:{exc.column}: {exc.message}") from exc
    except circuit.NetlistError as exc:
        raise CommandError(f"{path}: {exc}") from exc


def _load_document(path: str):
    parsed = _load(path, machine.parse_document)
    report = machine.validate(parsed[0])
    if not report.ok:
        listing = "; ".join(report.violations)
        raise CommandError(f"{path}: invalid machine: {listing}")
    return parsed


def _parse_env_arg(text: str | None, mach: machine.XdiMachine):
    try:
        return machine.parse_env(text or "", mach)
    except ValueError as exc:
        raise CommandError(str(exc)) from exc


def _write_stdout(text: str) -> None:
    """Write text to stdout and flush it. A reader that closed stdout early
    does not change the exit code: the output is dropped, and stdout is
    pointed at devnull so that the flush at exit cannot fail."""

    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:  # a stdout with no descriptor has no flush at exit to fail
            pass


def _emit(payload, as_json: bool, lines: Sequence[str]) -> None:
    """Print the payload as JSON or the lines as text."""

    if as_json:
        import json  # here, so that a text run does not pay for its import

        _write_stdout(json.dumps(payload, indent=2) + "\n")
    else:
        _write_stdout("".join(f"{line}\n" for line in lines))


# --- Subcommand handlers -----------------------------------------------------


def _cmd_validate(args) -> int:
    mach, _ = _load(args.file, machine.parse_document)
    report = machine.validate(mach)
    if args.emit_dot is not None:
        _write_file(args.emit_dot, _to_dot(mach))
    payload = {"file": args.file, "ok": report.ok, "violations": list(report.violations)}
    lines = [f"machine: {mach.name}", f"ok: {'yes' if report.ok else 'no'}"]
    lines.extend(f"violation: {violation}" for violation in report.violations)
    _emit(payload, args.json, lines)
    return 0 if report.ok else 2


def _to_dot(mach: machine.XdiMachine) -> str:
    lines = [f"digraph {mach.name} {{", "  rankdir=LR;", '  __start [shape=none, label=""];']
    lines.extend(f"  __start -> {entry.name};" for entry in mach.states if entry.init)
    for entry in mach.states:
        shape = "oval" if entry.is_transient else "box"
        lines.append(f"  {entry.name} [shape={shape}];")
    for entry in mach.states:
        for wire, target in entry.transitions:
            mark = "?" if wire.direction == machine.INPUT else "!"
            lines.append(
                f'  {entry.name} -> {target} [label="{wire.handshake}.{wire.phase}{mark}"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_labels(args) -> int:
    mach, _ = _load_document(args.file)
    try:
        labels = labeling.compute_block_idle(mach, args.handshake)
    except labeling.UnknownHandshakeError as exc:
        raise CommandError(str(exc)) from exc
    except labeling.AmbiguousMachineError as exc:
        lines = ["ambiguous: yes"]
        payload_witnesses = []
        for witness in exc.report.witnesses:
            lines.append(
                f"conflict at {witness.state}:"
                f" idling via {' '.join(witness.idling_path)},"
                f" blocking via {' '.join(witness.blocking_path)}"
            )
            payload_witnesses.append(
                {
                    "state": witness.state,
                    "idling_path": list(witness.idling_path),
                    "blocking_path": list(witness.blocking_path),
                }
            )
        payload = {
            "machine": mach.name,
            "handshake": args.handshake,
            "ambiguous": True,
            "witnesses": payload_witnesses,
        }
        _emit(payload, args.json, lines)
        return 2
    blocking = sorted(state for state, value in labels.items() if value)
    idling = sorted(state for state, value in labels.items() if not value)
    payload = {
        "machine": mach.name,
        "handshake": args.handshake,
        "ambiguous": False,
        "blocking": blocking,
        "idling": idling,
    }
    lines = [
        f"blocking: {' '.join(blocking)}",
        f"idling: {' '.join(idling)}",
        "ambiguous: no",
    ]
    _emit(payload, args.json, lines)
    return 0


def _cmd_envs(args) -> int:
    mach, _ = _load_document(args.file)
    envs = [machine.format_env(env) for env in checker.reasonable_envs(mach)]
    payload = {"machine": mach.name, "environments": envs}
    _emit(payload, args.json, envs)
    return 0


def _cmd_query(args) -> int:
    mach, _ = _load_document(args.file)
    env = _parse_env_arg(args.env, mach)
    if args.op in ("blocked", "idle"):
        if args.mode is not None or args.start is not None:
            raise CommandError(f"--mode/--start do not apply to op {args.op}")
        mode = checker.BLOCKING if args.op == "blocked" else checker.IDLING
        start = None
        runner = checker.fg_check
    else:
        if not args.mode:
            raise CommandError(f"op {args.op} requires --mode")
        mode = args.mode
        start = args.start
        runner = checker.g_check if args.op == "g" else checker.fg_check
    query = checker.TemporalQuery(mach, args.handshake, mode, env, start)
    try:
        result = runner(query)
    except ValueError as exc:
        raise CommandError(str(exc)) from exc
    payload = None
    if args.json:  # text output drops the payload, so only JSON builds it
        payload = {
            "machine": mach.name,
            "op": args.op,
            "handshake": args.handshake,
            "mode": mode,
            "env": machine.format_env(env),
            "start": query.resolved_start(),
            "holds": result.holds,
            "visited": sorted(result.visited),
            "trace": list(result.counterexample) if result.counterexample else None,
            "witness": result.witness,
        }
    lines = [f"holds: {'yes' if result.holds else 'no'}"]
    if result.counterexample:
        lines.append(f"trace: {' '.join(result.counterexample)}")
    if result.witness:
        lines.append(f"witness: {result.witness}")
    _emit(payload, args.json, lines)
    return 0 if result.holds else 1


def _verdict_payload(name: str, mach_name: str, text: str, verdict: formulas.Verdict):
    return {
        "machine": mach_name,
        "name": name,
        "condition": text,
        "holds_overall": verdict.holds_overall,
        "per_env": [
            {
                "env": machine.format_env(entry.env),
                "lhs": entry.lhs,
                "rhs": entry.rhs,
                "holds": entry.holds,
            }
            for entry in verdict.per_env
        ],
    }


def _cmd_check(args) -> int:
    if args.condition is not None and args.name is not None:
        raise CommandError("--name does not apply to --condition")
    mach, trailer = _load_document(args.file)
    selected: list[tuple[str, str]] = []
    if args.condition is not None:
        selected.append(("condition", args.condition))
    else:
        selected.extend(trailer)
        if args.name is not None:
            selected = [(name, text) for name, text in selected if name == args.name]
            if not selected:
                raise CommandError(f"{args.file} has no condition named {args.name!r}")
    if not selected:
        _emit([], args.json, ["nothing to report"])
        return 0
    payload = []
    lines = []
    failures = 0
    for name, text in selected:
        try:
            condition = formulas.parse_condition(text)
            verdict = formulas.verify_condition(condition, mach)
        except ParseError as exc:
            raise CommandError(f"condition {name}: {exc.message}") from exc
        except labeling.UnknownHandshakeError as exc:
            raise CommandError(f"condition {name}: {exc}") from exc
        except labeling.AmbiguousMachineError as exc:
            raise CommandError(str(exc)) from exc
        if args.json:
            payload.append(_verdict_payload(name, mach.name, text, verdict))
        if verdict.holds_overall:
            lines.append(f"{mach.name}/{name}: holds ({verdict.environments} environments)")
        else:
            failures += 1
            lines.append(f"{mach.name}/{name}: FAILS")
            lines.extend(f"  {entry.describe()}" for entry in verdict.failing_envs)
    _emit(payload, args.json, lines)
    return 1 if failures else 0


def _cmd_check_library(args) -> int:
    reports = library.verify_library()
    payload = []
    lines = []
    bad = 0
    for report in reports:
        entry = {
            "primitive": report.primitive,
            "ok": report.ok,
            "problems": list(report.problems),
            "conditions": [
                {
                    "name": name,
                    "holds_overall": verdict.holds_overall,
                    "environments": verdict.environments,
                }
                for name, verdict in report.verdicts
            ],
        }
        payload.append(entry)
        if not report.ok:
            bad += 1
        for problem in report.problems:
            lines.append(f"{report.primitive}: PROBLEM {problem}")
        for name, verdict in report.verdicts:
            status = "holds" if verdict.holds_overall else "FAILS"
            lines.append(
                f"{report.primitive}/{name}: {status} ({verdict.environments} environments)"
            )
    lines.append(f"primitives checked: {len(reports)}, failing: {bad}")
    _emit(payload, args.json, lines)
    return 1 if bad else 0


def _cmd_oracle_check(args) -> int:
    mach, _ = _load_document(args.file)
    try:
        disagreements = checker.cross_validate(
            mach, bound=args.bound, max_states=args.max_states
        )
    except ValueError as exc:
        raise CommandError(str(exc)) from exc
    envs = checker.reasonable_envs(mach)
    total = len(envs) * len(mach.handshakes) * 2 * len(mach.states) * 2
    payload = {
        "machine": mach.name,
        "queries": total,
        "disagreements": [
            {
                "op": item.op,
                "handshake": item.handshake,
                "mode": item.mode,
                "env": machine.format_env(item.env),
                "start": item.start,
                "graph": item.fast,
                "oracle": item.slow,
            }
            for item in disagreements
        ],
    }
    lines = [f"machine: {mach.name}", f"queries: {total}"]
    for item in disagreements:
        lines.append(
            f"disagree: {item.op} {item.handshake} {item.mode}"
            f" env={machine.format_env(item.env)} start={item.start}"
            f" graph={item.fast} oracle={item.slow}"
        )
    lines.append(f"disagreements: {len(disagreements)}")
    _emit(payload, args.json, lines)
    return 1 if disagreements else 0


def _cmd_deadlock(args) -> int:
    netlist = _load(args.file, circuit.parse_netlist)
    if args.emit_smt is not None and args.channel is None:
        raise CommandError("--emit-smt requires --channel")
    channels = {channel.name for channel in netlist.channels}
    if args.channel is not None and args.channel not in channels:
        raise CommandError(f"no channel named {args.channel!r}")
    try:
        system = circuit.compose(netlist, args.max_states)
    except circuit.ExplorationLimitError as exc:
        raise CommandError(str(exc)) from exc
    finding = circuit.analyze_deadlock(system)
    payload = {
        "circuit": netlist.name,
        "deadlock": finding is not None,
        "instances": list(finding.instances) if finding else [],
        "state": (
            {inst: state for inst, state in zip(system.order, finding.state)}
            if finding
            else None
        ),
        "path": list(finding.path) if finding else None,
        "formula": None,
    }
    lines = [f"deadlock: {'yes' if finding else 'no'}"]
    if finding:
        lines.append(f"instances: {' '.join(finding.instances)}")
        lines.append(
            "state: "
            + " ".join(f"{inst}={st}" for inst, st in zip(system.order, finding.state))
        )
        lines.append(f"path: {' '.join(finding.path) if finding.path else '(initial)'}")
    if args.channel is not None:
        instance = circuit.derive_deadlock_formula(netlist, args.channel, system)
        model = instance.first_model()
        payload["formula"] = {
            "target": args.channel,
            "satisfiable": model is not None,
            "model": model,
        }
        lines.append(f"formula({args.channel}): {'sat' if model else 'unsat'}")
        if model:
            assigned = [name for name in instance.variables if model[name]]
            lines.append(f"model: {' '.join(assigned) if assigned else '(all false)'}")
        if args.emit_smt is not None:
            _write_file(args.emit_smt, circuit.emit_smt(instance))
    _emit(payload, args.json, lines)
    return 1 if finding else 0


# --- Arguments ---------------------------------------------------------------


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        message = f"must be an integer, got {text!r}"
    else:
        if value >= 0:
            return value
        message = f"must be non-negative, got {value}"
    import argparse  # here, so that a valid call does not pay for its import

    raise argparse.ArgumentTypeError(message)


class _Option(Record):
    """One long option of a subcommand, as add_argument is given it."""

    flag: str
    help: str | None = None
    takes_value: bool = True  # False: a flag, True when given, else False
    type: Callable[[str], object] | None = None
    choices: tuple[str, ...] | None = None
    required: bool = False
    default: object = None
    metavar: str | None = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


class _Command(Record):
    """A subcommand: its help line, handler, whether it takes a file and
    its own options, in the order its usage line lists them."""

    help: str
    handler: Callable
    options: tuple[_Option, ...] = ()
    file: bool = True


# Every subcommand's last options.
_SHARED = (
    _Option("--json", "emit JSON instead of text", takes_value=False),
    _Option(
        "--deterministic",
        "byte-deterministic output (always on; flag kept for CI recipes)",
        takes_value=False,
    ),
)
_HANDSHAKE = _Option("--handshake", required=True)

# The argument table, in the order the top-level help lists the subcommands.
_COMMANDS = {
    "validate": _Command(
        "validate a machine file",
        _cmd_validate,
        (_Option("--emit-dot", "also write a graphviz rendering", metavar="PATH"),),
    ),
    "labels": _Command("blocking/idling labels per state", _cmd_labels, (_HANDSHAKE,)),
    "envs": _Command("list the reasonable environments", _cmd_envs),
    "query": _Command(
        "run one temporal query",
        _cmd_query,
        (
            _HANDSHAKE,
            _Option("--op", choices=("g", "fg", "blocked", "idle"), required=True),
            _Option("--mode", choices=(checker.BLOCKING, checker.IDLING)),
            _Option("--env", "stable input wires, e.g. a.R,c.A (default: live)"),
            _Option("--start", "start state (default: initial state)"),
        ),
    ),
    "check": _Command(
        "verify conditions against a machine",
        _cmd_check,
        (
            _Option("--condition", "condition DSL text (default: file trailer)"),
            _Option("--name", "check only the named trailer condition"),
        ),
    ),
    "check-library": _Command("re-verify the builtin library", _cmd_check_library, file=False),
    "oracle-check": _Command(
        "cross-validate against the oracle",
        _cmd_oracle_check,
        (
            _Option("--bound", "walk bound (default: states + 1)", type=int),
            _Option(
                "--max-states",
                "largest machine the oracle accepts",
                type=_non_negative_int,
                default=checker.ORACLE_MAX_STATES,
            ),
        ),
    ),
    "deadlock": _Command(
        "search a circuit for deadlocks",
        _cmd_deadlock,
        (
            _Option("--channel", "derive and solve Dead(channel)"),
            _Option("--emit-smt", "write the instance as SMT-LIB 2", metavar="PATH"),
            _Option(
                "--max-states",
                "product exploration bound",
                type=_non_negative_int,
                default=circuit.PRODUCT_LIMIT,
            ),
        ),
    ),
}


def _read_argv(argv: Sequence[str]) -> SimpleNamespace | None:
    """What parse_args returns for argv, read from the table without
    argparse, when argv is exactly a call it lists: a subcommand, then its
    file and its long options spelled out in full, each as --opt VALUE or
    --opt=VALUE, or as --flag, in any order; no value starts with "-",
    every value converts and is among the choices, and every required
    option is given. None for anything else, which argparse then parses:
    help, abbreviations, "--" and every usage error stay its own."""

    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    options = {option.flag: option for option in command.options + _SHARED}
    values = {
        option.dest: option.default if option.takes_value else False
        for option in options.values()
    }
    files = []
    missing = {option.flag for option in options.values() if option.required}
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            files.append(token)
            continue
        flag, equals, text = token.partition("=")
        option = options.get(flag)
        if option is None or (equals and not option.takes_value):
            return None
        if not option.takes_value:
            values[option.dest] = True
            continue
        if not equals:
            text = next(tokens, "-")  # a missing value is declined as a dash
        if text.startswith("-"):
            return None
        try:
            value = option.type(text) if option.type else text
        except Exception:  # argparse converts it again and reports why it fails
            return None
        if option.choices is not None and value not in option.choices:
            return None
        values[option.dest] = value
        missing.discard(flag)
    if missing or len(files) != int(command.file):
        return None
    if command.file:
        values["file"] = files[0]
    return SimpleNamespace(command=argv[0], func=command.handler, **values)


def _add_arguments(command: _Command, sub: argparse.ArgumentParser) -> None:
    """One subcommand's arguments from the table."""

    if command.file:
        sub.add_argument("file")
    for option in command.options + _SHARED:
        if option.takes_value:
            sub.add_argument(
                option.flag,
                type=option.type,
                choices=option.choices,
                required=option.required,
                default=option.default,
                metavar=option.metavar,
                help=option.help,
            )
        else:
            sub.add_argument(option.flag, action="store_true", help=option.help)


def _build_parser() -> argparse.ArgumentParser:
    """The whole parser tree; main reaches it only for help and usage errors."""

    import argparse  # here, so that a call _read_argv reads does not pay for it

    parser = argparse.ArgumentParser(
        prog="xdicheck",
        description="Verification toolkit for delay-insensitive handshake machines.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, spec in _COMMANDS.items():
        sub = subparsers.add_parser(command, help=spec.help)
        _add_arguments(spec, sub)
        sub.set_defaults(func=spec.handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; returns the exit code instead of raising."""

    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            _write_stdout("")  # the help text argparse leaves in the buffer
            return int(exc.code or 0)
    # The cyclic collector is paused while the command runs: no command
    # builds reference cycles, so reference counting frees what it
    # allocates and the collector's passes would find nothing. The one
    # exception, the cycle json's indented encoder leaves per --json call,
    # is freed by the first collection after the command.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (CommandError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Exit code 1 means "the property fails", so a crash must not
        # escape as an uncaught exception, which the interpreter turns into 1.
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
