"""Command-line front end.

One executable, eight subcommands: validate, labels, envs, query, check,
check-library, oracle-check, deadlock. Exit code 0 means the command
succeeded and any checked property holds, 1 means a property was
violated (details on stdout), 2 means the invocation or input was bad or
the program failed internally.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import checker, circuit, formulas, labeling, library, machine
from .sexpr import ParseError

__all__ = ["main", "entrypoint"]


class CommandError(Exception):
    """Invalid input or usage; reported on stderr with exit code 2."""


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise CommandError(f"cannot read {path}: {exc.strerror}") from exc


def _load_document(path: str, validated: bool = True):
    try:
        parsed = machine.parse_document(_read_file(path))
    except ParseError as exc:
        raise CommandError(f"{path}:{exc.line}:{exc.column}: {exc.message}") from exc
    if validated:
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


def _emit(payload, as_json: bool, lines: Sequence[str]) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


# --- Subcommand handlers -----------------------------------------------------


def _cmd_validate(args) -> int:
    try:
        parsed = machine.parse_document(_read_file(args.file))
    except ParseError as exc:
        raise CommandError(
            f"{args.file}:{exc.line}:{exc.column}: {exc.message}"
        ) from exc
    mach = parsed[0]
    report = machine.validate(mach)
    if args.emit_dot:
        with open(args.emit_dot, "w", encoding="utf-8") as handle:
            handle.write(_to_dot(mach))
    payload = {"file": args.file, "ok": report.ok, "violations": list(report.violations)}
    lines = [f"machine: {mach.name}", f"ok: {'yes' if report.ok else 'no'}"]
    lines.extend(f"violation: {violation}" for violation in report.violations)
    _emit(payload, args.json, lines)
    return 0 if report.ok else 2


def _to_dot(mach: machine.XdiMachine) -> str:
    lines = [f"digraph {mach.name} {{", "  rankdir=LR;", '  __start [shape=none, label=""];']
    lines.append(f"  __start -> {mach.init_state};")
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
        report = labeling.check_unambiguous(mach, args.handshake)
        if report.ambiguous:
            lines = ["ambiguous: yes"]
            payload_witnesses = []
            for witness in report.witnesses:
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
        labels = labeling.compute_block_idle(mach, args.handshake)
    except labeling.UnknownHandshakeError as exc:
        raise CommandError(str(exc)) from exc
    blocking = sorted(state for state, value in labels.labels.items() if value)
    idling = sorted(state for state, value in labels.labels.items() if not value)
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
        if args.mode or args.start:
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
        payload.append(_verdict_payload(name, mach.name, text, verdict))
        if verdict.holds_overall:
            lines.append(f"{mach.name}/{name}: holds ({len(verdict.per_env)} environments)")
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
                    "environments": len(verdict.per_env),
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
                f"{report.primitive}/{name}: {status} ({len(verdict.per_env)} environments)"
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
    try:
        netlist = circuit.parse_netlist(_read_file(args.file))
    except ParseError as exc:
        raise CommandError(f"{args.file}:{exc.line}:{exc.column}: {exc.message}") from exc
    except circuit.NetlistError as exc:
        raise CommandError(f"{args.file}: {exc}") from exc
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
        try:
            instance = circuit.derive_deadlock_formula(netlist, args.channel, system)
        except circuit.NetlistError as exc:
            raise CommandError(str(exc)) from exc
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
        if args.emit_smt:
            with open(args.emit_smt, "w", encoding="utf-8") as handle:
                handle.write(circuit.emit_smt(instance))
    elif args.emit_smt:
        raise CommandError("--emit-smt requires --channel")
    _emit(payload, args.json, lines)
    return 1 if finding else 0


# --- Parser ------------------------------------------------------------------


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xdicheck",
        description="Verification toolkit for delay-insensitive handshake machines.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def common(sub):
        sub.add_argument("--json", action="store_true", help="emit JSON instead of text")
        sub.add_argument(
            "--deterministic",
            action="store_true",
            help="byte-deterministic output (always on; flag kept for CI recipes)",
        )

    sub = subparsers.add_parser("validate", help="validate a machine file")
    sub.add_argument("file")
    sub.add_argument("--emit-dot", metavar="PATH", help="also write a graphviz rendering")
    common(sub)
    sub.set_defaults(func=_cmd_validate)

    sub = subparsers.add_parser("labels", help="blocking/idling labels per state")
    sub.add_argument("file")
    sub.add_argument("--handshake", required=True)
    common(sub)
    sub.set_defaults(func=_cmd_labels)

    sub = subparsers.add_parser("envs", help="list the reasonable environments")
    sub.add_argument("file")
    common(sub)
    sub.set_defaults(func=_cmd_envs)

    sub = subparsers.add_parser("query", help="run one temporal query")
    sub.add_argument("file")
    sub.add_argument("--handshake", required=True)
    sub.add_argument("--op", choices=("g", "fg", "blocked", "idle"), required=True)
    sub.add_argument("--mode", choices=(checker.BLOCKING, checker.IDLING))
    sub.add_argument("--env", help="stable input wires, e.g. a.R,c.A (default: live)")
    sub.add_argument("--start", help="start state (default: initial state)")
    common(sub)
    sub.set_defaults(func=_cmd_query)

    sub = subparsers.add_parser("check", help="verify conditions against a machine")
    sub.add_argument("file")
    sub.add_argument("--condition", help="condition DSL text (default: file trailer)")
    sub.add_argument("--name", help="check only the named trailer condition")
    common(sub)
    sub.set_defaults(func=_cmd_check)

    sub = subparsers.add_parser("check-library", help="re-verify the builtin library")
    common(sub)
    sub.set_defaults(func=_cmd_check_library)

    sub = subparsers.add_parser("oracle-check", help="cross-validate against the oracle")
    sub.add_argument("file")
    sub.add_argument("--bound", type=int, help="walk bound (default: states + 1)")
    sub.add_argument(
        "--max-states",
        type=_non_negative_int,
        default=checker.ORACLE_MAX_STATES,
        help="largest machine the oracle accepts",
    )
    common(sub)
    sub.set_defaults(func=_cmd_oracle_check)

    sub = subparsers.add_parser("deadlock", help="search a circuit for deadlocks")
    sub.add_argument("file")
    sub.add_argument("--channel", help="derive and solve Dead(channel)")
    sub.add_argument("--emit-smt", metavar="PATH", help="write the instance as SMT-LIB 2")
    sub.add_argument(
        "--max-states",
        type=_non_negative_int,
        default=circuit.PRODUCT_LIMIT,
        help="product exploration bound",
    )
    common(sub)
    sub.set_defaults(func=_cmd_deadlock)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; returns the exit code instead of raising."""

    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"error: {exc.message} at {exc.line}:{exc.column}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Exit code 1 means "the property fails", so a crash must not
        # escape as an uncaught exception, which the interpreter turns into 1.
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
