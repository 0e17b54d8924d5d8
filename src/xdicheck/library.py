"""Builtin primitive library.

Each primitive ships as a data file holding its machine and the verified
blocking/idling conditions. Each file is parsed on the first use of its
primitive, so a netlist loads only the primitives it names; the full
verification pass (validation, unambiguity, every condition under every
environment) is exercised by verify_library, which the test suite and
the check-library subcommand run end to end.
"""

from __future__ import annotations

import os
from functools import cache
from typing import Mapping

from .formulas import And, BlockedAtom, Formula, IdleAtom, Iff, Not, VarAtom, Verdict
from .formulas import parse_condition, verify_condition
from .labeling import check_unambiguous
from .machine import XdiMachine, parse_document, validate
from .record import Record

__all__ = [
    "NamedCondition",
    "PrimitiveSpec",
    "PRIMITIVE_NAMES",
    "STORAGE_FULLNESS",
    "builtin_library",
    "get_primitive",
    "LibraryEntryReport",
    "verify_library",
]

PRIMITIVE_NAMES = ("join", "distributor", "fork", "storage", "source", "sink")


class NamedCondition(Record):
    name: str
    formula: Formula
    text: str


# Fullness of the storage machine in its settled states (all handshakes
# at even parity). Only settled states need a fullness value: the
# deadlock-formula projection samples the product space there.
STORAGE_FULLNESS: Mapping[str, bool] = {"s0": False, "s2": True}
_FULLNESS = {"storage": STORAGE_FULLNESS}

# What the deadlock formula assumes of storage, source and sink in place
# of their shipped conditions; VarAtom("full") stands for the instance's
# full_<instance> variable. check-library verifies none of these facts.
_FULL = VarAtom("full")
_FORMULA_FACTS = {
    "storage": (
        NamedCondition("blocked_in", Iff(BlockedAtom("in"), And(_FULL, BlockedAtom("out"))),
                       "blocked(in) <-> full & blocked(out)"),
        NamedCondition("idle_out", Iff(IdleAtom("out"), And(Not(_FULL), IdleAtom("in"))),
                       "idle(out) <-> !full & idle(in)"),
    ),
    "source": (NamedCondition("live_out", Not(IdleAtom("out")), "!idle(out)"),),
    "sink": (NamedCondition("live_in", Not(BlockedAtom("in")), "!blocked(in)"),),
}


class PrimitiveSpec(Record):
    """A machine with its verified conditions, and what the deadlock
    formula assumes of each instance: its facts and, when it has a
    full_<instance> variable, the fullness of each settled state."""

    name: str
    machine: XdiMachine
    conditions: tuple[NamedCondition, ...]
    facts: tuple[NamedCondition, ...]
    fullness: Mapping[str, bool]

    def __hash__(self) -> int:  # fullness is a dict: left out of the hash
        return hash((self.name, self.machine, self.conditions, self.facts))


# The data files sit beside this module and are opened by path: importing
# importlib.resources takes longer than parsing all six of them.
_DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "library_data")


@cache
def get_primitive(name: str) -> PrimitiveSpec:
    """The shipped primitive of that name, its file parsed on first use."""

    if name not in PRIMITIVE_NAMES:
        raise KeyError(f"no builtin primitive named {name!r}")
    with open(os.path.join(_DATA, f"{name}.xdi"), encoding="utf-8") as handle:
        machine, raw_conditions = parse_document(handle.read())
    conditions = tuple(
        NamedCondition(cond_name, parse_condition(text), text)
        for cond_name, text in raw_conditions
    )
    facts = _FORMULA_FACTS.get(name, conditions)
    return PrimitiveSpec(machine.name, machine, conditions, facts, _FULLNESS.get(name, {}))


def builtin_library() -> tuple[PrimitiveSpec, ...]:
    """All shipped primitives, in stable order."""

    return tuple(map(get_primitive, PRIMITIVE_NAMES))


class LibraryEntryReport(Record):
    """Verification outcome for one primitive."""

    primitive: str
    problems: tuple[str, ...]
    verdicts: tuple[tuple[str, Verdict], ...]

    @property
    def ok(self) -> bool:
        return not self.problems and all(v.holds_overall for _, v in self.verdicts)


def verify_library() -> tuple[LibraryEntryReport, ...]:
    """Re-verify every shipped primitive from scratch."""

    reports = []
    for spec in builtin_library():
        problems: list[str] = []
        report = validate(spec.machine)
        problems.extend(report.violations)
        if report.ok:
            for handshake in sorted(spec.machine.handshakes):
                ambiguity = check_unambiguous(spec.machine, handshake)
                if ambiguity.ambiguous:
                    problems.append(f"ambiguous labels for handshake {handshake}")
        verdicts = tuple(
            (cond.name, verify_condition(cond.formula, spec.machine))
            for cond in spec.conditions
        )
        reports.append(LibraryEntryReport(spec.name, tuple(problems), verdicts))
    return tuple(reports)
