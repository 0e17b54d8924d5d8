"""Boolean conditions over blocked/idle atoms.

Conditions are small formulas such as `blocked(a) <-> blocked(c) | idle(b)`,
read from the condition DSL by parse_condition. Verifying one against a
machine means evaluating it under every reasonable environment, with
blocked(h) and idle(h) answered by the checker. The same AST doubles as the
constraint language for deadlock instances, where the atoms have been
substituted by free boolean variables: smt_term renders those as SMT-LIB
and first_model solves them.
"""

from __future__ import annotations

import re
from collections import deque
from typing import Callable, Iterator, Mapping, Sequence, Union

from . import checker
from .labeling import UnknownHandshakeError
from .machine import Environment, XdiMachine, format_env
from .record import Record
from .sexpr import ParseError, located

__all__ = [
    "Formula",
    "Const",
    "TRUE",
    "FALSE",
    "BlockedAtom",
    "IdleAtom",
    "VarAtom",
    "Not",
    "And",
    "Or",
    "Implies",
    "Iff",
    "parse_condition",
    "atoms",
    "condition_handshakes",
    "map_atoms",
    "evaluate",
    "EnvVerdict",
    "Verdict",
    "verify_condition",
    "smt_term",
    "first_model",
]


class Const(Record):
    value: bool


class BlockedAtom(Record):
    handshake: str


class IdleAtom(Record):
    handshake: str


class VarAtom(Record):
    name: str


class Not(Record):
    operand: "Formula"


class And(Record):
    lhs: "Formula"
    rhs: "Formula"


class Or(Record):
    lhs: "Formula"
    rhs: "Formula"


class Implies(Record):
    lhs: "Formula"
    rhs: "Formula"


class Iff(Record):
    lhs: "Formula"
    rhs: "Formula"


Formula = Union[Const, BlockedAtom, IdleAtom, VarAtom, Not, And, Or, Implies, Iff]

TRUE = Const(True)
FALSE = Const(False)



# --- Parsing -----------------------------------------------------------------
#
# Grammar, loosest binding first:
#   iff     := implies ('<->' implies)*          left associative
#   implies := or ('->' implies)?                right associative
#   or      := and ('|' and)*                    left associative
#   and     := unary ('&' unary)*                left associative
#   unary   := '!' unary | primary
#   primary := 'true' | 'false' | 'blocked' '(' name ')'
#            | 'idle' '(' name ')' | '(' iff ')'

# Binary operators: precedence (higher binds tighter) and node type.
_BINARY = {"<->": (1, Iff), "->": (2, Implies), "|": (3, Or), "&": (4, And)}

# A word, an arrow, or any other character; whitespace (regex \s is
# str.isspace) is skipped. \w is str.isalnum or "_", so a word is a name
# if it starts with a letter or "_", and an unexpected character if not.
_TOKEN = re.compile(r"\w+|<->|->|\S")
_PUNCT = frozenset(("(", ")", "!", *_BINARY))

_Item = tuple[int, str]  # token index, token text ("" at the end of input)


def _is_name(token: str) -> bool:
    return token[:1].isalpha() or token[:1] == "_"


def _expect(item: _Item, value: str) -> None:
    index, token = item
    if token != value:
        shown = token or "end of input"
        raise ParseError(f"expected {value!r}, found {shown!r}", token=index)


def _primary(item: _Item, take: Callable[[], _Item]) -> Formula:
    """The constant or atom starting at item; take reads the tokens after it."""

    index, token = item
    if _is_name(token):
        if token == "true":
            return TRUE
        if token == "false":
            return FALSE
        if token in ("blocked", "idle"):
            _expect(take(), "(")
            name_index, name = take()
            if not _is_name(name):
                raise ParseError("expected a handshake name", token=name_index)
            _expect(take(), ")")
            return BlockedAtom(name) if token == "blocked" else IdleAtom(name)
        raise ParseError(f"unknown atom {token!r}", token=index)
    shown = token or "end of input"
    raise ParseError(f"expected a formula, found {shown!r}", token=index)


def parse_condition(text: str) -> Formula:
    """Parse the condition DSL into a formula.

    One loop over an operator stack (Dijkstra's shunting-yard) instead of
    recursive descent, so deep nesting stays off the call stack. Tokens are
    read left to right as a recursive descent parser would read them, so
    each error is raised at the same token with the same message. A bad
    character is reported before any parse error.
    """

    tokens = _TOKEN.findall(text)
    with located(text, _TOKEN):
        for index, token in enumerate(tokens):
            if token not in _PUNCT and not _is_name(token):
                raise ParseError(f"unexpected character {token[0]!r} in condition", token=index)
        tokens.append("")  # end of input
        return _shunting_yard(iter(enumerate(tokens)).__next__)


def _shunting_yard(take: Callable[[], _Item]) -> Formula:
    """The formula read from take's tokens, which end with the end of input."""

    operands: list[Formula] = []
    operators: list[str] = []  # "(", "!" and binary operator symbols
    while True:
        # Operand position: prefixes, then one constant or atom.
        item = take()
        if item[1] in ("(", "!"):
            operators.append(item[1])
            continue
        operands.append(_primary(item, take))
        # Operator position, until a binary operator asks for the next operand.
        while True:
            while operators and operators[-1] == "!":
                operators.pop()
                operands[-1] = Not(operands[-1])
            item = take()
            index, token = item
            prec = _BINARY[token][0] if token in _BINARY else 0
            # Reduce what binds at least as tightly; '->' groups to the right.
            while operators and operators[-1] in _BINARY:
                top = operators[-1]
                if _BINARY[top][0] < prec or top == token == "->":
                    break
                operators.pop()
                rhs = operands.pop()
                operands[-1] = _BINARY[top][1](operands[-1], rhs)
            if prec:
                operators.append(token)
                break
            if operators:  # the innermost open parenthesis
                _expect(item, ")")
                operators.pop()
            elif token:
                raise ParseError(f"trailing input starting at {token!r}", token=index)
            else:
                return operands[0]


# --- Structure helpers -------------------------------------------------------


def _postorder(form: Formula) -> list[Formula]:
    """Every node, children before parents and lhs before rhs: the reverse
    of a parent-first walk that pushes lhs, then rhs. The transforms fold it
    with a value stack, so deep formulas stay off the call stack."""

    order = []
    stack = [form]
    while stack:
        node = stack.pop()
        order.append(node)
        kind = type(node)
        if kind is Not:
            stack.append(node.operand)
        elif kind in (And, Or, Implies, Iff):
            stack += (node.lhs, node.rhs)
    return order[::-1]


def atoms(form: Formula) -> Iterator[Formula]:
    """Yield every atom, left to right, duplicates included."""

    return (node for node in _postorder(form) if type(node) in (BlockedAtom, IdleAtom, VarAtom))


def condition_handshakes(form: Formula) -> frozenset[str]:
    return frozenset(
        atom.handshake for atom in atoms(form) if isinstance(atom, (BlockedAtom, IdleAtom))
    )


def map_atoms(form: Formula, fn: Callable[[Formula], Formula]) -> Formula:
    """Rebuild the formula with every atom passed through fn, left to right."""

    values: list[Formula] = []
    for node in _postorder(form):
        kind = type(node)
        if kind in (BlockedAtom, IdleAtom, VarAtom):
            values.append(fn(node))
        elif kind is Not:
            values[-1] = Not(values[-1])
        elif kind in (And, Or, Implies, Iff):
            rhs = values.pop()
            values[-1] = kind(values[-1], rhs)
        else:
            values.append(node)
    return values[0]


# --- Evaluation --------------------------------------------------------------


def evaluate(form: Formula, resolve: Callable[[Formula], bool]) -> bool:
    """Evaluate with atoms answered by the resolve callback.

    Left operands go first and short-circuit as in Python, so resolve sees
    the atoms a recursive evaluation would, in the same order. An explicit
    stack keeps deep formulas off the call stack.

    It keeps its own walk instead of folding _postorder, which lists every
    atom: an atom that &, | or -> cuts short is never resolved, so it costs
    no backward pass (the cost model in the README).
    """

    stack: list[tuple[Formula, bool | None]] = []  # (node, lhs value or None)
    node = form
    while True:
        kind = type(node)
        if kind is Const:
            value = node.value
        elif kind in (BlockedAtom, IdleAtom, VarAtom):
            value = resolve(node)
        elif kind is Not:
            stack.append((node, None))
            node = node.operand
            continue
        elif kind in (And, Or, Implies, Iff):
            stack.append((node, None))
            node = node.lhs
            continue
        else:
            raise TypeError(f"not a formula: {node!r}")
        # Pass the value up until a binary node still needs its rhs.
        while stack:
            parent, lhs = stack.pop()
            kind = type(parent)
            if kind is Not:
                value = not value
            elif lhs is not None:
                if kind is Iff:
                    value = lhs == value
            elif kind is Iff or value != (kind is Or):
                stack.append((parent, value))
                node = parent.rhs
                break
            else:
                # The lhs decides: false for And, true for Or and Implies.
                value = kind is not And
        else:
            return value


def _machine_resolver(
    machine: XdiMachine, env: Environment, made: list
) -> Callable[[Formula], bool]:
    """Answer blocked(h) and idle(h) as checker.blocked and checker.idle
    would, from one exploration under env, made at the first such atom and
    appended to made."""

    def resolve(atom: Formula) -> bool:
        if not isinstance(atom, (BlockedAtom, IdleAtom)):
            raise ValueError(f"free variable {atom.name!r} in a machine condition")
        if not made:
            made.append(checker._EnvAnswers(machine, env, (machine.init_state,)))
        mode = checker.BLOCKING if isinstance(atom, BlockedAtom) else checker.IDLING
        return made[0].fg(atom.handshake, mode, machine.init_state)

    return resolve


def _check_atoms_known(form: Formula, machine: XdiMachine) -> None:
    for name in sorted(condition_handshakes(form)):
        if name not in machine.handshakes:
            raise UnknownHandshakeError(
                f"machine {machine.name} has no handshake {name!r}"
            )


class EnvVerdict(Record):
    """Condition outcome under a single environment.

    For an iff-rooted condition, lhs and rhs are the two sides' values;
    for any other shape both carry the formula's value.
    """

    env: Environment
    lhs: bool
    rhs: bool
    holds: bool

    def describe(self) -> str:
        flag = "holds" if self.holds else "FAILS"
        return f"{format_env(self.env)}: lhs={self.lhs} rhs={self.rhs} {flag}"


class Verdict(Record):
    """Per-environment outcomes for one condition against one machine.

    environments counts the environments. A verdict from verify_condition
    holds one outcome per class of environments and builds per_env, in
    reasonable_envs order, only when it is first read.
    """

    holds_overall: bool
    per_env: tuple[EnvVerdict, ...]

    @property
    def environments(self) -> int:
        filed = self.__dict__.get("_filed")
        if filed is None:
            return len(self.per_env)
        return 2 ** len(filed[0].sorted_input_wires)

    @property
    def failing_envs(self) -> tuple[EnvVerdict, ...]:
        return tuple(entry for entry in self.per_env if not entry.holds)

    def __getattr__(self, name: str):
        # Only an attribute never set gets here: the per_env of a verdict
        # from verify_condition, built from its classes and then kept.
        filed = self.__dict__.get("_filed")
        if name != "per_env" or filed is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        machine, classes = filed
        per_env = tuple(
            EnvVerdict(env, *classes.find(env)) for env in checker.reasonable_envs(machine)
        )
        object.__setattr__(self, "per_env", per_env)
        return per_env


def verify_condition(form: Formula, machine: XdiMachine) -> Verdict:
    """Evaluate the condition under every reasonable environment.

    Each class of environments (checker._EnvClasses) is explored and
    evaluated once, at its smallest environment: the wires its exploration
    answers stable. The walk starts at the empty environment. Every wire
    an exploration tests past the wires that fix its class opens a child
    class, with that wire stable and the wires tested before it answered
    as in the parent; the child's smallest environment is one wire larger.
    Taking the classes size by size, each size in wire order, visits them
    in reasonable_envs order: the environments a loop over every
    environment explores, in the same order, so an error is that of the
    first environment whose evaluation raises. Each class's (lhs, rhs,
    holds) is filed in the trie; the verdict reads it only to build
    per_env.
    """

    _check_atoms_known(form, machine)
    iff = isinstance(form, Iff)
    wires = machine.sorted_input_wires
    rank = {wire: position for position, wire in enumerate(wires)}
    classes = checker._EnvClasses()
    holds_overall = True
    # A class of this size: its smallest environment, as positions in
    # wires, and how many of its exploration's tested wires fix it.
    level: list[tuple[tuple[int, ...], int]] = [((), 0)]
    while level:
        larger = []
        for positions, fixed in sorted(level):
            env = frozenset(wires[position] for position in positions)
            made: list = []
            resolve = _machine_resolver(machine, env, made)
            if iff:
                lhs, rhs = evaluate(form.lhs, resolve), evaluate(form.rhs, resolve)
            else:
                lhs = rhs = evaluate(form, resolve)
            holds = lhs == rhs if iff else lhs
            holds_overall = holds_overall and holds
            tested = list(made[0].tested) if made else []
            classes.add(env, tested, (lhs, rhs, holds))
            for depth in range(fixed, len(tested)):
                larger.append((tuple(sorted((*positions, rank[tested[depth]]))), depth + 1))
        level = larger
    verdict = Verdict.__new__(Verdict)
    object.__setattr__(verdict, "holds_overall", holds_overall)
    object.__setattr__(verdict, "_filed", (machine, classes))
    return verdict


# --- SMT-LIB rendering -------------------------------------------------------


_SMT_WORD = {Not: "not", And: "and", Or: "or", Implies: "=>", Iff: "="}


def _close(kind: type | None, pieces: deque) -> deque:
    """The pieces of a term, with the parentheses its open connective needs."""

    if kind is not None:
        pieces.appendleft(f"({_SMT_WORD[kind]} ")
        pieces.append(")")
    return pieces


def smt_term(form: Formula) -> str:
    """Render a variable-only formula as an SMT-LIB 2 term.

    Each term is a deque of text pieces left open, without its connective's
    parentheses, until its parent closes it, so a chain of And or of Or
    becomes one n-ary term. A deque grows at either end in constant time and
    the shorter operand moves into the longer, so deep formulas render in
    O(n log n) at worst.
    """

    values: list[tuple[type | None, deque]] = []  # (connective left open or None, pieces)
    for node in _postorder(form):
        kind = type(node)
        if kind is Const:
            values.append((None, deque(("true" if node.value else "false",))))
        elif kind is VarAtom:
            values.append((None, deque((node.name,))))
        elif kind in (BlockedAtom, IdleAtom):
            raise ValueError("blocked/idle atoms must be substituted before emission")
        elif kind is Not:
            values[-1] = (Not, _close(*values[-1]))
        elif kind in _SMT_WORD:
            (rkind, rhs), (lkind, lhs) = values.pop(), values.pop()
            chain = kind in (And, Or)
            lhs = lhs if chain and lkind is kind else _close(lkind, lhs)
            rhs = rhs if chain and rkind is kind else _close(rkind, rhs)
            if len(lhs) < len(rhs):
                rhs.appendleft(" ")
                rhs.extendleft(reversed(lhs))
                lhs = rhs
            else:
                lhs.append(" ")
                lhs.extend(rhs)
            values.append((kind, lhs))
        else:
            raise TypeError(f"not a formula: {node!r}")
    return "".join(_close(*values[0]))


# --- Satisfiability: lex-first DPLL ------------------------------------------


def _tseitin(forms: Sequence[Formula], index: Mapping[str, int]) -> tuple[list[list[int]], int]:
    """Clauses over integer literals whose models, restricted to the input
    variables 1..len(index), are exactly the models of every formula.

    Each connective gets an auxiliary variable equivalent to it, numbered
    after the inputs; variable len(index) + 1 is the constant true. Formulas
    are walked as trees: a node shared by identity gets a variable per
    occurrence. Returns the clauses and the highest variable number.
    """

    true = len(index) + 1
    clauses = [[true]]
    top = true
    for form in forms:
        literals: list[int] = []
        for node in _postorder(form):
            kind = type(node)
            if kind is Const:
                literals.append(true if node.value else -true)
            elif kind is VarAtom:
                literals.append(index[node.name])
            elif kind is Not:
                literals[-1] = -literals[-1]
            elif kind in (And, Or, Implies, Iff):
                b = literals.pop()
                a = literals[-1]
                top += 1
                lit = literals[-1] = top
                if kind is And:
                    clauses += [[-lit, a], [-lit, b], [lit, -a, -b]]
                elif kind is Iff:
                    clauses += [[-lit, -a, b], [-lit, a, -b], [lit, a, b], [lit, -a, -b]]
                else:
                    a = -a if kind is Implies else a
                    clauses += [[lit, -a], [lit, -b], [-lit, a, b]]
            elif kind in (BlockedAtom, IdleAtom):
                raise ValueError("blocked/idle atoms must be substituted before solving")
            else:
                raise TypeError(f"not a formula: {node!r}")
        clauses.append([literals[0]])
    return clauses, top


def first_model(
    forms: Sequence[Formula], variables: Sequence[str]
) -> dict[str, bool] | None:
    """The lexicographically first satisfying assignment, False before True
    over the variable list, or None.

    DPLL over the Tseitin clauses of the formulas: branch on the given
    variables in order, False before True, with unit propagation after
    each decision and chronological backtracking. Propagation and conflicts
    only cut subtrees that hold no model, so the first complete assignment
    reached is the lexicographically first model.
    Auxiliary variables are never branched on: once the inputs are set,
    propagation fixes every one of them, so walking the formulas as trees
    changes no model. A variable a formula names but variables lacks
    raises KeyError.
    """

    names = tuple(variables)
    clauses, top = _tseitin(forms, {name: i for i, name in enumerate(names, 1)})
    # Indexed by literal: index -v wraps to the back half, so v and -v never collide.
    value = [0] * (2 * top + 1)  # 1 true, -1 false, 0 free
    occurs: list[list[list[int]]] = [[] for _ in value]
    for clause in clauses:
        for lit in clause:
            occurs[lit].append(clause)
    trail: list[int] = []

    def assign(lit: int) -> bool:
        if not value[lit]:
            value[lit], value[-lit] = 1, -1
            trail.append(lit)
        return value[lit] == 1

    def propagate(head: int) -> bool:
        """Unit propagation from trail[head] on; False on a falsified clause."""

        while head < len(trail):
            for clause in occurs[-trail[head]]:
                if 1 not in [value[lit] for lit in clause]:
                    free = [lit for lit in clause if not value[lit]]
                    if not free:
                        return False
                    if len(free) == 1:
                        assign(free[0])
            head += 1
        return True

    units = [clause[0] for clause in clauses if len(clause) == 1]
    if not all(assign(lit) for lit in units) or not propagate(0):
        return None
    decisions: list[tuple[int, int]] = []  # (trail length before, literal tried)
    var = 1
    while True:
        while var <= len(names) and value[var]:
            var += 1
        if var > len(names):
            return {name: value[i] == 1 for i, name in enumerate(names, 1)}
        decisions.append((len(trail), -var))
        assign(-var)
        while not propagate(decisions[-1][0]):
            while decisions and decisions[-1][1] > 0:
                decisions.pop()
            if not decisions:
                return None
            mark, lit = decisions.pop()
            for undone in trail[mark:]:
                value[undone] = value[-undone] = 0
            del trail[mark:]
            decisions.append((mark, -lit))
            assign(-lit)
            var = 1 - lit
