"""Boolean conditions over blocked/idle atoms.

Conditions are small formulas such as `blocked(a) <-> blocked(c) | idle(b)`,
read from the condition DSL by parse_condition. Verifying one against a
machine means evaluating it under every reasonable environment, with
blocked(h) and idle(h) answered by the checker. The same AST doubles as the
constraint language for deadlock instances, where the atoms have been
substituted by free boolean variables: smt_term renders those as SMT-LIB,
first_model solves them, and satisfying_models enumerates them exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as cartesian
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

from . import checker
from .labeling import UnknownHandshakeError
from .machine import Environment, XdiMachine, format_env
from .sexpr import ParseError

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
    "formula_variables",
    "map_atoms",
    "evaluate",
    "eval_condition",
    "EnvVerdict",
    "Verdict",
    "verify_condition",
    "smt_term",
    "satisfying_models",
    "first_model",
]


@dataclass(frozen=True)
class Const:
    value: bool


@dataclass(frozen=True)
class BlockedAtom:
    handshake: str


@dataclass(frozen=True)
class IdleAtom:
    handshake: str


@dataclass(frozen=True)
class VarAtom:
    name: str


@dataclass(frozen=True)
class Not:
    operand: "Formula"


@dataclass(frozen=True)
class And:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Or:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Implies:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Iff:
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

_Token = tuple[str, str, int, int]  # kind, text, line, column


def _lex(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            tokens.append(("name", word, line, col))
            col += i - start
            continue
        if ch in "()!&|":
            tokens.append(("punct", ch, line, col))
            i += 1
            col += 1
            continue
        if text.startswith("<->", i):
            tokens.append(("punct", "<->", line, col))
            i += 3
            col += 3
            continue
        if text.startswith("->", i):
            tokens.append(("punct", "->", line, col))
            i += 2
            col += 2
            continue
        raise ParseError(f"unexpected character {ch!r} in condition", line, col)
    tokens.append(("eof", "", line, col))
    return tokens


def _expect(token: _Token, value: str) -> None:
    kind, text, line, col = token
    if kind != "punct" or text != value:
        shown = text if text else "end of input"
        raise ParseError(f"expected {value!r}, found {shown!r}", line, col)


def _primary(token: _Token, take: Callable[[], _Token]) -> Formula:
    """The constant or atom starting at token; take reads the tokens after it."""

    kind, text, line, col = token
    if kind == "name":
        if text == "true":
            return TRUE
        if text == "false":
            return FALSE
        if text in ("blocked", "idle"):
            _expect(take(), "(")
            kind2, name, line2, col2 = take()
            if kind2 != "name":
                raise ParseError("expected a handshake name", line2, col2)
            _expect(take(), ")")
            return BlockedAtom(name) if text == "blocked" else IdleAtom(name)
        raise ParseError(f"unknown atom {text!r}", line, col)
    shown = text if text else "end of input"
    raise ParseError(f"expected a formula, found {shown!r}", line, col)


def parse_condition(text: str) -> Formula:
    """Parse the condition DSL into a formula.

    One loop over an operator stack (Dijkstra's shunting-yard) instead of
    recursive descent, so deep nesting stays off the call stack. Tokens are
    read left to right as a recursive descent parser would read them, so
    each error is raised at the same token with the same message.
    """

    take = iter(_lex(text)).__next__
    operands: list[Formula] = []
    operators: list[str] = []  # "(", "!" and binary operator symbols
    while True:
        # Operand position: prefixes, then one constant or atom.
        token = take()
        if token[0] == "punct" and token[1] in ("(", "!"):
            operators.append(token[1])
            continue
        operands.append(_primary(token, take))
        # Operator position, until a binary operator asks for the next operand.
        while True:
            while operators and operators[-1] == "!":
                operators.pop()
                operands[-1] = Not(operands[-1])
            token = take()
            kind, word, line, col = token
            prec = _BINARY[word][0] if word in _BINARY else 0
            # Reduce what binds at least as tightly; '->' groups to the right.
            while operators and operators[-1] in _BINARY:
                top = operators[-1]
                if _BINARY[top][0] < prec or top == word == "->":
                    break
                operators.pop()
                rhs = operands.pop()
                operands[-1] = _BINARY[top][1](operands[-1], rhs)
            if prec:
                operators.append(word)
                break
            if operators:  # the innermost open parenthesis
                _expect(token, ")")
                operators.pop()
            elif kind != "eof":
                raise ParseError(f"trailing input starting at {word!r}", line, col)
            else:
                return operands[0]


# --- Structure helpers -------------------------------------------------------


def atoms(form: Formula) -> Iterator[Formula]:
    """Yield every atom, left to right, duplicates included."""

    stack = [form]
    while stack:
        node = stack.pop()
        if isinstance(node, (BlockedAtom, IdleAtom, VarAtom)):
            yield node
        elif isinstance(node, Not):
            stack.append(node.operand)
        elif isinstance(node, (And, Or, Implies, Iff)):
            stack.append(node.rhs)
            stack.append(node.lhs)


def condition_handshakes(form: Formula) -> frozenset[str]:
    return frozenset(
        atom.handshake for atom in atoms(form) if isinstance(atom, (BlockedAtom, IdleAtom))
    )


def formula_variables(forms: Iterable[Formula]) -> tuple[str, ...]:
    """Sorted free variable names across the given formulas."""

    names = set()
    for form in forms:
        for atom in atoms(form):
            if isinstance(atom, VarAtom):
                names.add(atom.name)
    return tuple(sorted(names))


def map_atoms(form: Formula, fn: Callable[[Formula], Formula]) -> Formula:
    """Rebuild the formula with every atom passed through fn."""

    if isinstance(form, (BlockedAtom, IdleAtom, VarAtom)):
        return fn(form)
    if isinstance(form, Not):
        return Not(map_atoms(form.operand, fn))
    if isinstance(form, (And, Or, Implies, Iff)):
        rebuilt = type(form)(map_atoms(form.lhs, fn), map_atoms(form.rhs, fn))
        return rebuilt
    return form


# --- Evaluation --------------------------------------------------------------


def evaluate(form: Formula, resolve: Callable[[Formula], bool]) -> bool:
    """Evaluate with atoms answered by the resolve callback.

    Left operands go first and short-circuit as in Python, so resolve sees
    the atoms a recursive evaluation would, in the same order. An explicit
    stack keeps deep formulas off the call stack.
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


def _machine_resolver(machine: XdiMachine, env: Environment) -> Callable[[Formula], bool]:
    def resolve(atom: Formula) -> bool:
        if isinstance(atom, BlockedAtom):
            return checker.blocked(machine, atom.handshake, env)
        if isinstance(atom, IdleAtom):
            return checker.idle(machine, atom.handshake, env)
        raise ValueError(f"free variable {atom.name!r} in a machine condition")

    return resolve


def _check_atoms_known(form: Formula, machine: XdiMachine) -> None:
    for name in sorted(condition_handshakes(form)):
        if name not in machine.handshakes:
            raise UnknownHandshakeError(
                f"machine {machine.name} has no handshake {name!r}"
            )


def eval_condition(form: Formula, machine: XdiMachine, env: Environment) -> bool:
    """Evaluate one condition under one environment."""

    _check_atoms_known(form, machine)
    return evaluate(form, _machine_resolver(machine, env))


@dataclass(frozen=True)
class EnvVerdict:
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


@dataclass(frozen=True)
class Verdict:
    """Per-environment outcomes for one condition against one machine."""

    holds_overall: bool
    per_env: tuple[EnvVerdict, ...]

    @property
    def failing_envs(self) -> tuple[EnvVerdict, ...]:
        return tuple(entry for entry in self.per_env if not entry.holds)


def verify_condition(form: Formula, machine: XdiMachine) -> Verdict:
    """Evaluate the condition under every reasonable environment.

    Environments are visited smallest first; the verdict preserves that
    order.
    """

    _check_atoms_known(form, machine)
    entries = []
    for env in checker.reasonable_envs(machine):
        resolve = _machine_resolver(machine, env)
        if isinstance(form, Iff):
            lhs = evaluate(form.lhs, resolve)
            rhs = evaluate(form.rhs, resolve)
            entries.append(EnvVerdict(env, lhs, rhs, lhs == rhs))
        else:
            value = evaluate(form, resolve)
            entries.append(EnvVerdict(env, value, value, value))
    return Verdict(all(entry.holds for entry in entries), tuple(entries))


# --- SMT-LIB rendering -------------------------------------------------------


class _Text(str):
    """Literal output on smt_term's stack, as opposed to a formula node."""

    __slots__ = ()


_CLOSE = _Text(")")
_SPACE = _Text(" ")
_OPEN = {
    kind: _Text(f"({word} ")
    for kind, word in ((Not, "not"), (And, "and"), (Or, "or"), (Implies, "=>"), (Iff, "="))
}


def _flatten(form: Formula, cls: type) -> list[Formula]:
    """The operands of a chain of one connective, left to right."""

    parts: list[Formula] = []
    stack = [form]
    while stack:
        node = stack.pop()
        if type(node) is cls:
            stack += (node.rhs, node.lhs)
        else:
            parts.append(node)
    return parts


def smt_term(form: Formula) -> str:
    """Render a variable-only formula as an SMT-LIB 2 term.

    A chain of And or of Or becomes one n-ary term. Nodes and the text
    between them share an explicit stack, so deep formulas stay off the
    call stack.
    """

    out: list[str] = []
    stack: list[Formula | _Text] = [form]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is _Text:
            out.append(node)
        elif kind is Const:
            out.append("true" if node.value else "false")
        elif kind is VarAtom:
            out.append(node.name)
        elif kind in (BlockedAtom, IdleAtom):
            raise ValueError("blocked/idle atoms must be substituted before emission")
        elif kind is Not:
            stack += (_CLOSE, node.operand, _OPEN[Not])
        elif kind in _OPEN:
            parts = _flatten(node, kind) if kind in (And, Or) else (node.lhs, node.rhs)
            stack.append(_CLOSE)
            for part in reversed(parts):
                stack += (part, _SPACE)
            stack[-1] = _OPEN[kind]  # the space before the first part opens the term
        else:
            raise TypeError(f"not a formula: {node!r}")
    return "".join(out)


# --- Satisfiability: enumerator and lex-first DPLL ---------------------------


def satisfying_models(
    forms: Sequence[Formula], variables: Sequence[str] | None = None
) -> Iterator[dict[str, bool]]:
    """Enumerate assignments satisfying every formula, lexicographically
    with False before True over the variable list (sorted names when
    not given). Exhaustive over 2^vars assignments: the reference that
    first_model is tested against."""

    names = tuple(variables) if variables is not None else formula_variables(forms)
    for bits in cartesian((False, True), repeat=len(names)):
        model = dict(zip(names, bits))
        resolve = lambda atom: model[atom.name]
        if all(evaluate(form, resolve) for form in forms):
            yield model


def _tseitin(forms: Sequence[Formula], index: Mapping[str, int]) -> tuple[list[list[int]], int]:
    """Clauses over integer literals whose models, restricted to the input
    variables 1..len(index), are exactly the models of every formula.

    Each connective gets an auxiliary variable equivalent to it, numbered
    after the inputs; variable len(index) + 1 is the constant true. Returns
    the clauses and the highest variable number.
    """

    true = len(index) + 1
    clauses = [[true]]
    top = true
    literal: dict[int, int] = {}  # id(node) -> literal; forms keep every node alive
    for form in forms:
        stack = [form]
        while stack:
            node = stack[-1]
            if id(node) in literal:
                stack.pop()
                continue
            kind = type(node)
            if kind is Const:
                lit = true if node.value else -true
            elif kind is VarAtom:
                lit = index[node.name]
            elif kind is Not:
                if id(node.operand) not in literal:
                    stack.append(node.operand)
                    continue
                lit = -literal[id(node.operand)]
            elif kind in (And, Or, Implies, Iff):
                pending = [part for part in (node.rhs, node.lhs) if id(part) not in literal]
                if pending:
                    stack.extend(pending)
                    continue
                a, b = literal[id(node.lhs)], literal[id(node.rhs)]
                top += 1
                lit = top
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
            literal[id(node)] = lit
            stack.pop()
        clauses.append([literal[id(form)]])
    return clauses, top


def first_model(
    forms: Sequence[Formula], variables: Sequence[str] | None = None
) -> dict[str, bool] | None:
    """The first satisfying assignment in satisfying_models order, or None.

    DPLL over the Tseitin clauses of the formulas: branch on the given
    variables in order, False before True, with unit propagation after
    each decision and chronological backtracking. Propagation and conflicts
    only cut subtrees that hold no model, so the first complete assignment
    reached is the lexicographically first model.
    Auxiliary variables are never branched on: once the inputs are set,
    propagation fixes every one of them. A variable a formula names but
    variables lacks raises KeyError.
    """

    names = tuple(variables) if variables is not None else formula_variables(forms)
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
