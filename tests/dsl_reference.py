"""Reference code for the condition DSL, used only by the tests.

to_dsl prints a formula back to DSL text; the round-trip tests use it as
their printer. RecursiveConditionParser is the recursive descent parser
that parse_condition's operator-stack loop replaced, kept as its reference.
Both recurse once per nesting level, so they are meant for small formulas.
"""

from xdicheck.formulas import (
    FALSE,
    TRUE,
    And,
    BlockedAtom,
    Const,
    IdleAtom,
    Iff,
    Implies,
    Not,
    Or,
    VarAtom,
    _lex,
)
from xdicheck.sexpr import ParseError

_PRECEDENCE = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5}


def _render(form, parent, right_of_same):
    prec = _PRECEDENCE.get(type(form), 6)
    if isinstance(form, Const):
        text = "true" if form.value else "false"
    elif isinstance(form, BlockedAtom):
        text = f"blocked({form.handshake})"
    elif isinstance(form, IdleAtom):
        text = f"idle({form.handshake})"
    elif isinstance(form, VarAtom):
        text = form.name
    elif isinstance(form, Not):
        text = "!" + _render(form.operand, prec, False)
    else:
        symbol = {Iff: "<->", Implies: "->", Or: "|", And: "&"}[type(form)]
        if isinstance(form, Implies):
            # right associative: the left side needs parens at equal depth
            left = _render(form.lhs, prec, True)
            right = _render(form.rhs, prec, False)
        else:
            left = _render(form.lhs, prec, False)
            right = _render(form.rhs, prec, True)
        text = f"{left} {symbol} {right}"
    if prec < parent or (prec == parent and right_of_same):
        return f"({text})"
    return text


def to_dsl(form):
    """Render a formula back to DSL text; parse_condition(to_dsl(f)) == f."""

    return _render(form, 0, False)


class RecursiveConditionParser:
    """One method per grammar rule of the condition DSL."""

    def __init__(self, text):
        self.tokens = _lex(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_punct(self, value):
        kind, text, line, col = self.take()
        if kind != "punct" or text != value:
            shown = text if text else "end of input"
            raise ParseError(f"expected {value!r}, found {shown!r}", line, col)

    def at_punct(self, value):
        kind, text, _, _ = self.peek()
        return kind == "punct" and text == value

    def parse(self):
        form = self.iff()
        kind, text, line, col = self.peek()
        if kind != "eof":
            raise ParseError(f"trailing input starting at {text!r}", line, col)
        return form

    def iff(self):
        form = self.implies()
        while self.at_punct("<->"):
            self.take()
            form = Iff(form, self.implies())
        return form

    def implies(self):
        form = self.disjunction()
        if self.at_punct("->"):
            self.take()
            return Implies(form, self.implies())
        return form

    def disjunction(self):
        form = self.conjunction()
        while self.at_punct("|"):
            self.take()
            form = Or(form, self.conjunction())
        return form

    def conjunction(self):
        form = self.unary()
        while self.at_punct("&"):
            self.take()
            form = And(form, self.unary())
        return form

    def unary(self):
        if self.at_punct("!"):
            self.take()
            return Not(self.unary())
        return self.primary()

    def primary(self):
        kind, text, line, col = self.take()
        if kind == "punct" and text == "(":
            inner = self.iff()
            self.expect_punct(")")
            return inner
        if kind == "name":
            if text == "true":
                return TRUE
            if text == "false":
                return FALSE
            if text in ("blocked", "idle"):
                self.expect_punct("(")
                kind2, name, line2, col2 = self.take()
                if kind2 != "name":
                    raise ParseError("expected a handshake name", line2, col2)
                self.expect_punct(")")
                return BlockedAtom(name) if text == "blocked" else IdleAtom(name)
            raise ParseError(f"unknown atom {text!r}", line, col)
        shown = text if text else "end of input"
        raise ParseError(f"expected a formula, found {shown!r}", line, col)


def recursive_parse_condition(text):
    return RecursiveConditionParser(text).parse()
