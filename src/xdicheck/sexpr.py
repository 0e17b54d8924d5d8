"""Minimal s-expression reader.

The machine and netlist file formats are parenthesized forms built from
symbols and double-quoted strings, with ``;`` line comments. The reader
tracks line and column so parse failures point at the offending input.
"""

from __future__ import annotations

__all__ = ["ParseError", "Symbol", "Node", "expect_list", "expect_symbol", "read_forms"]


class ParseError(ValueError):
    """Input text is not well formed for the expected grammar."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" (line {line}, column {column})" if line else ""
        super().__init__(message + location)
        self.message = message
        self.line = line
        self.column = column


class Symbol(str):
    """A bare identifier token, as opposed to a quoted string."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"Symbol({str.__repr__(self)})"


class Node:
    """One parsed form: a Symbol, a quoted string, or a tuple of Nodes.

    A plain class with slots rather than a dataclass, since the reader
    builds one per token. Nodes compare and hash by identity.
    """

    __slots__ = ("value", "line", "column")

    def __init__(self, value: object, line: int, column: int) -> None:
        self.value = value
        self.line = line
        self.column = column

    @property
    def is_list(self) -> bool:
        return isinstance(self.value, tuple)

    @property
    def is_symbol(self) -> bool:
        return isinstance(self.value, Symbol)

    @property
    def is_string(self) -> bool:
        return isinstance(self.value, str) and not isinstance(self.value, Symbol)

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.line, self.column)


def expect_list(node: Node, what: str) -> tuple[Node, ...]:
    """The node's items; a ParseError at the node naming what was expected."""

    if not node.is_list:
        raise node.error(f"expected {what}")
    return node.value


def expect_symbol(node: Node, what: str) -> str:
    """The node's symbol text; a ParseError at the node naming what was expected."""

    if not node.is_symbol:
        raise node.error(f"expected {what}")
    return str(node.value)


_DELIMITERS = "()\";"


def _tokenize(text: str):
    line, column = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
        elif ch.isspace():
            column += 1
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            yield ch, ch, line, column
            column += 1
            i += 1
        elif ch == '"':
            start_line, start_column = line, column
            i += 1
            column += 1
            parts = []
            while True:
                if i >= n:
                    raise ParseError("unterminated string", start_line, start_column)
                ch = text[i]
                if ch == '"':
                    i += 1
                    column += 1
                    break
                if ch == "\\":
                    if i + 1 >= n:
                        raise ParseError("unterminated escape", line, column)
                    esc = text[i + 1]
                    if esc not in ('"', "\\"):
                        raise ParseError(f"unknown escape '\\{esc}'", line, column)
                    parts.append(esc)
                    i += 2
                    column += 2
                elif ch == "\n":
                    raise ParseError("newline in string", line, column)
                else:
                    parts.append(ch)
                    i += 1
                    column += 1
            yield "string", "".join(parts), start_line, start_column
        else:
            start_line, start_column = line, column
            j = i
            while j < n and not text[j].isspace() and text[j] not in _DELIMITERS:
                j += 1
            yield "symbol", text[i:j], start_line, start_column
            column += j - i
            i = j


def read_forms(text: str) -> tuple[Node, ...]:
    """Parse text into the sequence of its top-level forms."""

    stack: list[tuple[list[Node], int, int]] = []
    top: list[Node] = []
    for kind, value, line, column in _tokenize(text):
        if kind == "(":
            stack.append((top, line, column))
            top = []
        elif kind == ")":
            if not stack:
                raise ParseError("unmatched ')'", line, column)
            items = top
            top, open_line, open_column = stack.pop()
            top.append(Node(tuple(items), open_line, open_column))
        elif kind == "string":
            top.append(Node(value, line, column))
        else:
            top.append(Node(Symbol(value), line, column))
    if stack:
        _, open_line, open_column = stack[-1]
        raise ParseError("unclosed '('", open_line, open_column)
    return tuple(top)
