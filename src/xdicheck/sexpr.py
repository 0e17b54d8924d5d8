"""Minimal s-expression reader.

The machine and netlist file formats are parenthesized forms built from
symbols and double-quoted strings, with ``;`` line comments. The reader
splits the text into tokens with one regular expression and builds the
forms from that token list with one stack. A machine file reaches this
reader only when the pattern reader in machine.py declines it: that
reader takes a plain machine file one regex match per state entry and
leaves every error, and the spellings its patterns do not take, to this
one.

A form is a pair: a list is ``(children, token)``, with ``children`` a
tuple of forms, and a leaf is ``(text, token)``, with ``text`` the
token as written, so a string leaf keeps its quotes until it is read
with ``string_value``. ``token`` is the form's index in the token list
(for a list, the index of its opening paren). Line and column are
computed only when an error is raised: ``located`` rescans the text to
the failing token, so no position is kept per token. The condition DSL
reads its own token list and passes its pattern to ``located``.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from itertools import islice
from operator import itemgetter
from typing import Iterator, Union

__all__ = [
    "ParseError",
    "Form",
    "error_at",
    "expect_list",
    "expect_symbol",
    "located",
    "read_forms",
    "spelling",
    "string_value",
]

Form = tuple[Union[str, tuple], int]

# A paren, a well-formed string, a lone quote (a malformed string), a
# comment, or a symbol. Whitespace matches none of them and is skipped;
# regex \s and str.isspace agree on every code point.
_TOKEN = re.compile(r'[()]|"(?:[^"\\\n]|\\["\\])*"|"|;[^\n]*|[^\s()";]+')
_ESCAPE = re.compile(r'\\(["\\])')
_TEXT = itemgetter(0)


class ParseError(ValueError):
    """Input text is not well formed for the expected grammar.

    An error raised at a token (by ``error_at`` at a node, or by the
    condition parser) carries the token index and no line yet;
    ``located`` replaces it with one that has both.
    """

    def __init__(
        self, message: str, line: int = 0, column: int = 0, token: int | None = None
    ) -> None:
        location = f" (line {line}, column {column})" if line else ""
        super().__init__(message + location)
        self.message = message
        self.line = line
        self.column = column
        self.token = token


def _offset_error(text: str, offset: int, message: str) -> ParseError:
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


def _token_offset(text: str, token: int, pattern: re.Pattern = _TOKEN) -> int:
    match = next(islice(pattern.finditer(text), token, None), None)
    return match.start() if match else len(text)


def _string_error(text: str, start: int) -> ParseError:
    """Why the string opened at start is malformed.

    The token pattern matched no well-formed string there, so the scan
    meets one of these faults before any closing quote.
    """

    i, n = start + 1, len(text)
    while i < n:
        ch = text[i]
        if ch == "\\":
            if i + 1 >= n:
                return _offset_error(text, i, "unterminated escape")
            if text[i + 1] not in ('"', "\\"):
                return _offset_error(text, i, f"unknown escape '\\{text[i + 1]}'")
            i += 2
        elif ch == "\n":
            return _offset_error(text, i, "newline in string")
        else:
            i += 1
    return _offset_error(text, start, "unterminated string")


def read_forms(text: str) -> tuple[Form, ...]:
    """Parse text into the sequence of its top-level forms."""

    stack: list[tuple[list[Form], int]] = []
    top: list[Form] = []
    for index, token in enumerate(_TOKEN.findall(text)):
        if token == "(":
            stack.append((top, index))
            top = []
        elif token == ")":
            if not stack:
                raise _offset_error(text, _token_offset(text, index), "unmatched ')'")
            children = tuple(top)
            top, start = stack.pop()
            top.append((children, start))
        elif token == '"':
            raise _string_error(text, _token_offset(text, index))
        elif token[0] != ";":
            top.append((token, index))
    if stack:
        raise _offset_error(text, _token_offset(text, stack[-1][1]), "unclosed '('")
    return tuple(top)


def error_at(node: Form, message: str) -> ParseError:
    """A ParseError at the node; ``located`` gives it its line and column."""

    return ParseError(message, token=node[1])


@contextmanager
def located(text: str, pattern: re.Pattern = _TOKEN) -> Iterator[None]:
    """Give a ParseError raised at a token of text its line and column.

    The token index counts the pattern's matches; one past the last
    stands for the end of the text."""

    try:
        yield
    except ParseError as error:
        if error.token is None:
            raise
        offset = _token_offset(text, error.token, pattern)
        raise _offset_error(text, offset, error.message) from None


def expect_list(node: Form, what: str) -> tuple[Form, ...]:
    """The node's children; a ParseError at the node naming what was expected."""

    children = node[0]
    if type(children) is not tuple:
        raise error_at(node, f"expected {what}")
    return children


def expect_symbol(node: Form, what: str) -> str:
    """The node's symbol text; a ParseError at the node naming what was expected."""

    text = node[0]
    if type(text) is not str or text[0] == '"':
        raise error_at(node, f"expected {what}")
    return text


def string_value(node: Form) -> str | None:
    """The text of a string node with its escapes read; None for any other node."""

    text = node[0]
    if type(text) is not str or text[0] != '"':
        return None
    return _ESCAPE.sub(r"\1", text[1:-1])


def spelling(nodes: tuple[Form, ...]) -> tuple[str, ...] | None:
    """The nodes' texts as written, a hashable key; None when one is a list."""

    texts = tuple(map(_TEXT, nodes))
    return None if tuple in map(type, texts) else texts
