"""The token-list reader against the reference reader it replaced.

tests/sexpr_reference.py keeps the character-by-character reader, which
builds a Node per token with its line and column, and the machine and
netlist parsers written over it. On every input below, both readers
must give the same forms, each at the same line and column, and both
file parsers the same result, or the same exception type, message, line
and column. The inputs are the shipped machine, netlist and library
files, the rings and netlists conftest.py builds, hand cases for
whitespace, comments, escapes and malformed strings, and the fuzz
strategies of tests/test_fuzz.py.
"""

import pathlib

import pytest
from hypothesis import given

import sexpr_reference as reference
from conftest import MACHINES, _chain_netlist, _ring_document, _tree_netlist
from test_fuzz import FILES, FUZZ
from xdicheck.circuit import NetlistError, parse_netlist
from xdicheck.machine import parse_document
from xdicheck.sexpr import (
    ParseError,
    error_at,
    expect_list,
    expect_symbol,
    located,
    read_forms,
    string_value,
)

LIBRARY = pathlib.Path(__file__).resolve().parent.parent / "src" / "xdicheck" / "library_data"
FILES_ON_DISK = sorted(MACHINES.iterdir()) + sorted(LIBRARY.iterdir())

GENERATED = [
    *(_ring_document(length, polarity) for length in (2, 24, 200) for polarity in ("idle", "blocked")),
    *(_chain_netlist(n, broken) for n in (1, 4) for broken in (False, True)),
    *(_tree_netlist(depth, broken) for depth in (1, 2) for broken in (False, True)),
]

_MACHINE = "(machine m (s0 t box (((a R I) s0))))"
HAND_CASES = [
    # whitespace: only "\n" starts a line; the others are one column each
    "(machine m\r\n  (s0 t box ()))\r\n",
    "(machine\tm\t(s0 t box\t()))",
    "(machine\u00a0m (s0 t box ()))",
    "(machine\x1cm (s0 t box ()))",
    "(machine m\u2028(s0 t box ())\u2028x)",
    "(machine m\u3000\x0b(s0 t box\r\n\x85(((a R I) s9))))",
    # comments
    _MACHINE + '\n(conditions (c "blocked(a) ; not a comment"))',
    _MACHINE + " ; a comment at the end, no newline",
    "; only a comment",
    "; comment (with parens\n" + _MACHINE + ";)",
    # escapes
    _MACHINE + r'(conditions (c "blocked(a) \"x\\"))',
    _MACHINE + r'(conditions (c "\\"))',
    _MACHINE + r'(conditions (c "\q"))',
    _MACHINE + r'(conditions (c "ends in \\',
    _MACHINE + '(conditions (c "trailing backslash \\',
    _MACHINE + '(conditions (c "escaped newline \\\n"))',
    _MACHINE + '(conditions (c "newline\nin string"))',
    _MACHINE + '(conditions (c "unterminated',
    '"\\',
    '"',
    '""',
    # unclosed and unmatched parens before and after a bad string
    '(a "\\q"',
    '(a\n  "x\ny")',
    '(a "unterminated',
    ') "\\q"',
    '"\\q" )',
    '(a) ) "oops',
    '"oops\n ) (',
    '( ( "\\"',
    # conditions trailer rules
    _MACHINE + '(conditions (c1 "blocked(a)") (c1 "!blocked(a)"))',
    _MACHINE + '(conditions) (conditions (c "true"))',
    _MACHINE + '(conditions (c "true")) (conditions)',
    _MACHINE + '(conditions (c1 "true") (c2 x))',
    _MACHINE + '(conditions ("c" "true"))',
    _MACHINE + "(other)",
    _MACHINE + "()",
    # wires spelled alike and not
    "(machine m (s0 t box (((a R I) s1) ((a r i) s0))) (s1 nil box (((a R I) s0))))",
    "(machine m (s0 t box (((a R I) s1))) (s1 nil box (((a R (I)) s0))))",
    "(machine m (s0 t box (((a R I) s1))) (s1 nil box (((1a R I) s0))))",
    "(machine m (s0 t box (((a X (I)) s1))))",
    "(machine m (s0 t box ((((a) R I) s1))))",
    '(machine m (s0 t box ((("a" R I) s1))))',
    # netlists
    "(circuit c (instance a join) (instance a fork))",
    "(circuit c (channel) (instance a join))",
    "(circuit c (stable (a)))",
    '(circuit "c")',
    "(circuit c) (circuit d)",
    "",
]


def _canonical(node, text=None):
    """A new-reader form as nested tuples; with text, each node's line and column."""

    string = string_value(node)
    if string is not None:
        value = ("string", string)
    else:
        try:
            value = ("symbol", expect_symbol(node, "symbol"))
        except ParseError:
            value = tuple(_canonical(child, text) for child in expect_list(node, "list"))
    if text is None:
        return value
    with pytest.raises(ParseError) as info, located(text):
        raise error_at(node, "position")
    return value, info.value.line, info.value.column


def _reference_canonical(node, with_position):
    if node.is_list:
        value = tuple(_reference_canonical(child, with_position) for child in node.value)
    elif node.is_string:
        value = ("string", node.value)
    else:
        value = ("symbol", str(node.value))
    return (value, node.line, node.column) if with_position else value


def _forms(text, with_positions):
    return [_canonical(node, text if with_positions else None) for node in read_forms(text)]


def _reference_forms(text, with_positions):
    return [_reference_canonical(node, with_positions) for node in reference.read_forms(text)]


def _outcome(parse, text, *args):
    """parse(text, *args), or the type, text, line and column of its parse error."""

    try:
        return parse(text, *args)
    except (ParseError, NetlistError) as error:
        return type(error), str(error), getattr(error, "line", None), getattr(error, "column", None)


def _assert_same(text, with_positions=True):
    assert _outcome(_forms, text, with_positions) == _outcome(_reference_forms, text, with_positions), text
    assert _outcome(parse_document, text) == _outcome(reference.parse_document, text), text
    assert _outcome(parse_netlist, text) == _outcome(reference.parse_netlist, text), text


@pytest.mark.parametrize("path", FILES_ON_DISK, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_shipped_files_read_alike(path):
    _assert_same(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("index", range(len(GENERATED)))
def test_generated_files_read_alike(index):
    text = GENERATED[index]
    # Positions are checked by rescanning per node, so only on the smaller files.
    _assert_same(text, with_positions=len(text) < 2000)


@pytest.mark.parametrize("text", HAND_CASES)
def test_hand_cases_read_alike(text):
    _assert_same(text)


@FUZZ
@given(FILES)
def test_fuzzed_files_read_alike(text):
    _assert_same(text)
