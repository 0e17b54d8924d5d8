"""Reference reader and file parsers, used only by the tests.

read_forms is the character-by-character reader that the token-list
reader in xdicheck.sexpr replaced: it builds a Node per token and tracks
line and column as it goes. parse_document and parse_netlist are the
machine and netlist parsers written over those Nodes. They keep the
document rules of xdicheck.machine and xdicheck.circuit, including the
duplicate checks on the condition trailer, so that the differential
tests compare readers and node access, not rules.
"""

import re

from xdicheck.circuit import Channel, Endpoint, Netlist, NetlistError, _validate_netlist
from xdicheck.machine import ACK, BOX, INPUT, OUTPUT, REQUEST, TRANSIENT
from xdicheck.machine import StateEntry, Wire, XdiMachine
from xdicheck.sexpr import ParseError

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class Symbol(str):
    """A bare identifier token, as opposed to a quoted string."""

    __slots__ = ()

    def __repr__(self):
        return f"Symbol({str.__repr__(self)})"


class Node:
    """One parsed form: a Symbol, a quoted string, or a tuple of Nodes."""

    __slots__ = ("value", "line", "column")

    def __init__(self, value, line, column):
        self.value = value
        self.line = line
        self.column = column

    @property
    def is_list(self):
        return isinstance(self.value, tuple)

    @property
    def is_symbol(self):
        return isinstance(self.value, Symbol)

    @property
    def is_string(self):
        return isinstance(self.value, str) and not isinstance(self.value, Symbol)

    def error(self, message):
        return ParseError(message, self.line, self.column)


def expect_list(node, what):
    if not node.is_list:
        raise node.error(f"expected {what}")
    return node.value


def expect_symbol(node, what):
    if not node.is_symbol:
        raise node.error(f"expected {what}")
    return str(node.value)


_DELIMITERS = "()\";"


def _tokenize(text):
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


def read_forms(text):
    """Parse text into the sequence of its top-level forms."""

    stack = []
    top = []
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


def _expect_identifier(node, what):
    text = expect_symbol(node, what)
    if not _IDENTIFIER.match(text):
        raise node.error(f"{what} {text!r} is not an identifier")
    return text


def _parse_wire(node):
    items = expect_list(node, "wire (handshake R|A I|O)")
    if len(items) != 3:
        raise node.error("wire must have exactly three elements")
    handshake = _expect_identifier(items[0], "handshake")
    phase = expect_symbol(items[1], "phase").upper()
    if phase not in (REQUEST, ACK):
        raise items[1].error(f"phase must be R or A, got {phase!r}")
    direction = expect_symbol(items[2], "direction").upper()
    if direction not in (INPUT, OUTPUT):
        raise items[2].error(f"direction must be I or O, got {direction!r}")
    return Wire(handshake, phase, direction)


def _parse_state(node):
    items = expect_list(node, "state entry")
    if len(items) != 4:
        raise node.error("state entry must be (id init kind (transitions...))")
    name = _expect_identifier(items[0], "state id")
    init_token = expect_symbol(items[1], "init flag").lower()
    if init_token not in ("t", "nil"):
        raise items[1].error(f"init flag must be t or nil, got {init_token!r}")
    kind = expect_symbol(items[2], "state kind").lower()
    if kind not in (BOX, TRANSIENT):
        raise items[2].error(f"kind must be box or transient, got {kind!r}")
    transitions = []
    for transition_node in expect_list(items[3], "transition list"):
        pair = expect_list(transition_node, "transition (wire target)")
        if len(pair) != 2:
            raise transition_node.error("transition must be ((h R|A I|O) target)")
        wire = _parse_wire(pair[0])
        target = _expect_identifier(pair[1], "target state id")
        transitions.append((wire, target))
    return StateEntry(name, init_token == "t", kind, tuple(transitions))


def _machine_from_form(node):
    items = expect_list(node, "(machine ...) form")
    if not items or expect_symbol(items[0], "machine keyword") != "machine":
        raise node.error("expected (machine name states...)")
    if len(items) < 2:
        raise node.error("machine form needs a name")
    name = _expect_identifier(items[1], "machine name")
    states = tuple(_parse_state(child) for child in items[2:])
    if not states:
        raise node.error("machine declares no states")
    seen = set()
    for index, entry in enumerate(states):
        if entry.name in seen:
            raise items[2 + index].error(f"duplicate state id {entry.name!r}")
        seen.add(entry.name)
    return XdiMachine(name, states)


def _conditions_from_form(node):
    items = expect_list(node, "(conditions ...) form")
    out = []
    names = set()
    for child in items[1:]:
        pair = expect_list(child, "condition (name \"dsl\")")
        if len(pair) != 2 or not pair[1].is_string:
            raise child.error("condition must be (name \"formula text\")")
        name = _expect_identifier(pair[0], "condition name")
        if name in names:
            raise child.error(f"duplicate condition name {name!r}")
        names.add(name)
        out.append((name, str(pair[1].value)))
    return tuple(out)


def parse_document(text):
    """Parse a machine file plus its optional named-condition trailer."""

    forms = read_forms(text)
    if not forms:
        raise ParseError("empty input, expected a (machine ...) form")
    machine = _machine_from_form(forms[0])
    conditions = None
    for node in forms[1:]:
        items = expect_list(node, "trailing form")
        head = expect_symbol(items[0], "form keyword") if items else ""
        if head == "conditions":
            if conditions is not None:
                raise node.error("duplicate (conditions ...) form")
            conditions = _conditions_from_form(node)
        else:
            raise node.error(f"unexpected form {head!r} after machine")
    return machine, conditions or ()


def _parse_endpoint(node):
    items = expect_list(node, "endpoint (instance handshake)")
    if len(items) != 2:
        raise node.error("endpoint must be (instance handshake)")
    return Endpoint(
        expect_symbol(items[0], "instance id"), expect_symbol(items[1], "handshake")
    )


def parse_netlist(text):
    """Parse and validate a circuit description."""

    forms = read_forms(text)
    if len(forms) != 1:
        raise NetlistError("expected exactly one (circuit ...) form")
    items = expect_list(forms[0], "(circuit ...) form")
    if not items or expect_symbol(items[0], "circuit keyword") != "circuit" or len(items) < 2:
        raise forms[0].error("expected (circuit name entries...)")
    name = expect_symbol(items[1], "circuit name")

    instances = []
    channels = []
    stable = []
    for node in items[2:]:
        entry = expect_list(node, "circuit entry")
        head = expect_symbol(entry[0], "entry keyword") if entry else ""
        if head == "instance":
            if len(entry) != 3:
                raise node.error("instance entry must be (instance id primitive)")
            instances.append(
                (expect_symbol(entry[1], "instance id"), expect_symbol(entry[2], "primitive"))
            )
        elif head == "channel":
            if len(entry) != 4:
                raise node.error("channel entry must be (channel id endpoint endpoint)")
            channels.append(
                Channel(
                    expect_symbol(entry[1], "channel id"),
                    _parse_endpoint(entry[2]),
                    _parse_endpoint(entry[3]),
                )
            )
        elif head == "stable":
            if len(entry) != 2:
                raise node.error("stable entry must be (stable endpoint)")
            stable.append(_parse_endpoint(entry[1]))
        else:
            raise node.error(f"unknown circuit entry {head!r}")

    netlist = Netlist(name, tuple(instances), tuple(channels), frozenset(stable))
    _validate_netlist(netlist)
    return netlist
