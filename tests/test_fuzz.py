"""Parser fuzzing: malformed input ends in a parse error, never a crash.

The inputs are soups of parens, quotes, backslashes, comments, newlines
and keywords; balanced forms over the same keywords; and the shipped
corpus files with a few tokens or forms replaced, forms cut short, or
more forms after them. They feed the s-expression reader, the machine,
netlist and condition parsers, and the validate, check and deadlock
subcommands. Each parser may only raise its own error types, and each
command exits 0, 1 or 2 without reporting an internal error. No command
message prints a class repr where it should name a value; corpus files
with names replaced reach the messages about what a name refers to.
"""

import contextlib
import io
import pathlib
import re

from hypothesis import given, settings, strategies as st

from test_properties import BASE
from xdicheck import checker, circuit, formulas, labeling, library, machine, sexpr
from xdicheck.circuit import NetlistError, parse_netlist
from xdicheck.cli import main as cli_main
from xdicheck.formulas import parse_condition
from xdicheck.machine import parse_document, validate
from xdicheck.sexpr import ParseError, read_forms

MACHINES = pathlib.Path(__file__).resolve().parent.parent / "machines"
CORPUS = tuple(path.read_text() for path in sorted(MACHINES.iterdir()))

WORDS = (
    "machine", "conditions", "circuit", "instance", "channel", "stable",
    "t", "nil", "box", "transient", "R", "A", "I", "O", "s0", "s1",
    "a", "b", "c", "in", "out", "join", "storage", "source", "sink", "fork",
    '"blocked(a)"', '"idle(b) -> blocked(c)"', '"\\"', '"\\q"',
)
SEXPR_TOKENS = ("(", ")", '"', "\\", ";", "\n", " ") + WORDS

CONDITION_TOKENS = (
    "(", ")", "!", "&", "|", "->", "<->", "-", "<", '"', "\\", ";", "\n", " ",
    "true", "false", "blocked", "idle", "blocked(a)", "idle(b)", "a", "b",
)

_PIECE = re.compile(r'\s+|[()";\\]|[^\s()";\\]+')


def soups(tokens):
    gaps = st.sampled_from(("", " ", "\n"))
    return st.lists(st.tuples(st.sampled_from(tokens), gaps), max_size=40).map(
        lambda pairs: "".join(token + gap for token, gap in pairs)
    )


# Balanced forms over the same words: soups are rarely balanced, so these
# are what reach the checks behind the reader.
FORM = st.recursive(
    st.sampled_from(WORDS),
    lambda inner: st.lists(inner, max_size=5).map(lambda items: f"({' '.join(items)})"),
    max_leaves=24,
)
FORMS = st.lists(FORM, max_size=4).map("\n".join)


def _span_end(pieces, start):
    """Index just past the parenthesis matching the one at start."""

    depth = 0
    for index in range(start, len(pieces)):
        depth += {"(": 1, ")": -1}.get(pieces[index], 0)
        if depth == 0:
            return index + 1
    return len(pieces)


def _item_starts(pieces, start, end):
    """Indexes of the pieces that begin each item of the form at start."""

    starts, depth = [], 0
    for index in range(start + 1, end - 1):
        if depth == 0 and not pieces[index].isspace():
            starts.append(index)
        depth += {"(": 1, ")": -1}.get(pieces[index], 0)
    return starts


@st.composite
def mutants(draw):
    """A corpus file with one to three edits: a token deleted, inserted or
    replaced, or a parenthesized form dropped, replaced by a generated one
    or cut short after its first few items. Form edits are drawn twice as
    often as token edits, since they reach the checks on form shapes."""

    pieces = _PIECE.findall(draw(st.sampled_from(CORPUS)))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("delete", "insert", "replace", "graft", "graft", "cut", "cut")))
        opens = [index for index, piece in enumerate(pieces) if piece == "("]
        if op in ("graft", "cut") and opens:
            at = draw(st.sampled_from(opens))
            end = _span_end(pieces, at)
            if op == "graft":
                pieces[at:end] = [draw(st.one_of(st.just(""), FORM))]
            else:
                starts = _item_starts(pieces, at, end) + [end - 1]
                pieces[at:end] = pieces[at:draw(st.sampled_from(starts))] + [")"]
            continue
        at = draw(st.integers(0, len(pieces)))
        if op == "delete":
            del pieces[at:at + 1]
        elif op == "insert":
            pieces.insert(at, draw(st.sampled_from(SEXPR_TOKENS)))
        else:
            pieces[at:at + 1] = [draw(st.sampled_from(SEXPR_TOKENS))]
    return "".join(pieces)


@st.composite
def renamed(draw):
    """A corpus file with one to three names replaced by words: these
    keep the file readable and reach the checks on what names refer to,
    whose messages name instances, handshakes, endpoints and wires."""

    text = re.sub(r";.*", "", draw(st.sampled_from(CORPUS)))
    pieces = _PIECE.findall(text)
    names = [index for index, piece in enumerate(pieces) if piece[0].isalnum()]
    words = [word for word in WORDS if word.isalnum()]
    for _ in range(draw(st.integers(1, 3))):
        pieces[draw(st.sampled_from(names))] = draw(st.sampled_from(words))
    return "".join(pieces)


# Mutants reach the most checks, so they get twice the share of the others.
FILES = st.one_of(
    soups(SEXPR_TOKENS),
    FORMS,
    mutants(),
    mutants(),
    st.tuples(st.sampled_from(CORPUS), FORMS).map("".join),
)
FUZZ = settings(BASE, max_examples=300)

# "Name(" for every class the package defines: an error message that
# formats a value object instead of its spelling shows up as its repr.
CLASS_REPR = re.compile(
    r"\b(?:%s)\("
    % "|".join(
        sorted(
            {
                name
                for module in (checker, circuit, formulas, labeling, library, machine, sexpr)
                for name, value in vars(module).items()
                if isinstance(value, type) and value.__module__ == module.__name__
            }
        )
    )
)


def _parse_or_reject(parse, text, errors):
    """parse(text), or None when it raises one of errors; others escape."""

    try:
        return parse(text)
    except errors:
        return None


@FUZZ
@given(FILES)
def test_reader_raises_only_parse_errors(text):
    _parse_or_reject(read_forms, text, ParseError)


@FUZZ
@given(FILES)
def test_machine_parser_raises_only_parse_errors(text):
    parsed = _parse_or_reject(parse_document, text, ParseError)
    if parsed is not None:
        validate(parsed[0])


@FUZZ
@given(FILES)
def test_netlist_parser_raises_only_netlist_and_parse_errors(text):
    _parse_or_reject(parse_netlist, text, (ParseError, NetlistError))


@FUZZ
@given(soups(CONDITION_TOKENS))
def test_condition_parser_raises_only_parse_errors(text):
    _parse_or_reject(parse_condition, text, ParseError)


@settings(BASE, max_examples=100)
@given(FILES)
def test_commands_exit_cleanly_on_fuzzed_files(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "input"
    path.write_text(text, encoding="utf-8")
    for argv in (
        ("validate", str(path)),
        ("check", str(path)),
        ("deadlock", str(path), "--max-states", "5000"),
    ):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli_main(list(argv))
        assert code in (0, 1, 2), argv
        assert "internal error" not in err.getvalue(), (argv, err.getvalue())
        assert not CLASS_REPR.search(err.getvalue()), (argv, err.getvalue())


@settings(BASE, max_examples=100)
@given(renamed())
def test_error_messages_print_no_class_repr(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "input"
    path.write_text(text, encoding="utf-8")
    for argv in (
        ("validate", str(path)),
        ("check", str(path), "--condition", "blocked(a) -> idle(b)"),
        ("labels", str(path), "--handshake", "a"),
        ("query", str(path), "--handshake", "a", "--op", "g", "--mode", "blocking", "--start", "s1"),
        ("oracle-check", str(path), "--max-states", "8"),
        ("deadlock", str(path), "--max-states", "5000", "--channel", "a"),
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(list(argv))
        assert code in (0, 1, 2), argv
        assert not CLASS_REPR.search(err.getvalue()), (argv, err.getvalue())
        assert not CLASS_REPR.search(out.getvalue()), (argv, out.getvalue())
