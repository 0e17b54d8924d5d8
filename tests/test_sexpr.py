"""Reader behavior for the parenthesized file formats."""

import pytest

from xdicheck.sexpr import ParseError, Symbol, read_forms


def test_reads_symbols_strings_and_nesting():
    forms = read_forms('(alpha "beta gamma" (inner))')
    assert len(forms) == 1
    items = forms[0].value
    assert items[0].value == Symbol("alpha")
    assert items[0].is_symbol
    assert items[1].value == "beta gamma"
    assert items[1].is_string
    assert items[2].is_list
    assert items[2].value[0].value == Symbol("inner")


def test_semicolon_comments_are_skipped_outside_strings():
    forms = read_forms('(a "b;x" ; rest of line\n c)')
    items = forms[0].value
    assert [n.value for n in items] == [Symbol("a"), "b;x", Symbol("c")]


def test_multiple_top_level_forms():
    forms = read_forms("(one) (two) three")
    assert len(forms) == 3
    assert forms[2].value == Symbol("three")


def test_reader_tracks_line_and_column():
    forms = read_forms("(x\n  (y))")
    inner = forms[0].value[1]
    assert (inner.line, inner.column) == (2, 3)


@pytest.mark.parametrize(
    "text, message",
    [
        ("(a", "unclosed '('"),
        (")", "unmatched ')'"),
        ("(a))", "unmatched ')'"),
        ('(a "oops', "unterminated string"),
    ],
)
def test_reader_rejects_malformed_input(text, message):
    with pytest.raises(ParseError) as info:
        read_forms(text)
    assert info.value.message == message
    assert info.value.line >= 1
    assert info.value.column >= 1


def test_node_error_carries_location():
    node = read_forms("(a b)")[0].value[1]
    failure = node.error("unwanted b")
    assert failure.line == 1
    assert failure.column == 4
    assert "unwanted b" in str(failure)

