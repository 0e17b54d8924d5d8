"""Reader behavior for the parenthesized file formats."""

import pytest

from xdicheck.sexpr import (
    ParseError,
    error_at,
    expect_list,
    expect_symbol,
    located,
    read_forms,
    spelling,
    string_value,
)


def _position(text, node, message="here"):
    """The line and column that located gives an error raised at node."""

    with pytest.raises(ParseError) as info, located(text):
        raise error_at(node, message)
    assert info.value.message == message
    return info.value.line, info.value.column


def test_reads_symbols_strings_and_nesting():
    forms = read_forms('(alpha "beta gamma" (inner))')
    assert len(forms) == 1
    items = expect_list(forms[0], "a list")
    assert expect_symbol(items[0], "a symbol") == "alpha"
    assert string_value(items[0]) is None
    assert string_value(items[1]) == "beta gamma"
    with pytest.raises(ParseError):
        expect_symbol(items[1], "a symbol")
    inner = expect_list(items[2], "a list")
    assert expect_symbol(inner[0], "a symbol") == "inner"
    assert string_value(items[2]) is None


def test_string_escapes_are_read():
    items = expect_list(read_forms(r'("a\"b" "c\\d" "")')[0], "a list")
    assert [string_value(item) for item in items] == ['a"b', "c\\d", ""]


def test_semicolon_comments_are_skipped_outside_strings():
    forms = read_forms('(a "b;x" ; rest of line\n c)')
    items = expect_list(forms[0], "a list")
    assert expect_symbol(items[0], "a symbol") == "a"
    assert string_value(items[1]) == "b;x"
    assert expect_symbol(items[2], "a symbol") == "c"
    assert len(items) == 3


def test_multiple_top_level_forms():
    forms = read_forms("(one) (two) three")
    assert len(forms) == 3
    assert expect_symbol(forms[2], "a symbol") == "three"


def test_reader_tracks_line_and_column():
    text = "(x\n  (y))"
    inner = expect_list(read_forms(text)[0], "a list")[1]
    assert _position(text, inner) == (2, 3)


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
    text = "(a b)"
    node = expect_list(read_forms(text)[0], "a list")[1]
    with pytest.raises(ParseError) as info, located(text):
        raise error_at(node, "unwanted b")
    failure = info.value
    assert failure.line == 1
    assert failure.column == 4
    assert "unwanted b" in str(failure)


def test_accessor_errors_name_what_was_expected():
    text = '(a\n "s")'
    outer = read_forms(text)[0]
    leaf, string = expect_list(outer, "a list")
    for node, access in ((leaf, expect_list), (string, expect_symbol), (outer, expect_symbol)):
        with pytest.raises(ParseError) as info, located(text):
            access(node, "a thing")
        assert info.value.message == "expected a thing"
    assert (info.value.line, info.value.column) == (1, 1)
    assert _position(text, string) == (2, 2)


def test_located_passes_other_errors_through():
    with pytest.raises(ParseError) as info, located("(a)"):
        raise ParseError("no node", 3, 4)
    assert (info.value.message, info.value.line, info.value.column) == ("no node", 3, 4)
    with pytest.raises(KeyError), located("(a)"):
        raise KeyError("x")


def test_spelling_keys_leaves_by_their_text():
    first, second, mixed = read_forms('(a R "I") (a R "I") (a (R) I)')
    assert spelling(expect_list(first, "a list")) == ("a", "R", '"I"')
    assert spelling(expect_list(first, "a list")) == spelling(expect_list(second, "a list"))
    assert spelling(expect_list(mixed, "a list")) is None
